//! One simulator can run every analysis of a measurement: a sequence of
//! analyses on one `Simulator` must solve to the same bits as a fresh
//! simulator per analysis with the same source overrides installed.

use dotm_netlist::{MosType, MosfetParams, Netlist, Waveform};
use dotm_sim::{OpPoint, SimError, Simulator};

/// A CMOS inverter with an extra biased pull-down on its capacitive
/// load: three sources, nonlinear devices and a real transient.
fn biased_inverter() -> Netlist {
    let mut nl = Netlist::new("biased_inverter");
    let vdd = nl.node("vdd");
    let vin = nl.node("in");
    let b = nl.node("b");
    let out = nl.node("out");
    let gnd = Netlist::GROUND;
    nl.add_vsource("VDD", vdd, gnd, Waveform::dc(5.0)).unwrap();
    nl.add_vsource(
        "VIN",
        vin,
        gnd,
        Waveform::pulse(0.0, 5.0, 2e-9, 1e-10, 1e-10, 1.0, 0.0),
    )
    .unwrap();
    nl.add_vsource("VB", b, gnd, Waveform::dc(1.0)).unwrap();
    let (p, n) = (MosfetParams::pmos_default(), MosfetParams::nmos_default());
    nl.add_mosfet("MP", out, vin, vdd, vdd, MosType::Pmos, p)
        .unwrap();
    nl.add_mosfet("MN", out, vin, gnd, gnd, MosType::Nmos, n.clone())
        .unwrap();
    nl.add_mosfet("MB", out, b, gnd, gnd, MosType::Nmos, n)
        .unwrap();
    nl.add_capacitor("CL", out, gnd, 100e-15).unwrap();
    nl
}

const TSTOP: f64 = 20e-9;
const DT: f64 = 0.5e-9;
const AT: [f64; 4] = [0.0, 2.5e-9, 5e-9, 20e-9];

/// The bits of every node voltage and branch current of `ops`.
fn bits(ops: &[OpPoint]) -> Vec<u64> {
    ops.iter()
        .flat_map(|op| op.unknowns().iter().map(|v| v.to_bits()))
        .collect()
}

/// A fresh simulator with `overrides` installed.
fn fresh<'a>(nl: &'a Netlist, overrides: &[(&str, f64)]) -> Simulator<'a> {
    let mut sim = Simulator::new(nl);
    for &(name, v) in overrides {
        sim.override_source(name, v).unwrap();
    }
    sim
}

#[test]
fn one_simulator_solves_every_analysis_to_the_bits_of_fresh_ones() {
    let nl = biased_inverter();
    let mut sim = Simulator::new(&nl);

    // A DC with one override.
    sim.override_source("VB", 2.0).unwrap();
    let dc = sim.dc_op().unwrap();
    let dc_fresh = fresh(&nl, &[("VB", 2.0)]).dc_op().unwrap();
    assert_eq!(bits(&[dc]), bits(&[dc_fresh]), "DC with VB overridden");

    // A transient with two overrides.
    sim.override_source("VIN", 1.0).unwrap();
    let pinned = sim.transient(TSTOP, DT, &AT).unwrap();
    let pinned_fresh = fresh(&nl, &[("VB", 2.0), ("VIN", 1.0)])
        .transient(TSTOP, DT, &AT)
        .unwrap();
    assert_eq!(bits(&pinned), bits(&pinned_fresh), "transient, VB and VIN");

    // Clearing one override, then a refused request, then a transient
    // that must see VIN's pulse again.
    sim.clear_override("VIN");
    assert!(matches!(
        sim.transient(TSTOP, 0.0, &AT),
        Err(SimError::InvalidRequest(_))
    ));
    let pulsed = sim.transient(TSTOP, DT, &AT).unwrap();
    let pulsed_fresh = fresh(&nl, &[("VB", 2.0)])
        .transient(TSTOP, DT, &AT)
        .unwrap();
    assert_eq!(bits(&pulsed), bits(&pulsed_fresh), "transient after clear");
    assert_ne!(
        bits(&pulsed),
        bits(&pinned),
        "the pulse must move the output, or the clear is untested"
    );
}
