//! One simulator can run every analysis of a measurement: a sequence of
//! analyses on one `Simulator` must solve to the same bits as a fresh
//! simulator per analysis with the same source overrides installed, also
//! where the analyses stamp different baseline matrices (gmin rungs, step
//! sizes).
//! And a transient runs to its last read and no further, so a read never
//! depends on the reads after it.

use dotm_netlist::{MosType, MosfetParams, Netlist, Waveform};
use dotm_sim::{OpPoint, SimError, SimOptions, Simulator};

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
    let pinned = sim.transient(DT, &AT).unwrap();
    let pinned_fresh = fresh(&nl, &[("VB", 2.0), ("VIN", 1.0)])
        .transient(DT, &AT)
        .unwrap();
    assert_eq!(bits(&pinned), bits(&pinned_fresh), "transient, VB and VIN");

    // Clearing one override, then a refused request, then a transient
    // that must see VIN's pulse again.
    sim.clear_override("VIN");
    assert!(matches!(
        sim.transient(0.0, &AT),
        Err(SimError::InvalidRequest(_))
    ));
    let pulsed = sim.transient(DT, &AT).unwrap();
    let pulsed_fresh = fresh(&nl, &[("VB", 2.0)]).transient(DT, &AT).unwrap();
    assert_eq!(bits(&pulsed), bits(&pulsed_fresh), "transient after clear");
    assert_ne!(
        bits(&pulsed),
        bits(&pinned),
        "the pulse must move the output, or the clear is untested"
    );
}

#[test]
fn a_gmin_ladder_and_two_step_sizes_on_one_simulator_match_fresh_ones() {
    let nl = biased_inverter();
    // Eight iterations are too few for plain Newton at VIN = 2 V, so the
    // DC climbs the gmin ladder: a baseline per rung.
    let opts = SimOptions {
        max_iter: 8,
        ..SimOptions::default()
    };
    let fresh = || Simulator::with_options(&nl, opts.clone());
    let mut sim = fresh();
    sim.override_source("VIN", 2.0).unwrap();
    let dc = sim.dc_op().unwrap();
    assert_eq!(sim.stats().converged_gmin, 1, "{:?}", sim.stats());
    let mut dc_fresh = fresh();
    dc_fresh.override_source("VIN", 2.0).unwrap();
    assert_eq!(
        bits(&[dc]),
        bits(&[dc_fresh.dc_op().unwrap()]),
        "gmin ladder"
    );

    sim.clear_override("VIN");
    let coarse = sim.transient(DT, &AT).unwrap();
    let coarse_fresh = fresh().transient(DT, &AT).unwrap();
    assert_eq!(bits(&coarse), bits(&coarse_fresh), "transient at dt");
    let fine = sim.transient(DT / 2.0, &AT).unwrap();
    let fine_fresh = fresh().transient(DT / 2.0, &AT).unwrap();
    assert_eq!(bits(&fine), bits(&fine_fresh), "transient at dt/2");
    assert_ne!(bits(&coarse), bits(&fine), "the step size must matter");
}

#[test]
fn a_read_does_not_depend_on_the_reads_after_it() {
    let nl = biased_inverter();
    for a in [0.0, 2.5e-9, 5.2e-9] {
        let alone = fresh(&nl, &[]).transient(DT, &[a]).unwrap();
        let first = fresh(&nl, &[]).transient(DT, &[a, 20e-9]).unwrap();
        assert_eq!(bits(&alone), bits(&first[..1]), "read at {a}");
    }
}

#[test]
fn a_transient_steps_to_the_grid_point_of_its_last_read() {
    let nl = biased_inverter();
    let mut sim = fresh(&nl, &[]);
    // 12.2 ns snaps to 24·dt; the order of the reads does not matter.
    sim.transient(DT, &[12.2e-9, 5e-9]).unwrap();
    let s = *sim.stats();
    assert_eq!(s.step_halvings, 0, "every step is one grid interval");
    assert_eq!(s.tran_steps, 24, "{s:?}");
}

#[test]
fn no_read_solves_nothing_and_an_unreachable_read_is_refused() {
    let nl = biased_inverter();
    let mut sim = fresh(&nl, &[]);
    assert!(sim.transient(DT, &[]).unwrap().is_empty());
    for (dt, at) in [
        (DT, f64::INFINITY),
        (f64::MIN_POSITIVE, 1.0),
        (0.0, 1e-9),
        (-DT, 1e-9),
        (f64::NAN, 1e-9),
        (f64::INFINITY, 1e-9),
    ] {
        assert!(
            matches!(
                sim.transient(dt, &[1e-9, at]),
                Err(SimError::InvalidRequest(_))
            ),
            "dt = {dt}, t = {at}"
        );
    }
    assert!(sim.stats().is_empty(), "{:?}", sim.stats());
}

#[test]
fn nan_and_negative_instants_read_the_initial_condition() {
    let nl = biased_inverter();
    let initial = fresh(&nl, &[]).transient(DT, &[0.0]).unwrap();
    let reads = fresh(&nl, &[])
        .transient(DT, &[f64::NAN, -1e-9, f64::NEG_INFINITY])
        .unwrap();
    for op in &reads {
        assert_eq!(bits(std::slice::from_ref(op)), bits(&initial));
    }
}
