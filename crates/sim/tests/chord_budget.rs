//! The chord budget of a transient Newton solve, observed through the
//! `dotm-obs` counters. The recorder is process-global, so this test has
//! a binary to itself.

use dotm_netlist::{MosType, MosfetParams, Netlist, Waveform};
use dotm_sim::Simulator;

fn counter(name: &str) -> u64 {
    dotm_obs::counters_snapshot()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

#[test]
fn a_solve_refactors_once_its_chord_budget_is_spent() {
    // One 2 ns step across a 0 → 2 V gate edge: the NMOS turns on, so the
    // step's Newton solve needs more iterations than the budget allows.
    let mut nl = Netlist::new("nmos_stage");
    let vdd = nl.node("vdd");
    let g = nl.node("g");
    let d = nl.node("d");
    nl.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(5.0))
        .unwrap();
    nl.add_vsource(
        "VG",
        g,
        Netlist::GROUND,
        Waveform::pulse(0.0, 2.0, 0.5e-9, 1e-10, 1e-10, 1.0, 0.0),
    )
    .unwrap();
    nl.add_resistor("RD", vdd, d, 1e3).unwrap();
    nl.add_capacitor("CL", d, Netlist::GROUND, 1e-12).unwrap();
    nl.add_mosfet(
        "M1",
        d,
        g,
        Netlist::GROUND,
        Netlist::GROUND,
        MosType::Nmos,
        MosfetParams::nmos_default(),
    )
    .unwrap();

    let mut sim = Simulator::new(&nl);
    dotm_obs::reset();
    dotm_obs::set_enabled(true);
    sim.transient(2e-9, &[2e-9]).expect("transient");
    dotm_obs::set_enabled(false);
    assert_eq!(sim.stats().tran_steps, 1);
    assert_eq!(sim.stats().rejected_steps, 0);
    // The step factors at iteration 0 (the first step after the DC solve),
    // spends exactly the two-iteration chord budget, and then refactors:
    // at least once for the step beyond the DC solve's own factorisation.
    assert_eq!(counter("lu.chord_solves"), 2);
    let refactors = counter("lu.refactors");
    assert!(refactors >= 3, "{refactors} factorisations");
}
