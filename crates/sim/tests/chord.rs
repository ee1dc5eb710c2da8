//! Chord (modified) Newton in transient solves: iterations reuse the LU
//! factors of an earlier Jacobian with the same step size and rule, and
//! refactor when the step changes. These tests pin the answer against
//! analytic values, pin the refactor triggers through their effect on
//! iteration counts, and pin run-to-run bit-identity.

use dotm_netlist::{MosType, MosfetParams, Netlist, NodeId, Waveform};
use dotm_sim::{Integration, SimOptions, SimStats, Simulator};

const VDD: f64 = 5.0;

/// NMOS common-source stage with a resistive and a capacitive load; the
/// gate steps from 0 to 2 V at 1 ns, leaving the device in saturation.
fn nmos_stage() -> (Netlist, NodeId) {
    let mut nl = Netlist::new("nmos_stage");
    let vdd = nl.node("vdd");
    let g = nl.node("g");
    let d = nl.node("d");
    nl.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(VDD))
        .unwrap();
    nl.add_vsource(
        "VG",
        g,
        Netlist::GROUND,
        Waveform::pulse(0.0, 2.0, 1e-9, 1e-10, 1e-10, 1.0, 0.0),
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
    (nl, d)
}

/// The CMOS inverter of `regression.rs` slewing a load cap under a fast
/// pulse train; with a tight `max_iter` its edges force step halvings
/// (`step_carry_cuts_rejected_steps_without_flipping_the_answer` there
/// checks the settled output against a run without halvings).
fn edgy_inverter() -> Netlist {
    let mut nl = Netlist::new("edgy_inverter");
    let vdd = nl.node("vdd");
    let vin = nl.node("in");
    let out = nl.node("out");
    nl.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(VDD))
        .unwrap();
    nl.add_vsource(
        "VIN",
        vin,
        Netlist::GROUND,
        Waveform::pulse(0.0, 5.0, 2e-9, 1e-11, 1e-11, 5e-9, 10e-9),
    )
    .unwrap();
    nl.add_mosfet(
        "MP",
        out,
        vin,
        vdd,
        vdd,
        MosType::Pmos,
        MosfetParams::pmos_default(),
    )
    .unwrap();
    nl.add_mosfet(
        "MN",
        out,
        vin,
        Netlist::GROUND,
        Netlist::GROUND,
        MosType::Nmos,
        MosfetParams::nmos_default(),
    )
    .unwrap();
    nl.add_capacitor("CL", out, Netlist::GROUND, 100e-15)
        .unwrap();
    nl
}

/// 5 mA current step into R = 1 kΩ ∥ C = 1 nF (τ = 1 µs) at `delay`.
/// The circuit is linear, so an iteration with factors of the current
/// Jacobian lands on the step's solution and the next one confirms it:
/// with `max_iter = 2` any step that reuses factors of a *different*
/// Jacobian fails and is halved.
fn rc_current_step(delay: f64) -> Netlist {
    let mut nl = Netlist::new("rc_current_step");
    let n = nl.node("n");
    nl.add_isource(
        "I1",
        Netlist::GROUND,
        n,
        Waveform::pulse(0.0, 5e-3, delay, 1e-12, 1e-12, 1.0, 0.0),
    )
    .unwrap();
    nl.add_resistor("R1", n, Netlist::GROUND, 1e3).unwrap();
    nl.add_capacitor("C1", n, Netlist::GROUND, 1e-9).unwrap();
    nl
}

#[test]
fn mos_load_transient_settles_on_the_level1_operating_point() {
    let (nl, d) = nmos_stage();
    let mut sim = Simulator::new(&nl);
    let end = sim.transient(0.25e-9, &[30e-9]).expect("transient");
    let vd = end[0].voltage(d);
    // The analytic saturation current of `nmos_saturation_current_matches_level1`
    // in analytic.rs must equal the load current at the settled point.
    let p = MosfetParams::nmos_default();
    let vov = 2.0 - p.vt0;
    assert!(vd > vov, "device must sit in saturation, vd = {vd}");
    let ids = 0.5 * p.kp * p.w / p.l * vov * vov * (1.0 + p.lambda * vd);
    let i_load = (VDD - vd) / 1e3;
    assert!(
        (ids - i_load).abs() / ids < 1e-4,
        "model {ids} vs load {i_load}"
    );
    // And the transient's end point is the DC operating point with the
    // gate at its final value, to within the Newton tolerance.
    let mut dc = Simulator::new(&nl);
    dc.override_source("VG", 2.0).unwrap();
    let vd_dc = dc.dc_op().expect("dc").voltage(d);
    assert!((vd - vd_dc).abs() < 1e-4, "tran {vd} vs dc {vd_dc}");
}

#[test]
fn halved_step_refactors_instead_of_reusing_the_old_step_factors() {
    // At the current edge the full 0.5 µs step moves the node by 1.67 V,
    // past the 1.2 V clamp, so Newton needs more than two iterations and
    // the step is halved. At 0.25 µs the node moves 1.0 V: factors built
    // for 0.25 µs solve that in two iterations, factors left over from
    // 0.5 µs overshoot into the clamp and would force a further halving.
    let nl = rc_current_step(0.9e-6);
    let mut sim = Simulator::with_options(
        &nl,
        SimOptions {
            max_iter: 2,
            v_step_limit: 1.2,
            max_step_halvings: 3,
            ..SimOptions::default()
        },
    );
    let end = sim.transient(0.5e-6, &[3e-6]).expect("transient");
    let s = sim.stats();
    // Two grid intervals (ending at 1.0 and 1.5 µs) need one halving
    // each; every halved attempt converges first time.
    assert_eq!(s.step_halvings, 2, "{s:?}");
    assert_eq!(s.rejected_steps, 2, "{s:?}");
    let n = nl.find_node("n").unwrap();
    let v_end = end[0].voltage(n);
    assert!(v_end > 3.0 && v_end < 5.0, "end voltage {v_end}");
}

#[test]
fn trapezoidal_switch_refactors_instead_of_reusing_backward_euler_factors() {
    // The first step is backward Euler, every later one trapezoidal: the
    // companion conductance doubles, so chord iterations on the BE
    // factors could not converge within two iterations at the edge.
    let nl = rc_current_step(0.9e-6);
    let mut sim = Simulator::with_options(
        &nl,
        SimOptions {
            max_iter: 2,
            v_step_limit: 1e3,
            integration: Integration::Trapezoidal,
            ..SimOptions::default()
        },
    );
    sim.transient(0.5e-6, &[3e-6]).expect("transient");
    let s = sim.stats();
    assert_eq!(s.rejected_steps, 0, "{s:?}");
    assert_eq!(s.tran_steps, 6, "{s:?}");
}

#[test]
fn first_step_after_dc_refactors_instead_of_reusing_dc_factors() {
    // The current steps up right after t = 0, so the first step moves the
    // node. The initial DC solve leaves factors of a matrix without the
    // capacitor companion; chord iterations on them would overshoot.
    // A second analysis on the same simulator starts from a DC solve too.
    let nl = rc_current_step(1e-12);
    let mut sim = Simulator::with_options(
        &nl,
        SimOptions {
            max_iter: 2,
            v_step_limit: 1e3,
            ..SimOptions::default()
        },
    );
    for _ in 0..2 {
        sim.transient(0.5e-6, &[3e-6]).expect("transient");
    }
    let s = sim.stats();
    assert_eq!(s.rejected_steps, 0, "{s:?}");
    assert_eq!(s.tran_steps, 12, "{s:?}");
}

/// Every solution value's bits, node voltages and branch currents at
/// every point of the 1 ns output grid, plus the solver telemetry.
fn run_bits(nl: &Netlist, opts: SimOptions) -> (Vec<u64>, SimStats) {
    let mut sim = Simulator::with_options(nl, opts);
    let grid: Vec<f64> = (0..=50).map(|k| k as f64 * 1e-9).collect();
    let reads = sim.transient(1e-9, &grid).expect("transient");
    let bits = reads
        .iter()
        .flat_map(|op| op.unknowns().iter().map(|v| v.to_bits()))
        .collect();
    (bits, *sim.stats())
}

#[test]
fn identical_runs_are_bitwise_equal() {
    let nl = edgy_inverter();
    for max_iter in [6, SimOptions::default().max_iter] {
        let opts = SimOptions {
            max_iter,
            ..SimOptions::default()
        };
        let first = run_bits(&nl, opts.clone());
        let second = run_bits(&nl, opts);
        assert_eq!(first.0, second.0, "max_iter {max_iter}: solution bits");
        assert_eq!(first.1, second.1, "max_iter {max_iter}: telemetry");
    }
}
