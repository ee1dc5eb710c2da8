//! Regression tests for solver edge cases and the telemetry accumulator
//! (the transient output grid and its lookup are unit-tested in
//! `engine.rs`).

use dotm_netlist::{Netlist, Waveform};
use dotm_sim::{SimOptions, Simulator};

/// A 2 V source over a 1k/1k divider: v(mid) = 1 V.
fn divider() -> Netlist {
    let mut nl = Netlist::new("divider");
    let vin = nl.node("in");
    let mid = nl.node("mid");
    nl.add_vsource("V1", vin, Netlist::GROUND, Waveform::dc(2.0))
        .unwrap();
    nl.add_resistor("R1", vin, mid, 1e3).unwrap();
    nl.add_resistor("R2", mid, Netlist::GROUND, 1e3).unwrap();
    nl
}

/// An RC so the transient has real dynamics.
fn rc() -> Netlist {
    let mut nl = Netlist::new("rc");
    let vin = nl.node("in");
    let out = nl.node("out");
    nl.add_vsource("V1", vin, Netlist::GROUND, Waveform::dc(1.0))
        .unwrap();
    nl.add_resistor("R1", vin, out, 1e3).unwrap();
    nl.add_capacitor("C1", out, Netlist::GROUND, 1e-12).unwrap();
    nl
}

#[test]
fn telemetry_counts_dc_and_transient_work() {
    let nl = divider();
    let mut sim = Simulator::new(&nl);
    sim.dc_op().expect("dc");
    let s = *sim.stats();
    assert_eq!(s.converged_plain, 1, "linear divider solves plainly");
    assert_eq!(s.nr_solves, 1);
    assert!(s.nr_iterations >= 2);
    assert_eq!(s.dc_failures, 0);

    let rc_nl = rc();
    let mut sim = Simulator::new(&rc_nl);
    sim.transient(0.25e-9, &[1e-9]).expect("transient");
    let s = *sim.stats();
    assert_eq!(s.tran_steps, 4, "one step per grid interval");
    assert!(s.converged_plain >= 1, "initial DC point recorded");

    // take_stats drains the accumulator.
    let taken = sim.take_stats();
    assert_eq!(taken, s);
    assert!(sim.stats().is_empty());
}

#[test]
fn telemetry_counts_failures() {
    let nl = divider();
    let mut sim = Simulator::with_options(
        &nl,
        SimOptions {
            max_iter: 1, // the first step from all-zeros is never within tolerance
            ..SimOptions::default()
        },
    );
    assert!(sim.dc_op().is_err());
    let s = sim.stats();
    assert_eq!(s.dc_failures, 1);
    assert!(s.maxiter_exhausted >= 1);
    assert_eq!(s.converged_plain + s.converged_gmin + s.converged_source, 0);
}

/// 2 V through 1k into a diode: a mildly nonlinear operating point that
/// plain Newton solves but only after re-linearising a few times.
fn diode_clamp() -> Netlist {
    let mut nl = Netlist::new("clamp");
    let vin = nl.node("in");
    let d = nl.node("d");
    nl.add_vsource("V1", vin, Netlist::GROUND, Waveform::dc(2.0))
        .unwrap();
    nl.add_resistor("R1", vin, d, 1e3).unwrap();
    nl.add_diode(
        "D1",
        d,
        Netlist::GROUND,
        dotm_netlist::DiodeParams::default(),
    )
    .unwrap();
    nl
}

#[test]
fn large_gmin_never_credits_an_unsolved_point() {
    // Plain Newton cannot finish in one iteration, so the solve falls
    // through to gmin stepping. The old ladder started at a fixed 1e-2
    // and skipped its body whenever the target gmin was above that —
    // crediting `converged_gmin` and returning the untouched all-zeros
    // vector as a "solution". The solve must now either produce the real
    // operating point or report failure.
    let nl = divider();
    let mid = nl.find_node("mid").unwrap();
    let mut sim = Simulator::with_options(
        &nl,
        SimOptions {
            max_iter: 1,
            gmin: 5e-2,
            ..SimOptions::default()
        },
    );
    match sim.dc_op() {
        Ok(op) => {
            // gmin = 50 mS loads each node, so the exact value shifts; the
            // point just must not be the unsolved zeros vector.
            assert!(
                op.voltage(mid) > 1e-3,
                "all-zeros vector passed off as a solution: v(mid) = {}",
                op.voltage(mid)
            );
        }
        Err(_) => {
            let s = sim.stats();
            assert_eq!(
                s.converged_gmin, 0,
                "failed solve must not credit gmin stepping"
            );
            assert_eq!(s.dc_failures, 1);
        }
    }
}

#[test]
fn large_gmin_solution_is_genuinely_solved() {
    // Same large target gmin with a realistic iteration budget: whatever
    // homotopy succeeds, the reported point must satisfy the (gmin-loaded)
    // circuit equations, not be a leftover initial guess.
    let nl = divider();
    let mid = nl.find_node("mid").unwrap();
    let mut sim = Simulator::with_options(
        &nl,
        SimOptions {
            gmin: 5e-2,
            ..SimOptions::default()
        },
    );
    let op = sim.dc_op().expect("dc with large gmin");
    // KCL at mid with the 50 mS gmin shunt: 2 V · 1 mS / (1 + 1 + 50) mS.
    let expect = 2.0 * 1e-3 / (1e-3 + 1e-3 + 5e-2);
    assert!(
        (op.voltage(mid) - expect).abs() < 1e-6,
        "v(mid) = {} (want {expect})",
        op.voltage(mid)
    );
}

#[test]
fn exact_guess_accepts_linear_circuit_at_first_iteration() {
    let nl = divider();
    let mid = nl.find_node("mid").unwrap();
    let mut cold = Simulator::new(&nl);
    let op = cold.dc_op().expect("cold dc");
    let cold_iters = cold.stats().nr_iterations;

    let mut guessed = Simulator::new(&nl);
    let gop = guessed.dc_op_from(op.unknowns()).expect("dc from guess");
    assert!((gop.voltage(mid) - 1.0).abs() < 1e-9);
    let s = *guessed.stats();
    assert_eq!(s.nr_solves, 1);
    // A linear system's stamps do not depend on x, so an exact guess is
    // accepted on the very first iteration (the old `iter > 0` guard
    // forced a pointless second solve of the identical matrix).
    assert_eq!(s.nr_iterations, 1, "exact linear guess must not re-solve");
    assert!(
        cold_iters > 1,
        "cold linear solve needs its confirming pass"
    );
}

#[test]
fn exact_guess_still_relinearises_nonlinear_circuits() {
    let nl = diode_clamp();
    let d = nl.find_node("d").unwrap();
    let mut cold = Simulator::new(&nl);
    let op = cold.dc_op().expect("cold dc");
    let cold_iters = cold.stats().nr_iterations;

    let mut guessed = Simulator::new(&nl);
    let gop = guessed.dc_op_from(op.unknowns()).expect("dc from guess");
    assert!((gop.voltage(d) - op.voltage(d)).abs() < 1e-9);
    let s = *guessed.stats();
    assert_eq!(s.nr_solves, 1);
    // The diode stamps depend on x: even an exact guess needs at least
    // one confirming re-linearisation before it may be accepted.
    assert!(
        s.nr_iterations >= 2,
        "nonlinear guess accepted without re-linearising"
    );
    assert!(
        s.nr_iterations < cold_iters,
        "the exact guess saved nothing: {} vs {} cold",
        s.nr_iterations,
        cold_iters
    );
}

#[test]
fn clamped_step_within_tolerance_converges_without_extra_iteration() {
    // The divider is linear, so the first Newton iteration computes the
    // exact solution. The guess is exact except v(mid), which sits
    // 1.0000001 V below it: just over the default 1.0 V step limit, with
    // an overshoot of 1e-7 — far inside tolerance. The clamp must be
    // applied before the tolerance test so this counts as converged in
    // one iteration; the old order (tolerance on the unclamped step,
    // then clamp) reported `limited` and burned a second full
    // assemble + LU pass on a point that was already accepted.
    let nl = divider();
    let mid = nl.find_node("mid").unwrap();
    let mut sim = Simulator::new(&nl);
    // Unknown order: node voltages (in, mid), then the V1 branch current
    // (−1 mA: the supply sources current, SPICE convention).
    let op = sim
        .dc_op_from(&[2.0, 1.0 - 1.000_000_1, -1e-3])
        .expect("divider dc");
    assert!((op.voltage(mid) - 1.0).abs() < 1e-6);
    let s = sim.stats();
    assert_eq!(s.nr_solves, 1);
    assert_eq!(
        s.nr_iterations, 1,
        "a clamped step within tolerance of the clamp must not cost an extra iteration"
    );
}

#[test]
fn clamped_step_far_from_target_still_iterates() {
    // Guard against false convergence from the restructure: when the
    // unclamped Newton target is far beyond the step limit, the limiter
    // walks ~1 V per iteration and convergence must wait until the
    // overshoot beyond the clamp shrinks below tolerance.
    let nl = divider();
    let mid = nl.find_node("mid").unwrap();
    let mut sim = Simulator::new(&nl);
    let op = sim.dc_op_from(&[2.0, -10.0, -1e-3]).expect("divider dc");
    assert!((op.voltage(mid) - 1.0).abs() < 1e-6);
    let iters = sim.stats().nr_iterations;
    assert!(
        (11..=13).contains(&iters),
        "an 11 V walk at a 1 V step limit must take ~12 iterations, got {iters}"
    );
}

/// A CMOS inverter slewing a load cap — sharp pulse edges make Newton
/// fail at the full step size when `max_iter` is tight, which is the
/// step-halving workload the carry heuristic targets.
fn edgy_inverter() -> Netlist {
    use dotm_netlist::{MosType, MosfetParams};
    let mut nl = Netlist::new("edgy_inverter");
    let vdd = nl.node("vdd");
    let vin = nl.node("in");
    let out = nl.node("out");
    nl.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(5.0))
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

#[test]
fn step_carry_cuts_rejected_steps_without_flipping_the_answer() {
    // A tight `max_iter` makes Newton fail at the full step on every
    // pulse edge. The step loop carries the accepted step forward (×2
    // ramp) instead of restarting each step at the full remaining
    // interval, which on this scenario paid 90 rejected solves.
    let run = |max_iter: usize| {
        let nl = edgy_inverter();
        let o = SimOptions {
            max_iter,
            ..SimOptions::default()
        };
        let mut sim = Simulator::with_options(&nl, o);
        let end = sim.transient(1e-9, &[50e-9]).expect("transient");
        let out = nl.find_node("out").unwrap();
        (*sim.stats(), end[0].voltage(out))
    };
    let (tight, v_tight) = run(6);
    let (loose, v_loose) = run(SimOptions::default().max_iter);
    assert!(
        tight.step_halvings > 0,
        "scenario must actually halve (got {} halvings) or the test is vacuous",
        tight.step_halvings
    );
    assert_eq!(loose.rejected_steps, 0, "the reference run must not halve");
    assert!(
        tight.rejected_steps < 90,
        "carry must cut rejected Newton solves below the restart policy's 90: got {}",
        tight.rejected_steps
    );
    assert!(
        (v_tight - v_loose).abs() < 1e-2,
        "halving changed the settled output: {v_tight} vs {v_loose}"
    );
}
