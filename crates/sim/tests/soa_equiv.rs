//! Lockstep-variant equivalence: a first Newton iteration primed by the
//! blocked SoA pre-pass (`lockstep_capture` → `prime_lanes` →
//! `install_lane_prime`) must be bitwise-identical to the untouched
//! scalar assemble + factor path — solution voltages *and* the whole
//! solver-stats trajectory — and every divergence must fall back to the
//! scalar path rather than perturb a single bit. That identity is why
//! `DOTM_VARIANT_LOCKSTEP` can default on.

use dotm_netlist::{DiodeParams, MosType, MosfetParams, Netlist, NodeId, Waveform};
use dotm_sim::soa::prime_lanes;
use dotm_sim::{LanePrime, SimOptions, SimStats, Simulator};
use std::sync::{Arc, Mutex, MutexGuard};

/// A small nonlinear bench: CMOS inverter with a resistive divider load,
/// enough nonlinearity for a few Newton iterations without escalation.
fn base_bench() -> Netlist {
    let mut nl = Netlist::new("soa_bench");
    let vdd = nl.node("vdd");
    let vin = nl.node("in");
    let out = nl.node("out");
    let mid = nl.node("mid");
    nl.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(5.0))
        .unwrap();
    nl.add_vsource("VIN", vin, Netlist::GROUND, Waveform::dc(2.3))
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
    nl.add_resistor("RM", vdd, mid, 5e3).unwrap();
    nl.add_resistor("RL", mid, Netlist::GROUND, 15e3).unwrap();
    nl.add_resistor("RO", out, mid, 50e3).unwrap();
    nl
}

/// Append-only bridge variants of the base bench — the shape one fault
/// class's severity/variant lanes take in the campaign.
fn bridge_variants() -> Vec<Netlist> {
    [470.0, 2.2e3, 68e3]
        .iter()
        .map(|&r| {
            let mut nl = base_bench();
            let out = nl.find_node("out").unwrap();
            let mid = nl.find_node("mid").unwrap();
            nl.add_resistor("FBRG", out, mid, r).unwrap();
            nl
        })
        .collect()
}

/// DC-solves `nl`, optionally adopting `prime` on the first iteration.
/// Returns every node voltage's bits plus the full solver telemetry —
/// identical trajectories imply identical counters, so the stats struct
/// is compared whole.
fn run_dc(nl: &Netlist, prime: Option<&Arc<LanePrime>>) -> (Vec<u64>, SimStats) {
    let mut sim = Simulator::new(nl);
    if let Some(p) = prime {
        sim.install_lane_prime(Arc::clone(p));
    }
    let op = sim.dc_op().expect("dc");
    let bits = (1..nl.node_count())
        .map(|i| op.voltage(NodeId::from_index(i)).to_bits())
        .collect();
    (bits, *sim.stats())
}

/// Captures each variant's first-iteration system on a scratch simulator
/// and factors all lanes through the blocked kernel.
fn primes_for(variants: &[Netlist]) -> Vec<Option<Arc<LanePrime>>> {
    let systems = variants
        .iter()
        .map(|nl| Simulator::new(nl).lockstep_capture())
        .collect();
    prime_lanes(systems)
}

/// Turns the recorder on and serialises the caller against every other
/// test here: the test harness runs tests on parallel threads and the
/// `lockstep.prime_hits` counter is process-global, so a test's counter
/// delta is its own only while it holds this lock.
fn recording() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    dotm_obs::set_enabled(true);
    guard
}

/// Counter snapshot helper: total adopted primes so far.
fn prime_hits() -> u64 {
    dotm_obs::counters_snapshot()
        .iter()
        .find(|(n, _)| n == "lockstep.prime_hits")
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

#[test]
fn primed_dc_bitwise_identical_per_variant() {
    let _serial = recording();
    let variants = bridge_variants();
    let primes = primes_for(&variants);
    assert!(primes.iter().all(Option::is_some), "every lane must prime");
    let before = prime_hits();
    for (nl, prime) in variants.iter().zip(&primes) {
        let (scalar_bits, scalar_stats) = run_dc(nl, None);
        let (primed_bits, primed_stats) = run_dc(nl, prime.as_ref());
        assert_eq!(scalar_bits, primed_bits, "adoption changed solution bits");
        // Adoption must be invisible in the stats: same solves, same
        // iterations, no counter anywhere may move.
        assert_eq!(scalar_stats, primed_stats, "adoption changed the stats");
    }
    assert_eq!(
        prime_hits() - before,
        variants.len() as u64,
        "every primed run must actually adopt its lane"
    );
}

#[test]
fn adoption_survives_gmin_escalation_bitwise() {
    let _serial = recording();
    // A diode-loaded variant under an iteration budget plain Newton
    // cannot meet from zeros: the solve falls into the gmin homotopy
    // *after* iteration 0 adopted the prime. Escalation re-assembles at
    // other gmins through the scalar path (the prime is one-shot and
    // already spent) — the trajectory must still match the unprimed run
    // bit for bit. Capture and measurement share the same options, as
    // they do in the campaign.
    let mut nl = base_bench();
    let out = nl.find_node("out").unwrap();
    let mid = nl.find_node("mid").unwrap();
    nl.add_diode("FD1", out, mid, DiodeParams { is: 1e-16, n: 0.8 })
        .unwrap();
    nl.add_diode("FD2", mid, out, DiodeParams { is: 1e-16, n: 0.8 })
        .unwrap();
    nl.add_resistor("FBR", out, mid, 120.0).unwrap();
    let opts = SimOptions {
        max_iter: 5,
        ..SimOptions::default()
    };
    let systems = vec![Simulator::with_options(&nl, opts.clone()).lockstep_capture()];
    let primes = prime_lanes(systems);
    let prime = primes[0].as_ref().expect("capture must prime");
    let run = |prime: Option<&Arc<LanePrime>>| {
        let mut sim = Simulator::with_options(&nl, opts.clone());
        if let Some(p) = prime {
            sim.install_lane_prime(Arc::clone(p));
        }
        let op = sim.dc_op().expect("dc");
        let bits: Vec<u64> = (1..nl.node_count())
            .map(|i| op.voltage(NodeId::from_index(i)).to_bits())
            .collect();
        (bits, *sim.stats())
    };
    let (scalar_bits, scalar_stats) = run(None);
    let (primed_bits, primed_stats) = run(Some(prime));
    assert_eq!(scalar_bits, primed_bits);
    assert_eq!(scalar_stats, primed_stats);
    assert!(
        scalar_stats.converged_gmin + scalar_stats.converged_source > 0,
        "bench was meant to exercise escalation (stats: {scalar_stats:?})"
    );
}

#[test]
fn diverging_lane_falls_back_to_scalar_bitwise() {
    let _serial = recording();
    // The capture ran from the zero iterate, but the measuring solve
    // starts from a warm seed: x0 differs bitwise, the guard refuses the
    // prime, and the scalar path must produce an untouched result.
    let variants = bridge_variants();
    let primes = primes_for(&variants);
    let nl = &variants[0];
    let nominal = base_bench();
    let seed_op = {
        let mut sim = Simulator::new(&nominal);
        sim.dc_op().expect("nominal dc")
    };
    let run_seeded = |prime: Option<&Arc<LanePrime>>| {
        let mut sim = Simulator::new(nl);
        assert!(sim.seed_dc_from(&seed_op), "append-only seed must map");
        if let Some(p) = prime {
            sim.install_lane_prime(Arc::clone(p));
        }
        let op = sim.dc_op().expect("dc");
        let bits: Vec<u64> = (1..nl.node_count())
            .map(|i| op.voltage(NodeId::from_index(i)).to_bits())
            .collect();
        (bits, *sim.stats())
    };
    let before = prime_hits();
    let (scalar_bits, scalar_stats) = run_seeded(None);
    let (primed_bits, primed_stats) = run_seeded(primes[0].as_ref());
    assert_eq!(scalar_bits, primed_bits, "refused prime changed bits");
    assert_eq!(scalar_stats, primed_stats);
    assert_eq!(prime_hits(), before, "a diverged lane must never adopt");
}

#[test]
fn rewired_variants_group_by_dimension_and_still_prime() {
    let _serial = recording();
    // One append-only bridge plus one rewired variant that adds a new
    // node (different unknown count): `prime_lanes` must factor them in
    // separate dimension groups and both must still adopt bitwise.
    let mut rewired = base_bench();
    {
        let out = rewired.find_node("out").unwrap();
        let tap = rewired.node("fault_tap");
        rewired.add_resistor("FB1", out, tap, 1e3).unwrap();
        rewired
            .add_resistor("FB2", tap, Netlist::GROUND, 3.3e3)
            .unwrap();
    }
    let variants = vec![bridge_variants().remove(0), rewired];
    assert_ne!(
        variants[0].node_count(),
        variants[1].node_count(),
        "variants were meant to differ in dimension"
    );
    let primes = primes_for(&variants);
    let before = prime_hits();
    for (nl, prime) in variants.iter().zip(&primes) {
        let prime = prime.as_ref().expect("both dimension groups must prime");
        let (scalar_bits, scalar_stats) = run_dc(nl, None);
        let (primed_bits, primed_stats) = run_dc(nl, Some(prime));
        assert_eq!(scalar_bits, primed_bits);
        assert_eq!(scalar_stats, primed_stats);
    }
    assert_eq!(prime_hits() - before, 2);
}

#[test]
fn single_lane_class_primes_bitwise() {
    let _serial = recording();
    // K = 1: a class with one measurable variant still goes through the
    // blocked kernel (as a singleton group) and adopts bitwise.
    let nl = bridge_variants().remove(1);
    let primes = primes_for(std::slice::from_ref(&nl));
    let prime = primes[0].as_ref().expect("singleton lane must prime");
    let before = prime_hits();
    let (scalar_bits, scalar_stats) = run_dc(&nl, None);
    let (primed_bits, primed_stats) = run_dc(&nl, Some(prime));
    assert_eq!(scalar_bits, primed_bits);
    assert_eq!(scalar_stats, primed_stats);
    assert_eq!(prime_hits() - before, 1);
}
