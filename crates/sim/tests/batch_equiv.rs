//! Batched-assembly equivalence: the split-plan path (`batch_assembly`),
//! with and without a class-shared nominal baseline, must be
//! bitwise-identical to the scalar interpretive re-walk — that identity
//! is why `DOTM_BATCH_ASSEMBLY` can default on. Transient solves run
//! chord Newton, so the transient legs also pin that the chord residual
//! and solve see bit-identical systems on both paths.

use dotm_netlist::{DiodeParams, MosType, MosfetParams, Netlist, NodeId, SwitchParams, Waveform};
use dotm_sim::{SharedAssembly, SimOptions, SimStats, Simulator};
use std::sync::Arc;

/// A testbench exercising every device stamp: CMOS inverter (MOSFETs with
/// junction diodes and parasitic caps), resistor ladder with two
/// MOSFET-free internal nodes (purely static cells), diode, switch, and
/// an explicit load capacitor, driven by a DC rail and a pulse input.
fn mixed_bench() -> Netlist {
    let mut nl = Netlist::new("mixed_bench");
    let vdd = nl.node("vdd");
    let vin = nl.node("in");
    let out = nl.node("out");
    let mid = nl.node("mid");
    let na = nl.node("na");
    let nb = nl.node("nb");
    nl.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(5.0))
        .unwrap();
    nl.add_vsource(
        "VIN",
        vin,
        Netlist::GROUND,
        Waveform::pulse(0.0, 5.0, 1e-9, 1e-10, 1e-10, 4e-9, 8e-9),
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
    nl.add_capacitor("CL", out, Netlist::GROUND, 50e-15)
        .unwrap();
    // Resistor ladder vdd → na → nb → gnd: na/nb cells stay static.
    nl.add_resistor("RA", vdd, na, 10e3).unwrap();
    nl.add_resistor("RB", na, nb, 10e3).unwrap();
    nl.add_resistor("RC", nb, Netlist::GROUND, 10e3).unwrap();
    nl.add_resistor("RM", vdd, mid, 5e3).unwrap();
    nl.add_diode("D1", mid, Netlist::GROUND, DiodeParams::default())
        .unwrap();
    nl.add_switch(
        "S1",
        mid,
        out,
        vin,
        Netlist::GROUND,
        SwitchParams::default(),
    )
    .unwrap();
    nl
}

fn opts(batch: bool) -> SimOptions {
    SimOptions {
        batch_assembly: batch,
        ..SimOptions::default()
    }
}

/// Runs DC + transient and returns every solution value's bits plus the
/// solver telemetry (identical trajectories ⇒ identical counters).
fn run_bits(
    nl: &Netlist,
    o: SimOptions,
    shared: Option<&Arc<SharedAssembly>>,
) -> (Vec<u64>, SimStats) {
    let mut sim = Simulator::with_options(nl, o);
    if let Some(sh) = shared {
        sim.install_shared_assembly(Arc::clone(sh));
    }
    let nodes: Vec<NodeId> = (1..nl.node_count()).map(NodeId::from_index).collect();
    let mut bits = Vec::new();
    let op = sim.dc_op().expect("dc");
    for &node in &nodes {
        bits.push(op.voltage(node).to_bits());
    }
    let tr = sim.transient(20e-9, 0.5e-9).expect("tran");
    for &node in &nodes {
        for v in tr.series(node) {
            bits.push(v.to_bits());
        }
    }
    (bits, *sim.stats())
}

fn chord_solves() -> u64 {
    dotm_obs::counters_snapshot()
        .into_iter()
        .find(|(n, _)| n == "lu.chord_solves")
        .map_or(0, |(_, v)| v)
}

#[test]
fn batch_dc_and_transient_bitwise_identical_to_scalar() {
    let nl = mixed_bench();
    // The recorder is process-global and other tests in this binary may
    // add to the counter concurrently, so this only proves that chord
    // iterations ran at all — which a disabled chord path cannot fake.
    dotm_obs::set_enabled(true);
    let before = chord_solves();
    let (scalar, s_stats) = run_bits(&nl, opts(false), None);
    let (batched, b_stats) = run_bits(&nl, opts(true), None);
    assert!(
        chord_solves() > before,
        "transients ran no chord iterations"
    );
    assert_eq!(scalar, batched, "batched assembly changed solution bits");
    assert_eq!(
        (
            s_stats.nr_iterations,
            s_stats.tran_steps,
            s_stats.rejected_steps
        ),
        (
            b_stats.nr_iterations,
            b_stats.tran_steps,
            b_stats.rejected_steps
        ),
        "batched assembly changed the solver trajectory"
    );
}

#[test]
fn shared_baseline_adoption_bitwise_identical() {
    let base = mixed_bench();
    let shared = Arc::new(SharedAssembly::compile(&base));

    // Append-only variant exercising all three shared-path mechanisms:
    // a bridge through a *new* node (branch rows shift; appended static
    // delta ops), a capacitor across the previously static ladder cells
    // (demotes them back to per-iteration replay), and a plain bridge
    // resistor between existing nodes.
    let mut variant = base.clone();
    let vdd = variant.find_node("vdd").unwrap();
    let na = variant.find_node("na").unwrap();
    let nb = variant.find_node("nb").unwrap();
    let mid = variant.find_node("mid").unwrap();
    let brg = variant.node("fault_bridge");
    variant.add_resistor("FB1", vdd, brg, 2e3).unwrap();
    variant
        .add_resistor("FB2", brg, Netlist::GROUND, 7e3)
        .unwrap();
    variant.add_capacitor("FC1", na, nb, 1e-12).unwrap();
    variant.add_resistor("FB3", nb, mid, 50e3).unwrap();

    let (scalar, _) = run_bits(&variant, opts(false), None);
    let (local, _) = run_bits(&variant, opts(true), None);
    let (adopted, _) = run_bits(&variant, opts(true), Some(&shared));
    assert_eq!(scalar, local, "local split changed solution bits");
    assert_eq!(
        scalar, adopted,
        "shared-baseline embed changed solution bits"
    );
}

#[test]
fn incompatible_variant_falls_back_bitwise_identical() {
    let base = mixed_bench();
    let shared = Arc::new(SharedAssembly::compile(&base));

    // A Monte-Carlo-style corner: same topology, perturbed resistor (the
    // remove/re-add reorders device ids). The device prefix check fails,
    // so the simulator must fall back to its local split — and still
    // match the scalar path.
    let corner = {
        let mut nl = mixed_bench();
        let vdd = nl.find_node("vdd").unwrap();
        let na = nl.find_node("na").unwrap();
        nl.remove_device("RA").unwrap();
        nl.add_resistor("RA2", vdd, na, 10.7e3).unwrap();
        nl
    };

    let (scalar, _) = run_bits(&corner, opts(false), None);
    let (batched, _) = run_bits(&corner, opts(true), Some(&shared));
    assert_eq!(scalar, batched, "fallback path changed solution bits");
}

#[test]
fn shared_adoption_matches_across_gmin_escalation() {
    // The gmin homotopy ladder revisits several gmin values; each keys its
    // own shared baseline. A hard-to-converge variant (extra diode string)
    // forces the ladder and must still match the scalar path bitwise.
    let base = mixed_bench();
    let shared = Arc::new(SharedAssembly::compile(&base));
    let mut variant = base.clone();
    let mid = variant.find_node("mid").unwrap();
    let out = variant.find_node("out").unwrap();
    variant
        .add_diode("FD1", out, mid, DiodeParams { is: 1e-16, n: 0.8 })
        .unwrap();
    variant.add_resistor("FBR", out, mid, 120.0).unwrap();

    let (scalar, _) = run_bits(&variant, opts(false), None);
    let (adopted, _) = run_bits(&variant, opts(true), Some(&shared));
    assert_eq!(scalar, adopted);
}
