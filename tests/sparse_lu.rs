//! Differential test of the static-order sparse LU against the dense
//! partial-pivot LU it falls back to.
//!
//! Inputs are random MNA-shaped netlists (resistor and MOSFET graphs with
//! grounded and floating voltage sources and capacitors, linearised at
//! random operating points in DC and transient) and the real netlists of
//! all five macros at their nominal operating points. Every system is
//! factored both ways; the solutions must agree to 1e-9 relative. A
//! forced tiny pivot must take the dense fallback (and bump the
//! simulator's fallback counter), and structurally singular systems must
//! be singular on both paths.

use dotm::core::harnesses::{
    BiasHarness, ClockgenHarness, ComparatorHarness, DecoderHarness, LadderHarness,
};
use dotm::core::MacroHarness;
use dotm::netlist::{MosType, MosfetParams, Netlist, Waveform};
use dotm::sim::{DenseMatrix, LuFactors, SimError, Simulator, SparseLu, SparseMatrix};
use dotm_rng::rngs::StdRng;
use dotm_rng::{Rng, SeedableRng};

mod common;
use common::random_netlist;

/// Random netlists per seed loop; each is checked in DC and transient.
const RANDOM_NETLISTS: u64 = 150;

/// Solves `a·x = b` both ways; returns the sparse and the dense solution
/// and whether the sparse path fell back to dense.
fn solve_both(a: &SparseMatrix, b: &[f64]) -> (Vec<f64>, Vec<f64>, bool) {
    let mut lu = SparseLu::analyse(a);
    lu.refactor(a).expect("nonsingular system");
    let mut xs = b.to_vec();
    lu.solve(&mut xs);
    let mut dense = LuFactors::new();
    dense.refactor(&a.to_dense()).expect("nonsingular system");
    let mut xd = b.to_vec();
    dense.solve(&mut xd);
    (xs, xd, lu.is_dense())
}

/// Normwise relative agreement to 1e-9.
fn assert_agree(xs: &[f64], xd: &[f64], ctx: &str) {
    let scale = xd.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
    for (i, (s, d)) in xs.iter().zip(xd).enumerate() {
        assert!(
            (s - d).abs() <= 1e-9 * scale,
            "{ctx}: unknown {i}: sparse {s:e} vs dense {d:e} (scale {scale:e})"
        );
    }
}

#[test]
fn random_mna_systems_agree_with_dense() {
    let mut rng = StdRng::seed_from_u64(1995);
    let mut checked = 0;
    let mut sparse = 0;
    for k in 0..RANDOM_NETLISTS {
        let nl = random_netlist(&mut rng);
        let mut sim = Simulator::new(&nl);
        let n = sim.dim();
        // Node voltages between the rails with the supply node at 5 V, so
        // every junction diode is off as in a working circuit; branch
        // currents of a few milliamperes.
        let n_v = nl.node_count() - 1;
        let x: Vec<f64> = (0..n)
            .map(|i| match i {
                0 => 5.0,
                i if i < n_v => rng.gen_range(0.0..5.0),
                _ => rng.gen_range(-5e-3..5e-3),
            })
            .collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for h in [None, Some(1e-10)] {
            let a = sim.jacobian(&x, h).clone();
            // Voltage-source loops make some random draws singular.
            if LuFactors::new().refactor(&a.to_dense()).is_err() {
                continue;
            }
            let (xs, xd, fell_back) = solve_both(&a, &b);
            assert_agree(&xs, &xd, &format!("netlist {k}, h {h:?}"));
            checked += 1;
            sparse += usize::from(!fell_back);
        }
    }
    assert!(checked >= 200, "only {checked} nonsingular systems drawn");
    assert!(
        sparse * 10 >= checked * 9,
        "sparse path took only {sparse} of {checked} systems"
    );
}

#[test]
fn five_macro_netlists_agree_with_dense() {
    let harnesses: [&dyn MacroHarness; 5] = [
        &ComparatorHarness::production(),
        &LadderHarness,
        &BiasHarness::default(),
        &ClockgenHarness::default(),
        &DecoderHarness::default(),
    ];
    for harness in harnesses {
        let nl = harness.testbench();
        let mut sim = Simulator::new(&nl);
        let op = sim.dc_op().expect("nominal operating point");
        let x = op.unknowns().to_vec();
        let b: Vec<f64> = (0..x.len()).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        for h in [None, Some(0.25e-9)] {
            let a = sim.jacobian(&x, h).clone();
            let (xs, xd, fell_back) = solve_both(&a, &b);
            // Transient Jacobians carry every node's capacitor companion on
            // the diagonal and must take the static order. DC ones may
            // fall back: the comparator's DC system has a node held by
            // off transistors whose pivot is ~1e-4 of its column.
            assert!(
                h.is_none() || !fell_back,
                "{}: static pivots rejected in transient",
                nl.name()
            );
            assert_agree(&xs, &xd, &format!("{} h {h:?}", nl.name()));
        }
    }
}

#[test]
fn tiny_pivot_takes_the_dense_fallback() {
    // The diagonal is a valid transversal, so the static order pivots on
    // 1e-9 against an active entry of 1: rejected, dense pivots instead.
    let mut m = DenseMatrix::zeros(2);
    m.set(0, 0, 1e-9);
    m.set(0, 1, 1.0);
    m.set(1, 0, 1.0);
    m.set(1, 1, 1.0);
    let a = SparseMatrix::from_dense(&m);
    let (xs, xd, fell_back) = solve_both(&a, &[1.0, 2.0]);
    assert!(fell_back, "a 1e-9 pivot must not pass the threshold test");
    assert_eq!(xs, xd, "the fallback is the dense path itself");

    // The same shape in a circuit: a MOSFET gate held by nothing but a
    // teraohm, its drain column-coupled through gm.
    let mut nl = Netlist::new("tiny_pivot");
    let g = nl.node("g");
    let d = nl.node("d");
    let vdd = nl.node("vdd");
    nl.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(5.0))
        .unwrap();
    nl.add_resistor("RG", vdd, g, 1e12).unwrap();
    nl.add_resistor("RD", vdd, d, 1e3).unwrap();
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
    sim.dc_op().expect("operating point");
    assert!(
        sim.stats().factor_refactor_fallbacks > 0,
        "the gate pivot must fall back: {:?}",
        sim.stats()
    );
}

#[test]
fn structurally_singular_is_singular_on_both_paths() {
    // Two voltage sources in parallel: no transversal exists.
    let mut nl = Netlist::new("vloop");
    let a = nl.node("a");
    nl.add_vsource("V1", a, Netlist::GROUND, Waveform::dc(1.0))
        .unwrap();
    nl.add_vsource("V2", a, Netlist::GROUND, Waveform::dc(1.0))
        .unwrap();
    nl.add_resistor("R1", a, Netlist::GROUND, 1e3).unwrap();
    let mut sim = Simulator::new(&nl);
    let m = sim.jacobian(&[0.0; 3], None).clone();
    let mut lu = SparseLu::analyse(&m);
    assert_eq!(lu.factor_nnz(), None, "no transversal");
    assert!(lu.refactor(&m).is_err(), "sparse path");
    assert!(
        LuFactors::new().refactor(&m.to_dense()).is_err(),
        "dense path"
    );
    assert!(matches!(sim.dc_op(), Err(SimError::Singular { .. })));

    // A transversal exists but the values cancel: rank 1.
    let mut m = DenseMatrix::zeros(2);
    m.set(0, 0, 1.0);
    m.set(0, 1, 2.0);
    m.set(1, 0, 2.0);
    m.set(1, 1, 4.0);
    let s = SparseMatrix::from_dense(&m);
    let mut lu = SparseLu::analyse(&s);
    assert!(lu.factor_nnz().is_some());
    assert!(lu.refactor(&s).is_err(), "sparse path");
    assert!(lu.is_dense(), "the singular verdict is the dense path's");
    assert!(LuFactors::new().refactor(&m).is_err(), "dense path");
}
