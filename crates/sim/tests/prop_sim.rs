//! Randomised tests on the simulator: linear-circuit identities and
//! model invariants that must hold for arbitrary parameter values.
//!
//! Formerly proptest; now seeded loops over the in-tree PRNG so the
//! workspace builds hermetically.

use dotm_netlist::{MosType, MosfetParams, Netlist, Waveform};
use dotm_rng::rngs::StdRng;
use dotm_rng::{Rng, SeedableRng};
use dotm_sim::{diode_eval, mosfet_eval, DenseMatrix, Simulator};

#[test]
fn divider_matches_closed_form() {
    let mut rng = StdRng::seed_from_u64(0x5101);
    for _ in 0..64 {
        let r1 = rng.gen_range(1.0f64..1e6);
        let r2 = rng.gen_range(1.0f64..1e6);
        let v = rng.gen_range(0.1f64..10.0);
        let mut nl = Netlist::new("div");
        let a = nl.node("a");
        let b = nl.node("b");
        nl.add_vsource("V1", a, Netlist::GROUND, Waveform::dc(v))
            .unwrap();
        nl.add_resistor("R1", a, b, r1).unwrap();
        nl.add_resistor("R2", b, Netlist::GROUND, r2).unwrap();
        let mut sim = Simulator::new(&nl);
        let op = sim.dc_op().unwrap();
        let expect = v * r2 / (r1 + r2);
        assert!(
            (op.voltage(b) - expect).abs() < 1e-6 * v.max(1.0) + 1e-6,
            "r1 {r1} r2 {r2} v {v}"
        );
    }
}

#[test]
fn superposition_holds_for_linear_network() {
    let mut rng = StdRng::seed_from_u64(0x5102);
    for _ in 0..64 {
        let v1 = rng.gen_range(0.1f64..5.0);
        let v2 = rng.gen_range(0.1f64..5.0);
        let r = rng.gen_range(10.0f64..1e5);
        // Two sources into a common node through equal resistors.
        let run = |va: f64, vb: f64| -> f64 {
            let mut nl = Netlist::new("sum");
            let a = nl.node("a");
            let b = nl.node("b");
            let m = nl.node("m");
            nl.add_vsource("VA", a, Netlist::GROUND, Waveform::dc(va))
                .unwrap();
            nl.add_vsource("VB", b, Netlist::GROUND, Waveform::dc(vb))
                .unwrap();
            nl.add_resistor("RA", a, m, r).unwrap();
            nl.add_resistor("RB", b, m, r).unwrap();
            nl.add_resistor("RL", m, Netlist::GROUND, r).unwrap();
            let mut sim = Simulator::new(&nl);
            sim.dc_op().unwrap().voltage(m)
        };
        let both = run(v1, v2);
        let only1 = run(v1, 0.0);
        let only2 = run(0.0, v2);
        assert!((both - only1 - only2).abs() < 1e-6, "v1 {v1} v2 {v2} r {r}");
    }
}

#[test]
fn kcl_holds_at_the_supply() {
    let mut rng = StdRng::seed_from_u64(0x5103);
    for _ in 0..64 {
        let r1 = rng.gen_range(10.0f64..1e5);
        let r2 = rng.gen_range(10.0f64..1e5);
        // Two independent branches from the supply: branch currents add.
        let mut nl = Netlist::new("kcl");
        let vdd = nl.node("vdd");
        nl.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(5.0))
            .unwrap();
        nl.add_resistor("R1", vdd, Netlist::GROUND, r1).unwrap();
        nl.add_resistor("R2", vdd, Netlist::GROUND, r2).unwrap();
        let mut sim = Simulator::new(&nl);
        let op = sim.dc_op().unwrap();
        let i = op.branch_current(nl.device_id("VDD").unwrap()).unwrap();
        let expect = -(5.0 / r1 + 5.0 / r2);
        assert!(
            (i - expect).abs() < 1e-7 + 1e-6 * expect.abs(),
            "r1 {r1} r2 {r2}"
        );
    }
}

#[test]
fn diode_current_is_monotone() {
    let mut rng = StdRng::seed_from_u64(0x5104);
    for _ in 0..200 {
        let v1 = rng.gen_range(-2.0f64..1.0);
        let dv = rng.gen_range(1e-6f64..0.5);
        let p = dotm_netlist::DiodeParams::default();
        let (i1, g1) = diode_eval(v1, &p);
        let (i2, _) = diode_eval(v1 + dv, &p);
        assert!(i2 >= i1, "v1 {v1} dv {dv}");
        assert!(g1 > 0.0, "v1 {v1}");
    }
}

#[test]
fn mosfet_current_monotone_in_vgs() {
    let mut rng = StdRng::seed_from_u64(0x5105);
    for _ in 0..200 {
        let vgs = rng.gen_range(0.0f64..4.0);
        let vds = rng.gen_range(0.05f64..5.0);
        let dv = rng.gen_range(1e-4f64..0.5);
        let p = MosfetParams::nmos_default();
        let a = mosfet_eval(vgs, vds, 0.0, MosType::Nmos, &p);
        let b = mosfet_eval(vgs + dv, vds, 0.0, MosType::Nmos, &p);
        assert!(b.ids >= a.ids - 1e-15, "vgs {vgs} vds {vds} dv {dv}");
    }
}

#[test]
fn mosfet_source_drain_reversal_antisymmetric() {
    let mut rng = StdRng::seed_from_u64(0x5106);
    for _ in 0..200 {
        let vg = rng.gen_range(0.0f64..5.0);
        let vd = rng.gen_range(0.0f64..5.0);
        let vs = rng.gen_range(0.0f64..5.0);
        let p = MosfetParams::nmos_default();
        let fwd = mosfet_eval(vg - vs, vd - vs, -vs, MosType::Nmos, &p);
        let rev = mosfet_eval(vg - vd, vs - vd, -vd, MosType::Nmos, &p);
        assert!(
            (fwd.ids + rev.ids).abs() < 1e-12 + 1e-9 * fwd.ids.abs(),
            "vg {vg} vd {vd} vs {vs}"
        );
    }
}

#[test]
fn lu_solves_diagonally_dominant_systems() {
    let mut rng = StdRng::seed_from_u64(0x5107);
    for _ in 0..64 {
        let seed = rng.gen_range(0u64..1000);
        let n = rng.gen_range(2usize..24);
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let mut m = DenseMatrix::zeros(n);
        for r in 0..n {
            let mut rowsum = 0.0;
            for c in 0..n {
                if r != c {
                    let v = next();
                    m.set(r, c, v);
                    rowsum += v.abs();
                }
            }
            m.set(r, r, rowsum + 1.0);
        }
        let a = m.clone();
        let x: Vec<f64> = (0..n).map(|i| next() * (i as f64 + 1.0)).collect();
        let mut b = a.mul_vec(&x);
        assert!(m.solve_in_place(&mut b).is_ok(), "seed {seed} n {n}");
        for (got, want) in b.iter().zip(&x) {
            assert!(
                (got - want).abs() < 1e-7 * (1.0 + want.abs()),
                "seed {seed} n {n}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn rc_transient_never_overshoots_supply() {
    let mut rng = StdRng::seed_from_u64(0x5108);
    for _ in 0..24 {
        let r = rng.gen_range(100.0f64..1e5);
        let c = rng.gen_range(1e-12f64..1e-9);
        let v = rng.gen_range(0.5f64..5.0);
        let mut nl = Netlist::new("rc");
        let a = nl.node("a");
        let b = nl.node("b");
        nl.add_vsource(
            "V1",
            a,
            Netlist::GROUND,
            Waveform::pulse(0.0, v, 0.0, 1e-9, 1e-9, 1.0, 0.0),
        )
        .unwrap();
        nl.add_resistor("R1", a, b, r).unwrap();
        nl.add_capacitor("C1", b, Netlist::GROUND, c).unwrap();
        let tau = r * c;
        let mut sim = Simulator::new(&nl);
        // Every grid point up to 5τ.
        let at: Vec<f64> = (0..=100).map(|k| k as f64 * (tau / 20.0)).collect();
        let reads = sim.transient(tau / 20.0, &at).unwrap();
        for op in &reads {
            let vb = op.voltage(b);
            assert!(
                vb >= -1e-6 && vb <= v + 1e-6,
                "r {r} c {c}: v(b) = {vb} outside [0, {v}]"
            );
        }
        // Settled at 5τ.
        let end = reads[100].voltage(b);
        assert!((end - v).abs() < 0.02 * v, "r {r} c {c}: end {end}");
    }
}
