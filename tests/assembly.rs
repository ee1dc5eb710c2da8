//! Assembly reference test: the simulator's Jacobian against an
//! independent dense one.
//!
//! The engine assembles from a baseline matrix (gmin, linear stamps,
//! capacitor companions) plus a compiled kernel per MOSFET that adds one
//! merged value per cell. The reference here writes every stamp of every
//! device straight from the public device models (`mosfet_eval`,
//! `diode_eval`, `switch_eval`) into a dense matrix, in device order. The
//! two sum in different orders, so each cell must agree to 1e-12 of the
//! sum of the magnitudes of its contributions, at random operating points,
//! in DC and in a backward-Euler step of 0.25 ns.

use dotm::core::harnesses::{
    BiasHarness, ClockgenHarness, ComparatorHarness, DecoderHarness, LadderHarness,
};
use dotm::core::MacroHarness;
use dotm::netlist::{
    DeviceKind, DiodeParams, MosType, MosfetParams, Netlist, NodeId, SwitchParams, Waveform,
};
use dotm::sim::{diode_eval, mosfet_eval, switch_eval, Simulator};
use dotm_rng::rngs::StdRng;
use dotm_rng::{Rng, SeedableRng};

mod common;
use common::random_netlist;

/// DC, a transient step, and DC again: one simulator must restamp its
/// baseline each time the step changes.
const STEPS: [Option<f64>; 3] = [None, Some(0.25e-9), None];

/// A dense matrix of stamp sums, beside the sums of their magnitudes.
struct Reference {
    n: usize,
    sum: Vec<f64>,
    scale: Vec<f64>,
}

impl Reference {
    fn add(&mut self, r: Option<usize>, c: Option<usize>, v: f64) {
        if let (Some(r), Some(c)) = (r, c) {
            self.sum[r * self.n + c] += v;
            self.scale[r * self.n + c] += v.abs();
        }
    }

    /// Conductance `g` between rows `p` and `q`.
    fn g(&mut self, p: Option<usize>, q: Option<usize>, g: f64) {
        self.add(p, p, g);
        self.add(p, q, -g);
        self.add(q, p, -g);
        self.add(q, q, g);
    }

    /// Current into `out_p` and out of `out_q`, controlled by
    /// `v(ctl_p) − v(ctl_q)` with gain `g`.
    fn vccs(
        &mut self,
        out: (Option<usize>, Option<usize>),
        ctl: (Option<usize>, Option<usize>),
        g: f64,
    ) {
        self.add(out.0, ctl.0, g);
        self.add(out.0, ctl.1, -g);
        self.add(out.1, ctl.0, -g);
        self.add(out.1, ctl.1, g);
    }
}

fn row(n: NodeId) -> Option<usize> {
    (!n.is_ground()).then(|| n.index() - 1)
}

/// The Jacobian of one Newton iteration at `x`: DC for `h = None`, else a
/// backward-Euler step of size `h`.
fn reference(nl: &Netlist, x: &[f64], h: Option<f64>, gmin: f64) -> Reference {
    let n = x.len();
    let mut m = Reference {
        n,
        sum: vec![0.0; n * n],
        scale: vec![0.0; n * n],
    };
    let v = |node: NodeId| row(node).map_or(0.0, |r| x[r]);
    for r in 0..nl.node_count() - 1 {
        m.add(Some(r), Some(r), gmin);
    }
    let mut branch = nl.node_count() - 1;
    for (_, dev) in nl.devices() {
        match &dev.kind {
            DeviceKind::Resistor { a, b, ohms } => m.g(row(*a), row(*b), 1.0 / ohms),
            DeviceKind::Capacitor { a, b, farads } => {
                if let Some(h) = h {
                    m.g(row(*a), row(*b), farads / h);
                }
            }
            DeviceKind::Vsource { pos, neg, .. } => {
                let br = Some(branch);
                branch += 1;
                m.add(row(*pos), br, 1.0);
                m.add(br, row(*pos), 1.0);
                m.add(row(*neg), br, -1.0);
                m.add(br, row(*neg), -1.0);
            }
            DeviceKind::Isource { .. } => {}
            DeviceKind::Diode {
                anode,
                cathode,
                params,
            } => {
                let (_, gd) = diode_eval(v(*anode) - v(*cathode), params);
                m.g(row(*anode), row(*cathode), gd);
            }
            DeviceKind::Mosfet {
                d,
                g,
                s,
                b,
                ty,
                params,
            } => {
                let ch = mosfet_eval(v(*g) - v(*s), v(*d) - v(*s), v(*b) - v(*s), *ty, params);
                let (rd, rg, rs, rb) = (row(*d), row(*g), row(*s), row(*b));
                m.vccs((rd, rs), (rg, rs), ch.gm);
                m.vccs((rd, rs), (rd, rs), ch.gds);
                m.vccs((rd, rs), (rb, rs), ch.gmbs);
                let junction = DiodeParams {
                    is: params.is_leak,
                    n: 1.0,
                };
                let (anodes, cathodes) = match ty {
                    MosType::Nmos => ([*b, *b], [*d, *s]),
                    MosType::Pmos => ([*d, *s], [*b, *b]),
                };
                for (an, ca) in anodes.into_iter().zip(cathodes) {
                    let (_, gd) = diode_eval(v(an) - v(ca), &junction);
                    m.g(row(an), row(ca), gd);
                }
                if let Some(h) = h {
                    let cg = 0.5 * params.gate_cap();
                    m.g(rg, rs, cg / h);
                    m.g(rg, rd, cg / h);
                    m.g(rd, rb, params.cj / h);
                    m.g(rs, rb, params.cj / h);
                }
            }
            DeviceKind::Switch {
                a,
                b,
                cp,
                cn,
                params,
            } => {
                let (g, dg) = switch_eval(v(*cp) - v(*cn), params);
                m.g(row(*a), row(*b), g);
                m.vccs(
                    (row(*a), row(*b)),
                    (row(*cp), row(*cn)),
                    dg * (v(*a) - v(*b)),
                );
            }
        }
    }
    m
}

/// Checks the simulator's Jacobian at `x` against the reference, in DC
/// and in transient; returns the number of cells compared.
fn check(nl: &Netlist, x: &[f64], ctx: &str) -> usize {
    let mut sim = Simulator::new(nl);
    let gmin = sim.options().gmin;
    let mut cells = 0;
    for h in STEPS {
        let got = sim.jacobian(x, h).to_dense();
        let want = reference(nl, x, h, gmin);
        let n = x.len();
        for r in 0..n {
            for c in 0..n {
                let (a, b) = (got.get(r, c), want.sum[r * n + c]);
                let tol = 1e-12 * want.scale[r * n + c];
                assert!(
                    (a - b).abs() <= tol,
                    "{ctx}, h {h:?}: cell ({r}, {c}): engine {a:e}, reference {b:e} \
                     (scale {:e})",
                    want.scale[r * n + c]
                );
                cells += usize::from(want.scale[r * n + c] > 0.0);
            }
        }
    }
    cells
}

/// Node voltages in `lo..hi`, branch currents of a few milliamperes.
fn random_x(nl: &Netlist, n: usize, rng: &mut StdRng, lo: f64, hi: f64) -> Vec<f64> {
    let n_v = nl.node_count() - 1;
    (0..n)
        .map(|i| {
            if i < n_v {
                rng.gen_range(lo..hi)
            } else {
                rng.gen_range(-5e-3..5e-3)
            }
        })
        .collect()
}

#[test]
fn five_testbenches_match_the_dense_reference() {
    let harnesses: [&dyn MacroHarness; 5] = [
        &ComparatorHarness::production(),
        &LadderHarness,
        &BiasHarness::default(),
        &ClockgenHarness::default(),
        &DecoderHarness::default(),
    ];
    let mut rng = StdRng::seed_from_u64(29);
    for harness in harnesses {
        let nl = harness.testbench();
        let n = Simulator::new(&nl).dim();
        // Voltages past the rails forward-bias junctions, up to the
        // diode law's linearised region.
        for k in 0..4 {
            let x = random_x(&nl, n, &mut rng, -1.5, 6.5);
            let cells = check(&nl, &x, &format!("{} draw {k}", nl.name()));
            assert!(cells > n, "{}: only {cells} cells compared", nl.name());
        }
    }
}

#[test]
fn random_mna_netlists_match_the_dense_reference() {
    let mut rng = StdRng::seed_from_u64(1995);
    for k in 0..100 {
        let nl = random_netlist(&mut rng);
        let n = Simulator::new(&nl).dim();
        let x = random_x(&nl, n, &mut rng, -1.0, 6.0);
        check(&nl, &x, &format!("random netlist {k}"));
    }
}

/// MOSFETs whose terminals share nodes: their cells coincide, and a
/// junction whose two ends are one node is dropped by the engine.
#[test]
fn shared_terminals_and_tied_bulks_match_the_dense_reference() {
    let mut nl = Netlist::new("shared_terminals");
    let vdd = nl.node("vdd");
    let a = nl.node("a");
    let b = nl.node("b");
    let c = nl.node("c");
    let gnd = Netlist::GROUND;
    let (nmos, pmos) = (MosfetParams::nmos_default(), MosfetParams::pmos_default());
    nl.add_vsource("VDD", vdd, gnd, Waveform::dc(5.0)).unwrap();
    nl.add_resistor("RA", vdd, a, 10e3).unwrap();
    nl.add_resistor("RB", vdd, b, 20e3).unwrap();
    nl.add_resistor("RC", c, gnd, 5e3).unwrap();
    // Diode-connected (g = d), bulk to ground and to the rail.
    nl.add_mosfet("MDN", a, a, gnd, gnd, MosType::Nmos, nmos.clone())
        .unwrap();
    nl.add_mosfet("MDP", b, b, vdd, vdd, MosType::Pmos, pmos.clone())
        .unwrap();
    // Drain and source bridged to one node.
    nl.add_mosfet("MBN", c, a, c, gnd, MosType::Nmos, nmos.clone())
        .unwrap();
    nl.add_mosfet("MBP", b, a, b, vdd, MosType::Pmos, pmos.clone())
        .unwrap();
    // Bulk on the drain, on the source, and every terminal on one node.
    nl.add_mosfet("MBD", c, b, a, c, MosType::Nmos, nmos.clone())
        .unwrap();
    nl.add_mosfet("MBS", a, c, b, b, MosType::Pmos, pmos)
        .unwrap();
    nl.add_mosfet("MALL", c, c, c, c, MosType::Nmos, nmos.clone())
        .unwrap();
    // Source on ground with the bulk there too, drain on the rail.
    nl.add_mosfet("MGND", vdd, b, gnd, gnd, MosType::Nmos, nmos)
        .unwrap();
    // The replayed kinds beside the kernels.
    nl.add_diode("D1", c, gnd, DiodeParams::default()).unwrap();
    nl.add_switch("S1", a, c, b, gnd, SwitchParams::default())
        .unwrap();
    nl.add_capacitor("CA", a, gnd, 50e-15).unwrap();
    let n = Simulator::new(&nl).dim();
    let mut rng = StdRng::seed_from_u64(7);
    for k in 0..50 {
        let x = random_x(&nl, n, &mut rng, -1.5, 6.5);
        check(&nl, &x, &format!("draw {k}"));
    }
}
