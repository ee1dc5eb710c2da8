//! Inputs shared by the solver test suites.

use dotm::netlist::{MosType, MosfetParams, Netlist, NodeId, Waveform};
use dotm_rng::rngs::StdRng;
use dotm_rng::Rng;

/// A random MNA-shaped netlist: a resistor tree over all nodes (so the
/// system stays well conditioned) plus random extra resistors, MOSFETs
/// and capacitors, one grounded supply and a few grounded and floating
/// voltage sources.
pub fn random_netlist(rng: &mut StdRng) -> Netlist {
    let mut nl = Netlist::new("random");
    let n = rng.gen_range(3..40usize);
    let nodes: Vec<NodeId> = (0..n).map(|i| nl.node(&format!("n{i}"))).collect();
    let any = |rng: &mut StdRng| -> NodeId {
        if rng.gen_bool(0.15) {
            Netlist::GROUND
        } else {
            nodes[rng.gen_range(0..n)]
        }
    };
    let mut r = 0;
    let mut res = |nl: &mut Netlist, a: NodeId, b: NodeId, ohms: f64| {
        r += 1;
        nl.add_resistor(&format!("R{r}"), a, b, ohms)
            .expect("resistor");
    };
    res(&mut nl, nodes[0], Netlist::GROUND, 1e3);
    for i in 1..n {
        let parent = nodes[rng.gen_range(0..i)];
        res(
            &mut nl,
            nodes[i],
            parent,
            10f64.powf(rng.gen_range(1.0..5.0)),
        );
    }
    for _ in 0..rng.gen_range(0..n) {
        let (a, b) = (any(rng), any(rng));
        if a != b {
            res(&mut nl, a, b, 10f64.powf(rng.gen_range(0.0..6.0)));
        }
    }
    nl.add_vsource("VDD", nodes[0], Netlist::GROUND, Waveform::dc(5.0))
        .expect("supply");
    for k in 0..rng.gen_range(0..4usize) {
        let p = nodes[rng.gen_range(1..n.max(2)).min(n - 1)];
        let q = if rng.gen_bool(0.5) {
            Netlist::GROUND
        } else {
            any(rng)
        };
        if p != q {
            let v = rng.gen_range(-2.0..2.0);
            nl.add_vsource(&format!("V{k}"), p, q, Waveform::dc(v))
                .expect("source");
        }
    }
    for k in 0..rng.gen_range(0..2 * n) {
        let (d, g, s) = (any(rng), any(rng), any(rng));
        let (ty, params, b) = if rng.gen_bool(0.5) {
            (MosType::Nmos, MosfetParams::nmos_default(), Netlist::GROUND)
        } else {
            (MosType::Pmos, MosfetParams::pmos_default(), nodes[0])
        };
        nl.add_mosfet(&format!("M{k}"), d, g, s, b, ty, params)
            .expect("mosfet");
    }
    for k in 0..rng.gen_range(0..n) {
        let (a, b) = (any(rng), any(rng));
        if a != b {
            nl.add_capacitor(&format!("C{k}"), a, b, 1e-13)
                .expect("capacitor");
        }
    }
    nl
}
