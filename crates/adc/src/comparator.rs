//! The comparator macro: a three-phase, fully balanced, auto-zeroed
//! comparator with its flipflop load — the cell the paper's §3.2 analyses
//! in depth.
//!
//! Topology (all names appear identically in the layout generator):
//!
//! * **Sampling (φ1)** — input switches put `vin` on the left sampling
//!   capacitor and `vref` on the right one while the amplifier inputs are
//!   auto-zeroed to `vaz`.
//! * **Amplification (φ2)** — the switches swap to `vref`/`vin`, so the
//!   amplifier sees `2·(vref − vin)` differentially; a class-A NMOS pair
//!   with diode loads (plus `vbp`/`vbnc` bleed sources) amplifies it.
//! * **Latching (φ3)** — a regenerative CMOS latch resolves the amplified
//!   difference to full logic levels, which it holds dynamically through
//!   the next sampling phase.
//! * **Flipflop** — at the beginning of the new sampling phase the decision
//!   transfers through pass gates into a balanced static flipflop. The
//!   production flipflop equalises its nodes with a φ1-gated device, which
//!   draws a strongly process-dependent static current during sampling —
//!   the paper's "leakage current in the flipflops". The DfT redesign
//!   ([`ComparatorConfig::dft_flipflop`]) removes that static path.

use crate::process::{BiasValues, Phase, CLOCK_PERIOD, VDD};
use dotm_netlist::{MosType, MosfetParams, Netlist, Waveform};
use dotm_sim::TranResult;

/// Build options for the comparator macro.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComparatorConfig {
    /// Use the DfT-redesigned flipflop without the sampling-phase static
    /// current path.
    pub dft_flipflop: bool,
}

/// Names of the comparator macro's ports (shared with the layout and the
/// testbench).
pub const PORTS: &[&str] = &[
    "vdd", "vin", "vref", "ck1", "ck2", "ck3", "vbn", "vbnc", "vbp", "vaz", "fa", "fb",
];

fn nmos(w: f64, l: f64) -> MosfetParams {
    MosfetParams::nmos_default().sized(w, l)
}

fn pmos(w: f64, l: f64) -> MosfetParams {
    MosfetParams::pmos_default().sized(w, l)
}

/// Builds the comparator + flipflop macro cell as a standalone netlist
/// whose port nodes are named per [`PORTS`].
pub fn comparator_macro(cfg: ComparatorConfig) -> Netlist {
    let mut nl = Netlist::new(if cfg.dft_flipflop {
        "comparator_dft"
    } else {
        "comparator"
    });
    let gnd = Netlist::GROUND;
    let vdd = nl.node("vdd");
    let vin = nl.node("vin");
    let vref = nl.node("vref");
    let ck1 = nl.node("ck1");
    let ck2 = nl.node("ck2");
    let ck3 = nl.node("ck3");
    let vbn = nl.node("vbn");
    let vbnc = nl.node("vbnc");
    let vbp = nl.node("vbp");
    let vaz = nl.node("vaz");
    let na = nl.node("na");
    let nb = nl.node("nb");
    let ga = nl.node("ga");
    let gb = nl.node("gb");
    let oa = nl.node("oa");
    let ob = nl.node("ob");
    let ntail = nl.node("ntail");
    let nls = nl.node("nls");
    let la = nl.node("la");
    let lb = nl.node("lb");
    let fa = nl.node("fa");
    let fb = nl.node("fb");

    // --- input sampling network -----------------------------------------
    // φ1 puts (vref, vin) on (na, nb); φ2 swaps to (vin, vref), so the
    // left amplifier input moves by +(vin − vref) and the right by the
    // negative — a fully balanced 2× differential drive.
    nl.add_mosfet(
        "MS1A",
        vref,
        ck1,
        na,
        gnd,
        MosType::Nmos,
        nmos(6e-6, 0.8e-6),
    )
    .unwrap();
    nl.add_mosfet("MS1B", vin, ck1, nb, gnd, MosType::Nmos, nmos(6e-6, 0.8e-6))
        .unwrap();
    nl.add_mosfet("MS2A", vin, ck2, na, gnd, MosType::Nmos, nmos(6e-6, 0.8e-6))
        .unwrap();
    nl.add_mosfet(
        "MS2B",
        vref,
        ck2,
        nb,
        gnd,
        MosType::Nmos,
        nmos(6e-6, 0.8e-6),
    )
    .unwrap();
    nl.add_capacitor("CA", na, ga, 200e-15).unwrap();
    nl.add_capacitor("CB", nb, gb, 200e-15).unwrap();
    nl.add_mosfet("MS3A", ga, ck1, vaz, gnd, MosType::Nmos, nmos(3e-6, 0.8e-6))
        .unwrap();
    nl.add_mosfet("MS3B", gb, ck1, vaz, gnd, MosType::Nmos, nmos(3e-6, 0.8e-6))
        .unwrap();

    // --- class-A amplifier ----------------------------------------------
    nl.add_mosfet("M1", oa, ga, ntail, gnd, MosType::Nmos, nmos(20e-6, 1.6e-6))
        .unwrap();
    nl.add_mosfet("M2", ob, gb, ntail, gnd, MosType::Nmos, nmos(20e-6, 1.6e-6))
        .unwrap();
    nl.add_mosfet("M3", ntail, vbn, gnd, gnd, MosType::Nmos, nmos(10e-6, 2e-6))
        .unwrap();
    // Diode-connected PMOS loads.
    nl.add_mosfet("M4", oa, oa, vdd, vdd, MosType::Pmos, pmos(3e-6, 1.6e-6))
        .unwrap();
    nl.add_mosfet("M5", ob, ob, vdd, vdd, MosType::Pmos, pmos(3e-6, 1.6e-6))
        .unwrap();
    // Class-A bleed sources from the bias generator.
    nl.add_mosfet("M16", oa, vbp, vdd, vdd, MosType::Pmos, pmos(2e-6, 2e-6))
        .unwrap();
    nl.add_mosfet("M17", ob, vbp, vdd, vdd, MosType::Pmos, pmos(2e-6, 2e-6))
        .unwrap();
    nl.add_mosfet("M18", oa, vbnc, gnd, gnd, MosType::Nmos, nmos(2e-6, 2e-6))
        .unwrap();
    nl.add_mosfet("M19", ob, vbnc, gnd, gnd, MosType::Nmos, nmos(2e-6, 2e-6))
        .unwrap();

    // --- regenerative latch (stacked, StrongARM-style) --------------------
    // Input pair under the cross-coupled NMOS pair, PMOS cross on top.
    // During φ2 the outputs precharge high and equalise; during φ3 the
    // footer opens a ratioed race that regenerates to full logic levels,
    // which the PMOS cross holds dynamically through the next φ1.
    let xa = nl.node("xa");
    let xb = nl.node("xb");
    nl.add_mosfet("ML1", xa, oa, nls, gnd, MosType::Nmos, nmos(6e-6, 0.8e-6))
        .unwrap();
    nl.add_mosfet("ML2", xb, ob, nls, gnd, MosType::Nmos, nmos(6e-6, 0.8e-6))
        .unwrap();
    nl.add_mosfet("ML3", la, lb, xa, gnd, MosType::Nmos, nmos(2e-6, 0.8e-6))
        .unwrap();
    nl.add_mosfet("ML4", lb, la, xb, gnd, MosType::Nmos, nmos(2e-6, 0.8e-6))
        .unwrap();
    nl.add_mosfet("ML5", la, lb, vdd, vdd, MosType::Pmos, pmos(4e-6, 0.8e-6))
        .unwrap();
    nl.add_mosfet("ML6", lb, la, vdd, vdd, MosType::Pmos, pmos(4e-6, 0.8e-6))
        .unwrap();
    nl.add_mosfet("ML7", nls, ck3, gnd, gnd, MosType::Nmos, nmos(8e-6, 0.8e-6))
        .unwrap();
    // The latch drives the flipflop and its share of the output wiring:
    // explicit load capacitance sets the regeneration time constant to a
    // few nanoseconds (also what keeps the dynamically held decision alive
    // through the next sampling phase).
    nl.add_capacitor("CLA", la, gnd, 250e-15).unwrap();
    nl.add_capacitor("CLB", lb, gnd, 250e-15).unwrap();
    nl.add_capacitor("CXA", xa, gnd, 80e-15).unwrap();
    nl.add_capacitor("CXB", xb, gnd, 80e-15).unwrap();
    // φ2 precharge-and-equalise of the latch outputs: full-rail PMOS
    // precharge gated by a locally inverted φ2, so the latch enters the
    // decision race perfectly symmetric (no hysteresis from the held
    // previous state).
    let ck2b = nl.node("ck2b");
    nl.add_mosfet(
        "MI2N",
        ck2b,
        ck2,
        gnd,
        gnd,
        MosType::Nmos,
        nmos(2e-6, 0.8e-6),
    )
    .unwrap();
    nl.add_mosfet(
        "MI2P",
        ck2b,
        ck2,
        vdd,
        vdd,
        MosType::Pmos,
        pmos(4e-6, 0.8e-6),
    )
    .unwrap();
    nl.add_mosfet(
        "MLE1",
        la,
        ck2b,
        vdd,
        vdd,
        MosType::Pmos,
        pmos(6e-6, 0.8e-6),
    )
    .unwrap();
    nl.add_mosfet(
        "MLE2",
        lb,
        ck2b,
        vdd,
        vdd,
        MosType::Pmos,
        pmos(6e-6, 0.8e-6),
    )
    .unwrap();
    nl.add_mosfet("MLE3", la, ck2b, lb, vdd, MosType::Pmos, pmos(3e-6, 0.8e-6))
        .unwrap();

    // --- flipflop load -----------------------------------------------------
    nl.add_mosfet("MFP1", la, ck1, fa, gnd, MosType::Nmos, nmos(4e-6, 0.8e-6))
        .unwrap();
    nl.add_mosfet("MFP2", lb, ck1, fb, gnd, MosType::Nmos, nmos(4e-6, 0.8e-6))
        .unwrap();
    nl.add_mosfet("MFN1", fb, fa, gnd, gnd, MosType::Nmos, nmos(3e-6, 4e-6))
        .unwrap();
    nl.add_mosfet("MFI1", fb, fa, vdd, vdd, MosType::Pmos, pmos(6e-6, 4e-6))
        .unwrap();
    nl.add_mosfet("MFN2", fa, fb, gnd, gnd, MosType::Nmos, nmos(3e-6, 4e-6))
        .unwrap();
    nl.add_mosfet("MFI2", fa, fb, vdd, vdd, MosType::Pmos, pmos(6e-6, 4e-6))
        .unwrap();
    if !cfg.dft_flipflop {
        // Production flipflop: a φ1-gated equaliser creates the ratioed
        // static current the paper's DfT analysis eliminates.
        nl.add_mosfet("MEQ", fa, ck1, fb, gnd, MosType::Nmos, nmos(2e-6, 0.8e-6))
            .unwrap();
    }
    nl
}

/// Testbench stimuli for a comparator run.
#[derive(Debug, Clone)]
pub struct ComparatorStimulus {
    /// Input waveform on `vin`.
    pub vin: Waveform,
    /// Reference voltage on `vref`.
    pub vref: f64,
    /// Bias values (normally [`BiasValues::default`]).
    pub bias: BiasValues,
}

impl ComparatorStimulus {
    /// DC input at `vref + dv`.
    pub fn dc_offset(vref: f64, dv: f64) -> Self {
        ComparatorStimulus {
            vin: Waveform::dc(vref + dv),
            vref,
            bias: BiasValues::default(),
        }
    }
}

/// Builds the full testbench: the macro plus supplies, bias/reference
/// sources and the clock-generator output buffers (powered from the
/// *digital* supply `vdd_dig`, whose quiescent current is the paper's
/// IDDQ measurement).
pub fn comparator_testbench(cfg: ComparatorConfig, stim: &ComparatorStimulus) -> Netlist {
    let mut nl = comparator_macro(cfg);
    let gnd = Netlist::GROUND;
    let vdd = nl.node("vdd");
    let vdd_dig = nl.node("vdd_dig");
    let vin = nl.node("vin");
    let vref = nl.node("vref");

    nl.add_vsource("VDD", vdd, gnd, Waveform::dc(VDD)).unwrap();
    nl.add_vsource("VDDDIG", vdd_dig, gnd, Waveform::dc(VDD))
        .unwrap();
    nl.add_vsource("VIN", vin, gnd, stim.vin.clone()).unwrap();
    let _ = vref;
    // Bias lines are driven through the bias generator's output impedance
    // (diode-connected mirror branches ≈ 1/gm, the vaz divider's Thevenin
    // resistance): shorts between bias lines redistribute microamps, they
    // do not fight an ideal source — the crux of the paper's
    // similar-signal-shorts DfT analysis.
    for (name, value, rout) in [
        ("VBN", stim.bias.vbn, 6.8e3),
        ("VBNC", stim.bias.vbnc, 6.8e3),
        ("VBP", stim.bias.vbp, 7.5e3),
        ("VAZ", stim.bias.vaz, 8.0e3),
    ] {
        let line = nl.node(&name.to_lowercase());
        let src = nl.node(&format!("{}_src", name.to_lowercase()));
        nl.add_vsource(name, src, gnd, Waveform::dc(value)).unwrap();
        nl.add_resistor(&format!("R{name}"), src, line, rout)
            .unwrap();
    }
    // The reference tap reaches the comparator through the fine ladder's
    // local impedance.
    {
        let src = nl.node("vref_src");
        let line = nl.node("vref");
        nl.add_vsource("VREF", src, gnd, Waveform::dc(stim.vref))
            .unwrap();
        nl.add_resistor("RVREF", src, line, 100.0).unwrap();
    }

    // Decoder input stage: the flipflop outputs drive the first gates of
    // the digital decoder (powered from the digital supply). A comparator
    // fault that leaves fa/fb at intermediate analog levels crowbars these
    // gates — the paper's "many faults disturb the boundary between analog
    // and digital, causing an increased quiescent current of the digital
    // part of the IC".
    for out in ["fa", "fb"] {
        let o = nl.node(out);
        let sink = nl.node(&format!("dec_{out}"));
        nl.add_mosfet(
            &format!("MDEC{}N", out.to_uppercase()),
            sink,
            o,
            gnd,
            gnd,
            MosType::Nmos,
            nmos(3e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MDEC{}P", out.to_uppercase()),
            sink,
            o,
            vdd_dig,
            vdd_dig,
            MosType::Pmos,
            pmos(6e-6, 0.8e-6),
        )
        .unwrap();
    }

    // Clock-generator output buffers: ideal phase sources drive a
    // two-inverter buffer chain per phase; the second (driver) stage feeds
    // the macro's clock distribution lines.
    for (i, phase) in Phase::ALL.iter().enumerate() {
        let n = i + 1;
        let ck_in = nl.node(&format!("ck{n}_in"));
        let ck_mid = nl.node(&format!("ck{n}_b"));
        let ck = nl.node(&format!("ck{n}"));
        nl.add_vsource(&format!("VCK{n}"), ck_in, gnd, phase.waveform())
            .unwrap();
        nl.add_mosfet(
            &format!("MCB{n}AN"),
            ck_mid,
            ck_in,
            gnd,
            gnd,
            MosType::Nmos,
            nmos(2e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MCB{n}AP"),
            ck_mid,
            ck_in,
            vdd_dig,
            vdd_dig,
            MosType::Pmos,
            pmos(4e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MCB{n}BN"),
            ck,
            ck_mid,
            gnd,
            gnd,
            MosType::Nmos,
            nmos(12e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MCB{n}BP"),
            ck,
            ck_mid,
            vdd_dig,
            vdd_dig,
            MosType::Pmos,
            pmos(24e-6, 0.8e-6),
        )
        .unwrap();
    }
    nl
}

/// Time (s) at which the flipflop output holds the decision for the sample
/// taken in cycle 0: mid-amplification of cycle 1.
pub fn decision_time() -> f64 {
    CLOCK_PERIOD + (Phase::Amplify.window().0 + Phase::Amplify.window().1) / 2.0
}

/// Total transient length needed to read one decision.
pub fn decision_sim_time() -> f64 {
    CLOCK_PERIOD + Phase::Amplify.window().1
}

/// Reads the differential flipflop decision `v(fa) − v(fb)` at
/// [`decision_time`] from a transient result.
pub fn read_decision(nl: &Netlist, tr: &TranResult) -> f64 {
    let fa = nl.find_node("fa").expect("fa exists");
    let fb = nl.find_node("fb").expect("fb exists");
    let k = tr.index_at(decision_time());
    tr.voltage(k, fa) - tr.voltage(k, fb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::VREF_HI;
    use dotm_sim::Simulator;

    const DT: f64 = 0.25e-9;

    fn run_decision(cfg: ComparatorConfig, dv: f64) -> f64 {
        let stim = ComparatorStimulus::dc_offset(2.5, dv);
        let nl = comparator_testbench(cfg, &stim);
        let mut sim = Simulator::new(&nl);
        let tr = sim
            .transient(decision_sim_time(), DT)
            .expect("comparator transient must converge");
        read_decision(&nl, &tr)
    }

    #[test]
    fn macro_has_expected_structure() {
        let nl = comparator_macro(ComparatorConfig::default());
        assert!(nl.device("M1").is_some());
        assert!(nl.device("MEQ").is_some());
        for port in PORTS {
            assert!(nl.find_node(port).is_some(), "missing port {port}");
        }
        let dft = comparator_macro(ComparatorConfig { dft_flipflop: true });
        assert!(dft.device("MEQ").is_none());
    }

    #[test]
    fn resolves_positive_input_above_reference() {
        for dv in [0.05, 0.008] {
            let d = run_decision(ComparatorConfig::default(), dv);
            assert!(
                d > 2.0,
                "vin = vref + {dv}: expected fa high, got diff {d:.3}"
            );
        }
    }

    #[test]
    fn resolves_negative_input_below_reference() {
        for dv in [-0.05, -0.008] {
            let d = run_decision(ComparatorConfig::default(), dv);
            assert!(
                d < -2.0,
                "vin = vref {dv}: expected fa low, got diff {d:.3}"
            );
        }
    }

    #[test]
    fn dft_flipflop_preserves_function() {
        let cfg = ComparatorConfig { dft_flipflop: true };
        assert!(run_decision(cfg, 0.02) > 2.0);
        assert!(run_decision(cfg, -0.02) < -2.0);
    }

    #[test]
    fn works_across_reference_range() {
        for vref in [1.6, 2.5, VREF_HI - 0.1] {
            let stim = ComparatorStimulus::dc_offset(vref, 0.03);
            let nl = comparator_testbench(ComparatorConfig::default(), &stim);
            let mut sim = Simulator::new(&nl);
            let tr = sim.transient(decision_sim_time(), DT).unwrap();
            assert!(read_decision(&nl, &tr) > 2.0, "failed at vref = {vref}");
        }
    }

    #[test]
    fn sampling_phase_draws_static_flipflop_current() {
        // The production flipflop must draw markedly more analog supply
        // current during sampling than the DfT version.
        let stim = ComparatorStimulus::dc_offset(2.5, 0.05);
        let mut ivdd = [0.0f64; 2];
        for (k, dft) in [(0usize, false), (1usize, true)] {
            let nl = comparator_testbench(ComparatorConfig { dft_flipflop: dft }, &stim);
            let mut sim = Simulator::new(&nl);
            let tr = sim.transient(decision_sim_time(), DT).unwrap();
            // Measure in cycle 1's sampling phase (state fully settled).
            let t = CLOCK_PERIOD + Phase::Sample.settle_time();
            let idx = tr.index_at(t);
            let id = nl.device_id("VDD").unwrap();
            ivdd[k] = tr.branch_current(idx, id).unwrap().abs();
        }
        assert!(
            ivdd[0] > ivdd[1] + 20e-6,
            "production FF must draw >20µA extra during sampling: prod {:.1}µA vs dft {:.1}µA",
            ivdd[0] * 1e6,
            ivdd[1] * 1e6
        );
    }
}
