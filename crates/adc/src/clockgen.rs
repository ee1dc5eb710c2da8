//! The three-phase clock generator macro — the ADC's digital cell.
//!
//! Each phase output is gated through a NOR interlock with the previous
//! phase in the ring (`φ1 ← φ3`, `φ2 ← φ1`, `φ3 ← φ2`), guaranteeing
//! non-overlap even for sloppy sequencer inputs, and then amplified by a
//! two-inverter buffer chain whose final stage drives the long clock
//! distribution lines through all 256 comparators.
//!
//! The whole macro runs from the digital supply `vdd_dig`; its quiescent
//! current is the paper's IDDQ measurement, and it is near zero in the
//! fault-free circuit — which is exactly why so many clock-line faults
//! are IDDQ-detectable.

use crate::process::{Phase, VDD};
use dotm_netlist::{MosType, MosfetParams, Netlist, Waveform};

fn nmos(w: f64, l: f64) -> MosfetParams {
    MosfetParams::nmos_default().sized(w, l)
}

fn pmos(w: f64, l: f64) -> MosfetParams {
    MosfetParams::pmos_default().sized(w, l)
}

/// Ports of the clock generator macro.
pub const PORTS: &[&str] = &["vdd_dig", "x1", "x2", "x3", "ck1", "ck2", "ck3"];

/// Builds the clock-generator macro: per phase an input inverter, the
/// interlock NOR, and the two-stage output buffer.
pub fn clockgen_macro() -> Netlist {
    let mut nl = Netlist::new("clock_gen");
    let gnd = Netlist::GROUND;
    let vdd = nl.node("vdd_dig");
    let outs = ["ck1", "ck2", "ck3"].map(|n| nl.node(n));
    for n in 1..=3usize {
        let x = nl.node(&format!("x{n}"));
        let a = nl.node(&format!("a{n}"));
        let b = nl.node(&format!("b{n}"));
        let c = nl.node(&format!("c{n}"));
        let y = outs[n - 1];
        let y_prev = outs[(n + 1) % 3]; // ring: 1←3, 2←1, 3←2
        let mid = nl.node(&format!("nmid{n}"));
        // Input inverter: a = !x.
        nl.add_mosfet(
            &format!("MG{n}IN"),
            a,
            x,
            gnd,
            gnd,
            MosType::Nmos,
            nmos(2e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MG{n}IP"),
            a,
            x,
            vdd,
            vdd,
            MosType::Pmos,
            pmos(4e-6, 0.8e-6),
        )
        .unwrap();
        // Interlock NOR: b = !(a | y_prev) = x & !y_prev.
        nl.add_mosfet(
            &format!("MG{n}NA"),
            b,
            a,
            gnd,
            gnd,
            MosType::Nmos,
            nmos(3e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MG{n}NB"),
            b,
            y_prev,
            gnd,
            gnd,
            MosType::Nmos,
            nmos(3e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MG{n}PA"),
            mid,
            a,
            vdd,
            vdd,
            MosType::Pmos,
            pmos(8e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MG{n}PB"),
            b,
            y_prev,
            mid,
            vdd,
            MosType::Pmos,
            pmos(8e-6, 0.8e-6),
        )
        .unwrap();
        // Two-stage buffer: c = !b, y = !c (large driver).
        nl.add_mosfet(
            &format!("MG{n}CN"),
            c,
            b,
            gnd,
            gnd,
            MosType::Nmos,
            nmos(4e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MG{n}CP"),
            c,
            b,
            vdd,
            vdd,
            MosType::Pmos,
            pmos(8e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MG{n}DN"),
            y,
            c,
            gnd,
            gnd,
            MosType::Nmos,
            nmos(14e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MG{n}DP"),
            y,
            c,
            vdd,
            vdd,
            MosType::Pmos,
            pmos(28e-6, 0.8e-6),
        )
        .unwrap();
        // The load of the 256-comparator distribution line.
        nl.add_capacitor(&format!("CL{n}"), y, gnd, 2e-12).unwrap();
    }
    nl
}

/// Testbench: the macro with its digital supply and the ideal sequencer
/// phase inputs.
pub fn clockgen_testbench() -> Netlist {
    let mut nl = clockgen_macro();
    let vdd = nl.node("vdd_dig");
    nl.add_vsource("VDDDIG", vdd, Netlist::GROUND, Waveform::dc(VDD))
        .unwrap();
    for (i, phase) in Phase::ALL.iter().enumerate() {
        let x = nl.node(&format!("x{}", i + 1));
        nl.add_vsource(
            &format!("VX{}", i + 1),
            x,
            Netlist::GROUND,
            phase.waveform(),
        )
        .unwrap();
    }
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::CLOCK_PERIOD;
    use dotm_sim::Simulator;

    #[test]
    fn ports_exist() {
        let nl = clockgen_macro();
        for p in PORTS {
            assert!(nl.find_node(p).is_some(), "missing {p}");
        }
        assert_eq!(nl.device_count(), 3 * 11);
    }

    #[test]
    fn phases_reproduce_inputs() {
        let nl = clockgen_testbench();
        let mut sim = Simulator::new(&nl);
        let mids = Phase::ALL.map(|phase| {
            let (s, e) = phase.window();
            (s + e) / 2.0
        });
        let reads = sim.transient(0.5e-9, &mids).unwrap();
        for (i, read) in reads.iter().enumerate() {
            let y = nl.find_node(&format!("ck{}", i + 1)).unwrap();
            assert!(
                read.voltage(y) > VDD - 0.2,
                "ck{} must be high mid-phase",
                i + 1
            );
            for (j, other) in reads.iter().enumerate() {
                if i != j {
                    assert!(
                        other.voltage(y) < 0.2,
                        "ck{} must be low during phase {}",
                        i + 1,
                        j + 1
                    );
                }
            }
        }
    }

    #[test]
    fn interlock_prevents_overlap() {
        // Feed x2 asserted already during phase 1's window: ck2 must stay
        // low while ck1 is high.
        let mut nl = clockgen_macro();
        let vdd = nl.node("vdd_dig");
        nl.add_vsource("VDDDIG", vdd, Netlist::GROUND, Waveform::dc(VDD))
            .unwrap();
        let x1 = nl.node("x1");
        let x2 = nl.node("x2");
        let x3 = nl.node("x3");
        nl.add_vsource("VX1", x1, Netlist::GROUND, Phase::Sample.waveform())
            .unwrap();
        // x2 rises mid-φ1 (overlapping request).
        nl.add_vsource(
            "VX2",
            x2,
            Netlist::GROUND,
            Waveform::pulse(0.0, VDD, 20e-9, 2e-9, 2e-9, 50e-9, CLOCK_PERIOD),
        )
        .unwrap();
        nl.add_vsource("VX3", x3, Netlist::GROUND, Waveform::dc(0.0))
            .unwrap();
        let mut sim = Simulator::new(&nl);
        // At 30 ns: x1 and x2 both high; interlock must hold ck2 low.
        let op = &sim.transient(0.5e-9, &[30e-9]).unwrap()[0];
        let ck1 = nl.find_node("ck1").unwrap();
        let ck2 = nl.find_node("ck2").unwrap();
        assert!(op.voltage(ck1) > VDD - 0.3);
        assert!(op.voltage(ck2) < 0.3, "interlock failed: ck2 high");
    }

    #[test]
    fn quiescent_iddq_is_negligible() {
        // Mid-phase, all nodes settled: the digital cell draws only
        // leakage — the tight IDDQ baseline the paper exploits.
        let nl = clockgen_testbench();
        let mut sim = Simulator::new(&nl);
        let t = Phase::Sample.settle_time();
        let op = &sim.transient(0.5e-9, &[t]).unwrap()[0];
        let id = nl.device_id("VDDDIG").unwrap();
        let i = op.branch_current(id).unwrap().abs();
        assert!(i < 1e-6, "IDDQ must be sub-µA, got {i}");
    }

    #[test]
    fn clock_line_short_raises_iddq() {
        // A bridging fault from ck1 to ground: the driver crowbars and
        // IDDQ jumps by orders of magnitude.
        let mut nl = clockgen_testbench();
        let ck1 = nl.find_node("ck1").unwrap();
        nl.insert_bridge("F", ck1, Netlist::GROUND, 0.2, None)
            .unwrap();
        let mut sim = Simulator::new(&nl);
        let t = Phase::Sample.settle_time();
        let op = &sim.transient(0.5e-9, &[t]).unwrap()[0];
        let id = nl.device_id("VDDDIG").unwrap();
        let i = op.branch_current(id).unwrap().abs();
        assert!(i > 1e-3, "shorted clock must pull mA-scale IDDQ, got {i}");
    }
}
