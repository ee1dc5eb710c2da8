//! Transistor-level flash-converter slices: `n` comparator macros against
//! a real ladder section, sharing clock buffers and bias lines — the
//! structure used to validate the behavioural propagation models against
//! full circuit simulation, and the natural testbench for faults that
//! couple *between* comparator instances.

use crate::comparator::{comparator_macro, ComparatorConfig};
use crate::process::{BiasValues, Phase, VDD};
use dotm_netlist::{MosType, MosfetParams, Netlist, Waveform};
use dotm_sim::OpPoint;

/// A built flash slice: the netlist plus the output node names per stage.
#[derive(Debug, Clone)]
pub struct FlashColumn {
    /// The complete testbench netlist.
    pub netlist: Netlist,
    /// `(fa, fb)` node names per comparator stage, lowest reference first.
    pub outputs: Vec<(String, String)>,
    /// Ladder bottom voltage.
    pub v_lo: f64,
    /// Ladder top voltage.
    pub v_hi: f64,
}

impl FlashColumn {
    /// Builds an `n_stages`-comparator column (an `log2(n+1)`-bit flash)
    /// over the reference range `v_lo..v_hi`, with the input held at
    /// `vin`.
    ///
    /// # Panics
    /// Panics if `n_stages == 0` or the range is empty.
    pub fn build(cfg: ComparatorConfig, n_stages: usize, v_lo: f64, v_hi: f64, vin: f64) -> Self {
        assert!(n_stages > 0 && v_hi > v_lo);
        let mut nl = Netlist::new("flash_column");
        let gnd = Netlist::GROUND;
        let vdd = nl.node("vdd");
        let vdd_dig = nl.node("vdd_dig");
        let vin_n = nl.node("vin");
        nl.add_vsource("VDD", vdd, gnd, Waveform::dc(VDD)).unwrap();
        nl.add_vsource("VDDDIG", vdd_dig, gnd, Waveform::dc(VDD))
            .unwrap();
        nl.add_vsource("VIN", vin_n, gnd, Waveform::dc(vin))
            .unwrap();

        // Ladder section: n+1 equal segments.
        let vrl = nl.node("vrl");
        let vrh = nl.node("vrh");
        nl.add_vsource("VRL", vrl, gnd, Waveform::dc(v_lo)).unwrap();
        nl.add_vsource("VRH", vrh, gnd, Waveform::dc(v_hi)).unwrap();
        let mut prev = vrl;
        let mut taps = Vec::new();
        for k in 1..=n_stages + 1 {
            let next = if k == n_stages + 1 {
                vrh
            } else {
                nl.node(&format!("tap{k}"))
            };
            nl.add_resistor(&format!("RL{k}"), prev, next, 50.0)
                .unwrap();
            if k <= n_stages {
                taps.push(next);
            }
            prev = next;
        }

        // Shared bias lines through the generator's output impedance.
        let bias = BiasValues::default();
        for (name, value, rout) in [
            ("VBN", bias.vbn, 6.8e3),
            ("VBNC", bias.vbnc, 6.8e3),
            ("VBP", bias.vbp, 7.5e3),
            ("VAZ", bias.vaz, 8.0e3),
        ] {
            let line = nl.node(&name.to_lowercase());
            let src = nl.node(&format!("{}_src", name.to_lowercase()));
            nl.add_vsource(name, src, gnd, Waveform::dc(value)).unwrap();
            nl.add_resistor(&format!("R{name}"), src, line, rout)
                .unwrap();
        }

        // One set of clock drivers serves the whole column.
        let nmos = |w: f64, l: f64| MosfetParams::nmos_default().sized(w, l);
        let pmos = |w: f64, l: f64| MosfetParams::pmos_default().sized(w, l);
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
                nmos(24e-6, 0.8e-6),
            )
            .unwrap();
            nl.add_mosfet(
                &format!("MCB{n}BP"),
                ck,
                ck_mid,
                vdd_dig,
                vdd_dig,
                MosType::Pmos,
                pmos(48e-6, 0.8e-6),
            )
            .unwrap();
        }

        let template = comparator_macro(cfg);
        let mut outputs = Vec::new();
        for (k, &tap) in taps.iter().enumerate() {
            let prefix = format!("u{k}");
            let ck1 = nl.node("ck1");
            let ck2 = nl.node("ck2");
            let ck3 = nl.node("ck3");
            let (vbn, vbnc, vbp, vaz) = (
                nl.node("vbn"),
                nl.node("vbnc"),
                nl.node("vbp"),
                nl.node("vaz"),
            );
            nl.instantiate(
                &template,
                &prefix,
                &[
                    ("vdd", vdd),
                    ("vin", vin_n),
                    ("vref", tap),
                    ("ck1", ck1),
                    ("ck2", ck2),
                    ("ck3", ck3),
                    ("vbn", vbn),
                    ("vbnc", vbnc),
                    ("vbp", vbp),
                    ("vaz", vaz),
                ],
            )
            .expect("instantiation");
            outputs.push((format!("{prefix}.fa"), format!("{prefix}.fb")));
        }
        FlashColumn {
            netlist: nl,
            outputs,
            v_lo,
            v_hi,
        }
    }

    /// Reads the thermometer decisions from the column's operating point
    /// at [`decision_time`](crate::comparator::decision_time).
    pub fn read_thermometer(&self, op: &OpPoint) -> Vec<bool> {
        self.outputs
            .iter()
            .map(|(fa, fb)| {
                let a = op.voltage(self.netlist.find_node(fa).expect("fa"));
                let b = op.voltage(self.netlist.find_node(fb).expect("fb"));
                a - b > 0.0
            })
            .collect()
    }

    /// The ideal output code for an input voltage.
    pub fn ideal_code(&self, vin: f64) -> usize {
        let n = self.outputs.len();
        let lsb = (self.v_hi - self.v_lo) / (n + 1) as f64;
        (1..=n)
            .filter(|&k| vin > self.v_lo + k as f64 * lsb)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::decision_time;
    use dotm_sim::Simulator;

    /// The column's operating point at the decision instant.
    fn decide(col: &FlashColumn) -> OpPoint {
        let mut sim = Simulator::new(&col.netlist);
        sim.transient(0.5e-9, &[decision_time()]).unwrap().remove(0)
    }

    fn convert(vin: f64) -> (usize, usize) {
        let col = FlashColumn::build(ComparatorConfig::default(), 3, 2.0, 3.0, vin);
        let therm = col.read_thermometer(&decide(&col));
        let height = therm.iter().take_while(|&&t| t).count();
        (height, col.ideal_code(vin))
    }

    #[test]
    fn two_bit_column_matches_behavioural_codes() {
        // 3 comparators, taps at 2.25 / 2.5 / 2.75 V: probe each bin.
        for vin in [2.1, 2.4, 2.6, 2.9] {
            let (silicon, ideal) = convert(vin);
            assert_eq!(silicon, ideal, "vin = {vin}");
        }
    }

    #[test]
    fn column_structure() {
        let col = FlashColumn::build(ComparatorConfig::default(), 3, 2.0, 3.0, 2.5);
        assert_eq!(col.outputs.len(), 3);
        // 3 comparators × ~40 devices plus ladder, bias and clock drivers.
        assert!(col.netlist.device_count() > 120);
        assert!(col.netlist.device("u0.M1").is_some());
        assert!(col.netlist.device("u2.MEQ").is_some());
        // Shared clock line fans out to every instance.
        let ck1 = col.netlist.find_node("ck1").unwrap();
        assert!(col.netlist.connections(ck1).len() > 10);
    }

    #[test]
    fn cross_comparator_fault_disturbs_neighbours() {
        // A short between two neighbouring comparators' latch nodes
        // (physically: adjacent cells in the column) corrupts at least one
        // of the two stages.
        // Pick an input where stages 0 and 1 disagree (between their
        // taps), so tying their latches together must corrupt one of them.
        let vin = 2.4; // taps 2.25 / 2.5 / 2.75 → ideal thermometer [1,0,0]
        let mut col = FlashColumn::build(ComparatorConfig::default(), 3, 2.0, 3.0, vin);
        let la0 = col.netlist.find_node("u0.la").unwrap();
        let la1 = col.netlist.find_node("u1.la").unwrap();
        col.netlist
            .insert_bridge("FCROSS", la0, la1, 0.2, None)
            .unwrap();
        let therm = col.read_thermometer(&decide(&col));
        // Fault-free thermometer would be [true, false, false]; the
        // bridge ties both latches together, so one of the two stages is
        // now wrong.
        let clean = [true, false, false];
        assert_ne!(
            therm.as_slice(),
            clean,
            "cross-comparator short must disturb the thermometer"
        );
    }
}
