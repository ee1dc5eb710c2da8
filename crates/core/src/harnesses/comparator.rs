//! Harness for the comparator macro — the cell the paper analyses in
//! depth (§3.2).

use crate::harness::{with_instrumented_sim, MacroHarness};
use crate::measure::{MeasureKind, MeasureLabel, MeasurementPlan};
use crate::processvar::{CommonSample, ProcessModel};
use crate::signature::{CurrentKind, VoltageSignature};
use dotm_adc::comparator::{
    comparator_testbench, decision_sim_time, read_decision, ComparatorConfig, ComparatorStimulus,
};
use dotm_adc::layouts::{comparator_layout, LayoutConfig};
use dotm_adc::process::{Phase, CLOCK_PERIOD, VREF_HI, VREF_LO};
use dotm_layout::Layout;
use dotm_netlist::{DeviceKind, Netlist, Waveform};
use dotm_rng::rngs::StdRng;
use dotm_sim::{SimError, SimOptions, SimStats, Simulator};

/// The differential drive points probed by the voltage test, in volts
/// around the reference. ±8 mV is the paper's one-LSB offset bound.
pub const DECISION_DVS: [f64; 4] = [-0.050, -0.008, 0.008, 0.050];

/// Reference-range extremes probed by the voltage test (the missing-code
/// stimulus sweeps every reference, so faults that only break conversion
/// near the range edges are still voltage-detected).
pub const EXTREME_VREFS: [f64; 2] = [1.7, 3.3];

/// Differential drive at the extreme references.
pub const EXTREME_DV: f64 = 0.030;

/// Input levels for the current test: "an input voltage higher than the
/// highest reference voltage and lower than the lowest reference voltage".
pub const CURRENT_VINS: [f64; 2] = [VREF_LO - 0.2, VREF_HI + 0.2];

/// Reference voltage used by the decision runs (mid-range tap).
pub const VREF_MID: f64 = 2.5;

/// Logic threshold on the differential flipflop output.
const LOGIC: f64 = 2.0;

/// Clock-line level deviation flagged as a "clock value" signature (V).
const CLOCK_DEV: f64 = 0.30;

/// Harness for the comparator macro.
#[derive(Debug, Clone)]
pub struct ComparatorHarness {
    /// Circuit variant (DfT flipflop or production).
    pub cfg: ComparatorConfig,
    /// Layout variant (DfT bias order or production).
    pub lcfg: LayoutConfig,
    /// Transient timestep (s).
    pub dt: f64,
}

impl ComparatorHarness {
    /// Production comparator.
    pub fn production() -> Self {
        ComparatorHarness {
            cfg: ComparatorConfig::default(),
            lcfg: LayoutConfig::default(),
            dt: 0.25e-9,
        }
    }

    /// Comparator with both DfT measures applied (redesigned flipflop and
    /// reordered bias trunks).
    pub fn dft() -> Self {
        ComparatorHarness {
            cfg: ComparatorConfig { dft_flipflop: true },
            lcfg: LayoutConfig {
                dft_bias_order: true,
            },
            dt: 0.25e-9,
        }
    }

    /// The source names measured as input-terminal currents.
    fn iinput_sources() -> [&'static str; 6] {
        ["VIN", "VREF", "VBN", "VBNC", "VBP", "VAZ"]
    }
}

impl MacroHarness for ComparatorHarness {
    fn name(&self) -> &str {
        if self.cfg.dft_flipflop {
            "comparator_dft"
        } else {
            "comparator"
        }
    }

    fn layout(&self) -> Layout {
        comparator_layout(self.cfg, self.lcfg)
    }

    fn instance_count(&self) -> usize {
        dotm_adc::process::N_COMPARATORS
    }

    fn testbench(&self) -> Netlist {
        let stim = ComparatorStimulus::dc_offset(VREF_MID, 0.0);
        let mut nl = comparator_testbench(self.cfg, &stim);
        // Representative pair mismatches: in silicon every matched pair
        // carries a residual offset, so a fault that merely *attenuates*
        // the signal (e.g. a vin↔vref bridge) or ties a differential pair
        // together (oa↔ob) leaves the decision to the offset — a stuck
        // output. Without these, the noiseless simulator resolves
        // arbitrarily small differentials (and breaks metastable ties by
        // numerical accident), so such faults masquerade as fault-free.
        for (dev, dvt) in [("M1", 0.003), ("ML1", 0.002), ("MFN1", 0.002)] {
            if let Some(dev) = nl.device_mut(dev) {
                if let DeviceKind::Mosfet { params, .. } = &mut dev.kind {
                    params.vt0 += dvt;
                }
            }
        }
        nl
    }

    fn plan(&self) -> MeasurementPlan {
        let mut labels = Vec::new();
        for dv in DECISION_DVS {
            labels.push(MeasureLabel::new(
                MeasureKind::Decision,
                format!("decision@{:+.0}mV", dv * 1e3),
            ));
        }
        for vref in EXTREME_VREFS {
            for sign in ["-", "+"] {
                labels.push(MeasureLabel::new(
                    MeasureKind::Decision,
                    format!("decision@vref={vref}{sign}"),
                ));
            }
        }
        for (ci, _) in CURRENT_VINS.iter().enumerate() {
            for phase in Phase::ALL {
                labels.push(MeasureLabel::new(
                    MeasureKind::Current(CurrentKind::IVdd),
                    format!("ivdd@{}/c{ci}", phase.name()),
                ));
                labels.push(MeasureLabel::new(
                    MeasureKind::Current(CurrentKind::Iddq),
                    format!("iddq@{}/c{ci}", phase.name()),
                ));
                for src in Self::iinput_sources() {
                    labels.push(MeasureLabel::new(
                        MeasureKind::Current(CurrentKind::Iinput),
                        format!("i({src})@{}/c{ci}", phase.name()),
                    ));
                }
            }
        }
        for ck in 1..=3 {
            for phase in Phase::ALL {
                labels.push(MeasureLabel::new(
                    MeasureKind::Level,
                    format!("ck{ck}@{}", phase.name()),
                ));
            }
        }
        MeasurementPlan { labels }
    }

    fn stores_nominal(&self) -> bool {
        true
    }

    fn measure_with(
        &self,
        nl: &Netlist,
        opts: &SimOptions,
        stats: &mut SimStats,
    ) -> Result<Vec<f64>, SimError> {
        let mut out = Vec::new();
        // Voltage test: four decisions around the mid reference, plus one
        // pair at each range extreme.
        for dv in DECISION_DVS {
            let tr = with_instrumented_sim(nl, opts, stats, |sim| {
                sim.override_source("VIN", VREF_MID + dv)?;
                sim.transient(decision_sim_time(), self.dt)
            })?;
            out.push(read_decision(nl, &tr));
        }
        for vref in EXTREME_VREFS {
            for dv in [-EXTREME_DV, EXTREME_DV] {
                let tr = with_instrumented_sim(nl, opts, stats, |sim| {
                    sim.override_source("VREF", vref)?;
                    sim.override_source("VIN", vref + dv)?;
                    sim.transient(decision_sim_time(), self.dt)
                })?;
                out.push(read_decision(nl, &tr));
            }
        }
        // Current test: two input extremes, three phases each; the clock
        // levels ride along on the first condition.
        let mut clock_levels = Vec::new();
        for (ci, vin) in CURRENT_VINS.iter().enumerate() {
            let tr = with_instrumented_sim(nl, opts, stats, |sim| {
                sim.override_source("VIN", *vin)?;
                sim.transient(2.0 * CLOCK_PERIOD, self.dt)
            })?;
            for phase in Phase::ALL {
                let k = tr.index_at(CLOCK_PERIOD + phase.settle_time());
                let branch = |name: &str| -> f64 {
                    nl.device_id(name)
                        .and_then(|id| tr.branch_current(k, id))
                        .unwrap_or(0.0)
                };
                out.push(branch("VDD"));
                out.push(branch("VDDDIG"));
                for src in Self::iinput_sources() {
                    out.push(branch(src));
                }
            }
            if ci == 0 {
                for ck in 1..=3 {
                    let node = nl.find_node(&format!("ck{ck}"));
                    for phase in Phase::ALL {
                        let k = tr.index_at(CLOCK_PERIOD + phase.settle_time());
                        clock_levels.push(match node {
                            Some(n) => tr.voltage(k, n),
                            None => 0.0,
                        });
                    }
                }
            }
        }
        out.extend(clock_levels);
        Ok(out)
    }

    fn perturb(
        &self,
        nl: &mut Netlist,
        model: &ProcessModel,
        common: &CommonSample,
        rng: &mut StdRng,
        stats: &mut SimStats,
    ) {
        model.perturb(nl, common, rng);
        // The bias lines track the same process corner: re-derive their
        // values from a bias generator simulated with the same common
        // sample (divide-and-conquer, exactly as the chip distributes its
        // biases).
        let mut bias_nl = dotm_adc::bias::bias_testbench();
        model.perturb(&mut bias_nl, common, rng);
        let mut sim = Simulator::new(&bias_nl);
        let op = sim.dc_op();
        stats.merge(sim.stats());
        if let Ok(op) = op {
            for (src, net) in [
                ("VBN", "vbn"),
                ("VBNC", "vbnc"),
                ("VBP", "vbp"),
                ("VAZ", "vaz"),
            ] {
                let v = op.voltage(bias_nl.find_node(net).expect("bias net"));
                if let Some(dev) = nl.device_mut(src) {
                    if let DeviceKind::Vsource { waveform, .. } = &mut dev.kind {
                        *waveform = Waveform::dc(v);
                    }
                }
            }
        }
    }

    fn classify_voltage(&self, nominal: &[f64], faulty: &[f64]) -> VoltageSignature {
        let sgn = |v: f64| -> Option<bool> {
            if v > LOGIC {
                Some(true)
            } else if v < -LOGIC {
                Some(false)
            } else {
                None
            }
        };
        let d: Vec<Option<bool>> = faulty[0..8].iter().map(|&v| sgn(v)).collect();
        if d.iter().any(Option::is_none) {
            return VoltageSignature::Mixed;
        }
        let p: Vec<bool> = d.into_iter().map(Option::unwrap).collect();
        if p.iter().all(|&b| b) || p.iter().all(|&b| !b) {
            return VoltageSignature::OutputStuckAt;
        }
        let mid_ok = p[0..4] == [false, false, true, true];
        let ext_ok = p[4..8] == [false, true, false, true];
        if mid_ok && ext_ok {
            // Functionally correct: check the clock-distribution levels.
            let plan = self.plan();
            for i in plan.level_indices() {
                if (faulty[i] - nominal[i]).abs() > CLOCK_DEV {
                    return VoltageSignature::ClockValue;
                }
            }
            return VoltageSignature::NoDeviation;
        }
        let mid_offset =
            p[0..4] == [false, false, false, true] || p[0..4] == [false, true, true, true];
        if mid_offset || (mid_ok && !ext_ok) {
            // A shifted trip point, or a conversion that fails near the
            // range edges: either way the ramp test loses codes.
            return VoltageSignature::Offset;
        }
        VoltageSignature::Mixed
    }

    fn shared_nets(&self) -> Vec<&'static str> {
        vec![
            "vdd", "vdd_dig", "ck1", "ck2", "ck3", "vbn", "vbnc", "vbp", "vaz", "vin", "vref",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::MacroHarness;

    /// Builds a synthetic measurement vector: 8 decisions followed by
    /// zeros for the currents and nominal clock levels.
    fn vector(harness: &ComparatorHarness, decisions: [f64; 8], clock_shift: f64) -> Vec<f64> {
        let plan = harness.plan();
        let mut v = vec![0.0; plan.len()];
        v[..8].copy_from_slice(&decisions);
        for i in plan.level_indices() {
            v[i] = clock_shift;
        }
        v
    }

    fn nominal(harness: &ComparatorHarness) -> Vec<f64> {
        // Healthy pattern: [-,-,+,+] at mid, [-,+,-,+] at the extremes.
        vector(harness, [-5.0, -5.0, 5.0, 5.0, -5.0, 5.0, -5.0, 5.0], 0.0)
    }

    #[test]
    fn healthy_pattern_is_no_deviation() {
        let h = ComparatorHarness::production();
        let n = nominal(&h);
        assert_eq!(h.classify_voltage(&n, &n), VoltageSignature::NoDeviation);
    }

    #[test]
    fn constant_outputs_are_stuck() {
        let h = ComparatorHarness::production();
        let n = nominal(&h);
        let hi = vector(&h, [5.0; 8], 0.0);
        let lo = vector(&h, [-5.0; 8], 0.0);
        assert_eq!(h.classify_voltage(&n, &hi), VoltageSignature::OutputStuckAt);
        assert_eq!(h.classify_voltage(&n, &lo), VoltageSignature::OutputStuckAt);
    }

    #[test]
    fn shifted_trip_point_is_offset() {
        let h = ComparatorHarness::production();
        let n = nominal(&h);
        // Trip moved past +8 mV: the +8 mV decision flips low.
        let f = vector(&h, [-5.0, -5.0, -5.0, 5.0, -5.0, 5.0, -5.0, 5.0], 0.0);
        assert_eq!(h.classify_voltage(&n, &f), VoltageSignature::Offset);
        // Trip moved past −8 mV the other way.
        let f = vector(&h, [-5.0, 5.0, 5.0, 5.0, -5.0, 5.0, -5.0, 5.0], 0.0);
        assert_eq!(h.classify_voltage(&n, &f), VoltageSignature::Offset);
    }

    #[test]
    fn range_edge_failure_is_offset() {
        let h = ComparatorHarness::production();
        let n = nominal(&h);
        // Mid-range fine, but the high-reference pair fails one-sided.
        let f = vector(&h, [-5.0, -5.0, 5.0, 5.0, -5.0, 5.0, -5.0, -5.0], 0.0);
        assert_eq!(h.classify_voltage(&n, &f), VoltageSignature::Offset);
    }

    #[test]
    fn weak_levels_are_mixed() {
        let h = ComparatorHarness::production();
        let n = nominal(&h);
        let f = vector(&h, [-5.0, 0.5, 5.0, 5.0, -5.0, 5.0, -5.0, 5.0], 0.0);
        assert_eq!(h.classify_voltage(&n, &f), VoltageSignature::Mixed);
    }

    #[test]
    fn non_monotone_pattern_is_mixed() {
        let h = ComparatorHarness::production();
        let n = nominal(&h);
        let f = vector(&h, [5.0, -5.0, 5.0, -5.0, -5.0, 5.0, -5.0, 5.0], 0.0);
        assert_eq!(h.classify_voltage(&n, &f), VoltageSignature::Mixed);
    }

    #[test]
    fn correct_decisions_with_shifted_clock_line_is_clock_value() {
        let h = ComparatorHarness::production();
        let n = nominal(&h);
        let f = vector(&h, [-5.0, -5.0, 5.0, 5.0, -5.0, 5.0, -5.0, 5.0], 0.5);
        assert_eq!(h.classify_voltage(&n, &f), VoltageSignature::ClockValue);
        // A shift below the threshold stays invisible.
        let f = vector(&h, [-5.0, -5.0, 5.0, 5.0, -5.0, 5.0, -5.0, 5.0], 0.1);
        assert_eq!(h.classify_voltage(&n, &f), VoltageSignature::NoDeviation);
    }

    #[test]
    fn names_and_counts() {
        let prod = ComparatorHarness::production();
        let dft = ComparatorHarness::dft();
        assert_eq!(prod.name(), "comparator");
        assert_eq!(dft.name(), "comparator_dft");
        assert_eq!(prod.instance_count(), 256);
        // The production testbench carries the equaliser; the DfT one not.
        assert!(prod.testbench().device("MEQ").is_some());
        assert!(dft.testbench().device("MEQ").is_none());
    }
}
