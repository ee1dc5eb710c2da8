//! Harness for the bias generator.

use crate::harness::{with_instrumented_sim_warm, Batch, MacroHarness, Warm, WarmCursor};
use crate::measure::{MeasureKind, MeasureLabel, MeasurementPlan};
use crate::signature::{CurrentKind, VoltageSignature};
use dotm_adc::comparator::{
    comparator_testbench, decision_sim_time, read_decision, ComparatorConfig, ComparatorStimulus,
};
use dotm_adc::process::BiasValues;
use dotm_layout::Layout;
use dotm_netlist::Netlist;
use dotm_sim::{SimError, SimOptions, SimStats, Simulator};

use super::comparator::{DECISION_DVS, VREF_MID};

/// Bias deviation below which the comparator is assumed unaffected (V).
const BIAS_TOL: f64 = 0.020;

/// Harness for the bias-generator macro. Its voltage signature is decided
/// by *propagation*: the faulty bias vector drives a nominal comparator,
/// whose decisions are then classified — the bias lines feed all 256
/// comparators, so a disturbed bias disturbs the whole converter.
#[derive(Debug, Clone)]
pub struct BiasHarness {
    /// Timestep for the propagation transients (s).
    pub dt: f64,
}

impl Default for BiasHarness {
    fn default() -> Self {
        BiasHarness { dt: 0.25e-9 }
    }
}

impl MacroHarness for BiasHarness {
    fn name(&self) -> &str {
        "bias_gen"
    }

    fn layout(&self) -> Layout {
        dotm_adc::layouts::bias_layout()
    }

    fn instance_count(&self) -> usize {
        1
    }

    fn testbench(&self) -> Netlist {
        dotm_adc::bias::bias_testbench()
    }

    fn plan(&self) -> MeasurementPlan {
        let mut labels: Vec<MeasureLabel> = ["vbn", "vbnc", "vbp", "vaz"]
            .iter()
            .map(|n| MeasureLabel::new(MeasureKind::Decision, *n))
            .collect();
        labels.push(MeasureLabel::new(
            MeasureKind::Current(CurrentKind::IVdd),
            "ivdd",
        ));
        MeasurementPlan { labels }
    }

    // The first (and only) analysis is a plain base-gmin DC operating
    // point, so a lockstep-primed first iteration is always adoptable.
    fn lockstep_dc(&self) -> bool {
        true
    }

    fn measure_with(
        &self,
        nl: &Netlist,
        opts: &SimOptions,
        stats: &mut SimStats,
        warm: Warm<'_>,
        batch: Batch<'_>,
    ) -> Result<Vec<f64>, SimError> {
        let mut cursor = WarmCursor::new();
        let op = with_instrumented_sim_warm(nl, opts, stats, warm, batch, &mut cursor, |sim| {
            sim.dc_op()
        })?;
        let mut out = Vec::with_capacity(5);
        for net in ["vbn", "vbnc", "vbp", "vaz"] {
            out.push(match nl.find_node(net) {
                Some(n) => op.voltage(n),
                None => 0.0,
            });
        }
        out.push(
            nl.device_id("VDD")
                .and_then(|id| op.branch_current(id))
                .unwrap_or(0.0),
        );
        Ok(out)
    }

    fn classify_voltage(&self, nominal: &[f64], faulty: &[f64]) -> VoltageSignature {
        let max_dev = nominal[0..4]
            .iter()
            .zip(&faulty[0..4])
            .map(|(n, f)| (n - f).abs())
            .fold(0.0f64, f64::max);
        if max_dev < BIAS_TOL {
            return VoltageSignature::NoDeviation;
        }
        // Propagate: drive a nominal comparator with the faulty biases.
        let bias = BiasValues {
            vbn: faulty[0],
            vbnc: faulty[1],
            vbp: faulty[2],
            vaz: faulty[3],
        };
        let mut stim = ComparatorStimulus::dc_offset(VREF_MID, 0.0);
        stim.bias = bias;
        let nl = comparator_testbench(ComparatorConfig::default(), &stim);
        // These transients run outside the measurement plumbing, so their
        // Newton solves reach no `SimStats`; the span and counter show
        // them in the phase profile instead.
        let _span = dotm_obs::span("bias propagation", "propagation");
        let mut decisions = Vec::new();
        for dv in DECISION_DVS {
            let mut sim = Simulator::new(&nl);
            if sim.override_source("VIN", VREF_MID + dv).is_err() {
                return VoltageSignature::Mixed;
            }
            let run = sim.transient(decision_sim_time(), self.dt);
            dotm_obs::counter("bias.propagation_solves", sim.stats().nr_solves);
            match run {
                Ok(tr) => decisions.push(read_decision(&nl, &tr)),
                Err(_) => return VoltageSignature::Mixed,
            }
        }
        let sgn = |v: f64| -> Option<bool> {
            if v > 2.0 {
                Some(true)
            } else if v < -2.0 {
                Some(false)
            } else {
                None
            }
        };
        let d: Vec<Option<bool>> = decisions.iter().map(|&v| sgn(v)).collect();
        if d.iter().any(Option::is_none) {
            return VoltageSignature::Mixed;
        }
        let p: Vec<bool> = d.into_iter().map(Option::unwrap).collect();
        if p.iter().all(|&b| b) || p.iter().all(|&b| !b) {
            VoltageSignature::OutputStuckAt
        } else if p == [false, false, true, true] {
            VoltageSignature::NoDeviation
        } else {
            VoltageSignature::Offset
        }
    }

    fn shared_nets(&self) -> Vec<&'static str> {
        Vec::new()
    }
}
