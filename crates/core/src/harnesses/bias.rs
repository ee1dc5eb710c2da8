//! Harness for the bias generator.

use crate::harness::{with_instrumented_sim, MacroHarness, Probe};
use crate::measure::{MeasureKind, MeasureLabel, MeasurementPlan};
use crate::memo::MemoryStore;
use crate::signature::{CurrentKind, VoltageSignature};
use dotm_adc::comparator::{
    comparator_testbench, decision_sim_time, decision_time, read_decision, ComparatorConfig,
    ComparatorStimulus,
};
use dotm_adc::process::BiasValues;
use dotm_layout::Layout;
use dotm_netlist::Netlist;
use dotm_sim::{SimError, SimOptions, SimStats};

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

impl BiasHarness {
    /// The comparator's decision at each of [`DECISION_DVS`] on the
    /// propagation testbench `nl`: one transient per input step.
    fn propagate(&self, nl: &Netlist, stats: &mut SimStats) -> Result<Vec<f64>, SimError> {
        let _span = dotm_obs::span("bias propagation", "propagation");
        DECISION_DVS
            .iter()
            .map(|dv| {
                let tr = with_instrumented_sim(nl, &SimOptions::default(), stats, |sim| {
                    sim.override_source("VIN", VREF_MID + dv)?;
                    sim.transient(decision_sim_time(), self.dt)
                })?;
                Ok(read_decision(nl, &tr))
            })
            .collect()
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

    fn measure_with(
        &self,
        nl: &Netlist,
        opts: &SimOptions,
        stats: &mut SimStats,
    ) -> Result<Vec<f64>, SimError> {
        let op = with_instrumented_sim(nl, opts, stats, |sim| sim.dc_op())?;
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
        let memo = MemoryStore::new();
        let mut stats = SimStats::default();
        self.classify_voltage_with(nominal, faulty, &mut Probe::new(&memo, 0, &mut stats))
    }

    fn classify_voltage_with(
        &self,
        nominal: &[f64],
        faulty: &[f64],
        probe: &mut Probe<'_>,
    ) -> VoltageSignature {
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
        let mut salt = vec![
            self.dt.to_bits(),
            decision_sim_time().to_bits(),
            decision_time().to_bits(),
        ];
        salt.extend(DECISION_DVS.iter().map(|dv| dv.to_bits()));
        let Ok(decisions) = probe.simulate(&nl, &salt, |stats| self.propagate(&nl, stats)) else {
            return VoltageSignature::Mixed;
        };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::CachedMeasurement;
    use crate::pipeline::MeasurementStore;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A memo that counts the entries it was asked to store.
    #[derive(Default)]
    struct Counting {
        memo: MemoryStore,
        stores: AtomicUsize,
    }

    impl MeasurementStore for Counting {
        fn load(&self, key: u128) -> Option<CachedMeasurement> {
            self.memo.load(key)
        }

        fn store(&self, key: u128, value: &CachedMeasurement) {
            self.stores.fetch_add(1, Ordering::Relaxed);
            self.memo.store(key, value);
        }
    }

    /// The nominal bias vector and one whose `vbn` is off by 100 mV —
    /// far enough to need propagation.
    fn vectors() -> (Vec<f64>, Vec<f64>) {
        let h = BiasHarness::default();
        let nominal = h.measure(&h.testbench()).expect("nominal bias");
        let mut faulty = nominal.clone();
        faulty[0] += 0.1;
        (nominal, faulty)
    }

    #[test]
    fn propagation_is_memoized_per_time_step_and_counted() {
        let (nominal, faulty) = vectors();
        let store = Counting::default();
        let fine = BiasHarness::default();
        let coarse = BiasHarness { dt: 2.0 * fine.dt };

        let mut first = SimStats::default();
        let sig =
            fine.classify_voltage_with(&nominal, &faulty, &mut Probe::new(&store, 0, &mut first));
        assert_eq!(store.stores.load(Ordering::Relaxed), 1);
        assert!(first.nr_solves > 0, "the propagation solves are counted");
        assert_eq!(sig, fine.classify_voltage(&nominal, &faulty));

        // Another time step is another propagation: it must not replay
        // the first harness's entry.
        let mut other = SimStats::default();
        coarse.classify_voltage_with(&nominal, &faulty, &mut Probe::new(&store, 0, &mut other));
        assert_eq!(store.stores.load(Ordering::Relaxed), 2, "dt is in the key");

        // The same harness again replays, with the same accounting.
        let mut replayed = SimStats::default();
        let again = fine.classify_voltage_with(
            &nominal,
            &faulty,
            &mut Probe::new(&store, 0, &mut replayed),
        );
        assert_eq!(
            store.stores.load(Ordering::Relaxed),
            2,
            "replayed, not rerun"
        );
        assert_eq!(replayed, first);
        assert_eq!(again, sig);
    }

    #[test]
    fn small_deviations_simulate_nothing() {
        let (nominal, _) = vectors();
        let store = Counting::default();
        let mut stats = SimStats::default();
        let h = BiasHarness::default();
        let sig =
            h.classify_voltage_with(&nominal, &nominal, &mut Probe::new(&store, 0, &mut stats));
        assert_eq!(sig, VoltageSignature::NoDeviation);
        assert_eq!(store.stores.load(Ordering::Relaxed), 0);
        assert!(stats.is_empty());
    }
}
