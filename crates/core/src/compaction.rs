//! Test-set compaction.
//!
//! "The overlap between different detection mechanisms gives room for the
//! optimization of the test method and fault detection" (paper §3.2).
//! This module does that optimisation: given the evaluated fault classes
//! and the per-measurement flags each one raises, a greedy weighted
//! set-cover selects the smallest sequence of current measurements that
//! preserves the current-test coverage — fewer settle-and-measure cycles
//! on the tester, same defect coverage.

use crate::harness::MacroHarness;
use crate::pipeline::MacroReport;
use dotm_faults::Severity;
use std::collections::HashSet;

/// One step of the greedy selection.
#[derive(Debug, Clone)]
pub struct CompactionStep {
    /// Measurement index in the harness's plan.
    pub measurement: usize,
    /// Label of the measurement.
    pub label: String,
    /// Cumulative share of current-detectable fault weight covered after
    /// adding this measurement (0..=1).
    pub cumulative_coverage: f64,
}

/// Result of compacting a macro's current-test set.
#[derive(Debug, Clone)]
pub struct CompactionResult {
    /// Selected measurements, in greedy order.
    pub steps: Vec<CompactionStep>,
    /// Number of current measurements available in the full plan.
    pub available: usize,
    /// Total weight of current-detectable faults.
    pub detectable_weight: f64,
}

impl CompactionResult {
    /// Measurements needed to retain the full current-test coverage.
    pub fn selected_count(&self) -> usize {
        self.steps.len()
    }

    /// Measurements needed to reach `fraction` (0..=1) of the full
    /// current-test coverage.
    pub fn count_for_coverage(&self, fraction: f64) -> Option<usize> {
        self.steps
            .iter()
            .position(|s| s.cumulative_coverage >= fraction)
            .map(|i| i + 1)
    }
}

/// Greedily selects current measurements until every current-detectable
/// fault class (of the given severity) is covered.
pub fn compact_current_tests(
    harness: &dyn MacroHarness,
    report: &MacroReport,
    severity: Severity,
) -> CompactionResult {
    let plan = harness.plan();
    // The universe: (weight, flag set) per current-detectable class.
    let classes: Vec<(f64, &[usize])> = report
        .outcomes_of(severity)
        .filter(|o| !o.flagged.is_empty())
        .map(|o| (o.count as f64, o.flagged.as_slice()))
        .collect();
    let detectable_weight: f64 = classes.iter().map(|(w, _)| w).sum();
    let available: HashSet<usize> = classes
        .iter()
        .flat_map(|(_, f)| f.iter().copied())
        .collect();

    let mut uncovered: Vec<bool> = vec![true; classes.len()];
    let mut chosen: HashSet<usize> = HashSet::new();
    let mut steps = Vec::new();
    let mut covered_weight = 0.0;
    loop {
        // Pick the measurement covering the most uncovered weight.
        let mut best: Option<(usize, f64)> = None;
        for &m in &available {
            if chosen.contains(&m) {
                continue;
            }
            let gain: f64 = classes
                .iter()
                .zip(&uncovered)
                .filter(|((_, flags), &u)| u && flags.contains(&m))
                .map(|((w, _), _)| w)
                .sum();
            let better = match best {
                None => gain > 0.0,
                Some((bm, bg)) => gain > bg || (gain == bg && m < bm),
            };
            if better {
                best = Some((m, gain));
            }
        }
        let Some((m, gain)) = best else { break };
        if gain <= 0.0 {
            break;
        }
        chosen.insert(m);
        covered_weight += gain;
        for (i, (_, flags)) in classes.iter().enumerate() {
            if flags.contains(&m) {
                uncovered[i] = false;
            }
        }
        steps.push(CompactionStep {
            measurement: m,
            label: plan
                .labels
                .get(m)
                .map(|l| l.name.clone())
                .unwrap_or_else(|| format!("m{m}")),
            cumulative_coverage: if detectable_weight > 0.0 {
                covered_weight / detectable_weight
            } else {
                0.0
            },
        });
        if uncovered.iter().all(|&u| !u) {
            break;
        }
    }
    CompactionResult {
        steps,
        available: plan
            .labels
            .iter()
            .filter(|l| matches!(l.kind, crate::measure::MeasureKind::Current(_)))
            .count(),
        detectable_weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{MeasureKind, MeasureLabel, MeasurementPlan};
    use crate::pipeline::ClassOutcome;
    use crate::processvar::{CommonSample, ProcessModel};
    use crate::signature::{CurrentFlags, CurrentKind, DetectionSet, VoltageSignature};
    use dotm_defects::FaultMechanism;
    use dotm_layout::Layout;
    use dotm_netlist::Netlist;
    use dotm_rng::rngs::StdRng;

    /// A harness stub: only `plan` matters for compaction.
    #[derive(Debug)]
    struct StubHarness;

    impl MacroHarness for StubHarness {
        fn name(&self) -> &str {
            "stub"
        }
        fn layout(&self) -> Layout {
            Layout::new("stub")
        }
        fn instance_count(&self) -> usize {
            1
        }
        fn testbench(&self) -> Netlist {
            Netlist::new("stub")
        }
        fn plan(&self) -> MeasurementPlan {
            MeasurementPlan {
                labels: (0..5)
                    .map(|i| {
                        MeasureLabel::new(MeasureKind::Current(CurrentKind::IVdd), format!("i{i}"))
                    })
                    .collect(),
            }
        }
        fn measure_with(
            &self,
            _nl: &Netlist,
            _sim: &mut dotm_sim::Simulator<'_>,
        ) -> Result<Vec<f64>, dotm_sim::SimError> {
            Ok(vec![0.0; 5])
        }
        fn perturb(
            &self,
            _nl: &mut Netlist,
            _model: &ProcessModel,
            _common: &CommonSample,
            _rng: &mut StdRng,
            _stats: &mut dotm_sim::SimStats,
        ) {
        }
        fn classify_voltage(&self, _n: &[f64], _f: &[f64]) -> VoltageSignature {
            VoltageSignature::NoDeviation
        }
        fn shared_nets(&self) -> Vec<&'static str> {
            Vec::new()
        }
    }

    fn outcome(key: &str, count: usize, flagged: Vec<usize>) -> ClassOutcome {
        let currents = CurrentFlags {
            ivdd: !flagged.is_empty(),
            ..Default::default()
        };
        ClassOutcome {
            key: key.into(),
            mechanism: FaultMechanism::Short,
            count,
            severity: Severity::Catastrophic,
            shared: false,
            voltage: VoltageSignature::NoDeviation,
            detection: DetectionSet {
                missing_code: false,
                currents,
            },
            flagged,
            sim_failed: false,
            inject_failed: false,
            rung: Some(0),
            inject_errors: 0,
            excluded: false,
            solver: dotm_sim::SimStats::default(),
        }
    }

    fn report(outcomes: Vec<ClassOutcome>) -> MacroReport {
        MacroReport {
            name: "stub".into(),
            instances: 1,
            sprinkle_area_nm2: 1.0,
            defects: 100,
            total_faults: 100,
            class_count: outcomes.len(),
            outcomes,
            goodspace_solver: dotm_sim::SimStats::default(),
            goodspace_corner_retries: 0,
        }
    }

    #[test]
    fn greedy_prefers_the_broadest_measurement() {
        // Measurement 2 covers both classes; 0 and 1 cover one each.
        let r = report(vec![
            outcome("a", 10, vec![0, 2]),
            outcome("b", 5, vec![1, 2]),
        ]);
        let c = compact_current_tests(&StubHarness, &r, Severity::Catastrophic);
        assert_eq!(c.selected_count(), 1);
        assert_eq!(c.steps[0].measurement, 2);
        assert!((c.steps[0].cumulative_coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_flags_need_multiple_measurements() {
        let r = report(vec![
            outcome("a", 10, vec![0]),
            outcome("b", 5, vec![1]),
            outcome("c", 1, vec![4]),
        ]);
        let c = compact_current_tests(&StubHarness, &r, Severity::Catastrophic);
        assert_eq!(c.selected_count(), 3);
        // Greedy order follows weight.
        assert_eq!(c.steps[0].measurement, 0);
        assert_eq!(c.steps[1].measurement, 1);
        assert_eq!(c.steps[2].measurement, 4);
        assert_eq!(c.count_for_coverage(0.9), Some(2));
        assert_eq!(c.count_for_coverage(1.0), Some(3));
    }

    #[test]
    fn undetectable_classes_are_ignored() {
        let r = report(vec![
            outcome("a", 10, vec![3]),
            outcome("undetected", 90, vec![]),
        ]);
        let c = compact_current_tests(&StubHarness, &r, Severity::Catastrophic);
        assert_eq!(c.selected_count(), 1);
        assert!((c.detectable_weight - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_compacts_to_nothing() {
        let c = compact_current_tests(&StubHarness, &report(vec![]), Severity::Catastrophic);
        assert_eq!(c.selected_count(), 0);
        assert_eq!(c.detectable_weight, 0.0);
        assert_eq!(c.count_for_coverage(0.5), None);
    }
}
