//! Global compilation: scaling the per-macro fault-signature statistics
//! to whole-circuit detectability (the paper's Fig. 4 and Fig. 5).
//!
//! "The fault signature probabilities for macro cells have to be scaled
//! into global fault signature probabilities. This scaling is done on the
//! basis that in a real fabrication process, the defect density will be
//! approximately equal for all macro cells."

use crate::pipeline::{ClassOutcome, MacroReport};
use dotm_faults::Severity;

/// The Fig. 4/Fig. 5 global numbers for one severity.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDetectability {
    /// Detected by the voltage (missing-code) test.
    pub voltage_pct: f64,
    /// Detected by some current measurement.
    pub current_pct: f64,
    /// Voltage-only detections.
    pub voltage_only_pct: f64,
    /// Current-only detections.
    pub current_only_pct: f64,
    /// Detected by both.
    pub both_pct: f64,
    /// Detected only by IDDQ (the paper's 11 % observation).
    pub iddq_only_pct: f64,
    /// Total fault coverage.
    pub coverage_pct: f64,
}

/// Whole-circuit compilation over the per-macro reports.
#[derive(Debug, Clone)]
pub struct GlobalReport {
    reports: Vec<MacroReport>,
}

impl GlobalReport {
    /// Builds a global report from the macro reports.
    pub fn new(reports: Vec<MacroReport>) -> Self {
        GlobalReport { reports }
    }

    /// The per-macro reports.
    pub fn macros(&self) -> &[MacroReport] {
        &self.reports
    }

    /// Weighted fraction (percent) of all chip faults of `severity`
    /// satisfying the predicate. Each macro's faults are weighted by
    /// instances × area × fault rate (uniform defect density), then by
    /// the class multiplicities within the macro.
    pub fn pct_where(
        &self,
        severity: Severity,
        pred: impl Fn(&ClassOutcome) -> bool + Copy,
    ) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for report in &self.reports {
            let w_macro = report.global_weight();
            let total = report.weight_of(severity);
            if total == 0.0 || w_macro == 0.0 {
                continue;
            }
            let hit: f64 = report
                .outcomes_of(severity)
                .filter(|o| pred(o))
                .map(|o| o.count as f64)
                .sum();
            num += w_macro * hit / total;
            den += w_macro;
        }
        if den == 0.0 {
            0.0
        } else {
            100.0 * num / den
        }
    }

    /// Computes the Fig. 4/5 panel for one severity.
    pub fn detectability(&self, severity: Severity) -> GlobalDetectability {
        GlobalDetectability {
            voltage_pct: self.pct_where(severity, |o| o.detection.missing_code),
            current_pct: self.pct_where(severity, |o| o.detection.currents.any()),
            voltage_only_pct: self.pct_where(severity, |o| o.detection.voltage_only()),
            current_only_pct: self.pct_where(severity, |o| o.detection.current_only()),
            both_pct: self.pct_where(severity, |o| {
                o.detection.missing_code && o.detection.currents.any()
            }),
            iddq_only_pct: self.pct_where(severity, |o| o.detection.iddq_only()),
            coverage_pct: self.pct_where(severity, |o| o.detection.detected()),
        }
    }

    /// Classes across all macros whose result rests on a failed
    /// simulation.
    pub fn sim_failed_classes(&self) -> usize {
        self.reports
            .iter()
            .map(MacroReport::sim_failed_classes)
            .sum()
    }

    /// Classes across all macros with real injection errors.
    pub fn inject_failed_classes(&self) -> usize {
        self.reports
            .iter()
            .map(MacroReport::inject_failed_classes)
            .sum()
    }

    /// Classes across all macros that needed escalation above rung 0.
    pub fn escalated_classes(&self) -> usize {
        self.reports
            .iter()
            .map(MacroReport::escalated_classes)
            .sum()
    }

    /// Classes across all macros excluded by
    /// [`SimFailurePolicy::Exclude`](crate::SimFailurePolicy::Exclude).
    pub fn excluded_classes(&self) -> usize {
        self.reports.iter().map(MacroReport::excluded_classes).sum()
    }

    /// Rung histogram summed over all macros.
    pub fn rung_histogram(&self) -> [u64; crate::pipeline::ESCALATION_RUNGS] {
        let mut hist = [0u64; crate::pipeline::ESCALATION_RUNGS];
        for report in &self.reports {
            for (slot, count) in hist.iter_mut().zip(report.rung_histogram()) {
                *slot += count;
            }
        }
        hist
    }

    /// Solver telemetry summed over all macros (fault simulation plus
    /// good-space compilation).
    pub fn solver_totals(&self) -> dotm_sim::SimStats {
        let mut total = dotm_sim::SimStats::default();
        for report in &self.reports {
            total.merge(&report.solver_totals());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{CurrentFlags, DetectionSet, VoltageSignature};
    use dotm_defects::FaultMechanism;

    fn simple_report(name: &str, instances: usize, faults: usize, detected: bool) -> MacroReport {
        let currents = CurrentFlags {
            ivdd: detected,
            ..Default::default()
        };
        MacroReport {
            name: name.into(),
            instances,
            sprinkle_area_nm2: 1e6,
            defects: 1000,
            total_faults: faults,
            class_count: 1,
            outcomes: vec![ClassOutcome {
                key: "k".into(),
                mechanism: FaultMechanism::Short,
                count: faults,
                severity: Severity::Catastrophic,
                shared: false,
                voltage: VoltageSignature::NoDeviation,
                currents,
                detection: DetectionSet {
                    missing_code: false,
                    currents,
                },
                flagged: Vec::new(),
                sim_failed: false,
                inject_failed: false,
                rung: Some(0),
                inject_errors: 0,
                excluded: false,
                solver: dotm_sim::SimStats::default(),
            }],
            goodspace_solver: dotm_sim::SimStats::default(),
            goodspace_corner_retries: 0,
        }
    }

    #[test]
    fn weighting_follows_instances_and_fault_rate() {
        // Macro A: 3 instances, all faults detected.
        // Macro B: 1 instance, same area and fault rate, none detected.
        let g = GlobalReport::new(vec![
            simple_report("a", 3, 100, true),
            simple_report("b", 1, 100, false),
        ]);
        let d = g.detectability(Severity::Catastrophic);
        assert!((d.coverage_pct - 75.0).abs() < 1e-9, "{d:?}");
        assert!((d.current_pct - 75.0).abs() < 1e-9);
        assert!((d.voltage_pct - 0.0).abs() < 1e-9);
    }

    #[test]
    fn fault_rate_scales_weight() {
        // Same instances, but macro B produces 3× the faults per defect:
        // its (undetected) faults dominate.
        let g = GlobalReport::new(vec![
            simple_report("a", 1, 100, true),
            simple_report("b", 1, 300, false),
        ]);
        let d = g.detectability(Severity::Catastrophic);
        assert!((d.coverage_pct - 25.0).abs() < 1e-9, "{d:?}");
    }

    #[test]
    fn empty_report_is_zero() {
        let g = GlobalReport::new(vec![]);
        let d = g.detectability(Severity::Catastrophic);
        assert_eq!(d.coverage_pct, 0.0);
    }
}
