//! Aggregations over macro reports: the rows of Tables 2–3 and the
//! overlap regions of Fig. 3.

use crate::pipeline::MacroReport;
use crate::signature::{CurrentKind, VoltageSignature};
use dotm_faults::Severity;

/// One row of a voltage-signature table (paper Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageRow {
    /// Signature category.
    pub signature: VoltageSignature,
    /// Percent of catastrophic faults.
    pub catastrophic_pct: f64,
    /// Percent of non-catastrophic faults.
    pub non_catastrophic_pct: f64,
}

/// One row of a current-signature table (paper Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentRow {
    /// The measurement; `None` is the "no deviations" row.
    pub kind: Option<CurrentKind>,
    /// Percent of catastrophic faults.
    pub catastrophic_pct: f64,
    /// Percent of non-catastrophic faults.
    pub non_catastrophic_pct: f64,
}

/// The headline overlap numbers of Fig. 3.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectabilityBreakdown {
    /// Detected by the missing-code test (any overlap).
    pub missing_code_pct: f64,
    /// Detected by some current measurement (any overlap).
    pub current_pct: f64,
    /// Detected only by current measurements.
    pub current_only_pct: f64,
    /// Detected only by the missing-code test.
    pub voltage_only_pct: f64,
    /// Detected only by IDDQ.
    pub iddq_only_pct: f64,
    /// Detected by both the missing-code test and IVdd.
    pub missing_code_and_ivdd_pct: f64,
    /// Total coverage.
    pub coverage_pct: f64,
}

/// Builds the Table 2 rows for a macro report.
pub fn voltage_table(report: &MacroReport) -> Vec<VoltageRow> {
    VoltageSignature::ALL
        .iter()
        .map(|&sig| VoltageRow {
            signature: sig,
            catastrophic_pct: report.pct_where(Severity::Catastrophic, |o| o.voltage == sig),
            non_catastrophic_pct: report.pct_where(Severity::NonCatastrophic, |o| o.voltage == sig),
        })
        .collect()
}

/// Builds the Table 3 rows for a macro report. The current rows overlap
/// (sum over rows exceeds 100 %), exactly as in the paper.
pub fn current_table(report: &MacroReport) -> Vec<CurrentRow> {
    let mut rows: Vec<CurrentRow> = CurrentKind::ALL
        .iter()
        .map(|&kind| CurrentRow {
            kind: Some(kind),
            catastrophic_pct: report
                .pct_where(Severity::Catastrophic, |o| o.detection.currents.get(kind)),
            non_catastrophic_pct: report.pct_where(Severity::NonCatastrophic, |o| {
                o.detection.currents.get(kind)
            }),
        })
        .collect();
    rows.push(CurrentRow {
        kind: None,
        catastrophic_pct: report.pct_where(Severity::Catastrophic, |o| !o.detection.currents.any()),
        non_catastrophic_pct: report
            .pct_where(Severity::NonCatastrophic, |o| !o.detection.currents.any()),
    });
    rows
}

/// Computes the Fig. 3 overlap breakdown for one severity.
pub fn detectability(report: &MacroReport, severity: Severity) -> DetectabilityBreakdown {
    DetectabilityBreakdown {
        missing_code_pct: report.pct_where(severity, |o| o.detection.missing_code),
        current_pct: report.pct_where(severity, |o| o.detection.currents.any()),
        current_only_pct: report.pct_where(severity, |o| o.detection.current_only()),
        voltage_only_pct: report.pct_where(severity, |o| o.detection.voltage_only()),
        iddq_only_pct: report.pct_where(severity, |o| o.detection.iddq_only()),
        missing_code_and_ivdd_pct: report.pct_where(severity, |o| {
            o.detection.missing_code && o.detection.currents.ivdd
        }),
        coverage_pct: report.coverage(severity),
    }
}

/// Percentage of faults whose effect stays inside the macro (does not
/// touch a shared net) — the paper's 27.8 % observation.
pub fn internal_fault_pct(report: &MacroReport, severity: Severity) -> f64 {
    report.pct_where(severity, |o| !o.shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ClassOutcome;
    use crate::signature::{CurrentFlags, DetectionSet};
    use dotm_defects::FaultMechanism;

    fn outcome(
        count: usize,
        severity: Severity,
        voltage: VoltageSignature,
        ivdd: bool,
        iddq: bool,
    ) -> ClassOutcome {
        let currents = CurrentFlags {
            ivdd,
            iddq,
            iinput: false,
        };
        ClassOutcome {
            key: format!("k{count}{severity:?}{voltage:?}{ivdd}{iddq}"),
            mechanism: FaultMechanism::Short,
            count,
            severity,
            shared: false,
            voltage,
            detection: DetectionSet {
                missing_code: voltage.causes_missing_code(),
                currents,
            },
            flagged: Vec::new(),
            sim_failed: false,
            inject_failed: false,
            rung: Some(0),
            inject_errors: 0,
            excluded: false,
            solver: dotm_sim::SimStats::default(),
        }
    }

    fn report() -> MacroReport {
        MacroReport {
            name: "test".into(),
            instances: 1,
            sprinkle_area_nm2: 1.0,
            defects: 100,
            total_faults: 10,
            class_count: 4,
            outcomes: vec![
                outcome(
                    60,
                    Severity::Catastrophic,
                    VoltageSignature::OutputStuckAt,
                    true,
                    false,
                ),
                outcome(
                    20,
                    Severity::Catastrophic,
                    VoltageSignature::NoDeviation,
                    false,
                    true,
                ),
                outcome(
                    20,
                    Severity::Catastrophic,
                    VoltageSignature::NoDeviation,
                    false,
                    false,
                ),
                outcome(
                    10,
                    Severity::NonCatastrophic,
                    VoltageSignature::Offset,
                    false,
                    false,
                ),
            ],
            goodspace_solver: dotm_sim::SimStats::default(),
            goodspace_corner_retries: 0,
        }
    }

    #[test]
    fn voltage_table_percentages() {
        let rows = voltage_table(&report());
        let stuck = rows
            .iter()
            .find(|r| r.signature == VoltageSignature::OutputStuckAt)
            .unwrap();
        assert!((stuck.catastrophic_pct - 60.0).abs() < 1e-9);
        let nodev = rows
            .iter()
            .find(|r| r.signature == VoltageSignature::NoDeviation)
            .unwrap();
        assert!((nodev.catastrophic_pct - 40.0).abs() < 1e-9);
        let offset = rows
            .iter()
            .find(|r| r.signature == VoltageSignature::Offset)
            .unwrap();
        assert!((offset.non_catastrophic_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn current_table_rows_overlap_correctly() {
        let rows = current_table(&report());
        let ivdd = rows
            .iter()
            .find(|r| r.kind == Some(CurrentKind::IVdd))
            .unwrap();
        assert!((ivdd.catastrophic_pct - 60.0).abs() < 1e-9);
        let none = rows.iter().find(|r| r.kind.is_none()).unwrap();
        assert!((none.catastrophic_pct - 20.0).abs() < 1e-9);
    }

    #[test]
    fn detectability_breakdown() {
        let d = detectability(&report(), Severity::Catastrophic);
        assert!((d.missing_code_pct - 60.0).abs() < 1e-9);
        assert!((d.current_pct - 80.0).abs() < 1e-9);
        assert!((d.current_only_pct - 20.0).abs() < 1e-9);
        assert!((d.iddq_only_pct - 20.0).abs() < 1e-9);
        assert!((d.missing_code_and_ivdd_pct - 60.0).abs() < 1e-9);
        assert!((d.coverage_pct - 80.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_counts_weighted_faults() {
        let r = report();
        assert!((r.coverage(Severity::Catastrophic) - 80.0).abs() < 1e-9);
        assert!((r.coverage(Severity::NonCatastrophic) - 100.0).abs() < 1e-9);
        assert!((internal_fault_pct(&r, Severity::Catastrophic) - 100.0).abs() < 1e-9);
    }
}
