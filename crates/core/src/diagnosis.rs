//! Fault-dictionary diagnosis.
//!
//! The evaluated fault classes double as a *fault dictionary*: each class
//! predicts which of the four simple tests it fails (missing codes, IVdd,
//! IDDQ, Iinput). Given the outcome pattern observed on a failing part,
//! the dictionary ranks the candidate fault classes by likelihood — the
//! defect-oriented path from tester datalog back to layout location that
//! the paper's methodology enables (its DfT feedback loop is a special
//! case of this).

use crate::pipeline::MacroReport;
use crate::signature::DetectionSet;
use dotm_faults::Severity;

/// One dictionary entry: a fault class and the test outcome it predicts.
#[derive(Debug, Clone)]
pub struct DictionaryEntry {
    /// Canonical fault-class key.
    pub key: String,
    /// Collapsed fault count (prior likelihood weight).
    pub count: usize,
    /// Predicted test outcome.
    pub predicted: DetectionSet,
}

/// A ranked diagnosis candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The fault class.
    pub key: String,
    /// Posterior score in 0..=1 (normalised over all candidates).
    pub score: f64,
    /// Number of test outcomes (out of 4) disagreeing with the
    /// observation.
    pub mismatches: usize,
}

/// A fault dictionary compiled from one macro's evaluated test path.
#[derive(Debug, Clone)]
pub struct FaultDictionary {
    entries: Vec<DictionaryEntry>,
}

/// Probability that a single predicted test outcome disagrees with the
/// observation (tester noise, near-threshold faults). Drives the
/// soft-matching score.
const FLIP_PROB: f64 = 0.05;

fn pattern(d: DetectionSet) -> [bool; 4] {
    [
        d.missing_code,
        d.currents.ivdd,
        d.currents.iddq,
        d.currents.iinput,
    ]
}

impl FaultDictionary {
    /// Compiles the dictionary from a macro report, using the outcomes of
    /// the given severity.
    pub fn from_report(report: &MacroReport, severity: Severity) -> Self {
        let entries = report
            .outcomes_of(severity)
            .map(|o| DictionaryEntry {
                key: o.key.clone(),
                count: o.count,
                predicted: o.detection,
            })
            .collect();
        FaultDictionary { entries }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries.
    pub fn entries(&self) -> &[DictionaryEntry] {
        &self.entries
    }

    /// Ranks the fault classes against an observed test outcome.
    ///
    /// The score of a class is `prior × (1−p)^(4−m) × p^m`, where the
    /// prior is its collapsed fault count, `m` its number of mismatching
    /// test outcomes and `p` the per-test flip probability; scores are
    /// normalised to sum to 1. Classes are returned most likely first.
    pub fn diagnose(&self, observed: DetectionSet) -> Vec<Candidate> {
        let obs = pattern(observed);
        let mut raw: Vec<Candidate> = self
            .entries
            .iter()
            .map(|e| {
                let pred = pattern(e.predicted);
                let mismatches = obs.iter().zip(&pred).filter(|(a, b)| a != b).count();
                let likelihood = (1.0 - FLIP_PROB).powi((4 - mismatches) as i32)
                    * FLIP_PROB.powi(mismatches as i32);
                Candidate {
                    key: e.key.clone(),
                    score: e.count as f64 * likelihood,
                    mismatches,
                }
            })
            .collect();
        let total: f64 = raw.iter().map(|c| c.score).sum();
        if total > 0.0 {
            for c in &mut raw {
                c.score /= total;
            }
        }
        raw.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.key.cmp(&b.key))
        });
        raw
    }

    /// Diagnostic *resolution*: the expected probability mass of the true
    /// class's exact-match group. 1.0 means every observable pattern maps
    /// to a single class.
    pub fn resolution(&self) -> f64 {
        let total: f64 = self.entries.iter().map(|e| e.count as f64).sum();
        if total == 0.0 {
            return 0.0;
        }
        // Group classes by predicted pattern; within a group the top
        // class takes the diagnosis.
        use std::collections::HashMap;
        let mut groups: HashMap<[bool; 4], Vec<f64>> = HashMap::new();
        for e in &self.entries {
            groups
                .entry(pattern(e.predicted))
                .or_default()
                .push(e.count as f64);
        }
        let mut correct = 0.0;
        for counts in groups.values() {
            let max = counts.iter().cloned().fold(0.0f64, f64::max);
            correct += max;
        }
        correct / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ClassOutcome;
    use crate::signature::{CurrentFlags, VoltageSignature};
    use dotm_defects::FaultMechanism;

    fn outcome(key: &str, count: usize, mc: bool, ivdd: bool, iddq: bool) -> ClassOutcome {
        let currents = CurrentFlags {
            ivdd,
            iddq,
            iinput: false,
        };
        ClassOutcome {
            key: key.into(),
            mechanism: FaultMechanism::Short,
            count,
            severity: Severity::Catastrophic,
            shared: false,
            voltage: VoltageSignature::NoDeviation,
            detection: DetectionSet {
                missing_code: mc,
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
            name: "m".into(),
            instances: 1,
            sprinkle_area_nm2: 1.0,
            defects: 100,
            total_faults: 100,
            class_count: 3,
            outcomes: vec![
                outcome("clock_short", 50, true, true, true),
                outcome("bias_short", 30, false, true, false),
                outcome("ff_fault", 20, false, false, true),
            ],
            goodspace_solver: dotm_sim::SimStats::default(),
            goodspace_corner_retries: 0,
        }
    }

    fn observed(mc: bool, ivdd: bool, iddq: bool) -> DetectionSet {
        DetectionSet {
            missing_code: mc,
            currents: CurrentFlags {
                ivdd,
                iddq,
                iinput: false,
            },
        }
    }

    #[test]
    fn exact_match_wins() {
        let dict = FaultDictionary::from_report(&report(), Severity::Catastrophic);
        assert_eq!(dict.len(), 3);
        let ranked = dict.diagnose(observed(false, false, true));
        assert_eq!(ranked[0].key, "ff_fault");
        assert_eq!(ranked[0].mismatches, 0);
        assert!(ranked[0].score > 0.9);
    }

    #[test]
    fn prior_breaks_ties_between_near_matches() {
        let dict = FaultDictionary::from_report(&report(), Severity::Catastrophic);
        // Observation matches nothing exactly: iddq+ivdd without codes.
        let ranked = dict.diagnose(observed(false, true, true));
        // clock_short (50x, 1 mismatch) vs bias_short (30x, 1 mismatch)
        // vs ff_fault (20x, 1 mismatch): the count decides.
        assert_eq!(ranked[0].key, "clock_short");
        assert_eq!(ranked[0].mismatches, 1);
    }

    #[test]
    fn scores_normalise() {
        let dict = FaultDictionary::from_report(&report(), Severity::Catastrophic);
        let ranked = dict.diagnose(observed(true, true, true));
        let sum: f64 = ranked.iter().map(|c| c.score).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn resolution_reflects_pattern_collisions() {
        let dict = FaultDictionary::from_report(&report(), Severity::Catastrophic);
        // All three classes predict distinct patterns: full resolution.
        assert!((dict.resolution() - 1.0).abs() < 1e-12);
        // Add a colliding class.
        let mut r = report();
        r.outcomes.push(outcome("collider", 10, false, false, true));
        let dict = FaultDictionary::from_report(&r, Severity::Catastrophic);
        // ff_fault (20) and collider (10) collide: 10/110 misdiagnosed.
        assert!((dict.resolution() - 100.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dictionary_is_sane() {
        let r = MacroReport {
            name: "m".into(),
            instances: 1,
            sprinkle_area_nm2: 1.0,
            defects: 0,
            total_faults: 0,
            class_count: 0,
            outcomes: vec![],
            goodspace_solver: dotm_sim::SimStats::default(),
            goodspace_corner_retries: 0,
        };
        let dict = FaultDictionary::from_report(&r, Severity::Catastrophic);
        assert!(dict.is_empty());
        assert!(dict.diagnose(observed(true, false, false)).is_empty());
        assert_eq!(dict.resolution(), 0.0);
    }
}
