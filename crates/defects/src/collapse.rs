//! Fault collapsing: equivalent circuit-level faults are merged into
//! classes whose multiplicity measures their likelihood.
//!
//! This is the paper's step between the defect simulator and fault
//! simulation: 226,596 faults from the 10-million-defect comparator run
//! collapsed into 334 classes, so only 334 circuit simulations were needed.

use crate::fault::{Fault, FaultMechanism};
use crate::sprinkle::Sprinkler;
use std::collections::HashMap;

/// A class of circuit-level-equivalent faults.
#[derive(Debug, Clone)]
pub struct FaultClass {
    /// Canonical key shared by all members.
    pub key: String,
    /// One representative fault (first encountered).
    pub representative: Fault,
    /// Number of collapsed members — the likelihood weight used in every
    /// coverage figure of the paper.
    pub count: usize,
}

impl FaultClass {
    /// Mechanism of the class.
    pub fn mechanism(&self) -> FaultMechanism {
        self.representative.mechanism
    }
}

/// Result of collapsing a fault population.
#[derive(Debug, Clone)]
pub struct CollapseReport {
    /// Defects sprinkled to produce the population.
    pub defects: usize,
    /// Total faults before collapsing.
    pub total_faults: usize,
    /// The classes, sorted by descending count (ties broken by key).
    pub classes: Vec<FaultClass>,
}

impl CollapseReport {
    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Total faults with the given mechanism.
    pub fn faults_of(&self, mechanism: FaultMechanism) -> usize {
        self.classes
            .iter()
            .filter(|c| c.mechanism() == mechanism)
            .map(|c| c.count)
            .sum()
    }

    /// Number of classes with the given mechanism.
    pub fn classes_of(&self, mechanism: FaultMechanism) -> usize {
        self.classes
            .iter()
            .filter(|c| c.mechanism() == mechanism)
            .count()
    }

    /// Percentage of all faults with the given mechanism.
    pub fn fault_pct(&self, mechanism: FaultMechanism) -> f64 {
        if self.total_faults == 0 {
            0.0
        } else {
            100.0 * self.faults_of(mechanism) as f64 / self.total_faults as f64
        }
    }

    /// Percentage of all classes with the given mechanism.
    pub fn class_pct(&self, mechanism: FaultMechanism) -> f64 {
        if self.classes.is_empty() {
            0.0
        } else {
            100.0 * self.classes_of(mechanism) as f64 / self.classes.len() as f64
        }
    }
}

/// Folds faults, in the order they arrive, into classes keyed by
/// [`Fault::canonical_key`]; each class keeps the first fault of its key
/// as its representative.
#[derive(Default)]
struct Collapser {
    total_faults: usize,
    classes: HashMap<String, FaultClass>,
}

impl Collapser {
    fn add(&mut self, fault: Fault) {
        self.total_faults += 1;
        let key = fault.canonical_key();
        match self.classes.get_mut(&key) {
            Some(class) => class.count += 1,
            None => {
                let class = FaultClass {
                    key: key.clone(),
                    representative: fault,
                    count: 1,
                };
                self.classes.insert(key, class);
            }
        }
    }

    fn finish(self, defects: usize) -> CollapseReport {
        let mut classes: Vec<FaultClass> = self.classes.into_values().collect();
        sort_classes(&mut classes);
        CollapseReport {
            defects,
            total_faults: self.total_faults,
            classes,
        }
    }
}

/// Report order: descending count, ties broken by key.
fn sort_classes(classes: &mut [FaultClass]) {
    classes.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
}

/// Collapses an explicit fault list into classes.
pub fn collapse(defects: usize, faults: Vec<Fault>) -> CollapseReport {
    let mut collapser = Collapser::default();
    faults.into_iter().for_each(|fault| collapser.add(fault));
    collapser.finish(defects)
}

/// Sprinkles `n` defects and collapses on the fly, without materialising
/// the full fault list — this is how the 10-million-defect Table 1 run
/// stays in bounded memory.
pub fn sprinkle_collapsed(sprinkler: &Sprinkler<'_>, n: usize, seed: u64) -> CollapseReport {
    let mut collapser = Collapser::default();
    sprinkler.for_each_fault(n, seed, |fault| collapser.add(fault));
    collapser.finish(n)
}

/// Re-counts an existing class set against a fresh, larger sprinkle —
/// the paper's procedure: 334 classes were identified from a 25,000-defect
/// pilot, then a 10-million-defect run "was found to contain 226,596
/// faults" in those classes. Faults whose key is not in `report` are
/// tallied separately as `unmatched`.
pub fn recount(
    sprinkler: &Sprinkler<'_>,
    report: &mut CollapseReport,
    n: usize,
    seed: u64,
) -> usize {
    let mut counts: HashMap<String, usize> = report
        .classes
        .iter()
        .map(|c| (c.key.clone(), 0usize))
        .collect();
    let mut unmatched = 0usize;
    sprinkler.for_each_fault(n, seed, |fault| {
        match counts.get_mut(&fault.canonical_key()) {
            Some(c) => *c += 1,
            None => unmatched += 1,
        }
    });
    let mut total = 0usize;
    for class in &mut report.classes {
        class.count = counts[&class.key];
        total += class.count;
    }
    report.defects = n;
    report.total_faults = total;
    sort_classes(&mut report.classes);
    unmatched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{BridgeMedium, FaultEffect};
    use crate::kinds::{Defect, DefectKind};

    fn bridge(a: &str, b: &str, x: i64) -> Fault {
        Fault {
            mechanism: FaultMechanism::Short,
            effect: FaultEffect::Bridge {
                nets: vec![a.to_string(), b.to_string()],
                medium: BridgeMedium::Metal,
            },
            defect: Defect {
                kind: DefectKind::ExtraMetal1,
                x,
                y: 0,
                size: 1000,
            },
        }
    }

    #[test]
    fn identical_shorts_collapse() {
        let faults = vec![
            bridge("a", "b", 0),
            bridge("a", "b", 500),
            bridge("a", "c", 0),
        ];
        let rep = collapse(100, faults);
        assert_eq!(rep.total_faults, 3);
        assert_eq!(rep.class_count(), 2);
        assert_eq!(rep.classes[0].count, 2); // sorted by count
        assert_eq!(rep.faults_of(FaultMechanism::Short), 3);
        assert_eq!(rep.classes_of(FaultMechanism::Short), 2);
        assert!((rep.fault_pct(FaultMechanism::Short) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn empty_population_is_well_behaved() {
        let rep = collapse(0, Vec::new());
        assert_eq!(rep.class_count(), 0);
        assert_eq!(rep.fault_pct(FaultMechanism::Open), 0.0);
        assert_eq!(rep.class_pct(FaultMechanism::Open), 0.0);
    }

    #[test]
    fn ordering_is_deterministic() {
        let faults = vec![bridge("a", "b", 0), bridge("a", "c", 0)];
        let r1 = collapse(10, faults.clone());
        let r2 = collapse(10, faults);
        let k1: Vec<&str> = r1.classes.iter().map(|c| c.key.as_str()).collect();
        let k2: Vec<&str> = r2.classes.iter().map(|c| c.key.as_str()).collect();
        assert_eq!(k1, k2);
    }
}
