//! Solver telemetry: a cheap counter accumulator carried by
//! [`crate::Simulator`].
//!
//! Every analysis records how hard the solver had to work — Newton
//! iterations, which homotopy finally converged, transient step halvings,
//! singular pivots. The defect-oriented pipeline aggregates these per
//! fault class so a report can state *how* its numbers were obtained
//! (and, crucially, how often the solver failed) instead of silently
//! folding solver failures into detection statistics.
//!
//! All counters are plain saturating-free `u64` additions of per-solve
//! quantities that are themselves pure functions of the netlist and the
//! options, so accumulated telemetry is bit-identical for every thread
//! count.

use std::ops::AddAssign;

/// Accumulated solver-effort counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Newton–Raphson solves attempted (each homotopy step counts one).
    pub nr_solves: u64,
    /// Total Newton–Raphson iterations across all solves.
    pub nr_iterations: u64,
    /// DC solves that converged with plain Newton–Raphson.
    pub converged_plain: u64,
    /// DC solves that needed the gmin-stepping homotopy.
    pub converged_gmin: u64,
    /// DC solves that needed the source-stepping homotopy.
    pub converged_source: u64,
    /// DC solves that failed every homotopy.
    pub dc_failures: u64,
    /// Newton solves aborted on a singular matrix or a non-finite update.
    pub singular_pivots: u64,
    /// Newton solves that exhausted the iteration limit.
    pub maxiter_exhausted: u64,
    /// Transient time steps accepted.
    pub tran_steps: u64,
    /// Transient Newton attempts rejected (non-convergence or singularity
    /// at a trial step).
    pub rejected_steps: u64,
    /// Transient step halvings performed after a rejected step.
    pub step_halvings: u64,
    /// DC solves where a warm-start seed converged directly (also counted
    /// in [`SimStats::converged_plain`]).
    pub warm_hits: u64,
    /// DC solves where a warm-start seed failed and the cold homotopy
    /// chain ran instead.
    pub warm_misses: u64,
    /// Newton linear solves served by the exact factor cache (a matrix
    /// bit-identical to the one last factored) instead of a fresh
    /// `O(n³)` factorisation.
    pub factor_reuse_hits: u64,
    /// Factorisations that fell back from the static-order sparse LU to
    /// the dense partial-pivot LU, because a pivot failed its threshold
    /// test or the pattern has no transversal.
    pub factor_refactor_fallbacks: u64,
}

impl SimStats {
    /// Counter names, index-aligned with [`SimStats::to_words`] — the
    /// stable naming used when the telemetry is folded into the
    /// observability counter registry.
    pub const WORD_NAMES: [&'static str; 15] = [
        "nr_solves",
        "nr_iterations",
        "converged_plain",
        "converged_gmin",
        "converged_source",
        "dc_failures",
        "singular_pivots",
        "maxiter_exhausted",
        "tran_steps",
        "rejected_steps",
        "step_halvings",
        "warm_hits",
        "warm_misses",
        "factor_reuse_hits",
        "factor_refactor_fallbacks",
    ];

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &SimStats) {
        *self += *other;
    }

    /// `true` if no counter has been touched.
    pub fn is_empty(&self) -> bool {
        *self == SimStats::default()
    }

    /// The counters as a fixed word vector, in declaration order — the
    /// stable serialisation used by report fingerprints.
    pub fn to_words(&self) -> [u64; 15] {
        [
            self.nr_solves,
            self.nr_iterations,
            self.converged_plain,
            self.converged_gmin,
            self.converged_source,
            self.dc_failures,
            self.singular_pivots,
            self.maxiter_exhausted,
            self.tran_steps,
            self.rejected_steps,
            self.step_halvings,
            self.warm_hits,
            self.warm_misses,
            self.factor_reuse_hits,
            self.factor_refactor_fallbacks,
        ]
    }
}

impl AddAssign for SimStats {
    fn add_assign(&mut self, o: SimStats) {
        self.nr_solves += o.nr_solves;
        self.nr_iterations += o.nr_iterations;
        self.converged_plain += o.converged_plain;
        self.converged_gmin += o.converged_gmin;
        self.converged_source += o.converged_source;
        self.dc_failures += o.dc_failures;
        self.singular_pivots += o.singular_pivots;
        self.maxiter_exhausted += o.maxiter_exhausted;
        self.tran_steps += o.tran_steps;
        self.rejected_steps += o.rejected_steps;
        self.step_halvings += o.step_halvings;
        self.warm_hits += o.warm_hits;
        self.warm_misses += o.warm_misses;
        self.factor_reuse_hits += o.factor_reuse_hits;
        self.factor_refactor_fallbacks += o.factor_refactor_fallbacks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = SimStats {
            nr_solves: 1,
            nr_iterations: 10,
            ..SimStats::default()
        };
        let b = SimStats {
            nr_solves: 2,
            step_halvings: 3,
            ..SimStats::default()
        };
        a.merge(&b);
        assert_eq!(a.nr_solves, 3);
        assert_eq!(a.nr_iterations, 10);
        assert_eq!(a.step_halvings, 3);
        assert!(!a.is_empty());
        assert!(SimStats::default().is_empty());
    }

    #[test]
    fn words_cover_every_counter() {
        let s = SimStats {
            nr_solves: 1,
            nr_iterations: 2,
            converged_plain: 3,
            converged_gmin: 4,
            converged_source: 5,
            dc_failures: 6,
            singular_pivots: 7,
            maxiter_exhausted: 8,
            tran_steps: 9,
            rejected_steps: 10,
            step_halvings: 11,
            warm_hits: 12,
            warm_misses: 13,
            factor_reuse_hits: 14,
            factor_refactor_fallbacks: 15,
        };
        assert_eq!(
            s.to_words(),
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
        );
        assert_eq!(SimStats::WORD_NAMES.len(), s.to_words().len());
    }
}
