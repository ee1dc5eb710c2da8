//! The in-memory measurement store: the default [`MeasurementStore`]
//! behind the fault-evaluation hot path.
//!
//! The pipeline measures every fault-class variant at every severity and,
//! on non-convergence, re-measures through the escalation ladder. Many of
//! those measurements are *byte-identical circuits*: catastrophic and
//! near-miss severities of a bridge degenerate to the same resistance,
//! distinct defects collapse to equivalent injected netlists, and the
//! ladder re-measures the same netlist at the same rung after a policy
//! retry. [`MemoryStore`] memoizes `(netlist content digest, ladder rung)
//! → (measurement result, solver-stats delta)` so each unique circuit is
//! solved once per run. A run without a store of its own (no
//! `PipelineHooks::store`) gets a fresh one, so every run removes
//! duplicates through the same single lookup path; a persistent store
//! such as `dotm_store::DiskStore` replaces it and keeps its own
//! in-memory tier.
//!
//! ## Why memoization preserves bit-identical reports
//!
//! An entry stores the *complete* observable effect of a measurement:
//! the `Result<Vec<f64>, SimError>` and the exact [`SimStats`] delta the
//! solve produced. On a hit the caller replays the stored stats delta into
//! its accumulator, so per-class `SimStats` are identical whether the
//! measurement was computed or replayed — and therefore identical at any
//! thread count, because which thread populates an entry first cannot
//! change what the entry contains (the value is a pure function of the
//! key: same digest + same rung ⇒ same netlist stamped with the same
//! options ⇒ same deterministic Newton trajectory).
//!
//! Occupancy (how many lookups hit) is scheduling-dependent — two threads
//! can race to solve the same key — so it never reaches a report; the
//! trace-side `replay.store_hits` counter is its only record.

use crate::pipeline::MeasurementStore;
use dotm_sim::{SimError, SimStats};
use std::collections::HashMap;
use std::sync::Mutex;

/// Number of independently locked shards. A power of two so the shard
/// selector is a mask; 16 comfortably exceeds the executor's worker count.
const SHARDS: usize = 16;

/// One memoized measurement: the result the harness returned and the
/// solver-telemetry delta it accumulated while producing it. This is the
/// unit every [`MeasurementStore`] holds — the value is a pure function
/// of the key, which is what makes an entry replayable without touching
/// a report.
pub type CachedMeasurement = (Result<Vec<f64>, SimError>, SimStats);

/// A sharded, thread-safe memoization table for harness measurements,
/// shared by reference across `exec::par_map` workers. See the module
/// docs for the determinism argument.
#[derive(Debug, Default)]
pub struct MemoryStore {
    shards: [Mutex<HashMap<u128, CachedMeasurement>>; SHARDS],
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn shard(&self, key: u128) -> &Mutex<HashMap<u128, CachedMeasurement>> {
        // The key is FNV-mixed already; the low bits are well spread.
        &self.shards[(key as usize) & (SHARDS - 1)]
    }
}

impl MeasurementStore for MemoryStore {
    fn load(&self, key: u128) -> Option<CachedMeasurement> {
        self.shard(key)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .cloned()
    }

    /// If another worker raced us to the same key the existing entry
    /// wins — both computed the same pure function of the key, so the
    /// values are interchangeable.
    fn store(&self, key: u128, value: &CachedMeasurement) {
        self.shard(key)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_insert_with(|| value.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip() {
        let memo = MemoryStore::new();
        assert!(memo.load(42).is_none());

        let stats = SimStats {
            nr_solves: 3,
            ..SimStats::default()
        };
        memo.store(42, &(Ok(vec![1.0, 2.0]), stats));
        let (result, replay) = memo.load(42).expect("hit");
        assert_eq!(result.unwrap(), vec![1.0, 2.0]);
        assert_eq!(replay.nr_solves, 3);
        assert!(memo.contains(42));
        assert!(!memo.contains(43));
    }

    #[test]
    fn racing_store_keeps_first_entry() {
        let memo = MemoryStore::new();
        memo.store(7, &(Ok(vec![1.0]), SimStats::default()));
        memo.store(7, &(Ok(vec![9.0]), SimStats::default()));
        let (result, _) = memo.load(7).unwrap();
        assert_eq!(result.unwrap(), vec![1.0]);
    }

    #[test]
    fn errors_are_memoized_too() {
        let memo = MemoryStore::new();
        memo.store(
            9,
            &(
                Err(SimError::NoConvergence {
                    analysis: "dc",
                    time: None,
                    iterations: 50,
                }),
                SimStats::default(),
            ),
        );
        let (result, _) = memo.load(9).unwrap();
        assert!(result.is_err());
    }
}
