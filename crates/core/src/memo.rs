//! Memoized measurement cache for the fault-evaluation hot path.
//!
//! The pipeline measures every fault-class variant at every severity and,
//! on non-convergence, re-measures through the escalation ladder. Many of
//! those measurements are *byte-identical circuits*: catastrophic and
//! near-miss severities of a bridge degenerate to the same resistance,
//! distinct defects collapse to equivalent injected netlists, and the
//! ladder re-measures the same netlist at the same rung after a policy
//! retry. [`MeasureCache`] memoizes `(netlist content digest, ladder rung)
//! → (measurement result, solver-stats delta)` so each unique circuit is
//! solved once per run.
//!
//! ## Why memoization preserves bit-identical reports
//!
//! A cache entry stores the *complete* observable effect of a measurement:
//! the `Result<Vec<f64>, SimError>` and the exact [`SimStats`] delta the
//! solve produced. On a hit the caller replays the stored stats delta into
//! its accumulator, so per-class `SimStats` are identical whether the
//! measurement was computed or replayed — and therefore identical at any
//! thread count, because which thread populates an entry first cannot
//! change what the entry contains (the value is a pure function of the
//! key: same digest + same rung ⇒ same netlist stamped with the same
//! options ⇒ same deterministic Newton trajectory). Warm-start seeds are
//! frozen per run (the nominal operating point) before any cached
//! measurement happens, so they are part of that pure function too.
//!
//! Cache *occupancy* statistics, by contrast, are scheduling-dependent
//! (two threads can race to insert the same key), so hit/miss counters are
//! deliberately kept OUT of the per-class `SimStats` that feed report
//! fingerprints. The cache instead exposes two thread-invariant totals:
//! [`MeasureCache::lookups`] (every `get` call — determined by the fault
//! list alone) and [`MeasureCache::entries`] (final number of distinct
//! keys — determined by the set of unique circuits alone). Hits =
//! lookups − entries when every miss is followed by an insert.

use dotm_sim::{SimError, SimStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked shards. A power of two so the shard
/// selector is a mask; 16 comfortably exceeds the executor's worker count.
const SHARDS: usize = 16;

/// One memoized measurement: the result the harness returned and the
/// solver-telemetry delta it accumulated while producing it. This is
/// also the unit a persistent [`MeasurementStore`](crate::MeasurementStore)
/// holds on disk — the value is a pure function of the cache key, which
/// is what makes both layers replayable without touching a report.
pub type CachedMeasurement = (Result<Vec<f64>, SimError>, SimStats);

/// A sharded, thread-safe memoization table for harness measurements,
/// shared by reference across `exec::par_map` workers. See the module
/// docs for the determinism argument.
#[derive(Debug, Default)]
pub struct MeasureCache {
    shards: [Mutex<HashMap<u128, CachedMeasurement>>; SHARDS],
    lookups: AtomicU64,
}

impl MeasureCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn shard(&self, key: u128) -> &Mutex<HashMap<u128, CachedMeasurement>> {
        // The digest is FNV-mixed already; the low bits are well spread.
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Looks up a memoized measurement, counting the lookup.
    pub(crate) fn get(&self, key: u128) -> Option<CachedMeasurement> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.shard(key)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .cloned()
    }

    /// Stores a measurement under `key`. If another worker raced us to the
    /// same key the existing entry wins — both computed the same pure
    /// function of the key, so the values are interchangeable.
    pub(crate) fn insert(&self, key: u128, value: CachedMeasurement) {
        self.shard(key)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_insert(value);
    }

    /// Total `get` calls made against this cache. Thread-invariant: one
    /// lookup happens per (variant, severity, rung) measurement attempt,
    /// which is fixed by the fault list.
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Number of distinct keys stored — i.e. unique (circuit, rung) pairs
    /// actually solved. Thread-invariant: the key set is a pure function
    /// of the fault list.
    pub fn entries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_roundtrip_and_counters() {
        let cache = MeasureCache::new();
        assert_eq!(cache.lookups(), 0);
        assert_eq!(cache.entries(), 0);
        assert!(cache.get(42).is_none());

        let stats = SimStats {
            nr_solves: 3,
            ..SimStats::default()
        };
        cache.insert(42, (Ok(vec![1.0, 2.0]), stats));
        let (result, replay) = cache.get(42).expect("hit");
        assert_eq!(result.unwrap(), vec![1.0, 2.0]);
        assert_eq!(replay.nr_solves, 3);
        assert_eq!(cache.lookups(), 2);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn racing_insert_keeps_first_entry() {
        let cache = MeasureCache::new();
        cache.insert(7, (Ok(vec![1.0]), SimStats::default()));
        cache.insert(7, (Ok(vec![9.0]), SimStats::default()));
        let (result, _) = cache.get(7).unwrap();
        assert_eq!(result.unwrap(), vec![1.0]);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn errors_are_cached_too() {
        let cache = MeasureCache::new();
        cache.insert(
            9,
            (
                Err(SimError::NoConvergence {
                    analysis: "dc",
                    time: None,
                    iterations: 50,
                }),
                SimStats::default(),
            ),
        );
        let (result, _) = cache.get(9).unwrap();
        assert!(result.is_err());
    }
}
