//! The parallel executor's determinism contract, asserted end to end:
//! the same seed must produce a bit-for-bit identical [`MacroReport`]
//! at every thread count, and fixed seeds must keep producing the same
//! fault population and paper-band statistics from build to build.

use dotm::core::harnesses::{ComparatorHarness, LadderHarness};
use dotm::core::{
    detectability, run_macro_path, run_macro_path_with_faults_hooked, CachedMeasurement,
    ExecConfig, GoodSpaceConfig, MacroHarness, MacroReport, MeasurementStore, MemoryStore,
    PipelineConfig, PipelineHooks,
};
use dotm::defects::{sprinkle_collapsed, Sprinkler};
use dotm::faults::Severity;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

fn comparator_config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        defects: 4_000,
        seed: 1995,
        goodspace: GoodSpaceConfig {
            common_samples: 3,
            mismatch_samples: 2,
            seed: 1995 ^ 0xD07,
            exec: ExecConfig::with_threads(threads),
            ..GoodSpaceConfig::default()
        },
        max_classes: Some(12),
        non_catastrophic: true,
        exec: ExecConfig::with_threads(threads),
        ..PipelineConfig::default()
    }
}

/// Runs the comparator evaluation on a shared pre-sprinkled population,
/// so runs differ only in thread count (or measurement store).
fn run_comparator(threads: usize, store: Option<&dyn MeasurementStore>) -> MacroReport {
    let cfg = comparator_config(threads);
    let harness = ComparatorHarness::production();
    let layout = harness.layout();
    let sprinkler = Sprinkler::new(&layout, cfg.stats.clone());
    let collapsed = sprinkle_collapsed(&sprinkler, cfg.defects, cfg.seed);
    let area = sprinkler.area_nm2();
    let hooks = PipelineHooks {
        store,
        ..PipelineHooks::default()
    };
    run_macro_path_with_faults_hooked(&harness, &cfg, &collapsed, area, &hooks)
        .expect("comparator path")
}

/// A measurement store that records every computed measurement and
/// answers lookups only once `answer` is set, counting the hits.
#[derive(Default)]
struct Probe {
    memo: MemoryStore,
    answer: AtomicBool,
    loads: AtomicU64,
    hits: AtomicU64,
}

impl MeasurementStore for Probe {
    fn load(&self, key: u128) -> Option<CachedMeasurement> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        if !self.answer.load(Ordering::Relaxed) {
            return None;
        }
        let hit = self.memo.load(key);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn store(&self, key: u128, value: &CachedMeasurement) {
        self.memo.store(key, value);
    }
}

#[test]
fn comparator_report_is_thread_count_invariant() {
    // The in-memory measurement store is on (every run has one): the
    // invariance contract has to hold on the path users actually run.
    let serial = run_comparator(1, None);
    let parallel = run_comparator(4, None);

    // Field-by-field, not just the digest, so a mismatch names the class.
    assert_eq!(serial.total_faults, parallel.total_faults);
    assert_eq!(serial.class_count, parallel.class_count);
    assert_eq!(serial.outcomes.len(), parallel.outcomes.len());
    for (a, b) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.count, b.count, "class {}", a.key);
        assert_eq!(a.severity, b.severity, "class {}", a.key);
        assert_eq!(a.voltage, b.voltage, "class {}", a.key);
        assert_eq!(a.currents, b.currents, "class {}", a.key);
        assert_eq!(a.flagged, b.flagged, "class {}", a.key);
        assert_eq!(a.sim_failed, b.sim_failed, "class {}", a.key);
        assert_eq!(a.inject_failed, b.inject_failed, "class {}", a.key);
        assert_eq!(a.rung, b.rung, "class {}", a.key);
        assert_eq!(a.inject_errors, b.inject_errors, "class {}", a.key);
        assert_eq!(a.excluded, b.excluded, "class {}", a.key);
        assert_eq!(a.solver, b.solver, "class {}", a.key);
    }
    // The solver telemetry is order-independent counter addition, so the
    // aggregates must also be thread-count-invariant.
    assert_eq!(serial.goodspace_solver, parallel.goodspace_solver);
    assert_eq!(
        serial.goodspace_corner_retries,
        parallel.goodspace_corner_retries
    );
    assert_eq!(serial.solver_totals(), parallel.solver_totals());
    assert_eq!(serial.rung_histogram(), parallel.rung_histogram());
    // And the digest covers everything else (floats bit-for-bit).
    assert_eq!(serial.fingerprint(), parallel.fingerprint());
}

#[test]
fn measurement_cache_is_invisible_in_the_report() {
    // A store hit replays the memoized measurement *and* its solver
    // telemetry, so a run's report must not depend on which lookups hit.
    // Three runs of the same population: the default run (its own
    // in-memory store), a run whose store never answers (every
    // measurement solved), and a replay of that run's recorded
    // measurements (every lookup answered).
    let default_run = run_comparator(2, None);
    let probe = Probe::default();
    let solved = run_comparator(2, Some(&probe));
    assert_eq!(probe.hits.load(Ordering::Relaxed), 0);
    assert_eq!(default_run.fingerprint(), solved.fingerprint());

    probe.answer.store(true, Ordering::Relaxed);
    let loads_before = probe.loads.load(Ordering::Relaxed);
    let replayed = run_comparator(2, Some(&probe));
    let loads = probe.loads.load(Ordering::Relaxed) - loads_before;
    assert!(
        loads > 0,
        "the run must route measurements through its store"
    );
    assert_eq!(
        probe.hits.load(Ordering::Relaxed),
        loads,
        "every measurement of the replay must come from the store"
    );
    assert_eq!(replayed.fingerprint(), solved.fingerprint());
}

#[test]
fn fixed_seed_anchor_invariants() {
    let cfg = PipelineConfig {
        defects: 20_000,
        seed: 2026,
        goodspace: GoodSpaceConfig {
            common_samples: 3,
            mismatch_samples: 2,
            seed: 5,
            ..GoodSpaceConfig::default()
        },
        non_catastrophic: true,
        ..PipelineConfig::default()
    };
    let report = run_macro_path(&LadderHarness, &cfg).expect("ladder path");
    // The sprinkle → collapse front end is a pure function of the seed:
    // these counts must not drift between builds, hosts or thread counts.
    // (If a deliberate change to the PRNG, the sprinkler or the collapse
    // keys moves them, re-pin the anchors in the same commit.)
    assert_eq!(report.total_faults, 645, "fault population drifted");
    assert_eq!(report.class_count, 417, "collapse classes drifted");
    // The back end is simulation; hold the statistics to the paper's
    // bands rather than exact values. This seed sits at 93.3 % coverage —
    // the figure the paper reports for the complete ADC.
    let coverage = report.coverage(Severity::Catastrophic);
    assert!(
        (90.0..=96.0).contains(&coverage),
        "ladder coverage {coverage:.1}% left the 93%-band"
    );
    let d = detectability(&report, Severity::Catastrophic);
    assert!(
        (60.0..=80.0).contains(&d.missing_code_pct),
        "ladder missing-code {:.1}% left its band",
        d.missing_code_pct
    );
}
