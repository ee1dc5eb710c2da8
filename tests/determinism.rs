//! The parallel executor's determinism contract, asserted end to end:
//! the same seed must produce a bit-for-bit identical [`MacroReport`]
//! at every thread count, and fixed seeds must keep producing the same
//! fault population and paper-band statistics from build to build.

use dotm::core::harnesses::{ComparatorHarness, LadderHarness};
use dotm::core::{
    detectability, run_macro_path, run_macro_path_with_faults, ExecConfig, GoodSpaceConfig,
    MacroHarness, MacroReport, PipelineConfig,
};
use dotm::defects::{sprinkle_collapsed, Sprinkler};
use dotm::faults::Severity;

fn comparator_config(threads: usize, measure_cache: bool) -> PipelineConfig {
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
        measure_cache,
        ..PipelineConfig::default()
    }
}

/// Runs the comparator evaluation on a shared pre-sprinkled population,
/// so the two runs differ only in thread count (or cache setting).
fn run_comparator(threads: usize, measure_cache: bool) -> MacroReport {
    run_comparator_cfg(comparator_config(threads, measure_cache))
}

fn run_comparator_cfg(cfg: PipelineConfig) -> MacroReport {
    let harness = ComparatorHarness::production();
    let layout = harness.layout();
    let sprinkler = Sprinkler::new(&layout, cfg.stats.clone());
    let collapsed = sprinkle_collapsed(&sprinkler, cfg.defects, cfg.seed);
    let area = layout
        .bbox()
        .map(|b| b.expanded(cfg.stats.size.xmax / 2))
        .map(|b| b.area() as f64)
        .unwrap_or(0.0);
    run_macro_path_with_faults(&harness, &cfg, &collapsed, area).expect("comparator path")
}

#[test]
fn comparator_report_is_thread_count_invariant() {
    // Warm start and the measurement cache are both on (the defaults):
    // the invariance contract has to hold on the path users actually run.
    let serial = run_comparator(1, true);
    let parallel = run_comparator(4, true);

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
    // Cache occupancy is scheduling-free by construction (lookups are a
    // global count, entries are distinct keys), so it must match too.
    assert_eq!(serial.cache_lookups, parallel.cache_lookups);
    assert_eq!(serial.cache_entries, parallel.cache_entries);
    // And the digest covers everything else (floats bit-for-bit).
    assert_eq!(serial.fingerprint(), parallel.fingerprint());
}

#[test]
fn measurement_cache_is_invisible_in_the_report() {
    // A cache hit replays the memoized measurement *and* its solver
    // telemetry, so a cached run must be bit-for-bit identical to an
    // uncached one — the only trace is the cache-occupancy counters
    // themselves, which are zeroed here before fingerprinting.
    let mut cached = run_comparator(2, true);
    let mut uncached = run_comparator(2, false);
    assert!(
        cached.cache_lookups > 0,
        "cached run must route measurements through the cache"
    );
    assert!(cached.cache_entries <= cached.cache_lookups);
    assert_eq!(uncached.cache_lookups, 0);
    assert_eq!(uncached.cache_entries, 0);
    cached.cache_lookups = 0;
    cached.cache_entries = 0;
    uncached.cache_lookups = 0;
    uncached.cache_entries = 0;
    assert_eq!(cached.fingerprint(), uncached.fingerprint());
}

#[test]
fn factor_reuse_is_invisible_in_the_report() {
    // The bitwise factor cache only fires on *identical* system matrices,
    // so it replays the exact same solution bytes a fresh factorisation
    // would produce. Toggling `DOTM_FACTOR_REUSE` must therefore leave
    // every reported bit unchanged — the only trace is the reuse
    // occupancy counters, which are zeroed here before fingerprinting
    // (the counters live in the per-class solver telemetry, unlike the
    // report-level measurement-cache counters).
    let scrub = |report: &mut MacroReport| {
        for o in &mut report.outcomes {
            o.solver.factor_reuse_hits = 0;
            o.solver.factor_refactor_fallbacks = 0;
        }
        report.goodspace_solver.factor_reuse_hits = 0;
        report.goodspace_solver.factor_refactor_fallbacks = 0;
    };
    let mut on = run_comparator_cfg(PipelineConfig {
        factor_reuse: true,
        ..comparator_config(2, true)
    });
    let mut off = run_comparator_cfg(PipelineConfig {
        factor_reuse: false,
        ..comparator_config(2, true)
    });
    assert_eq!(off.solver_totals().factor_reuse_hits, 0);
    assert_eq!(off.solver_totals().factor_refactor_fallbacks, 0);
    scrub(&mut on);
    scrub(&mut off);
    assert_eq!(on.solver_totals(), off.solver_totals());
    assert_eq!(on.fingerprint(), off.fingerprint());
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
