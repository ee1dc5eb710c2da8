//! # dotm-bench — reproduction harness for the paper's tables and figures
//!
//! Each binary in `src/bin/` regenerates one table or figure of
//! Kuijstermans et al. (ED&TC 1995):
//!
//! | target | reproduces |
//! |---|---|
//! | `table1` | Table 1 — catastrophic faults & classes for the comparator |
//! | `table2` | Table 2 — voltage fault signatures of the comparator |
//! | `table3` | Table 3 — current fault signatures of the comparator |
//! | `fig3` | Fig. 3 — detectability overlap for comparator faults |
//! | `fig4` | Fig. 4 — global detectability (catastrophic / non-catastrophic) |
//! | `fig5` | Fig. 5 — global detectability after the DfT measures |
//! | `test_time` | §3.2/§4 — test-time comparison |
//! | `sigma_sweep` | ablation: good-space width vs coverage |
//!
//! Runs are deterministic. Environment knobs (all optional):
//! `DOTM_DEFECTS` (pilot sprinkle size, default 25000),
//! `DOTM_TABLE1_FULL` (Table 1 recount size, default 10000000),
//! `DOTM_GS_COMMON` / `DOTM_GS_MM` (good-space Monte-Carlo sizes),
//! `DOTM_MAX_CLASSES` (truncate to the most frequent classes — smoke runs
//! only), `DOTM_SEED`, `DOTM_THREADS` (worker threads for the parallel
//! executor; changes wall-clock time only, never a number),
//! `DOTM_SIM_FAILURE_POLICY` (`assume-detected` — the paper-parity
//! default — `assume-undetected`, or `exclude`: how classes that never
//! converge, even after the escalation ladder, enter the statistics),
//! `DOTM_WARM_START` (`1`/`0`, default on: seed Newton from the
//! fault-free nominal operating points), `DOTM_MEASURE_CACHE` (`1`/`0`,
//! default on: memoize measurements of structurally identical injected
//! netlists). Both are pure solver-effort knobs — detection verdicts are
//! identical either way, and the cache replays solver telemetry so
//! cache-on reports are bit-identical to cache-off at any thread count.
//! `DOTM_FACTOR_REUSE` (`1`/`0`, default on: bitwise-exact LU factor
//! cache — only the occupancy counters in the accounting move) and
//! `DOTM_RANK_UPDATE` (`1`/`0`, default off: Sherman–Morrison–Woodbury
//! rank-k updates of the nominal factorisation; changes round-off, so the
//! `lu_speedup` bench gates verdict preservation before it is enabled
//! anywhere).
//!
//! The `campaign` binary additionally understands the sharding knobs:
//! `DOTM_SHARD`/`DOTM_SHARDS` (equivalent to `--shard i/N` — evaluate
//! only the i-th contiguous class range and write a journal *segment*),
//! `DOTM_SHARD_RETRIES` (coordinator re-dispatch rounds for crashed
//! workers, default 2) and `DOTM_SHARD_ABORT_ONCE` (fault injection: the
//! first dispatch round's workers abort after that many classes — CI uses
//! it to prove crash-and-re-dispatch merges byte-identically). The
//! `shard_speedup` bench honours `DOTM_SHARD_WORKERS` (default 2) and
//! `DOTM_SHARD_MIN_SPEEDUP` (default 0.0 — identity always gates,
//! wall-clock never does by default).
//!
//! `DOTM_TRACE` (`1`/`0`, default off) turns on the [`dotm_obs`]
//! observability recorder: the binary appends a per-phase wall-clock
//! profile (Newton vs LU vs assembly vs store I/O) to **stderr** and
//! exports `<bin>.ndjson` + `<bin>.trace.json` (chrome://tracing) into
//! `DOTM_TRACE_DIR` (default: the current directory). Tracing is a pure
//! side channel: stdout, report fingerprints, journal bytes and store
//! trees are bit-identical with the recorder on or off.
//!
//! Every binary appends a failure-accounting block after its table: how
//! many classes rest on failed simulations or injections, how many needed
//! solver escalation (and to which rung), and the total solver work. On a
//! healthy paper-parity run the failure counters are all zero.

use dotm_core::harnesses::{
    BiasHarness, ClockgenHarness, ComparatorHarness, DecoderHarness, LadderHarness,
};
use dotm_core::{
    par_map, run_macro_path, ExecConfig, GlobalReport, GoodSpaceConfig, MacroHarness, MacroReport,
    PipelineConfig, SimFailurePolicy,
};

/// Reads a `usize` environment knob (thin wrapper over
/// [`dotm_core::env::usize_knob`], kept for the bench binaries' API).
pub fn env_usize(name: &str, default: usize) -> usize {
    dotm_core::env::usize_knob(name, default)
}

/// Reads a `u64` environment knob (thin wrapper over
/// [`dotm_core::env::u64_knob`]).
pub fn env_u64(name: &str, default: u64) -> u64 {
    dotm_core::env::u64_knob(name, default)
}

/// Reads a boolean environment knob (thin wrapper over
/// [`dotm_core::env::bool_knob`]).
pub fn env_bool(name: &str, default: bool) -> bool {
    dotm_core::env::bool_knob(name, default)
}

/// Reads the `DOTM_SIM_FAILURE_POLICY` knob (default: the paper-parity
/// `AssumeDetected`). An unparsable value aborts loudly rather than
/// silently running with the wrong accounting.
pub fn env_sim_failure_policy() -> SimFailurePolicy {
    dotm_core::env::sim_failure_policy()
}

/// Enables the [`dotm_obs`] recorder when the `DOTM_TRACE` knob is set.
/// Call once at the top of a bench binary's `main`; returns whether
/// tracing is on. When it is off every recorder call collapses to one
/// relaxed atomic load, so binaries wire the spans unconditionally.
pub fn obs_init() -> bool {
    let on = dotm_core::env::trace();
    dotm_obs::set_enabled(on);
    on
}

/// Folds the solver-effort telemetry into the observability counter
/// registry under `sim.*` names (no-op with the recorder off), so the
/// exported trace carries the same 13 words that the report fingerprint
/// covers.
pub fn obs_fold_solver(solver: &dotm_sim::SimStats) {
    if !dotm_obs::enabled() {
        return;
    }
    for (name, value) in dotm_sim::SimStats::WORD_NAMES.iter().zip(solver.to_words()) {
        if value > 0 {
            dotm_obs::counter(&format!("sim.{name}"), value);
        }
    }
}

/// Finishes a traced run: prints the per-phase profile and the counters
/// to **stderr** (stdout stays byte-identical to an untraced run) and exports
/// `<label>.ndjson` + `<label>.trace.json` into `DOTM_TRACE_DIR`
/// (default: the current directory). No-op with the recorder off.
pub fn obs_finish(label: &str) {
    if !dotm_obs::enabled() {
        return;
    }
    eprintln!();
    eprint!("{}", dotm_obs::phase_table());
    eprintln!("counters:");
    for (name, value) in dotm_obs::counters_snapshot() {
        eprintln!("  {name:<28} {value:>12}");
    }
    let dir = dotm_core::env::trace_dir().unwrap_or_else(|| std::path::PathBuf::from("."));
    let ndjson = dir.join(format!("{label}.ndjson"));
    let chrome = dir.join(format!("{label}.trace.json"));
    match dotm_obs::export_ndjson(&ndjson) {
        Ok(()) => eprintln!("[dotm] trace events: {}", ndjson.display()),
        Err(e) => eprintln!("[dotm] trace export failed ({}): {e}", ndjson.display()),
    }
    match dotm_obs::export_chrome(&chrome) {
        Ok(()) => eprintln!("[dotm] chrome trace:  {}", chrome.display()),
        Err(e) => eprintln!("[dotm] trace export failed ({}): {e}", chrome.display()),
    }
}

/// The standard pipeline configuration, honouring the environment knobs.
pub fn standard_config() -> PipelineConfig {
    let max_classes = match dotm_core::env::usize_knob("DOTM_MAX_CLASSES", 0) {
        0 => None,
        n => Some(n),
    };
    PipelineConfig {
        defects: env_usize("DOTM_DEFECTS", 25_000),
        seed: env_u64("DOTM_SEED", 1995),
        goodspace: GoodSpaceConfig {
            common_samples: env_usize("DOTM_GS_COMMON", 5),
            mismatch_samples: env_usize("DOTM_GS_MM", 4),
            seed: env_u64("DOTM_SEED", 1995) ^ 0xD07,
            ..GoodSpaceConfig::default()
        },
        max_classes,
        sim_failure_policy: env_sim_failure_policy(),
        warm_start: dotm_core::env::warm_start(),
        measure_cache: dotm_core::env::measure_cache(),
        factor_reuse: dotm_core::env::factor_reuse(),
        rank_update: dotm_core::env::rank_update(),
        batch_assembly: dotm_core::env::batch_assembly(),
        variant_lockstep: dotm_core::env::variant_lockstep(),
        ..PipelineConfig::default()
    }
}

/// Runs the comparator test path (production or DfT variant).
pub fn comparator_report(dft: bool) -> MacroReport {
    let harness = if dft {
        ComparatorHarness::dft()
    } else {
        ComparatorHarness::production()
    };
    run_with_progress(&harness)
}

/// Runs one macro's path with a stderr progress note.
pub fn run_with_progress(harness: &dyn MacroHarness) -> MacroReport {
    let cfg = standard_config();
    eprintln!(
        "[dotm] running {} path: {} defects, goodspace {}x{} ...",
        harness.name(),
        cfg.defects,
        cfg.goodspace.common_samples,
        cfg.goodspace.mismatch_samples
    );
    let t0 = std::time::Instant::now();
    let report = run_macro_path(harness, &cfg).expect("macro path must run");
    eprintln!(
        "[dotm] {}: {} faults in {} classes, evaluated in {:.1}s",
        report.name,
        report.total_faults,
        report.class_count,
        t0.elapsed().as_secs_f64()
    );
    report
}

/// Runs all five macro paths for the global figures.
///
/// The five macros fan out across worker threads (they are fully
/// independent runs); the report order — and every number in it — is
/// identical to the serial path regardless of `DOTM_THREADS`.
pub fn global_report(dft: bool) -> GlobalReport {
    let comparator: Box<dyn MacroHarness> = Box::new(if dft {
        ComparatorHarness::dft()
    } else {
        ComparatorHarness::production()
    });
    let harnesses: Vec<Box<dyn MacroHarness>> = vec![
        comparator,
        Box::new(LadderHarness),
        Box::new(BiasHarness::default()),
        Box::new(ClockgenHarness::default()),
        Box::new(DecoderHarness::default()),
    ];
    let reports = par_map(&ExecConfig::default(), &harnesses, |_, harness| {
        run_with_progress(harness.as_ref())
    });
    GlobalReport::new(reports)
}

/// Prints a ruled table row.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Prints the failure-accounting block shared by the aggregate printers.
#[allow(clippy::too_many_arguments)]
fn print_accounting(
    sim_failed: usize,
    inject_failed: usize,
    escalated: usize,
    excluded: usize,
    hist: [u64; dotm_core::ESCALATION_RUNGS],
    solver: dotm_sim::SimStats,
    cache_lookups: u64,
    cache_entries: u64,
) {
    println!();
    println!("solver accounting ({:?} policy):", env_sim_failure_policy());
    println!("  sim-failed classes:    {sim_failed}");
    println!("  inject-failed classes: {inject_failed}");
    println!("  escalated classes:     {escalated}");
    if excluded > 0 {
        println!("  excluded classes:      {excluded}");
    }
    let rungs: Vec<String> = hist
        .iter()
        .enumerate()
        .map(|(r, n)| format!("r{r}:{n}"))
        .collect();
    println!("  ladder-rung histogram: {}", rungs.join(" "));
    println!(
        "  solver totals: {} NR solves, {} iterations, {} DC failures, \
         {} singular pivots, {} tran steps ({} rejected, {} halvings)",
        solver.nr_solves,
        solver.nr_iterations,
        solver.dc_failures,
        solver.singular_pivots,
        solver.tran_steps,
        solver.rejected_steps,
        solver.step_halvings,
    );
    if solver.warm_hits + solver.warm_misses > 0 {
        println!(
            "  warm starts: {} hits, {} misses ({:.1}% of seeded DC solves)",
            solver.warm_hits,
            solver.warm_misses,
            100.0 * solver.warm_hits as f64 / (solver.warm_hits + solver.warm_misses) as f64,
        );
    }
    if solver.factor_reuse_hits + solver.factor_refactor_fallbacks > 0 {
        println!(
            "  factor reuse: {} hits, {} refactor fallbacks",
            solver.factor_reuse_hits, solver.factor_refactor_fallbacks,
        );
    }
    if cache_lookups > 0 {
        let hits = cache_lookups.saturating_sub(cache_entries);
        println!(
            "  measurement cache: {cache_lookups} lookups, {cache_entries} entries, \
             {hits} hits ({:.1}% hit rate)",
            100.0 * hits as f64 / cache_lookups as f64,
        );
    }
}

/// Prints the failure-accounting block for one macro report.
pub fn print_macro_accounting(report: &MacroReport) {
    print_accounting(
        report.sim_failed_classes(),
        report.inject_failed_classes(),
        report.escalated_classes(),
        report.excluded_classes(),
        report.rung_histogram(),
        report.solver_totals(),
        report.cache_lookups,
        report.cache_entries,
    );
}

/// Prints the failure-accounting block summed over a global report.
pub fn print_global_accounting(report: &GlobalReport) {
    print_accounting(
        report.sim_failed_classes(),
        report.inject_failed_classes(),
        report.escalated_classes(),
        report.excluded_classes(),
        report.rung_histogram(),
        report.solver_totals(),
        report.cache_lookups(),
        report.cache_entries(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_usize("DOTM_DOES_NOT_EXIST", 7), 7);
        assert_eq!(env_u64("DOTM_DOES_NOT_EXIST", 9), 9);
    }

    #[test]
    fn standard_config_is_sane() {
        let cfg = standard_config();
        assert!(cfg.defects > 0);
        assert!(cfg.goodspace.common_samples > 0);
    }
}
