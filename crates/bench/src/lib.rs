//! # dotm-bench — reproduction harness for the paper's tables and figures
//!
//! Each binary in `src/bin/` regenerates one table or figure of
//! Kuijstermans et al. (ED&TC 1995), or drives the campaign around them:
//!
//! | target | reproduces / does |
//! |---|---|
//! | `table1` | Table 1 — catastrophic faults & classes for the comparator |
//! | `table2` | Table 2 — voltage fault signatures of the comparator |
//! | `table3` | Table 3 — current fault signatures of the comparator |
//! | `fig3` | Fig. 3 — detectability overlap for comparator faults |
//! | `fig4` | Fig. 4 — global detectability (catastrophic / non-catastrophic) |
//! | `fig5` | Fig. 5 — global detectability after the DfT measures |
//! | `test_time` | §3.2/§4 — test-time comparison |
//! | `sigma_sweep` | ablation: good-space width vs coverage |
//! | `diag` | every comparator fault class with its signature, then the undetected ones |
//! | `wafer_sort` | §4 — current-only wafer-sort coverage and shipped-defective rates |
//! | `compaction` | §3.2 — fewest current measurements keeping full current coverage |
//! | `campaign` | the persistent five-macro campaign: store, journal, shards, service |
//! | `serve_roundtrip` | gate: `campaign --serve` over HTTP matches the CLI campaign |
//! | `tracecheck` | validates the NDJSON trace of a `DOTM_TRACE=1` run |
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
//! converge, even after the escalation ladder, enter the statistics).
//! Every run memoizes
//! measurements of structurally identical injected netlists in memory
//! and replays their solver telemetry, so duplicates cost one solve and
//! never move a reported number.
//!
//! The `campaign` binary additionally splits a campaign across hosts
//! that share one store tree: `--shard i/N` evaluates only the i-th
//! contiguous class range of every macro into a journal *segment*, and
//! `--merge --shards N` folds the N sealed segments into the report a
//! single process prints. On one host, `DOTM_THREADS` is the parallelism.
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
    par_map, run_macro_path, ExecConfig, GlobalReport, MacroHarness, MacroReport, PipelineConfig,
};

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
/// exported trace carries every word of
/// [`SimStats::WORD_NAMES`](dotm_sim::SimStats::WORD_NAMES), the words
/// the report fingerprint covers.
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
/// (default: the current directory; created if absent). No-op with the
/// recorder off.
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
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("[dotm] trace export failed ({}): {e}", dir.display());
        return;
    }
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
    PipelineConfig {
        sim_failure_policy: dotm_core::env::sim_failure_policy(),
        ..dotm_core::env::campaign_config()
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

/// The five converter macros in campaign order, with the production or
/// DfT comparator.
pub fn macro_harnesses(dft: bool) -> Vec<Box<dyn MacroHarness>> {
    let comparator = if dft {
        ComparatorHarness::dft()
    } else {
        ComparatorHarness::production()
    };
    vec![
        Box::new(comparator),
        Box::new(LadderHarness),
        Box::new(BiasHarness::default()),
        Box::new(ClockgenHarness::default()),
        Box::new(DecoderHarness::default()),
    ]
}

/// Runs all five macro paths for the global figures.
///
/// The five macros fan out across worker threads (they are fully
/// independent runs); the report order — and every number in it — is
/// identical to the serial path regardless of `DOTM_THREADS`.
pub fn global_report(dft: bool) -> GlobalReport {
    let harnesses = macro_harnesses(dft);
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
fn print_accounting(
    sim_failed: usize,
    inject_failed: usize,
    escalated: usize,
    excluded: usize,
    hist: [u64; dotm_core::ESCALATION_RUNGS],
    solver: dotm_sim::SimStats,
) {
    println!();
    println!(
        "solver accounting ({:?} policy):",
        dotm_core::env::sim_failure_policy()
    );
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
    if solver.factor_reuse_hits + solver.factor_refactor_fallbacks > 0 {
        println!(
            "  factor reuse: {} exact-cache hits, {} sparse-to-dense LU fallbacks",
            solver.factor_reuse_hits, solver.factor_refactor_fallbacks,
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
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_config_is_sane() {
        let cfg = standard_config();
        assert!(cfg.defects > 0);
        assert!(cfg.goodspace.common_samples > 0);
    }
}
