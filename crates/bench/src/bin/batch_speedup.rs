//! Batched-assembly validation: runs the fixed-seed ladder anchor (the
//! same population `tests/determinism.rs` pins to 645 faults in 417
//! classes) once with scalar per-variant assembly and once with the
//! split-plan batched path (static stamps hoisted into shared per-class
//! baselines, variants replaying only the dynamic delta), then
//!
//! * asserts the two reports are **bit-for-bit identical** — batching
//!   preserves the per-cell addition sequence exactly, so this is an
//!   equality gate, not a verdict-band gate,
//! * counts detection-verdict flips per class anyway (always 0 when the
//!   fingerprints match; kept as an explicit counter so the baseline
//!   comparison pins it), and
//! * measures the assembly-phase wall-clock both ways through the
//!   `dotm-obs` accumulators (the batch path's baseline builds and
//!   replays run *inside* `assembly` spans, so the comparison is
//!   like-for-like).
//!
//! Knobs: `DOTM_DEFECTS` (sprinkle size, default 20000), `DOTM_SEED`
//! (default 2026), `DOTM_GS_COMMON`/`DOTM_GS_MM` (good-space sizes,
//! default 3×2), `DOTM_MAX_CLASSES` (0 = full population, the default),
//! `DOTM_BATCH_MIN_SPEEDUP` (gate on the assembly-phase ratio, default
//! 1.3), `DOTM_BENCH_JSON` (write the machine-readable summary here).
//!
//! Exits non-zero if the reports differ in any bit, a verdict flips, or
//! the assembly-phase reduction falls below the speedup gate.

use dotm_bench::{env_u64, env_usize, obs_finish, obs_fold_solver};
use dotm_core::harnesses::LadderHarness;
use dotm_core::{
    run_macro_path_with_faults, GoodSpaceConfig, MacroHarness, MacroReport, PipelineConfig,
};
use dotm_defects::{sprinkle_collapsed, CollapseReport, Sprinkler};
use std::time::Instant;

fn config(batch: bool) -> PipelineConfig {
    let max_classes = match env_usize("DOTM_MAX_CLASSES", 0) {
        0 => None,
        n => Some(n),
    };
    PipelineConfig {
        defects: env_usize("DOTM_DEFECTS", 20_000),
        seed: env_u64("DOTM_SEED", 2026),
        goodspace: GoodSpaceConfig {
            common_samples: env_usize("DOTM_GS_COMMON", 3),
            mismatch_samples: env_usize("DOTM_GS_MM", 2),
            seed: 5,
            ..GoodSpaceConfig::default()
        },
        max_classes,
        non_catastrophic: true,
        // The measurement cache stays off in both passes so every class
        // actually assembles its systems and the phase profile measures
        // stamping work, not cache replay. Everything else keeps its
        // defaults in both passes — the two runs differ only in the
        // assembly strategy.
        warm_start: true,
        measure_cache: false,
        batch_assembly: batch,
        ..PipelineConfig::default()
    }
}

struct Pass {
    report: MacroReport,
    seconds: f64,
    assembly_ns: u64,
    batch_ns: u64,
}

fn phase_ns(name: &str) -> u64 {
    dotm_obs::phase_totals()
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, _, ns)| *ns)
        .unwrap_or(0)
}

fn run(batch: bool, collapsed: &CollapseReport, area: f64) -> Pass {
    let cfg = config(batch);
    let span = dotm_obs::span(if batch { "batch pass" } else { "scalar pass" }, "campaign");
    let as0 = phase_ns("assembly");
    let ba0 = phase_ns("batch_assembly");
    let t0 = Instant::now();
    let report = run_macro_path_with_faults(&LadderHarness, &cfg, collapsed, area)
        .expect("ladder path must run");
    let seconds = t0.elapsed().as_secs_f64();
    drop(span);
    Pass {
        report,
        seconds,
        assembly_ns: phase_ns("assembly") - as0,
        batch_ns: phase_ns("batch_assembly") - ba0,
    }
}

fn env_f64(name: &str, default: f64) -> f64 {
    match std::env::var(name) {
        Ok(v) => v
            .trim()
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("{name}: expected a number, got {v:?}")),
        Err(_) => default,
    }
}

fn write_json(path: &str, fields: &[(&str, String)]) {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("[dotm] bench summary: {path}"),
        Err(e) => {
            eprintln!("[dotm] bench summary write failed ({path}): {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    // The phase accumulators are the measurement instrument here, so the
    // recorder is always on; `DOTM_TRACE` additionally exports the trace
    // files via `obs_finish` as usual.
    let trace = dotm_core::env::trace();
    dotm_obs::set_enabled(true);
    let cfg = config(false);
    let layout = LadderHarness.layout();
    let sprinkler = Sprinkler::new(&layout, cfg.stats.clone());
    let collapsed = sprinkle_collapsed(&sprinkler, cfg.defects, cfg.seed);
    let area = layout
        .bbox()
        .map(|b| b.expanded(cfg.stats.size.xmax / 2))
        .map(|b| b.area() as f64)
        .unwrap_or(0.0);
    println!(
        "ladder anchor, scalar vs batched per-class assembly \
         ({} defects, seed {})",
        cfg.defects, cfg.seed
    );

    let base = run(false, &collapsed, area);
    let bs = base.report.solver_totals();
    println!(
        "  scalar: {:.2}s  {} NR solves, {} iterations, assembly phase {:.3}s ({} classes)",
        base.seconds,
        bs.nr_solves,
        bs.nr_iterations,
        base.assembly_ns as f64 / 1e9,
        base.report.outcomes.len()
    );
    let fast = run(true, &collapsed, area);
    let fs = fast.report.solver_totals();
    println!(
        "  batch:  {:.2}s  {} NR solves, {} iterations, assembly phase {:.3}s \
         (incl. baseline builds {:.3}s, {} classes)",
        fast.seconds,
        fs.nr_solves,
        fs.nr_iterations,
        fast.assembly_ns as f64 / 1e9,
        fast.batch_ns as f64 / 1e9,
        fast.report.outcomes.len()
    );

    // The contract is stronger than verdict preservation: the batched
    // path must reproduce the scalar report bit for bit.
    let identical = base.report.fingerprint() == fast.report.fingerprint();
    let mut flipped = 0usize;
    assert_eq!(
        base.report.outcomes.len(),
        fast.report.outcomes.len(),
        "class lists diverged"
    );
    for (a, b) in base.report.outcomes.iter().zip(&fast.report.outcomes) {
        assert_eq!(a.key, b.key, "class order diverged");
        if a.detection != b.detection || a.voltage != b.voltage || a.currents != b.currents {
            eprintln!("  VERDICT FLIP in class {}", a.key);
            flipped += 1;
        }
    }
    let speedup = base.assembly_ns as f64 / fast.assembly_ns.max(1) as f64;
    println!(
        "  bitwise identical: {identical}   verdict flips: {flipped}   \
         assembly-phase speedup: {speedup:.2}x"
    );

    if let Ok(path) = std::env::var("DOTM_BENCH_JSON") {
        write_json(
            &path,
            &[
                ("bench", "\"batch_speedup\"".into()),
                ("defects", cfg.defects.to_string()),
                ("seed", cfg.seed.to_string()),
                ("classes", base.report.outcomes.len().to_string()),
                ("base_nr_solves", bs.nr_solves.to_string()),
                ("base_nr_iterations", bs.nr_iterations.to_string()),
                ("fast_nr_solves", fs.nr_solves.to_string()),
                ("fast_nr_iterations", fs.nr_iterations.to_string()),
                ("factor_reuse_hits", fs.factor_reuse_hits.to_string()),
                (
                    "factor_refactor_fallbacks",
                    fs.factor_refactor_fallbacks.to_string(),
                ),
                ("verdict_flips", flipped.to_string()),
                ("bitwise_identical", identical.to_string()),
                (
                    "hit_pct",
                    format!(
                        "{:.2}",
                        100.0 * fs.factor_reuse_hits as f64 / fs.nr_iterations.max(1) as f64
                    ),
                ),
                ("base_assembly_ns", base.assembly_ns.to_string()),
                ("fast_assembly_ns", fast.assembly_ns.to_string()),
                ("fast_batch_assembly_ns", fast.batch_ns.to_string()),
                ("batch_speedup", format!("{speedup:.3}")),
                ("base_wall_ms", format!("{:.1}", base.seconds * 1e3)),
                ("fast_wall_ms", format!("{:.1}", fast.seconds * 1e3)),
            ],
        );
    }

    dotm_obs::set_enabled(trace);
    let mut both = bs;
    both += fs;
    obs_fold_solver(&both);
    obs_finish("batch_speedup");

    let min_speedup = env_f64("DOTM_BATCH_MIN_SPEEDUP", 1.3);
    if !identical {
        eprintln!("[dotm] FAIL: batched report is not bit-identical to the scalar report");
        std::process::exit(1);
    }
    if flipped > 0 {
        eprintln!("[dotm] FAIL: {flipped} verdict flips");
        std::process::exit(1);
    }
    if speedup < min_speedup {
        eprintln!("[dotm] FAIL: assembly-phase speedup {speedup:.2}x < {min_speedup}x");
        std::process::exit(1);
    }
}
