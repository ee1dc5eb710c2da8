//! Warm-start validation: runs the fixed-seed ladder anchor (the same
//! population `tests/determinism.rs` pins to 645 faults in 417 classes)
//! once cold and once with warm-start continuation, then
//!
//! * asserts the **detection verdict of every class is identical** — the
//!   optimisation may only change solver effort, never a result, and
//! * prints the honest Newton–Raphson totals both ways, so the saving is
//!   measurable on a single core (it is an iteration count, not a
//!   wall-clock race).
//!
//! Knobs: `DOTM_DEFECTS` (sprinkle size, default 20000), `DOTM_SEED`
//! (default 2026), `DOTM_GS_COMMON`/`DOTM_GS_MM` (good-space sizes,
//! default 3×2), `DOTM_MAX_CLASSES` (0 = full population, the default).
//!
//! Exits non-zero if a verdict flips or the warm path does not reduce
//! the NR iteration count, so CI can gate on both claims.

use dotm_bench::{env_u64, env_usize, obs_finish, obs_fold_solver, obs_init};
use dotm_core::harnesses::LadderHarness;
use dotm_core::{
    run_macro_path_with_faults, GoodSpaceConfig, MacroHarness, MacroReport, PipelineConfig,
};
use dotm_defects::{sprinkle_collapsed, CollapseReport, Sprinkler};
use std::time::Instant;

fn config(warm: bool) -> PipelineConfig {
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
        warm_start: warm,
        ..PipelineConfig::default()
    }
}

fn run(warm: bool, collapsed: &CollapseReport, area: f64) -> (MacroReport, f64) {
    let cfg = config(warm);
    let span = dotm_obs::span(if warm { "warm pass" } else { "cold pass" }, "campaign");
    let t0 = Instant::now();
    let report = run_macro_path_with_faults(&LadderHarness, &cfg, collapsed, area)
        .expect("ladder path must run");
    let seconds = t0.elapsed().as_secs_f64();
    drop(span);
    (report, seconds)
}

fn main() {
    obs_init();
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
        "ladder anchor, cold homotopy vs warm start ({} defects, seed {})",
        cfg.defects, cfg.seed
    );

    let (cold, cold_s) = run(false, &collapsed, area);
    let cs = cold.solver_totals();
    println!(
        "  cold:  {:.2}s  {} NR solves, {} iterations ({} classes)",
        cold_s,
        cs.nr_solves,
        cs.nr_iterations,
        cold.outcomes.len()
    );
    let (warm, warm_s) = run(true, &collapsed, area);
    let ws = warm.solver_totals();
    println!(
        "  warm:  {:.2}s  {} NR solves, {} iterations ({} classes)",
        warm_s,
        ws.nr_solves,
        ws.nr_iterations,
        warm.outcomes.len()
    );
    println!(
        "  warm starts: {} hits, {} misses",
        ws.warm_hits, ws.warm_misses
    );

    // The verdicts — not the solver effort — must be identical per class.
    let mut flipped = 0usize;
    assert_eq!(
        cold.outcomes.len(),
        warm.outcomes.len(),
        "class lists diverged"
    );
    for (a, b) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(a.key, b.key, "class order diverged");
        if a.detection != b.detection || a.voltage != b.voltage || a.currents != b.currents {
            eprintln!("  VERDICT FLIP in class {}", a.key);
            flipped += 1;
        }
    }
    let saved = cs.nr_iterations.saturating_sub(ws.nr_iterations);
    println!(
        "  verdict flips: {flipped}   NR iterations saved: {saved} ({:.1}%)",
        100.0 * saved as f64 / cs.nr_iterations.max(1) as f64
    );
    let mut both = cs;
    both += ws;
    obs_fold_solver(&both);
    obs_finish("warm_speedup");
    if flipped > 0 || ws.nr_iterations >= cs.nr_iterations {
        std::process::exit(1);
    }
}
