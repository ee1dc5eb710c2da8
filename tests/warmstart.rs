//! Warm-start equivalence, end to end: seeding Newton from the
//! fault-free nominal operating points may change solver effort, never a
//! verdict. The comparator harness is the hardest case — nonlinear
//! devices, transient analyses and fault-injected topologies — so the
//! warm and cold runs are compared class by class on everything the
//! methodology reports (detection set, voltage signature, current flags).
//! The ladder anchor is where the saving shows: there warm start must
//! also cut the Newton iteration count.

use dotm::core::harnesses::{ComparatorHarness, LadderHarness};
use dotm::core::{
    run_macro_path_with_faults, GoodSpaceConfig, MacroHarness, MacroReport, PipelineConfig,
};
use dotm::defects::{sprinkle_collapsed, Sprinkler};

fn run(harness: &dyn MacroHarness, cfg: &PipelineConfig) -> MacroReport {
    let layout = harness.layout();
    let sprinkler = Sprinkler::new(&layout, cfg.stats.clone());
    let collapsed = sprinkle_collapsed(&sprinkler, cfg.defects, cfg.seed);
    run_macro_path_with_faults(harness, cfg, &collapsed, sprinkler.area_nm2())
        .expect("macro path must run")
}

fn run_comparator(warm_start: bool) -> MacroReport {
    let cfg = PipelineConfig {
        defects: 3_000,
        seed: 1995,
        goodspace: GoodSpaceConfig {
            common_samples: 3,
            mismatch_samples: 2,
            seed: 1995 ^ 0xD07,
            ..GoodSpaceConfig::default()
        },
        max_classes: Some(10),
        non_catastrophic: true,
        warm_start,
        ..PipelineConfig::default()
    };
    run(&ComparatorHarness::production(), &cfg)
}

/// The fixed-seed ladder anchor over its full class population.
fn run_ladder(warm_start: bool) -> MacroReport {
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
        warm_start,
        ..PipelineConfig::default()
    };
    run(&LadderHarness, &cfg)
}

/// Asserts the two runs differ at most in solver effort: every class
/// carries the same verdicts.
fn assert_same_verdicts(cold: &MacroReport, warm: &MacroReport) {
    assert_eq!(cold.total_faults, warm.total_faults);
    assert_eq!(cold.outcomes.len(), warm.outcomes.len());
    for (a, b) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(a.key, b.key, "class order diverged");
        assert_eq!(a.count, b.count, "class {}", a.key);
        assert_eq!(a.severity, b.severity, "class {}", a.key);
        assert_eq!(
            a.detection, b.detection,
            "verdict flipped in class {}",
            a.key
        );
        assert_eq!(
            a.voltage, b.voltage,
            "voltage signature flipped in {}",
            a.key
        );
        assert_eq!(a.currents, b.currents, "current flags flipped in {}", a.key);
        assert_eq!(
            a.flagged, b.flagged,
            "compaction flags flipped in {}",
            a.key
        );
        assert_eq!(a.sim_failed, b.sim_failed, "class {}", a.key);
        assert_eq!(a.excluded, b.excluded, "class {}", a.key);
    }
}

#[test]
fn warm_start_never_flips_a_detection_verdict() {
    let cold = run_comparator(false);
    let warm = run_comparator(true);

    // The warm run must actually have taken the seeded path…
    let ws = warm.solver_totals();
    let cs = cold.solver_totals();
    assert!(
        ws.warm_hits + ws.warm_misses > 0,
        "warm run never attempted a seeded solve"
    );
    assert_eq!(
        cs.warm_hits + cs.warm_misses,
        0,
        "cold run must not touch the seed table"
    );

    // …and may differ from the cold run only in solver effort. On this
    // configuration warm start costs iterations rather than saving them,
    // so the effort is not asserted here.
    assert_same_verdicts(&cold, &warm);
}

#[test]
fn warm_start_saves_newton_iterations_on_the_ladder_anchor() {
    let cold = run_ladder(false);
    let warm = run_ladder(true);
    assert_eq!(cold.outcomes.len(), 737, "ladder anchor population moved");
    assert_same_verdicts(&cold, &warm);

    let cs = cold.solver_totals();
    let ws = warm.solver_totals();
    assert!(
        ws.nr_iterations < cs.nr_iterations,
        "warm start saved no Newton iterations: warm {} vs cold {}",
        ws.nr_iterations,
        cs.nr_iterations
    );
}
