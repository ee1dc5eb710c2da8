//! Warm-start equivalence, end to end: seeding Newton from the
//! fault-free nominal operating points may change solver effort, never a
//! verdict. The comparator harness is the hardest case — nonlinear
//! devices, transient analyses and fault-injected topologies — so the
//! warm and cold runs are compared class by class on everything the
//! methodology reports (detection set, voltage signature, current flags).

use dotm::core::harnesses::ComparatorHarness;
use dotm::core::{
    run_macro_path_with_faults, GoodSpaceConfig, MacroHarness, MacroReport, PipelineConfig,
};
use dotm::defects::{sprinkle_collapsed, Sprinkler};

fn run_comparator(warm_start: bool) -> MacroReport {
    let harness = ComparatorHarness::production();
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

    // …and may differ from the cold run only in solver effort.
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
