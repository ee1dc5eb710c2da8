//! Performance benches for the engineering substrate, including the
//! ablations DESIGN.md calls out (spatial index vs linear scan, sparse vs
//! dense LU, collapsing, simulator throughput, behavioural conversion).
//!
//! Hand-rolled harness (`harness = false`, zero dependencies): each case
//! is warmed up, then timed over enough iterations to fill a fixed
//! budget, and reported as ns/iter with the spread of per-batch means.
//! Run with `cargo bench -p dotm-bench`, or pass a substring filter:
//! `cargo bench -p dotm-bench --bench engine -- sprinkle`.

use dotm_adc::behavior::FlashAdc;
use dotm_adc::comparator::{comparator_testbench, ComparatorConfig, ComparatorStimulus};
use dotm_adc::layouts::{comparator_layout, LayoutConfig};
use dotm_core::MacroHarness;
use dotm_defects::{collapse, sprinkle_collapsed, DefectStatistics, Sprinkler};
use dotm_layout::{Layer, Rect, ShapeId, SpatialIndex};
use dotm_rng::rngs::StdRng;
use dotm_rng::{Rng, SeedableRng};
use dotm_sim::{DenseMatrix, LuFactors, Simulator, SparseLu};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times `f` and prints a criterion-style summary line.
fn bench<R>(filter: &Option<String>, name: &str, mut f: impl FnMut() -> R) {
    if let Some(pat) = filter {
        if !name.contains(pat.as_str()) {
            return;
        }
    }
    // Warm-up: run until 50 ms have passed (at least once).
    let warm_start = Instant::now();
    let mut warm_iters = 0u32;
    loop {
        black_box(f());
        warm_iters += 1;
        if warm_start.elapsed() > Duration::from_millis(50) {
            break;
        }
    }
    let per_iter = warm_start.elapsed() / warm_iters;
    // Aim for ~10 batches of ~50 ms each.
    let batch_iters = (Duration::from_millis(50).as_nanos() / per_iter.as_nanos().max(1))
        .clamp(1, 1_000_000) as u32;
    let mut batch_means = Vec::with_capacity(10);
    for _ in 0..10 {
        let t0 = Instant::now();
        for _ in 0..batch_iters {
            black_box(f());
        }
        batch_means.push(t0.elapsed().as_nanos() as f64 / batch_iters as f64);
    }
    batch_means.sort_by(|a, b| a.total_cmp(b));
    let median = batch_means[batch_means.len() / 2];
    let lo = batch_means[0];
    let hi = batch_means[batch_means.len() - 1];
    println!(
        "{name:<42} {median:>14.1} ns/iter   [{lo:.1} .. {hi:.1}]  ({batch_iters} iters/batch)"
    );
}

fn bench_dense_lu(filter: &Option<String>) {
    for n in [16usize, 64, 128] {
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) - 0.5
        };
        let mut m = DenseMatrix::zeros(n);
        for r in 0..n {
            let mut rowsum = 0.0;
            for cc in 0..n {
                if r != cc {
                    let v = next();
                    m.set(r, cc, v);
                    rowsum += v.abs();
                }
            }
            m.set(r, r, rowsum + 1.0);
        }
        let rhs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        bench(filter, &format!("dense_lu/solve_{n}x{n}"), || {
            let mut m = m.clone();
            let mut rhs = rhs.clone();
            assert!(m.solve_in_place(&mut rhs).is_ok());
            rhs
        });
    }
}

/// The comparator's transient Jacobian (n = 50) at its operating point,
/// refactored by the static-order sparse LU and by the dense fallback,
/// and its DC Jacobian, whose weakly held node needs a repaired order.
fn bench_sparse_lu(filter: &Option<String>) {
    let stim = ComparatorStimulus::dc_offset(2.5, 0.02);
    let nl = comparator_testbench(ComparatorConfig::default(), &stim);
    let mut sim = Simulator::new(&nl);
    let op = sim.dc_op().expect("comparator operating point");
    let a = sim.jacobian(op.unknowns(), Some(0.25e-9)).clone();
    let mut lu = SparseLu::analyse(&a);
    bench(filter, "sparse_lu/refactor_comparator", || {
        lu.refactor(&a).expect("static pivots pass");
        assert!(!lu.is_dense());
    });
    let dc = sim.jacobian(op.unknowns(), None).clone();
    bench(filter, "sparse_lu/refactor_comparator_dc", || {
        lu.refactor(&dc).expect("nonsingular");
        assert!(!lu.is_dense());
    });
    let dense = a.to_dense();
    let mut factors = LuFactors::new();
    bench(filter, "dense_lu/refactor_comparator", || {
        factors.refactor(&dense).expect("nonsingular")
    });
}

fn bench_sprinkle(filter: &Option<String>) {
    let layout = comparator_layout(ComparatorConfig::default(), LayoutConfig::default());
    let sprinkler = Sprinkler::new(&layout, DefectStatistics::default());
    let mut rng = StdRng::seed_from_u64(7);
    bench(filter, "sprinkle/classify_1k_defects_indexed", || {
        let mut faults = 0usize;
        for _ in 0..1000 {
            let d = sprinkler.sample_defect(&mut rng);
            if sprinkler.classify(&d).is_some() {
                faults += 1;
            }
        }
        faults
    });
    // Ablation: the same bridging query answered by a linear scan over all
    // shapes instead of the grid index.
    let bbox = layout.bbox().unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    bench(filter, "sprinkle/bridge_query_linear_scan_1k", || {
        let mut hits = 0usize;
        for _ in 0..1000 {
            let x = rng.gen_range(bbox.x0..=bbox.x1);
            let y = rng.gen_range(bbox.y0..=bbox.y1);
            let spot = Rect::square(x, y, 1200);
            let mut nets: Vec<_> = layout
                .shapes()
                .iter()
                .filter(|s| s.layer == Layer::Metal2 && s.rect.touches(&spot))
                .map(|s| s.net)
                .collect();
            nets.sort_unstable();
            nets.dedup();
            if nets.len() >= 2 {
                hits += 1;
            }
        }
        hits
    });
    let idx = SpatialIndex::build(&layout);
    let mut rng = StdRng::seed_from_u64(7);
    bench(filter, "sprinkle/bridge_query_indexed_1k", || {
        let mut hits = 0usize;
        for _ in 0..1000 {
            let x = rng.gen_range(bbox.x0..=bbox.x1);
            let y = rng.gen_range(bbox.y0..=bbox.y1);
            let spot = Rect::square(x, y, 1200);
            let shapes: Vec<ShapeId> = idx.query(&layout, Layer::Metal2, &spot);
            let mut nets: Vec<_> = shapes.iter().map(|&s| layout.shape(s).net).collect();
            nets.sort_unstable();
            nets.dedup();
            if nets.len() >= 2 {
                hits += 1;
            }
        }
        hits
    });
}

/// The campaign's pilot: 25 000 defects sprinkled and collapsed on each of
/// the five macro layouts.
fn bench_sprinkle_macros(filter: &Option<String>) {
    use dotm_core::harnesses::{
        BiasHarness, ClockgenHarness, ComparatorHarness, DecoderHarness, LadderHarness,
    };
    let layouts = [
        ComparatorHarness::production().layout(),
        LadderHarness.layout(),
        BiasHarness::default().layout(),
        ClockgenHarness::default().layout(),
        DecoderHarness::default().layout(),
    ];
    bench(filter, "sprinkle/collapse_25k_five_macros", || {
        layouts
            .iter()
            .map(|layout| {
                let sprinkler = Sprinkler::new(layout, DefectStatistics::default());
                sprinkle_collapsed(&sprinkler, 25_000, 1995).class_count()
            })
            .sum::<usize>()
    });
}

fn bench_collapse(filter: &Option<String>) {
    let layout = comparator_layout(ComparatorConfig::default(), LayoutConfig::default());
    let sprinkler = Sprinkler::new(&layout, DefectStatistics::default());
    let report = sprinkler.sprinkle(50_000, 3);
    bench(filter, "collapse/collapse_50k_defect_faults", || {
        collapse(50_000, report.faults.clone())
    });
}

fn bench_simulator(filter: &Option<String>) {
    let stim = ComparatorStimulus::dc_offset(2.5, 0.02);
    let nl = comparator_testbench(ComparatorConfig::default(), &stim);
    bench(filter, "simulator/comparator_decision_transient", || {
        let mut sim = Simulator::new(&nl);
        dotm_adc::comparator::decision(&nl, &mut sim, 0.25e-9).expect("must converge")
    });
    // One transient Newton iteration's assembly at the operating point:
    // the baseline copy plus the compiled MOSFET kernels.
    let mut sim = Simulator::new(&nl);
    let op = sim.dc_op().expect("comparator operating point");
    bench(filter, "simulator/comparator_transient_assembly", || {
        sim.jacobian(op.unknowns(), Some(0.25e-9)).dim()
    });
    // One operating point from zero, as each transient's initial
    // condition solves it.
    bench(filter, "simulator/comparator_dc_op", || {
        sim.dc_op().expect("must converge")
    });
    let ladder = dotm_adc::ladder::ladder_testbench();
    bench(filter, "simulator/ladder_dc_op_273_nodes", || {
        let mut sim = Simulator::new(&ladder);
        sim.dc_op().expect("must converge")
    });
}

fn bench_behavioral_adc(filter: &Option<String>) {
    let adc = FlashAdc::ideal();
    bench(filter, "behavioral_adc/convert_1k_samples", || {
        let mut acc = 0u32;
        for s in 0..1000 {
            let vin = 1.5 + 2.0 * (s as f64) / 999.0;
            acc += adc.convert(vin, s) as u32;
        }
        acc
    });
    bench(filter, "behavioral_adc/missing_code_test_1k", || {
        adc.missing_codes(1000)
    });
}

fn bench_goodspace_measure(filter: &Option<String>) {
    let harness = dotm_core::harnesses::LadderHarness;
    let nl = harness.testbench();
    bench(filter, "macro_measure/ladder_full_measurement", || {
        harness.measure(&nl).expect("must measure")
    });
}

fn main() {
    // `cargo bench -- <substring>` filters cases; flag-style arguments
    // from the cargo invocation are ignored.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    println!("{:<42} {:>14}", "bench", "median");
    bench_dense_lu(&filter);
    bench_sparse_lu(&filter);
    bench_sprinkle(&filter);
    bench_sprinkle_macros(&filter);
    bench_collapse(&filter);
    bench_simulator(&filter);
    bench_behavioral_adc(&filter);
    bench_goodspace_measure(&filter);
}
