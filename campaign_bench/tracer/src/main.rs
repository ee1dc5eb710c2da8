//! Traced in-process mirror of `campaign` single mode.
//!
//! Runs the same macros, configuration (the `DOTM_*` knobs, read through
//! `dotm_bench::standard_config`) and store/journal layout as a plain
//! `campaign` run, but calls each layer through its public function and
//! times every call from outside:
//!
//! * `Sprinkler::new` + `sprinkle_collapsed` (defects);
//! * `GoodSpace::compile` (core::goodspace), called once more on its own
//!   with the recorder off, so its time can be split out of the macro call;
//! * `run_macro_path_with_faults_hooked` (core::pipeline), with a timing
//!   `MeasurementStore` over `DiskStore` and a timing `ClassObserver` over
//!   `JournalWriter::record_class`.
//!
//! The `dotm_obs` recorder is on for the campaign proper, and its phase
//! totals are folded with the reports' solver totals. The last stdout line
//! is one JSON object: per-macro report fingerprints, failure counts, the
//! in-order class completion gaps, the summed layer-call time and the
//! per-layer metrics. `DOTM_STORE_DIR` must name the store to use.

use dotm_core::harnesses::{
    BiasHarness, ClockgenHarness, ComparatorHarness, DecoderHarness, LadderHarness,
};
use dotm_core::{
    run_macro_path_with_faults_hooked, CachedMeasurement, ClassObserver, ClassOutcome,
    GlobalReport, GoodSpace, GoodSpaceConfig, MacroHarness, MeasurementStore, PipelineConfig,
    PipelineHooks,
};
use dotm_defects::{sprinkle_collapsed, Sprinkler};
use dotm_store::{pipeline_context, DiskStore, JournalHeader, JournalWriter};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Calls into one layer entry point and the wall time they took.
#[derive(Default)]
struct Timer {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Timer {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn secs(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

#[derive(Default)]
struct Layers {
    sprinkle: Timer,
    goodspace: Timer,
    macro_call: Timer,
    store_load: Timer,
    store_hits: AtomicU64,
    store_write: Timer,
    store_contains: Timer,
    journal: Timer,
    class_gaps_ms: Mutex<Vec<f64>>,
}

/// The campaign's `DiskStore`, timed from outside.
struct TimedStore<'a> {
    inner: &'a DiskStore,
    layers: &'a Layers,
}

impl MeasurementStore for TimedStore<'_> {
    fn load(&self, key: u128) -> Option<CachedMeasurement> {
        let out = self.layers.store_load.time(|| self.inner.load(key));
        if out.is_some() {
            self.layers.store_hits.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn store(&self, key: u128, value: &CachedMeasurement) {
        self.layers
            .store_write
            .time(|| self.inner.store(key, value));
    }

    fn contains(&self, key: u128) -> bool {
        self.layers.store_contains.time(|| self.inner.contains(key))
    }
}

/// Journals every class as the campaign's observer does, timing the
/// record call and the gap since the previous class completed.
struct TimedJournal<'a> {
    writer: Mutex<JournalWriter>,
    /// When the previous class finished; for a macro's first class, the
    /// macro call's start plus its good-space compile time.
    last: Mutex<Instant>,
    layers: &'a Layers,
}

impl ClassObserver for TimedJournal<'_> {
    fn on_class(&self, index: usize, outcomes: &[ClassOutcome]) -> bool {
        let mut last = self.last.lock().expect("no observer call panicked");
        let gap = Instant::now().saturating_duration_since(*last);
        self.layers
            .class_gaps_ms
            .lock()
            .expect("no observer call panicked")
            .push(gap.as_secs_f64() * 1e3);
        let mut writer = self.writer.lock().expect("no observer call panicked");
        self.layers
            .journal
            .time(|| writer.record_class(index, outcomes))
            .expect("journal write must succeed (checkpoint contract)");
        *last = Instant::now();
        true
    }
}

/// The campaign's macros in campaign order, filtered by `DOTM_MACROS`.
fn harnesses() -> Vec<Box<dyn MacroHarness>> {
    let all: Vec<Box<dyn MacroHarness>> = vec![
        Box::new(ComparatorHarness::production()),
        Box::new(LadderHarness),
        Box::new(BiasHarness::default()),
        Box::new(ClockgenHarness::default()),
        Box::new(DecoderHarness::default()),
    ];
    match dotm_core::env::macros() {
        Some(selection) => {
            for name in &selection {
                assert!(
                    all.iter().any(|h| h.name() == name.as_str()),
                    "DOTM_MACROS: unknown macro {name:?}"
                );
            }
            all.into_iter()
                .filter(|h| selection.iter().any(|n| n.as_str() == h.name()))
                .collect()
        }
        None => all,
    }
}

/// The good-space configuration the pipeline derives from `cfg`.
fn goodspace_config(cfg: &PipelineConfig) -> GoodSpaceConfig {
    let mut gs = cfg.goodspace;
    gs.warm_start = gs.warm_start && cfg.warm_start;
    gs.factor_reuse = cfg.factor_reuse;
    gs.rank_update = cfg.rank_update;
    gs.batch_assembly = cfg.batch_assembly;
    gs.tran_step_carry = cfg.tran_step_carry;
    gs
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn main() {
    let store_dir =
        dotm_core::env::store_dir().expect("DOTM_STORE_DIR must name the store to trace against");
    let mut cfg = dotm_bench::standard_config();
    // As in the campaign: the store subsumes the in-memory cache.
    cfg.measure_cache = false;
    let gs_cfg = goodspace_config(&cfg);

    let layers = Layers::default();
    let mut reports = Vec::new();
    let mut collapsed_classes = 0usize;
    let mut evaluated_classes = 0usize;
    dotm_obs::reset();
    dotm_obs::set_enabled(true);
    for harness in harnesses() {
        let harness = harness.as_ref();
        let layout = harness.layout();
        let collapsed = layers.sprinkle.time(|| {
            let sprinkler = Sprinkler::new(&layout, cfg.stats.clone());
            sprinkle_collapsed(&sprinkler, cfg.defects, cfg.seed)
        });
        let area = layout
            .bbox()
            .map(|b| b.expanded(cfg.stats.size.xmax / 2))
            .map(|b| b.area() as f64)
            .unwrap_or(0.0);
        let classes = cfg
            .max_classes
            .map_or(collapsed.class_count(), |n| collapsed.class_count().min(n));
        collapsed_classes += collapsed.class_count();
        evaluated_classes += classes;
        let header = JournalHeader {
            context: pipeline_context(harness, &cfg),
            macro_name: harness.name().to_string(),
            classes,
        };

        // The standalone compile is only timed: the recorder stays off so
        // the phase totals count the campaign's own work alone.
        dotm_obs::set_enabled(false);
        let gs_start = Instant::now();
        layers
            .goodspace
            .time(|| GoodSpace::compile(harness, &cfg.process, gs_cfg))
            .expect("the fault-free testbench must simulate");
        let gs_elapsed = gs_start.elapsed();
        dotm_obs::set_enabled(true);

        let store = DiskStore::open(&store_dir, header.context).expect("store directory opens");
        let journal_path = store_dir
            .join("journal")
            .join(format!("{}.jnl", harness.name()));
        let writer = JournalWriter::create(&journal_path, &header).expect("journal opens");
        let timed_store = TimedStore {
            inner: &store,
            layers: &layers,
        };
        let observer = TimedJournal {
            writer: Mutex::new(writer),
            last: Mutex::new(Instant::now() + gs_elapsed),
            layers: &layers,
        };
        let hooks = PipelineHooks {
            store: Some(&timed_store),
            observer: Some(&observer),
            completed: Vec::new(),
            shard: None,
        };
        let report = layers
            .macro_call
            .time(|| run_macro_path_with_faults_hooked(harness, &cfg, &collapsed, area, &hooks))
            .expect("macro path must run");
        observer
            .writer
            .into_inner()
            .expect("no observer call panicked")
            .finish(report.fingerprint())
            .expect("journal seals");
        reports.push(report);
    }
    dotm_obs::set_enabled(false);

    let fingerprints: Vec<String> = reports
        .iter()
        .map(|r| format!("\"{}\": \"{:016x}\"", r.name, r.fingerprint()))
        .collect();
    let goodspace_nr_solves: u64 = reports.iter().map(|r| r.goodspace_solver.nr_solves).sum();
    let global = GlobalReport::new(reports);
    let solver = global.solver_totals();
    let phase = |name: &str| {
        dotm_obs::phase_totals()
            .into_iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, calls, ns)| (calls, ns as f64 / 1e9))
            .unwrap_or_else(|| panic!("dotm_obs has no {name} phase"))
    };
    let prime_hits = dotm_obs::counters_snapshot()
        .into_iter()
        .find(|(n, _)| n == "lockstep.prime_hits")
        .map_or(0, |(_, v)| v);
    let (newton_calls, newton_s) = phase("newton");
    let store_loads = layers.store_load.calls();
    let store_hits = layers.store_hits.load(Ordering::Relaxed);

    let metrics: Vec<(&str, f64)> = vec![
        ("defects.sprinkle_s", layers.sprinkle.secs()),
        ("defects.classes", collapsed_classes as f64),
        ("goodspace.compile_s", layers.goodspace.secs()),
        ("goodspace.nr_solves", goodspace_nr_solves as f64),
        (
            "pipeline.class_eval_s",
            layers.macro_call.secs() - layers.goodspace.secs(),
        ),
        (
            "pipeline.escalated_classes",
            global.escalated_classes() as f64,
        ),
        ("sim.nr_solves", solver.nr_solves as f64),
        ("sim.nr_iterations", solver.nr_iterations as f64),
        ("sim.tran_steps", solver.tran_steps as f64),
        ("sim.rejected_steps", solver.rejected_steps as f64),
        ("sim.singular_pivots", solver.singular_pivots as f64),
        ("sim.warm_hits", solver.warm_hits as f64),
        ("sim.warm_misses", solver.warm_misses as f64),
        (
            "sim.warm_hit_ratio",
            ratio(solver.warm_hits, solver.warm_hits + solver.warm_misses),
        ),
        ("sim.factor_reuse_hits", solver.factor_reuse_hits as f64),
        (
            "sim.factor_refactor_fallbacks",
            solver.factor_refactor_fallbacks as f64,
        ),
        (
            "sim.factor_reuse_ratio",
            ratio(
                solver.factor_reuse_hits,
                solver.factor_reuse_hits + solver.factor_refactor_fallbacks,
            ),
        ),
        ("sim.lockstep_prime_hits", prime_hits as f64),
        ("sim.newton_s", newton_s),
        ("sim.newton_calls", newton_calls as f64),
        ("sim.lu_s", phase("lu").1),
        ("sim.assembly_s", phase("assembly").1),
        ("sim.batch_assembly_s", phase("batch_assembly").1),
        ("sim.lockstep_s", phase("variant_lockstep").1),
        ("store.load_s", layers.store_load.secs()),
        ("store.loads", store_loads as f64),
        ("store.hit_ratio", ratio(store_hits, store_loads)),
        ("store.write_s", layers.store_write.secs()),
        ("store.writes", layers.store_write.calls() as f64),
        ("store.contains_s", layers.store_contains.secs()),
        ("store.contains_calls", layers.store_contains.calls() as f64),
        ("journal.record_s", layers.journal.secs()),
        ("journal.records", layers.journal.calls() as f64),
    ];

    let gaps = layers
        .class_gaps_ms
        .into_inner()
        .expect("no observer call panicked");
    let mut out = String::from("{");
    let _ = write!(out, "\"fingerprints\": {{{}}}, ", fingerprints.join(", "));
    let _ = write!(
        out,
        "\"classes\": {evaluated_classes}, \"sim_failed\": {}, \"inject_failed\": {}, ",
        global.sim_failed_classes(),
        global.inject_failed_classes()
    );
    let _ = write!(
        out,
        "\"layer_calls_s\": {}, \"standalone_goodspace_s\": {}, ",
        layers.sprinkle.secs() + layers.goodspace.secs() + layers.macro_call.secs(),
        layers.goodspace.secs()
    );
    let gaps: Vec<String> = gaps.iter().map(|g| g.to_string()).collect();
    let _ = write!(out, "\"class_gaps_ms\": [{}], ", gaps.join(", "));
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    let _ = write!(out, "\"metrics\": {{{}}}}}", metrics.join(", "));
    println!("{out}");
}
