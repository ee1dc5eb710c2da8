//! The persistent campaign's contracts, end to end on the fixed-seed
//! comparator fixture:
//!
//! * a run killed after N classes (via the injected observer abort — no
//!   real signal) and resumed from its journal produces a bit-identical
//!   `MacroReport` fingerprint, and a byte-identical journal, to an
//!   uninterrupted run;
//! * a second (warm) run answers every lookup from the store — zero
//!   computed entries and, since the comparator's nominal replays with
//!   its good space, zero simulations — at any thread count, with an
//!   identical fingerprint;
//! * serial and multi-threaded runs write byte-identical store contents;
//! * a corrupted store entry degrades to a recomputed miss, never a
//!   wrong verdict, an error, or a crash;
//! * the good space's Monte-Carlo record and bias_gen's propagation
//!   transients replay from the store like every measurement.

use dotm::core::harnesses::{BiasHarness, ComparatorHarness};
use dotm::core::{
    run_macro_path_with_faults, run_macro_path_with_faults_hooked, CachedMeasurement,
    ClassObserver, ClassOutcome, CommonSample, CurrentKind, ExecConfig, GoodSpace, GoodSpaceConfig,
    MacroHarness, MacroReport, MeasurementPlan, MeasurementStore, PathError, PipelineConfig,
    PipelineHooks, Probe, ProcessModel, ShardSpec, VoltageSignature,
};
use dotm::defects::{sprinkle_collapsed, CollapseReport, Sprinkler};
use dotm::layout::Layout;
use dotm::netlist::Netlist;
use dotm::sim::{SimError, SimOptions, SimStats, Simulator};
use dotm_rng::rngs::StdRng;
use dotm_store::{
    corrupt_one_entry, create_segment, load_journal, load_segment, merge_segments,
    pipeline_context, segment_path, DiskStore, JournalHeader, JournalWriter,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

fn config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        defects: 4_000,
        seed: 1995,
        goodspace: GoodSpaceConfig {
            common_samples: 3,
            mismatch_samples: 2,
            seed: 1995 ^ 0xD07,
            ..GoodSpaceConfig::default()
        },
        max_classes: Some(12),
        non_catastrophic: true,
        exec: ExecConfig::with_threads(threads),
        ..PipelineConfig::default()
    }
}

struct Fixture {
    harness: ComparatorHarness,
    collapsed: CollapseReport,
    area: f64,
}

fn fixture() -> Fixture {
    let harness = ComparatorHarness::production();
    let cfg = config(1);
    let layout = harness.layout();
    let sprinkler = Sprinkler::new(&layout, cfg.stats.clone());
    let collapsed = sprinkle_collapsed(&sprinkler, cfg.defects, cfg.seed);
    let area = sprinkler.area_nm2();
    Fixture {
        harness,
        collapsed,
        area,
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dotm-campaign-test-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn classes_of(fx: &Fixture, cfg: &PipelineConfig) -> usize {
    match cfg.max_classes {
        Some(n) => fx.collapsed.class_count().min(n),
        None => fx.collapsed.class_count(),
    }
}

fn header(fx: &Fixture, cfg: &PipelineConfig) -> JournalHeader {
    JournalHeader {
        context: pipeline_context(&fx.harness, cfg),
        macro_name: fx.harness.name().to_string(),
        classes: classes_of(fx, cfg),
    }
}

/// Journals completed classes and aborts after `abort_after` of them
/// (`usize::MAX` = never) — the signal-free stand-in for a kill.
struct TestObserver {
    writer: Mutex<Option<JournalWriter>>,
    seen: AtomicUsize,
    abort_after: usize,
}

impl TestObserver {
    fn new(writer: JournalWriter, abort_after: usize) -> Self {
        TestObserver {
            writer: Mutex::new(Some(writer)),
            seen: AtomicUsize::new(0),
            abort_after,
        }
    }

    fn take_writer(&self) -> JournalWriter {
        self.writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("writer present")
    }
}

impl ClassObserver for TestObserver {
    fn on_class(&self, index: usize, outcomes: &[ClassOutcome]) -> bool {
        self.writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
            .expect("journal open")
            .record_class(index, outcomes)
            .expect("journal write");
        self.seen.fetch_add(1, Ordering::Relaxed) + 1 < self.abort_after
    }
}

/// One journaled, store-backed run. Returns the report (sealing the
/// journal) or the abort error.
fn campaign_run(
    fx: &Fixture,
    dir: &Path,
    threads: usize,
    resume: bool,
    abort_after: usize,
) -> Result<(MacroReport, dotm_store::StoreCounters), PathError> {
    campaign_run_as(fx, &fx.harness, dir, threads, resume, abort_after)
}

/// [`campaign_run`] driving `harness`, which must measure like the
/// fixture's (the store and journal are keyed by the fixture's).
fn campaign_run_as(
    fx: &Fixture,
    harness: &dyn MacroHarness,
    dir: &Path,
    threads: usize,
    resume: bool,
    abort_after: usize,
) -> Result<(MacroReport, dotm_store::StoreCounters), PathError> {
    let cfg = config(threads);
    let head = header(fx, &cfg);
    let store = DiskStore::open(dir, head.context).expect("open store");
    let journal_path = dir.join("journal").join("comparator.jnl");
    let completed = if resume {
        load_journal(&journal_path, &head).completed
    } else {
        Vec::new()
    };
    let writer = JournalWriter::create(&journal_path, &head).expect("create journal");
    let observer = TestObserver::new(writer, abort_after);
    let hooks = PipelineHooks {
        store: Some(&store),
        observer: Some(&observer),
        completed,
        shard: None,
    };
    let report = run_macro_path_with_faults_hooked(harness, &cfg, &fx.collapsed, fx.area, &hooks)?;
    observer
        .take_writer()
        .finish(report.fingerprint())
        .expect("seal journal");
    Ok((report, store.counters()))
}

/// The fixture's comparator, counting every simulation it runs: each
/// measurement, and each process perturbation (which solves the bias
/// generator).
#[derive(Debug)]
struct CountingComparator<'a> {
    inner: &'a ComparatorHarness,
    simulations: AtomicUsize,
}

impl MacroHarness for CountingComparator<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn layout(&self) -> Layout {
        self.inner.layout()
    }

    fn instance_count(&self) -> usize {
        self.inner.instance_count()
    }

    fn testbench(&self) -> Netlist {
        self.inner.testbench()
    }

    fn plan(&self) -> MeasurementPlan {
        self.inner.plan()
    }

    fn sim_options(&self) -> SimOptions {
        self.inner.sim_options()
    }

    fn stores_nominal(&self) -> bool {
        self.inner.stores_nominal()
    }

    fn measure_with(&self, nl: &Netlist, sim: &mut Simulator<'_>) -> Result<Vec<f64>, SimError> {
        self.simulations.fetch_add(1, Ordering::Relaxed);
        self.inner.measure_with(nl, sim)
    }

    fn perturb(
        &self,
        nl: &mut Netlist,
        model: &ProcessModel,
        common: &CommonSample,
        rng: &mut StdRng,
        stats: &mut SimStats,
    ) {
        self.simulations.fetch_add(1, Ordering::Relaxed);
        self.inner.perturb(nl, model, common, rng, stats);
    }

    fn classify_voltage(&self, nominal: &[f64], faulty: &[f64]) -> VoltageSignature {
        self.inner.classify_voltage(nominal, faulty)
    }

    fn classify_voltage_with(
        &self,
        nominal: &[f64],
        faulty: &[f64],
        probe: &mut Probe<'_>,
    ) -> VoltageSignature {
        self.inner.classify_voltage_with(nominal, faulty, probe)
    }

    fn shared_nets(&self) -> Vec<&'static str> {
        self.inner.shared_nets()
    }

    fn current_floor(&self, kind: CurrentKind) -> f64 {
        self.inner.current_floor(kind)
    }
}

/// One shard worker's run: evaluates `shard.range(classes)` into the
/// shard's segment file, always resuming the segment's own prefix —
/// exactly what `campaign --shard i/N` does.
fn shard_run(
    fx: &Fixture,
    dir: &Path,
    threads: usize,
    shard: ShardSpec,
    abort_after: usize,
) -> Result<MacroReport, PathError> {
    let cfg = config(threads);
    let head = header(fx, &cfg);
    let store = DiskStore::open(dir, head.context).expect("open store");
    let seg = segment_path(&dir.join("journal"), fx.harness.name(), shard);
    let state = load_segment(&seg, &head, shard);
    let writer = create_segment(&seg, &head, shard).expect("create segment");
    let observer = TestObserver::new(writer, abort_after);
    let hooks = PipelineHooks {
        store: Some(&store),
        observer: Some(&observer),
        completed: state.completed,
        shard: Some(shard),
    };
    let report =
        run_macro_path_with_faults_hooked(&fx.harness, &cfg, &fx.collapsed, fx.area, &hooks)?;
    observer
        .take_writer()
        .finish(report.fingerprint())
        .expect("seal segment");
    Ok(report)
}

/// The merge step: folds all `shards` segments (verifying headers and
/// checksums), replays the complete class set through the ordinary
/// pipeline path, and writes the canonical whole-macro journal.
fn merge_run(fx: &Fixture, dir: &Path, threads: usize, shards: usize) -> MacroReport {
    let cfg = config(threads);
    let head = header(fx, &cfg);
    let merged = merge_segments(&dir.join("journal"), &head, shards);
    assert!(
        merged.is_complete(),
        "incomplete shards: {:?}",
        merged.incomplete
    );
    let store = DiskStore::open(dir, head.context).expect("open store");
    let journal_path = dir.join("journal").join("comparator.jnl");
    let writer = JournalWriter::create(&journal_path, &head).expect("create journal");
    let observer = TestObserver::new(writer, usize::MAX);
    let hooks = PipelineHooks {
        store: Some(&store),
        observer: Some(&observer),
        completed: merged.completed,
        shard: None,
    };
    let report =
        run_macro_path_with_faults_hooked(&fx.harness, &cfg, &fx.collapsed, fx.area, &hooks)
            .expect("merge replay");
    observer
        .take_writer()
        .finish(report.fingerprint())
        .expect("seal journal");
    report
}

#[test]
fn killed_and_resumed_run_is_bit_identical() {
    let fx = fixture();
    let cfg = config(2);

    // The reference: a plain, storeless run.
    let plain =
        run_macro_path_with_faults(&fx.harness, &cfg, &fx.collapsed, fx.area).expect("plain run");

    // An uninterrupted journaled run.
    let dir_full = tmpdir("resume-full");
    let (full, _) = campaign_run(&fx, &dir_full, 2, false, usize::MAX).expect("full run");
    assert_eq!(
        full.fingerprint(),
        plain.fingerprint(),
        "store+journal hooks must be invisible in the report"
    );

    // Kill after 5 of the 12 classes, then resume.
    let dir = tmpdir("resume-killed");
    let killed = campaign_run(&fx, &dir, 2, false, 5);
    match killed {
        Err(PathError::Aborted { completed }) => assert_eq!(completed, 5),
        other => panic!("expected abort, got {other:?}"),
    }
    let head = header(&fx, &config(2));
    let journal = dir.join("journal").join("comparator.jnl");
    let state = load_journal(&journal, &head);
    assert_eq!(state.prefix_len(), 5, "journal holds the completed prefix");
    assert_eq!(state.fingerprint, None, "unsealed journal");

    let (resumed, counters) = campaign_run(&fx, &dir, 2, true, usize::MAX).expect("resumed run");
    assert_eq!(
        resumed.fingerprint(),
        plain.fingerprint(),
        "resumed report must be bit-identical to an uninterrupted one"
    );
    assert!(
        counters.loads < full.outcomes.len() as u64 * 8,
        "replayed classes must not re-measure"
    );

    // And the journals — not just the reports — are byte-identical.
    assert_eq!(
        fs::read(&journal).expect("resumed journal"),
        fs::read(dir_full.join("journal").join("comparator.jnl")).expect("full journal"),
    );
    let sealed = load_journal(&journal, &head);
    assert_eq!(sealed.fingerprint, Some(plain.fingerprint()));

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dir_full);
}

#[test]
fn warm_run_answers_everything_from_the_store_at_any_thread_count() {
    let fx = fixture();
    let dir = tmpdir("warm");
    let (cold, cold_counters) = campaign_run(&fx, &dir, 4, false, usize::MAX).expect("cold");
    assert!(
        cold_counters.computed > 0,
        "cold run must populate the store"
    );

    for threads in [1, 3] {
        let (warm, counters) =
            campaign_run(&fx, &dir, threads, true, usize::MAX).expect("warm run");
        // --resume replays the sealed journal, so the warm run is pure
        // replay; rerun without resume to exercise the store itself.
        assert_eq!(warm.fingerprint(), cold.fingerprint(), "threads={threads}");
        assert_eq!(counters.computed, 0, "threads={threads}");
        let counting = CountingComparator {
            inner: &fx.harness,
            simulations: AtomicUsize::new(0),
        };
        let (warm2, c2) = campaign_run_as(&fx, &counting, &dir, threads, false, usize::MAX)
            .expect("warm non-resume run");
        assert_eq!(warm2.fingerprint(), cold.fingerprint(), "threads={threads}");
        assert_eq!(
            counting.simulations.load(Ordering::Relaxed),
            0,
            "the nominal replays with the good space (threads={threads})"
        );
        assert_eq!(
            c2.computed, 0,
            "every measurement must come from the store (threads={threads})"
        );
        assert_eq!(c2.misses, 0, "threads={threads}");
        assert_eq!(c2.loads, cold_counters.loads, "threads={threads}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Recursively lists `dir` as (relative path, file bytes), sorted.
fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, fs::read(&path).expect("read file")));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

#[test]
fn serial_and_parallel_runs_write_byte_identical_stores() {
    let fx = fixture();
    let dir_serial = tmpdir("bytes-serial");
    let dir_parallel = tmpdir("bytes-parallel");
    campaign_run(&fx, &dir_serial, 1, false, usize::MAX).expect("serial");
    campaign_run(&fx, &dir_parallel, 4, false, usize::MAX).expect("parallel");
    let a = snapshot(&dir_serial);
    let b = snapshot(&dir_parallel);
    assert_eq!(
        a.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        b.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        "same set of entry and journal files"
    );
    for ((path_a, bytes_a), (_, bytes_b)) in a.iter().zip(&b) {
        assert_eq!(bytes_a, bytes_b, "file {path_a} differs");
    }
    let _ = fs::remove_dir_all(&dir_serial);
    let _ = fs::remove_dir_all(&dir_parallel);
}

#[test]
fn corrupted_entry_degrades_to_a_recomputed_miss() {
    let fx = fixture();
    let dir = tmpdir("corrupt");
    let (cold, cold_counters) = campaign_run(&fx, &dir, 2, false, usize::MAX).expect("cold");
    corrupt_one_entry(&dir, 0)
        .expect("corruption probe")
        .expect("store has entries");
    let (rerun, counters) = campaign_run(&fx, &dir, 2, false, usize::MAX).expect("rerun");
    assert_eq!(
        rerun.fingerprint(),
        cold.fingerprint(),
        "a corrupt entry must never change a verdict"
    );
    assert!(counters.computed > 0, "the damaged entry is recomputed");
    assert!(
        counters.computed < cold_counters.computed,
        "only the damaged entry is recomputed, not the whole store"
    );
    // The rewrite healed the store: a third run computes nothing.
    let (_, healed) = campaign_run(&fx, &dir, 2, false, usize::MAX).expect("healed");
    assert_eq!(healed.computed, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_goodspace_entry_recomputes_only_itself_and_heals() {
    let fx = fixture();
    let dir = tmpdir("corrupt-goodspace");
    let run = |max_classes: Option<usize>| {
        let cfg = PipelineConfig {
            max_classes,
            ..config(2)
        };
        let store = DiskStore::open(&dir, pipeline_context(&fx.harness, &cfg)).expect("open");
        let hooks = PipelineHooks {
            store: Some(&store),
            ..PipelineHooks::default()
        };
        let report =
            run_macro_path_with_faults_hooked(&fx.harness, &cfg, &fx.collapsed, fx.area, &hooks)
                .expect("comparator path");
        (report, store.counters())
    };
    // With no class to evaluate, the one entry a run writes is the good
    // space's (the class cap is not part of the store context).
    let (_, gs_only) = run(Some(0));
    assert_eq!(gs_only.computed, 1);
    let entries = |dir: &Path| -> Vec<String> {
        snapshot(dir)
            .into_iter()
            .map(|(path, _)| path)
            .filter(|path| path.ends_with(".ent"))
            .collect()
    };
    let gs_entry = entries(&dir).pop().expect("the good-space entry");

    let full = config(2).max_classes;
    let (cold, cold_counters) = run(full);
    assert!(cold_counters.computed > 0, "the classes are computed");
    let index = entries(&dir)
        .iter()
        .position(|e| *e == gs_entry)
        .expect("the good-space entry survives");
    let hit = corrupt_one_entry(&dir, index)
        .expect("corruption probe")
        .expect("store has the entry");
    assert!(hit.ends_with(&gs_entry), "{hit:?} is the good-space entry");

    let (rerun, counters) = run(full);
    assert_eq!(rerun.fingerprint(), cold.fingerprint());
    assert_eq!(
        (counters.computed, counters.misses),
        (1, 1),
        "only the good space is recomputed"
    );
    let (healed_run, healed) = run(full);
    assert_eq!(healed_run.fingerprint(), cold.fingerprint());
    assert_eq!(
        (healed.computed, healed.misses),
        (0, 0),
        "the rewrite healed it"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// One answered load or one store, as the pipeline issued it.
struct Logged {
    key: u128,
    values: Option<usize>,
    nr_solves: u64,
}

/// Forwards to a `DiskStore`, logging every answered load and every
/// store — each one delta the pipeline merged into some solver stats.
struct Recorder<'a> {
    inner: &'a DiskStore,
    log: Mutex<Vec<Logged>>,
}

impl Recorder<'_> {
    fn push(&self, key: u128, value: &CachedMeasurement) {
        self.log.lock().expect("log").push(Logged {
            key,
            values: value.0.as_ref().ok().map(Vec::len),
            nr_solves: value.1.nr_solves,
        });
    }
}

impl MeasurementStore for Recorder<'_> {
    fn load(&self, key: u128) -> Option<CachedMeasurement> {
        let out = self.inner.load(key);
        if let Some(value) = &out {
            self.push(key, value);
        }
        out
    }

    fn store(&self, key: u128, value: &CachedMeasurement) {
        self.push(key, value);
        self.inner.store(key, value);
    }
}

fn bias_config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        goodspace: GoodSpaceConfig {
            common_samples: 2,
            mismatch_samples: 2,
            seed: 7,
            ..GoodSpaceConfig::default()
        },
        max_classes: Some(8),
        ..config(threads)
    }
}

/// One store-backed bias_gen run: the report, the session counters and
/// the log of every delta the run merged.
fn bias_run(dir: &Path, threads: usize) -> (MacroReport, dotm_store::StoreCounters, Vec<Logged>) {
    let harness = BiasHarness::default();
    let cfg = bias_config(threads);
    let layout = harness.layout();
    let sprinkler = Sprinkler::new(&layout, cfg.stats.clone());
    let collapsed = sprinkle_collapsed(&sprinkler, cfg.defects, cfg.seed);
    let store = DiskStore::open(dir, pipeline_context(&harness, &cfg)).expect("open");
    let recorder = Recorder {
        inner: &store,
        log: Mutex::new(Vec::new()),
    };
    let hooks = PipelineHooks {
        store: Some(&recorder),
        ..PipelineHooks::default()
    };
    let report =
        run_macro_path_with_faults_hooked(&harness, &cfg, &collapsed, sprinkler.area_nm2(), &hooks)
            .expect("bias path");
    let log = recorder.log.into_inner().expect("log");
    (report, store.counters(), log)
}

#[test]
fn warm_run_replays_the_good_space_and_the_propagation_transients() {
    let harness = BiasHarness::default();
    let cfg = bias_config(1);
    let gs_key = GoodSpace::store_key(&harness, &cfg.process, &cfg.goodspace);
    // bias_gen measures five values; a propagation entry holds the four
    // decisions of the nominal comparator driven by the faulty biases.
    let propagated = |log: &[Logged]| -> u64 {
        log.iter()
            .filter(|e| e.key != gs_key && e.values == Some(4))
            .map(|e| e.nr_solves)
            .sum()
    };
    let class_solves =
        |r: &MacroReport| -> u64 { r.outcomes.iter().map(|o| o.solver.nr_solves).sum() };
    let mut bodies = Vec::new();
    for threads in [1, 4] {
        let dir = tmpdir(&format!("replay-{threads}"));
        let (cold, _, cold_log) = bias_run(&dir, threads);
        let (warm, counters, warm_log) = bias_run(&dir, threads);
        assert_eq!(warm.fingerprint(), cold.fingerprint(), "threads={threads}");
        assert_eq!(
            format!("{warm:?}"),
            format!("{cold:?}"),
            "threads={threads}"
        );
        assert_eq!(
            (counters.computed, counters.misses),
            (0, 0),
            "threads={threads}"
        );
        assert!(
            warm_log.iter().any(|e| e.key == gs_key),
            "the good space is replayed (threads={threads})"
        );
        assert!(
            propagated(&warm_log) > 0,
            "propagation replayed (threads={threads})"
        );
        // Every class solve is one merged delta, propagation included, so
        // bias_gen's solver stats are the same cold and warm.
        for (report, log) in [(&cold, &cold_log), (&warm, &warm_log)] {
            let merged: u64 = log
                .iter()
                .filter(|e| e.key != gs_key)
                .map(|e| e.nr_solves)
                .sum();
            assert_eq!(class_solves(report), merged, "threads={threads}");
        }
        assert_eq!(propagated(&cold_log), propagated(&warm_log));
        bodies.push(format!("{cold:?}"));
        let _ = fs::remove_dir_all(&dir);
    }
    assert_eq!(bodies[0], bodies[1], "thread count");
}

#[test]
fn kill_mid_shard_worker_then_redispatch_merges_identically() {
    let fx = fixture();
    let cfg = config(2);
    let plain =
        run_macro_path_with_faults(&fx.harness, &cfg, &fx.collapsed, fx.area).expect("plain run");

    // Reference journal bytes: an uninterrupted single-process campaign.
    let dir_single = tmpdir("shard-single");
    campaign_run(&fx, &dir_single, 2, false, usize::MAX).expect("single");
    let single_journal =
        fs::read(dir_single.join("journal").join("comparator.jnl")).expect("single journal");

    let dir = tmpdir("shard-killed");
    let s0 = ShardSpec::new(0, 2).expect("shard 0/2");
    let s1 = ShardSpec::new(1, 2).expect("shard 1/2");

    // The first run of shard 0 dies after 3 of its 6 classes.
    match shard_run(&fx, &dir, 2, s0, 3) {
        Err(PathError::Aborted { completed }) => assert_eq!(completed, 3),
        other => panic!("expected abort, got {other:?}"),
    }
    let head = header(&fx, &cfg);
    let jdir = dir.join("journal");
    let seg0 = segment_path(&jdir, fx.harness.name(), s0);
    let torn = load_segment(&seg0, &head, s0);
    assert_eq!(torn.prefix_len(), 3, "segment keeps the killed prefix");
    assert_eq!(torn.fingerprint, None, "unsealed segment");
    let merged = merge_segments(&jdir, &head, 2);
    assert_eq!(
        merged.incomplete,
        vec![0, 1],
        "the merge names exactly the workers to (re-)run"
    );

    // Re-run shard 0 (replays the prefix, finishes, seals) and run
    // shard 1 at a different thread count.
    let r0 = shard_run(&fx, &dir, 2, s0, usize::MAX).expect("re-run shard 0");
    let r1 = shard_run(&fx, &dir, 1, s1, usize::MAX).expect("shard 1");
    let classes = classes_of(&fx, &cfg);
    assert_eq!(
        r0.outcomes.len() + r1.outcomes.len(),
        plain.outcomes.len(),
        "shard reports partition the class outcomes"
    );
    assert_eq!(
        load_segment(&seg0, &head, s0).fingerprint,
        Some(r0.fingerprint()),
        "sealed segment carries the shard-report fingerprint"
    );
    assert_eq!(s0.range(classes).len() + s1.range(classes).len(), classes);

    // Merge: fingerprint, journal bytes and solver totals all match the
    // uninterrupted single-process run.
    let merged_report = merge_run(&fx, &dir, 2, 2);
    assert_eq!(
        merged_report.fingerprint(),
        plain.fingerprint(),
        "merged report must be bit-identical to a single-process run"
    );
    assert_eq!(
        merged_report.solver_totals(),
        plain.solver_totals(),
        "solver-accounting totals survive the shard/merge round trip"
    );
    assert_eq!(
        fs::read(jdir.join("comparator.jnl")).expect("merged journal"),
        single_journal,
        "merged journal bytes must equal the single-process journal"
    );

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dir_single);
}

#[test]
fn any_workers_times_threads_combination_is_bit_identical() {
    let fx = fixture();
    let cfg = config(1);
    let plain =
        run_macro_path_with_faults(&fx.harness, &cfg, &fx.collapsed, fx.area).expect("plain run");
    let classes = classes_of(&fx, &cfg);

    // 3 workers × mixed thread counts, including an empty-range check
    // when shards outnumber a shard's classes unevenly.
    let dir = tmpdir("shard-matrix");
    for (index, threads) in [(0usize, 1usize), (1, 2), (2, 4)] {
        let shard = ShardSpec::new(index, 3).expect("shard");
        let report = shard_run(&fx, &dir, threads, shard, usize::MAX).expect("shard run");
        assert!(report.outcomes.len() >= shard.range(classes).len());
    }
    let merged = merge_run(&fx, &dir, 4, 3);
    assert_eq!(
        merged.fingerprint(),
        plain.fingerprint(),
        "3 workers × (1,2,4) threads must merge bit-identically"
    );
    let _ = fs::remove_dir_all(&dir);
}
