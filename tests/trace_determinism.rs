//! The observability layer's central contract: tracing is a **pure side
//! channel**. With `dotm_obs` recording every span, phase and counter, a
//! store-backed, journaled run must produce
//!
//! * the same report fingerprint,
//! * byte-identical journal files, and
//! * a byte-identical store tree
//!
//! as the same run with the recorder off — at any thread count. The trace
//! itself must export as valid NDJSON whose spans nest correctly.
//!
//! The recorder is a process-wide singleton, so the tests in this file
//! serialize on a mutex and always disable it before returning.

use dotm::core::harnesses::ComparatorHarness;
use dotm::core::{
    run_macro_path_with_faults, run_macro_path_with_faults_hooked, ClassObserver, ClassOutcome,
    ExecConfig, GoodSpaceConfig, MacroHarness, MacroReport, PipelineConfig, PipelineHooks,
};
use dotm::defects::{sprinkle_collapsed, CollapseReport, Sprinkler};
use dotm_store::{pipeline_context, DiskStore, JournalHeader, JournalWriter};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Serializes tests that toggle the global recorder.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        defects: 4_000,
        seed: 1995,
        goodspace: GoodSpaceConfig {
            common_samples: 2,
            mismatch_samples: 2,
            seed: 1995 ^ 0xD07,
            exec: ExecConfig::with_threads(threads),
            ..GoodSpaceConfig::default()
        },
        max_classes: Some(6),
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
    let area = layout
        .bbox()
        .map(|b| b.expanded(cfg.stats.size.xmax / 2))
        .map(|b| b.area() as f64)
        .unwrap_or(0.0);
    Fixture {
        harness,
        collapsed,
        area,
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dotm-trace-test-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// Journals every class; never aborts.
struct JournalingObserver {
    writer: Mutex<Option<JournalWriter>>,
}

impl ClassObserver for JournalingObserver {
    fn on_class(&self, index: usize, outcomes: &[ClassOutcome]) -> bool {
        self.writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
            .expect("journal open")
            .record_class(index, outcomes)
            .expect("journal write");
        true
    }
}

/// One store-backed, journaled run into `dir`.
fn campaign_run(fx: &Fixture, dir: &Path, threads: usize) -> MacroReport {
    let cfg = config(threads);
    let head = JournalHeader {
        context: pipeline_context(&fx.harness, &cfg),
        macro_name: fx.harness.name().to_string(),
        classes: fx
            .collapsed
            .class_count()
            .min(cfg.max_classes.unwrap_or(usize::MAX)),
    };
    let store = DiskStore::open(dir, head.context).expect("open store");
    let journal_path = dir.join("journal").join("comparator.jnl");
    let writer = JournalWriter::create(&journal_path, &head).expect("create journal");
    let observer = JournalingObserver {
        writer: Mutex::new(Some(writer)),
    };
    let hooks = PipelineHooks {
        store: Some(&store),
        observer: Some(&observer),
        completed: Vec::new(),
        shard: None,
    };
    let report =
        run_macro_path_with_faults_hooked(&fx.harness, &cfg, &fx.collapsed, fx.area, &hooks)
            .expect("macro path must run");
    observer
        .writer
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .expect("journal still open")
        .finish(report.fingerprint())
        .expect("seal journal");
    report
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
fn tracing_never_changes_a_persisted_byte() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fx = fixture();

    for threads in [1, 4] {
        let dir_off = tmpdir(&format!("off-{threads}"));
        dotm_obs::set_enabled(false);
        let off = campaign_run(&fx, &dir_off, threads);

        let dir_on = tmpdir(&format!("on-{threads}"));
        dotm_obs::reset();
        dotm_obs::set_enabled(true);
        let on = campaign_run(&fx, &dir_on, threads);
        dotm_obs::set_enabled(false);

        assert_eq!(
            on.fingerprint(),
            off.fingerprint(),
            "report fingerprint must not see the recorder (threads={threads})"
        );
        let a = snapshot(&dir_off);
        let b = snapshot(&dir_on);
        assert_eq!(
            a.iter().map(|(p, _)| p).collect::<Vec<_>>(),
            b.iter().map(|(p, _)| p).collect::<Vec<_>>(),
            "same store and journal files (threads={threads})"
        );
        for ((path, bytes_off), (_, bytes_on)) in a.iter().zip(&b) {
            assert_eq!(
                bytes_off, bytes_on,
                "{path} differs under tracing (threads={threads})"
            );
        }
        let _ = fs::remove_dir_all(&dir_off);
        let _ = fs::remove_dir_all(&dir_on);
    }
}

#[test]
fn exported_trace_is_valid_and_nested() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fx = fixture();
    let cfg = config(2);

    dotm_obs::reset();
    dotm_obs::set_enabled(true);
    run_macro_path_with_faults(&fx.harness, &cfg, &fx.collapsed, fx.area).expect("traced run");
    let ndjson = dotm_obs::render_ndjson();
    let chrome = dotm_obs::render_chrome();
    dotm_obs::set_enabled(false);

    let summary = dotm_obs::validate_ndjson(&ndjson).expect("exported NDJSON must validate");
    assert!(summary.spans > 0, "a pipeline run opens spans");
    assert!(summary.roots > 0);
    assert!(
        summary.spans > summary.roots,
        "macro/class/analysis spans nest below a root"
    );
    assert!(summary.phases > 0, "Newton/assembly/LU phases accumulate");
    assert!(chrome.starts_with("{\"traceEvents\":["));

    // The macro → class → analysis hierarchy is present by name.
    for needle in [
        "\"name\":\"macro comparator\"",
        "\"cat\":\"class\"",
        "\"cat\":\"analysis\"",
    ] {
        assert!(ndjson.contains(needle), "trace is missing {needle}");
    }
}
