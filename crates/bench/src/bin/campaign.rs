//! The persistent campaign driver: runs all five macro test paths with
//! the on-disk measurement store and a per-macro checkpoint journal, then
//! compiles the global Fig. 4 detectability panels.
//!
//! ```text
//! campaign [--resume]              single-process campaign
//! campaign --shard i/N             one shard worker (classes i*C/N..(i+1)*C/N per macro)
//! campaign --merge [--shards N]    fold N shard segments into the canonical journal/report
//! campaign --workers N             coordinator: spawn N shard workers, re-dispatch, merge
//! campaign --serve ADDR            campaign service: HTTP job API over this store (dotm-serve)
//! ```
//!
//! ## Exit codes
//!
//! The campaign exits with the contract in `dotm_serve::exit` so
//! supervisors (the service, CI scripts) can branch on *codes*, never
//! on stderr text: `0` success, `2` usage, `3` stale/incomplete shard
//! data, `4` I/O, `5` interrupted at a resumable journal point
//! (`DOTM_ABORT_AFTER` or a service cancellation).
//!
//! Knobs (on top of the standard `DOTM_*` pipeline knobs):
//!
//! * `DOTM_STORE_DIR` — store root (default `dotm-store/`). Holds
//!   `meas/` (content-addressed measurement entries, shared across
//!   campaigns whose configuration matches) and `journal/` (one
//!   checkpoint journal per macro, plus per-shard segments).
//! * `--resume` — replay each macro's journaled class prefix instead of
//!   re-evaluating it, then continue. A campaign killed mid-macro and
//!   resumed produces bit-identical reports *and journals* to an
//!   uninterrupted run.
//! * `DOTM_SHARDS` / `DOTM_SHARD` — environment forms of `--shard i/N`
//!   (`DOTM_SHARD=i DOTM_SHARDS=N`) and `--merge --shards N`
//!   (`DOTM_SHARDS=N` alone), for launching workers across hosts
//!   against a shared store tree without touching the command line.
//! * `DOTM_SHARD_RETRIES` — extra dispatch rounds the coordinator runs
//!   for shards whose segments come back missing, short or unsealed
//!   (default 2). Workers always resume their own segment prefix, so a
//!   re-dispatched shard replays what its predecessor completed.
//! * `DOTM_SHARD_ABORT_ONCE` — coordinator test knob: inject
//!   `DOTM_ABORT_AFTER=<n>` into every *first-round* worker, so each
//!   first attempt dies mid-shard and the re-dispatch machinery is
//!   exercised deterministically.
//! * `DOTM_ABORT_AFTER` — abort the campaign (via the in-order class
//!   observer, not a signal) after this many classes, campaign-wide: the
//!   deterministic stand-in for a kill that the resume gate scripts use.
//! * `DOTM_EXPECT_WARM` — `1` asserts the run never touched the solver:
//!   every measurement must come from the store (`computed=0`), at any
//!   `DOTM_THREADS`. Exits non-zero otherwise.
//! * `DOTM_MACROS` — comma-separated macro subset to run (campaign
//!   order is preserved regardless of the list's order; unknown names
//!   are a usage error). Inherited by shard workers, so a subset
//!   campaign shards and merges like the full one.
//! * `DOTM_PROGRESS` — emit one `[progress] macro=<m> class=<d>/<t>`
//!   line to stderr per completed class; the service parses these into
//!   its NDJSON event stream. Stderr only — never a report byte.
//! * `DOTM_TRACE` / `DOTM_TRACE_DIR` — per-phase wall-clock profile on
//!   stderr plus NDJSON and chrome://tracing exports (see the crate
//!   docs). Stdout and every persisted byte stay identical either way.
//!
//! ## Sharded byte-identity
//!
//! A shard worker evaluates only its contiguous class range per macro
//! and checkpoints it into `journal/<macro>.shard-<i>-of-<N>.jnl`. The
//! merge step verifies every segment header and record checksum, folds
//! the ranges in class order and *replays* them through the ordinary
//! pipeline path — so its stdout, `journal/<macro>.jnl` bytes, report
//! fingerprints and solver-accounting totals are identical to a
//! single-process run at any (workers × threads) combination. Mode
//! bookkeeping (worker spawning, per-shard fingerprints, re-dispatch)
//! goes to stderr to keep that contract diffable with `cmp`.
//!
//! The store is the run's only measurement memo: the pipeline hands it
//! every lookup, and its in-memory overlay removes the duplicates inside
//! one run the way a store-less run's `MemoryStore` does.

use dotm_bench::{
    macro_harnesses, obs_finish, obs_fold_solver, obs_init, print_global_accounting, rule,
    standard_config,
};
use dotm_core::{
    run_macro_path_with_faults_hooked, ClassObserver, ClassOutcome, FanoutObserver, GlobalReport,
    MacroHarness, MacroReport, PathError, PipelineConfig, PipelineHooks, ShardSpec,
};
use dotm_defects::{sprinkle_collapsed, CollapseReport, Sprinkler};
use dotm_faults::Severity;
use dotm_serve::exit;
use dotm_store::{
    create_segment, load_journal, load_segment, merge_segments, pipeline_context, segment_path,
    DiskStore, JournalHeader, JournalWriter,
};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How this invocation participates in the campaign.
enum Mode {
    /// Ordinary single-process campaign (optionally resuming).
    Single { resume: bool },
    /// One shard worker: evaluate `shard.range(classes)` per macro into
    /// a segment file, always resuming the segment's own prefix.
    Worker { shard: ShardSpec },
    /// Fold `shards` sealed segments per macro into the canonical
    /// journal and the standard campaign output.
    Merge { shards: usize },
    /// Spawn `workers` shard subprocesses, re-dispatch incomplete
    /// shards, then merge.
    Coordinator { workers: usize },
    /// Long-lived campaign service: HTTP job API over this store
    /// (`dotm-serve`), running submitted jobs through this same binary.
    Serve { addr: String },
}

fn parse_mode() -> Mode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("campaign: {flag} needs a value");
                std::process::exit(2);
            })
        })
    };
    if let Some(addr) = flag_value("--serve") {
        return Mode::Serve { addr: addr.clone() };
    }
    if let Some(n) = flag_value("--workers") {
        let workers: usize = n.parse().unwrap_or_else(|_| {
            eprintln!("campaign: --workers {n}: expected a positive integer");
            std::process::exit(2);
        });
        if workers == 0 {
            eprintln!("campaign: --workers 0: expected at least one worker");
            std::process::exit(2);
        }
        return Mode::Coordinator { workers };
    }
    if args.iter().any(|a| a == "--merge") {
        let shards = flag_value("--shards")
            .map(|n| {
                n.parse().unwrap_or_else(|_| {
                    eprintln!("campaign: --shards {n}: expected a positive integer");
                    std::process::exit(2);
                })
            })
            .or_else(dotm_core::env::shards)
            .unwrap_or_else(|| {
                eprintln!("campaign: --merge needs --shards N (or DOTM_SHARDS)");
                std::process::exit(2);
            });
        return Mode::Merge { shards };
    }
    if let Some(spec) = flag_value("--shard") {
        let shard = ShardSpec::parse(spec).unwrap_or_else(|e| {
            eprintln!("campaign: --shard {spec}: {e}");
            std::process::exit(2);
        });
        return Mode::Worker { shard };
    }
    match (dotm_core::env::shard(), dotm_core::env::shards()) {
        (Some(index), Some(count)) => {
            let shard = ShardSpec::new(index, count).unwrap_or_else(|e| {
                eprintln!("campaign: DOTM_SHARD/DOTM_SHARDS: {e}");
                std::process::exit(2);
            });
            Mode::Worker { shard }
        }
        (Some(_), None) => {
            eprintln!("campaign: DOTM_SHARD without DOTM_SHARDS");
            std::process::exit(2);
        }
        _ => Mode::Single {
            resume: args.iter().any(|a| a == "--resume"),
        },
    }
}

/// Journals every completed class and injects the deterministic abort.
struct CampaignObserver {
    writer: Mutex<Option<JournalWriter>>,
    /// Classes completed campaign-wide (shared across macros).
    completed: AtomicU64,
    abort_after: Option<u64>,
}

impl ClassObserver for CampaignObserver {
    fn on_class(&self, index: usize, outcomes: &[ClassOutcome]) -> bool {
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        writer
            .as_mut()
            .expect("journal open while classes run")
            .record_class(index, outcomes)
            .expect("journal write must succeed (checkpoint contract)");
        let done = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        self.abort_after.map_or(true, |n| done < n)
    }
}

/// Emits one `[progress] macro=<m> class=<done>/<total>` line to stderr
/// per completed class (under `DOTM_PROGRESS`). The campaign service
/// parses these into its NDJSON event stream. Pure side channel: stderr
/// only, never a vote against continuing, never a report byte.
struct ProgressObserver {
    macro_name: String,
    total: usize,
    done: AtomicU64,
}

impl ClassObserver for ProgressObserver {
    fn on_class(&self, _index: usize, _outcomes: &[ClassOutcome]) -> bool {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!(
            "[progress] macro={} class={done}/{}",
            self.macro_name, self.total
        );
        true
    }
}

/// One macro's precomputed identity: everything the coordinator, merge
/// and run paths need without re-running the pipeline.
struct MacroPrep {
    collapsed: CollapseReport,
    area: f64,
    header: JournalHeader,
}

fn prepare(harness: &dyn MacroHarness, cfg: &PipelineConfig) -> MacroPrep {
    let layout = harness.layout();
    let sprinkler = Sprinkler::new(&layout, cfg.stats.clone());
    let collapsed = sprinkle_collapsed(&sprinkler, cfg.defects, cfg.seed);
    let area = sprinkler.area_nm2();
    let classes = match cfg.max_classes {
        Some(n) => collapsed.class_count().min(n),
        None => collapsed.class_count(),
    };
    MacroPrep {
        collapsed,
        area,
        header: JournalHeader {
            context: pipeline_context(harness, cfg),
            macro_name: harness.name().to_string(),
            classes,
        },
    }
}

fn journal_dir(store_dir: &Path) -> PathBuf {
    store_dir.join("journal")
}

struct MacroRun {
    report: MacroReport,
    counters: dotm_store::StoreCounters,
    seconds: f64,
    /// A structurally valid journal/segment was ignored because its
    /// header disagrees with the current context (a knob changed).
    context_mismatch: bool,
}

/// Runs one macro's journaled, store-backed path. `Ok(None)` means the
/// observer aborted the campaign (the journal keeps the prefix).
fn run_macro(
    harness: &dyn MacroHarness,
    cfg: &PipelineConfig,
    prep: &MacroPrep,
    store_dir: &Path,
    observer: &CampaignObserver,
    mode: &Mode,
) -> std::io::Result<Option<MacroRun>> {
    let store = DiskStore::open(store_dir, prep.header.context)?;
    let jdir = journal_dir(store_dir);
    let journal_path = jdir.join(format!("{}.jnl", harness.name()));

    let mut context_mismatch = false;
    let (completed, writer, shard) = match mode {
        Mode::Single { resume } => {
            let completed = if *resume {
                let state = load_journal(&journal_path, &prep.header);
                context_mismatch = state.context_mismatch;
                if state.prefix_len() > 0 {
                    eprintln!(
                        "[campaign] {}: resuming {} of {} classes from the journal",
                        harness.name(),
                        state.prefix_len(),
                        prep.header.classes,
                    );
                }
                state.completed
            } else {
                Vec::new()
            };
            // The journal is rewritten from scratch either way: replayed
            // classes re-emit byte-identical records, so a resumed
            // journal ends up indistinguishable from an uninterrupted
            // one.
            let writer = JournalWriter::create(&journal_path, &prep.header)?;
            (completed, writer, None)
        }
        Mode::Worker { shard } => {
            // A worker always resumes its own segment: a re-dispatched
            // shard replays its dead predecessor's prefix, and replay is
            // canonical so an intact segment is rewritten byte-for-byte.
            let seg = segment_path(&jdir, harness.name(), *shard);
            let state = load_segment(&seg, &prep.header, *shard);
            context_mismatch = state.context_mismatch;
            if state.prefix_len() > 0 {
                eprintln!(
                    "[campaign] {}: shard {shard} resuming {} of {} classes",
                    harness.name(),
                    state.prefix_len(),
                    shard.range(prep.header.classes).len(),
                );
            }
            let writer = create_segment(&seg, &prep.header, *shard)?;
            (state.completed, writer, Some(*shard))
        }
        Mode::Merge { shards } => {
            let merged = merge_segments(&jdir, &prep.header, *shards);
            context_mismatch = !merged.context_mismatches.is_empty();
            if !merged.is_complete() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{}: shards {:?} incomplete — re-run those workers before merging",
                        harness.name(),
                        merged.incomplete
                    ),
                ));
            }
            for (i, fp) in merged.shard_fingerprints.iter().enumerate() {
                let fp = fp.expect("complete merge has every shard fingerprint");
                eprintln!(
                    "[campaign] {}: shard {i}/{shards} fingerprint={fp:016x}",
                    harness.name()
                );
            }
            // The merge replays every class through the ordinary path
            // into the canonical whole-macro journal: bytes, fingerprint
            // and accounting land exactly where a single-process run
            // puts them.
            let writer = JournalWriter::create(&journal_path, &prep.header)?;
            (merged.completed, writer, None)
        }
        Mode::Coordinator { .. } => unreachable!("coordinator delegates to Merge"),
        Mode::Serve { .. } => unreachable!("serve mode never runs macros in-process"),
    };

    if context_mismatch {
        println!(
            "  {:<16} journal: context mismatch (ignored)",
            harness.name()
        );
    }

    *observer.writer.lock().unwrap_or_else(|e| e.into_inner()) = Some(writer);

    // Under DOTM_PROGRESS the journal observer gains a stderr sibling
    // through the fanout; both see every class, and only the journal
    // observer ever votes to abort.
    let progress = dotm_core::env::progress().then(|| ProgressObserver {
        macro_name: harness.name().to_string(),
        total: match &shard {
            Some(s) => s.range(prep.header.classes).len(),
            None => prep.header.classes,
        },
        done: AtomicU64::new(0),
    });
    let fanout;
    let class_observer: &dyn ClassObserver = match &progress {
        Some(p) => {
            fanout = FanoutObserver::new(vec![observer, p]);
            &fanout
        }
        None => observer,
    };

    let hooks = PipelineHooks {
        store: Some(&store),
        observer: Some(class_observer),
        completed,
        shard,
    };
    let t0 = Instant::now();
    match run_macro_path_with_faults_hooked(harness, cfg, &prep.collapsed, prep.area, &hooks) {
        Ok(report) => {
            let writer = observer
                .writer
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("journal still open");
            writer.finish(report.fingerprint())?;
            Ok(Some(MacroRun {
                report,
                counters: store.counters(),
                seconds: t0.elapsed().as_secs_f64(),
                context_mismatch,
            }))
        }
        Err(PathError::Aborted { completed }) => {
            eprintln!(
                "[campaign] {}: aborted after {completed} classes (journal keeps the prefix)",
                harness.name()
            );
            Ok(None)
        }
        Err(e) => panic!("macro path must run: {e}"),
    }
}

/// Spawns shard workers for `needed`, waits for all, and forwards their
/// stdout/stderr to the coordinator's stderr (worker chatter must never
/// reach the byte-identity-checked stdout).
fn dispatch_round(
    workers: usize,
    needed: &[usize],
    abort_after: Option<u64>,
) -> std::io::Result<()> {
    let exe = std::env::current_exe()?;
    let mut children = Vec::new();
    for &index in needed {
        let mut cmd = Command::new(&exe);
        cmd.arg("--shard")
            .arg(format!("{index}/{workers}"))
            // The worker derives everything else from the inherited
            // environment; the coordinator-only and injection knobs must
            // not leak through.
            .env_remove("DOTM_ABORT_AFTER")
            .env_remove("DOTM_EXPECT_WARM")
            .env_remove("DOTM_SHARD")
            .env_remove("DOTM_SHARDS")
            .env_remove("DOTM_SHARD_ABORT_ONCE")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(n) = abort_after {
            cmd.env("DOTM_ABORT_AFTER", n.to_string());
        }
        children.push((index, cmd.spawn()?));
    }
    for (index, child) in children {
        let out = child.wait_with_output()?;
        for line in String::from_utf8_lossy(&out.stdout)
            .lines()
            .chain(String::from_utf8_lossy(&out.stderr).lines())
        {
            eprintln!("[worker {index}/{workers}] {line}");
        }
        if !out.status.success() {
            // Classified from the code alone (exit-code contract) — the
            // coordinator never string-matches worker stderr.
            let class = exit::classify(out.status.code()).map_or("unknown", |c| c.name());
            eprintln!(
                "[campaign] worker {index}/{workers} exited with {} ({class})",
                out.status
            );
        }
    }
    Ok(())
}

/// Shards whose segment for any macro is missing, short or unsealed.
fn incomplete_shards(preps: &[MacroPrep], store_dir: &Path, workers: usize) -> Vec<usize> {
    let jdir = journal_dir(store_dir);
    let mut needed: Vec<usize> = Vec::new();
    for prep in preps {
        for index in merge_segments(&jdir, &prep.header, workers).incomplete {
            if !needed.contains(&index) {
                needed.push(index);
            }
        }
    }
    needed.sort_unstable();
    needed
}

/// Coordinator loop: dispatch every shard, then re-dispatch whatever
/// came back incomplete (bounded rounds), reaping dead workers' temp
/// files between rounds. Returns whether every shard sealed.
fn coordinate(preps: &[MacroPrep], store_dir: &Path, workers: usize) -> std::io::Result<bool> {
    let retries = dotm_core::env::shard_retries();
    let abort_once = dotm_core::env::shard_abort_once();
    for round in 0..=retries {
        let needed = incomplete_shards(preps, store_dir, workers);
        if needed.is_empty() {
            break;
        }
        // No worker is live between rounds, so staging files left by
        // crashed writers are safe to reap.
        let reaped = dotm_store::reap_temp_files(store_dir)?;
        if reaped > 0 {
            eprintln!("[campaign] reaped {reaped} stale temp files");
        }
        eprintln!(
            "[campaign] round {round}: dispatching {} of {workers} shards: {needed:?}",
            needed.len()
        );
        dispatch_round(workers, &needed, abort_once.filter(|_| round == 0))?;
    }
    Ok(incomplete_shards(preps, store_dir, workers).is_empty())
}

fn main() {
    let trace = obs_init();
    let mode = parse_mode();
    let store_dir = dotm_core::env::store_dir().unwrap_or_else(|| PathBuf::from("dotm-store"));
    let abort_after = dotm_core::env::abort_after();
    let expect_warm = dotm_core::env::expect_warm();

    // Service mode: the binary becomes the job server and runs
    // submitted campaigns by re-spawning itself.
    if let Mode::Serve { addr } = &mode {
        let exe = std::env::current_exe().unwrap_or_else(|e| {
            eprintln!("campaign: --serve: cannot locate own binary: {e}");
            std::process::exit(exit::IO);
        });
        let runner = dotm_serve::SubprocessRunner::new(exe, store_dir.clone());
        if let Err(e) = dotm_serve::serve(addr, store_dir, Box::new(runner)) {
            eprintln!("campaign: --serve {addr}: {e}");
            std::process::exit(exit::io_exit_code(&e));
        }
        return;
    }

    let cfg = standard_config();

    let all = macro_harnesses(false);
    let harnesses = match dotm_core::env::macros() {
        Some(selection) => {
            for name in &selection {
                if !all.iter().any(|h| h.name() == name.as_str()) {
                    eprintln!(
                        "campaign: DOTM_MACROS: unknown macro {name:?} (know: {})",
                        all.iter().map(|h| h.name()).collect::<Vec<_>>().join(", ")
                    );
                    std::process::exit(exit::USAGE);
                }
            }
            // Campaign order, not request order: the subset must report
            // in the same sequence the full campaign would.
            all.into_iter()
                .filter(|h| selection.iter().any(|n| n.as_str() == h.name()))
                .collect()
        }
        None => all,
    };

    // Coordinator: drive the workers, then fall through to the merge.
    let mode = match mode {
        Mode::Coordinator { workers } => {
            eprintln!("[campaign] coordinating {workers} shard workers");
            let preps: Vec<MacroPrep> = harnesses
                .iter()
                .map(|h| prepare(h.as_ref(), &cfg))
                .collect();
            let complete = coordinate(&preps, &store_dir, workers).unwrap_or_else(|e| {
                eprintln!("campaign: coordinator: {e}");
                std::process::exit(exit::io_exit_code(&e));
            });
            if !complete {
                eprintln!(
                    "[campaign] shards still incomplete after all retries — \
                     inspect the segments under {}",
                    journal_dir(&store_dir).display()
                );
                std::process::exit(exit::STALE_SHARD);
            }
            Mode::Merge { shards: workers }
        }
        other => other,
    };

    match &mode {
        Mode::Single { resume } => println!(
            "persistent campaign: {} defects/macro, store at {}{}",
            cfg.defects,
            store_dir.display(),
            if *resume { ", resuming" } else { "" }
        ),
        Mode::Worker { shard } => {
            println!(
                "persistent campaign: {} defects/macro, store at {}, shard {shard}",
                cfg.defects,
                store_dir.display(),
            );
        }
        // The merged stdout must be byte-identical to the single-process
        // campaign; the mode announcement goes to stderr.
        Mode::Merge { shards } => {
            eprintln!("[campaign] merging {shards} shard segments");
            println!(
                "persistent campaign: {} defects/macro, store at {}",
                cfg.defects,
                store_dir.display(),
            );
        }
        Mode::Coordinator { .. } => unreachable!("rewritten to Merge above"),
        Mode::Serve { .. } => unreachable!("serve mode returned above"),
    }

    let observer = CampaignObserver {
        writer: Mutex::new(None),
        completed: AtomicU64::new(0),
        abort_after,
    };

    let campaign_span = dotm_obs::span("campaign", "campaign");
    let mut runs: Vec<MacroRun> = Vec::new();
    let mut aborted = false;
    for harness in &harnesses {
        let prep = prepare(harness.as_ref(), &cfg);
        let outcome = run_macro(harness.as_ref(), &cfg, &prep, &store_dir, &observer, &mode)
            .unwrap_or_else(|e| {
                // Incomplete shard segments surface as InvalidData and
                // exit 3; everything else is plain I/O and exits 4.
                eprintln!("campaign: {}: {e}", harness.name());
                std::process::exit(exit::io_exit_code(&e));
            });
        match outcome {
            Some(run) => {
                // Wall-clock goes to stderr: the stdout report is a pure
                // function of (configuration, store state), which is what
                // lets the service's HTTP report gate demand full byte
                // identity with a plain CLI run.
                eprintln!("[campaign] {}: {:.1}s", run.report.name, run.seconds);
                println!(
                    "  {:<16} {:>4} faults / {:>3} classes  \
                     store: loads={} hits={} misses={} computed={} fingerprint={:016x}",
                    run.report.name,
                    run.report.total_faults,
                    run.report.class_count,
                    run.counters.loads,
                    run.counters.hits(),
                    run.counters.misses,
                    run.counters.computed,
                    run.report.fingerprint(),
                );
                runs.push(run);
            }
            None => {
                aborted = true;
                break;
            }
        }
    }

    drop(campaign_span);

    if aborted {
        println!(
            "campaign aborted on request after {} classes — rerun with --resume",
            observer.completed.load(Ordering::Relaxed)
        );
        obs_finish("campaign");
        // Interrupted-at-a-resumable-point is its own exit code so
        // supervisors (the service, the verify gates) can requeue
        // without parsing output.
        std::process::exit(exit::INTERRUPTED);
    }

    let mut totals = dotm_store::StoreCounters::default();
    let mut context_mismatches = 0u64;
    for run in &runs {
        totals.loads += run.counters.loads;
        totals.mem_hits += run.counters.mem_hits;
        totals.disk_hits += run.counters.disk_hits;
        totals.misses += run.counters.misses;
        totals.computed += run.counters.computed;
        totals.write_errors += run.counters.write_errors;
        context_mismatches += u64::from(run.context_mismatch);
    }
    println!(
        "campaign store accounting: loads={} mem_hits={} disk_hits={} misses={} \
         computed={} write_errors={} context_mismatches={} hit_rate={:.1}%",
        totals.loads,
        totals.mem_hits,
        totals.disk_hits,
        totals.misses,
        totals.computed,
        totals.write_errors,
        context_mismatches,
        totals.hit_pct(),
    );

    if let Mode::Worker { shard } = &mode {
        // A worker's partial data cannot feed the global figures; it
        // reports its shard fingerprints (sealed into the segments) and
        // stops here.
        println!(
            "shard {shard} complete: {} macro segments sealed",
            runs.len()
        );
        obs_finish("campaign");
        return;
    }

    // Occupancy is a sorted deterministic walk: the same campaign
    // configuration yields the same line whether the tree was written by
    // one process or by N workers, on any filesystem.
    let occ = dotm_store::occupancy(&store_dir).expect("store directory must be readable");
    println!(
        "campaign store occupancy: entries={} bytes={} name_digest={:016x}",
        occ.entries, occ.bytes, occ.name_digest,
    );

    let global = GlobalReport::new(runs.into_iter().map(|r| r.report).collect());
    println!();
    println!("Fig 4 (from the persistent campaign): global detectability");
    for (label, severity) in [
        ("a — catastrophic", Severity::Catastrophic),
        ("b — non-catastrophic", Severity::NonCatastrophic),
    ] {
        let d = global.detectability(severity);
        println!("({label})");
        println!("  voltage detectable:   {:>5.1}%", d.voltage_pct);
        println!("  current detectable:   {:>5.1}%", d.current_pct);
        println!("  total fault coverage: {:>5.1}%", d.coverage_pct);
    }
    rule(72);
    print_global_accounting(&global);

    if trace {
        for (name, value) in [
            ("store.loads", totals.loads),
            ("store.mem_hits", totals.mem_hits),
            ("store.disk_hits", totals.disk_hits),
            ("store.misses", totals.misses),
            ("store.computed", totals.computed),
            ("store.write_errors", totals.write_errors),
        ] {
            if value > 0 {
                dotm_obs::counter(name, value);
            }
        }
        obs_fold_solver(&global.solver_totals());
    }
    obs_finish("campaign");

    if expect_warm && (totals.computed > 0 || totals.misses > 0) {
        eprintln!(
            "DOTM_EXPECT_WARM: the store was supposed to answer everything, \
             but computed={} misses={}",
            totals.computed, totals.misses
        );
        std::process::exit(1);
    }
}
