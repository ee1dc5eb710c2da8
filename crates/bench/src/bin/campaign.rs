//! The persistent campaign driver: runs all five macro test paths with
//! the on-disk measurement store and a per-macro checkpoint journal, then
//! compiles the global Fig. 4 detectability panels.
//!
//! ```text
//! campaign [--resume]              single-process campaign
//! campaign --shard i/N             one shard worker (classes i*C/N..(i+1)*C/N per macro)
//! campaign --merge --shards N      fold N shard segments into the canonical journal/report
//! campaign --serve ADDR            campaign service: HTTP job API over this store (dotm-serve)
//! ```
//!
//! Any other argument, or a flag the chosen mode does not take (such as
//! `--resume` with `--shard`), is a usage error. On one host the
//! parallelism is `DOTM_THREADS`; `--shard`/`--merge` exist to split a
//! campaign across hosts that share one store tree.
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
//!   uninterrupted run. A shard worker always resumes its own segment,
//!   so re-running a worker that died replays what it completed.
//! * `DOTM_ABORT_AFTER` — abort the campaign (via the in-order class
//!   observer, not a signal) after this many classes, campaign-wide: the
//!   deterministic stand-in for a kill that the resume gate scripts use.
//! * `DOTM_EXPECT_WARM` — `1` asserts the store answered every lookup:
//!   class measurements, the good space's Monte-Carlo record and
//!   bias_gen's propagation transients (`computed=0 misses=0`), at any
//!   `DOTM_THREADS`. Exits non-zero otherwise. The comparator's nominal
//!   measurement (the detection reference) replays with its good-space
//!   record; the other four macros' nominals still solve, because they
//!   are not stored (about 9 ms in all).
//! * `DOTM_MACROS` — comma-separated macro subset to run (campaign
//!   order is preserved regardless of the list's order; unknown names
//!   are a usage error). Give every worker and the merge the same
//!   subset, and a subset campaign shards and merges like the full one.
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
//! single-process run at any (shards × threads) combination. Mode
//! bookkeeping (per-shard fingerprints) goes to stderr to keep that
//! contract diffable with `cmp`.
//!
//! The store is the run's only measurement memo: the pipeline hands it
//! every lookup, and its in-memory overlay removes the duplicates inside
//! one run the way a store-less run's `MemoryStore` does.

use dotm_bench::{
    macro_harnesses, obs_finish, obs_fold_solver, obs_init, print_global_accounting, rule,
    standard_config,
};
use dotm_core::{
    run_macro_path_with_faults_hooked, sprinkle_macro, ClassObserver, ClassOutcome, FanoutObserver,
    GlobalReport, MacroHarness, MacroReport, PathError, PipelineConfig, PipelineHooks, ShardSpec,
};
use dotm_defects::CollapseReport;
use dotm_faults::Severity;
use dotm_serve::exit;
use dotm_store::{
    create_segment, load_journal, load_segment, merge_segments, pipeline_context, segment_path,
    DiskStore, JournalHeader, JournalWriter,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How this invocation participates in the campaign.
#[derive(Debug, PartialEq)]
enum Mode {
    /// Ordinary single-process campaign (optionally resuming).
    Single { resume: bool },
    /// One shard worker: evaluate `shard.range(classes)` per macro into
    /// a segment file, always resuming the segment's own prefix.
    Worker { shard: ShardSpec },
    /// Fold `shards` sealed segments per macro into the canonical
    /// journal and the standard campaign output.
    Merge { shards: usize },
    /// Long-lived campaign service: HTTP job API over this store
    /// (`dotm-serve`), running submitted jobs through this same binary.
    Serve { addr: String },
}

const USAGE: &str = "usage: campaign [--resume] | --shard i/N | --merge --shards N | --serve ADDR";

/// Parses the command line (without the program name). Every argument
/// must belong to exactly one mode; the message names the first that
/// does not.
fn parse_mode(args: &[String]) -> Result<Mode, String> {
    let (mut resume, mut merge) = (false, false);
    let (mut shard, mut shards, mut serve) = (None, None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let slot = match arg.as_str() {
            "--resume" if !resume => {
                resume = true;
                continue;
            }
            "--merge" if !merge => {
                merge = true;
                continue;
            }
            "--shard" => &mut shard,
            "--shards" => &mut shards,
            "--serve" => &mut serve,
            _ => return Err(format!("unexpected argument {arg:?}")),
        };
        if slot.is_some() {
            return Err(format!("{arg} given twice"));
        }
        *slot = Some(it.next().ok_or(format!("{arg} needs a value"))?);
    }
    match (resume, merge, shard, shards, serve) {
        (_, false, None, None, None) => Ok(Mode::Single { resume }),
        (false, false, Some(spec), None, None) => ShardSpec::parse(spec)
            .map(|shard| Mode::Worker { shard })
            .map_err(|e| format!("--shard {spec}: {e}")),
        (false, true, None, Some(n), None) => match n.parse() {
            Ok(shards) if shards > 0 => Ok(Mode::Merge { shards }),
            _ => Err(format!("--shards {n}: expected a positive integer")),
        },
        (false, true, None, None, None) => Err("--merge needs --shards N".into()),
        (false, false, None, None, Some(addr)) => Ok(Mode::Serve { addr: addr.clone() }),
        _ => Err(format!("{} do not combine", args.join(" "))),
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

/// One macro's precomputed identity: everything the run, worker and
/// merge paths need without re-running the pipeline.
struct MacroPrep {
    collapsed: CollapseReport,
    area: f64,
    header: JournalHeader,
}

fn prepare(harness: &dyn MacroHarness, cfg: &PipelineConfig) -> MacroPrep {
    let (collapsed, area) = sprinkle_macro(harness, cfg);
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
            // A worker always resumes its own segment: a re-run worker
            // replays its dead predecessor's prefix, and replay is
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

fn main() {
    let trace = obs_init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = parse_mode(&args).unwrap_or_else(|e| {
        eprintln!("campaign: {e}\n{USAGE}");
        std::process::exit(exit::USAGE);
    });
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
        // Only a single process takes `--resume`: a worker resumes its
        // segment by itself and a merge replays the sealed segments.
        let rerun = match &mode {
            Mode::Worker { shard } => format!("rerun --shard {shard}"),
            Mode::Merge { shards } => format!("rerun --merge --shards {shards}"),
            _ => "rerun with --resume".to_string(),
        };
        println!(
            "campaign aborted on request after {} classes — {rerun}",
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Mode, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_mode(&args)
    }

    #[test]
    fn each_mode_parses_from_its_own_flags() {
        assert_eq!(parse(""), Ok(Mode::Single { resume: false }));
        assert_eq!(parse("--resume"), Ok(Mode::Single { resume: true }));
        assert_eq!(
            parse("--shard 1/3"),
            Ok(Mode::Worker {
                shard: ShardSpec::new(1, 3).expect("1/3")
            })
        );
        assert_eq!(parse("--merge --shards 3"), Ok(Mode::Merge { shards: 3 }));
        assert_eq!(parse("--shards 3 --merge"), Ok(Mode::Merge { shards: 3 }));
        assert_eq!(
            parse("--serve 127.0.0.1:0"),
            Ok(Mode::Serve {
                addr: "127.0.0.1:0".into()
            })
        );
    }

    #[test]
    fn anything_else_is_a_usage_error() {
        for line in [
            // Unknown or misspelled arguments, including the retired
            // same-host coordinator's flag.
            "--resmue",
            "resume",
            "--workers 2",
            "--resume extra",
            // Missing, malformed or repeated values.
            "--shard",
            "--shard 2/2",
            "--shard x",
            "--serve",
            "--merge",
            "--merge --shards",
            "--merge --shards 0",
            "--merge --shards two",
            "--shard 0/2 --shard 1/2",
            "--resume --resume",
            // Flags the chosen mode does not take.
            "--resume --shard 0/2",
            "--resume --merge --shards 2",
            "--shards 2",
            "--shard 0/2 --merge --shards 2",
            "--shard 0/2 --shards 2",
            "--serve 127.0.0.1:0 --resume",
        ] {
            assert!(parse(line).is_err(), "{line:?} must be rejected");
        }
    }
}
