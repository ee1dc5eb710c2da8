//! Concurrent journal reads: a reader loading a journal (or segment)
//! prefix while a writer appends and seals must always observe a valid
//! contiguous prefix — never a torn record, never an error.
//!
//! Two angles:
//!
//! * a **deterministic interleave** that appends each record in two raw
//!   byte halves and snapshots between the halves, proving the parser
//!   treats a half-written line as end-of-prefix;
//! * a **threaded race** where a real [`JournalWriter`] appends flushed
//!   records while a reader copies the live file as fast as it can and
//!   runs [`load_journal`] and [`journal_progress`] on each copy,
//!   asserting every observed prefix is monotonic and payload-exact.

use dotm_core::{ClassOutcome, CurrentFlags, DetectionSet, VoltageSignature};
use dotm_defects::FaultMechanism;
use dotm_faults::Severity;
use dotm_sim::SimStats;
use dotm_store::{journal_progress, load_journal, JournalHeader, JournalWriter};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dotm-concurrent-reads-{}-{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn outcome(i: usize) -> ClassOutcome {
    ClassOutcome {
        key: format!("class-{i}"),
        mechanism: FaultMechanism::Open,
        count: i + 1,
        severity: Severity::Catastrophic,
        shared: false,
        voltage: VoltageSignature::OutputStuckAt,
        currents: CurrentFlags::default(),
        detection: DetectionSet {
            missing_code: true,
            currents: CurrentFlags::default(),
        },
        flagged: vec![i],
        sim_failed: false,
        inject_failed: false,
        rung: Some(0),
        inject_errors: 0,
        excluded: false,
        solver: SimStats {
            nr_solves: i as u64,
            ..SimStats::default()
        },
    }
}

fn header(classes: usize) -> JournalHeader {
    JournalHeader {
        context: 0xcafe_f00d,
        macro_name: "comparator".into(),
        classes,
    }
}

/// Asserts one observed resume state is a valid prefix: contiguous
/// `Some` slots from class 0, each holding the exact payload the writer
/// recorded for that class.
fn assert_valid_prefix(path: &Path, expect: &JournalHeader) -> usize {
    let state = load_journal(path, expect);
    assert!(
        !state.context_mismatch,
        "a mid-write read must never misread the header as stale"
    );
    let mut prefix = 0;
    let mut in_prefix = true;
    for (i, slot) in state.completed.iter().enumerate() {
        match slot {
            Some(outcomes) if in_prefix => {
                assert_eq!(outcomes.len(), 1, "class {i} outcome count");
                assert_eq!(outcomes[0].count, i + 1, "class {i} payload");
                assert_eq!(outcomes[0].solver.nr_solves, i as u64, "class {i} stats");
                prefix += 1;
            }
            None => in_prefix = false,
            Some(_) => panic!("class {i} present after a gap — not a contiguous prefix"),
        }
    }
    let progress = journal_progress(path).expect("header written before any read");
    assert_eq!(progress.done, prefix, "snapshot and resume prefix agree");
    prefix
}

/// Deterministic torn-write interleave: every class record is appended
/// as two raw halves with reads between them. A reader must count the
/// record only after its final byte (including the newline) lands.
#[test]
fn half_written_records_never_enter_the_prefix() {
    let dir = tmpdir("interleave");
    let path = dir.join("comparator.jnl");
    let classes = 6;
    let expect = header(classes);

    // Render the canonical journal once, then replay its bytes by hand.
    let canonical = dir.join("canonical.jnl");
    let mut w = JournalWriter::create(&canonical, &expect).expect("create");
    for i in 0..classes {
        w.record_class(i, &[outcome(i)]).expect("record");
    }
    w.finish(0xabcd).expect("finish");
    let text = fs::read_to_string(&canonical).expect("read canonical");
    let lines: Vec<&str> = text.lines().collect();

    // Header first; before it lands the file is not a journal at all.
    let mut out = fs::File::create(&path).expect("create live file");
    assert_eq!(journal_progress(&path), None, "empty file has no header");
    writeln!(out, "{}", lines[0]).expect("header");
    out.flush().expect("flush");
    assert_eq!(assert_valid_prefix(&path, &expect), 0);

    for (i, line) in lines[1..=classes].iter().enumerate() {
        let (a, b) = line.split_at(line.len() / 2);
        out.write_all(a.as_bytes()).expect("first half");
        out.flush().expect("flush");
        assert_eq!(
            assert_valid_prefix(&path, &expect),
            i,
            "half-written record {i} must not count"
        );
        out.write_all(b.as_bytes()).expect("second half");
        out.flush().expect("flush");
        // Still torn: the newline has not landed, and the next read may
        // see the line glued to whatever follows. Without a trailing
        // newline the last line parses whole, which is also valid — the
        // record IS complete byte-wise. Accept i or i+1 here.
        let seen = assert_valid_prefix(&path, &expect);
        assert!(
            seen == i || seen == i + 1,
            "record {i}: prefix {seen} out of range"
        );
        out.write_all(b"\n").expect("newline");
        out.flush().expect("flush");
        assert_eq!(assert_valid_prefix(&path, &expect), i + 1);
    }

    // Seal in two halves too: the prefix stays complete-but-unsealed
    // until the fingerprint line lands.
    let seal = lines[classes + 1];
    let (a, b) = seal.split_at(seal.len() / 2);
    out.write_all(a.as_bytes()).expect("seal half");
    out.flush().expect("flush");
    let state = load_journal(&path, &expect);
    assert_eq!(state.prefix_len(), classes);
    assert_eq!(state.fingerprint, None, "torn seal carries no fingerprint");
    out.write_all(b.as_bytes()).expect("seal rest");
    out.write_all(b"\n").expect("newline");
    out.flush().expect("flush");
    let state = load_journal(&path, &expect);
    assert_eq!(state.fingerprint, Some(0xabcd));
    assert!(journal_progress(&path).expect("snapshot").sealed);

    let _ = fs::remove_dir_all(&dir);
}

/// Threaded race: a real writer appends flushed records while a reader
/// polls as fast as it can. Every observed prefix must be valid and the
/// sequence of observed lengths monotonic.
///
/// Each poll reads the live file once and checks a snapshot of those
/// bytes: run on the live file, the two readers inside
/// [`assert_valid_prefix`] would see two different moments of the
/// append stream and could disagree by the records landed in between.
#[test]
fn polling_reader_races_a_live_writer() {
    let dir = tmpdir("race");
    let path = dir.join("comparator.jnl");
    let snapshot = dir.join("snapshot.jnl");
    let classes = 200;
    let expect = header(classes);

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer_path = path.clone();
        let writer_expect = expect.clone();
        let done_ref = &done;
        scope.spawn(move || {
            let mut w = JournalWriter::create(&writer_path, &writer_expect).expect("create");
            for i in 0..classes {
                w.record_class(i, &[outcome(i)]).expect("record");
            }
            w.finish(0x5ea1).expect("finish");
            done_ref.store(true, Ordering::Release);
        });

        let mut last = 0usize;
        let mut observations = 0u64;
        loop {
            let sealed = done.load(Ordering::Acquire);
            // The file exists from `create` on, but it is a journal only
            // once its header line has fully landed.
            let bytes = fs::read(&path).unwrap_or_default();
            if bytes.contains(&b'\n') {
                fs::write(&snapshot, &bytes).expect("write snapshot");
                let prefix = assert_valid_prefix(&snapshot, &expect);
                assert!(
                    prefix >= last,
                    "prefix went backwards: {last} -> {prefix} (single writer, append-only)"
                );
                last = prefix;
                observations += 1;
            }
            if sealed {
                break;
            }
        }
        assert!(observations > 0, "the reader never observed the journal");
        let state = load_journal(&path, &expect);
        assert_eq!(state.prefix_len(), classes);
        assert_eq!(state.fingerprint, Some(0x5ea1));
    });

    let _ = fs::remove_dir_all(&dir);
}
