//! The campaign journal: an append-only, line-oriented checkpoint of
//! per-macro progress, and its shard *segments*.
//!
//! One journal file per macro, three record shapes (flat JSON, written
//! and parsed by hand — no serde):
//!
//! ```text
//! {"dotm_journal":1,"context":"<32 hex>","macro":"comparator","classes":417}
//! {"class":0,"crc":"<16 hex>","data":"<hex payload>"}
//! ...
//! {"done":true,"fingerprint":"<16 hex>"}
//! ```
//!
//! The header pins the campaign context fingerprint and the class count;
//! a journal whose header disagrees with the current configuration is
//! ignored wholesale (the campaign starts cold and overwrites it).
//! Class records carry the binary outcome payload hex-encoded with a
//! FNV-64 checksum; they are written strictly in class order, so the
//! resumable state is the longest contiguous prefix of valid records —
//! a torn or corrupt line only shortens it. The `done` record seals the
//! journal with the final report fingerprint.
//!
//! On resume the campaign rewrites the journal from scratch while the
//! pipeline replays the prefix verbatim; because the encoding is
//! canonical, a resumed journal is byte-identical to an uninterrupted
//! one.
//!
//! ## Segments
//!
//! A sharded campaign splits a macro's class population into contiguous
//! ranges (see [`ShardSpec`]) and hands each range to one worker
//! process. A *segment* is a journal over one such range, in a file of
//! its own, so workers never contend on a shared journal:
//!
//! ```text
//! journal/comparator.shard-0-of-4.jnl
//! journal/comparator.shard-1-of-4.jnl
//! ...
//! ```
//!
//! Its header is a journal header plus the shard coordinates:
//!
//! ```text
//! {"dotm_journal":1,"context":"<32 hex>","macro":"comparator","classes":417,"shard":1,"shards":4}
//! ```
//!
//! Class records cover `range.start..range.end` in order; the seal's
//! fingerprint is the *shard report* fingerprint (the pipeline run
//! restricted to the shard's classes). One header parser reads both
//! kinds, but [`load_journal`] refuses a segment file and
//! [`load_segment`] refuses a whole-macro journal, so neither can
//! masquerade as the other.
//!
//! [`merge_segments`] folds all segments of one macro in shard order,
//! verifying every per-record checksum and every context header, and
//! reports exactly which shards are missing, short or stale — the
//! workers to re-run before merging again. A complete merge yields
//! the full completed-class vector, from which the merge step replays
//! the canonical single-process journal and report byte-for-byte.

use crate::entry::{decode_outcomes, encode_outcomes};
use crate::wire::{from_hex, json_field, to_hex};
use dotm_core::fnv::fnv64;
use dotm_core::{ClassOutcome, ShardSpec};
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Identity of one macro's journal: the campaign context and the class
/// population it checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Campaign context fingerprint (see
    /// [`pipeline_context`](crate::pipeline_context)).
    pub context: u128,
    /// Macro name.
    pub macro_name: String,
    /// Number of classes the run will evaluate (after any truncation).
    pub classes: usize,
}

impl JournalHeader {
    /// The header line of a journal, or of a segment when `shard` is set.
    fn to_line(&self, shard: Option<ShardSpec>) -> String {
        let mut line = format!(
            "{{\"dotm_journal\":1,\"context\":\"{:032x}\",\"macro\":\"{}\",\"classes\":{}",
            self.context, self.macro_name, self.classes
        );
        if let Some(s) = shard {
            line.push_str(&format!(",\"shard\":{},\"shards\":{}", s.index, s.count));
        }
        line.push('}');
        line
    }
}

/// The classes a file records: all of them for a journal, the shard's
/// range for a segment.
fn class_range(classes: usize, shard: Option<ShardSpec>) -> Range<usize> {
    shard.map_or(0..classes, |s| s.range(classes))
}

/// Parses a header line of either kind: the journal header, plus the
/// shard for a segment. A line with only one of `"shard"`/`"shards"`, or
/// an invalid shard, is no header.
fn parse_header(line: &str) -> Option<(JournalHeader, Option<ShardSpec>)> {
    if json_field(line, "dotm_journal")? != "1" {
        return None;
    }
    let shard = match (json_field(line, "shard"), json_field(line, "shards")) {
        (None, None) => None,
        (Some(i), Some(n)) => Some(ShardSpec::new(i.parse().ok()?, n.parse().ok()?).ok()?),
        _ => return None,
    };
    let header = JournalHeader {
        context: u128::from_str_radix(json_field(line, "context")?, 16).ok()?,
        macro_name: json_field(line, "macro")?.to_string(),
        classes: json_field(line, "classes")?.parse().ok()?,
    };
    Some((header, shard))
}

/// Parses one class record; `None` on any malformation.
fn parse_class(line: &str) -> Option<(usize, Vec<ClassOutcome>)> {
    let index: usize = json_field(line, "class")?.parse().ok()?;
    let crc = u64::from_str_radix(json_field(line, "crc")?, 16).ok()?;
    let payload = from_hex(json_field(line, "data")?)?;
    if fnv64(&payload) != crc {
        return None;
    }
    Some((index, decode_outcomes(&payload)?))
}

/// Scans the lines after a header for the records of `range`: the
/// outcomes of the longest contiguous in-order prefix of valid records,
/// and the seal's fingerprint when that prefix is the whole range. The
/// first gap, duplicate or corrupt record ends the prefix. A seal cut
/// short inside its 16 hex digits is no seal.
fn scan_records<'a>(
    lines: impl Iterator<Item = &'a str>,
    range: Range<usize>,
) -> (Vec<Vec<ClassOutcome>>, Option<u64>) {
    let mut prefix = Vec::new();
    for line in lines {
        let next = range.start + prefix.len();
        match parse_class(line) {
            Some((index, outcomes)) if index == next && index < range.end => prefix.push(outcomes),
            Some(_) => break,
            None => {
                let seal = json_field(line, "fingerprint")
                    .filter(|f| next == range.end && f.len() == 16)
                    .and_then(|f| u64::from_str_radix(f, 16).ok());
                return (prefix, seal);
            }
        }
    }
    (prefix, None)
}

/// What a journal on disk resumes: the contiguous prefix of completed
/// classes and, when sealed, the final report fingerprint.
#[derive(Debug, Default)]
pub struct ResumeState {
    /// Completed outcomes indexed by class, `Some` for the contiguous
    /// prefix — exactly the shape `PipelineHooks::completed` wants.
    pub completed: Vec<Option<Vec<ClassOutcome>>>,
    /// Final fingerprint, present only on a sealed (completed) journal.
    pub fingerprint: Option<u64>,
    /// `true` when the file held a structurally valid journal whose
    /// header disagrees with the expected one (different context, macro
    /// or class count). The prefix is still empty — the journal is
    /// ignored wholesale — but the caller can now tell "a knob changed
    /// since this journal was written" apart from "cold start, no
    /// journal", and account for it explicitly instead of silently
    /// re-evaluating everything.
    pub context_mismatch: bool,
}

impl ResumeState {
    /// Number of resumable classes.
    pub fn prefix_len(&self) -> usize {
        self.completed.iter().filter(|c| c.is_some()).count()
    }
}

/// A read-only snapshot of one journal or segment file's progress, taken
/// without knowing the expected campaign context.
///
/// This is the service surface's window into a *running* campaign: the
/// writer appends whole flushed lines, so a reader that stops at the
/// first record whose checksum does not hold always observes a valid
/// contiguous prefix — a torn tail shortens the snapshot, it never
/// corrupts it (the `concurrent_reads` test suite pins this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalProgress {
    /// Macro name from the header.
    pub macro_name: String,
    /// Total classes of the macro (after truncation); a segment records
    /// only its shard's [`range`](ShardSpec::range) of them.
    pub classes: usize,
    /// The shard of a segment, `None` for a whole-macro journal.
    pub shard: Option<ShardSpec>,
    /// Whole class records observed, in order, checksum-valid.
    pub done: usize,
    /// `true` once the seal record (with its fingerprint) is present
    /// after a complete record range.
    pub sealed: bool,
    /// The sealed report fingerprint, present only when [`sealed`].
    ///
    /// [`sealed`]: JournalProgress::sealed
    pub fingerprint: Option<u64>,
}

/// Parses a progress snapshot out of journal/segment text. `None` when
/// the first line is not a structurally valid header of either kind.
/// `done` is exactly the prefix [`load_journal`] or [`load_segment`]
/// would resume from the same bytes under a matching header.
pub fn journal_progress_text(text: &str) -> Option<JournalProgress> {
    let mut lines = text.lines();
    let (header, shard) = parse_header(lines.next()?)?;
    let (prefix, fingerprint) = scan_records(lines, class_range(header.classes, shard));
    Some(JournalProgress {
        macro_name: header.macro_name,
        classes: header.classes,
        shard,
        done: prefix.len(),
        sealed: fingerprint.is_some(),
        fingerprint,
    })
}

/// Reads a progress snapshot from a journal or segment file. `None` for
/// a missing, unreadable or headerless file. Safe to call while a
/// [`JournalWriter`] in another process appends to the same path: the
/// snapshot is the longest valid prefix at read time.
pub fn journal_progress(path: &Path) -> Option<JournalProgress> {
    journal_progress_text(&fs::read_to_string(path).ok()?)
}

/// Loads the resumable state of `path` for the given expected header.
///
/// A missing or unreadable file, a header mismatch (different context,
/// macro or class count) or a corrupt first line all yield an empty
/// state: the campaign starts this macro cold. Class records must
/// appear in strict class order; the first gap, duplicate or corrupt
/// record ends the prefix.
pub fn load_journal(path: &Path, expect: &JournalHeader) -> ResumeState {
    load(path, expect, None)
}

/// Loads one shard segment's resumable state, exactly like
/// [`load_journal`] restricted to the shard's class range. The
/// `completed` vector is full-length (`expect.classes`), `Some` only for
/// the contiguous prefix of the shard range; `fingerprint` is the
/// shard-report fingerprint when sealed; `context_mismatch` is set when
/// the file holds a structurally valid segment for a *different*
/// context, macro, class count or shard geometry.
pub fn load_segment(path: &Path, expect: &JournalHeader, shard: ShardSpec) -> ResumeState {
    load(path, expect, Some(shard))
}

fn load(path: &Path, expect: &JournalHeader, shard: Option<ShardSpec>) -> ResumeState {
    let mut state = ResumeState {
        completed: vec![None; expect.classes],
        fingerprint: None,
        context_mismatch: false,
    };
    let Ok(text) = fs::read_to_string(path) else {
        return state;
    };
    let mut lines = text.lines();
    match lines.next().and_then(parse_header) {
        // A header of the other kind is no header at all: a stray
        // segment never resumes as a whole journal, nor the reverse.
        Some((_, s)) if s.is_some() != shard.is_some() => return state,
        Some((h, s)) if h == *expect && s == shard => {}
        Some(_) => {
            state.context_mismatch = true;
            return state;
        }
        None => return state,
    }
    let range = class_range(expect.classes, shard);
    let (prefix, fingerprint) = scan_records(lines, range.clone());
    for (slot, outcomes) in state.completed[range].iter_mut().zip(prefix) {
        *slot = Some(outcomes);
    }
    state.fingerprint = fingerprint;
    state
}

/// Streams one macro's journal (or one shard's segment) to disk, one
/// flushed line per record.
pub struct JournalWriter {
    out: BufWriter<File>,
    /// The next class to record.
    next: usize,
    /// One past the last class this file records.
    end: usize,
}

impl JournalWriter {
    /// Creates (truncating any previous file) the journal and writes its
    /// header line.
    ///
    /// # Errors
    /// Any filesystem error — the journal is load-bearing for the
    /// campaign's checkpoint contract, so unlike store writes these are
    /// not absorbed.
    pub fn create(path: &Path, header: &JournalHeader) -> std::io::Result<Self> {
        JournalWriter::open(path, header, None)
    }

    /// Creates a journal, or with `shard` a segment, and writes its
    /// header line; class records then cover the file's class range.
    fn open(
        path: &Path,
        header: &JournalHeader,
        shard: Option<ShardSpec>,
    ) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "{}", header.to_line(shard))?;
        out.flush()?;
        let range = class_range(header.classes, shard);
        Ok(JournalWriter {
            out,
            next: range.start,
            end: range.end,
        })
    }

    /// Appends one completed class. Classes must arrive in class order —
    /// the pipeline's observer dispatch guarantees exactly that.
    ///
    /// # Errors
    /// Any filesystem error, or a class arriving out of order.
    pub fn record_class(&mut self, index: usize, outcomes: &[ClassOutcome]) -> std::io::Result<()> {
        if index != self.next {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("class {index} out of order (expected {})", self.next),
            ));
        }
        let t_journal = dotm_obs::start();
        let payload = encode_outcomes(outcomes);
        writeln!(
            self.out,
            "{{\"class\":{index},\"crc\":\"{:016x}\",\"data\":\"{}\"}}",
            fnv64(&payload),
            to_hex(&payload)
        )?;
        self.out.flush()?;
        dotm_obs::phase(dotm_obs::Phase::Journal, t_journal);
        self.next += 1;
        Ok(())
    }

    /// Seals the journal with the final report fingerprint.
    ///
    /// # Errors
    /// Any filesystem error, or sealing before every class is recorded.
    pub fn finish(mut self, fingerprint: u64) -> std::io::Result<()> {
        if self.next != self.end {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("sealing after {} of {} classes", self.next, self.end),
            ));
        }
        writeln!(
            self.out,
            "{{\"done\":true,\"fingerprint\":\"{fingerprint:016x}\"}}"
        )?;
        self.out.flush()
    }
}

/// The segment file for `macro_name` under `journal_dir`:
/// `<macro>.shard-<i>-of-<N>.jnl`.
pub fn segment_path(journal_dir: &Path, macro_name: &str, shard: ShardSpec) -> PathBuf {
    journal_dir.join(format!(
        "{macro_name}.shard-{}-of-{}.jnl",
        shard.index, shard.count
    ))
}

/// Creates (truncating any previous file) one shard's segment and writes
/// its header. The returned writer accepts classes `range.start` through
/// `range.end - 1` in order and seals with the shard-report fingerprint.
/// An empty range (more shards than classes) seals immediately.
///
/// # Errors
/// Any filesystem error — segments carry the same checkpoint contract
/// as whole-macro journals.
pub fn create_segment(
    path: &Path,
    header: &JournalHeader,
    shard: ShardSpec,
) -> std::io::Result<JournalWriter> {
    JournalWriter::open(path, header, Some(shard))
}

/// The outcome of folding every shard segment of one macro.
#[derive(Debug, Default)]
pub struct MergeReport {
    /// Completed outcomes indexed by class — fully populated exactly
    /// when [`MergeReport::is_complete`].
    pub completed: Vec<Option<Vec<ClassOutcome>>>,
    /// Per-shard sealed fingerprints (shard-report fingerprints), `None`
    /// for incomplete shards.
    pub shard_fingerprints: Vec<Option<u64>>,
    /// Shards whose segment is missing, short, unsealed or stale — the
    /// workers to re-run before the merge can complete.
    pub incomplete: Vec<usize>,
    /// The subset of `incomplete` whose segment file exists but carries
    /// a mismatching header (a knob changed since it was written).
    pub context_mismatches: Vec<usize>,
}

impl MergeReport {
    /// `true` when every shard contributed its full sealed range.
    pub fn is_complete(&self) -> bool {
        self.incomplete.is_empty()
    }
}

/// Folds the `count` shard segments of `expect`'s macro under
/// `journal_dir` in shard (= class) order, verifying every record
/// checksum and every context header along the way.
pub fn merge_segments(journal_dir: &Path, expect: &JournalHeader, count: usize) -> MergeReport {
    let mut report = MergeReport {
        completed: vec![None; expect.classes],
        ..MergeReport::default()
    };
    for index in 0..count {
        let shard = ShardSpec::new(index, count).expect("index < count");
        let range = shard.range(expect.classes);
        let state = load_segment(
            &segment_path(journal_dir, &expect.macro_name, shard),
            expect,
            shard,
        );
        if state.context_mismatch {
            report.context_mismatches.push(index);
        }
        // A seal is read only after the whole range.
        if state.fingerprint.is_some() {
            for c in range {
                report.completed[c] = state.completed[c].clone();
            }
            report.shard_fingerprints.push(state.fingerprint);
        } else {
            report.incomplete.push(index);
            report.shard_fingerprints.push(None);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dotm_core::{CurrentFlags, DetectionSet, VoltageSignature};
    use dotm_defects::FaultMechanism;
    use dotm_faults::Severity;
    use dotm_sim::SimStats;

    fn tmpfile(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dotm-journal-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir.join("macro.jnl")
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dotm-segment-test-{}-{tag}", std::process::id()));
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
            context: 0xfeed_beef,
            macro_name: "comparator".into(),
            classes,
        }
    }

    fn write_full(path: &Path, classes: usize, fp: u64) {
        let mut w = JournalWriter::create(path, &header(classes)).expect("create");
        for i in 0..classes {
            w.record_class(i, &[outcome(i)]).expect("record");
        }
        w.finish(fp).expect("finish");
    }

    #[test]
    fn full_journal_resumes_sealed() {
        let path = tmpfile("full");
        write_full(&path, 3, 0xabcd);
        let state = load_journal(&path, &header(3));
        assert_eq!(state.prefix_len(), 3);
        assert_eq!(state.fingerprint, Some(0xabcd));
        assert_eq!(state.completed[1].as_ref().expect("class 1")[0].count, 2);
        let _ = fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn header_mismatch_resumes_nothing() {
        let path = tmpfile("mismatch");
        write_full(&path, 3, 1);
        for expect in [
            JournalHeader {
                context: 999,
                ..header(3)
            },
            JournalHeader {
                macro_name: "ladder".into(),
                ..header(3)
            },
            header(4),
        ] {
            let state = load_journal(&path, &expect);
            assert_eq!(state.prefix_len(), 0, "{expect:?}");
            assert_eq!(state.fingerprint, None);
            assert!(state.context_mismatch, "{expect:?}");
        }
        let _ = fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn missing_file_resumes_nothing() {
        let state = load_journal(Path::new("/nonexistent/journal.jnl"), &header(2));
        assert_eq!(state.prefix_len(), 0);
        assert_eq!(state.completed.len(), 2);
        assert!(!state.context_mismatch, "cold start is not a mismatch");
    }

    #[test]
    fn torn_tail_shortens_the_prefix() {
        let path = tmpfile("torn");
        write_full(&path, 3, 7);
        let text = fs::read_to_string(&path).expect("read");
        let mut lines: Vec<&str> = text.lines().collect();
        // Drop the seal and tear the last class record in half.
        lines.pop();
        let last = lines.pop().expect("a class line");
        let torn = &last[..last.len() / 2];
        let mut short = lines.join("\n");
        short.push('\n');
        short.push_str(torn);
        fs::write(&path, short).expect("write");
        let state = load_journal(&path, &header(3));
        assert_eq!(state.prefix_len(), 2, "torn third record must not count");
        assert_eq!(state.fingerprint, None);
        let _ = fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn corrupt_middle_record_ends_the_prefix_there() {
        let path = tmpfile("middle");
        write_full(&path, 3, 7);
        let text = fs::read_to_string(&path).expect("read");
        let lines: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == 2 {
                    l.replace("\"data\":\"", "\"data\":\"00")
                } else {
                    l.to_string()
                }
            })
            .collect();
        fs::write(&path, lines.join("\n") + "\n").expect("write");
        let state = load_journal(&path, &header(3));
        assert_eq!(state.prefix_len(), 1, "classes after the bad one drop too");
        assert_eq!(
            state.fingerprint, None,
            "an unsealed prefix has no fingerprint"
        );
        let _ = fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn rewriting_yields_identical_bytes() {
        let a = tmpfile("rewrite-a");
        let b = tmpfile("rewrite-b");
        write_full(&a, 4, 0x1234_5678_9abc_def0);
        write_full(&b, 4, 0x1234_5678_9abc_def0);
        assert_eq!(
            fs::read(&a).expect("read a"),
            fs::read(&b).expect("read b"),
            "canonical encoding: same inputs, same bytes"
        );
        let _ = fs::remove_dir_all(a.parent().expect("parent"));
        let _ = fs::remove_dir_all(b.parent().expect("parent"));
    }

    #[test]
    fn out_of_order_and_early_seal_are_writer_errors() {
        let path = tmpfile("order");
        let mut w = JournalWriter::create(&path, &header(2)).expect("create");
        assert!(w.record_class(1, &[outcome(1)]).is_err());
        w.record_class(0, &[outcome(0)]).expect("in order");
        let w2 = JournalWriter::create(&path, &header(2)).expect("recreate");
        assert!(w2.finish(0).is_err(), "seal before classes recorded");
        let _ = fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn progress_snapshot_tracks_prefix_and_seal() {
        let path = tmpfile("progress");
        let mut w = JournalWriter::create(&path, &header(3)).expect("create");
        let p = journal_progress(&path).expect("header present");
        assert_eq!((p.done, p.classes, p.sealed), (0, 3, false));
        assert_eq!(p.shard, None);
        assert_eq!(p.macro_name, "comparator");
        w.record_class(0, &[outcome(0)]).expect("record");
        w.record_class(1, &[outcome(1)]).expect("record");
        assert_eq!(journal_progress(&path).expect("snapshot").done, 2);
        w.record_class(2, &[outcome(2)]).expect("record");
        w.finish(0xfeed).expect("finish");
        let p = journal_progress(&path).expect("snapshot");
        assert_eq!((p.done, p.sealed, p.fingerprint), (3, true, Some(0xfeed)));
        let _ = fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn progress_snapshot_survives_a_torn_tail() {
        let path = tmpfile("progress-torn");
        write_full(&path, 3, 7);
        let text = fs::read_to_string(&path).expect("read");
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop(); // seal
        let last = lines.pop().expect("class line");
        let mut short = lines.join("\n");
        short.push('\n');
        short.push_str(&last[..last.len() / 2]);
        fs::write(&path, short).expect("write");
        let p = journal_progress(&path).expect("snapshot");
        assert_eq!((p.done, p.sealed), (2, false));
        let _ = fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn progress_snapshot_reads_segments_and_rejects_garbage() {
        assert_eq!(journal_progress_text("not a journal"), None);
        assert_eq!(journal_progress(Path::new("/nonexistent/x.jnl")), None);
        // A hand-built segment header: shard 1 of 2 over 8 classes
        // records classes 4..8.
        let seg = "{\"dotm_journal\":1,\"context\":\"00000000000000000000000000feedbee\",\
                   \"macro\":\"ladder\",\"classes\":8,\"shard\":1,\"shards\":2}";
        let p = journal_progress_text(seg).expect("segment header");
        assert_eq!(p.shard, Some(ShardSpec::new(1, 2).expect("1/2")));
        assert_eq!(p.shard.map(|s| s.range(p.classes)), Some(4..8));
        assert_eq!((p.done, p.sealed), (0, false));
    }

    fn write_shard(dir: &Path, classes: usize, shard: ShardSpec, fp: u64) {
        let h = header(classes);
        let path = segment_path(dir, &h.macro_name, shard);
        let mut w = create_segment(&path, &h, shard).expect("create");
        for i in shard.range(classes) {
            w.record_class(i, &[outcome(i)]).expect("record");
        }
        w.finish(fp).expect("finish");
    }

    #[test]
    fn segments_tile_and_merge_completely() {
        let dir = tmpdir("tile");
        let classes = 7;
        for index in 0..3 {
            let shard = ShardSpec::new(index, 3).expect("shard");
            write_shard(&dir, classes, shard, 100 + index as u64);
        }
        let report = merge_segments(&dir, &header(classes), 3);
        assert!(report.is_complete(), "incomplete: {:?}", report.incomplete);
        assert!(report.context_mismatches.is_empty());
        assert_eq!(
            report.shard_fingerprints,
            vec![Some(100), Some(101), Some(102)]
        );
        for (i, c) in report.completed.iter().enumerate() {
            let got = c.as_ref().expect("class present");
            assert_eq!(got[0].count, i + 1, "class {i} payload");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_short_shards_are_reported() {
        let dir = tmpdir("missing");
        let classes = 8;
        // Shard 1 of 4 never runs; shard 2 is torn mid-range.
        for index in [0, 2, 3] {
            let shard = ShardSpec::new(index, 4).expect("shard");
            write_shard(&dir, classes, shard, index as u64);
        }
        let shard2 = ShardSpec::new(2, 4).expect("shard");
        let path2 = segment_path(&dir, "comparator", shard2);
        let text = fs::read_to_string(&path2).expect("read");
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop(); // seal
        lines.pop(); // last class
        fs::write(&path2, lines.join("\n") + "\n").expect("write");
        let report = merge_segments(&dir, &header(classes), 4);
        assert_eq!(report.incomplete, vec![1, 2]);
        assert!(!report.is_complete());
        assert!(report.context_mismatches.is_empty());
        // Complete shards still contributed their ranges.
        let shard0 = ShardSpec::new(0, 4).expect("shard");
        for c in shard0.range(classes) {
            assert!(report.completed[c].is_some(), "class {c}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_segment_headers_flag_a_context_mismatch() {
        let dir = tmpdir("stale");
        let shard = ShardSpec::new(0, 2).expect("shard");
        write_shard(&dir, 4, shard, 9);
        let stale = JournalHeader {
            context: 0xdead,
            ..header(4)
        };
        let state = load_segment(&segment_path(&dir, "comparator", shard), &stale, shard);
        assert!(state.context_mismatch);
        assert_eq!(state.prefix_len(), 0);
        let report = merge_segments(&dir, &stale, 2);
        assert_eq!(report.context_mismatches, vec![0]);
        assert_eq!(report.incomplete, vec![0, 1]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_shard_geometry_is_a_mismatch() {
        let dir = tmpdir("geometry");
        let shard = ShardSpec::new(0, 2).expect("shard");
        write_shard(&dir, 4, shard, 9);
        let path = segment_path(&dir, "comparator", shard);
        // Same file read back expecting 0/3 instead of 0/2.
        let other = ShardSpec::new(0, 3).expect("shard");
        let state = load_segment(&path, &header(4), other);
        assert!(state.context_mismatch, "geometry change must not resume");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_and_journal_headers_are_mutually_unparseable() {
        let dir = tmpdir("cross");
        let shard = ShardSpec::new(0, 1).expect("shard");
        write_shard(&dir, 3, shard, 9);
        let seg = segment_path(&dir, "comparator", shard);
        // A whole-journal load of a segment file: ignored, not resumed.
        let as_journal = load_journal(&seg, &header(3));
        assert_eq!(as_journal.prefix_len(), 0);
        assert!(
            !as_journal.context_mismatch,
            "a segment is not a journal at all, not a stale journal"
        );
        // A segment load of a whole-journal file: ignored too.
        let jnl = dir.join("comparator.jnl");
        let mut w = JournalWriter::create(&jnl, &header(3)).expect("create");
        for i in 0..3 {
            w.record_class(i, &[outcome(i)]).expect("record");
        }
        w.finish(5).expect("finish");
        let as_segment = load_segment(&jnl, &header(3), shard);
        assert_eq!(as_segment.prefix_len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_shard_range_seals_immediately() {
        let dir = tmpdir("empty");
        // 5 shards over 3 classes: shards past the population get empty
        // ranges and must still produce a valid sealed segment.
        let classes = 3;
        for index in 0..5 {
            let shard = ShardSpec::new(index, 5).expect("shard");
            write_shard(&dir, classes, shard, index as u64);
        }
        let report = merge_segments(&dir, &header(classes), 5);
        assert!(report.is_complete(), "incomplete: {:?}", report.incomplete);
        assert_eq!(report.completed.iter().filter(|c| c.is_some()).count(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_segment_tail_resumes_the_prefix() {
        let dir = tmpdir("torn");
        let shard = ShardSpec::new(1, 2).expect("shard");
        write_shard(&dir, 8, shard, 3);
        let path = segment_path(&dir, "comparator", shard);
        let text = fs::read_to_string(&path).expect("read");
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop(); // seal
        let last = lines.pop().expect("class line");
        let torn = &last[..last.len() / 2];
        let mut short = lines.join("\n");
        short.push('\n');
        short.push_str(torn);
        fs::write(&path, short).expect("write");
        let state = load_segment(&path, &header(8), shard);
        let range = shard.range(8); // 4..8
        assert_eq!(state.prefix_len(), range.len() - 1, "torn last record");
        assert!(state.completed[range.start].is_some());
        assert!(state.completed[range.end - 1].is_none());
        assert_eq!(state.fingerprint, None);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Runs both readers on `bytes`, as a journal (`shard` `None`) or as
    /// a segment of `expect`, and checks them against what the writer
    /// wrote: `load_*` returns only written records, contiguous from the
    /// start of the file's range; a seal is read only after the whole
    /// range; and the progress snapshot's `done` is that same prefix
    /// whenever its header is the expected one. Returns the resumable
    /// prefix length and the seal.
    fn check_readers(
        path: &Path,
        bytes: &[u8],
        expect: &JournalHeader,
        shard: Option<ShardSpec>,
    ) -> (usize, Option<u64>) {
        fs::write(path, bytes).expect("write");
        let state = match shard {
            None => load_journal(path, expect),
            Some(s) => load_segment(path, expect, s),
        };
        let range = class_range(expect.classes, shard);
        let prefix = state.prefix_len();
        assert_eq!(state.completed.len(), expect.classes);
        for (c, slot) in state.completed.iter().enumerate() {
            let in_prefix = range.start <= c && c < range.start + prefix;
            assert_eq!(
                slot.is_some(),
                in_prefix,
                "class {c}, prefix {prefix} of {range:?}"
            );
            if let Some(got) = slot {
                assert_eq!(
                    encode_outcomes(got),
                    encode_outcomes(&[outcome(c)]),
                    "class {c} is not the record the writer wrote"
                );
            }
        }
        if state.fingerprint.is_some() {
            assert_eq!(prefix, range.len(), "sealed on an incomplete prefix");
            assert!(!state.context_mismatch);
        }
        match journal_progress(path) {
            Some(p) => {
                assert_eq!(p.sealed, p.fingerprint.is_some());
                assert!(p.done <= class_range(p.classes, p.shard).len());
                if p.sealed {
                    assert_eq!(p.done, class_range(p.classes, p.shard).len());
                }
                let same_header = p.macro_name == expect.macro_name
                    && p.classes == expect.classes
                    && p.shard == shard;
                if same_header && !state.context_mismatch {
                    assert_eq!((p.done, p.fingerprint), (prefix, state.fingerprint));
                }
            }
            None => assert_eq!(prefix, 0, "a resumable file has a progress header"),
        }
        (prefix, state.fingerprint)
    }

    /// Seeded adversarial loop over journal and segment bytes: every
    /// truncation point, then bit flips, duplicated, swapped and dropped
    /// lines, a header of the other kind and one with an arbitrary class
    /// count, each read back both as a
    /// journal and as a segment. Nothing may panic and every read must
    /// pass [`check_readers`].
    #[test]
    fn mutated_journals_and_segments_resume_only_what_was_written() {
        use dotm_rng::{Rng, SeedableRng, StdRng};

        let dir = tmpdir("adversarial");
        let expect = header(6);
        let shard = ShardSpec::new(1, 2).expect("1/2"); // classes 3..6
        let (jnl, seg) = (
            dir.join("comparator.jnl"),
            segment_path(&dir, "comparator", shard),
        );
        let mut w = JournalWriter::create(&jnl, &expect).expect("create");
        for i in 0..6 {
            w.record_class(i, &[outcome(i)]).expect("record");
        }
        w.finish(0x0123_4567_89ab_cdef).expect("finish");
        let mut w = create_segment(&seg, &expect, shard).expect("create");
        for i in shard.range(6) {
            w.record_class(i, &[outcome(i)]).expect("record");
        }
        w.finish(0xfeed_f00d).expect("finish");
        let files = [
            (
                fs::read(&jnl).expect("journal"),
                None,
                0x0123_4567_89ab_cdef,
            ),
            (fs::read(&seg).expect("segment"), Some(shard), 0xfeed_f00d),
        ];
        let probe = dir.join("probe.jnl");

        // A torn tail only shortens the prefix, and a seal read from a
        // torn file is the one written.
        for (bytes, kind, fp) in &files {
            let mut last = 0;
            for cut in 0..=bytes.len() {
                for as_kind in [None, Some(shard)] {
                    let (prefix, seal) = check_readers(&probe, &bytes[..cut], &expect, as_kind);
                    if as_kind == *kind {
                        assert!(prefix >= last, "cut {cut}: prefix shrank to {prefix}");
                        last = prefix;
                        assert!(
                            seal.is_none() || seal == Some(*fp),
                            "cut {cut}: seal {seal:?}"
                        );
                    } else {
                        assert_eq!(prefix, 0, "cut {cut}: read as the other kind");
                    }
                }
            }
            assert_eq!(last, class_range(6, *kind).len());
        }

        let mut rng = StdRng::seed_from_u64(0x5EED_0A11);
        for round in 0..2000usize {
            let (base, kind, _) = &files[round % files.len()];
            let mut lines: Vec<Vec<u8>> = base
                .split_inclusive(|b| *b == b'\n')
                .map(<[u8]>::to_vec)
                .collect();
            let n = lines.len();
            match rng.gen_range(0..6u32) {
                0 => {
                    for _ in 0..rng.gen_range(1..=4usize) {
                        let line = &mut lines[rng.gen_range(0..n)];
                        let at = rng.gen_range(0..line.len());
                        line[at] ^= 1 << rng.gen_range(0..8u32);
                    }
                }
                1 => {
                    let copy = lines[rng.gen_range(0..n)].clone();
                    lines.insert(rng.gen_range(0..=n), copy);
                }
                2 => lines.swap(rng.gen_range(0..n), rng.gen_range(0..n)),
                3 => {
                    lines.remove(rng.gen_range(0..n));
                }
                4 => {
                    let other = if kind.is_some() { None } else { Some(shard) };
                    lines[0] = format!("{}\n", expect.to_line(other)).into_bytes();
                }
                _ => {
                    let huge = JournalHeader {
                        classes: rng.gen_range(0..=u64::MAX) as usize,
                        ..expect.clone()
                    };
                    lines[0] = format!("{}\n", huge.to_line(*kind)).into_bytes();
                }
            }
            let bytes = lines.concat();
            for as_kind in [None, Some(shard)] {
                check_readers(&probe, &bytes, &expect, as_kind);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
