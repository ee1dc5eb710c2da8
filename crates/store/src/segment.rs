//! Shard journal segments: per-worker slices of one macro's journal.
//!
//! A sharded campaign splits a macro's class population into contiguous
//! ranges (see [`ShardSpec`]) and hands each range to one worker
//! process. Each worker checkpoints exactly like a single-process run —
//! same record encoding, same torn-tail semantics — but into its own
//! *segment* file, so workers never contend on a shared journal:
//!
//! ```text
//! journal/comparator.shard-0-of-4.jnl
//! journal/comparator.shard-1-of-4.jnl
//! ...
//! ```
//!
//! A segment header is a journal header plus the shard coordinates:
//!
//! ```text
//! {"dotm_journal":1,"context":"<32 hex>","macro":"comparator","classes":417,"shard":1,"shards":4}
//! ```
//!
//! The extra `"shards"` field makes segment and whole-macro headers
//! mutually unparseable: [`crate::load_journal`] refuses a segment file
//! and [`load_segment`] refuses a whole-macro journal, so neither can
//! masquerade as the other. Class records cover `range.start..range.end`
//! in order; the seal's fingerprint is the *shard report* fingerprint
//! (the pipeline run restricted to the shard's classes).
//!
//! [`merge_segments`] folds all segments of one macro in shard order,
//! verifying every per-record checksum and every context header, and
//! reports exactly which shards are missing, short or stale — the
//! workers to re-run before merging again. A complete merge yields
//! the full completed-class vector, from which the merge step replays
//! the canonical single-process journal and report byte-for-byte.

use crate::journal::{json_field, parse_class, JournalHeader, JournalWriter, ResumeState};
use dotm_core::{ClassOutcome, ShardSpec};
use std::fs;
use std::path::{Path, PathBuf};

/// The segment file for `macro_name` under `journal_dir`:
/// `<macro>.shard-<i>-of-<N>.jnl`.
pub fn segment_path(journal_dir: &Path, macro_name: &str, shard: ShardSpec) -> PathBuf {
    journal_dir.join(format!(
        "{macro_name}.shard-{}-of-{}.jnl",
        shard.index, shard.count
    ))
}

fn segment_header_line(header: &JournalHeader, shard: ShardSpec) -> String {
    let base = header.to_line();
    let body = base.strip_suffix('}').expect("header line ends in '}'");
    format!(
        "{body},\"shard\":{},\"shards\":{}}}",
        shard.index, shard.count
    )
}

fn parse_segment_header(line: &str) -> Option<(JournalHeader, ShardSpec)> {
    if json_field(line, "dotm_journal")? != "1" {
        return None;
    }
    let index = json_field(line, "shard")?.parse().ok()?;
    let count = json_field(line, "shards")?.parse().ok()?;
    let spec = ShardSpec::new(index, count).ok()?;
    Some((
        JournalHeader {
            context: u128::from_str_radix(json_field(line, "context")?, 16).ok()?,
            macro_name: json_field(line, "macro")?.to_string(),
            classes: json_field(line, "classes")?.parse().ok()?,
        },
        spec,
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
    let range = shard.range(header.classes);
    JournalWriter::create_with_header(
        path,
        &segment_header_line(header, shard),
        range.start,
        range.end,
    )
}

/// Loads one shard segment's resumable state, exactly like
/// [`crate::load_journal`] restricted to the shard's class range. The
/// `completed` vector is full-length (`expect.classes`), `Some` only for
/// the contiguous prefix of the shard range; `fingerprint` is the
/// shard-report fingerprint when sealed; `context_mismatch` is set when
/// the file holds a structurally valid segment for a *different*
/// context, macro, class count or shard geometry.
pub fn load_segment(path: &Path, expect: &JournalHeader, shard: ShardSpec) -> ResumeState {
    let range = shard.range(expect.classes);
    let mut state = ResumeState {
        completed: vec![None; expect.classes],
        fingerprint: None,
        context_mismatch: false,
    };
    let Ok(text) = fs::read_to_string(path) else {
        return state;
    };
    let mut lines = text.lines();
    match lines.next().and_then(parse_segment_header) {
        Some((h, s)) if h == *expect && s == shard => {}
        Some(_) => {
            state.context_mismatch = true;
            return state;
        }
        None => return state,
    }
    let mut next = range.start;
    for line in lines {
        if let Some((index, outcomes)) = parse_class(line) {
            if index != next || index >= range.end {
                break;
            }
            state.completed[index] = Some(outcomes);
            next += 1;
        } else if next == range.end {
            if let Some(fp) =
                json_field(line, "fingerprint").and_then(|f| u64::from_str_radix(f, 16).ok())
            {
                state.fingerprint = Some(fp);
            }
            break;
        } else {
            break;
        }
    }
    state
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
        let full = range.clone().all(|c| state.completed[c].is_some());
        if state.context_mismatch {
            report.context_mismatches.push(index);
        }
        if full && state.fingerprint.is_some() {
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
    use crate::load_journal;
    use dotm_core::{CurrentFlags, DetectionSet, VoltageSignature};
    use dotm_defects::FaultMechanism;
    use dotm_faults::Severity;
    use dotm_sim::SimStats;

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
            context: 0xfeed_beef,
            macro_name: "comparator".into(),
            classes,
        }
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
}
