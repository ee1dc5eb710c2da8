//! Perf-trajectory comparator: diffs a bench summary JSON (as written by
//! `shard_speedup` or `serve_roundtrip` via `DOTM_BENCH_JSON`) against a
//! committed baseline.
//!
//! Only the *deterministic counter* metrics are compared — byte-identity
//! verdicts, store/journal occupancy, event and report sizes. Wall-clock
//! fields vary with the runner and are reported but never diffed; the
//! trajectory of those lives in the uploaded CI artifacts.
//!
//! ```text
//! bench_compare <baseline.json> <current.json>
//! ```
//!
//! A counter drift prints a loud field-by-field diff. The exit is *soft*
//! by default (status 0, so noisy runners never block a merge on a number
//! that a legitimate solver change is allowed to move — the diff in the
//! log is the review artifact); set `DOTM_BENCH_STRICT=1` to turn drifts
//! into a non-zero exit.

use std::collections::BTreeMap;
use std::process::exit;

/// Counter fields that must match the baseline exactly. Everything else
/// in the summary (timings, ratios derived from timings) is informational.
const COUNTER_FIELDS: &[&str] = &[
    "bench",
    // shard_speedup counters: byte-identity verdicts and deterministic
    // store/journal occupancy of the sharded-vs-single comparison.
    "workers",
    "macros",
    "journal_bytes",
    "store_entries",
    "fingerprints_identical",
    "journals_identical",
    "accounting_identical",
    "occupancy_identical",
    // serve_roundtrip counters: the campaign-service contract verdicts
    // and the deterministic event/report sizes of the anchor job.
    "progress_events",
    "report_bytes",
    "report_identical",
    "cached_dedup",
    "warm_solver_free",
    "shutdown_clean",
];

/// Parses the flat one-level JSON object the bench bins emit: string,
/// number and bare-word values only, no nesting, no escapes. Anything
/// fancier is a parse error — the writer in this repo never produces it.
fn parse_flat_json(text: &str) -> Result<BTreeMap<String, String>, String> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let mut map = BTreeMap::new();
    for raw in body.split(',') {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed entry: {line}"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("malformed key: {key}"))?;
        let value = value.trim().trim_matches('"');
        map.insert(key.to_string(), value.to_string());
    }
    if map.is_empty() {
        return Err("empty object".into());
    }
    Ok(map)
}

fn load(path: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("[dotm] cannot read {path}: {e}");
        exit(2);
    });
    parse_flat_json(&text).unwrap_or_else(|e| {
        eprintln!("[dotm] cannot parse {path}: {e}");
        exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = match args.as_slice() {
        [a, b] => [a.clone(), b.clone()],
        _ => {
            eprintln!("usage: bench_compare <baseline.json> <current.json>");
            exit(2);
        }
    };
    let baseline = load(&baseline_path);
    let current = load(&current_path);

    let mut drifts = 0usize;
    println!("bench counter comparison ({current_path} vs {baseline_path})");
    for &field in COUNTER_FIELDS {
        let base = baseline.get(field).map(String::as_str);
        let cur = current.get(field).map(String::as_str);
        match (base, cur) {
            (Some(b), Some(c)) if b == c => {
                println!("  {field:<28} {c:>14}   ok");
            }
            (Some(b), Some(c)) => {
                println!("  {field:<28} {c:>14}   DRIFT (baseline {b})");
                drifts += 1;
            }
            // A field absent on *both* sides simply doesn't apply to
            // this bench's summary shape — one comparator serves all the
            // bench bins, each of which emits its own counter subset.
            (None, None) => {}
            (b, c) => {
                println!(
                    "  {field:<28} {:>14}   MISSING (baseline {})",
                    c.unwrap_or("-"),
                    b.unwrap_or("-")
                );
                drifts += 1;
            }
        }
    }
    // Timing fields: always shown, never gated. The union of every bench
    // bin's timing fields — absent ones are simply skipped, so one
    // comparator serves all the summaries.
    for field in [
        "single_wall_ms",
        "sharded_wall_ms",
        "shard_speedup",
        "cli_wall_ms",
        "serve_wall_ms",
    ] {
        if let Some(c) = current.get(field) {
            let b = baseline.get(field).map(String::as_str).unwrap_or("-");
            println!("  {field:<28} {c:>14}   (timing; baseline {b})");
        }
    }

    if drifts == 0 {
        println!("bench counters match the committed baseline");
        return;
    }
    println!(
        "{drifts} counter metric(s) drifted from {baseline_path} — if the \
         change is intentional, regenerate the baseline in the same commit"
    );
    if dotm_core::env::bool_knob("DOTM_BENCH_STRICT", false) {
        exit(1);
    }
}
