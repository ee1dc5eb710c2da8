//! Centralized parsing of the `DOTM_*` environment knobs.
//!
//! Every process-wide tuning knob the workspace honours goes through this
//! module, so the parsing rules — and the failure behaviour — are written
//! once. The rules:
//!
//! * An **unset** knob takes its documented default.
//! * A **malformed** knob panics with the variable name and the offending
//!   value. A typo like `DOTM_THREADS=fourteen` silently running the
//!   serial path (or a warm run silently going cold) is exactly the kind
//!   of quiet misconfiguration the accounting work of earlier PRs exists
//!   to prevent, so knobs fail loudly instead of guessing.
//!
//! The pure `parse_*` helpers carry the actual grammar and are unit
//! tested without touching the process environment; the `*_knob`
//! wrappers only add the `std::env::var` lookup and the panic message.
//!
//! | knob | meaning | default |
//! |---|---|---|
//! | `DOTM_DEFECTS` | defects sprinkled per macro | 25000 |
//! | `DOTM_SEED` | sprinkle seed (the good space draws from `seed ^ 0xD07`) | 1995 |
//! | `DOTM_GS_COMMON` | good-space common (die-wide) samples | 5 |
//! | `DOTM_GS_MM` | good-space mismatch samples per common sample | 4 |
//! | `DOTM_MAX_CLASSES` | evaluate only the most frequent classes (`0` = all) | 0 |
//! | `DOTM_THREADS` | executor worker threads (`0` = auto) | auto |
//! | `DOTM_SIM_FAILURE_POLICY` | accounting for never-converged classes | assume-detected |
//! | `DOTM_STORE_DIR` | persistent campaign-store directory | unset |
//! | `DOTM_TRACE` | structured observability (spans/phases/counters) | off |
//! | `DOTM_TRACE_DIR` | directory for NDJSON + chrome trace exports | `.` |
//! | `DOTM_ABORT_AFTER` | abort the run after this many observed classes (crash injection) | off |
//! | `DOTM_EXPECT_WARM` | assert the store answered every lookup (only the unstored nominals solve) | off |
//! | `DOTM_PROGRESS` | per-class `[progress]` lines on stderr (service event feed) | off |
//! | `DOTM_SERVE_POLL_MS` | service accept-loop / event-stream poll interval (ms) | 25 |
//! | `DOTM_SERVE_IO_TIMEOUT_MS` | service per-operation socket read/write timeout (ms) | 10000 |
//! | `DOTM_MACROS` | comma-separated macro subset the campaign runs | all |

use crate::pipeline::{PipelineConfig, SimFailurePolicy};
use std::path::PathBuf;

/// Parses a boolean knob value: `1`/`true`/`on`/`yes` vs
/// `0`/`false`/`off`/`no`, case-insensitively.
///
/// # Errors
/// A message naming the offending value.
pub fn parse_bool(value: &str) -> Result<bool, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Ok(true),
        "0" | "false" | "off" | "no" => Ok(false),
        other => Err(format!("expected a boolean, got {other:?}")),
    }
}

/// Parses an unsigned integer knob value (whitespace-tolerant).
///
/// # Errors
/// A message naming the offending value.
pub fn parse_u64(value: &str) -> Result<u64, String> {
    value
        .trim()
        .parse::<u64>()
        .map_err(|_| format!("expected an unsigned integer, got {value:?}"))
}

/// Parses a `usize` knob value (whitespace-tolerant).
///
/// # Errors
/// A message naming the offending value.
pub fn parse_usize(value: &str) -> Result<usize, String> {
    value
        .trim()
        .parse::<usize>()
        .map_err(|_| format!("expected an unsigned integer, got {value:?}"))
}

/// Reads an environment knob through a parser, panicking loudly on a
/// malformed value and returning `None` when unset.
fn knob<T>(name: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
    match std::env::var(name) {
        Ok(v) => Some(parse(&v).unwrap_or_else(|e| panic!("{name}: {e}"))),
        Err(_) => None,
    }
}

/// Reads a boolean `DOTM_*` knob.
///
/// # Panics
/// On a malformed value.
pub fn bool_knob(name: &str, default: bool) -> bool {
    knob(name, parse_bool).unwrap_or(default)
}

/// Reads a `usize` `DOTM_*` knob.
///
/// # Panics
/// On a malformed value.
pub fn usize_knob(name: &str, default: usize) -> usize {
    knob(name, parse_usize).unwrap_or(default)
}

/// Reads a `u64` `DOTM_*` knob.
///
/// # Panics
/// On a malformed value.
pub fn u64_knob(name: &str, default: u64) -> u64 {
    knob(name, parse_u64).unwrap_or(default)
}

/// The campaign's size and seed knobs over [`PipelineConfig::default`],
/// which holds their defaults: `DOTM_DEFECTS`, `DOTM_SEED` (the good
/// space's seed is `seed ^ 0xD07`), `DOTM_GS_COMMON`, `DOTM_GS_MM` and
/// `DOTM_MAX_CLASSES` (`0` = all classes). Every other field keeps its
/// default.
///
/// # Panics
/// On a malformed value.
pub fn campaign_config() -> PipelineConfig {
    let base = PipelineConfig::default();
    let seed = u64_knob("DOTM_SEED", base.seed);
    let max_classes = match usize_knob("DOTM_MAX_CLASSES", 0) {
        0 => None,
        n => Some(n),
    };
    PipelineConfig {
        defects: usize_knob("DOTM_DEFECTS", base.defects),
        seed,
        goodspace: crate::GoodSpaceConfig {
            common_samples: usize_knob("DOTM_GS_COMMON", base.goodspace.common_samples),
            mismatch_samples: usize_knob("DOTM_GS_MM", base.goodspace.mismatch_samples),
            seed: seed ^ 0xD07,
            ..base.goodspace
        },
        max_classes,
        ..base
    }
}

/// The `DOTM_THREADS` knob: `None` when unset or `0` (both mean "auto" —
/// resolve from the machine's available parallelism).
///
/// # Panics
/// On a malformed value.
pub fn threads() -> Option<usize> {
    knob("DOTM_THREADS", parse_usize).filter(|&t| t > 0)
}

/// The `DOTM_SIM_FAILURE_POLICY` knob (default: the paper-parity
/// [`SimFailurePolicy::AssumeDetected`]).
///
/// # Panics
/// On a malformed value.
pub fn sim_failure_policy() -> SimFailurePolicy {
    knob("DOTM_SIM_FAILURE_POLICY", |v| v.parse::<SimFailurePolicy>()).unwrap_or_default()
}

/// The `DOTM_STORE_DIR` knob: the persistent campaign-store directory.
/// `None` when unset or set to the empty string (persistence off).
pub fn store_dir() -> Option<PathBuf> {
    match std::env::var("DOTM_STORE_DIR") {
        Ok(v) if !v.trim().is_empty() => Some(PathBuf::from(v)),
        _ => None,
    }
}

/// The `DOTM_TRACE` knob (default off): enables the `dotm-obs` recorder
/// in the bench binaries. Tracing is a pure side channel — it may never
/// change a reported number, a fingerprint, a journal byte or a store
/// entry (the determinism suite enforces this).
///
/// # Panics
/// On a malformed value.
pub fn trace() -> bool {
    bool_knob("DOTM_TRACE", false)
}

/// The `DOTM_TRACE_DIR` knob: where the bench binaries write their
/// NDJSON and chrome-trace exports. `None` when unset or set to the
/// empty string (callers default to the current directory).
pub fn trace_dir() -> Option<PathBuf> {
    match std::env::var("DOTM_TRACE_DIR") {
        Ok(v) if !v.trim().is_empty() => Some(PathBuf::from(v)),
        _ => None,
    }
}

/// The `DOTM_ABORT_AFTER` knob: abort the campaign (through the in-order
/// class observer) after this many observed classes — the kill-and-resume
/// crash-injection hook. `None` when unset or `0` (off).
///
/// # Panics
/// On a malformed value.
pub fn abort_after() -> Option<u64> {
    match u64_knob("DOTM_ABORT_AFTER", 0) {
        0 => None,
        n => Some(n),
    }
}

/// The `DOTM_EXPECT_WARM` knob (default off): assert the store answered
/// every lookup (no miss, nothing computed). The comparator's nominal
/// measurement replays with its good space; the other four macros'
/// nominals still solve, because they are not stored (about 9 ms in
/// all). The warm-resume
/// gates use it to turn "the store silently went cold" into a hard
/// failure.
///
/// # Panics
/// On a malformed value.
pub fn expect_warm() -> bool {
    bool_knob("DOTM_EXPECT_WARM", false)
}

/// The `DOTM_PROGRESS` knob (default off): emit one `[progress]` line to
/// stderr per completed class. A pure side channel (stderr only — never a
/// report byte); the campaign service parses these lines into its event
/// stream.
///
/// # Panics
/// On a malformed value.
pub fn progress() -> bool {
    bool_knob("DOTM_PROGRESS", false)
}

/// The `DOTM_SERVE_POLL_MS` knob (default 25): the campaign service's
/// poll interval in milliseconds — the accept loop's idle sleep and the
/// event stream's journal-snapshot cadence. Clamped to at least 1.
///
/// # Panics
/// On a malformed value.
pub fn serve_poll_ms() -> u64 {
    u64_knob("DOTM_SERVE_POLL_MS", 25).max(1)
}

/// The `DOTM_SERVE_IO_TIMEOUT_MS` knob (default 10000): per-operation
/// socket read/write timeout for the campaign service's connections, in
/// milliseconds. A client that stalls mid-request (or stops draining a
/// response) for longer than this gets its connection dropped instead of
/// parking a handler thread forever. Clamped to at least 1.
///
/// # Panics
/// On a malformed value.
pub fn serve_io_timeout_ms() -> u64 {
    u64_knob("DOTM_SERVE_IO_TIMEOUT_MS", 10_000).max(1)
}

/// The `DOTM_MACROS` knob: a comma-separated subset of macro names the
/// campaign should run (in its own canonical order). `None` when unset
/// or blank (all macros). Name validation happens in the campaign
/// binary, which owns the harness list; this accessor only splits.
pub fn macros() -> Option<Vec<String>> {
    let raw = std::env::var("DOTM_MACROS").ok()?;
    let names: Vec<String> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if names.is_empty() {
        None
    } else {
        Some(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_grammar() {
        for s in ["1", "true", "ON", "Yes", " on "] {
            assert_eq!(parse_bool(s), Ok(true), "{s}");
        }
        for s in ["0", "false", "OFF", "No", " off "] {
            assert_eq!(parse_bool(s), Ok(false), "{s}");
        }
        for s in ["", "2", "maybe", "yess", "on off"] {
            assert!(parse_bool(s).is_err(), "{s:?} must be rejected");
        }
    }

    #[test]
    fn integer_grammar() {
        assert_eq!(parse_usize("42"), Ok(42));
        assert_eq!(parse_usize(" 7 "), Ok(7));
        assert_eq!(parse_u64("0"), Ok(0));
        assert_eq!(parse_u64("18446744073709551615"), Ok(u64::MAX));
        for s in ["", "-1", "3.5", "fourteen", "0x10", "1e3"] {
            assert!(parse_usize(s).is_err(), "{s:?} must be rejected");
            assert!(parse_u64(s).is_err(), "{s:?} must be rejected");
        }
    }

    // The env-reading wrappers are exercised with test-unique variable
    // names: the test harness runs tests concurrently in one process, so
    // these must never touch a knob another test might read.
    #[test]
    fn unset_knobs_take_defaults() {
        assert!(bool_knob("DOTM_TEST_UNSET_B", true));
        assert!(!bool_knob("DOTM_TEST_UNSET_B", false));
        assert_eq!(usize_knob("DOTM_TEST_UNSET_U", 9), 9);
        assert_eq!(u64_knob("DOTM_TEST_UNSET_U64", 11), 11);
    }

    // The campaign knobs added since PR 5 are thin wrappers over the
    // tested grammars; assert their defaults and zero-means-off rules
    // where the harness leaves the real variables unset.
    #[test]
    fn campaign_knob_defaults_and_zero_rules() {
        if std::env::var("DOTM_ABORT_AFTER").is_err() {
            assert_eq!(abort_after(), None);
        }
        if std::env::var("DOTM_EXPECT_WARM").is_err() {
            assert!(!expect_warm());
        }
        if std::env::var("DOTM_PROGRESS").is_err() {
            assert!(!progress());
        }
        if std::env::var("DOTM_SERVE_POLL_MS").is_err() {
            assert_eq!(serve_poll_ms(), 25);
        }
        if std::env::var("DOTM_SERVE_IO_TIMEOUT_MS").is_err() {
            assert_eq!(serve_io_timeout_ms(), 10_000);
        }
        if std::env::var("DOTM_MACROS").is_err() {
            assert_eq!(macros(), None);
        }
        // The zero-means-off rule is pure; assert it through the parser.
        assert_eq!(parse_u64("0").ok().filter(|&n| n > 0), None);
    }

    #[test]
    fn set_knobs_parse() {
        std::env::set_var("DOTM_TEST_SET_B", "off");
        assert!(!bool_knob("DOTM_TEST_SET_B", true));
        std::env::set_var("DOTM_TEST_SET_U", "123");
        assert_eq!(usize_knob("DOTM_TEST_SET_U", 0), 123);
    }

    #[test]
    #[should_panic(expected = "DOTM_TEST_MALFORMED_B")]
    fn malformed_bool_knob_panics() {
        std::env::set_var("DOTM_TEST_MALFORMED_B", "banana");
        bool_knob("DOTM_TEST_MALFORMED_B", true);
    }

    #[test]
    #[should_panic(expected = "DOTM_TEST_MALFORMED_U")]
    fn malformed_usize_knob_panics() {
        std::env::set_var("DOTM_TEST_MALFORMED_U", "-3");
        usize_knob("DOTM_TEST_MALFORMED_U", 1);
    }

    #[test]
    fn threads_treats_zero_as_auto() {
        std::env::set_var("DOTM_TEST_THREADS_GRAMMAR", "0");
        // threads() reads the real DOTM_THREADS knob; the zero-is-auto
        // rule itself is pure, so assert it through the parser.
        assert_eq!(parse_usize("0").ok().filter(|&t| t > 0), None);
        assert_eq!(parse_usize("3").ok().filter(|&t| t > 0), Some(3));
    }

    #[test]
    fn trace_dir_empty_means_unset() {
        // trace_dir() reads DOTM_TRACE_DIR, unset under the harness.
        if std::env::var("DOTM_TRACE_DIR").is_err() {
            assert_eq!(trace_dir(), None);
        }
        // trace() defaults off when DOTM_TRACE is unset.
        if std::env::var("DOTM_TRACE").is_err() {
            assert!(!trace());
        }
    }

    #[test]
    fn store_dir_empty_means_unset() {
        std::env::set_var("DOTM_TEST_STORE_EMPTY", "  ");
        // store_dir() reads DOTM_STORE_DIR; the emptiness rule is what
        // matters and is visible through the public function only when
        // the real variable is unset, which is the harness default.
        if std::env::var("DOTM_STORE_DIR").is_err() {
            assert_eq!(store_dir(), None);
        }
    }
}
