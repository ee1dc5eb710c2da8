//! The campaign process exit-code contract.
//!
//! The service and the CI scripts supervise `campaign` subprocesses and
//! must tell failure modes apart *without* string-matching stderr
//! (stderr is a human channel; its wording changes).
//! The contract is the numeric exit code:
//!
//! | code | name | meaning |
//! |---|---|---|
//! | 0 | ok | run complete, report on stdout |
//! | 2 | usage | bad flags / knobs (also what clap-style CLIs use) |
//! | 3 | stale-shard | segments missing, short, unsealed or from another context |
//! | 4 | io | store/journal filesystem failure |
//! | 5 | interrupted | the class observer aborted the run; the journal keeps a resumable prefix |
//!
//! Code 1 stays reserved for uncategorised failures (assertion-style
//! gates such as `DOTM_EXPECT_WARM`), and anything else a child dies
//! with — panics (101), signals — classifies as [`FailureClass::Io`]:
//! "something broke that a retry against the same inputs may fix".

/// Successful exit.
pub const OK: i32 = 0;
/// Malformed command line or knob combination.
pub const USAGE: i32 = 2;
/// Shard segments incomplete, unsealed or context-mismatched: re-run
/// the named workers before merging.
pub const STALE_SHARD: i32 = 3;
/// Store or journal I/O failure.
pub const IO: i32 = 4;
/// The in-order class observer aborted the run (`DOTM_ABORT_AFTER` or a
/// service cancellation); the journal holds a resumable prefix.
pub const INTERRUPTED: i32 = 5;

/// A classified campaign-process failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// Bad invocation: retrying without changing the command is useless.
    Usage,
    /// Incomplete/stale shard segments: re-run the named workers, then
    /// merge again.
    StaleShard,
    /// Filesystem-level failure (including uncategorised deaths).
    Io,
    /// Deliberate mid-run abort; resume continues from the journal.
    Interrupted,
}

impl FailureClass {
    /// The exit code this class maps to.
    pub fn code(self) -> i32 {
        match self {
            FailureClass::Usage => USAGE,
            FailureClass::StaleShard => STALE_SHARD,
            FailureClass::Io => IO,
            FailureClass::Interrupted => INTERRUPTED,
        }
    }

    /// Stable lower-case name used in job records and event payloads.
    pub fn name(self) -> &'static str {
        match self {
            FailureClass::Usage => "usage",
            FailureClass::StaleShard => "stale-shard",
            FailureClass::Io => "io",
            FailureClass::Interrupted => "interrupted",
        }
    }
}

/// Classifies a child's exit code: `None` for success, the failure class
/// otherwise. Unknown non-zero codes (panics, signal deaths surfacing as
/// no code) classify as [`FailureClass::Io`].
pub fn classify(code: Option<i32>) -> Option<FailureClass> {
    match code {
        Some(OK) => None,
        Some(USAGE) => Some(FailureClass::Usage),
        Some(STALE_SHARD) => Some(FailureClass::StaleShard),
        Some(INTERRUPTED) => Some(FailureClass::Interrupted),
        _ => Some(FailureClass::Io),
    }
}

/// Maps an `std::io::Error` from the campaign's store/journal/merge path
/// to its exit code. `InvalidData` is how the merge reports incomplete
/// or context-mismatched segments ([`STALE_SHARD`]); everything else is
/// a real filesystem failure ([`IO`]).
pub fn io_exit_code(err: &std::io::Error) -> i32 {
    if err.kind() == std::io::ErrorKind::InvalidData {
        STALE_SHARD
    } else {
        IO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip_through_classify() {
        for class in [
            FailureClass::Usage,
            FailureClass::StaleShard,
            FailureClass::Io,
            FailureClass::Interrupted,
        ] {
            assert_eq!(classify(Some(class.code())), Some(class), "{class:?}");
        }
        assert_eq!(classify(Some(OK)), None);
    }

    #[test]
    fn unknown_deaths_classify_as_io() {
        assert_eq!(classify(Some(1)), Some(FailureClass::Io));
        assert_eq!(classify(Some(101)), Some(FailureClass::Io), "rust panic");
        assert_eq!(classify(None), Some(FailureClass::Io), "killed by signal");
    }

    #[test]
    fn io_errors_map_by_kind() {
        use std::io::{Error, ErrorKind};
        assert_eq!(
            io_exit_code(&Error::new(ErrorKind::InvalidData, "short segment")),
            STALE_SHARD
        );
        assert_eq!(
            io_exit_code(&Error::new(ErrorKind::PermissionDenied, "store")),
            IO
        );
        assert_eq!(
            io_exit_code(&Error::new(ErrorKind::NotFound, "journal")),
            IO
        );
    }

    #[test]
    fn codes_are_distinct_and_stable() {
        let codes = [OK, USAGE, STALE_SHARD, IO, INTERRUPTED];
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // The contract is wire-visible (job records, scripts): pin it.
        assert_eq!((USAGE, STALE_SHARD, IO, INTERRUPTED), (2, 3, 4, 5));
    }
}
