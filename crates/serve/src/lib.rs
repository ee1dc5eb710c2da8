//! dotm-serve — campaign-as-a-service over the shared store.
//!
//! A hand-rolled, zero-dependency HTTP/1.1 service (`std::net` only)
//! that turns the `campaign` CLI into a long-lived job API:
//!
//! * `POST /jobs` — submit a campaign config; identical configs dedup
//!   to the same job id (a finished job answers immediately from its
//!   stored report).
//! * `GET /jobs/:id` — status with live per-macro journal progress.
//! * `GET /jobs/:id/events` — NDJSON progress stream.
//! * `GET /jobs/:id/report` — the campaign report, byte-identical to
//!   the CLI's stdout (it *is* the captured stdout).
//! * `GET /store/occupancy`, `GET /metrics`, `POST /shutdown`.
//!
//! A job with `workers > 0` runs as a local sharded campaign
//! (`campaign --workers N`); there is no protocol for shard workers on
//! other hosts.
//!
//! Jobs persist as checksummed single-line records under
//! `<store>/jobs/`; the queue survives crashes and restarts, and an
//! interrupted run resumes from its journal prefix exactly like the
//! CLI's `--resume`. See [`server`] for the lifecycle and crash model,
//! [`exit`] for the process exit-code contract shared with the CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exit;
pub mod http;
pub mod hub;
pub mod job;
pub mod runner;
pub mod server;

pub use exit::{classify, io_exit_code, FailureClass};
pub use hub::EventHub;
pub use job::{Job, JobSpec, JobState, ALL_MACROS};
pub use runner::{parse_progress_line, JobRunner, RunOutcome, SubprocessRunner};
pub use server::{serve, Server};
