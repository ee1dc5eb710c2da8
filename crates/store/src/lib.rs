//! # dotm-store — persistent campaign store with checkpoint/resume
//!
//! The in-memory [`MemoryStore`](dotm_core::MemoryStore) memoizes
//! `(injected-netlist digest, escalation rung) → measurement` for the
//! lifetime of one run. This crate extends that memoization across runs:
//!
//! - [`DiskStore`] is a content-addressed on-disk measurement store
//!   implementing [`dotm_core::MeasurementStore`]. Keys are the
//!   pipeline's own store keys folded with a campaign *context*
//!   fingerprint ([`pipeline_context`]), so any change to the netlist
//!   content, the escalation policy, the Monte-Carlo seeds or the sigma
//!   bounds lands in a disjoint key space — stale entries can never be
//!   replayed, they simply stop being found.
//! - [`JournalWriter`] / [`load_journal`] checkpoint per-macro progress
//!   as an append-only journal of completed fault classes, so a killed
//!   campaign resumes from the last completed class and finishes with a
//!   final report bit-identical to an uninterrupted run.
//! - Shard *segments* ([`create_segment`] / [`load_segment`] /
//!   [`merge_segments`]) are journals over one shard's class range, one
//!   file per worker of a multi-process campaign; a complete merge
//!   replays the single-process journal, report and accounting
//!   byte-for-byte. One header parser and one record scan read both
//!   kinds, for resume and for the read-only [`journal_progress`].
//!
//! ## Crash safety
//!
//! Every whole-file write goes through [`write_durably`]: a temporary
//! file, synced, then atomically renamed into place and the directory
//! synced. Store entries use it, and so do the service's job records and
//! reports. Every entry carries a magic header, its own key and a
//! trailing FNV-64 checksum. A truncated, corrupt or concurrently
//! rewritten entry is indistinguishable from an absent one: it reads as
//! a *miss* (recompute), never as an error and never as a wrong value.
//! The journal is line-oriented with a per-record checksum; a torn tail
//! only shortens the resumable prefix.
//!
//! ## Determinism
//!
//! A stored measurement is the complete observable effect of the solve —
//! result plus solver-stats delta — and a pure function of its key, so
//! replaying an entry is indistinguishable, in every report byte, from
//! recomputing it. Store *contents* are likewise scheduling-free: each
//! entry file's bytes depend only on its key, so serial and
//! multi-threaded runs write byte-identical stores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod entry;
mod journal;
mod store;
mod wire;

pub use context::pipeline_context;
pub use dotm_core::fnv::{fnv64, Fnv128};
pub use journal::{
    create_segment, journal_progress, journal_progress_text, load_journal, load_segment,
    merge_segments, segment_path, JournalHeader, JournalProgress, JournalWriter, MergeReport,
    ResumeState,
};
pub use store::{
    corrupt_one_entry, occupancy, write_durably, DiskStore, StoreCounters, StoreOccupancy,
};
pub use wire::{from_hex, json_field, to_hex};
