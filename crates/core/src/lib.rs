//! # dotm-core — the defect-oriented test methodology
//!
//! The paper's contribution (its Fig. 1) as a library:
//!
//! 1. **Defect simulation** — `dotm-defects` sprinkles spot defects on a
//!    macro's layout and extracts circuit-level faults;
//! 2. **Fault collapsing** — equivalent faults merge into classes whose
//!    multiplicity measures likelihood;
//! 3. **Fault modelling & simulation** — `dotm-faults` injects each class
//!    into the macro testbench; `dotm-sim` computes the faulty behaviour;
//! 4. **Signature classification** — voltage signatures
//!    ([`VoltageSignature`]: stuck-at / offset / mixed / clock value /
//!    none) and current signatures ([`CurrentKind`]: IVdd, IDDQ, Iinput)
//!    against the 3σ good space compiled by process Monte Carlo
//!    ([`GoodSpace`]);
//! 5. **Sensitisation/propagation** — behavioural models decide whether a
//!    signature reaches the circuit edge as a missing code;
//! 6. **Global compilation** — per-macro statistics scale by instances ×
//!    area × fault rate into whole-circuit detectability
//!    ([`GlobalReport`]), before and after the DfT measures.
//!
//! The [`harnesses`] module provides the five case-study macros; the
//! `dotm-bench` crate's binaries regenerate every table and figure of the
//! paper from these pieces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod advisor;
mod compaction;
mod diagnosis;
pub mod env;
mod escapes;
pub mod exec;
mod global;
mod goodspace;
mod harness;
pub mod harnesses;
mod measure;
mod memo;
mod pipeline;
mod processvar;
mod report;
mod signature;
mod testtime;

pub use advisor::{
    check_iddq_budget, check_trunk_order, Advisory, IDDQ_BUDGET, SIMILARITY_THRESHOLD,
};
pub use compaction::{compact_current_tests, CompactionResult, CompactionStep};
pub use diagnosis::{Candidate, DictionaryEntry, FaultDictionary};
pub use escapes::YieldModel;
pub use exec::{par_map, par_map_indices, ExecConfig};
pub use global::{GlobalDetectability, GlobalReport};
pub use goodspace::{GoodSpace, GoodSpaceConfig};
pub use harness::{with_instrumented_sim, MacroHarness, Probe};
pub use measure::{MeasureKind, MeasureLabel, MeasurementPlan};
pub use memo::{CachedMeasurement, MemoryStore};
pub use pipeline::{
    run_macro_path, run_macro_path_with_faults, run_macro_path_with_faults_hooked, ClassObserver,
    ClassOutcome, EscalationLadder, FanoutObserver, MacroReport, MeasurementStore, PathError,
    PipelineConfig, PipelineHooks, ShardSpec, SimFailurePolicy, ESCALATION_RUNGS,
};
pub use processvar::{CommonSample, ProcessModel};
pub use report::{
    current_table, detectability, internal_fault_pct, voltage_table, CurrentRow,
    DetectabilityBreakdown, VoltageRow,
};
pub use signature::{CurrentFlags, CurrentKind, DetectionSet, VoltageSignature};
pub use testtime::TestTimeModel;
