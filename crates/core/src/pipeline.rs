//! The defect-oriented test path (the paper's Fig. 1), end to end for one
//! macro: defect sprinkling → fault collapsing → fault-model injection →
//! circuit-level fault simulation → signature classification → detection
//! evaluation against the compiled good space.

use crate::exec::{self, ExecConfig};
use crate::goodspace::{GoodSpace, GoodSpaceConfig};
use crate::harness::{with_instrumented_sim, MacroHarness, Probe};
use crate::memo::{CachedMeasurement, MemoryStore};
use crate::signature::{CurrentFlags, DetectionSet, VoltageSignature};
use dotm_defects::{
    sprinkle_collapsed, CollapseReport, DefectStatistics, FaultClass, FaultEffect, FaultMechanism,
    Sprinkler,
};
use dotm_faults::{InjectError, Injector, Severity};
use dotm_netlist::fnv::{Fnv128, Fnv64};
use dotm_netlist::{DeviceKind, Netlist};
use dotm_sim::{Integration, SimError, SimOptions, SimStats};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// How a fault class whose every model variant still fails to simulate —
/// even at the top of the escalation ladder — enters the detection
/// statistics.
///
/// The paper's flow treats an unsolvable faulty circuit as an erratic
/// part that the missing-code test flags; that is the
/// [`AssumeDetected`](SimFailurePolicy::AssumeDetected) default and the
/// setting under which the published tables are reproduced. The other two
/// policies bound the coverage claim from below instead of above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimFailurePolicy {
    /// Count the class as missing-code detected (paper parity): a circuit
    /// without a stable solution produces garbage codes on the tester.
    #[default]
    AssumeDetected,
    /// Count the class as undetected: pessimistic lower bound that never
    /// credits the test set for a solver limitation.
    AssumeUndetected,
    /// Drop the class from the weighted statistics entirely (reported via
    /// [`MacroReport::excluded_classes`]).
    Exclude,
}

impl std::str::FromStr for SimFailurePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
            "assumedetected" | "detected" => Ok(SimFailurePolicy::AssumeDetected),
            "assumeundetected" | "undetected" => Ok(SimFailurePolicy::AssumeUndetected),
            "exclude" | "excluded" => Ok(SimFailurePolicy::Exclude),
            other => Err(format!(
                "unknown sim-failure policy `{other}` (want assume-detected, \
                 assume-undetected or exclude)"
            )),
        }
    }
}

/// Number of rungs in the convergence-escalation ladder, rung 0 being the
/// harness's own base options.
pub const ESCALATION_RUNGS: usize = 6;

/// Deterministic retry ladder for fault-injected circuits that fail to
/// simulate. Each rung keeps every robustness measure of the rungs below
/// it and adds one more, so the sequence is strictly monotone:
///
/// | rung | added measure                                   |
/// |------|-------------------------------------------------|
/// | 0    | the harness's base options                      |
/// | 1    | 4× Newton–Raphson iteration budget              |
/// | 2    | tighter per-iteration voltage-step clamp        |
/// | 3    | forced Backward Euler + extra step halvings     |
/// | 4    | raised `gmin` (≥ 1 nS to ground everywhere)     |
/// | 5    | relaxed `reltol` (≥ 1e-3)                       |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscalationLadder {
    /// Highest rung to try (`0` disables escalation entirely).
    pub max_rung: u8,
}

impl Default for EscalationLadder {
    fn default() -> Self {
        EscalationLadder {
            max_rung: (ESCALATION_RUNGS - 1) as u8,
        }
    }
}

impl EscalationLadder {
    /// A ladder that never retries: every class gets exactly one attempt
    /// with the base options.
    pub fn disabled() -> Self {
        EscalationLadder { max_rung: 0 }
    }

    /// Solver options at `rung`, derived cumulatively from `base`.
    pub fn options_at(base: &SimOptions, rung: u8) -> SimOptions {
        let mut o = base.clone();
        if rung >= 1 {
            o.max_iter = base.max_iter.saturating_mul(4);
        }
        if rung >= 2 {
            o.v_step_limit = base.v_step_limit.min(0.3);
        }
        if rung >= 3 {
            o.integration = Integration::BackwardEuler;
            o.max_step_halvings = base.max_step_halvings + 4;
        }
        if rung >= 4 {
            o.gmin = base.gmin.max(1e-9);
        }
        if rung >= 5 {
            o.reltol = base.reltol.max(1e-3);
        }
        o
    }
}

/// Configuration of one macro test path run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Defects to sprinkle.
    pub defects: usize,
    /// Sprinkle RNG seed.
    pub seed: u64,
    /// Defect statistics.
    pub stats: DefectStatistics,
    /// Process variation model.
    pub process: crate::processvar::ProcessModel,
    /// Good-space Monte-Carlo sizes.
    pub goodspace: GoodSpaceConfig,
    /// Evaluate only the `n` most frequent classes (None = all). The
    /// skipped tail is excluded from the statistics — use only for smoke
    /// tests.
    pub max_classes: Option<usize>,
    /// Also evaluate the non-catastrophic (near-miss) variants of shorts
    /// and extra contacts.
    pub non_catastrophic: bool,
    /// Parallel execution of the per-class fault evaluations and of the
    /// good space's Monte-Carlo common samples. Reports are bit-for-bit
    /// identical for every thread count; `threads = 1` is the plain
    /// serial loop.
    pub exec: ExecConfig,
    /// Accounting policy for classes that fail to simulate even after the
    /// escalation ladder.
    pub sim_failure_policy: SimFailurePolicy,
    /// Convergence-escalation ladder applied to fault-injected circuits.
    pub escalation: EscalationLadder,
    /// No effect. Every DC solve starts from the cold homotopy chain; the
    /// field remains so callers that set it keep compiling, and it is not
    /// part of the pipeline context.
    pub warm_start: bool,
    /// No effect. Every run memoizes measurements through one
    /// [`MeasurementStore`] (a fresh [`MemoryStore`] unless the hooks
    /// bring their own); the field remains so callers that set it keep
    /// compiling, and it is not part of the pipeline context.
    pub measure_cache: bool,
    /// No effect. The solver's exact factor cache is unconditional; the
    /// field remains so callers that set it keep compiling, and it is not
    /// part of the pipeline context.
    pub factor_reuse: bool,
    /// No effect. The rank-update solve path is retired; the field
    /// remains so callers that set it keep compiling, and it is not part
    /// of the pipeline context.
    pub rank_update: bool,
    /// No effect. Batched assembly is retired; the field remains so
    /// callers that set it keep compiling, and it is not part of the
    /// pipeline context.
    pub batch_assembly: bool,
    /// No effect. Transient step carry is unconditional since store
    /// `FORMAT_VERSION` 4; the field remains so callers that set it keep
    /// compiling, and it is not part of the pipeline context.
    pub tran_step_carry: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            defects: 25_000,
            seed: 1995,
            stats: DefectStatistics::default(),
            process: crate::processvar::ProcessModel::default(),
            goodspace: GoodSpaceConfig::default(),
            max_classes: None,
            non_catastrophic: true,
            exec: ExecConfig::default(),
            sim_failure_policy: SimFailurePolicy::default(),
            escalation: EscalationLadder::default(),
            warm_start: true,
            measure_cache: true,
            factor_reuse: true,
            rank_update: false,
            batch_assembly: true,
            tran_step_carry: false,
        }
    }
}

/// Errors from the pipeline.
#[derive(Debug)]
pub enum PathError {
    /// The fault-free circuit failed to simulate — a configuration bug.
    GoodCircuit(SimError),
    /// A [`ClassObserver`] requested an abort: the run stopped after the
    /// last in-order class it observed. Used by checkpointing campaigns
    /// (and their kill-and-resume tests) to stop a run at a precise,
    /// journaled point without delivering a real signal.
    Aborted {
        /// Number of classes the observer saw complete, in order, before
        /// requesting the abort.
        completed: usize,
    },
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::GoodCircuit(e) => {
                write!(f, "fault-free circuit failed to simulate: {e}")
            }
            PathError::Aborted { completed } => {
                write!(
                    f,
                    "run aborted by the class observer after {completed} classes"
                )
            }
        }
    }
}

impl std::error::Error for PathError {}

/// The measurement memo consulted by the fault-evaluation hot path: the
/// in-memory [`MemoryStore`] by default, or a persistent store (such as
/// `dotm_store::DiskStore`) that extends the memo across runs.
///
/// Keys mix a netlist content digest with an escalation rung. Two more
/// record kinds share the key space under tagged keys: the good space's
/// Monte-Carlo corners ([`GoodSpace::store_key`]) and the follow-up
/// simulations of a voltage classifier ([`Probe`]). A
/// persistent implementation is expected to fold its own campaign context
/// (harness configuration, seeds, sigma bounds) into the key before
/// touching storage, so stale entries can never be replayed.
///
/// The stored value must be the *complete* observable effect of the
/// measurement — result plus solver-stats delta — and a pure function of
/// the key, so replaying an entry is indistinguishable (in every report
/// byte) from recomputing it. Implementations must treat corrupt or
/// missing entries as misses, never as errors, and must be safe to share
/// across executor threads.
pub trait MeasurementStore: Sync {
    /// Looks up a stored measurement. `None` on a miss *or* on any
    /// storage-level problem (truncated file, bad checksum, I/O error).
    fn load(&self, key: u128) -> Option<CachedMeasurement>;

    /// Persists a freshly computed measurement. Failures must be absorbed
    /// (counted, at most): persistence is an accelerator, never a
    /// correctness dependency.
    fn store(&self, key: u128, value: &CachedMeasurement);

    /// Whether an entry exists for `key`, as cheaply as the backend can
    /// answer. The pipeline never calls it; it stays for backends and
    /// wrappers that forward or time it. Never a correctness input, so a
    /// conservative default (full load) is fine and a backend may answer
    /// from metadata alone (file existence).
    fn contains(&self, key: u128) -> bool {
        self.load(key).is_some()
    }
}

/// Observes class evaluations as they complete — always in ascending
/// class order, regardless of executor scheduling — so a campaign can
/// journal per-class progress with byte-identical journals at any thread
/// count.
pub trait ClassObserver: Sync {
    /// Called once per class, in class order, with the class's outcomes
    /// (one per evaluated severity). Return `false` to abort the run: no
    /// further classes are observed and the pipeline returns
    /// [`PathError::Aborted`].
    fn on_class(&self, index: usize, outcomes: &[ClassOutcome]) -> bool;
}

/// Fans one in-order class-completion stream out to several observers.
///
/// Every inner observer sees every class, in the same ascending order the
/// dispatch guarantees; delivery order within a class is the constructor
/// order. The fan-out aborts when *any* inner observer votes to abort,
/// but only after the whole panel has seen the class — a side-channel
/// consumer (progress events, metrics) never misses the journaled
/// frontier because a sibling (abort injection) stopped the run.
pub struct FanoutObserver<'a> {
    observers: Vec<&'a dyn ClassObserver>,
}

impl<'a> FanoutObserver<'a> {
    /// Builds a fan-out delivering to `observers` in the given order.
    pub fn new(observers: Vec<&'a dyn ClassObserver>) -> Self {
        FanoutObserver { observers }
    }
}

impl ClassObserver for FanoutObserver<'_> {
    fn on_class(&self, index: usize, outcomes: &[ClassOutcome]) -> bool {
        let mut keep = true;
        for observer in &self.observers {
            keep &= observer.on_class(index, outcomes);
        }
        keep
    }
}

/// One worker's slice of a sharded campaign.
///
/// A campaign run as `count` cooperating processes partitions each
/// macro's class list into `count` contiguous index ranges; worker
/// `index` evaluates only [`range`](ShardSpec::range) and journals it as
/// a segment. The partition is a pure function of `(index, count,
/// classes)` — no shared state, no filesystem order — so every process
/// (and every re-run of a crashed worker) derives the same assignment,
/// and the merged result is bit-identical to a single-process run at
/// any `(shards × threads)` combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This worker's shard index, `0 ≤ index < count`.
    pub index: usize,
    /// Total number of shards in the campaign.
    pub count: usize,
}

impl ShardSpec {
    /// Builds a validated spec.
    ///
    /// # Errors
    /// When `count` is zero or `index` is out of range.
    pub fn new(index: usize, count: usize) -> Result<Self, String> {
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shards"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// Parses the `i/N` notation used by `campaign --shard i/N`.
    ///
    /// # Errors
    /// On anything that is not `<index>/<count>` with `index < count`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (i, n) = s
            .trim()
            .split_once('/')
            .ok_or_else(|| format!("expected <index>/<count>, got {s:?}"))?;
        let index = i
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("bad shard index {i:?}"))?;
        let count = n
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("bad shard count {n:?}"))?;
        ShardSpec::new(index, count)
    }

    /// The contiguous class-index range this shard evaluates out of
    /// `classes` total. Ranges tile `0..classes` exactly (no gaps, no
    /// overlap) and differ in length by at most one class.
    pub fn range(&self, classes: usize) -> std::ops::Range<usize> {
        // In u128, so a class count read from a corrupt segment header
        // cannot overflow; every bound is at most `classes`.
        let bound = |i: usize| (i as u128 * classes as u128 / self.count as u128) as usize;
        bound(self.index)..bound(self.index + 1)
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Optional hooks threaded through one pipeline run. All hooks are
/// borrowed and frozen before parallel work starts: they are shared
/// read-only across executor workers so hooked runs stay deterministic.
#[derive(Default)]
pub struct PipelineHooks<'a> {
    /// Measurement store: consulted before every solve
    /// (load-before-evaluate), appended to after every computed
    /// measurement (append-after-evaluate) — class measurements, the
    /// good space's Monte-Carlo corners and classifier follow-up
    /// simulations alike. `None` runs against a fresh [`MemoryStore`],
    /// so duplicates are solved once either way.
    pub store: Option<&'a dyn MeasurementStore>,
    /// In-order completion observer (campaign journaling, abort
    /// injection).
    pub observer: Option<&'a dyn ClassObserver>,
    /// Previously completed outcomes by class index (a journal's
    /// contiguous prefix): the pipeline replays these verbatim instead of
    /// re-evaluating, which is what makes a resumed run bit-identical to
    /// an uninterrupted one. Indices beyond the vector (or `None` slots)
    /// evaluate normally.
    pub completed: Vec<Option<Vec<ClassOutcome>>>,
    /// Evaluate only this shard's contiguous class range. Classes outside
    /// the range are skipped entirely — not evaluated, not observed, not
    /// reported — so the returned report covers exactly the shard. The
    /// observer still sees the shard's classes in ascending order.
    pub shard: Option<ShardSpec>,
}

/// Serializes observer callbacks into ascending class order: workers
/// deposit finished classes here, and whichever worker completes the
/// contiguous frontier drains it while holding the lock.
struct ObserverDispatch<'a> {
    observer: &'a dyn ClassObserver,
    state: Mutex<DispatchState>,
    aborted: AtomicBool,
}

struct DispatchState {
    /// Next class index to hand to the observer.
    next: usize,
    /// Finished classes waiting for the frontier to reach them.
    pending: BTreeMap<usize, Vec<ClassOutcome>>,
    /// Classes delivered to the observer so far.
    delivered: usize,
}

impl<'a> ObserverDispatch<'a> {
    /// `first` is the lowest class index this run will deliver — `0` for
    /// a whole-macro run, the shard range's start for a sharded worker.
    fn new(observer: &'a dyn ClassObserver, first: usize) -> Self {
        ObserverDispatch {
            observer,
            state: Mutex::new(DispatchState {
                next: first,
                pending: BTreeMap::new(),
                delivered: 0,
            }),
            aborted: AtomicBool::new(false),
        }
    }

    fn aborted(&self) -> bool {
        self.aborted.load(Ordering::Relaxed)
    }

    fn complete(&self, index: usize, outcomes: &[ClassOutcome]) {
        if self.aborted() {
            return;
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.pending.insert(index, outcomes.to_vec());
        while let Some(outcomes) = {
            let next = state.next;
            state.pending.remove(&next)
        } {
            if self.aborted() {
                state.pending.clear();
                return;
            }
            let keep_going = self.observer.on_class(state.next, &outcomes);
            state.next += 1;
            // The aborting class still counts as delivered: the observer
            // has already processed (e.g. journaled) it, so `completed`
            // always equals the checkpoint prefix length.
            state.delivered += 1;
            if !keep_going {
                self.aborted.store(true, Ordering::Relaxed);
                state.pending.clear();
                return;
            }
        }
    }

    fn delivered(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .delivered
    }
}

/// Evaluated outcome of one fault class at one severity.
#[derive(Debug, Clone)]
pub struct ClassOutcome {
    /// Canonical class key.
    pub key: String,
    /// Mechanism (Table 1 row).
    pub mechanism: FaultMechanism,
    /// Collapsed member count (the likelihood weight).
    pub count: usize,
    /// Catastrophic or near-miss model.
    pub severity: Severity,
    /// `true` if the fault touches a net shared with other macro
    /// instances (its current deviation scales with the instance count).
    pub shared: bool,
    /// Voltage fault signature (worst-case over model variants).
    pub voltage: VoltageSignature,
    /// Combined detection outcome of the worst-case variant: the
    /// missing-code verdict and the current detections.
    pub detection: DetectionSet,
    /// Indices (into the harness's measurement plan) of the current
    /// measurements that flagged this class — the raw material for
    /// test-set compaction.
    pub flagged: Vec<usize>,
    /// `true` if the reported result rests on a circuit that failed to
    /// converge even at the top of the escalation ladder (accounted per
    /// the run's [`SimFailurePolicy`]).
    pub sim_failed: bool,
    /// `true` if no model variant could be injected at all (excluded from
    /// statistics).
    pub inject_failed: bool,
    /// Highest escalation-ladder rung any measured variant of this class
    /// needed (`Some(0)` = base options sufficed; `None` = no variant
    /// ever measured).
    pub rung: Option<u8>,
    /// Model variants that hit a *real* injection error (unknown
    /// net/device, netlist edit failure) — not-applicable variants are
    /// legitimately skipped and not counted here.
    pub inject_errors: usize,
    /// `true` if the class was dropped from the weighted statistics by
    /// [`SimFailurePolicy::Exclude`].
    pub excluded: bool,
    /// Solver telemetry accumulated over every variant and ladder rung
    /// tried for this class.
    pub solver: SimStats,
}

/// Full result of one macro's test path.
#[derive(Debug, Clone)]
pub struct MacroReport {
    /// Macro name.
    pub name: String,
    /// Instances in the full circuit.
    pub instances: usize,
    /// Area over which defects were sprinkled (nm²).
    pub sprinkle_area_nm2: f64,
    /// Defects sprinkled.
    pub defects: usize,
    /// Catastrophic faults found (pre-collapse).
    pub total_faults: usize,
    /// Number of collapsed classes.
    pub class_count: usize,
    /// Evaluated outcomes (catastrophic, plus non-catastrophic entries
    /// when enabled).
    pub outcomes: Vec<ClassOutcome>,
    /// Solver telemetry of the good-space compilation (nominal plus every
    /// Monte-Carlo corner).
    pub goodspace_solver: SimStats,
    /// Process corners redrawn during good-space compilation because the
    /// simulator left its convergence envelope.
    pub goodspace_corner_retries: u64,
}

impl MacroReport {
    /// Outcomes of one severity (excluding injection failures and classes
    /// dropped by [`SimFailurePolicy::Exclude`]).
    pub fn outcomes_of(&self, severity: Severity) -> impl Iterator<Item = &ClassOutcome> {
        self.outcomes
            .iter()
            .filter(move |o| o.severity == severity && !o.inject_failed && !o.excluded)
    }

    /// Total fault weight of one severity.
    pub fn weight_of(&self, severity: Severity) -> f64 {
        self.outcomes_of(severity).map(|o| o.count as f64).sum()
    }

    /// Weighted fraction of faults satisfying a predicate, in percent.
    pub fn pct_where(&self, severity: Severity, pred: impl Fn(&ClassOutcome) -> bool) -> f64 {
        let total = self.weight_of(severity);
        if total == 0.0 {
            return 0.0;
        }
        let hit: f64 = self
            .outcomes_of(severity)
            .filter(|o| pred(o))
            .map(|o| o.count as f64)
            .sum();
        100.0 * hit / total
    }

    /// Overall fault coverage (any detection mechanism), in percent.
    pub fn coverage(&self, severity: Severity) -> f64 {
        self.pct_where(severity, |o| o.detection.detected())
    }

    /// Outcomes whose reported result rests on a circuit that never
    /// converged, even at the top of the escalation ladder.
    pub fn sim_failed_classes(&self) -> usize {
        self.outcomes.iter().filter(|o| o.sim_failed).count()
    }

    /// Outcomes where at least one model variant hit a real injection
    /// error (unknown net/device, netlist edit failure).
    pub fn inject_failed_classes(&self) -> usize {
        self.outcomes.iter().filter(|o| o.inject_errors > 0).count()
    }

    /// Outcomes that needed at least one escalation rung above the base
    /// options before a variant measured.
    pub fn escalated_classes(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.rung.unwrap_or(0) > 0)
            .count()
    }

    /// Outcomes dropped from the statistics by
    /// [`SimFailurePolicy::Exclude`].
    pub fn excluded_classes(&self) -> usize {
        self.outcomes.iter().filter(|o| o.excluded).count()
    }

    /// Histogram over the highest ladder rung each measured outcome
    /// needed (index = rung; outcomes that never measured do not appear).
    ///
    /// A rung outside `0..ESCALATION_RUNGS` cannot come from the ladder —
    /// it means a deserialized/foreign outcome disagrees with this
    /// build's rung count. Debug builds fail fast on that skew; release
    /// builds saturate into the top bucket rather than panicking over a
    /// diagnostic counter.
    pub fn rung_histogram(&self) -> [u64; ESCALATION_RUNGS] {
        let mut hist = [0u64; ESCALATION_RUNGS];
        for o in &self.outcomes {
            if let Some(r) = o.rung {
                debug_assert!(
                    (r as usize) < ESCALATION_RUNGS,
                    "outcome rung {r} out of range for a {ESCALATION_RUNGS}-rung ladder"
                );
                hist[(r as usize).min(ESCALATION_RUNGS - 1)] += 1;
            }
        }
        hist
    }

    /// Total solver telemetry: every fault-simulation solve plus the
    /// good-space compilation.
    pub fn solver_totals(&self) -> SimStats {
        let mut total = self.goodspace_solver;
        for o in &self.outcomes {
            total.merge(&o.solver);
        }
        total
    }

    /// A 64-bit FNV-1a digest over every field of the report, including
    /// the exact bit patterns of the floating-point members. Two reports
    /// fingerprint equal iff they are bit-for-bit identical — the
    /// executor's determinism contract is asserted on this value.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.bytes(self.name.as_bytes())
            .u64(self.instances as u64)
            .u64(self.sprinkle_area_nm2.to_bits())
            .u64(self.defects as u64)
            .u64(self.total_faults as u64)
            .u64(self.class_count as u64);
        for o in &self.outcomes {
            h.bytes(o.key.as_bytes())
                .bytes(format!("{:?}", o.mechanism).as_bytes())
                .u64(o.count as u64)
                .bytes(format!("{:?}", o.severity).as_bytes())
                .bytes(format!("{:?}", o.voltage).as_bytes())
                .bytes(&[
                    o.shared as u8,
                    o.detection.currents.ivdd as u8,
                    o.detection.currents.iddq as u8,
                    o.detection.currents.iinput as u8,
                    o.detection.missing_code as u8,
                    o.sim_failed as u8,
                    o.inject_failed as u8,
                    o.excluded as u8,
                    o.rung.unwrap_or(u8::MAX),
                ])
                .u64(o.inject_errors as u64);
            for w in o.solver.to_words() {
                h.u64(w);
            }
            for &i in &o.flagged {
                h.u64(i as u64);
            }
        }
        for w in self.goodspace_solver.to_words() {
            h.u64(w);
        }
        h.u64(self.goodspace_corner_retries);
        h.finish()
    }

    /// Expected number of faults this macro type contributes per sprinkled
    /// defect per unit chip area — the paper's defect-density scaling
    /// weight for global compilation.
    pub fn global_weight(&self) -> f64 {
        if self.defects == 0 {
            return 0.0;
        }
        let fault_rate = self.total_faults as f64 / self.defects as f64;
        self.instances as f64 * self.sprinkle_area_nm2 * fault_rate
    }
}

/// The nets a fault effect actually touches in the netlist (resolving
/// device-level effects to their terminals).
fn effect_nets(effect: &FaultEffect, nl: &Netlist) -> Vec<String> {
    let mut nets: Vec<String> = match effect {
        FaultEffect::Bridge { nets, .. } => nets.clone(),
        FaultEffect::NodeSplit { net, .. } => vec![net.clone()],
        FaultEffect::BulkLeak { net, bulk } => vec![net.clone(), bulk.clone()],
        FaultEffect::NewDevice { net, gate, .. } => {
            let mut v = vec![net.clone()];
            if let Some(g) = gate {
                v.push(g.clone());
            }
            v
        }
        FaultEffect::GateOxide { device } | FaultEffect::DeviceShort { device } => nl
            .device(device)
            .map(|d| {
                let terms = d.terminals();
                let keep: &[usize] = match (&d.kind, effect) {
                    (DeviceKind::Mosfet { .. }, FaultEffect::GateOxide { .. }) => &[0, 1, 2],
                    (DeviceKind::Mosfet { .. }, FaultEffect::DeviceShort { .. }) => &[0, 2],
                    _ => &[],
                };
                keep.iter()
                    .filter_map(|&t| terms.get(t))
                    .map(|n| nl.node_name(*n).to_string())
                    .collect()
            })
            .unwrap_or_default(),
    };
    nets.sort();
    nets.dedup();
    nets
}

/// Sprinkles `cfg.defects` defects (seed `cfg.seed`) on the harness's
/// layout and collapses the faults, under a `sprinkle <macro>` span.
/// Returns the population and the sprinkle area in nm².
pub fn sprinkle_macro(harness: &dyn MacroHarness, cfg: &PipelineConfig) -> (CollapseReport, f64) {
    let _span = dotm_obs::span_with("sprinkle", || format!("sprinkle {}", harness.name()));
    let layout = harness.layout();
    let sprinkler = Sprinkler::new(&layout, cfg.stats.clone());
    let collapsed = sprinkle_collapsed(&sprinkler, cfg.defects, cfg.seed);
    (collapsed, sprinkler.area_nm2())
}

/// Runs the full test path for one macro.
///
/// # Errors
/// [`PathError::GoodCircuit`] if the fault-free testbench does not
/// simulate.
pub fn run_macro_path(
    harness: &dyn MacroHarness,
    cfg: &PipelineConfig,
) -> Result<MacroReport, PathError> {
    let (collapsed, area) = sprinkle_macro(harness, cfg);
    run_macro_path_with_faults(harness, cfg, &collapsed, area)
}

/// Runs the evaluation part of the test path on an existing collapsed
/// fault population (lets Table-1-style sprinkles be reused).
///
/// # Errors
/// [`PathError::GoodCircuit`] if the fault-free testbench does not
/// simulate.
pub fn run_macro_path_with_faults(
    harness: &dyn MacroHarness,
    cfg: &PipelineConfig,
    collapsed: &CollapseReport,
    sprinkle_area_nm2: f64,
) -> Result<MacroReport, PathError> {
    run_macro_path_with_faults_hooked(
        harness,
        cfg,
        collapsed,
        sprinkle_area_nm2,
        &PipelineHooks::default(),
    )
}

/// [`run_macro_path_with_faults`] with campaign hooks: a persistent
/// measurement store, an in-order class observer, and a replay prefix of
/// previously completed classes (see [`PipelineHooks`]).
///
/// # Errors
/// [`PathError::GoodCircuit`] if the fault-free testbench does not
/// simulate; [`PathError::Aborted`] if the observer requested an abort.
pub fn run_macro_path_with_faults_hooked(
    harness: &dyn MacroHarness,
    cfg: &PipelineConfig,
    collapsed: &CollapseReport,
    sprinkle_area_nm2: f64,
    hooks: &PipelineHooks<'_>,
) -> Result<MacroReport, PathError> {
    let _macro_span = dotm_obs::span_with("macro", || format!("macro {}", harness.name()));
    let memo = MemoryStore::new();
    let store = hooks.store.unwrap_or(&memo);
    let good = GoodSpace::compile_in(harness, &cfg.process, cfg.goodspace, &cfg.exec, store)
        .map_err(PathError::GoodCircuit)?;
    let injector = Injector::default();
    let shared: HashSet<&str> = harness.shared_nets().into_iter().collect();
    let base = harness.testbench();

    let classes: Vec<_> = match cfg.max_classes {
        Some(n) => collapsed.classes.iter().take(n).collect(),
        None => collapsed.classes.iter().collect(),
    };
    // The shard's contiguous slice of the class list (everything, for an
    // unsharded run). Out-of-range classes are skipped entirely.
    let shard_range = hooks
        .shard
        .map_or(0..classes.len(), |s| s.range(classes.len()));
    let dispatch = hooks
        .observer
        .map(|o| ObserverDispatch::new(o, shard_range.start));

    // Each class is a pure function of the compiled good space and the
    // base netlist, so the evaluation fans out across threads; collecting
    // per-class result vectors by index and flattening keeps the outcome
    // order — and therefore the whole report — identical to the serial
    // loop for every thread count.
    let outcomes: Vec<Vec<ClassOutcome>> = exec::par_map(&cfg.exec, &classes, |ci, class| {
        // Out-of-shard classes belong to another worker: skipped without
        // evaluation, observation or reporting.
        if !shard_range.contains(&ci) {
            return Vec::new();
        }
        // Once an observer aborts, remaining classes are skipped: their
        // (empty) results never reach the report, because the whole run
        // returns `PathError::Aborted` below.
        if dispatch.as_ref().is_some_and(|d| d.aborted()) {
            return Vec::new();
        }
        // A journaled class from a previous (interrupted) run replays
        // verbatim — same bytes in, same bytes out — instead of
        // re-evaluating.
        if let Some(Some(prior)) = hooks.completed.get(ci) {
            let outcomes = prior.clone();
            if let Some(d) = &dispatch {
                d.complete(ci, &outcomes);
            }
            return outcomes;
        }
        let _class_span = dotm_obs::span_with("class", || format!("class {ci}"));
        let effect = &class.representative.effect;
        let is_shared = effect_nets(effect, &base)
            .iter()
            .any(|n| shared.contains(n.as_str()));
        let mut severities = vec![Severity::Catastrophic];
        if cfg.non_catastrophic && injector.supports_non_catastrophic(effect) {
            severities.push(Severity::NonCatastrophic);
        }
        let outcomes: Vec<ClassOutcome> = severities
            .into_iter()
            .map(|severity| {
                evaluate_class(
                    harness, &injector, &good, &base, class, severity, is_shared, cfg, store,
                )
            })
            .collect();
        if let Some(d) = &dispatch {
            d.complete(ci, &outcomes);
        }
        outcomes
    });

    if let Some(d) = &dispatch {
        if d.aborted() {
            return Err(PathError::Aborted {
                completed: d.delivered(),
            });
        }
    }
    let outcomes: Vec<ClassOutcome> = outcomes.into_iter().flatten().collect();

    Ok(MacroReport {
        name: harness.name().to_string(),
        instances: harness.instance_count(),
        sprinkle_area_nm2,
        defects: collapsed.defects,
        total_faults: collapsed.total_faults,
        class_count: collapsed.class_count(),
        outcomes,
        goodspace_solver: good.solver,
        goodspace_corner_retries: good.corner_retries,
    })
}

/// Detection outcome of a single model variant, competing in the
/// worst-case (minimum-score) selection.
struct VariantEval {
    voltage: VoltageSignature,
    detection: DetectionSet,
    flagged: Vec<usize>,
    sim_failed: bool,
    /// Ladder rung this variant measured at (`None` for policy stand-ins
    /// of variants that never measured).
    rung: Option<u8>,
}

/// Combines a netlist content digest with a ladder rung into the
/// measurement-store key: one extra FNV-1a step, so rungs of the same
/// circuit land in unrelated buckets.
fn store_key(digest: u128, rung: u8) -> u128 {
    (digest ^ (rung as u128 + 1)).wrapping_mul(0x0000000001000000000000000000013b)
}

/// The store key of a record that is not a `(netlist, rung)`
/// measurement (the good space's Monte Carlo, a classifier's follow-up
/// simulation): 128-bit FNV-1a over a tag naming the record kind and the
/// words its value depends on. Distinct tags keep the kinds apart, and a
/// collision with a [`store_key`] is as unlikely as any 128-bit one.
pub(crate) fn tagged_key(tag: &str, words: &[u64]) -> u128 {
    let mut h = Fnv128::new();
    h.str(tag);
    for &w in words {
        h.u64(w);
    }
    h.finish()
}

/// Answers `key` from `store`, or computes it with `compute` and stores
/// the result. Either way the entry's solver-stats delta is merged into
/// `solver`, so accounting is identical whether the value was computed
/// or replayed.
pub(crate) fn memoized(
    store: &dyn MeasurementStore,
    key: u128,
    solver: &mut SimStats,
    compute: impl FnOnce(&mut SimStats) -> Result<Vec<f64>, SimError>,
) -> Result<Vec<f64>, SimError> {
    if let Some((result, delta)) = store.load(key) {
        // Honest replay marker: the deterministic artifacts must not
        // distinguish a replayed measurement from a computed one, so the
        // distinction lives only in this trace-side counter.
        dotm_obs::counter("replay.store_hits", 1);
        solver.merge(&delta);
        return result;
    }
    let mut delta = SimStats::default();
    let result = compute(&mut delta);
    store.store(key, &(result.clone(), delta));
    solver.merge(&delta);
    result
}

/// Measures one injected variant, walking up the escalation ladder on
/// retryable failures. Returns the measurement and the rung that
/// succeeded, or `None` if every rung failed (or the failure was not a
/// numerical one, where retrying cannot help).
fn measure_escalated(
    harness: &dyn MacroHarness,
    nl: &Netlist,
    base_opts: &SimOptions,
    ladder: EscalationLadder,
    solver: &mut SimStats,
    store: &dyn MeasurementStore,
) -> Option<(Vec<f64>, u8)> {
    // One digest per injected netlist, shared by every rung's store key.
    let digest = nl.content_digest();
    for rung in 0..=ladder.max_rung {
        let opts = EscalationLadder::options_at(base_opts, rung);
        // Per-rung escalation timing: each retry of the same variant gets
        // its own span, so the trace shows how much wall-clock the ladder
        // itself costs (rung 0 is the ordinary first attempt).
        let rung_span = dotm_obs::span_with("rung", || format!("rung {rung}"));
        let outcome = memoized(store, store_key(digest, rung), solver, |delta| {
            with_instrumented_sim(nl, &opts, delta, |sim| harness.measure_with(nl, sim))
        });
        drop(rung_span);
        match outcome {
            Ok(meas) => return Some((meas, rung)),
            Err(e) if e.is_retryable() => continue,
            Err(_) => return None,
        }
    }
    None
}

/// Worst-case competition score of one variant: the number of distinct
/// detections it earns. Lower is harder to detect.
fn variant_score(v: &VariantEval) -> u32 {
    let c = v.detection.currents;
    (v.detection.missing_code as u32) + (c.ivdd as u32) + (c.iddq as u32) + (c.iinput as u32)
}

/// Folds one candidate into the running worst-case (minimum-score)
/// selection. The comparison is strictly `<`, so on a tie the
/// earliest-folded variant wins: the selection depends only on the fold
/// *order* (variant index), never on scheduling — pinned by the
/// `worst_case_tie_break_prefers_earliest_variant` regression test.
fn compete(best: Option<(u32, VariantEval)>, candidate: VariantEval) -> Option<(u32, VariantEval)> {
    let score = variant_score(&candidate);
    Some(match best {
        None => (score, candidate),
        Some(prev) if score < prev.0 => (score, candidate),
        Some(prev) => prev,
    })
}

/// Classifies one successful measurement into its competing
/// [`VariantEval`]; any follow-up simulation the classifier runs goes
/// through `probe`.
fn measured_eval(
    harness: &dyn MacroHarness,
    good: &GoodSpace,
    shared: bool,
    meas: &[f64],
    used_rung: u8,
    probe: &mut Probe<'_>,
) -> VariantEval {
    let voltage = harness.classify_voltage_with(&good.nominal, meas, probe);
    let (currents, flagged) = good.current_detections(harness, meas, shared);
    let detection = DetectionSet {
        missing_code: voltage.causes_missing_code(),
        currents,
    };
    VariantEval {
        voltage,
        detection,
        flagged,
        sim_failed: false,
        rung: Some(used_rung),
    }
}

/// The policy stand-in for a variant that failed to simulate at every
/// ladder rung. `None` under [`SimFailurePolicy::Exclude`]: the variant
/// simply does not compete.
fn policy_eval(policy: SimFailurePolicy) -> Option<VariantEval> {
    // The paper's reading: a faulty circuit without a stable solution
    // behaves erratically on the tester — garbage codes, so the
    // missing-code test flags it. Pessimistically, the solver's failure
    // earns no detection credit, so the variant scores 0 and is always
    // the worst case. Excluded variants do not compete; if every variant
    // is excluded the whole class drops from the statistics.
    let missing_code = match policy {
        SimFailurePolicy::AssumeDetected => true,
        SimFailurePolicy::AssumeUndetected => false,
        SimFailurePolicy::Exclude => return None,
    };
    Some(VariantEval {
        voltage: VoltageSignature::Mixed,
        detection: DetectionSet {
            missing_code,
            currents: CurrentFlags::default(),
        },
        flagged: Vec::new(),
        sim_failed: true,
        rung: None,
    })
}

/// Builds the class's [`ClassOutcome`] at one severity from the
/// surviving worst case (or its absence).
fn finish_class(
    class: &FaultClass,
    severity: Severity,
    shared: bool,
    best: Option<(u32, VariantEval)>,
    any_injected: bool,
    inject_errors: usize,
    solver: SimStats,
) -> ClassOutcome {
    // `best` is empty either because nothing injected (inject_failed)
    // or because `Exclude` dropped every sim-failed variant (excluded,
    // sim_failed).
    let excluded = best.is_none() && any_injected;
    // The recorded rung is the *winning* (worst-case) variant's: the
    // escalation histogram describes what it took to obtain the reported
    // signature, not the hardest variant that was merely tried along the
    // way.
    let v = best.map_or(
        VariantEval {
            voltage: VoltageSignature::NoDeviation,
            detection: DetectionSet::default(),
            flagged: Vec::new(),
            sim_failed: excluded,
            rung: None,
        },
        |(_, v)| v,
    );
    ClassOutcome {
        key: class.key.clone(),
        mechanism: class.mechanism(),
        count: class.count,
        severity,
        shared,
        voltage: v.voltage,
        detection: v.detection,
        flagged: v.flagged,
        sim_failed: v.sim_failed,
        inject_failed: !any_injected,
        rung: v.rung,
        inject_errors,
        excluded,
        solver,
    }
}

/// Evaluates one class at one severity, keeping the worst-case (hardest
/// to detect) model variant. Variants that fail to simulate at every
/// ladder rung enter the selection per `policy`.
#[allow(clippy::too_many_arguments)]
fn evaluate_class(
    harness: &dyn MacroHarness,
    injector: &Injector,
    good: &GoodSpace,
    base: &Netlist,
    class: &FaultClass,
    severity: Severity,
    shared: bool,
    cfg: &PipelineConfig,
    store: &dyn MeasurementStore,
) -> ClassOutcome {
    let effect = &class.representative.effect;
    let policy = cfg.sim_failure_policy;
    let ladder = cfg.escalation;
    let n_variants = injector.variant_count(effect);
    let base_opts = harness.sim_options();
    let mut best: Option<(u32, VariantEval)> = None;
    let mut any_injected = false;
    let mut inject_errors = 0usize;
    let mut solver = SimStats::default();
    for variant in 0..n_variants {
        let mut nl = base.clone();
        match injector.inject(&mut nl, effect, severity, variant, "flt") {
            Ok(()) => any_injected = true,
            Err(InjectError::NotApplicable(_)) => continue,
            Err(_) => {
                // A *real* injection error (unknown net/device, netlist
                // edit failure) is silent data loss if merely skipped —
                // count it so the report can surface it.
                inject_errors += 1;
                continue;
            }
        }
        let candidate =
            match measure_escalated(harness, &nl, &base_opts, ladder, &mut solver, store) {
                Some((meas, used_rung)) => {
                    let mut probe = Probe::new(store, &mut solver);
                    measured_eval(harness, good, shared, &meas, used_rung, &mut probe)
                }
                None => match policy_eval(policy) {
                    Some(v) => v,
                    None => continue,
                },
            };
        best = compete(best.take(), candidate);
    }
    finish_class(
        class,
        severity,
        shared,
        best,
        any_injected,
        inject_errors,
        solver,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::MacroHarness;
    use crate::measure::{MeasureKind, MeasureLabel, MeasurementPlan};
    use crate::signature::{CurrentKind, VoltageSignature};
    use dotm_defects::{collapse, BridgeMedium, Defect, DefectKind, Fault};
    use dotm_layout::{Layer, Layout};
    use dotm_netlist::{Netlist, Waveform};
    use dotm_sim::Simulator;

    /// A minimal harness: a 5 V divider whose mid voltage is the decision
    /// and whose supply current is the IVdd measurement.
    #[derive(Debug)]
    struct DividerHarness;

    impl MacroHarness for DividerHarness {
        fn name(&self) -> &str {
            "divider"
        }

        fn layout(&self) -> Layout {
            let mut lo = Layout::new("divider");
            let gnd = lo.net("gnd");
            lo.set_substrate_net(gnd);
            let vdd = lo.net("vdd");
            let mid = lo.net("mid");
            lo.wire_h(vdd, Layer::Metal1, 0, 50_000, 0, 700);
            lo.wire_h(mid, Layer::Metal1, 0, 50_000, 1_400, 700);
            lo
        }

        fn instance_count(&self) -> usize {
            1
        }

        fn testbench(&self) -> Netlist {
            let mut nl = Netlist::new("divider");
            let vdd = nl.node("vdd");
            let mid = nl.node("mid");
            nl.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(5.0))
                .unwrap();
            nl.add_resistor("R1", vdd, mid, 10e3).unwrap();
            nl.add_resistor("R2", mid, Netlist::GROUND, 10e3).unwrap();
            nl
        }

        fn plan(&self) -> MeasurementPlan {
            MeasurementPlan {
                labels: vec![
                    MeasureLabel::new(MeasureKind::Decision, "v(mid)"),
                    MeasureLabel::new(MeasureKind::Current(CurrentKind::IVdd), "ivdd"),
                ],
            }
        }

        fn measure_with(
            &self,
            nl: &Netlist,
            sim: &mut Simulator<'_>,
        ) -> Result<Vec<f64>, dotm_sim::SimError> {
            let op = sim.dc_op()?;
            Ok(vec![
                op.voltage(nl.find_node("mid").expect("mid")),
                nl.device_id("VDD")
                    .and_then(|id| op.branch_current(id))
                    .unwrap_or(0.0),
            ])
        }

        fn classify_voltage(&self, nominal: &[f64], faulty: &[f64]) -> VoltageSignature {
            let dv = (nominal[0] - faulty[0]).abs();
            if dv > 1.0 {
                VoltageSignature::OutputStuckAt
            } else if dv > 0.05 {
                VoltageSignature::Offset
            } else {
                VoltageSignature::NoDeviation
            }
        }

        fn shared_nets(&self) -> Vec<&'static str> {
            vec!["vdd"]
        }

        fn current_floor(&self, _kind: CurrentKind) -> f64 {
            50e-6
        }
    }

    fn fault(effect: FaultEffect, mechanism: FaultMechanism) -> Fault {
        Fault {
            mechanism,
            effect,
            defect: Defect {
                kind: DefectKind::ExtraMetal1,
                x: 0,
                y: 0,
                size: 1000,
            },
        }
    }

    fn run(faults: Vec<Fault>) -> MacroReport {
        let collapsed = collapse(1000, faults);
        let cfg = PipelineConfig {
            goodspace: crate::goodspace::GoodSpaceConfig {
                common_samples: 2,
                mismatch_samples: 2,
                seed: 1,
                ..GoodSpaceConfig::default()
            },
            ..PipelineConfig::default()
        };
        run_macro_path_with_faults(&DividerHarness, &cfg, &collapsed, 1e6).expect("path")
    }

    /// A memory store that also keeps the set of keys it was asked to
    /// store.
    #[derive(Default)]
    struct KeySet {
        memo: MemoryStore,
        keys: Mutex<HashSet<u128>>,
    }

    impl MeasurementStore for KeySet {
        fn load(&self, key: u128) -> Option<CachedMeasurement> {
            self.memo.load(key)
        }

        fn store(&self, key: u128, value: &CachedMeasurement) {
            self.keys.lock().unwrap().insert(key);
            self.memo.store(key, value);
        }
    }

    #[test]
    fn classes_with_the_same_follow_up_share_one_probe_entry() {
        let h = crate::harnesses::BiasHarness::default();
        let cfg = PipelineConfig {
            defects: 2_000,
            goodspace: GoodSpaceConfig {
                common_samples: 2,
                mismatch_samples: 2,
                ..GoodSpaceConfig::default()
            },
            non_catastrophic: false,
            ..PipelineConfig::default()
        };
        let (sprinkled, _) = sprinkle_macro(&h, &cfg);
        // Evaluates `classes` at `threads`, returning the report and the
        // number of distinct store entries it wrote.
        let run = |classes: Vec<FaultClass>, threads: usize| {
            let collapsed = CollapseReport {
                defects: sprinkled.defects,
                total_faults: sprinkled.total_faults,
                classes,
            };
            let cfg = PipelineConfig {
                exec: ExecConfig::with_threads(threads),
                ..cfg.clone()
            };
            let store = KeySet::default();
            let hooks = PipelineHooks {
                store: Some(&store),
                ..PipelineHooks::default()
            };
            let report = run_macro_path_with_faults_hooked(&h, &cfg, &collapsed, 1.0, &hooks)
                .expect("bias path");
            let entries = store.keys.lock().unwrap().len();
            (report, entries)
        };
        // A class whose classifier propagated its bias vector through a
        // comparator: the bias generator's own measurement is a DC
        // solve, so transient steps come from the follow-up alone.
        let (class, (alone, entries)) = sprinkled
            .classes
            .iter()
            .take(12)
            .map(|c| (c.clone(), run(vec![c.clone()], 1)))
            .find(|(_, (r, _))| r.outcomes[0].solver.tran_steps > 0)
            .expect("a class whose classification propagates");
        // Its twin injects the same circuit under another class key, so
        // its follow-up is bit-identical.
        let twin = FaultClass {
            key: format!("{}#twin", class.key),
            ..class.clone()
        };
        for threads in [1, 4] {
            let (report, twin_entries) = run(vec![class.clone(), twin.clone()], threads);
            assert_eq!(
                twin_entries, entries,
                "{threads} threads: the twin adds no entry, not even a probe one"
            );
            for o in &report.outcomes {
                assert_eq!(o.solver, alone.outcomes[0].solver, "{threads} threads");
                assert_eq!(o.voltage, alone.outcomes[0].voltage, "{threads} threads");
            }
        }
    }

    #[test]
    fn tagged_keys_stay_clear_of_measurement_keys() {
        let digest = DividerHarness.testbench().content_digest();
        let words = [digest as u64, (digest >> 64) as u64];
        let tagged = [tagged_key("goodspace", &words), tagged_key("probe", &words)];
        assert_ne!(tagged[0], tagged[1], "the tag separates record kinds");
        for rung in 0..ESCALATION_RUNGS as u8 {
            assert!(!tagged.contains(&store_key(digest, rung)), "rung {rung}");
        }
    }

    #[test]
    fn hard_short_is_stuck_and_current_detected() {
        let report = run(vec![fault(
            FaultEffect::Bridge {
                nets: vec!["mid".into(), "vdd".into()],
                medium: BridgeMedium::Metal,
            },
            FaultMechanism::Short,
        )]);
        assert_eq!(report.outcomes.len(), 2); // catastrophic + near-miss
        let cat = report
            .outcomes
            .iter()
            .find(|o| o.severity == Severity::Catastrophic)
            .unwrap();
        assert_eq!(cat.voltage, VoltageSignature::OutputStuckAt);
        assert!(cat.detection.currents.ivdd);
        assert!(cat.detection.detected());
        assert!(cat.shared, "touches the shared vdd trunk");
    }

    #[test]
    fn near_miss_short_is_offset_but_still_current_detected() {
        let report = run(vec![fault(
            FaultEffect::Bridge {
                nets: vec!["mid".into(), "vdd".into()],
                medium: BridgeMedium::Metal,
            },
            FaultMechanism::Short,
        )]);
        let ncat = report
            .outcomes
            .iter()
            .find(|o| o.severity == Severity::NonCatastrophic)
            .unwrap();
        // 500 Ω against 10 kΩ legs: mid rises by ~2 V → stuck-class shift.
        assert!(ncat.voltage != VoltageSignature::NoDeviation);
        assert!(ncat.detection.currents.ivdd);
    }

    #[test]
    fn benign_leak_is_undetected() {
        // A 2 kΩ leak from mid to ground moves mid by ~0.4 V (Offset) but
        // the extra supply current (≈ 160 µA... actually detected). Use a
        // fault on the vdd net itself: bulk leak vdd→gnd through 2 kΩ pulls
        // 2.5 mA — detectable; instead test an unknown-net inject failure.
        let report = run(vec![fault(
            FaultEffect::Bridge {
                nets: vec!["mid".into(), "nowhere".into()],
                medium: BridgeMedium::Metal,
            },
            FaultMechanism::Short,
        )]);
        let cat = report
            .outcomes
            .iter()
            .find(|o| o.severity == Severity::Catastrophic)
            .unwrap();
        assert!(cat.inject_failed, "unknown net must mark injection failure");
        // Injection failures are excluded from the statistics.
        assert_eq!(report.weight_of(Severity::Catastrophic), 0.0);
    }

    #[test]
    fn open_fault_detaches_leg() {
        let nl = DividerHarness.testbench();
        let _ = nl; // structure documented by the effect below
        let report = run(vec![fault(
            FaultEffect::NodeSplit {
                net: "mid".into(),
                groups: vec![vec![("R1".into(), 1)], vec![("R2".into(), 0)]],
            },
            FaultMechanism::Open,
        )]);
        let cat = report
            .outcomes
            .iter()
            .find(|o| o.severity == Severity::Catastrophic)
            .unwrap();
        // mid floats to 5 V (through R1, no load): a hard deviation.
        assert_eq!(cat.voltage, VoltageSignature::OutputStuckAt);
        // Supply current drops from 250 µA to ~0: IVdd flags it too.
        assert!(cat.detection.currents.ivdd);
        // Opens have no near-miss variant.
        assert_eq!(report.outcomes.len(), 1);
    }

    #[test]
    fn effect_nets_resolves_device_terminals() {
        let mut nl = Netlist::new("t");
        let a = nl.node("a");
        let b = nl.node("b");
        nl.add_mosfet(
            "M1",
            a,
            b,
            Netlist::GROUND,
            Netlist::GROUND,
            dotm_netlist::MosType::Nmos,
            dotm_netlist::MosfetParams::nmos_default(),
        )
        .unwrap();
        let nets = effect_nets(
            &FaultEffect::GateOxide {
                device: "M1".into(),
            },
            &nl,
        );
        assert_eq!(
            nets,
            vec!["0".to_string(), "a".to_string(), "b".to_string()]
        );
        let nets = effect_nets(
            &FaultEffect::DeviceShort {
                device: "M1".into(),
            },
            &nl,
        );
        assert_eq!(nets, vec!["0".to_string(), "a".to_string()]);
    }

    /// Fails a DC solve on `sim`, whose netlist has a `VDD` source, the
    /// way a circuit that never converges does: a NaN supply makes every
    /// Newton update non-finite, so each homotopy gives up and the
    /// failure lands in the simulator's telemetry.
    fn fail_dc(sim: &mut Simulator<'_>) -> dotm_sim::SimError {
        sim.override_source("VDD", f64::NAN)
            .expect("VDD is a source");
        sim.dc_op().expect_err("a NaN supply never solves")
    }

    /// A divider whose measurement refuses to converge on *faulted*
    /// netlists until the solver's iteration budget reaches
    /// `needs_iters` — fault-free circuits (good-space compilation)
    /// always measure, so only the escalation ladder is exercised.
    #[derive(Debug)]
    struct FlakyHarness {
        needs_iters: usize,
    }

    impl MacroHarness for FlakyHarness {
        fn name(&self) -> &str {
            "flaky"
        }

        fn layout(&self) -> Layout {
            DividerHarness.layout()
        }

        fn instance_count(&self) -> usize {
            1
        }

        fn testbench(&self) -> Netlist {
            DividerHarness.testbench()
        }

        fn plan(&self) -> MeasurementPlan {
            DividerHarness.plan()
        }

        fn measure_with(
            &self,
            nl: &Netlist,
            sim: &mut Simulator<'_>,
        ) -> Result<Vec<f64>, dotm_sim::SimError> {
            let faulted = nl.devices().any(|(_, d)| d.name.starts_with("flt"));
            if faulted && sim.options().max_iter < self.needs_iters {
                return Err(fail_dc(sim));
            }
            DividerHarness.measure_with(nl, sim)
        }

        fn classify_voltage(&self, nominal: &[f64], faulty: &[f64]) -> VoltageSignature {
            DividerHarness.classify_voltage(nominal, faulty)
        }

        fn shared_nets(&self) -> Vec<&'static str> {
            DividerHarness.shared_nets()
        }

        fn current_floor(&self, kind: CurrentKind) -> f64 {
            DividerHarness.current_floor(kind)
        }
    }

    fn run_flaky(
        needs_iters: usize,
        policy: SimFailurePolicy,
        escalation: EscalationLadder,
    ) -> MacroReport {
        let collapsed = collapse(
            1000,
            vec![fault(
                FaultEffect::Bridge {
                    nets: vec!["mid".into(), "vdd".into()],
                    medium: BridgeMedium::Metal,
                },
                FaultMechanism::Short,
            )],
        );
        let cfg = PipelineConfig {
            non_catastrophic: false,
            goodspace: crate::goodspace::GoodSpaceConfig {
                common_samples: 2,
                mismatch_samples: 2,
                seed: 1,
                ..GoodSpaceConfig::default()
            },
            sim_failure_policy: policy,
            escalation,
            ..PipelineConfig::default()
        };
        run_macro_path_with_faults(&FlakyHarness { needs_iters }, &cfg, &collapsed, 1e6)
            .expect("path")
    }

    #[test]
    fn escalation_ladder_recovers_nonconverging_class() {
        // Rung 0 offers max_iter = 150; the harness demands 600, which is
        // exactly rung 1's 4× budget — the class must measure there with
        // its real signature, not fall through to the failure policy.
        let report = run_flaky(
            600,
            SimFailurePolicy::AssumeDetected,
            EscalationLadder::default(),
        );
        let cat = &report.outcomes[0];
        assert!(!cat.sim_failed, "rung 1 must recover the measurement");
        assert_eq!(cat.rung, Some(1));
        assert_eq!(cat.voltage, VoltageSignature::OutputStuckAt);
        assert_eq!(report.escalated_classes(), 1);
        assert_eq!(report.sim_failed_classes(), 0);
        let hist = report.rung_histogram();
        assert_eq!(hist[0], 0);
        assert_eq!(hist[1], 1);
        // The failed rung-0 attempt stays in the books.
        assert!(cat.solver.dc_failures >= 1);
        assert!(report.solver_totals().dc_failures >= 1);
    }

    #[test]
    fn disabled_ladder_does_not_retry() {
        let report = run_flaky(
            600,
            SimFailurePolicy::AssumeDetected,
            EscalationLadder::disabled(),
        );
        let cat = &report.outcomes[0];
        assert!(cat.sim_failed);
        assert_eq!(cat.rung, None);
        assert_eq!(report.escalated_classes(), 0);
        assert_eq!(report.sim_failed_classes(), 1);
    }

    #[test]
    fn assume_detected_policy_credits_missing_code() {
        // Never converges, at any rung.
        let report = run_flaky(
            usize::MAX,
            SimFailurePolicy::AssumeDetected,
            EscalationLadder::default(),
        );
        let cat = &report.outcomes[0];
        assert!(cat.sim_failed);
        assert_eq!(cat.voltage, VoltageSignature::Mixed);
        assert!(cat.detection.missing_code);
        assert!(cat.detection.detected());
        assert!(!cat.excluded);
        assert_eq!(report.sim_failed_classes(), 1);
        assert!(report.weight_of(Severity::Catastrophic) > 0.0);
        assert_eq!(report.coverage(Severity::Catastrophic), 100.0);
    }

    #[test]
    fn assume_undetected_policy_withholds_credit() {
        let report = run_flaky(
            usize::MAX,
            SimFailurePolicy::AssumeUndetected,
            EscalationLadder::default(),
        );
        let cat = &report.outcomes[0];
        assert!(cat.sim_failed);
        assert!(!cat.detection.detected(), "no credit for a solver failure");
        assert!(!cat.excluded);
        assert_eq!(report.sim_failed_classes(), 1);
        assert!(report.weight_of(Severity::Catastrophic) > 0.0);
        assert_eq!(report.coverage(Severity::Catastrophic), 0.0);
    }

    #[test]
    fn exclude_policy_drops_class_from_statistics() {
        let report = run_flaky(
            usize::MAX,
            SimFailurePolicy::Exclude,
            EscalationLadder::default(),
        );
        let cat = &report.outcomes[0];
        assert!(cat.excluded);
        assert!(cat.sim_failed);
        assert!(!cat.inject_failed, "injection itself worked");
        assert_eq!(report.excluded_classes(), 1);
        assert_eq!(report.weight_of(Severity::Catastrophic), 0.0);
    }

    #[test]
    fn policies_parse_from_env_style_strings() {
        for (s, want) in [
            ("assume-detected", SimFailurePolicy::AssumeDetected),
            ("AssumeDetected", SimFailurePolicy::AssumeDetected),
            ("detected", SimFailurePolicy::AssumeDetected),
            ("assume_undetected", SimFailurePolicy::AssumeUndetected),
            ("undetected", SimFailurePolicy::AssumeUndetected),
            ("exclude", SimFailurePolicy::Exclude),
            ("Excluded", SimFailurePolicy::Exclude),
        ] {
            assert_eq!(s.parse::<SimFailurePolicy>().unwrap(), want, "{s}");
        }
        assert!("banana".parse::<SimFailurePolicy>().is_err());
    }

    #[test]
    fn real_inject_errors_are_counted() {
        // An unknown net is a real injection error on every variant: the
        // class is inject-failed *and* its error count is visible.
        let report = run(vec![fault(
            FaultEffect::Bridge {
                nets: vec!["mid".into(), "nowhere".into()],
                medium: BridgeMedium::Metal,
            },
            FaultMechanism::Short,
        )]);
        let cat = report
            .outcomes
            .iter()
            .find(|o| o.severity == Severity::Catastrophic)
            .unwrap();
        assert!(cat.inject_failed);
        assert!(cat.inject_errors > 0);
        assert_eq!(cat.rung, None);
        assert!(report.inject_failed_classes() >= 1);
    }

    /// A harness with three gate-oxide model variants (on `M1`) whose
    /// measurements are fabricated from the injected device names: the
    /// `gs` variant is strongly detected at rung 0, the `gd` variant only
    /// measures at rung 1 (also detected), and the `gc` variant looks
    /// fault-free — so `gc` wins the worst-case selection at rung 0 while
    /// `gd` escalates along the way.
    #[derive(Debug)]
    struct VariantFlakyHarness;

    impl MacroHarness for VariantFlakyHarness {
        fn name(&self) -> &str {
            "variant_flaky"
        }

        fn layout(&self) -> Layout {
            DividerHarness.layout()
        }

        fn instance_count(&self) -> usize {
            1
        }

        fn testbench(&self) -> Netlist {
            let mut nl = DividerHarness.testbench();
            let mid = nl.node("mid");
            let gx = nl.node("gx");
            nl.add_mosfet(
                "M1",
                mid,
                gx,
                Netlist::GROUND,
                Netlist::GROUND,
                dotm_netlist::MosType::Nmos,
                dotm_netlist::MosfetParams::nmos_default(),
            )
            .unwrap();
            nl
        }

        fn plan(&self) -> MeasurementPlan {
            DividerHarness.plan()
        }

        fn measure_with(
            &self,
            nl: &Netlist,
            sim: &mut Simulator<'_>,
        ) -> Result<Vec<f64>, dotm_sim::SimError> {
            if nl.device("flt.gd").is_some() && sim.options().max_iter < 600 {
                return Err(fail_dc(sim));
            }
            sim.dc_op()?;
            if nl.device("flt.gs").is_some() || nl.device("flt.gd").is_some() {
                Ok(vec![5.0, 0.0]) // hard deviation: detected
            } else {
                Ok(vec![2.5, 250e-6]) // nominal-looking: undetected
            }
        }

        fn classify_voltage(&self, nominal: &[f64], faulty: &[f64]) -> VoltageSignature {
            DividerHarness.classify_voltage(nominal, faulty)
        }

        fn shared_nets(&self) -> Vec<&'static str> {
            Vec::new()
        }

        fn current_floor(&self, kind: CurrentKind) -> f64 {
            DividerHarness.current_floor(kind)
        }
    }

    #[test]
    fn rung_attribution_follows_winning_variant() {
        let collapsed = collapse(
            1000,
            vec![fault(
                FaultEffect::GateOxide {
                    device: "M1".into(),
                },
                FaultMechanism::GateOxidePinhole,
            )],
        );
        let cfg = PipelineConfig {
            non_catastrophic: false,
            goodspace: crate::goodspace::GoodSpaceConfig {
                common_samples: 2,
                mismatch_samples: 2,
                seed: 1,
                ..GoodSpaceConfig::default()
            },
            ..PipelineConfig::default()
        };
        let report =
            run_macro_path_with_faults(&VariantFlakyHarness, &cfg, &collapsed, 1e6).expect("path");
        let cat = &report.outcomes[0];
        // The winning (worst-case) variant is the undetected `gc` one,
        // measured at rung 0 — the rung must be its, not the max over the
        // escalated-but-losing `gd` variant.
        assert!(!cat.detection.detected());
        assert_eq!(cat.rung, Some(0));
        assert_eq!(report.escalated_classes(), 0);
        let hist = report.rung_histogram();
        assert_eq!(hist[0], 1);
        assert_eq!(hist[1], 0);
        // The gd variant's failed rung-0 attempt still shows in the books.
        assert!(cat.solver.dc_failures >= 1);
    }

    #[test]
    fn ladder_options_escalate_cumulatively() {
        let base = SimOptions::default();
        let r0 = EscalationLadder::options_at(&base, 0);
        assert_eq!(r0, base);
        let r1 = EscalationLadder::options_at(&base, 1);
        assert_eq!(r1.max_iter, base.max_iter * 4);
        let r5 = EscalationLadder::options_at(&base, 5);
        assert_eq!(r5.max_iter, base.max_iter * 4, "rung 1 measure retained");
        assert!(r5.v_step_limit <= base.v_step_limit);
        assert!(r5.gmin >= 1e-9);
        assert!(r5.reltol >= 1e-3);
    }

    #[test]
    fn max_classes_truncates() {
        let faults = vec![
            fault(
                FaultEffect::Bridge {
                    nets: vec!["mid".into(), "vdd".into()],
                    medium: BridgeMedium::Metal,
                },
                FaultMechanism::Short,
            );
            3
        ]
        .into_iter()
        .chain(std::iter::once(fault(
            FaultEffect::BulkLeak {
                net: "mid".into(),
                bulk: "gnd".into(),
            },
            FaultMechanism::JunctionPinhole,
        )))
        .collect();
        let collapsed = collapse(1000, faults);
        assert_eq!(collapsed.class_count(), 2);
        let cfg = PipelineConfig {
            max_classes: Some(1),
            non_catastrophic: false,
            goodspace: crate::goodspace::GoodSpaceConfig {
                common_samples: 2,
                mismatch_samples: 2,
                seed: 1,
                ..GoodSpaceConfig::default()
            },
            ..PipelineConfig::default()
        };
        let report =
            run_macro_path_with_faults(&DividerHarness, &cfg, &collapsed, 1e6).expect("path");
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].count, 3); // the most frequent class
    }

    /// A synthetic outcome carrying only a rung — the histogram ignores
    /// every other field.
    fn outcome_at_rung(rung: Option<u8>) -> ClassOutcome {
        ClassOutcome {
            key: "synthetic".into(),
            mechanism: FaultMechanism::Short,
            count: 1,
            severity: Severity::Catastrophic,
            shared: false,
            voltage: VoltageSignature::OutputStuckAt,
            detection: DetectionSet {
                missing_code: true,
                currents: CurrentFlags::default(),
            },
            flagged: Vec::new(),
            sim_failed: false,
            inject_failed: false,
            rung,
            inject_errors: 0,
            excluded: false,
            solver: SimStats::default(),
        }
    }

    fn report_with_outcomes(outcomes: Vec<ClassOutcome>) -> MacroReport {
        MacroReport {
            name: "synthetic".into(),
            instances: 1,
            sprinkle_area_nm2: 1.0,
            defects: outcomes.len(),
            total_faults: outcomes.len(),
            class_count: outcomes.len(),
            outcomes,
            goodspace_solver: SimStats::default(),
            goodspace_corner_retries: 0,
        }
    }

    #[test]
    fn rung_histogram_counts_in_range_rungs_and_skips_unmeasured() {
        let report = report_with_outcomes(vec![
            outcome_at_rung(Some(0)),
            outcome_at_rung(Some(0)),
            outcome_at_rung(Some((ESCALATION_RUNGS - 1) as u8)),
            outcome_at_rung(None), // never measured: not in the histogram
        ]);
        let hist = report.rung_histogram();
        assert_eq!(hist[0], 2);
        assert_eq!(hist[ESCALATION_RUNGS - 1], 1);
        assert_eq!(hist.iter().sum::<u64>(), 3);
    }

    #[test]
    fn fanout_observer_delivers_to_all_and_aborts_on_any_veto() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct Tally {
            seen: AtomicUsize,
            veto_at: Option<usize>,
        }
        impl ClassObserver for Tally {
            fn on_class(&self, index: usize, _outcomes: &[ClassOutcome]) -> bool {
                self.seen.fetch_add(1, Ordering::Relaxed);
                Some(index) != self.veto_at
            }
        }

        let a = Tally {
            seen: AtomicUsize::new(0),
            veto_at: None,
        };
        let b = Tally {
            seen: AtomicUsize::new(0),
            veto_at: Some(1),
        };
        let fanout = FanoutObserver::new(vec![&a, &b]);
        let outcomes = [outcome_at_rung(Some(0))];
        assert!(fanout.on_class(0, &outcomes), "no veto yet");
        assert!(!fanout.on_class(1, &outcomes), "b vetoes class 1");
        // Both observers saw both classes — a sibling's veto never hides
        // the class from the rest of the panel.
        assert_eq!(a.seen.load(Ordering::Relaxed), 2);
        assert_eq!(b.seen.load(Ordering::Relaxed), 2);
        assert!(FanoutObserver::new(Vec::new()).on_class(0, &outcomes));
    }

    #[test]
    fn worst_case_tie_break_prefers_earliest_variant() {
        // The worst-case selection must depend only on the fold order,
        // so every run picks bit-identical winners. Equal scores keep the
        // incumbent; a strictly lower score replaces it regardless of
        // position.
        let eval = |voltage, missing_code| VariantEval {
            voltage,
            detection: DetectionSet {
                missing_code,
                currents: CurrentFlags::default(),
            },
            flagged: Vec::new(),
            sim_failed: false,
            rung: Some(0),
        };
        // Two distinguishable variants with the same score (1 each).
        let winner = compete(
            compete(None, eval(VoltageSignature::Offset, true)),
            eval(VoltageSignature::OutputStuckAt, true),
        )
        .expect("fold");
        assert_eq!(
            winner.1.voltage,
            VoltageSignature::Offset,
            "tie kept the later variant"
        );
        // Reversed fold order flips the tie the other way: order is the
        // only tie-break, so identical fold orders give identical winners.
        let winner = compete(
            compete(None, eval(VoltageSignature::OutputStuckAt, true)),
            eval(VoltageSignature::Offset, true),
        )
        .expect("fold");
        assert_eq!(winner.1.voltage, VoltageSignature::OutputStuckAt);
        // A strictly harder variant (score 0) still beats any incumbent.
        let winner = compete(
            compete(None, eval(VoltageSignature::Offset, true)),
            eval(VoltageSignature::NoDeviation, false),
        )
        .expect("fold");
        assert_eq!(winner.0, 0);
        assert_eq!(winner.1.voltage, VoltageSignature::NoDeviation);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of range")]
    fn rung_histogram_rejects_foreign_rungs_in_debug_builds() {
        // A rung the ladder can never emit — e.g. an outcome deserialized
        // from a store written by a build with a taller ladder. Release
        // builds saturate it into the top bucket instead of panicking.
        let report = report_with_outcomes(vec![outcome_at_rung(Some(ESCALATION_RUNGS as u8))]);
        let _ = report.rung_histogram();
    }
}
