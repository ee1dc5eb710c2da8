//! The [`MacroHarness`] abstraction: how the test path drives one macro
//! cell type.
//!
//! A harness bundles everything the methodology needs per macro: the
//! testbench netlist (macro plus the "affected other macros" — bias
//! impedances, clock drivers — per the paper's §3.2 observation that
//! boundary-crossing faults must be simulated with the affected cells),
//! the layout to sprinkle, the measurement procedure, the process
//! perturbation, and the macro-specific voltage-signature classifier.

use crate::measure::MeasurementPlan;
use crate::pipeline::{memoized, tagged_key, MeasurementStore};
use crate::processvar::{CommonSample, ProcessModel};
use crate::signature::{CurrentKind, VoltageSignature};
use dotm_layout::Layout;
use dotm_netlist::Netlist;
use dotm_rng::rngs::StdRng;
use dotm_sim::{OpPoint, SimError, SimOptions, SimStats, Simulator};
use std::sync::Mutex;

/// Collects the good-circuit operating point of every DC-rooted analysis a
/// harness runs, indexed by *analysis slot* — the position of the analysis
/// within the harness's fixed measurement procedure (first transient = slot
/// 0, second = slot 1, …). Filled once, during the single-threaded nominal
/// measurement, then frozen into a read-only [`WarmStart`].
#[derive(Debug, Default)]
pub struct WarmCapture {
    slots: Mutex<Vec<Option<OpPoint>>>,
}

impl WarmCapture {
    /// An empty capture buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the operating point solved for analysis slot `slot`.
    pub fn record(&self, slot: usize, op: OpPoint) {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        if slots.len() <= slot {
            slots.resize(slot + 1, None);
        }
        slots[slot] = Some(op);
    }

    /// Freezes the captured points into an immutable seed table.
    pub fn freeze(self) -> WarmStart {
        WarmStart {
            seeds: self.slots.into_inner().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

/// The frozen per-analysis nominal operating points used to warm-start
/// Newton on fault-injected variants of the same testbench. Fault
/// injection only ever *appends* nodes and devices, so the nominal `x`
/// remapped into the faulted circuit's unknown vector is a physically
/// meaningful initial guess; [`Simulator::seed_dc_from`] checks the
/// append-only invariant and the solver falls back to the cold homotopy
/// chain whenever the seed does not converge.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    seeds: Vec<Option<OpPoint>>,
}

impl WarmStart {
    /// The captured nominal operating point for analysis slot `slot`.
    pub fn seed(&self, slot: usize) -> Option<&OpPoint> {
        self.seeds.get(slot).and_then(|s| s.as_ref())
    }

    /// Number of analysis slots that captured a point.
    pub fn len(&self) -> usize {
        self.seeds.iter().filter(|s| s.is_some()).count()
    }

    /// `true` if no analysis captured a point.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Warm-start context threaded through [`MacroHarness::measure_with`].
#[derive(Clone, Copy, Debug, Default)]
pub enum Warm<'a> {
    /// No warm-start: every DC solve starts from the cold homotopy chain.
    #[default]
    Cold,
    /// Capture mode: record each analysis's solved operating point (used
    /// once, on the nominal good circuit).
    Capture(&'a WarmCapture),
    /// Seed mode: seed each analysis's first DC solve from the captured
    /// nominal point (used on every fault-injected / perturbed variant).
    Seed(&'a WarmStart),
}

/// Counts analysis slots within one `measure_with` invocation so capture
/// and seed runs agree on which analysis is which. Create one per
/// `measure_with` call; [`with_instrumented_sim_warm`] advances it on
/// every analysis, including failed ones, so later slots stay aligned.
#[derive(Debug, Default)]
pub struct WarmCursor {
    next: usize,
}

impl WarmCursor {
    /// A cursor positioned at slot 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Claims the next analysis slot.
    pub fn next_slot(&mut self) -> usize {
        let slot = self.next;
        self.next += 1;
        slot
    }
}

/// The pipeline's measurement store, lent to
/// [`MacroHarness::classify_voltage_with`] for the follow-up simulations
/// a classification needs. Each one is memoized like a measurement, and
/// its solver telemetry lands in the class's stats whether it was
/// computed or replayed.
pub struct Probe<'a> {
    store: &'a dyn MeasurementStore,
    scope: u64,
    solver: &'a mut SimStats,
}

impl<'a> Probe<'a> {
    /// A probe over `store` that merges solver telemetry into `solver`.
    /// Probes under different `scope`s never share an entry. The
    /// pipeline scopes them by fault class: one worker evaluates a whole
    /// class, so no two threads race to compute the same entry and the
    /// store's hit and miss counts do not depend on scheduling.
    pub fn new(store: &'a dyn MeasurementStore, scope: u64, solver: &'a mut SimStats) -> Self {
        Probe {
            store,
            scope,
            solver,
        }
    }

    /// Returns the stored result of `simulate` for `nl`, running it (and
    /// storing the result) on a miss. The key folds the scope and `nl`'s
    /// content digest with `salt`, which must carry every other input the
    /// result depends on (time steps, stimulus values, read-out times).
    /// `simulate` accumulates its solver telemetry into the stats it is
    /// handed.
    ///
    /// # Errors
    /// Whatever `simulate` returned when the entry was computed.
    pub fn simulate(
        &mut self,
        nl: &Netlist,
        salt: &[u64],
        simulate: impl FnOnce(&mut SimStats) -> Result<Vec<f64>, SimError>,
    ) -> Result<Vec<f64>, SimError> {
        let digest = nl.content_digest();
        let mut words = vec![self.scope, digest as u64, (digest >> 64) as u64];
        words.extend_from_slice(salt);
        memoized(
            self.store,
            tagged_key("probe", &words),
            self.solver,
            simulate,
        )
    }
}

/// Drives circuit-level analysis of one macro cell type.
///
/// `Sync` is a supertrait: the parallel executor shares one harness
/// across worker threads, so implementations must hold only immutable
/// (or thread-safe) state — all five case-study harnesses are plain data.
pub trait MacroHarness: Sync {
    /// Macro name (matches the layout name).
    fn name(&self) -> &str;

    /// The macro's layout for defect sprinkling.
    fn layout(&self) -> Layout;

    /// Number of instances of this macro in the full circuit (256 for the
    /// comparator; 1 for ladder, bias and clock generator; 256 slices for
    /// the decoder).
    fn instance_count(&self) -> usize;

    /// A fresh testbench netlist (fault injection edits a clone of this).
    fn testbench(&self) -> Netlist;

    /// The measurement plan produced by [`MacroHarness::measure`].
    fn plan(&self) -> MeasurementPlan;

    /// Base simulator options for this harness's measurement procedure —
    /// rung 0 of the pipeline's convergence-escalation ladder. Higher
    /// rungs derive progressively more robust option sets from this one.
    fn sim_options(&self) -> SimOptions {
        SimOptions::default()
    }

    /// Runs the macro's measurement procedure on a (possibly faulted,
    /// possibly perturbed) netlist with the harness's base options.
    ///
    /// # Errors
    /// Propagates simulator failures; the pipeline escalates a
    /// non-converging faulty circuit through the retry ladder before
    /// applying its [`SimFailurePolicy`](crate::SimFailurePolicy).
    fn measure(&self, nl: &Netlist) -> Result<Vec<f64>, SimError> {
        self.measure_with(
            nl,
            &self.sim_options(),
            &mut SimStats::default(),
            Warm::Cold,
        )
    }

    /// Runs the measurement procedure with explicit solver options,
    /// merging the solver telemetry of every simulator it spins up into
    /// `stats` — on failure as well as success, so the accounting sees
    /// the work spent on circuits that never converged.
    ///
    /// Implementations should build every simulator through
    /// [`with_instrumented_sim_warm`] (or merge
    /// [`Simulator::stats`](dotm_sim::Simulator::stats) manually on all
    /// exit paths), threading `warm` plus a fresh [`WarmCursor`] through
    /// every analysis so capture and seed runs agree on slot numbering.
    ///
    /// # Errors
    /// Propagates simulator failures.
    fn measure_with(
        &self,
        nl: &Netlist,
        opts: &SimOptions,
        stats: &mut SimStats,
        warm: Warm<'_>,
    ) -> Result<Vec<f64>, SimError>;

    /// Applies one process Monte-Carlo sample. The default perturbs every
    /// device generically; harnesses whose bias inputs track the process
    /// (comparator) override this, and add the solver telemetry of any
    /// simulation they run for it to `stats`.
    fn perturb(
        &self,
        nl: &mut Netlist,
        model: &ProcessModel,
        common: &CommonSample,
        rng: &mut StdRng,
        stats: &mut SimStats,
    ) {
        let _ = stats;
        model.perturb(nl, common, rng);
    }

    /// Classifies the voltage fault signature from the nominal and faulty
    /// measurement vectors.
    fn classify_voltage(&self, nominal: &[f64], faulty: &[f64]) -> VoltageSignature;

    /// [`MacroHarness::classify_voltage`] for classifiers that simulate
    /// further (bias_gen drives a nominal comparator with the faulty bias
    /// vector): every such simulation goes through `probe`, so the
    /// pipeline's store memoizes it and the class's solver stats count
    /// it. The default simulates nothing and ignores `probe`.
    fn classify_voltage_with(
        &self,
        nominal: &[f64],
        faulty: &[f64],
        probe: &mut Probe<'_>,
    ) -> VoltageSignature {
        let _ = probe;
        self.classify_voltage(nominal, faulty)
    }

    /// Nets shared with other macros (clock/bias/reference/supply trunks):
    /// a fault touching one of these shifts *every* instance, so its
    /// current deviation scales with [`MacroHarness::instance_count`].
    fn shared_nets(&self) -> Vec<&'static str>;

    /// Chip-level absolute detection floor per current kind (A). Models
    /// tester accuracy plus the quiescent contribution of the macros not
    /// included in this harness's testbench.
    fn current_floor(&self, kind: CurrentKind) -> f64 {
        match kind {
            CurrentKind::IVdd => 500e-6,
            CurrentKind::Iddq => 20e-6,
            CurrentKind::Iinput => 50e-6,
        }
    }
}

/// Runs `f` over a fresh simulator bound to `nl` with `opts`, merging the
/// simulator's solver telemetry into `stats` whether or not the analysis
/// succeeds — the building block for [`MacroHarness::measure_with`]
/// implementations.
///
/// # Errors
/// Whatever `f` returns.
pub fn with_instrumented_sim<R>(
    nl: &Netlist,
    opts: &SimOptions,
    stats: &mut SimStats,
    f: impl FnOnce(&mut Simulator<'_>) -> Result<R, SimError>,
) -> Result<R, SimError> {
    let mut sim = Simulator::with_options(nl, opts.clone());
    let _span = dotm_obs::span_with("analysis", || format!("analysis[{}]", nl.name()));
    let result = f(&mut sim);
    stats.merge(sim.stats());
    result
}

/// Warm-start-aware variant of [`with_instrumented_sim`]: claims the next
/// analysis slot from `cursor`, seeds the simulator's first DC solve
/// from the nominal operating point (in [`Warm::Seed`] mode) or records
/// the solved point after `f` (in [`Warm::Capture`] mode), and merges
/// solver telemetry into `stats` on every exit path.
///
/// The cursor advances even when `f` fails so subsequent analyses keep
/// their slot alignment between the capture run and seeded runs.
///
/// # Errors
/// Whatever `f` returns.
pub fn with_instrumented_sim_warm<R>(
    nl: &Netlist,
    opts: &SimOptions,
    stats: &mut SimStats,
    warm: Warm<'_>,
    cursor: &mut WarmCursor,
    f: impl FnOnce(&mut Simulator<'_>) -> Result<R, SimError>,
) -> Result<R, SimError> {
    let slot = cursor.next_slot();
    let mut sim = Simulator::with_options(nl, opts.clone());
    if let Warm::Seed(start) = warm {
        if let Some(op) = start.seed(slot) {
            // seed_dc_from rejects seeds that violate the append-only
            // invariant; a rejected seed just means a cold start.
            sim.seed_dc_from(op);
        }
    }
    let span = dotm_obs::span_with("analysis", || format!("analysis {slot} [{}]", nl.name()));
    let result = f(&mut sim);
    drop(span);
    if let Warm::Capture(capture) = warm {
        if let Some(op) = sim.last_dc_op() {
            capture.record(slot, op);
        }
    }
    stats.merge(sim.stats());
    result
}
