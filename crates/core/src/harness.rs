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
use dotm_sim::{SimError, SimOptions, SimStats, Simulator};

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
/// `Debug` is one too: the store context hashes the `Debug` rendering,
/// so every field (a time step, a circuit variant) keys the stored
/// results, and an `f64` renders exactly.
pub trait MacroHarness: Sync + std::fmt::Debug {
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

    /// Whether the good space stores this harness's nominal measurement
    /// in its Monte-Carlo record, so a replay solves nothing. Worth it
    /// only where the nominal is costly for its size: the default is
    /// `false`, and the comparator, whose ten nominal transients are
    /// most of a warm campaign, returns `true`. Fixed per harness,
    /// because it sets the record's shape before the record is loaded.
    fn stores_nominal(&self) -> bool {
        false
    }

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
        self.measure_with(nl, &self.sim_options(), &mut SimStats::default())
    }

    /// Runs the measurement procedure with explicit solver options,
    /// merging the solver telemetry of every simulator it spins up into
    /// `stats` — on failure as well as success, so the accounting sees
    /// the work spent on circuits that never converged.
    ///
    /// Implementations should build every simulator through
    /// [`with_instrumented_sim`] (or merge
    /// [`Simulator::stats`](dotm_sim::Simulator::stats) manually on all
    /// exit paths).
    ///
    /// # Errors
    /// Propagates simulator failures.
    fn measure_with(
        &self,
        nl: &Netlist,
        opts: &SimOptions,
        stats: &mut SimStats,
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
