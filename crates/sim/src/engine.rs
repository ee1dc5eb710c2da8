//! The simulation engine: MNA assembly and the Newton–Raphson solver with
//! gmin- and source-stepping homotopies.

use crate::batch::{self, BatchState, SharedAssembly};
use crate::error::SimError;
use crate::factor::{NominalFactors, SmwOutcome, SmwPlan};
use crate::matrix::{DenseMatrix, LuFactors};
use crate::models::{diode_eval, mosfet_eval, switch_eval};
use crate::soa::{LanePrime, LaneSystem};
use crate::stats::SimStats;
use dotm_netlist::{Device, DeviceId, DeviceKind, DiodeParams, Netlist, NodeId, Waveform};
use std::collections::HashMap;
use std::sync::Arc;

/// Numerical integration method for transient analysis.
///
/// Backward Euler is the default: the methodology reads *quiescent branch
/// currents* out of stiff switched circuits, and the trapezoidal rule's
/// undamped ringing pollutes exactly those currents. Trapezoidal remains
/// available where waveform accuracy matters more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Integration {
    /// First-order implicit Euler: very robust, numerically dissipative.
    BackwardEuler,
    /// Second-order trapezoidal rule; BE is still used for the first step.
    Trapezoidal,
}

/// Simulator tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Absolute voltage convergence tolerance (V).
    pub abstol_v: f64,
    /// Absolute current convergence tolerance (A) for source branches.
    pub abstol_i: f64,
    /// Relative convergence tolerance.
    pub reltol: f64,
    /// Maximum Newton–Raphson iterations per solve.
    pub max_iter: usize,
    /// Minimum conductance from every node to ground (S).
    pub gmin: f64,
    /// Per-iteration clamp on node-voltage updates (V).
    pub v_step_limit: f64,
    /// Transient integration method.
    pub integration: Integration,
    /// Maximum number of timestep halvings when a transient step fails.
    pub max_step_halvings: u32,
    /// Reuse the LU factorisation when consecutive Newton solves assemble
    /// a bit-identical matrix (linear circuits, repeated sweep points,
    /// homotopy plateaus). Bitwise invisible in every solution — the
    /// reused factors are of the *same* matrix — so this defaults on and
    /// only the occupancy counters betray it.
    pub factor_reuse: bool,
    /// Solve fault-variant systems as rank-k updates of installed
    /// nominal factors (see [`crate::NominalFactors`]). Changes solution
    /// ULPs relative to a fresh factorisation, so it defaults off and is
    /// gated end-to-end by verdict-equality checks in the bench harness.
    pub rank_update: bool,
    /// Assemble through the split stamp plan: constant stamps are summed
    /// once into a gmin-keyed baseline and every iteration replays only
    /// the x-dependent ops (see [`crate::SharedAssembly`]). The per-cell
    /// addition order is preserved exactly, so the assembled matrix is
    /// bit-identical to the interpretive walk and this defaults on.
    pub batch_assembly: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            abstol_v: 1e-6,
            abstol_i: 1e-9,
            reltol: 1e-4,
            max_iter: 150,
            gmin: 1e-12,
            v_step_limit: 1.0,
            integration: Integration::BackwardEuler,
            max_step_halvings: 10,
            factor_reuse: true,
            rank_update: false,
            batch_assembly: true,
        }
    }
}

/// A solved operating point.
///
/// Obtained from [`Simulator::dc_op`] (or a transient snapshot); query it
/// with [`OpPoint::voltage`] and [`OpPoint::branch_current`].
#[derive(Debug, Clone)]
pub struct OpPoint {
    pub(crate) x: Vec<f64>,
    pub(crate) n_nodes: usize,
    pub(crate) vsrc: Vec<DeviceId>,
}

impl OpPoint {
    /// Voltage of `node` relative to ground.
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.x[node.index() - 1]
        }
    }

    /// Current through an independent voltage source, flowing from its
    /// positive terminal through the source to its negative terminal
    /// (SPICE convention: a supply sourcing current reads negative).
    ///
    /// Returns `None` if `id` is not a voltage source.
    pub fn branch_current(&self, id: DeviceId) -> Option<f64> {
        let k = self.vsrc.iter().position(|&d| d == id)?;
        Some(self.x[self.n_nodes - 1 + k])
    }
}

/// A companion-model capacitor instance used during transient analysis.
#[derive(Debug, Clone, Copy)]
struct CapInst {
    a: NodeId,
    b: NodeId,
    c: f64,
}

#[derive(Debug, Clone, Copy, Default)]
struct CapState {
    v: f64,
    i: f64,
}

struct TranCtx<'c> {
    caps: &'c [CapInst],
    states: &'c [CapState],
    h: f64,
    /// true on steps integrated with trapezoidal rule
    trap: bool,
}

/// Result of a transient analysis: node voltages and source branch currents
/// on a uniform output time grid.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    states: Vec<Vec<f64>>,
    n_nodes: usize,
    vsrc: Vec<DeviceId>,
}

impl TranResult {
    /// The output time grid.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of stored time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if the result holds no time points.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Voltage of `node` at time index `step`.
    pub fn voltage(&self, step: usize, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.states[step][node.index() - 1]
        }
    }

    /// The full voltage waveform of `node`.
    pub fn series(&self, node: NodeId) -> Vec<f64> {
        (0..self.len()).map(|k| self.voltage(k, node)).collect()
    }

    /// Branch current of voltage source `id` at time index `step`
    /// (see [`OpPoint::branch_current`] for sign convention).
    pub fn branch_current(&self, step: usize, id: DeviceId) -> Option<f64> {
        let k = self.vsrc.iter().position(|&d| d == id)?;
        Some(self.states[step][self.n_nodes - 1 + k])
    }

    /// The full branch-current waveform of voltage source `id`.
    pub fn branch_series(&self, id: DeviceId) -> Option<Vec<f64>> {
        let k = self.vsrc.iter().position(|&d| d == id)?;
        Some(
            (0..self.len())
                .map(|s| self.states[s][self.n_nodes - 1 + k])
                .collect(),
        )
    }

    /// Index of the stored point closest to time `t`.
    ///
    /// The lookup is total: a NaN query time maps to index 0 (the initial
    /// condition) rather than panicking — a faulty-circuit measurement
    /// chain can produce NaN probe times, and blaming the stored grid
    /// (which is finite by construction) would point at the wrong side.
    pub fn index_at(&self, t: f64) -> usize {
        if t.is_nan() {
            return 0;
        }
        match self.times.binary_search_by(|probe| probe.total_cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) if i >= self.times.len() => self.times.len() - 1,
            Err(i) => {
                if (self.times[i] - t).abs() < (t - self.times[i - 1]).abs() {
                    i
                } else {
                    i - 1
                }
            }
        }
    }

    /// Snapshot of time index `step` as an [`OpPoint`].
    pub fn op_at(&self, step: usize) -> OpPoint {
        OpPoint {
            x: self.states[step].clone(),
            n_nodes: self.n_nodes,
            vsrc: self.vsrc.clone(),
        }
    }
}

enum NrOutcome {
    Converged,
    MaxIter,
    Singular,
}

/// Chord iterations one transient Newton solve may spend on factors
/// built for an earlier iterate or time step before it refactors.
const CHORD_BUDGET: usize = 2;

/// The companion-stamp parameters of a transient step: factors built for
/// one step may serve chord iterations of another only if these match.
#[derive(Debug, Clone, Copy)]
struct ChordBasis {
    h: f64,
    trap: bool,
}

impl ChordBasis {
    /// Same integration rule and the same step size. "Same" forgives the
    /// last-bit jitter of the step loop's `t_target − t` arithmetic, which
    /// gives consecutive full-grid steps sizes a few ULPs apart; a halving
    /// or the BE → trapezoidal switch never matches.
    fn matches(self, other: ChordBasis) -> bool {
        self.trap == other.trap && (self.h - other.h).abs() <= 1e-9 * other.h
    }
}

/// One step of the compiled stamp plan.
///
/// The netlist is immutable for the life of a [`Simulator`], so the
/// structure of the MNA system — which cells each device touches, and
/// the *values* of every x-independent stamp — is compiled once and
/// replayed on every assembly. The ops are emitted in exact device-walk
/// order with the same per-cell additions the interpretive walk
/// performed, so a replayed assembly is bit-identical to the original;
/// only the per-device dispatch, row lookups and constant arithmetic are
/// hoisted out of the Newton loop.
pub(crate) enum PlanOp<'a> {
    /// A constant matrix stamp: `A[r][c] += v`.
    MatAdd { r: usize, c: usize, v: f64 },
    /// Voltage-source RHS assignment: `z[row] = value(id) · src_scale`.
    VsrcZ {
        row: usize,
        id: DeviceId,
        wf: &'a Waveform,
    },
    /// Current-source RHS stamp: `z[rp] -= i`, `z[rq] += i`.
    IsrcZ {
        rp: Option<usize>,
        rq: Option<usize>,
        id: DeviceId,
        wf: &'a Waveform,
    },
    /// An x-dependent device, re-linearised every iteration.
    Nonlinear(&'a Device),
}

/// A circuit simulator bound to a netlist.
///
/// Compiles the netlist's node/source structure once; every analysis
/// (operating point, DC sweep, transient) reuses the compiled structure and
/// the scratch matrix.
///
/// ```
/// use dotm_netlist::{Netlist, Waveform};
/// use dotm_sim::Simulator;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("divider");
/// let vin = nl.node("in");
/// let mid = nl.node("mid");
/// nl.add_vsource("V1", vin, Netlist::GROUND, Waveform::dc(2.0))?;
/// nl.add_resistor("R1", vin, mid, 1e3)?;
/// nl.add_resistor("R2", mid, Netlist::GROUND, 1e3)?;
/// let mut sim = Simulator::new(&nl);
/// let op = sim.dc_op()?;
/// assert!((op.voltage(mid) - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub struct Simulator<'a> {
    nl: &'a Netlist,
    opts: SimOptions,
    n_nodes: usize,
    vsrc: Vec<DeviceId>,
    vsrc_row: HashMap<u32, usize>,
    n_unknowns: usize,
    source_override: HashMap<u32, f64>,
    a: DenseMatrix,
    z: Vec<f64>,
    stats: SimStats,
    /// `true` if the netlist contains any device whose stamps depend on
    /// the solution vector (diode, MOSFET, switch). For a purely linear
    /// circuit the assembled system is independent of `x`, so Newton may
    /// accept a first-iteration convergence without a confirming solve.
    has_nonlinear: bool,
    /// One-shot warm-start guess consumed by the next [`robust_dc`] call
    /// (installed by [`Simulator::seed_dc_from`]).
    dc_seed: Option<Vec<f64>>,
    /// The most recent successfully solved DC operating point (also the
    /// transient initial point), kept for warm-start capture.
    last_dc: Option<Vec<f64>>,
    /// Compiled stamp plan, built lazily on the first assembly.
    plan: Option<Vec<PlanOp<'a>>>,
    /// LU factors of the most recently assembled matrix.
    lu: LuFactors,
    /// Exact factor-cache key: the raw entries of the matrix `lu` was
    /// factored from. Valid only when `factor_fresh` is set.
    factor_key: Vec<f64>,
    factor_fresh: bool,
    /// The transient step `lu` was last factored for, while those factors
    /// may serve chord iterations; `None` after any DC solve and after a
    /// failed factorisation.
    chord_basis: Option<ChordBasis>,
    /// Nominal-circuit factors for the rank-update path, installed by
    /// the warm-start machinery via [`Simulator::install_nominal_factors`].
    nominal: Option<Arc<NominalFactors>>,
    /// Cached Sherman–Morrison–Woodbury plan for the rank-update path,
    /// keyed by the raw entries of the matrix it was prepared from.
    /// Valid only when `smw_fresh` is set. Replaying a plan is
    /// arithmetic-identical to rebuilding it, so this cache — like the
    /// exact factor cache — is invisible outside the phase profile.
    smw_plan: Option<SmwPlan>,
    smw_key: Vec<f64>,
    smw_fresh: bool,
    /// Split-plan batched-assembly state (replay list plus gmin-keyed
    /// baselines), built lazily on the first assembly when
    /// [`SimOptions::batch_assembly`] is set.
    batch: Option<BatchState>,
    /// Class-shared nominal assembly installed by the harness plumbing;
    /// compatible variants embed its baseline instead of re-summing their
    /// own static stamps.
    shared_assembly: Option<Arc<SharedAssembly>>,
    /// One-shot primed first DC Newton iteration (captured system plus
    /// blocked-kernel LU factors) installed by the lockstep variant
    /// plumbing ([`Simulator::install_lane_prime`]). Adopted only when
    /// every first-iteration precondition matches the capture bitwise;
    /// spent either way on the first iteration it could have applied to.
    lane_prime: Option<Arc<LanePrime>>,
}

impl<'a> std::fmt::Debug for Simulator<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("netlist", &self.nl.name())
            .field("n_nodes", &self.n_nodes)
            .field("n_vsrc", &self.vsrc.len())
            .finish()
    }
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with default [`SimOptions`].
    pub fn new(nl: &'a Netlist) -> Self {
        Self::with_options(nl, SimOptions::default())
    }

    /// Creates a simulator with explicit options.
    pub fn with_options(nl: &'a Netlist, opts: SimOptions) -> Self {
        let n_nodes = nl.node_count();
        let mut vsrc = Vec::new();
        let mut vsrc_row = HashMap::new();
        for (id, dev) in nl.devices() {
            if matches!(dev.kind, DeviceKind::Vsource { .. }) {
                vsrc_row.insert(id.index() as u32, vsrc.len());
                vsrc.push(id);
            }
        }
        let n_unknowns = (n_nodes - 1) + vsrc.len();
        let has_nonlinear = nl.devices().any(|(_, d)| {
            matches!(
                d.kind,
                DeviceKind::Diode { .. } | DeviceKind::Mosfet { .. } | DeviceKind::Switch { .. }
            )
        });
        Simulator {
            nl,
            opts,
            n_nodes,
            vsrc,
            vsrc_row,
            n_unknowns,
            source_override: HashMap::new(),
            a: DenseMatrix::zeros(n_unknowns),
            z: vec![0.0; n_unknowns],
            stats: SimStats::default(),
            has_nonlinear,
            dc_seed: None,
            last_dc: None,
            plan: None,
            lu: LuFactors::new(),
            factor_key: Vec::new(),
            factor_fresh: false,
            chord_basis: None,
            nominal: None,
            smw_plan: None,
            smw_key: Vec::new(),
            smw_fresh: false,
            batch: None,
            shared_assembly: None,
            lane_prime: None,
        }
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &'a Netlist {
        self.nl
    }

    /// The options in force.
    pub fn options(&self) -> &SimOptions {
        &self.opts
    }

    /// Mutable access to the options.
    pub fn options_mut(&mut self) -> &mut SimOptions {
        &mut self.opts
    }

    /// Solver telemetry accumulated over every analysis run so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Returns the accumulated telemetry and resets the accumulator.
    pub fn take_stats(&mut self) -> SimStats {
        std::mem::take(&mut self.stats)
    }

    /// Resets the telemetry accumulator.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
    }

    /// Overrides the DC value of the named source for subsequent analyses
    /// (used by [`Simulator::dc_sweep`] and test harnesses).
    ///
    /// # Errors
    /// [`SimError::BadSource`] if the device is not a V or I source.
    pub fn override_source(&mut self, name: &str, value: f64) -> Result<(), SimError> {
        let id = self
            .nl
            .device_id(name)
            .ok_or_else(|| SimError::BadSource(name.to_string()))?;
        match self.nl.device_by_id(id).map(|d| &d.kind) {
            Some(DeviceKind::Vsource { .. }) | Some(DeviceKind::Isource { .. }) => {
                self.source_override.insert(id.index() as u32, value);
                Ok(())
            }
            _ => Err(SimError::BadSource(name.to_string())),
        }
    }

    /// Removes a source override installed by [`Simulator::override_source`].
    pub fn clear_override(&mut self, name: &str) {
        if let Some(id) = self.nl.device_id(name) {
            self.source_override.remove(&(id.index() as u32));
        }
    }

    fn source_value(&self, id: DeviceId, wf: &dotm_netlist::Waveform, t: Option<f64>) -> f64 {
        if let Some(v) = self.source_override.get(&(id.index() as u32)) {
            return *v;
        }
        match t {
            Some(t) => wf.value_at(t),
            None => wf.dc_value(),
        }
    }

    /// Compiles the stamp plan: one pass over the netlist that folds
    /// every x-independent stamp into [`PlanOp::MatAdd`] constants and
    /// defers x-dependent devices to per-iteration re-linearisation.
    /// Ops are emitted in device-walk order with the per-device stamp
    /// order of the interpretive assembly, so replay is bit-identical.
    fn build_plan(&self) -> Vec<PlanOp<'a>> {
        let n_nodes = self.n_nodes;
        let row = |n: NodeId| -> Option<usize> {
            if n.is_ground() {
                None
            } else {
                Some(n.index() - 1)
            }
        };
        let mut plan = Vec::new();
        let nl: &'a Netlist = self.nl;
        for (id, dev) in nl.devices() {
            match &dev.kind {
                DeviceKind::Resistor { a: p, b: q, ohms } => {
                    let g = 1.0 / ohms;
                    // stamp_g order: (rp,rp) (rp,rq) (rq,rp) (rq,rq).
                    if let Some(rp) = row(*p) {
                        plan.push(PlanOp::MatAdd { r: rp, c: rp, v: g });
                        if let Some(rq) = row(*q) {
                            plan.push(PlanOp::MatAdd {
                                r: rp,
                                c: rq,
                                v: -g,
                            });
                            plan.push(PlanOp::MatAdd {
                                r: rq,
                                c: rp,
                                v: -g,
                            });
                            plan.push(PlanOp::MatAdd { r: rq, c: rq, v: g });
                        }
                    } else if let Some(rq) = row(*q) {
                        plan.push(PlanOp::MatAdd { r: rq, c: rq, v: g });
                    }
                }
                DeviceKind::Capacitor { .. } => {
                    // Companion instances in transient; open in DC.
                }
                DeviceKind::Vsource { pos, neg, waveform } => {
                    let k = self.vsrc_row[&(id.index() as u32)];
                    let br = (n_nodes - 1) + k;
                    if let Some(rp) = row(*pos) {
                        plan.push(PlanOp::MatAdd {
                            r: rp,
                            c: br,
                            v: 1.0,
                        });
                        plan.push(PlanOp::MatAdd {
                            r: br,
                            c: rp,
                            v: 1.0,
                        });
                    }
                    if let Some(rq) = row(*neg) {
                        plan.push(PlanOp::MatAdd {
                            r: rq,
                            c: br,
                            v: -1.0,
                        });
                        plan.push(PlanOp::MatAdd {
                            r: br,
                            c: rq,
                            v: -1.0,
                        });
                    }
                    plan.push(PlanOp::VsrcZ {
                        row: br,
                        id,
                        wf: waveform,
                    });
                }
                DeviceKind::Isource { pos, neg, waveform } => {
                    plan.push(PlanOp::IsrcZ {
                        rp: row(*pos),
                        rq: row(*neg),
                        id,
                        wf: waveform,
                    });
                }
                DeviceKind::Diode { .. }
                | DeviceKind::Mosfet { .. }
                | DeviceKind::Switch { .. } => {
                    plan.push(PlanOp::Nonlinear(dev));
                }
            }
        }
        plan
    }

    /// Assembles the linearised MNA system `A·x_next = z` around guess `x`.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &mut self,
        x: &[f64],
        t: Option<f64>,
        tran: Option<&TranCtx<'_>>,
        gmin: f64,
        src_scale: f64,
    ) {
        if self.plan.is_none() {
            self.plan = Some(self.build_plan());
        }
        if self.opts.batch_assembly && self.batch.is_none() {
            let t0 = dotm_obs::start();
            let state = batch::build_batch(
                self.nl,
                self.plan.as_deref().expect("plan built above"),
                self.n_nodes,
                self.n_unknowns,
                self.shared_assembly.as_ref(),
            );
            dotm_obs::phase(dotm_obs::Phase::BatchAssembly, t0);
            self.batch = Some(state);
        }
        let volt = |n: NodeId| -> f64 {
            if n.is_ground() {
                0.0
            } else {
                x[n.index() - 1]
            }
        };

        // Borrow-friendly local stamp helpers.
        let overrides = &self.source_override;
        let src_val = |id: DeviceId, wf: &dotm_netlist::Waveform, t: Option<f64>| -> f64 {
            if let Some(v) = overrides.get(&(id.index() as u32)) {
                return *v;
            }
            match t {
                Some(t) => wf.value_at(t),
                None => wf.dc_value(),
            }
        };
        let a = &mut self.a;
        let z = &mut self.z;
        let row = |n: NodeId| -> Option<usize> {
            if n.is_ground() {
                None
            } else {
                Some(n.index() - 1)
            }
        };
        let stamp_g = |a: &mut DenseMatrix, p: NodeId, q: NodeId, g: f64| {
            if let Some(rp) = row(p) {
                a.add(rp, rp, g);
                if let Some(rq) = row(q) {
                    a.add(rp, rq, -g);
                    a.add(rq, rp, -g);
                    a.add(rq, rq, g);
                }
            } else if let Some(rq) = row(q) {
                a.add(rq, rq, g);
            }
        };
        // Transconductance: current into node `out_p`, out of `out_q`,
        // controlled by v(ctl_p) − v(ctl_q).
        let stamp_vccs = |a: &mut DenseMatrix,
                          out_p: NodeId,
                          out_q: NodeId,
                          ctl_p: NodeId,
                          ctl_q: NodeId,
                          g: f64| {
            for (out, sign) in [(out_p, 1.0), (out_q, -1.0)] {
                if let Some(ro) = row(out) {
                    if let Some(rc) = row(ctl_p) {
                        a.add(ro, rc, sign * g);
                    }
                    if let Some(rc) = row(ctl_q) {
                        a.add(ro, rc, -sign * g);
                    }
                }
            }
        };
        // Independent current `i` flowing out of node p, into node q.
        let stamp_i = |z: &mut [f64], p: NodeId, q: NodeId, i: f64| {
            if let Some(rp) = row(p) {
                z[rp] -= i;
            }
            if let Some(rq) = row(q) {
                z[rq] += i;
            }
        };

        // One plan op, executed identically by both assembly paths below.
        let run_op = |op: &PlanOp<'_>, a: &mut DenseMatrix, z: &mut [f64]| {
            let dev = match op {
                PlanOp::MatAdd { r, c, v } => {
                    a.add(*r, *c, *v);
                    return;
                }
                PlanOp::VsrcZ { row: br, id, wf } => {
                    z[*br] = src_val(*id, wf, t) * src_scale;
                    return;
                }
                PlanOp::IsrcZ { rp, rq, id, wf } => {
                    let i = src_val(*id, wf, t) * src_scale;
                    if let Some(rp) = rp {
                        z[*rp] -= i;
                    }
                    if let Some(rq) = rq {
                        z[*rq] += i;
                    }
                    return;
                }
                PlanOp::Nonlinear(dev) => *dev,
            };
            match &dev.kind {
                DeviceKind::Diode {
                    anode,
                    cathode,
                    params,
                } => {
                    let vd = volt(*anode) - volt(*cathode);
                    let (idv, gd) = diode_eval(vd, params);
                    stamp_g(a, *anode, *cathode, gd);
                    let ieq = idv - gd * vd;
                    stamp_i(z, *anode, *cathode, ieq);
                }
                DeviceKind::Mosfet {
                    d,
                    g,
                    s,
                    b,
                    ty,
                    params,
                } => {
                    let vgs = volt(*g) - volt(*s);
                    let vds = volt(*d) - volt(*s);
                    let vbs = volt(*b) - volt(*s);
                    let ch = mosfet_eval(vgs, vds, vbs, *ty, params);
                    // Conductive stamps from the partial derivatives.
                    stamp_vccs(a, *d, *s, *g, *s, ch.gm);
                    stamp_vccs(a, *d, *s, *d, *s, ch.gds);
                    stamp_vccs(a, *d, *s, *b, *s, ch.gmbs);
                    let ieq = ch.ids - ch.gm * vgs - ch.gds * vds - ch.gmbs * vbs;
                    stamp_i(z, *d, *s, ieq);
                    // Bulk junction diodes (leakage paths). For NMOS the
                    // bulk is the anode; for PMOS the drain/source are.
                    let jp = DiodeParams {
                        is: params.is_leak,
                        n: 1.0,
                    };
                    let junctions: [(NodeId, NodeId); 2] = match ty {
                        dotm_netlist::MosType::Nmos => [(*b, *d), (*b, *s)],
                        dotm_netlist::MosType::Pmos => [(*d, *b), (*s, *b)],
                    };
                    for (an, ca) in junctions {
                        let vd = volt(an) - volt(ca);
                        let (idv, gd) = diode_eval(vd, &jp);
                        stamp_g(a, an, ca, gd);
                        stamp_i(z, an, ca, idv - gd * vd);
                    }
                }
                DeviceKind::Switch {
                    a: p,
                    b: q,
                    cp,
                    cn,
                    params,
                } => {
                    let vc = volt(*cp) - volt(*cn);
                    let vab = volt(*p) - volt(*q);
                    let (g, dg) = switch_eval(vc, params);
                    stamp_g(a, *p, *q, g);
                    // Control coupling: ∂i/∂vc = dg·vab.
                    stamp_vccs(a, *p, *q, *cp, *cn, dg * vab);
                    // i = g·vab exactly, so the companion current is the
                    // part not captured by the linear stamps.
                    let ieq = -dg * vab * vc;
                    stamp_i(z, *p, *q, ieq);
                }
                // Linear kinds never appear as `Nonlinear` plan ops.
                _ => unreachable!("linear device in nonlinear plan op"),
            }
        };

        let plan = self.plan.as_deref().expect("plan built above");
        match (self.opts.batch_assembly, self.batch.as_mut()) {
            // Batched split-plan path: install the gmin + static-stamp
            // baseline (full matrix write once per gmin, O(dynamic cells)
            // reset afterwards), then replay only the x-dependent ops
            // (plus constant ops sharing a cell with one, preserving the
            // per-cell addition order — see `crate::batch`).
            (true, Some(state)) => {
                state.install_into(a, self.n_nodes, self.n_unknowns, gmin);
                z.fill(0.0);
                for &i in state.replay() {
                    run_op(&plan[i as usize], a, z);
                }
            }
            // Scalar path: full interpretive replay.
            _ => {
                a.clear();
                z.fill(0.0);
                // gmin from every node to ground.
                for r in 0..(self.n_nodes - 1) {
                    a.add(r, r, gmin);
                }
                for op in plan {
                    run_op(op, a, z);
                }
            }
        }

        // Transient companion models for capacitors.
        if let Some(ctx) = tran {
            for (ci, cap) in ctx.caps.iter().enumerate() {
                if cap.c <= 0.0 {
                    continue;
                }
                let st = ctx.states[ci];
                let (geq, ieq) = if ctx.trap {
                    let geq = 2.0 * cap.c / ctx.h;
                    (geq, geq * st.v + st.i)
                } else {
                    let geq = cap.c / ctx.h;
                    (geq, geq * st.v)
                };
                stamp_g(a, cap.a, cap.b, geq);
                // ieq acts as a current source from b into a.
                stamp_i(z, cap.b, cap.a, ieq);
            }
        }
    }

    /// Runs Newton–Raphson from guess `x`, leaving the solution in `x`.
    ///
    /// Thin observability wrapper: attributes the whole solve (including
    /// its per-iteration assembly and LU time) to the `newton` phase of
    /// the trace side channel. Costs one relaxed atomic load when
    /// tracing is off.
    fn newton(
        &mut self,
        x: &mut [f64],
        t: Option<f64>,
        tran: Option<&TranCtx<'_>>,
        gmin: f64,
        src_scale: f64,
    ) -> NrOutcome {
        let t_newton = dotm_obs::start();
        let outcome = self.newton_inner(x, t, tran, gmin, src_scale);
        dotm_obs::phase(dotm_obs::Phase::Newton, t_newton);
        outcome
    }

    /// One Newton solve. DC solves factor the assembled Jacobian on every
    /// iteration (through the exact factor cache, rank update and
    /// lockstep prime). Transient solves run *chord* (modified) Newton:
    /// while `lu` holds factors built for the same step size and
    /// integration rule, an iteration solves `A_old·d = z − A·x` for the
    /// update instead of refactoring. It refactors when the solve has
    /// spent its [`CHORD_BUDGET`] without converging, on the first step
    /// after a DC solve, when the step size or rule changed
    /// ([`ChordBasis::matches`]), and after a failed factorisation.
    fn newton_inner(
        &mut self,
        x: &mut [f64],
        t: Option<f64>,
        tran: Option<&TranCtx<'_>>,
        gmin: f64,
        src_scale: f64,
    ) -> NrOutcome {
        let n_v = self.n_nodes - 1;
        let mut xnext = vec![0.0; self.n_unknowns];
        self.stats.nr_solves += 1;
        let basis = tran.map(|c| ChordBasis {
            h: c.h,
            trap: c.trap,
        });
        if basis.is_none() {
            // A DC solve may replace `lu` or bypass it (rank update): the
            // first transient step after it factors its own matrix.
            self.chord_basis = None;
        }
        let mut chord_left = CHORD_BUDGET;
        for iter in 0..self.opts.max_iter {
            self.stats.nr_iterations += 1;
            // Lockstep prime: iteration 0 of a DC solve may adopt the
            // system the variant pre-pass captured and factored in the
            // blocked SoA kernel instead of assembling it again. The
            // guards demand a bitwise match of every input the assembly
            // depends on, so the loaded `(A, z)` equals what `assemble`
            // would have produced — and any divergence (escalated rung,
            // transient initial point, different seed, source override)
            // falls through to the untouched scalar path.
            let primed = if iter == 0 {
                self.take_matching_prime(x, t, tran, gmin, src_scale)
            } else {
                None
            };
            if let Some(p) = primed.as_deref() {
                let t_ls = dotm_obs::start();
                self.a.load_entries(&p.entries);
                self.z.copy_from_slice(&p.z);
                dotm_obs::phase(dotm_obs::Phase::VariantLockstep, t_ls);
                dotm_obs::counter("lockstep.prime_hits", 1);
            } else {
                let t_asm = dotm_obs::start();
                self.assemble(x, t, tran, gmin, src_scale);
                dotm_obs::phase(dotm_obs::Phase::Assembly, t_asm);
            }
            xnext.copy_from_slice(&self.z);

            // Chord iteration: reuse the factors of an earlier transient
            // Jacobian with this step's (h, trap). The update solves
            // against the fresh residual, so the fixed point — and the
            // clamp and convergence test below — are those of full
            // Newton; only the rate of approach differs.
            let mut solved = false;
            if chord_left > 0
                && matches!((self.chord_basis, basis), (Some(held), Some(b)) if held.matches(b))
            {
                // The basis is only set after factoring this simulator's
                // own matrix, whose dimension the netlist fixes.
                debug_assert_eq!(self.lu.dim(), self.n_unknowns);
                chord_left -= 1;
                let t_lu = dotm_obs::start();
                self.a.sub_mul_vec(x, &mut xnext);
                self.lu.solve(&mut xnext);
                for (xn, xi) in xnext.iter_mut().zip(x.iter()) {
                    *xn += xi;
                }
                dotm_obs::phase(dotm_obs::Phase::Lu, t_lu);
                dotm_obs::counter("lu.chord_solves", 1);
                solved = true;
            }

            // Rank-update fast path: when nominal factors are installed
            // and this is a DC solve at the nominal gmin, try to solve
            // the variant system as a low-rank update before paying for
            // a factorisation. Transient solves are excluded (companion
            // stamps perturb many columns), as is any homotopy gmin —
            // those perturb every node diagonal.
            if self.opts.rank_update && tran.is_none() {
                if let Some(nominal) = self.nominal.clone() {
                    if nominal.gmin() == gmin {
                        let t_ru = dotm_obs::start();
                        // The update plan (changed columns, update
                        // solves, factored capacitance matrix) depends
                        // only on the assembled matrix, which linear
                        // variants re-assemble bit-identically for every
                        // measurement — so cache it keyed by the raw
                        // matrix entries and only rescan when they move.
                        if !(self.smw_fresh && self.smw_key == self.a.entries()) {
                            self.smw_fresh = false;
                            self.smw_plan = None;
                            match nominal.prepare(&self.a, self.n_nodes) {
                                Ok(plan) => {
                                    self.smw_plan = Some(plan);
                                    self.smw_key.clear();
                                    self.smw_key.extend_from_slice(self.a.entries());
                                    self.smw_fresh = true;
                                }
                                // A delta that is not low-rank is a
                                // plain miss; an ill-conditioned update
                                // is an accounted fallback.
                                Err(SmwOutcome::IllConditioned) => {
                                    self.stats.factor_refactor_fallbacks += 1;
                                }
                                Err(_) => {}
                            }
                        }
                        if let Some(plan) = &self.smw_plan {
                            match nominal.solve_with(plan, &self.a, &self.z, &mut xnext) {
                                SmwOutcome::Solved => {
                                    self.stats.factor_reuse_hits += 1;
                                    solved = true;
                                }
                                // A failed residual check is verdict-
                                // affecting divergence: an accounted
                                // fallback to full refactorisation.
                                _ => {
                                    self.stats.factor_refactor_fallbacks += 1;
                                }
                            }
                        }
                        dotm_obs::phase(dotm_obs::Phase::RankUpdate, t_ru);
                    }
                }
            }

            if !solved {
                let t_lu = dotm_obs::start();
                // Exact factor cache: if the assembled matrix is
                // bit-identical to the one `lu` holds factors for, skip
                // the O(n³) refactorisation. Identical matrix + identical
                // solve arithmetic ⇒ identical solution bits, so this
                // cache is invisible everywhere except the hit counter.
                let reuse = self.opts.factor_reuse
                    && self.factor_fresh
                    && self.factor_key == self.a.entries();
                if reuse {
                    self.stats.factor_reuse_hits += 1;
                } else if let Some(p) = primed.as_deref() {
                    // Adopt the pre-pass factors: bitwise what
                    // `refactor(&self.a)` would compute (the SoA kernel
                    // mirrors it per lane), leaving exactly the
                    // post-refactor cache state. Like a successful
                    // refactor, this increments no SimStats counter, so
                    // the lockstep knob is stats-invisible. Singular
                    // lanes never get a prime and re-discover the
                    // failure through the scalar branch below.
                    self.factor_fresh = false;
                    self.lu.clone_from(&p.lu);
                    if self.opts.factor_reuse {
                        self.factor_key.clear();
                        self.factor_key.extend_from_slice(self.a.entries());
                        self.factor_fresh = true;
                    }
                } else {
                    // The key goes stale the moment a refactor starts
                    // (even a reuse-off refactor replaces the factors).
                    self.factor_fresh = false;
                    dotm_obs::counter("lu.refactors", 1);
                    if self.lu.refactor(&self.a).is_err() {
                        dotm_obs::phase(dotm_obs::Phase::Lu, t_lu);
                        self.stats.singular_pivots += 1;
                        self.chord_basis = None;
                        return NrOutcome::Singular;
                    }
                    if self.opts.factor_reuse {
                        self.factor_key.clear();
                        self.factor_key.extend_from_slice(self.a.entries());
                        self.factor_fresh = true;
                    }
                }
                self.chord_basis = basis;
                self.lu.solve(&mut xnext);
                dotm_obs::phase(dotm_obs::Phase::Lu, t_lu);
            }
            let mut converged = true;
            for (i, xn) in xnext.iter_mut().enumerate() {
                if !xn.is_finite() {
                    self.stats.singular_pivots += 1;
                    return NrOutcome::Singular;
                }
                let dx = *xn - x[i];
                let (abstol, limit) = if i < n_v {
                    (self.opts.abstol_v, self.opts.v_step_limit)
                } else {
                    (self.opts.abstol_i, f64::INFINITY)
                };
                // The v-step clamp is applied *before* the tolerance test:
                // the point this iteration actually accepts is the clamped
                // one, so convergence means "the accepted point is within
                // tolerance of the unclamped Newton target" — i.e. the
                // residual overshoot beyond the limit, not the raw dx, is
                // what must shrink below tol. A clamped step that lands
                // within tolerance of the clamp is done; testing the
                // unclamped dx first (as before) made that step report
                // `limited` and burn one extra full assemble+LU iteration.
                // A genuinely far target (overshoot >> tol) still iterates.
                let clamped = dx.abs() > limit;
                if clamped {
                    *xn = x[i] + limit.copysign(dx);
                }
                let tol = abstol + self.opts.reltol * xn.abs().max(x[i].abs());
                let overshoot = if clamped { dx.abs() - limit } else { dx.abs() };
                if overshoot > tol {
                    converged = false;
                }
            }
            x.copy_from_slice(&xnext);
            // A purely linear system is solved exactly by its first
            // iteration (the stamps do not depend on `x`), so a converged
            // first iteration needs no confirming re-solve; nonlinear
            // circuits must re-linearise at the new point at least once.
            if converged && (iter > 0 || !self.has_nonlinear) {
                return NrOutcome::Converged;
            }
        }
        self.stats.maxiter_exhausted += 1;
        NrOutcome::MaxIter
    }

    fn op_point(&mut self, x: Vec<f64>) -> OpPoint {
        self.last_dc = Some(x.clone());
        OpPoint {
            x,
            n_nodes: self.n_nodes,
            vsrc: self.vsrc.clone(),
        }
    }

    /// The most recent successfully solved DC operating point (including
    /// the transient initial point), for warm-start capture.
    pub fn last_dc_op(&self) -> Option<OpPoint> {
        self.last_dc.as_ref().map(|x| OpPoint {
            x: x.clone(),
            n_nodes: self.n_nodes,
            vsrc: self.vsrc.clone(),
        })
    }

    /// Assembles and factors the MNA matrix at the most recent solved DC
    /// point — for the *nominal* circuit this is the matrix every fault
    /// variant is a low-rank perturbation of. Returns `None` when no DC
    /// point has been solved yet or the matrix is singular.
    ///
    /// The capture runs its own assembly (the Newton loop's last
    /// assembled matrix is linearised at the pre-update iterate, not at
    /// the accepted solution) at the DC conditions: no transient
    /// companions, the target `gmin`, full source scale.
    pub fn capture_nominal_factors(&mut self) -> Option<Arc<NominalFactors>> {
        let x = self.last_dc.clone()?;
        self.assemble(&x, None, None, self.opts.gmin, 1.0);
        NominalFactors::capture(
            self.a.clone(),
            self.n_nodes,
            self.vsrc.len(),
            self.opts.gmin,
        )
        .map(Arc::new)
    }

    /// Installs nominal-circuit factors (captured on the fault-free
    /// netlist by [`Simulator::capture_nominal_factors`]) for the
    /// rank-update solve path. Only consulted when
    /// [`SimOptions::rank_update`] is set.
    pub fn install_nominal_factors(&mut self, factors: Arc<NominalFactors>) {
        self.nominal = Some(factors);
        // A cached update plan embeds solves against the previous
        // nominal factors; it cannot outlive them.
        self.smw_plan = None;
        self.smw_key.clear();
        self.smw_fresh = false;
    }

    /// Installs a class-shared assembly compiled from the nominal
    /// (fault-free) netlist by [`SharedAssembly::compile`]. Variants
    /// whose device list is a prefix-extension of the shared base adopt
    /// its static baseline instead of rebuilding their own; anything
    /// else (Monte-Carlo parameter corners, node splits) falls back to a
    /// locally split plan. Only consulted when
    /// [`SimOptions::batch_assembly`] is set.
    pub fn install_shared_assembly(&mut self, shared: Arc<SharedAssembly>) {
        self.shared_assembly = Some(shared);
        self.batch = None;
    }

    /// Installs a one-shot primed first DC Newton iteration produced by
    /// the lockstep variant pre-pass (`crate::soa::prime_lanes`).
    ///
    /// The prime is only a speed-up, never a correctness dependency:
    /// the first Newton iteration adopts it solely when every input the
    /// assembly depends on matches the capture bitwise (DC solve, base
    /// gmin, unit source scale, no source overrides, identical starting
    /// iterate and dimensions); otherwise it is dropped and the scalar
    /// assemble + factor path runs untouched.
    pub fn install_lane_prime(&mut self, prime: Arc<LanePrime>) {
        self.lane_prime = Some(prime);
    }

    /// Captures the exact system the first Newton iteration of the next
    /// DC operating-point solve would assemble: the warm-seed (or zero)
    /// starting iterate plus the MNA matrix and RHS assembled at it with
    /// the base options gmin and unit source scale. Run on a scratch
    /// simulator by the lockstep variant pre-pass; the scratch stats are
    /// discarded by the caller.
    ///
    /// Returns `None` while a source override is active — the override
    /// lives outside the netlist, so the capture could not prove itself
    /// equal to a later measurement assembly.
    pub fn lockstep_capture(&mut self) -> Option<LaneSystem> {
        if !self.source_override.is_empty() {
            return None;
        }
        let x0 = match &self.dc_seed {
            Some(seed) => seed.clone(),
            None => vec![0.0; self.n_unknowns],
        };
        self.assemble(&x0, None, None, self.opts.gmin, 1.0);
        Some(LaneSystem::new(
            x0,
            self.opts.gmin,
            self.a.entries().to_vec(),
            self.z.clone(),
        ))
    }

    /// Consumes the installed lane prime iff the state of this first
    /// Newton iteration matches the capture bitwise. Either way the
    /// prime is spent: `x` moves after iteration 0, so a prime that did
    /// not match this solve's first iteration can never match again.
    fn take_matching_prime(
        &mut self,
        x: &[f64],
        t: Option<f64>,
        tran: Option<&TranCtx<'_>>,
        gmin: f64,
        src_scale: f64,
    ) -> Option<Arc<LanePrime>> {
        let p = self.lane_prime.take()?;
        let matches = t.is_none()
            && tran.is_none()
            && src_scale == 1.0
            && self.source_override.is_empty()
            && p.dim() == self.n_unknowns
            && p.gmin.to_bits() == gmin.to_bits()
            && p.x0.len() == x.len()
            && p.x0.iter().zip(x).all(|(a, b)| a.to_bits() == b.to_bits());
        if matches {
            Some(p)
        } else {
            None
        }
    }

    /// Splits this simulator's stamp plan into static (hoistable) and
    /// dynamic (per-iteration) parts for [`SharedAssembly::compile`].
    pub(crate) fn split_parts(&mut self) -> batch::SplitParts {
        if self.plan.is_none() {
            self.plan = Some(self.build_plan());
        }
        let plan = self.plan.as_deref().expect("plan built above");
        let dynamic = batch::dynamic_cells(self.nl, self.n_unknowns);
        let (static_ops, _replay) = batch::classify(plan, &dynamic);
        batch::SplitParts {
            n_nodes: self.n_nodes,
            n_unknowns: self.n_unknowns,
            n_ops: plan.len(),
            dynamic,
            static_ops,
        }
    }

    /// Installs `op` — typically the fault-free nominal solution — as a
    /// one-shot warm-start guess for the next DC solve (including the
    /// transient initial point).
    ///
    /// Fault injection only ever *appends* nodes and devices, so a
    /// nominal solution maps onto the faulted circuit's unknown vector by
    /// copying the node-voltage and branch-current sections to their new
    /// positions and zero-filling the appended entries. The append-only
    /// invariant is checked structurally: `op`'s node count must not
    /// exceed this simulator's, and `op`'s voltage sources must be an
    /// exact id-prefix of this simulator's (device removal reindexes ids
    /// and breaks the prefix). Returns `false` — and installs nothing, so
    /// the solve starts cold — when the check fails.
    pub fn seed_dc_from(&mut self, op: &OpPoint) -> bool {
        if op.n_nodes == 0
            || op.n_nodes > self.n_nodes
            || op.vsrc.len() > self.vsrc.len()
            || op.vsrc != self.vsrc[..op.vsrc.len()]
        {
            return false;
        }
        debug_assert_eq!(op.x.len(), (op.n_nodes - 1) + op.vsrc.len());
        let mut x = vec![0.0; self.n_unknowns];
        x[..op.n_nodes - 1].copy_from_slice(&op.x[..op.n_nodes - 1]);
        for (k, &i) in op.x[op.n_nodes - 1..].iter().enumerate() {
            x[self.n_nodes - 1 + k] = i;
        }
        self.dc_seed = Some(x);
        true
    }

    /// Solves the DC operating point.
    ///
    /// Tries plain Newton–Raphson first, then gmin stepping, then source
    /// stepping.
    ///
    /// # Errors
    /// [`SimError::NoConvergence`] if all homotopies fail;
    /// [`SimError::Singular`] if the matrix is structurally singular.
    pub fn dc_op(&mut self) -> Result<OpPoint, SimError> {
        self.dc_op_from(&vec![0.0; self.n_unknowns])
    }

    /// Solves the DC operating point starting from a previous solution
    /// (continuation) — used by sweeps and the transient initial point.
    ///
    /// # Errors
    /// See [`Simulator::dc_op`].
    pub fn dc_op_from(&mut self, guess: &[f64]) -> Result<OpPoint, SimError> {
        self.robust_dc(guess, None, "dc")
    }

    /// The full homotopy chain (plain Newton → gmin stepping → source
    /// stepping) at an optional source-evaluation time.
    fn robust_dc(
        &mut self,
        guess: &[f64],
        t: Option<f64>,
        analysis: &'static str,
    ) -> Result<OpPoint, SimError> {
        // Warm start: one plain Newton solve from the seeded nominal
        // solution. On failure of any kind the full cold homotopy chain
        // below runs unchanged — the seed is only ever a speed-up, never
        // a correctness dependency.
        if let Some(seed) = self.dc_seed.take() {
            let mut x = seed;
            match self.newton(&mut x, t, None, self.opts.gmin, 1.0) {
                NrOutcome::Converged => {
                    self.stats.warm_hits += 1;
                    self.stats.converged_plain += 1;
                    return Ok(self.op_point(x));
                }
                NrOutcome::Singular | NrOutcome::MaxIter => {
                    self.stats.warm_misses += 1;
                }
            }
        }

        let mut x = guess.to_vec();
        x.resize(self.n_unknowns, 0.0);
        match self.newton(&mut x, t, None, self.opts.gmin, 1.0) {
            NrOutcome::Converged => {
                self.stats.converged_plain += 1;
                return Ok(self.op_point(x));
            }
            NrOutcome::Singular | NrOutcome::MaxIter => {}
        }

        // gmin stepping. The ladder starts at least four decades above
        // the target so the loop always executes (a large target gmin
        // used to skip the body entirely and return the unsolved
        // all-zeros vector as "converged"), and the point is only
        // accepted after a genuinely converged solve at the target gmin
        // itself.
        let mut x = vec![0.0; self.n_unknowns];
        let mut gmin = (self.opts.gmin * 1e4).max(1e-2);
        let mut ok = true;
        let mut solved_at_target = false;
        while gmin > self.opts.gmin * 0.9 {
            let eff = gmin.max(self.opts.gmin);
            match self.newton(&mut x, t, None, eff, 1.0) {
                NrOutcome::Converged => {
                    solved_at_target = eff == self.opts.gmin;
                }
                _ => {
                    ok = false;
                    break;
                }
            }
            gmin /= 10.0;
        }
        if ok && !solved_at_target {
            // The decade ladder landed near but not exactly on the target
            // (floating-point division drift, or a target above the
            // ladder's floor): one final confirming solve at the target.
            ok = matches!(
                self.newton(&mut x, t, None, self.opts.gmin, 1.0),
                NrOutcome::Converged
            );
        }
        if ok {
            self.stats.converged_gmin += 1;
            return Ok(self.op_point(x));
        }

        // Source stepping.
        let mut x = vec![0.0; self.n_unknowns];
        let steps = 40;
        for k in 1..=steps {
            let scale = k as f64 / steps as f64;
            match self.newton(&mut x, t, None, self.opts.gmin.max(1e-9), scale) {
                NrOutcome::Converged => {}
                NrOutcome::Singular => {
                    self.stats.dc_failures += 1;
                    return Err(SimError::Singular { analysis });
                }
                NrOutcome::MaxIter => {
                    self.stats.dc_failures += 1;
                    return Err(SimError::NoConvergence {
                        analysis,
                        time: t,
                        iterations: self.opts.max_iter,
                    });
                }
            }
        }
        // Final polish at full scale with target gmin.
        match self.newton(&mut x, t, None, self.opts.gmin, 1.0) {
            NrOutcome::Converged => {
                self.stats.converged_source += 1;
                Ok(self.op_point(x))
            }
            NrOutcome::Singular => {
                self.stats.dc_failures += 1;
                Err(SimError::Singular { analysis })
            }
            NrOutcome::MaxIter => {
                self.stats.dc_failures += 1;
                Err(SimError::NoConvergence {
                    analysis,
                    time: t,
                    iterations: self.opts.max_iter,
                })
            }
        }
    }

    /// Sweeps the named V or I source over `values`, solving a DC operating
    /// point at each (with continuation between points).
    ///
    /// # Errors
    /// [`SimError::BadSource`] for a non-source device; otherwise the first
    /// failing operating point's error.
    ///
    /// The swept source's override state is restored on **every** exit
    /// path — including a mid-sweep solver failure — so a failed sweep
    /// never leaves the source pinned at the last swept value for
    /// subsequent analyses (and a pre-existing override survives the
    /// sweep).
    pub fn dc_sweep(&mut self, source: &str, values: &[f64]) -> Result<Vec<OpPoint>, SimError> {
        let prev = self
            .nl
            .device_id(source)
            .and_then(|id| self.source_override.get(&(id.index() as u32)).copied());
        let mut out = Vec::with_capacity(values.len());
        let mut guess = vec![0.0; self.n_unknowns];
        let mut first_err = None;
        for &v in values {
            let point = self
                .override_source(source, v)
                .and_then(|()| self.dc_op_from(&guess));
            match point {
                Ok(op) => {
                    guess.copy_from_slice(&op.x);
                    out.push(op);
                }
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        if let Some(id) = self.nl.device_id(source) {
            match prev {
                Some(v) => {
                    self.source_override.insert(id.index() as u32, v);
                }
                None => {
                    self.source_override.remove(&(id.index() as u32));
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Collects the companion capacitor instances (explicit capacitors plus
    /// MOSFET parasitics).
    fn collect_caps(&self) -> Vec<CapInst> {
        let mut caps = Vec::new();
        for (_, dev) in self.nl.devices() {
            match &dev.kind {
                DeviceKind::Capacitor { a, b, farads } => caps.push(CapInst {
                    a: *a,
                    b: *b,
                    c: *farads,
                }),
                DeviceKind::Mosfet {
                    d, g, s, b, params, ..
                } => {
                    let cg = 0.5 * params.gate_cap();
                    caps.push(CapInst {
                        a: *g,
                        b: *s,
                        c: cg,
                    });
                    caps.push(CapInst {
                        a: *g,
                        b: *d,
                        c: cg,
                    });
                    caps.push(CapInst {
                        a: *d,
                        b: *b,
                        c: params.cj,
                    });
                    caps.push(CapInst {
                        a: *s,
                        b: *b,
                        c: params.cj,
                    });
                }
                _ => {}
            }
        }
        caps
    }

    /// Runs a transient analysis from `t = 0` to `tstop` with output grid
    /// spacing `dt`. The initial condition is the DC operating point with
    /// sources evaluated at `t = 0`.
    ///
    /// Internally the step is halved (up to
    /// [`SimOptions::max_step_halvings`] times) when Newton fails, so sharp
    /// source edges do not abort the analysis.
    ///
    /// # Errors
    /// [`SimError::InvalidRequest`] for a non-positive `dt` or `tstop`;
    /// [`SimError::NoConvergence`] / [`SimError::Singular`] from the solver.
    pub fn transient(&mut self, tstop: f64, dt: f64) -> Result<TranResult, SimError> {
        if !(dt > 0.0 && tstop > 0.0 && tstop.is_finite()) {
            return Err(SimError::InvalidRequest(format!(
                "transient requires dt > 0 and tstop > 0 (dt = {dt}, tstop = {tstop})"
            )));
        }
        let caps = self.collect_caps();
        // Initial condition: DC at t = 0.
        let op0 = self.transient_initial()?;
        let mut x = op0.x.clone();
        let volt_of = |x: &[f64], n: NodeId| -> f64 {
            if n.is_ground() {
                0.0
            } else {
                x[n.index() - 1]
            }
        };
        let mut states: Vec<CapState> = caps
            .iter()
            .map(|c| CapState {
                v: volt_of(&x, c.a) - volt_of(&x, c.b),
                i: 0.0,
            })
            .collect();

        // Output grid: when `tstop` is an integer multiple of `dt` (to fp
        // tolerance), the grid is exactly `k·dt` as before. Otherwise the
        // old `.round()` silently simulated to the wrong end time (e.g.
        // tstop = 1 ns, dt = 0.3 ns stopped at 0.9 ns); now the grid gains
        // a final point clamped to `tstop` itself.
        // The tolerance must scale with `dt`, not only `tstop`: a pure
        // `1e-9·tstop` bound grows toward a full step at large step
        // counts and misclassifies near-divisors, while a pure `1e-9·dt`
        // bound is tighter than the rounding noise of a divisor computed
        // in floating point (`dt = tstop/3.0` accumulates error of order
        // `eps·tstop` in `ratio.round()·dt`). Use both terms.
        let ratio = tstop / dt;
        let exact = (ratio.round() * dt - tstop).abs() <= 1e-9 * dt + 4.0 * f64::EPSILON * tstop;
        let n_out = if exact {
            ratio.round() as usize
        } else {
            ratio.ceil() as usize
        };
        let mut result = TranResult {
            times: Vec::with_capacity(n_out + 1),
            states: Vec::with_capacity(n_out + 1),
            n_nodes: self.n_nodes,
            vsrc: self.vsrc.clone(),
        };
        result.times.push(0.0);
        result.states.push(x.clone());

        let trap_ok = self.opts.integration == Integration::Trapezoidal;
        let mut first_step = true;
        let mut t = 0.0;
        // Step carry: once halvings find a working `h` at a sharp edge,
        // restarting the next step from the full remaining interval would
        // repeat up to `max_step_halvings` rejected Newton solves per
        // accepted step. Carrying the accepted `h` forward with a ×2 ramp
        // (capped at the remaining interval) keeps the step near the
        // edge-resolving size; without halvings every step is the full
        // remaining interval either way.
        let mut carried: Option<f64> = None;
        for k in 1..=n_out {
            let t_target = if !exact && k == n_out {
                tstop
            } else {
                k as f64 * dt
            };
            while t < t_target - 1e-18 * t_target.max(1.0) {
                let remaining = t_target - t;
                let mut h = carried.map_or(remaining, |c| c.min(remaining));
                let mut halvings = 0;
                loop {
                    // BE on the very first step (no stored cap current yet).
                    let trap = trap_ok && !first_step;
                    let ctx = TranCtx {
                        caps: &caps,
                        states: &states,
                        h,
                        trap,
                    };
                    let mut xt = x.clone();
                    match self.newton(&mut xt, Some(t + h), Some(&ctx), self.opts.gmin, 1.0) {
                        NrOutcome::Converged => {
                            // Accept: update capacitor states.
                            for (ci, cap) in caps.iter().enumerate() {
                                let vnew = volt_of(&xt, cap.a) - volt_of(&xt, cap.b);
                                let st = &mut states[ci];
                                let inew = if trap {
                                    2.0 * cap.c / h * (vnew - st.v) - st.i
                                } else {
                                    cap.c / h * (vnew - st.v)
                                };
                                st.v = vnew;
                                st.i = inew;
                            }
                            x = xt;
                            t += h;
                            first_step = false;
                            self.stats.tran_steps += 1;
                            carried = Some(2.0 * h);
                            break;
                        }
                        NrOutcome::Singular => {
                            self.stats.rejected_steps += 1;
                            return Err(SimError::Singular {
                                analysis: "transient",
                            });
                        }
                        NrOutcome::MaxIter => {
                            self.stats.rejected_steps += 1;
                            halvings += 1;
                            if halvings > self.opts.max_step_halvings {
                                return Err(SimError::NoConvergence {
                                    analysis: "transient",
                                    time: Some(t + h),
                                    iterations: self.opts.max_iter,
                                });
                            }
                            self.stats.step_halvings += 1;
                            h /= 2.0;
                        }
                    }
                }
            }
            result.times.push(t_target);
            result.states.push(x.clone());
        }
        Ok(result)
    }

    /// DC solve with time-zero source values (for the transient initial
    /// condition) — the full homotopy chain applies here too, because
    /// fault-injected circuits at corner process samples routinely need
    /// source stepping.
    fn transient_initial(&mut self) -> Result<OpPoint, SimError> {
        let zeros = vec![0.0; self.n_unknowns];
        self.robust_dc(&zeros, Some(0.0), "transient")
    }

    /// Terminal DC currents of the named device at an operating point, in
    /// terminal order. Capacitors report zero (DC). Voltage sources report
    /// their branch current on both terminals (positive out of `pos`).
    ///
    /// Returns `None` for an unknown device.
    pub fn device_currents(&self, op: &OpPoint, name: &str) -> Option<Vec<f64>> {
        let id = self.nl.device_id(name)?;
        let dev: &Device = self.nl.device_by_id(id)?;
        let v = |n: NodeId| op.voltage(n);
        Some(match &dev.kind {
            DeviceKind::Resistor { a, b, ohms } => {
                let i = (v(*a) - v(*b)) / ohms;
                vec![i, -i]
            }
            DeviceKind::Capacitor { .. } => vec![0.0, 0.0],
            DeviceKind::Vsource { .. } => {
                let i = op.branch_current(id).unwrap_or(0.0);
                vec![i, -i]
            }
            DeviceKind::Isource {
                pos: _,
                neg: _,
                waveform,
            } => {
                let i = self.source_value(id, waveform, None);
                vec![i, -i]
            }
            DeviceKind::Diode {
                anode,
                cathode,
                params,
            } => {
                let (i, _) = diode_eval(v(*anode) - v(*cathode), params);
                vec![i, -i]
            }
            DeviceKind::Mosfet {
                d,
                g,
                s,
                b,
                ty,
                params,
            } => {
                let ch = mosfet_eval(v(*g) - v(*s), v(*d) - v(*s), v(*b) - v(*s), *ty, params);
                let jp = DiodeParams {
                    is: params.is_leak,
                    n: 1.0,
                };
                let (jd, js, sign) = match ty {
                    dotm_netlist::MosType::Nmos => {
                        let (ibd, _) = diode_eval(v(*b) - v(*d), &jp);
                        let (ibs, _) = diode_eval(v(*b) - v(*s), &jp);
                        (ibd, ibs, 1.0)
                    }
                    dotm_netlist::MosType::Pmos => {
                        let (idb, _) = diode_eval(v(*d) - v(*b), &jp);
                        let (isb, _) = diode_eval(v(*s) - v(*b), &jp);
                        (idb, isb, -1.0)
                    }
                };
                // Terminal currents into the device: drain, gate, source, bulk.
                let i_d = ch.ids - sign * jd;
                let i_g = 0.0;
                let i_s = -ch.ids - sign * js;
                let i_b = sign * (jd + js);
                vec![i_d, i_g, i_s, i_b]
            }
            DeviceKind::Switch {
                a,
                b,
                cp,
                cn,
                params,
            } => {
                let (g, _) = switch_eval(v(*cp) - v(*cn), params);
                let i = g * (v(*a) - v(*b));
                vec![i, -i, 0.0, 0.0]
            }
        })
    }
}
