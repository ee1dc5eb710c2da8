//! The simulation engine: MNA assembly and the Newton–Raphson solver with
//! gmin- and source-stepping homotopies.

use crate::error::SimError;
use crate::models::{diode_eval, mosfet_channel, switch_eval, MosConsts};
use crate::sparse::{SparseLu, SparseMatrix};
use crate::stats::SimStats;
use dotm_netlist::{
    Device, DeviceId, DeviceKind, DiodeParams, MosType, MosfetParams, Netlist, NodeId, Waveform,
};
use std::collections::HashMap;

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
        }
    }
}

/// A solved operating point.
///
/// Obtained from [`Simulator::dc_op`] (or a transient snapshot); query it
/// with [`OpPoint::voltage`] and [`OpPoint::branch_current`].
#[derive(Debug, Clone)]
pub struct OpPoint {
    x: Vec<f64>,
    n_nodes: usize,
    vsrc: Vec<DeviceId>,
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

    /// The raw unknown vector: node voltages (ground excluded, in node
    /// order), then voltage-source branch currents (in device order).
    pub fn unknowns(&self) -> &[f64] {
        &self.x
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

/// A companion-model capacitor instance used during transient analysis;
/// only capacitors with `c > 0` are compiled.
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

/// One transient step attempt: the capacitor states it starts from, one
/// per compiled capacitor, and its step.
struct TranCtx<'c> {
    states: &'c [CapState],
    h: f64,
    /// true on steps integrated with trapezoidal rule
    trap: bool,
}

/// What the baseline matrix was stamped for: the gmin of the solve and,
/// on a transient step, its `(h, trap)`. Compared exactly, so a baseline
/// is reused only for the very parameters it was built from.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BaseKey {
    gmin: f64,
    step: Option<(f64, bool)>,
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

/// One x-independent step of the compiled stamp plan.
///
/// The netlist is immutable for the life of a [`Simulator`], so the
/// *values* of every x-independent stamp are compiled once, in
/// device-walk order. The matrix stamps go into the baseline matrix, the
/// source values into the baseline right-hand side; x-dependent devices
/// are compiled apart ([`MosKernel`], and the diodes and switches that
/// [`stamp_nonlinear`] linearises).
enum PlanOp<'a> {
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
}

/// Terminal indices into [`MosKernel::rows`].
const D: usize = 0;
const G: usize = 1;
const S: usize = 2;
const B: usize = 3;

/// The eleven cells a MOSFET can stamp, as `(row, column)` terminals, in
/// the order of [`MosKernel::stamp`]'s merged values. The gate row stamps
/// nothing: no current flows into the gate outside the capacitor
/// companions.
const MOS_CELLS: [(usize, usize); 11] = [
    (D, D),
    (D, G),
    (D, S),
    (D, B),
    (S, D),
    (S, G),
    (S, S),
    (S, B),
    (B, B),
    (B, D),
    (B, S),
];

/// A MOSFET compiled for assembly: its terminal rows, the bias-independent
/// factors of its channel law, which bulk junctions can conduct, and the
/// slot of every cell it stamps. Each iteration evaluates the channel and
/// the live junctions and adds one merged value per cell.
struct MosKernel<'a> {
    /// Matrix rows of `d g s b` (`None` for ground).
    rows: [Option<usize>; 4],
    ty: MosType,
    params: &'a MosfetParams,
    consts: MosConsts,
    /// The bulk junction diodes' law.
    junction: DiodeParams,
    /// Whether the bulk–drain and bulk–source junctions can conduct. A
    /// junction whose two terminals are one node (ground counts as one)
    /// stamps exactly zero, so it is dropped.
    live: [bool; 2],
    /// `(slot, index into MOS_CELLS)` of every cell stamped, resolved
    /// once the matrix pattern exists.
    slots: Vec<(u32, u8)>,
}

impl<'a> MosKernel<'a> {
    fn new(dev: &'a Device) -> Option<Self> {
        let DeviceKind::Mosfet {
            d,
            g,
            s,
            b,
            ty,
            params,
        } = &dev.kind
        else {
            return None;
        };
        Some(MosKernel {
            rows: [*d, *g, *s, *b].map(node_row),
            ty: *ty,
            params,
            consts: MosConsts::of(params),
            junction: DiodeParams {
                is: params.is_leak,
                n: 1.0,
            },
            live: [b != d, b != s],
            slots: Vec::new(),
        })
    }

    /// The `(row, column, index into MOS_CELLS)` of every cell this
    /// device stamps: both terminals off ground, and not a bulk-row cell
    /// that only dropped junctions would stamp (the channel stamps the
    /// drain and source rows alone).
    fn cells(&self) -> impl Iterator<Item = (usize, usize, u8)> + '_ {
        MOS_CELLS.iter().enumerate().filter_map(|(k, &(i, j))| {
            let stamped = i != B
                || match j {
                    D => self.live[0],
                    S => self.live[1],
                    _ => self.live[0] || self.live[1],
                };
            match (self.rows[i], self.rows[j]) {
                (Some(r), Some(c)) if stamped => Some((r, c, k as u8)),
                _ => None,
            }
        })
    }

    /// Adds this device's linearisation around `x` into `a` and `z`.
    #[inline]
    fn stamp(&self, a: &mut SparseMatrix, z: &mut [f64], x: &[f64]) {
        let [vd, vg, vs, vb] = self.rows.map(|r| r.map_or(0.0, |r| x[r]));
        let (vgs, vds, vbs) = (vg - vs, vd - vs, vb - vs);
        let ch = mosfet_channel(vgs, vds, vbs, self.ty, self.params, self.consts);
        let ieq = ch.ids - ch.gm * vgs - ch.gds * vds - ch.gmbs * vbs;
        // Junction `k` joins the bulk to the drain (0) or the source (1):
        // its conductance, and its companion current out of the bulk. For
        // NMOS the bulk is the anode; for PMOS the drain/source are.
        let junction = |k: usize, v: f64| {
            if !self.live[k] {
                return (0.0, 0.0);
            }
            let vdio = match self.ty {
                MosType::Nmos => vb - v,
                MosType::Pmos => v - vb,
            };
            let (idv, gd) = diode_eval(vdio, &self.junction);
            let ieq = idv - gd * vdio;
            match self.ty {
                MosType::Nmos => (gd, ieq),
                MosType::Pmos => (gd, -ieq),
            }
        };
        let (g1, q1) = junction(0, vd);
        let (g2, q2) = junction(1, vs);
        let (gm, gds, gmbs) = (ch.gm, ch.gds, ch.gmbs);
        let vals = [
            gds + g1,
            gm,
            -gm - gds - gmbs,
            gmbs - g1,
            -gds,
            -gm,
            gm + gds + gmbs + g2,
            -gmbs - g2,
            g1 + g2,
            -g1,
            -g2,
        ];
        for &(slot, k) in &self.slots {
            a.add_at(slot as usize, vals[k as usize]);
        }
        for (row, i) in [(D, q1 - ieq), (S, ieq + q2), (B, -q1 - q2)] {
            if let Some(r) = self.rows[row] {
                z[r] += i;
            }
        }
    }
}

/// A circuit simulator bound to a netlist.
///
/// Compiles the netlist's stamp plan, matrix pattern and sparse-LU
/// symbolic analysis once; every analysis (operating point, transient)
/// reuses them. Several analyses on one simulator solve to the same bits
/// as a fresh simulator per analysis with the same source overrides: the
/// factor cache is exact and every DC solve drops the chord factors, so
/// reuse shows only in [`SimStats::factor_reuse_hits`] and
/// [`SimStats::factor_refactor_fallbacks`].
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
    n_unknowns: usize,
    /// Source overrides, indexed by device.
    source_override: Vec<Option<f64>>,
    /// Compiled x-independent stamps.
    plan: Vec<PlanOp<'a>>,
    /// Compiled capacitor companions (transient only).
    caps: Vec<CapInst>,
    /// Compiled MOSFETs.
    mosfets: Vec<MosKernel<'a>>,
    /// The diodes and switches, linearised by [`stamp_nonlinear`].
    replay: Vec<&'a Device>,
    /// The slot in `a` of every stamp [`Simulator::load_baseline`] makes,
    /// in its order: the gmin diagonal, the plan's stamps, then the
    /// capacitor companions (transient only).
    base_slots: Vec<u32>,
    /// The slot of every stamp of `replay`'s devices, in device order.
    replay_slots: Vec<u32>,
    /// The baseline matrix: every x-independent stamp of the solve at
    /// hand, stamped for `base_key`.
    base: SparseMatrix,
    base_key: Option<BaseKey>,
    /// Each compiled capacitor's companion conductance for `base_key`'s
    /// step (empty for a DC baseline).
    cap_geq: Vec<f64>,
    /// The baseline right-hand side of the Newton solve at hand: sources
    /// at its time and scale, and the capacitor companion currents.
    z_base: Vec<f64>,
    /// The assembled MNA matrix, over the pattern of every stamp cell.
    a: SparseMatrix,
    z: Vec<f64>,
    stats: SimStats,
    /// `true` if the netlist contains any device whose stamps depend on
    /// the solution vector (diode, MOSFET, switch). For a purely linear
    /// circuit the assembled system is independent of `x`, so Newton may
    /// accept a first-iteration convergence without a confirming solve.
    has_nonlinear: bool,
    /// LU factors of the most recently factored matrix, over the
    /// symbolic analysis of `a`'s pattern.
    lu: SparseLu,
    /// Exact factor-cache key: the compact values of the matrix `lu` was
    /// factored from. Valid only when `factor_fresh` is set.
    factor_key: Vec<f64>,
    factor_fresh: bool,
    /// The transient step `lu` was last factored for, while those factors
    /// may serve chord iterations; `None` after any DC solve and after a
    /// failed factorisation.
    chord_basis: Option<ChordBasis>,
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
        // Symbolic analysis, once per netlist: the pattern of every cell
        // any assembly can stamp, each stamp's slot in it, and the sparse
        // factorisation's order and fill.
        let plan = build_plan(nl, n_nodes, &vsrc_row);
        let caps = collect_caps(nl);
        let mut mosfets: Vec<MosKernel<'a>> = nl
            .devices()
            .filter_map(|(_, d)| MosKernel::new(d))
            .collect();
        let replay: Vec<&Device> = nl
            .devices()
            .map(|(_, d)| d)
            .filter(|d| matches!(d.kind, DeviceKind::Diode { .. } | DeviceKind::Switch { .. }))
            .collect();
        let base_cells = baseline_cells(n_nodes, &plan, &caps);
        let mut replay_cells = Vec::new();
        let (x, mut z) = (vec![0.0; n_unknowns], vec![0.0; n_unknowns]);
        for dev in &replay {
            stamp_nonlinear(&mut replay_cells, &mut z, dev, &x);
        }
        let mos_cells = mosfets
            .iter()
            .flat_map(|m| m.cells().map(|(r, c, _)| (r, c)));
        let a = SparseMatrix::from_pattern(
            n_unknowns,
            base_cells
                .iter()
                .chain(&replay_cells)
                .copied()
                .chain(mos_cells),
        );
        let slot =
            |r: usize, c: usize| a.slot(r, c).expect("recorded cell is in the pattern") as u32;
        let base_slots = base_cells.iter().map(|&(r, c)| slot(r, c)).collect();
        let replay_slots = replay_cells.iter().map(|&(r, c)| slot(r, c)).collect();
        for m in &mut mosfets {
            m.slots = m.cells().map(|(r, c, k)| (slot(r, c), k)).collect();
        }
        let lu = SparseLu::analyse(&a);
        Simulator {
            nl,
            opts,
            n_nodes,
            vsrc,
            n_unknowns,
            source_override: vec![None; nl.device_count()],
            plan,
            caps,
            mosfets,
            replay,
            base_slots,
            replay_slots,
            base: a.clone(),
            base_key: None,
            cap_geq: Vec::new(),
            z_base: vec![0.0; n_unknowns],
            a,
            z: vec![0.0; n_unknowns],
            stats: SimStats::default(),
            has_nonlinear,
            lu,
            factor_key: Vec::new(),
            factor_fresh: false,
            chord_basis: None,
        }
    }

    /// Number of MNA unknowns: node voltages, then voltage-source branch
    /// currents (see [`OpPoint::unknowns`]).
    pub fn dim(&self) -> usize {
        self.n_unknowns
    }

    /// The options this simulator solves with.
    pub fn options(&self) -> &SimOptions {
        &self.opts
    }

    /// Solver telemetry accumulated over every analysis run so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Returns the accumulated telemetry and resets the accumulator.
    pub fn take_stats(&mut self) -> SimStats {
        std::mem::take(&mut self.stats)
    }

    /// Overrides the DC value of the named source for subsequent analyses
    /// (the harnesses' DC stimuli and sweep points).
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
                self.source_override[id.index()] = Some(value);
                Ok(())
            }
            _ => Err(SimError::BadSource(name.to_string())),
        }
    }

    /// Removes a source override installed by [`Simulator::override_source`].
    pub fn clear_override(&mut self, name: &str) {
        if let Some(id) = self.nl.device_id(name) {
            self.source_override[id.index()] = None;
        }
    }

    /// Stamps the baseline matrix for `key`, unless it already holds
    /// that key: the gmin diagonal, the plan's constant stamps and, on a
    /// transient step, every capacitor's companion conductance, whose
    /// values it keeps in `cap_geq`.
    fn load_baseline(&mut self, key: BaseKey) {
        if self.base_key == Some(key) {
            return;
        }
        self.base.clear();
        let mut a = Replay {
            a: &mut self.base,
            slots: self.base_slots.iter(),
        };
        for r in 0..(self.n_nodes - 1) {
            a.add(r, r, key.gmin);
        }
        for op in &self.plan {
            if let PlanOp::MatAdd { r, c, v } = op {
                a.add(*r, *c, *v);
            }
        }
        self.cap_geq.clear();
        if let Some((h, trap)) = key.step {
            for cap in &self.caps {
                let geq = if trap { 2.0 * cap.c / h } else { cap.c / h };
                stamp_g(&mut a, cap.a, cap.b, geq);
                self.cap_geq.push(geq);
            }
            debug_assert_eq!(a.slots.len(), 0, "capacitor stamps left unassembled");
        }
        self.base_key = Some(key);
    }

    /// Fills the baseline right-hand side of one Newton solve: the
    /// sources at `t` (their DC values for `None`) times `src_scale`,
    /// and on a transient step each capacitor's companion current. The
    /// baseline matrix must already hold this step's key.
    fn load_rhs(&mut self, t: Option<f64>, tran: Option<&TranCtx<'_>>, src_scale: f64) {
        let overrides = &self.source_override;
        let z = &mut self.z_base;
        z.fill(0.0);
        for op in &self.plan {
            match op {
                PlanOp::MatAdd { .. } => {}
                PlanOp::VsrcZ { row: br, id, wf } => {
                    z[*br] = source_value(overrides, *id, wf, t) * src_scale;
                }
                PlanOp::IsrcZ { rp, rq, id, wf } => {
                    let i = source_value(overrides, *id, wf, t) * src_scale;
                    if let Some(rp) = rp {
                        z[*rp] -= i;
                    }
                    if let Some(rq) = rq {
                        z[*rq] += i;
                    }
                }
            }
        }
        if let Some(ctx) = tran {
            debug_assert_eq!(self.cap_geq.len(), ctx.states.len());
            for ((cap, &geq), st) in self.caps.iter().zip(&self.cap_geq).zip(ctx.states) {
                let ieq = if ctx.trap {
                    geq * st.v + st.i
                } else {
                    geq * st.v
                };
                // ieq acts as a current source from b into a.
                stamp_i(z, cap.b, cap.a, ieq);
            }
        }
    }

    /// Assembles the linearised MNA system `A·x_next = z` around guess
    /// `x`: the baselines, plus every x-dependent device's stamps.
    fn assemble(&mut self, x: &[f64]) {
        self.a.copy_values_from(&self.base);
        self.z.copy_from_slice(&self.z_base);
        let mut a = Replay {
            a: &mut self.a,
            slots: self.replay_slots.iter(),
        };
        for dev in &self.replay {
            stamp_nonlinear(&mut a, &mut self.z, dev, x);
        }
        for m in &self.mosfets {
            m.stamp(&mut self.a, &mut self.z, x);
        }
    }

    /// The MNA matrix linearised around `x`, as one Newton iteration
    /// assembles it: a DC operating-point iteration for `h = None`, else a
    /// backward-Euler transient step of size `h` (the capacitor states do
    /// not enter the matrix). For inspecting and testing the solver.
    pub fn jacobian(&mut self, x: &[f64], h: Option<f64>) -> &SparseMatrix {
        assert_eq!(x.len(), self.n_unknowns, "one value per unknown");
        self.load_baseline(BaseKey {
            gmin: self.opts.gmin,
            step: h.map(|h| (h, false)),
        });
        self.assemble(x);
        &self.a
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
    /// iteration, skipping the factorisation only when the exact factor
    /// cache holds factors of a bit-identical matrix. Transient solves
    /// run *chord* (modified) Newton: while `lu` holds factors built for
    /// the same step size and integration rule, an iteration solves
    /// `A_old·d = z − A·x` for the update instead of refactoring. It
    /// refactors when the solve has spent its [`CHORD_BUDGET`] without
    /// converging, on the first step after a DC solve, when the step size
    /// or rule changed ([`ChordBasis::matches`]), and after a failed
    /// factorisation.
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
            // A DC solve may replace `lu`: the first transient step after
            // it factors its own matrix.
            self.chord_basis = None;
        }
        let mut chord_left = CHORD_BUDGET;
        let t_asm = dotm_obs::start();
        self.load_baseline(BaseKey {
            gmin,
            step: basis.map(|b| (b.h, b.trap)),
        });
        self.load_rhs(t, tran, src_scale);
        dotm_obs::phase(dotm_obs::Phase::Assembly, t_asm);
        for iter in 0..self.opts.max_iter {
            self.stats.nr_iterations += 1;
            let t_asm = dotm_obs::start();
            self.assemble(x);
            dotm_obs::phase(dotm_obs::Phase::Assembly, t_asm);
            xnext.copy_from_slice(&self.z);

            // Chord iteration: reuse the factors of an earlier transient
            // Jacobian with this step's (h, trap). The update solves
            // against the fresh residual, so the fixed point — and the
            // clamp and convergence test below — are those of full
            // Newton; only the rate of approach differs.
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
            } else {
                let t_lu = dotm_obs::start();
                // Exact factor cache: if the assembled matrix is
                // bit-identical to the one `lu` holds factors for, skip
                // the refactorisation. Identical matrix + identical
                // solve arithmetic ⇒ identical solution bits, so this
                // cache is invisible everywhere except the hit counter.
                if self.factor_fresh && self.factor_key == self.a.values() {
                    self.stats.factor_reuse_hits += 1;
                } else {
                    // The key goes stale the moment a refactor starts.
                    self.factor_fresh = false;
                    dotm_obs::counter("lu.refactors", 1);
                    let factored = self.lu.refactor(&self.a);
                    // Sparse pivots rejected (or no transversal): this
                    // factorisation, and any singular verdict, is dense.
                    if self.lu.is_dense() {
                        self.stats.factor_refactor_fallbacks += 1;
                    }
                    if factored.is_err() {
                        dotm_obs::phase(dotm_obs::Phase::Lu, t_lu);
                        self.stats.singular_pivots += 1;
                        self.chord_basis = None;
                        return NrOutcome::Singular;
                    }
                    self.factor_key.clear();
                    self.factor_key.extend_from_slice(self.a.values());
                    self.factor_fresh = true;
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

    fn op_point(&self, x: Vec<f64>) -> OpPoint {
        OpPoint {
            x,
            n_nodes: self.n_nodes,
            vsrc: self.vsrc.clone(),
        }
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
    /// (continuation from a neighbouring sweep point).
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

    /// Runs a transient analysis from `t = 0` on the output grid `k·dt`
    /// and returns the solution at each instant of `at`, in order. The
    /// analysis steps only as far as the grid point its last read snaps
    /// to, so an empty `at` solves nothing. The initial condition is the
    /// DC operating point with sources evaluated at `t = 0`.
    ///
    /// Each read is the grid point nearest its instant: a tie takes the
    /// earlier point, a read before `0` takes the initial condition, and
    /// so does a NaN instant (a faulty circuit's measurement chain can
    /// produce one, and blaming the grid, finite by construction, would
    /// point at the wrong side).
    ///
    /// Internally the step is halved (up to
    /// [`SimOptions::max_step_halvings`] times) when Newton fails, so sharp
    /// source edges do not abort the analysis.
    ///
    /// # Errors
    /// [`SimError::InvalidRequest`] for a non-finite or non-positive `dt`,
    /// or an instant with no grid point to snap to (`+∞`, or `t/dt` past
    /// 2^52, where grid points stop being distinct);
    /// [`SimError::NoConvergence`] / [`SimError::Singular`] from the solver.
    pub fn transient(&mut self, dt: f64, at: &[f64]) -> Result<Vec<OpPoint>, SimError> {
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(SimError::InvalidRequest(format!(
                "transient requires a finite dt > 0 (dt = {dt})"
            )));
        }
        let picks = at
            .iter()
            .map(|&t| {
                grid_index(t, dt).ok_or_else(|| {
                    SimError::InvalidRequest(format!(
                        "transient read at t = {t} has no grid point at dt = {dt}"
                    ))
                })
            })
            .collect::<Result<Vec<usize>, SimError>>()?;
        let Some(&last) = picks.iter().max() else {
            return Ok(Vec::new());
        };
        let mut reads: Vec<Option<OpPoint>> = vec![None; at.len()];
        let mut read = |k: usize, x: &[f64], this: &Self| {
            for (slot, _) in reads.iter_mut().zip(&picks).filter(|(_, p)| **p == k) {
                *slot = Some(this.op_point(x.to_vec()));
            }
        };
        // Initial condition: DC at t = 0.
        let mut x = self.transient_initial()?.x;
        read(0, &x, self);
        let mut states: Vec<CapState> = self
            .caps
            .iter()
            .map(|c| CapState {
                v: volt(&x, c.a) - volt(&x, c.b),
                i: 0.0,
            })
            .collect();

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
        for k in 1..=last {
            let t_target = k as f64 * dt;
            while t < t_target - 1e-18 * t_target.max(1.0) {
                let remaining = t_target - t;
                let mut h = carried.map_or(remaining, |c| c.min(remaining));
                let mut halvings = 0;
                loop {
                    // BE on the very first step (no stored cap current yet).
                    let trap = trap_ok && !first_step;
                    let ctx = TranCtx {
                        states: &states,
                        h,
                        trap,
                    };
                    let mut xt = x.clone();
                    match self.newton(&mut xt, Some(t + h), Some(&ctx), self.opts.gmin, 1.0) {
                        NrOutcome::Converged => {
                            // Accept: update capacitor states with the
                            // companion conductances this step stamped.
                            debug_assert_eq!(self.base_key.and_then(|k| k.step), Some((h, trap)));
                            let steps = self.caps.iter().zip(&self.cap_geq);
                            for ((cap, &geq), st) in steps.zip(&mut states) {
                                let vnew = volt(&xt, cap.a) - volt(&xt, cap.b);
                                let inew = if trap {
                                    geq * (vnew - st.v) - st.i
                                } else {
                                    geq * (vnew - st.v)
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
            read(k, &x, self);
        }
        Ok(reads
            .into_iter()
            .map(|r| r.expect("every read snaps to a grid point"))
            .collect())
    }

    /// DC solve with time-zero source values (for the transient initial
    /// condition) — the full homotopy chain applies here too, because
    /// fault-injected circuits at corner process samples routinely need
    /// source stepping.
    fn transient_initial(&mut self) -> Result<OpPoint, SimError> {
        let zeros = vec![0.0; self.n_unknowns];
        self.robust_dc(&zeros, Some(0.0), "transient")
    }
}

/// The index `k` of the grid point `k·dt` nearest `t`, the earlier
/// point on a tie, for a finite `dt > 0`: 0 for a NaN or non-positive
/// `t`, and `None` where `t/dt` reaches 2^52 (`t = +∞` among them),
/// beyond which neighbouring points `k·dt` can round to one value.
fn grid_index(t: f64, dt: f64) -> Option<usize> {
    if t.is_nan() || t <= 0.0 {
        return Some(0);
    }
    let ratio = t / dt;
    if ratio >= (1u64 << 52) as f64 {
        return None;
    }
    // The quotient can round across a point, so `k` is settled against
    // the points themselves: the last one at or before `t`.
    let point = |k: usize| k as f64 * dt;
    let mut k = ratio.floor() as usize;
    while k > 0 && point(k) > t {
        k -= 1;
    }
    while point(k + 1) <= t {
        k += 1;
    }
    Some(if point(k + 1) - t < t - point(k) {
        k + 1
    } else {
        k
    })
}

/// Where assembly's matrix stamps go: the symbolic pass records their
/// cells, and every assembly after it adds them through the recorded
/// slots.
trait Stamp {
    fn add(&mut self, r: usize, c: usize, v: f64);
}

/// The symbolic pass: records each stamp's cell, in stamping order.
impl Stamp for Vec<(usize, usize)> {
    fn add(&mut self, r: usize, c: usize, _v: f64) {
        self.push((r, c));
    }
}

/// Adds stamps into the compact matrix through the slots recorded for
/// them, which must be replayed in the recording order.
struct Replay<'s> {
    a: &'s mut SparseMatrix,
    slots: std::slice::Iter<'s, u32>,
}

impl Stamp for Replay<'_> {
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        let s = *self.slots.next().expect("every stamp has a recorded slot") as usize;
        debug_assert_eq!(
            self.a.slot(r, c),
            Some(s),
            "stamp at ({r}, {c}) outside the symbolic pattern"
        );
        self.a.add_at(s, v);
    }
}

/// The value of source `id` with waveform `wf`: its override if one is
/// installed, else the waveform at `t` (its DC value for `t = None`).
fn source_value(overrides: &[Option<f64>], id: DeviceId, wf: &Waveform, t: Option<f64>) -> f64 {
    if let Some(v) = overrides[id.index()] {
        return v;
    }
    match t {
        Some(t) => wf.value_at(t),
        None => wf.dc_value(),
    }
}

/// Matrix row of a node (`None` for ground).
#[inline]
fn node_row(n: NodeId) -> Option<usize> {
    if n.is_ground() {
        None
    } else {
        Some(n.index() - 1)
    }
}

/// Voltage of `n` in the unknown vector `x`.
#[inline]
fn volt(x: &[f64], n: NodeId) -> f64 {
    node_row(n).map_or(0.0, |r| x[r])
}

/// Conductance `g` between nodes `p` and `q`.
fn stamp_g<S: Stamp>(a: &mut S, p: NodeId, q: NodeId, g: f64) {
    if let Some(rp) = node_row(p) {
        a.add(rp, rp, g);
        if let Some(rq) = node_row(q) {
            a.add(rp, rq, -g);
            a.add(rq, rp, -g);
            a.add(rq, rq, g);
        }
    } else if let Some(rq) = node_row(q) {
        a.add(rq, rq, g);
    }
}

/// Transconductance: current into node `out_p`, out of `out_q`,
/// controlled by v(ctl_p) − v(ctl_q).
fn stamp_vccs<S: Stamp>(
    a: &mut S,
    out_p: NodeId,
    out_q: NodeId,
    ctl_p: NodeId,
    ctl_q: NodeId,
    g: f64,
) {
    for (out, sign) in [(out_p, 1.0), (out_q, -1.0)] {
        if let Some(ro) = node_row(out) {
            if let Some(rc) = node_row(ctl_p) {
                a.add(ro, rc, sign * g);
            }
            if let Some(rc) = node_row(ctl_q) {
                a.add(ro, rc, -sign * g);
            }
        }
    }
}

/// Independent current `i` flowing out of node p, into node q.
fn stamp_i(z: &mut [f64], p: NodeId, q: NodeId, i: f64) {
    if let Some(rp) = node_row(p) {
        z[rp] -= i;
    }
    if let Some(rq) = node_row(q) {
        z[rq] += i;
    }
}

/// Stamps a diode or switch linearised around `x`.
fn stamp_nonlinear<S: Stamp>(a: &mut S, z: &mut [f64], dev: &Device, x: &[f64]) {
    let volt = |n: NodeId| volt(x, n);
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
        // MOSFETs have their compiled kernel; linear kinds are planned.
        _ => unreachable!("only diodes and switches are replayed"),
    }
}

/// The cell of every stamp [`Simulator::load_baseline`] makes for a
/// transient step, in its order: the gmin diagonal, the plan's constant
/// stamps and the capacitor companions (a DC baseline stops before
/// those).
fn baseline_cells(n_nodes: usize, plan: &[PlanOp<'_>], caps: &[CapInst]) -> Vec<(usize, usize)> {
    let mut cells = Vec::new();
    for r in 0..(n_nodes - 1) {
        cells.add(r, r, 0.0);
    }
    for op in plan {
        if let PlanOp::MatAdd { r, c, v } = op {
            cells.add(*r, *c, *v);
        }
    }
    for cap in caps {
        stamp_g(&mut cells, cap.a, cap.b, 0.0);
    }
    cells
}

/// Compiles the stamp plan: one pass over the netlist that folds every
/// x-independent stamp into [`PlanOp::MatAdd`] constants and source
/// values, in device-walk order. Capacitors and x-dependent devices are
/// compiled apart.
fn build_plan<'a>(
    nl: &'a Netlist,
    n_nodes: usize,
    vsrc_row: &HashMap<u32, usize>,
) -> Vec<PlanOp<'a>> {
    let mut plan = Vec::new();
    let mat_add = |r: usize, c: usize, v: f64| PlanOp::MatAdd { r, c, v };
    for (id, dev) in nl.devices() {
        match &dev.kind {
            DeviceKind::Resistor { a: p, b: q, ohms } => {
                let g = 1.0 / ohms;
                // stamp_g order: (rp,rp) (rp,rq) (rq,rp) (rq,rq).
                if let Some(rp) = node_row(*p) {
                    plan.push(mat_add(rp, rp, g));
                    if let Some(rq) = node_row(*q) {
                        plan.push(mat_add(rp, rq, -g));
                        plan.push(mat_add(rq, rp, -g));
                        plan.push(mat_add(rq, rq, g));
                    }
                } else if let Some(rq) = node_row(*q) {
                    plan.push(mat_add(rq, rq, g));
                }
            }
            DeviceKind::Capacitor { .. } => {
                // Companion instances in transient; open in DC.
            }
            DeviceKind::Vsource { pos, neg, waveform } => {
                let br = (n_nodes - 1) + vsrc_row[&(id.index() as u32)];
                if let Some(rp) = node_row(*pos) {
                    plan.push(mat_add(rp, br, 1.0));
                    plan.push(mat_add(br, rp, 1.0));
                }
                if let Some(rq) = node_row(*neg) {
                    plan.push(mat_add(rq, br, -1.0));
                    plan.push(mat_add(br, rq, -1.0));
                }
                plan.push(PlanOp::VsrcZ {
                    row: br,
                    id,
                    wf: waveform,
                });
            }
            DeviceKind::Isource { pos, neg, waveform } => {
                plan.push(PlanOp::IsrcZ {
                    rp: node_row(*pos),
                    rq: node_row(*neg),
                    id,
                    wf: waveform,
                });
            }
            DeviceKind::Diode { .. } | DeviceKind::Mosfet { .. } | DeviceKind::Switch { .. } => {}
        }
    }
    plan
}

/// The companion capacitor instances of a transient analysis: explicit
/// capacitors plus MOSFET parasitics, in device order, leaving out those
/// with no positive capacitance (they stamp nothing).
fn collect_caps(nl: &Netlist) -> Vec<CapInst> {
    let mut caps = Vec::new();
    for (_, dev) in nl.devices() {
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
    caps.retain(|c| c.c > 0.0);
    caps
}

#[cfg(test)]
mod tests {
    use super::grid_index;

    #[test]
    fn grid_index_is_total_over_nan_and_negative_instants() {
        let dt = 0.25e-9;
        assert_eq!(grid_index(f64::NAN, dt), Some(0));
        assert_eq!(grid_index(f64::NEG_INFINITY, dt), Some(0));
        assert_eq!(grid_index(-1.0, dt), Some(0));
        assert_eq!(grid_index(-0.0, dt), Some(0));
        assert_eq!(grid_index(0.26e-9, dt), Some(1));
        assert_eq!(grid_index(f64::INFINITY, dt), None);
        assert_eq!(grid_index(1.0, f64::MIN_POSITIVE), None);
    }

    #[test]
    fn grid_index_rounds_to_the_nearest_point() {
        let dt = 10e-9;
        assert_eq!(grid_index(0.0, dt), Some(0));
        assert_eq!(grid_index(54e-9, dt), Some(5));
        assert_eq!(grid_index(56e-9, dt), Some(6));
        assert_eq!(grid_index(10.0, dt), Some(1_000_000_000));
        // A tie takes the earlier point.
        assert_eq!(grid_index(1.5, 1.0), Some(1));
        // An instant on a point reads that point, though `t/dt` rounds
        // off it (`3·(1e-6/3)` is not `1e-6` in binary).
        let dt = 1e-6 / 3.0;
        for k in 0..10usize {
            assert_eq!(grid_index(k as f64 * dt, dt), Some(k));
        }
    }
}
