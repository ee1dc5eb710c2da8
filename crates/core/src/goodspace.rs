//! Compilation of the multi-dimensional good-signature space.
//!
//! "In the analog domain, the output of a fault-free circuit can vary
//! under the influence of environmental conditions like process, supply
//! voltage and temperature. Thus the good signature is a multi-dimensional
//! space, which has to be compiled for each set of test stimuli" — this
//! module is that compilation: a two-level Monte Carlo separating die-wide
//! (common) variation from per-instance mismatch, so current-detection
//! thresholds can be scaled to the full chip (256 comparators share one
//! supply pin).

use crate::exec::{self, ExecConfig};
use crate::harness::{MacroHarness, Warm, WarmCapture, WarmStart};
use crate::measure::MeasureKind;
use crate::processvar::ProcessModel;
use crate::signature::{CurrentFlags, CurrentKind};
use dotm_rng::rngs::StdRng;
use dotm_sim::{SimError, SimStats};

/// Monte-Carlo sizes for good-space compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoodSpaceConfig {
    /// Number of die-wide (common) samples.
    pub common_samples: usize,
    /// Mismatch samples per common sample.
    pub mismatch_samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Parallel execution of the common samples. The result is
    /// thread-count-invariant: each common sample draws from its own
    /// `(seed, index)` substream.
    pub exec: ExecConfig,
    /// Capture the nominal operating points and use them to warm-start
    /// Newton on every Monte-Carlo corner (and, downstream, on every
    /// fault-injected variant). A failed seed falls back to the cold
    /// homotopy chain, so this only changes solver effort, never whether
    /// a corner converges from the methodology's point of view.
    pub warm_start: bool,
    /// No effect. The solver's exact factor cache is unconditional; the
    /// field remains so callers that set it keep compiling.
    pub factor_reuse: bool,
    /// No effect. The rank-update solve path is retired; the field
    /// remains so callers that set it keep compiling.
    pub rank_update: bool,
    /// No effect. Batched assembly is retired; the field remains so
    /// callers that set it keep compiling.
    pub batch_assembly: bool,
    /// No effect. Transient step carry is unconditional since store
    /// `FORMAT_VERSION` 4; the field remains so callers that set it keep
    /// compiling.
    pub tran_step_carry: bool,
}

impl Default for GoodSpaceConfig {
    fn default() -> Self {
        GoodSpaceConfig {
            common_samples: 5,
            mismatch_samples: 4,
            seed: 1995,
            exec: ExecConfig::default(),
            warm_start: true,
            factor_reuse: true,
            rank_update: false,
            batch_assembly: true,
            tran_step_carry: false,
        }
    }
}

/// Draws common sample `si` — and its `m` mismatch measurements — from
/// the sample's own `(seed, si)` substream. Retries with fresh draws from
/// the same stream when a process corner fails to converge, so the result
/// depends only on `(cfg.seed, si)`, never on sibling samples or thread
/// scheduling.
fn compile_common_sample(
    harness: &dyn MacroHarness,
    model: &ProcessModel,
    cfg: &GoodSpaceConfig,
    m: usize,
    si: u64,
    warm: Option<&WarmStart>,
) -> Result<(Vec<Vec<f64>>, SimStats, u64), SimError> {
    let opts = harness.sim_options();
    let mut rng = StdRng::seed_from_stream(cfg.seed, si);
    let mut stats = SimStats::default();
    let mut retries: u64 = 0;
    let mut retries_left = 2 * m + 2;
    loop {
        let common = model.sample_common(&mut rng);
        let mut per_mm = Vec::with_capacity(m);
        let mut corner_error = None;
        for _ in 0..m {
            let mut nl = harness.testbench();
            harness.perturb(&mut nl, model, &common, &mut rng);
            let w = warm.map_or(Warm::Cold, Warm::Seed);
            match harness.measure_with(&nl, &opts, &mut stats, w) {
                Ok(v) => per_mm.push(v),
                Err(e) => {
                    corner_error = Some(e);
                    break;
                }
            }
        }
        match corner_error {
            None => return Ok((per_mm, stats, retries)),
            Some(e) => {
                if retries_left == 0 {
                    return Err(e);
                }
                retries_left -= 1;
                retries += 1;
            }
        }
    }
}

/// The compiled good space: nominal measurements plus the per-measurement
/// common and mismatch standard deviations.
#[derive(Debug, Clone)]
pub struct GoodSpace {
    /// Measurement of the unperturbed circuit (the detection reference).
    pub nominal: Vec<f64>,
    /// Monte-Carlo mean.
    pub mean: Vec<f64>,
    /// Die-to-die (common) σ.
    pub sigma_common: Vec<f64>,
    /// Within-die (mismatch) σ.
    pub sigma_mismatch: Vec<f64>,
    /// Solver telemetry accumulated over the whole compilation (nominal
    /// plus every Monte-Carlo corner, including redrawn ones).
    pub solver: SimStats,
    /// Process corners redrawn because the simulator left its convergence
    /// envelope (bounded per common sample).
    pub corner_retries: u64,
    /// Nominal operating points captured per analysis slot during the
    /// nominal measurement — the seed table for warm-starting faulty and
    /// perturbed variants. `None` when warm-start is disabled.
    pub warm: Option<WarmStart>,
}

impl GoodSpace {
    /// Compiles the good space for a harness.
    ///
    /// # Errors
    /// Propagates simulator failures (a fault-free circuit failing to
    /// converge is a configuration error worth surfacing).
    pub fn compile(
        harness: &dyn MacroHarness,
        model: &ProcessModel,
        cfg: GoodSpaceConfig,
    ) -> Result<GoodSpace, SimError> {
        let mut solver = SimStats::default();
        let testbench = harness.testbench();
        // The nominal measurement is single-threaded; in warm-start mode
        // it doubles as the capture run for the per-analysis operating
        // points, frozen into an immutable seed table before any parallel
        // work starts (so seeded results cannot depend on scheduling).
        let capture = WarmCapture::new();
        let nominal_warm = if cfg.warm_start {
            Warm::Capture(&capture)
        } else {
            Warm::Cold
        };
        let nominal = harness.measure_with(
            &testbench,
            &harness.sim_options(),
            &mut solver,
            nominal_warm,
        )?;
        let warm = cfg.warm_start.then(|| capture.freeze());
        let n = nominal.len();
        let s = cfg.common_samples.max(1);
        let m = cfg.mismatch_samples.max(1);
        // samples[s][m][i]. Each common sample draws from its own
        // `(seed, index)` substream, so the compilation parallelises over
        // the common axis with thread-count-invariant results. A perturbed
        // sample at an extreme corner can leave the simulator's
        // convergence envelope; the good space is a statistical estimate,
        // so such a sample is redrawn from its own stream (bounded
        // retries) rather than failing the whole compilation.
        let per_sample: Vec<(Vec<Vec<f64>>, SimStats, u64)> =
            exec::par_map_indices(&cfg.exec, s, |si| {
                compile_common_sample(harness, model, &cfg, m, si as u64, warm.as_ref())
            })
            .into_iter()
            .collect::<Result<_, _>>()?;
        // Telemetry is folded in index order: SimStats addition commutes,
        // but a fixed order keeps the reduction trivially reproducible.
        let mut corner_retries: u64 = 0;
        let samples: Vec<Vec<Vec<f64>>> = per_sample
            .into_iter()
            .map(|(sample, stats, retries)| {
                solver.merge(&stats);
                corner_retries += retries;
                sample
            })
            .collect();
        let mut mean = vec![0.0; n];
        let mut sigma_common = vec![0.0; n];
        let mut sigma_mismatch = vec![0.0; n];
        for i in 0..n {
            let common_means: Vec<f64> = samples
                .iter()
                .map(|mm| mm.iter().map(|v| v[i]).sum::<f64>() / m as f64)
                .collect();
            let grand = common_means.iter().sum::<f64>() / s as f64;
            mean[i] = grand;
            let var_c = common_means
                .iter()
                .map(|v| (v - grand) * (v - grand))
                .sum::<f64>()
                / (s.max(2) - 1) as f64;
            sigma_common[i] = var_c.sqrt();
            let var_m = samples
                .iter()
                .map(|mm| {
                    let cm = mm.iter().map(|v| v[i]).sum::<f64>() / m as f64;
                    mm.iter().map(|v| (v[i] - cm) * (v[i] - cm)).sum::<f64>()
                        / (m.max(2) - 1) as f64
                })
                .sum::<f64>()
                / s as f64;
            sigma_mismatch[i] = var_m.sqrt();
        }
        Ok(GoodSpace {
            nominal,
            mean,
            sigma_common,
            sigma_mismatch,
            solver,
            corner_retries,
            warm,
        })
    }

    /// Chip-level 3σ detection threshold for measurement `i` when `n`
    /// instances of the macro contribute to the measured pin: the common
    /// part adds linearly, mismatch in quadrature.
    pub fn threshold(&self, i: usize, n_instances: usize) -> f64 {
        let n = n_instances as f64;
        let sigma_chip =
            ((n * self.sigma_common[i]).powi(2) + n * self.sigma_mismatch[i].powi(2)).sqrt();
        3.0 * sigma_chip
    }

    /// Evaluates the current flags of a faulty measurement vector.
    ///
    /// `shared` scales the fault's *supply-current* deviation by the
    /// instance count: a fault on a shared trunk shifts the operating
    /// point of every instance, and all instances hang on the same supply
    /// pins. Input-terminal deviations are never scaled — the fault's
    /// bridge current flows once per chip, and the instances' own input
    /// currents are gate currents (≈ 0) before and after.
    pub fn current_flags(
        &self,
        harness: &dyn MacroHarness,
        faulty: &[f64],
        shared: bool,
    ) -> CurrentFlags {
        let plan = harness.plan();
        let n_inst = harness.instance_count();
        let mut flags = CurrentFlags::default();
        for (i, label) in plan.labels.iter().enumerate() {
            if let MeasureKind::Current(kind) = label.kind {
                let mult = if shared && kind != CurrentKind::Iinput {
                    n_inst as f64
                } else {
                    1.0
                };
                let deviation = (faulty[i] - self.nominal[i]).abs() * mult;
                let threshold = self.threshold(i, n_inst).max(harness.current_floor(kind));
                if deviation > threshold {
                    flags.set(kind, true);
                }
            }
        }
        flags
    }

    /// Indices of the current measurements whose deviation exceeds the
    /// detection threshold — the raw material for test-set compaction.
    pub fn flagged_indices(
        &self,
        harness: &dyn MacroHarness,
        faulty: &[f64],
        shared: bool,
    ) -> Vec<usize> {
        let plan = harness.plan();
        let n_inst = harness.instance_count();
        let mut out = Vec::new();
        for (i, label) in plan.labels.iter().enumerate() {
            if let MeasureKind::Current(kind) = label.kind {
                let mult = if shared && kind != CurrentKind::Iinput {
                    n_inst as f64
                } else {
                    1.0
                };
                let deviation = (faulty[i] - self.nominal[i]).abs() * mult;
                let threshold = self.threshold(i, n_inst).max(harness.current_floor(kind));
                if deviation > threshold {
                    out.push(i);
                }
            }
        }
        out
    }

    /// The largest deviation-to-threshold ratio over all current
    /// measurements of a kind (diagnostic helper for reports and the
    /// sigma-sweep ablation).
    pub fn worst_margin(
        &self,
        harness: &dyn MacroHarness,
        faulty: &[f64],
        kind: CurrentKind,
        shared: bool,
    ) -> f64 {
        let plan = harness.plan();
        let n_inst = harness.instance_count();
        let mult = if shared && kind != CurrentKind::Iinput {
            n_inst as f64
        } else {
            1.0
        };
        let mut worst = 0.0f64;
        for i in plan.current_indices(kind) {
            let deviation = (faulty[i] - self.nominal[i]).abs() * mult;
            let threshold = self.threshold(i, n_inst).max(harness.current_floor(kind));
            worst = worst.max(deviation / threshold);
        }
        worst
    }
}
