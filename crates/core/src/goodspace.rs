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
//!
//! "Compiled for each set of test stimuli" means once per stimulus set,
//! not once per run: the Monte-Carlo result is one record in the
//! pipeline's measurement store, so a warm campaign replays it instead
//! of re-simulating every corner.

use crate::exec::{self, ExecConfig};
use crate::harness::MacroHarness;
use crate::measure::MeasureKind;
use crate::memo::MemoryStore;
use crate::pipeline::{tagged_key, MeasurementStore};
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
    /// No effect. Every DC solve starts from the cold homotopy chain; the
    /// field remains so callers that set it keep compiling.
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
            harness.perturb(&mut nl, model, &common, &mut rng, &mut stats);
            match harness.measure_with(&nl, &opts, &mut stats) {
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

/// Runs the s·m Monte-Carlo corners and estimates σ_common and
/// σ_mismatch at the `currents` indices. Returns the record and the
/// corners' solver telemetry.
fn compile_corners(
    harness: &dyn MacroHarness,
    model: &ProcessModel,
    cfg: &GoodSpaceConfig,
    currents: &[usize],
) -> Result<(CornerRecord, SimStats), SimError> {
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
            compile_common_sample(harness, model, cfg, m, si as u64)
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
    // Telemetry is folded in index order: SimStats addition commutes,
    // but a fixed order keeps the reduction trivially reproducible.
    let mut stats = SimStats::default();
    let mut corner_retries: u64 = 0;
    let samples: Vec<Vec<Vec<f64>>> = per_sample
        .into_iter()
        .map(|(sample, sample_stats, retries)| {
            stats.merge(&sample_stats);
            corner_retries += retries;
            sample
        })
        .collect();
    let mut sigma_common = Vec::with_capacity(currents.len());
    let mut sigma_mismatch = Vec::with_capacity(currents.len());
    for &i in currents {
        let common_means: Vec<f64> = samples
            .iter()
            .map(|mm| mm.iter().map(|v| v[i]).sum::<f64>() / m as f64)
            .collect();
        let grand = common_means.iter().sum::<f64>() / s as f64;
        let var_c = common_means
            .iter()
            .map(|v| (v - grand) * (v - grand))
            .sum::<f64>()
            / (s.max(2) - 1) as f64;
        sigma_common.push(var_c.sqrt());
        let var_m = samples
            .iter()
            .map(|mm| {
                let cm = mm.iter().map(|v| v[i]).sum::<f64>() / m as f64;
                mm.iter().map(|v| (v[i] - cm) * (v[i] - cm)).sum::<f64>() / (m.max(2) - 1) as f64
            })
            .sum::<f64>()
            / s as f64;
        sigma_mismatch.push(var_m.sqrt());
    }
    sigma_common.extend(sigma_mismatch);
    let record = CornerRecord {
        corner_retries,
        sigmas: sigma_common,
    };
    Ok((record, stats))
}

/// The compiled good space: nominal measurements plus the per-measurement
/// common and mismatch standard deviations.
#[derive(Debug, Clone)]
pub struct GoodSpace {
    /// Measurement of the unperturbed circuit (the detection reference).
    pub nominal: Vec<f64>,
    /// Die-to-die (common) σ. Estimated for the current measurements
    /// only — the only ones with detection thresholds; 0.0 elsewhere.
    pub sigma_common: Vec<f64>,
    /// Within-die (mismatch) σ, current measurements only like
    /// [`GoodSpace::sigma_common`].
    pub sigma_mismatch: Vec<f64>,
    /// Solver telemetry accumulated over the whole compilation (nominal
    /// plus every Monte-Carlo corner, including redrawn ones).
    pub solver: SimStats,
    /// Process corners redrawn because the simulator left its convergence
    /// envelope (bounded per common sample).
    pub corner_retries: u64,
}

/// The stored outcome of the Monte-Carlo corners: everything the good
/// space takes from them. Persisted as the values of one
/// [`CachedMeasurement`](crate::CachedMeasurement) — `[corner_retries, σ_common…, σ_mismatch…]`
/// with σ at the current-measurement indices only — whose stats delta
/// is the corners' solver telemetry.
struct CornerRecord {
    corner_retries: u64,
    /// σ_common then σ_mismatch, each over the current indices in plan
    /// order.
    sigmas: Vec<f64>,
}

impl CornerRecord {
    fn encode(&self) -> Vec<f64> {
        let mut values = Vec::with_capacity(1 + self.sigmas.len());
        values.push(self.corner_retries as f64);
        values.extend_from_slice(&self.sigmas);
        values
    }

    /// `None` (a miss: recompile) unless `values` holds an integral retry
    /// count and one σ pair per current measurement.
    fn decode(values: &[f64], currents: usize) -> Option<CornerRecord> {
        let (&retries, sigmas) = values.split_first()?;
        let exact = retries >= 0.0 && retries.fract() == 0.0 && retries < 2f64.powi(53);
        (exact && sigmas.len() == 2 * currents).then(|| CornerRecord {
            corner_retries: retries as u64,
            sigmas: sigmas.to_vec(),
        })
    }
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
        Self::compile_in(harness, model, cfg, &MemoryStore::new())
    }

    /// The store key of the Monte-Carlo record [`GoodSpace::compile`]
    /// keeps for `(harness, model, cfg)`: the testbench content, the
    /// Monte-Carlo sizes and seed, and the process sigmas. The executor
    /// configuration and the inert fields are left out; they never change
    /// the result.
    pub fn store_key(
        harness: &dyn MacroHarness,
        model: &ProcessModel,
        cfg: &GoodSpaceConfig,
    ) -> u128 {
        let digest = harness.testbench().content_digest();
        let mut words = vec![
            digest as u64,
            (digest >> 64) as u64,
            cfg.common_samples.max(1) as u64,
            cfg.mismatch_samples.max(1) as u64,
            cfg.seed,
        ];
        words.extend(
            [
                model.sigma_vt_common,
                model.sigma_kp_common,
                model.sigma_r_common,
                model.sigma_vdd,
                model.sigma_vt_mismatch,
                model.sigma_kp_mismatch,
                model.sigma_r_mismatch,
                model.temp_span_c,
            ]
            .map(f64::to_bits),
        );
        tagged_key("goodspace", &words)
    }

    /// [`GoodSpace::compile`] against a measurement store: the
    /// Monte-Carlo corners are replayed from the record under
    /// [`GoodSpace::store_key`] when `store` holds a well-formed one, and
    /// computed and stored otherwise. The nominal measurement always
    /// runs — it is the detection reference, and it is not stored — so a
    /// replay returns the same bits as a compile.
    pub(crate) fn compile_in(
        harness: &dyn MacroHarness,
        model: &ProcessModel,
        cfg: GoodSpaceConfig,
        store: &dyn MeasurementStore,
    ) -> Result<GoodSpace, SimError> {
        let mut solver = SimStats::default();
        let testbench = harness.testbench();
        let nominal = harness.measure_with(&testbench, &harness.sim_options(), &mut solver)?;
        let currents: Vec<usize> = harness
            .plan()
            .labels
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l.kind, MeasureKind::Current(_)))
            .map(|(i, _)| i)
            .collect();
        let key = Self::store_key(harness, model, &cfg);
        let replay = store.load(key).and_then(|(result, delta)| {
            let record = CornerRecord::decode(&result.ok()?, currents.len())?;
            Some((record, delta))
        });
        let (record, delta) = match replay {
            Some(hit) => {
                dotm_obs::counter("replay.store_hits", 1);
                hit
            }
            None => {
                let (record, delta) = compile_corners(harness, model, &cfg, &currents)?;
                store.store(key, &(Ok(record.encode()), delta));
                (record, delta)
            }
        };
        solver.merge(&delta);
        let n = nominal.len();
        let mut sigma_common = vec![0.0; n];
        let mut sigma_mismatch = vec![0.0; n];
        let (common, mismatch) = record.sigmas.split_at(currents.len());
        for (k, &i) in currents.iter().enumerate() {
            sigma_common[i] = common[k];
            sigma_mismatch[i] = mismatch[k];
        }
        Ok(GoodSpace {
            nominal,
            sigma_common,
            sigma_mismatch,
            solver,
            corner_retries: record.corner_retries,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harnesses::BiasHarness;
    use crate::memo::CachedMeasurement;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn cfg() -> GoodSpaceConfig {
        GoodSpaceConfig {
            common_samples: 2,
            mismatch_samples: 2,
            seed: 11,
            ..GoodSpaceConfig::default()
        }
    }

    /// Answers every load with one fixed record and counts the stores.
    struct Fixed {
        record: Option<CachedMeasurement>,
        stores: AtomicUsize,
    }

    impl MeasurementStore for Fixed {
        fn load(&self, _key: u128) -> Option<CachedMeasurement> {
            self.record.clone()
        }

        fn store(&self, _key: u128, _value: &CachedMeasurement) {
            self.stores.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn assert_same_bits(a: &GoodSpace, b: &GoodSpace) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.nominal), bits(&b.nominal));
        assert_eq!(bits(&a.sigma_common), bits(&b.sigma_common));
        assert_eq!(bits(&a.sigma_mismatch), bits(&b.sigma_mismatch));
        assert_eq!(a.solver, b.solver);
        assert_eq!(a.corner_retries, b.corner_retries);
    }

    #[test]
    fn replayed_corners_give_the_compiled_bits() {
        let h = BiasHarness::default();
        let model = ProcessModel::default();
        let memo = MemoryStore::new();
        let compiled = GoodSpace::compile_in(&h, &model, cfg(), &memo).expect("compiles");
        let key = GoodSpace::store_key(&h, &model, &cfg());
        let record = memo.load(key).expect("the corners are stored");
        assert!(
            record.1.nr_solves > 0,
            "the record carries the corners' stats"
        );
        let replay = Fixed {
            record: Some(record),
            stores: AtomicUsize::new(0),
        };
        let replayed = GoodSpace::compile_in(&h, &model, cfg(), &replay).expect("replays");
        assert_eq!(
            replay.stores.load(Ordering::Relaxed),
            0,
            "nothing recomputed"
        );
        assert_same_bits(&compiled, &replayed);
        // σ is estimated at the current measurements only.
        let plan = h.plan();
        for (i, label) in plan.labels.iter().enumerate() {
            if !matches!(label.kind, MeasureKind::Current(_)) {
                assert_eq!(compiled.sigma_common[i], 0.0, "{}", label.name);
                assert_eq!(compiled.sigma_mismatch[i], 0.0, "{}", label.name);
            }
        }
    }

    #[test]
    fn malformed_records_read_as_misses() {
        let h = BiasHarness::default();
        let model = ProcessModel::default();
        let compiled = GoodSpace::compile(&h, &model, cfg()).expect("compiles");
        let stats = SimStats::default();
        // The bias generator has one current measurement: a good record
        // holds a retry count and one σ pair.
        for (values, why) in [
            (Ok(vec![0.0, 1e-6]), "too short"),
            (Ok(vec![0.0, 1e-6, 1e-6, 1e-6]), "too long"),
            (Ok(vec![0.5, 1e-6, 1e-6]), "fractional retry count"),
            (Ok(vec![-1.0, 1e-6, 1e-6]), "negative retry count"),
            (Ok(vec![f64::NAN, 1e-6, 1e-6]), "NaN retry count"),
            (Ok(vec![]), "empty"),
            (Err(SimError::Singular { analysis: "dc" }), "an error"),
        ] {
            let store = Fixed {
                record: Some((values, stats)),
                stores: AtomicUsize::new(0),
            };
            let recompiled = GoodSpace::compile_in(&h, &model, cfg(), &store).expect("compiles");
            assert_eq!(store.stores.load(Ordering::Relaxed), 1, "{why}: recomputed");
            assert_same_bits(&compiled, &recompiled);
        }
    }

    #[test]
    fn the_record_key_tracks_its_inputs_but_not_the_executor() {
        let h = BiasHarness::default();
        let model = ProcessModel::default();
        let base = GoodSpace::store_key(&h, &model, &cfg());
        let threads = GoodSpaceConfig {
            exec: ExecConfig::with_threads(4),
            ..cfg()
        };
        assert_eq!(GoodSpace::store_key(&h, &model, &threads), base);
        let cold = GoodSpaceConfig {
            warm_start: false,
            ..cfg()
        };
        assert_eq!(GoodSpace::store_key(&h, &model, &cold), base, "warm start");
        for (other, why) in [
            (GoodSpaceConfig { seed: 12, ..cfg() }, "seed"),
            (
                GoodSpaceConfig {
                    common_samples: 3,
                    ..cfg()
                },
                "common samples",
            ),
            (
                GoodSpaceConfig {
                    mismatch_samples: 3,
                    ..cfg()
                },
                "mismatch samples",
            ),
        ] {
            assert_ne!(GoodSpace::store_key(&h, &model, &other), base, "{why}");
        }
        let wider = ProcessModel {
            sigma_vt_mismatch: model.sigma_vt_mismatch * 2.0,
            ..model
        };
        assert_ne!(GoodSpace::store_key(&h, &wider, &cfg()), base, "sigmas");
    }
}
