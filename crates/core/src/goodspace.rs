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
use crate::harness::{with_instrumented_sim, MacroHarness};
use crate::measure::{MeasureKind, MeasurementPlan};
use crate::memo::MemoryStore;
use crate::pipeline::{tagged_key, MeasurementStore};
use crate::processvar::ProcessModel;
use crate::signature::{CurrentFlags, CurrentKind};
use dotm_netlist::Netlist;
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
            match with_instrumented_sim(&nl, &opts, &mut stats, |sim| {
                harness.measure_with(&nl, sim)
            }) {
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

/// Runs the s·m Monte-Carlo corners on `exec` and estimates σ_common
/// and σ_mismatch at the `currents` indices. Returns the σ pairs, the
/// corners' solver telemetry and the redrawn-corner count.
fn compile_corners(
    harness: &dyn MacroHarness,
    model: &ProcessModel,
    cfg: &GoodSpaceConfig,
    exec: &ExecConfig,
    currents: &[(usize, CurrentKind)],
) -> Result<(Vec<f64>, SimStats, u64), SimError> {
    let s = cfg.common_samples.max(1);
    let m = cfg.mismatch_samples.max(1);
    // samples[s][m][i]. Each common sample draws from its own
    // `(seed, index)` substream, so the compilation parallelises over
    // the common axis with thread-count-invariant results. A perturbed
    // sample at an extreme corner can leave the simulator's
    // convergence envelope; the good space is a statistical estimate,
    // so such a sample is redrawn from its own stream (bounded
    // retries) rather than failing the whole compilation.
    let per_sample: Vec<(Vec<Vec<f64>>, SimStats, u64)> = exec::par_map_indices(exec, s, |si| {
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
    for &(i, _) in currents {
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
    Ok((sigma_common, stats, corner_retries))
}

/// The current measurements of `plan`, as `(index, kind)` in plan order.
fn current_measurements(plan: &MeasurementPlan) -> Vec<(usize, CurrentKind)> {
    plan.labels
        .iter()
        .enumerate()
        .filter_map(|(i, l)| match l.kind {
            MeasureKind::Current(kind) => Some((i, kind)),
            _ => None,
        })
        .collect()
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
    /// The current measurements of the harness's plan, as
    /// `(index, kind)` in plan order.
    currents: Vec<(usize, CurrentKind)>,
}

/// The stored outcome of a compilation: everything the good space takes
/// from its Monte-Carlo corners, plus the nominal for a harness that
/// [stores it](MacroHarness::stores_nominal). Persisted as the values of
/// one [`CachedMeasurement`](crate::CachedMeasurement) —
/// `[corner_retries, σ_common…, σ_mismatch…, nominal…]` with σ at the
/// current-measurement indices only and the nominal present only for
/// such a harness — whose stats delta is the solver telemetry of
/// everything the record holds: the nominal's, then the corners'.
struct GoodRecord {
    corner_retries: u64,
    /// σ_common then σ_mismatch, each over the current indices in plan
    /// order.
    sigmas: Vec<f64>,
    /// The nominal measurement; empty when the harness does not store it.
    nominal: Vec<f64>,
}

impl GoodRecord {
    fn encode(&self) -> Vec<f64> {
        let mut values = Vec::with_capacity(1 + self.sigmas.len() + self.nominal.len());
        values.push(self.corner_retries as f64);
        values.extend_from_slice(&self.sigmas);
        values.extend_from_slice(&self.nominal);
        values
    }

    /// `None` (a miss: recompile) unless `values` holds an integral retry
    /// count, one σ pair per current measurement and exactly
    /// `nominal_len` nominal values.
    fn decode(values: &[f64], currents: usize, nominal_len: usize) -> Option<GoodRecord> {
        let (&retries, rest) = values.split_first()?;
        let exact = retries >= 0.0 && retries.fract() == 0.0 && retries < 2f64.powi(53);
        (exact && rest.len() == 2 * currents + nominal_len).then(|| {
            let (sigmas, nominal) = rest.split_at(2 * currents);
            GoodRecord {
                corner_retries: retries as u64,
                sigmas: sigmas.to_vec(),
                nominal: nominal.to_vec(),
            }
        })
    }
}

impl GoodSpace {
    /// Compiles the good space for a harness, its Monte Carlo on the
    /// default executor.
    ///
    /// # Errors
    /// Propagates simulator failures (a fault-free circuit failing to
    /// converge is a configuration error worth surfacing).
    pub fn compile(
        harness: &dyn MacroHarness,
        model: &ProcessModel,
        cfg: GoodSpaceConfig,
    ) -> Result<GoodSpace, SimError> {
        Self::compile_in(
            harness,
            model,
            cfg,
            &ExecConfig::default(),
            &MemoryStore::new(),
        )
    }

    /// The store key of the record [`GoodSpace::compile`] keeps for
    /// `(harness, model, cfg)`: the testbench content, the Monte-Carlo
    /// sizes and seed, and the process sigmas. The inert fields are left
    /// out; they never change the result.
    pub fn store_key(
        harness: &dyn MacroHarness,
        model: &ProcessModel,
        cfg: &GoodSpaceConfig,
    ) -> u128 {
        Self::key_of(&harness.testbench(), model, cfg)
    }

    /// [`GoodSpace::store_key`] over an already built testbench.
    fn key_of(testbench: &Netlist, model: &ProcessModel, cfg: &GoodSpaceConfig) -> u128 {
        let digest = testbench.content_digest();
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

    /// [`GoodSpace::compile`] against a measurement store: the record
    /// under [`GoodSpace::store_key`] is replayed when `store` holds a
    /// well-formed one, and computed and stored otherwise. For a harness
    /// that [stores its nominal](MacroHarness::stores_nominal) a replay
    /// simulates nothing; for any other the nominal measurement always
    /// runs. Either way a replay returns the same bits as a compile. The
    /// common samples run in parallel on `exec`; the result does not
    /// depend on it, because each draws from its own `(seed, index)`
    /// substream.
    pub(crate) fn compile_in(
        harness: &dyn MacroHarness,
        model: &ProcessModel,
        cfg: GoodSpaceConfig,
        exec: &ExecConfig,
        store: &dyn MeasurementStore,
    ) -> Result<GoodSpace, SimError> {
        let testbench = harness.testbench();
        let plan = harness.plan();
        let currents = current_measurements(&plan);
        let stores_nominal = harness.stores_nominal();
        let nominal_len = if stores_nominal { plan.len() } else { 0 };
        let measure_nominal = |stats: &mut SimStats| {
            with_instrumented_sim(&testbench, &harness.sim_options(), stats, |sim| {
                harness.measure_with(&testbench, sim)
            })
        };
        // A stored nominal is loaded before anything solves; an unstored
        // one is measured before the load.
        let mut solver = SimStats::default();
        let unstored = if stores_nominal {
            None
        } else {
            Some(measure_nominal(&mut solver)?)
        };
        let key = Self::key_of(&testbench, model, &cfg);
        let replay = store.load(key).and_then(|(result, delta)| {
            let record = GoodRecord::decode(&result.ok()?, currents.len(), nominal_len)?;
            Some((record, delta))
        });
        let (record, delta) = match replay {
            Some(hit) => {
                dotm_obs::counter("replay.store_hits", 1);
                hit
            }
            None => {
                // The record's delta is the nominal's telemetry (when it
                // is stored) followed by the corners'.
                let mut delta = SimStats::default();
                let stored_nominal = if stores_nominal {
                    measure_nominal(&mut delta)?
                } else {
                    Vec::new()
                };
                let (sigmas, corners, corner_retries) =
                    compile_corners(harness, model, &cfg, exec, &currents)?;
                delta.merge(&corners);
                let record = GoodRecord {
                    corner_retries,
                    sigmas,
                    nominal: stored_nominal,
                };
                store.store(key, &(Ok(record.encode()), delta));
                (record, delta)
            }
        };
        solver.merge(&delta);
        let nominal = unstored.unwrap_or(record.nominal);
        let n = nominal.len();
        let mut sigma_common = vec![0.0; n];
        let mut sigma_mismatch = vec![0.0; n];
        let (common, mismatch) = record.sigmas.split_at(currents.len());
        for (k, &(i, _)) in currents.iter().enumerate() {
            sigma_common[i] = common[k];
            sigma_mismatch[i] = mismatch[k];
        }
        Ok(GoodSpace {
            nominal,
            sigma_common,
            sigma_mismatch,
            solver,
            corner_retries: record.corner_retries,
            currents,
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

    /// Evaluates the current flags of a faulty measurement vector, and
    /// the indices of the current measurements whose deviation exceeds
    /// the detection threshold — the raw material for test-set
    /// compaction. A kind is flagged exactly when one of its
    /// measurements is.
    ///
    /// `shared` scales the fault's *supply-current* deviation by the
    /// instance count: a fault on a shared trunk shifts the operating
    /// point of every instance, and all instances hang on the same supply
    /// pins. Input-terminal deviations are never scaled — the fault's
    /// bridge current flows once per chip, and the instances' own input
    /// currents are gate currents (≈ 0) before and after.
    pub fn current_detections(
        &self,
        harness: &dyn MacroHarness,
        faulty: &[f64],
        shared: bool,
    ) -> (CurrentFlags, Vec<usize>) {
        let n_inst = harness.instance_count();
        let mut flags = CurrentFlags::default();
        let mut flagged = Vec::new();
        for &(i, kind) in &self.currents {
            let mult = if shared && kind != CurrentKind::Iinput {
                n_inst as f64
            } else {
                1.0
            };
            let deviation = (faulty[i] - self.nominal[i]).abs() * mult;
            let threshold = self.threshold(i, n_inst).max(harness.current_floor(kind));
            if deviation > threshold {
                flags.set(kind, true);
                flagged.push(i);
            }
        }
        (flags, flagged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harnesses::{BiasHarness, ComparatorHarness};
    use crate::memo::CachedMeasurement;
    use crate::processvar::CommonSample;
    use crate::signature::VoltageSignature;
    use dotm_layout::Layout;
    use dotm_sim::Simulator;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn cfg() -> GoodSpaceConfig {
        GoodSpaceConfig {
            common_samples: 2,
            mismatch_samples: 2,
            seed: 11,
            ..GoodSpaceConfig::default()
        }
    }

    /// [`GoodSpace::compile_in`] at [`cfg`] on the default executor.
    fn compile_in(h: &dyn MacroHarness, store: &dyn MeasurementStore) -> GoodSpace {
        let model = ProcessModel::default();
        GoodSpace::compile_in(h, &model, cfg(), &ExecConfig::default(), store).expect("compiles")
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

    /// The bias generator (a cheap DC measurement) with a chosen
    /// [`MacroHarness::stores_nominal`], counting its measurements.
    #[derive(Debug)]
    struct Counting {
        inner: BiasHarness,
        stores_nominal: bool,
        measures: AtomicUsize,
    }

    impl Counting {
        fn new(stores_nominal: bool) -> Self {
            Counting {
                inner: BiasHarness::default(),
                stores_nominal,
                measures: AtomicUsize::new(0),
            }
        }

        fn take_measures(&self) -> usize {
            self.measures.swap(0, Ordering::Relaxed)
        }
    }

    impl MacroHarness for Counting {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn layout(&self) -> Layout {
            self.inner.layout()
        }

        fn instance_count(&self) -> usize {
            self.inner.instance_count()
        }

        fn testbench(&self) -> Netlist {
            self.inner.testbench()
        }

        fn plan(&self) -> MeasurementPlan {
            self.inner.plan()
        }

        fn stores_nominal(&self) -> bool {
            self.stores_nominal
        }

        fn measure_with(
            &self,
            nl: &Netlist,
            sim: &mut Simulator<'_>,
        ) -> Result<Vec<f64>, SimError> {
            self.measures.fetch_add(1, Ordering::Relaxed);
            self.inner.measure_with(nl, sim)
        }

        fn perturb(
            &self,
            nl: &mut Netlist,
            model: &ProcessModel,
            common: &CommonSample,
            rng: &mut StdRng,
            stats: &mut SimStats,
        ) {
            self.inner.perturb(nl, model, common, rng, stats);
        }

        fn classify_voltage(&self, nominal: &[f64], faulty: &[f64]) -> VoltageSignature {
            self.inner.classify_voltage(nominal, faulty)
        }

        fn shared_nets(&self) -> Vec<&'static str> {
            self.inner.shared_nets()
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
        let compiled = compile_in(&h, &memo);
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
        let replayed = compile_in(&h, &replay);
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
            let recompiled = compile_in(&h, &store);
            assert_eq!(store.stores.load(Ordering::Relaxed), 1, "{why}: recomputed");
            assert_same_bits(&compiled, &recompiled);
        }
    }

    #[test]
    fn the_record_key_tracks_its_inputs_but_not_the_inert_fields() {
        let h = BiasHarness::default();
        let model = ProcessModel::default();
        let base = GoodSpace::store_key(&h, &model, &cfg());
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

    #[test]
    fn a_stored_nominal_replays_without_measuring() {
        let h = Counting::new(true);
        let memo = MemoryStore::new();
        let compiled = compile_in(&h, &memo);
        // The nominal plus the s·m corners, no redraws on this harness.
        assert_eq!(h.take_measures(), 1 + 2 * 2, "cold");
        let replayed = compile_in(&h, &memo);
        assert_eq!(h.take_measures(), 0, "a replay measures nothing");
        assert_same_bits(&compiled, &replayed);
        // Storing the nominal changes no bit of the good space, and a
        // harness that does not store it measures only its nominal.
        let unstored = Counting::new(false);
        let memo = MemoryStore::new();
        let plain = compile_in(&unstored, &memo);
        assert_same_bits(&compiled, &plain);
        unstored.take_measures();
        let replayed = compile_in(&unstored, &memo);
        assert_eq!(unstored.take_measures(), 1, "only the nominal");
        assert_same_bits(&plain, &replayed);
    }

    #[test]
    fn a_record_of_the_other_shape_reads_as_a_miss() {
        let model = ProcessModel::default();
        for (writer, reader, why) in [
            (false, true, "no nominal, for a harness that stores it"),
            (true, false, "a nominal, for a harness that does not"),
        ] {
            let writer = Counting::new(writer);
            let memo = MemoryStore::new();
            compile_in(&writer, &memo);
            let key = GoodSpace::store_key(&writer, &model, &cfg());
            let store = Fixed {
                record: Some(memo.load(key).expect("stored")),
                stores: AtomicUsize::new(0),
            };
            let reader = Counting::new(reader);
            let reread = compile_in(&reader, &store);
            assert_eq!(store.stores.load(Ordering::Relaxed), 1, "{why}: recomputed");
            assert_eq!(reader.take_measures(), 1 + 2 * 2, "{why}: measured");
            let fresh = GoodSpace::compile(&reader, &model, cfg()).expect("compiles");
            assert_same_bits(&fresh, &reread);
        }
    }

    #[test]
    fn detections_flag_the_kinds_of_the_flagged_indices() {
        // A zero-σ good space over the comparator's plan: thresholds are
        // the current floors, and nothing is simulated.
        let h = ComparatorHarness::production();
        let plan = h.plan();
        let n = plan.len();
        let good = GoodSpace {
            nominal: vec![0.0; n],
            sigma_common: vec![0.0; n],
            sigma_mismatch: vec![0.0; n],
            solver: SimStats::default(),
            corner_retries: 0,
            currents: current_measurements(&plan),
        };
        assert_eq!(
            good.current_detections(&h, &good.nominal, false),
            (CurrentFlags::default(), Vec::new())
        );
        let iddq = plan.current_indices(CurrentKind::Iddq);
        let mut faulty = vec![0.0; n];
        for &i in &iddq {
            faulty[i] = 1.0;
        }
        let mut only_iddq = CurrentFlags::default();
        only_iddq.set(CurrentKind::Iddq, true);
        assert_eq!(
            good.current_detections(&h, &faulty, false),
            (only_iddq, iddq.clone())
        );
        // 1 µA is under every floor alone, but not 256 instances' worth
        // on a shared net — except at the input terminals.
        let iinput = plan.current_indices(CurrentKind::Iinput);
        for &i in iddq.iter().chain(&iinput) {
            faulty[i] = 1e-6;
        }
        assert_eq!(
            good.current_detections(&h, &faulty, false),
            (CurrentFlags::default(), Vec::new())
        );
        assert_eq!(
            good.current_detections(&h, &faulty, true),
            (only_iddq, iddq)
        );
    }
}
