//! The campaign context fingerprint: everything a stored measurement or
//! a journaled class outcome depends on *besides* the injected netlist
//! content and the escalation rung (which are in the per-entry key).

use dotm_core::fnv::Fnv128;
use dotm_core::{MacroHarness, MeasureKind, PipelineConfig, SimFailurePolicy};
use dotm_sim::Integration;

/// Bumped whenever any persisted encoding changes shape, or the solver
/// changes the values it persists (4: chord Newton in transient solves;
/// 5: LEB128 stats words and lengths, the good space's Monte-Carlo
/// record, and bias_gen's propagation solves counted in class stats;
/// 6: the static-order sparse LU, the dense-fallback count in
/// `factor_refactor_fallbacks`, and the comparator's bias solves counted
/// in its good-space stats; 7: no warm-start seeding, so every DC solve's
/// stats delta is a cold solve's; 8: the comparator's nominal folded
/// into its good-space record, and the harness's `Debug` rendering in the
/// context; 9: class outcomes hold their current flags once, in the
/// detection set, the retired AC analysis's error tag is gone, and
/// classifier follow-ups are keyed without a class index; 10: a
/// transient steps only to its last read, so every transient's effort
/// words shrink; 11: assembly stamps a baseline matrix and compiled
/// MOSFET kernels, so every solution moves by round-off), so old stores
/// and journals age out as misses instead of decoding wrongly or
/// replaying another solver's numbers.
pub const FORMAT_VERSION: u64 = 11;

/// Computes the context fingerprint of one `(harness, config)` pair.
///
/// Folded in: the store format version; the harness identity (name,
/// instance count, solver options, measurement plan, shared nets,
/// current floors, and its `Debug` rendering, which carries every field
/// such as the transient time step); the defect population inputs (sprinkle size, seed,
/// defect statistics); the process-variation sigmas; the good-space
/// Monte-Carlo sizes and seed; the escalation ladder; and the
/// sim-failure policy.
///
/// Deliberately *excluded*:
///
/// - the executor configuration — thread count must never change a key
///   (the whole point of the determinism contract);
/// - `max_classes` — truncation selects *which* classes run, it never
///   changes any class's evaluation, so smoke runs share entries with
///   full runs (the journal guards its own class count separately);
/// - `warm_start` (pipeline and good space), `measure_cache`,
///   `factor_reuse`, `rank_update`, `tran_step_carry` and
///   `batch_assembly` — inert fields that no longer change any solve, so
///   every setting must share entries.
pub fn pipeline_context(harness: &dyn MacroHarness, cfg: &PipelineConfig) -> u128 {
    let mut h = Fnv128::new();
    h.u64(FORMAT_VERSION);

    // Harness identity. `Debug` covers the harness's own fields (a time
    // step, a circuit variant), exactly for an f64 as with `cfg.stats`.
    h.str(harness.name());
    h.str(&format!("{harness:?}"));
    h.u64(harness.instance_count() as u64);
    let opts = harness.sim_options();
    h.f64(opts.abstol_v)
        .f64(opts.abstol_i)
        .f64(opts.reltol)
        .u64(opts.max_iter as u64)
        .f64(opts.gmin)
        .f64(opts.v_step_limit)
        .u64(match opts.integration {
            Integration::BackwardEuler => 0,
            Integration::Trapezoidal => 1,
        })
        .u64(opts.max_step_halvings as u64);
    let plan = harness.plan();
    h.u64(plan.len() as u64);
    for label in &plan.labels {
        h.u64(match label.kind {
            MeasureKind::Decision => 0,
            MeasureKind::Current(k) => 1 + k as u64,
            MeasureKind::Level => 10,
        });
        h.str(&label.name);
    }
    let shared = harness.shared_nets();
    h.u64(shared.len() as u64);
    for net in shared {
        h.str(net);
    }
    for kind in dotm_core::CurrentKind::ALL {
        h.f64(harness.current_floor(kind));
    }

    // Fault population inputs. `Debug` for f64 prints the shortest
    // round-trip representation, so hashing the Debug string of the
    // statistics struct is exact.
    h.u64(cfg.defects as u64);
    h.u64(cfg.seed);
    h.str(&format!("{:?}", cfg.stats));
    h.bool(cfg.non_catastrophic);

    // Good-space compilation inputs.
    let p = &cfg.process;
    h.f64(p.sigma_vt_common)
        .f64(p.sigma_kp_common)
        .f64(p.sigma_r_common)
        .f64(p.sigma_vdd)
        .f64(p.sigma_vt_mismatch)
        .f64(p.sigma_kp_mismatch)
        .f64(p.sigma_r_mismatch)
        .f64(p.temp_span_c);
    h.u64(cfg.goodspace.common_samples as u64);
    h.u64(cfg.goodspace.mismatch_samples as u64);
    h.u64(cfg.goodspace.seed);

    // Evaluation policy.
    h.u64(cfg.escalation.max_rung as u64);
    h.u64(match cfg.sim_failure_policy {
        SimFailurePolicy::AssumeDetected => 0,
        SimFailurePolicy::AssumeUndetected => 1,
        SimFailurePolicy::Exclude => 2,
    });

    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dotm_core::harnesses::ComparatorHarness;
    use dotm_core::{EscalationLadder, ExecConfig};

    fn base_cfg() -> PipelineConfig {
        PipelineConfig::default()
    }

    #[test]
    fn context_is_deterministic() {
        let h = ComparatorHarness::production();
        assert_eq!(
            pipeline_context(&h, &base_cfg()),
            pipeline_context(&h, &base_cfg())
        );
    }

    #[test]
    fn every_invalidation_input_moves_the_context() {
        let h = ComparatorHarness::production();
        let base = pipeline_context(&h, &base_cfg());

        let mut cfg = base_cfg();
        cfg.seed += 1;
        assert_ne!(pipeline_context(&h, &cfg), base, "sprinkle seed");

        let mut cfg = base_cfg();
        cfg.goodspace.seed ^= 1;
        assert_ne!(pipeline_context(&h, &cfg), base, "Monte-Carlo seed");

        let mut cfg = base_cfg();
        cfg.process.sigma_vt_common *= 2.0;
        assert_ne!(pipeline_context(&h, &cfg), base, "sigma bounds");

        let mut cfg = base_cfg();
        cfg.escalation = EscalationLadder { max_rung: 2 };
        assert_ne!(pipeline_context(&h, &cfg), base, "rung policy");

        let mut cfg = base_cfg();
        cfg.sim_failure_policy = SimFailurePolicy::Exclude;
        assert_ne!(pipeline_context(&h, &cfg), base, "failure policy");

        let mut cfg = base_cfg();
        cfg.defects += 1;
        assert_ne!(pipeline_context(&h, &cfg), base, "sprinkle size");
    }

    #[test]
    fn harness_identity_moves_the_context() {
        let cfg = base_cfg();
        let base = pipeline_context(&ComparatorHarness::production(), &cfg);
        assert_ne!(base, pipeline_context(&ComparatorHarness::dft(), &cfg));
        let coarse = ComparatorHarness {
            dt: 0.5e-9,
            ..ComparatorHarness::production()
        };
        assert_ne!(base, pipeline_context(&coarse, &cfg), "time step");
    }

    #[test]
    fn executor_and_truncation_do_not_move_the_context() {
        let h = ComparatorHarness::production();
        let base = pipeline_context(&h, &base_cfg());

        let mut cfg = base_cfg();
        cfg.exec = ExecConfig { threads: 7 };
        assert_eq!(pipeline_context(&h, &cfg), base, "thread count");

        let mut cfg = base_cfg();
        cfg.max_classes = Some(3);
        assert_eq!(pipeline_context(&h, &cfg), base, "class truncation");

        // Inert fields: they no longer change any solve.
        let mut cfg = base_cfg();
        cfg.rank_update = !cfg.rank_update;
        assert_eq!(pipeline_context(&h, &cfg), base, "rank update");

        let mut cfg = base_cfg();
        cfg.tran_step_carry = !cfg.tran_step_carry;
        assert_eq!(pipeline_context(&h, &cfg), base, "step carry");

        let mut cfg = base_cfg();
        cfg.batch_assembly = !cfg.batch_assembly;
        assert_eq!(pipeline_context(&h, &cfg), base, "batch assembly");

        let mut cfg = base_cfg();
        cfg.factor_reuse = !cfg.factor_reuse;
        assert_eq!(pipeline_context(&h, &cfg), base, "factor reuse");

        let mut cfg = base_cfg();
        cfg.measure_cache = !cfg.measure_cache;
        assert_eq!(pipeline_context(&h, &cfg), base, "measure cache");

        let mut cfg = base_cfg();
        cfg.warm_start = !cfg.warm_start;
        assert_eq!(pipeline_context(&h, &cfg), base, "warm start");

        let mut cfg = base_cfg();
        cfg.goodspace.warm_start = !cfg.goodspace.warm_start;
        assert_eq!(pipeline_context(&h, &cfg), base, "good-space warm start");
    }
}
