//! Cross-harness invariants: every macro harness must produce measurement
//! vectors that match its declared plan, measure deterministically, and
//! keep its layout consistent with its testbench.

use dotm_core::harnesses::{
    BiasHarness, ClockgenHarness, ComparatorHarness, DecoderHarness, LadderHarness,
};
use dotm_core::{GoodSpace, GoodSpaceConfig, MacroHarness, MeasureKind, ProcessModel};

fn harnesses() -> Vec<Box<dyn MacroHarness>> {
    vec![
        Box::new(LadderHarness),
        Box::new(BiasHarness::default()),
        Box::new(ClockgenHarness::default()),
        Box::new(DecoderHarness::default()),
        Box::new(ComparatorHarness::production()),
        Box::new(ComparatorHarness::dft()),
    ]
}

#[test]
fn measurement_vectors_match_plans() {
    for h in harnesses() {
        let plan = h.plan();
        assert!(!plan.is_empty(), "{}: empty plan", h.name());
        let meas = h.measure(&h.testbench()).expect("fault-free measure");
        assert_eq!(
            meas.len(),
            plan.len(),
            "{}: measurement length {} != plan length {}",
            h.name(),
            meas.len(),
            plan.len()
        );
        for (i, v) in meas.iter().enumerate() {
            assert!(
                v.is_finite(),
                "{}: measurement {} ({}) not finite",
                h.name(),
                i,
                plan.labels[i].name
            );
        }
    }
}

#[test]
fn measurements_are_deterministic() {
    for h in harnesses() {
        let nl = h.testbench();
        let a = h.measure(&nl).unwrap();
        let b = h.measure(&nl).unwrap();
        assert_eq!(a, b, "{}: nondeterministic measurement", h.name());
    }
}

#[test]
fn fault_free_circuit_classifies_as_no_deviation() {
    use dotm_core::VoltageSignature;
    for h in harnesses() {
        let meas = h.measure(&h.testbench()).unwrap();
        let sig = h.classify_voltage(&meas, &meas);
        assert_eq!(
            sig,
            VoltageSignature::NoDeviation,
            "{}: fault-free circuit classified {:?}",
            h.name(),
            sig
        );
    }
}

#[test]
fn every_plan_has_current_measurements() {
    use dotm_core::CurrentKind;
    for h in harnesses() {
        let plan = h.plan();
        let any_current = CurrentKind::ALL
            .iter()
            .any(|&k| !plan.current_indices(k).is_empty());
        assert!(any_current, "{}: no current measurements", h.name());
    }
}

#[test]
fn layout_nets_resolve_in_testbench() {
    for h in harnesses() {
        let lo = h.layout();
        let nl = h.testbench();
        for (_, name) in lo.nets() {
            assert!(
                nl.find_node(name).is_some(),
                "{}: layout net `{name}` missing from testbench",
                h.name()
            );
        }
        // Every pinned device exists in the testbench.
        for pin in lo.pins() {
            assert!(
                nl.device(&pin.device).is_some(),
                "{}: pinned device `{}` missing from testbench",
                h.name(),
                pin.device
            );
        }
    }
}

#[test]
fn shared_nets_exist() {
    for h in harnesses() {
        let nl = h.testbench();
        for net in h.shared_nets() {
            assert!(
                nl.find_node(net).is_some(),
                "{}: shared net `{net}` missing",
                h.name()
            );
        }
    }
}

#[test]
fn fast_goodspace_compiles_for_dc_harnesses() {
    // The DC/short-transient harnesses compile a good space quickly; the
    // comparator's is covered by the (slower) smoke test.
    let cfg = GoodSpaceConfig {
        common_samples: 2,
        mismatch_samples: 2,
        seed: 3,
        ..GoodSpaceConfig::default()
    };
    let model = ProcessModel::default();
    for h in [
        Box::new(LadderHarness) as Box<dyn MacroHarness>,
        Box::new(BiasHarness::default()),
        Box::new(ClockgenHarness::default()),
        Box::new(DecoderHarness::default()),
    ] {
        let gs = GoodSpace::compile(h.as_ref(), &model, cfg).expect("good space");
        assert_eq!(gs.nominal.len(), h.plan().len());
        // Spread estimates must be finite and non-negative.
        for i in 0..gs.nominal.len() {
            assert!(gs.sigma_common[i].is_finite() && gs.sigma_common[i] >= 0.0);
            assert!(gs.sigma_mismatch[i].is_finite() && gs.sigma_mismatch[i] >= 0.0);
            assert!(gs.threshold(i, h.instance_count()) >= 0.0);
        }
        // The fault-free measurement sits inside its own good space.
        let (flags, _) = gs.current_detections(h.as_ref(), &gs.nominal, false);
        assert!(
            !flags.any(),
            "{}: fault-free circuit flagged {flags:?}",
            h.name()
        );
    }
}

#[test]
fn current_kind_partition_is_exhaustive() {
    use dotm_core::{CurrentKind, MeasureKind as MK};
    for h in harnesses() {
        let plan = h.plan();
        let currents: usize = CurrentKind::ALL
            .iter()
            .map(|&k| plan.current_indices(k).len())
            .sum();
        let counted = plan
            .labels
            .iter()
            .filter(|l| matches!(l.kind, MK::Current(_)))
            .count();
        assert_eq!(currents, counted, "{}", h.name());
        let _ = MeasureKind::Decision; // keep the import honest
    }
}
