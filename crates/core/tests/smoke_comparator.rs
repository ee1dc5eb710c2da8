//! End-to-end smoke test of the comparator test path on a reduced fault
//! population.

use dotm_core::harnesses::ComparatorHarness;
use dotm_core::{
    detectability, run_macro_path, voltage_table, GoodSpaceConfig, PipelineConfig, VoltageSignature,
};
use dotm_faults::Severity;

#[test]
fn comparator_path_produces_plausible_statistics() {
    let harness = ComparatorHarness::production();
    let cfg = PipelineConfig {
        defects: 4_000,
        seed: 42,
        goodspace: GoodSpaceConfig {
            common_samples: 3,
            mismatch_samples: 2,
            seed: 7,
            ..GoodSpaceConfig::default()
        },
        max_classes: Some(40),
        non_catastrophic: true,
        ..PipelineConfig::default()
    };
    let report = run_macro_path(&harness, &cfg).expect("path must run");
    assert!(
        report.total_faults > 20,
        "too few faults: {}",
        report.total_faults
    );
    assert!(
        report.class_count > 10,
        "too few classes: {}",
        report.class_count
    );

    let rows = voltage_table(&report);
    println!(
        "voltage rows: {:?}",
        rows.iter()
            .map(|r| (r.signature.to_string(), r.catastrophic_pct))
            .collect::<Vec<_>>()
    );
    for o in &report.outcomes {
        if o.severity == Severity::Catastrophic {
            println!(
                "  {:>4}x {:<22} v={:?} i=({},{},{}) shared={} fail={} key={}",
                o.count,
                format!("{}", o.mechanism),
                o.voltage,
                o.detection.currents.ivdd as u8,
                o.detection.currents.iddq as u8,
                o.detection.currents.iinput as u8,
                o.shared as u8,
                o.sim_failed as u8,
                &o.key[..o.key.len().min(60)]
            );
        }
    }
    let pct = |sig: VoltageSignature| {
        rows.iter()
            .find(|r| r.signature == sig)
            .unwrap()
            .catastrophic_pct
    };
    // The balanced design with small bias currents makes stuck-at a major
    // category (paper: "many of the faults cause a stuck-at behavior").
    assert!(
        pct(VoltageSignature::OutputStuckAt) > 12.0,
        "stuck-at pct = {}",
        pct(VoltageSignature::OutputStuckAt)
    );

    let d = detectability(&report, Severity::Catastrophic);
    assert!(
        d.coverage_pct > 60.0,
        "coverage {:.1} too low: {d:?}",
        d.coverage_pct
    );
    assert!(
        d.current_pct > 30.0,
        "current detection {:.1} too low",
        d.current_pct
    );
    assert!(d.missing_code_pct > 30.0, "{d:?}");
    println!("smoke detectability: {d:#?}");
    println!(
        "voltage rows: {:?}",
        rows.iter()
            .map(|r| (r.signature.to_string(), r.catastrophic_pct))
            .collect::<Vec<_>>()
    );
    let sim_failures = report.outcomes.iter().filter(|o| o.sim_failed).count();
    println!(
        "classes evaluated: {}, sim failures: {sim_failures}",
        report.outcomes.len()
    );
    assert!(
        (sim_failures as f64) < 0.3 * report.outcomes.len() as f64,
        "too many simulation failures: {sim_failures}/{}",
        report.outcomes.len()
    );
}
