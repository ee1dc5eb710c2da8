//! Regenerates **Table 1**: catastrophic faults and fault classes for the
//! comparator macro, by fault mechanism.
//!
//! Procedure (exactly the paper's §3.2): sprinkle a 25,000-defect pilot on
//! the comparator layout and collapse into classes; then repeat the
//! sprinkling with 10,000,000 defects to give the class magnitudes
//! statistical significance.
//!
//! Paper anchors: 334 fault classes; 226,596 faults in the full run;
//! shorts > 95 % of faults; opens 0.03 % of faults but 5.1 % of classes.

use dotm_bench::rule;
use dotm_core::env::{campaign_config, usize_knob};
use dotm_core::harnesses::ComparatorHarness;
use dotm_core::MacroHarness;
use dotm_defects::{recount, sprinkle_collapsed, DefectStatistics, FaultMechanism, Sprinkler};

fn main() {
    let cfg = campaign_config();
    let (pilot, seed) = (cfg.defects, cfg.seed);
    let full = usize_knob("DOTM_TABLE1_FULL", 10_000_000);

    let harness = ComparatorHarness::production();
    let layout = harness.layout();
    let sprinkler = Sprinkler::new(&layout, DefectStatistics::default());

    eprintln!("[table1] pilot sprinkle: {pilot} defects ...");
    let t0 = std::time::Instant::now();
    let mut report = sprinkle_collapsed(&sprinkler, pilot, seed);
    let pilot_faults = report.total_faults;
    let pilot_classes = report.class_count();
    eprintln!(
        "[table1] pilot: {pilot_faults} catastrophic faults -> {pilot_classes} classes ({:.1}s)",
        t0.elapsed().as_secs_f64()
    );

    eprintln!("[table1] full sprinkle: {full} defects (recount of the pilot classes) ...");
    let t1 = std::time::Instant::now();
    let unmatched = recount(&sprinkler, &mut report, full, seed ^ 0xF0F0);
    eprintln!(
        "[table1] full: {} faults in the {pilot_classes} classes, {unmatched} outside ({:.1}s)",
        report.total_faults,
        t1.elapsed().as_secs_f64()
    );

    println!();
    println!("Table 1: Catastrophic faults and fault classes for comparator");
    println!("  (pilot: {pilot} defects -> {pilot_faults} faults, {pilot_classes} classes;");
    println!(
        "   full:  {full} defects -> {} faults in those classes)",
        report.total_faults
    );
    println!();
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9}",
        "fault type", "faults", "% faults", "classes", "% classes"
    );
    rule(64);
    for mech in FaultMechanism::ALL {
        println!(
            "{:<22} {:>9} {:>8.2}% {:>9} {:>8.1}%",
            mech.to_string(),
            report.faults_of(mech),
            report.fault_pct(mech),
            report.classes_of(mech),
            report.class_pct(mech)
        );
    }
    rule(64);
    println!(
        "{:<22} {:>9} {:>9} {:>9}",
        "total",
        report.total_faults,
        "",
        report.class_count()
    );
    println!();
    let shorts =
        report.fault_pct(FaultMechanism::Short) + report.fault_pct(FaultMechanism::ExtraContact);
    println!("shorts (incl. extra contacts): {shorts:.1}% of faults (paper: > 95%)");
    println!(
        "opens: {:.3}% of faults, {:.1}% of classes (paper: 0.03% / 5.1%)",
        report.fault_pct(FaultMechanism::Open),
        report.class_pct(FaultMechanism::Open)
    );

    // The macro-internal share (paper: 27.8 % influence only this macro).
    let shared: std::collections::HashSet<&str> = harness.shared_nets().into_iter().collect();
    let nl = harness.testbench();
    let mut internal = 0usize;
    for class in &report.classes {
        let touches_shared = class
            .representative
            .touched_nets()
            .iter()
            .any(|n| shared.contains(n));
        // Device-internal faults (gate oxide etc.) report no nets: check
        // their terminals against the netlist.
        let touches_shared = touches_shared
            || match &class.representative.effect {
                dotm_defects::FaultEffect::GateOxide { device }
                | dotm_defects::FaultEffect::DeviceShort { device } => nl
                    .device(device)
                    .map(|d| {
                        d.terminals()
                            .iter()
                            .any(|t| shared.contains(nl.node_name(*t)))
                    })
                    .unwrap_or(false),
                _ => false,
            };
        if !touches_shared {
            internal += class.count;
        }
    }
    println!(
        "faults influencing only this macro: {:.1}% (paper: 27.8%)",
        100.0 * internal as f64 / report.total_faults.max(1) as f64
    );
}
