//! Regenerates **Fig. 3**: detectability of catastrophic comparator
//! faults across the four detection mechanisms (missing codes, IVdd,
//! IDDQ, Iinput), as the overlap regions of the figure's shaded bar.
//!
//! Paper anchors: missing-code 66.2 %; 26.6 % current-only; 10.0 %
//! IDDQ-only; 14.5 % detected by both missing codes and IVdd.

use dotm_bench::{comparator_report, rule};
use dotm_core::{detectability, internal_fault_pct};
use dotm_faults::Severity;
use std::collections::BTreeMap;

fn main() {
    let report = comparator_report(false);
    let severity = Severity::Catastrophic;

    // Full 16-region breakdown (mc, ivdd, iddq, iinput).
    let mut regions: BTreeMap<(bool, bool, bool, bool), f64> = BTreeMap::new();
    let total = report.weight_of(severity);
    for o in report.outcomes_of(severity) {
        let key = (
            o.detection.missing_code,
            o.detection.currents.ivdd,
            o.detection.currents.iddq,
            o.detection.currents.iinput,
        );
        *regions.entry(key).or_insert(0.0) += 100.0 * o.count as f64 / total;
    }

    println!();
    println!("Fig 3: Detectability of catastrophic faults for comparator");
    println!();
    println!(
        "{:<14} {:>6} {:>6} {:>8} {:>8}",
        "% of faults", "codes", "IVdd", "IDDQ", "Iinput"
    );
    rule(48);
    for ((mc, ivdd, iddq, iin), pct) in regions.iter().rev() {
        if *pct < 0.005 {
            continue;
        }
        let mark = |b: bool| if b { "  x" } else { "  ." };
        println!(
            "{:>12.1}% {:>6} {:>6} {:>8} {:>8}",
            pct,
            mark(*mc),
            mark(*ivdd),
            mark(*iddq),
            mark(*iin)
        );
    }
    rule(48);

    let d = detectability(&report, severity);
    println!();
    println!(
        "missing-code detectable: {:>5.1}%   (paper: 66.2%)",
        d.missing_code_pct
    );
    println!(
        "current-only detectable: {:>5.1}%   (paper: 26.6%)",
        d.current_only_pct
    );
    println!(
        "IDDQ-only detectable:    {:>5.1}%   (paper: 10.0%)",
        d.iddq_only_pct
    );
    println!(
        "missing-code AND IVdd:   {:>5.1}%   (paper: 14.5%)",
        d.missing_code_and_ivdd_pct
    );
    println!("total coverage:          {:>5.1}%", d.coverage_pct);
    println!(
        "faults internal to macro: {:>4.1}%   (paper: 27.8%)",
        internal_fault_pct(&report, severity)
    );
}
