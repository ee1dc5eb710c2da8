//! The paper's §4 proposal quantified: after the DfT measures the
//! voltage-only share shrinks enough that a *current-only* wafer-sort
//! test becomes feasible. This binary evaluates the current-only test set
//! (IVdd + IDDQ + Iinput, no missing-code ramp) on the production and DfT
//! comparators, and converts the coverages into shipped-defective rates
//! via the Williams–Brown model.

use dotm_bench::{comparator_report, rule};
use dotm_core::YieldModel;
use dotm_faults::Severity;

fn main() {
    println!("Wafer-sort study: current-only test set, production vs DfT comparator");
    println!();
    let yield_model = YieldModel::default();
    println!(
        "yield model: {:.2} faults/die clustered α={:.1}  ->  {:.1}% yield",
        yield_model.faults_per_die,
        yield_model.clustering_alpha,
        100.0 * yield_model.yield_fraction()
    );
    println!();
    println!(
        "{:<12} {:>14} {:>14} {:>12} {:>12}",
        "variant", "current-only", "full test", "escapes/cur", "escapes/full"
    );
    rule(70);
    for (label, dft) in [("production", false), ("with DfT", true)] {
        let report = comparator_report(dft);
        let current_cov = report.pct_where(Severity::Catastrophic, |o| o.detection.currents.any());
        let full_cov = report.coverage(Severity::Catastrophic);
        println!(
            "{:<12} {:>13.1}% {:>13.1}% {:>8.0} ppm {:>8.0} ppm",
            label,
            current_cov,
            full_cov,
            yield_model.escapes_ppm(current_cov / 100.0),
            yield_model.escapes_ppm(full_cov / 100.0)
        );
    }
    rule(70);
    println!();
    println!("paper: after DfT only 5.8% of the faults are voltage-only, 'making it");
    println!("feasible to use only current tests in the wafer-sort tests'");
}
