//! Diagnostic: lists every fault class of the comparator path with its
//! signature and detections, then the undetected classes — the input to
//! the paper's DfT analysis ("the methodology used makes it easy to
//! investigate the reasons for the undetectability of faults").

use dotm_bench::{comparator_report, print_macro_accounting, run_with_progress};
use dotm_core::harnesses::{BiasHarness, ClockgenHarness, DecoderHarness, LadderHarness};
use dotm_faults::Severity;

fn main() {
    let dft = dotm_core::env::bool_knob("DOTM_DFT", false);
    let which = std::env::var("DOTM_MACRO").unwrap_or_else(|_| "comparator".into());
    let report = match which.as_str() {
        "ladder" => run_with_progress(&LadderHarness),
        "bias" => run_with_progress(&BiasHarness::default()),
        "clockgen" => run_with_progress(&ClockgenHarness::default()),
        "decoder" => run_with_progress(&DecoderHarness::default()),
        _ => comparator_report(dft),
    };
    for severity in [Severity::Catastrophic, Severity::NonCatastrophic] {
        println!();
        println!("=== {severity:?} ===");
        let total = report.weight_of(severity);
        let mut undetected = 0.0;
        for o in report.outcomes_of(severity) {
            let mark = if o.detection.detected() { " " } else { "!" };
            println!(
                "{mark} {:>5}x {:<20} v={:<13} mc={} i=({},{},{}) sh={} {}",
                o.count,
                o.mechanism.to_string(),
                format!("{:?}", o.voltage),
                o.detection.missing_code as u8,
                o.detection.currents.ivdd as u8,
                o.detection.currents.iddq as u8,
                o.detection.currents.iinput as u8,
                o.shared as u8,
                &o.key[..o.key.len().min(70)]
            );
            if !o.detection.detected() {
                undetected += o.count as f64;
            }
        }
        println!(
            "undetected: {:.1}% of {total} weighted faults",
            100.0 * undetected / total.max(1.0)
        );
    }
    print_macro_accounting(&report);
}
