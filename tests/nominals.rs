//! Reads golden: the nominal measurement vector of each of the five
//! macro harnesses at base options, pinned as `f64` bit patterns.
//!
//! Fingerprints hash the solver's effort as well as its results, so a
//! change to how far or how often the simulator steps moves them even
//! when no read moves. This suite pins the reads alone: one golden line
//! per measurement — macro, index, label and the value's bits — so a
//! change that claims to leave every read in place is checked bit for
//! bit.
//!
//! On a mismatch the full rendering is written to
//! `nominals.actual.txt` under Cargo's per-test scratch directory
//! (`CARGO_TARGET_TMPDIR`), ready to diff against
//! `tests/golden/nominals.txt`.

use dotm::core::harnesses::{
    BiasHarness, ClockgenHarness, ComparatorHarness, DecoderHarness, LadderHarness,
};
use dotm::core::MacroHarness;

const GOLDEN: &str = include_str!("golden/nominals.txt");

fn render(harness: &dyn MacroHarness) -> String {
    let values = harness
        .measure(&harness.testbench())
        .expect("the nominal circuit must simulate");
    let plan = harness.plan();
    assert_eq!(values.len(), plan.labels.len(), "{}", harness.name());
    let mut out = String::new();
    for (i, (v, label)) in values.iter().zip(&plan.labels).enumerate() {
        out.push_str(&format!(
            "{}\t{i}\t{}\t{:016x}\n",
            harness.name(),
            label.name,
            v.to_bits()
        ));
    }
    out
}

#[test]
fn nominal_reads_match_the_golden() {
    let harnesses: [&dyn MacroHarness; 5] = [
        &ComparatorHarness::production(),
        &LadderHarness,
        &BiasHarness::default(),
        &ClockgenHarness::default(),
        &DecoderHarness::default(),
    ];
    let actual: String = harnesses.iter().map(|h| render(*h)).collect();
    if actual != GOLDEN {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("nominals.actual.txt");
        let _ = std::fs::write(&dump, &actual);
        let flips: Vec<String> = GOLDEN
            .lines()
            .zip(actual.lines())
            .filter(|(g, a)| g != a)
            .take(10)
            .map(|(g, a)| format!("  golden: {g}\n  actual: {a}"))
            .collect();
        panic!(
            "{} golden vs {} actual reads; first differences:\n{}\nfull run: {}",
            GOLDEN.lines().count(),
            actual.lines().count(),
            flips.join("\n"),
            dump.display()
        );
    }
}
