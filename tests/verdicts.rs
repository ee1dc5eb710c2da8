//! Verdict golden: every class verdict of all five macros at seed 1995,
//! pinned line by line.
//!
//! Solver changes that only move round-off (a different factorisation
//! schedule, a different step sequence) may change fingerprints but must
//! never change what the methodology reports. This suite is that gate:
//! one golden line per class — macro, class key, voltage signature,
//! current set and combined detection — and any flip fails it, as does
//! any class whose simulation or injection failed.
//!
//! On a mismatch the full rendering of the current run is written to
//! `verdicts_<macro>.actual.txt` under Cargo's per-test scratch directory
//! (`CARGO_TARGET_TMPDIR`), ready to diff against `tests/golden/verdicts.txt`.
//!
//! The full-size goldens (`tests/golden/verdicts_fig4.txt` and
//! `verdicts_fig5.txt`) pin every class of the default-knob `fig4` and
//! `fig5` populations the same way. That run takes about a minute on two
//! threads, so it is `#[ignore]`d here and run by `scripts/verify.sh`:
//! `cargo test --release --test verdicts -- --ignored`.

use dotm::core::harnesses::{
    BiasHarness, ClockgenHarness, ComparatorHarness, DecoderHarness, LadderHarness,
};
use dotm::core::CurrentFlags;
use dotm::core::{run_macro_path, GoodSpaceConfig, MacroHarness, PipelineConfig};
use dotm::faults::Severity;

const GOLDEN: &str = include_str!("golden/verdicts.txt");
const GOLDEN_FIG4: &str = include_str!("golden/verdicts_fig4.txt");
const GOLDEN_FIG5: &str = include_str!("golden/verdicts_fig5.txt");

/// The fig4 smoke good space (3 common × 2 mismatch samples) over the
/// full 25 000-defect population; `max_classes` trims the two macros
/// whose classes cost the most to simulate.
fn config(max_classes: Option<usize>) -> PipelineConfig {
    PipelineConfig {
        defects: 25_000,
        seed: 1995,
        goodspace: GoodSpaceConfig {
            common_samples: 3,
            mismatch_samples: 2,
            seed: 1995 ^ 0xD07,
            ..GoodSpaceConfig::default()
        },
        max_classes,
        ..PipelineConfig::default()
    }
}

fn currents(c: CurrentFlags) -> String {
    let mut set = Vec::new();
    if c.ivdd {
        set.push("IVdd");
    }
    if c.iddq {
        set.push("IDDQ");
    }
    if c.iinput {
        set.push("Iinput");
    }
    if set.is_empty() {
        "-".to_string()
    } else {
        set.join("+")
    }
}

/// One tab-separated line per class and fault model, in report order:
/// macro, `key/severity`, voltage signature, current set, detection.
fn render(harness: &dyn MacroHarness, cfg: &PipelineConfig) -> String {
    let report = run_macro_path(harness, cfg).expect("macro path must run");
    let mut out = String::new();
    for c in &report.outcomes {
        assert!(
            !c.sim_failed,
            "{}: class {} failed to simulate",
            report.name, c.key
        );
        assert!(
            !c.inject_failed,
            "{}: class {} failed to inject",
            report.name, c.key
        );
        let severity = match c.severity {
            Severity::Catastrophic => "cat",
            Severity::NonCatastrophic => "noncat",
        };
        let detection = match (c.detection.missing_code, c.detection.currents.any()) {
            (true, true) => format!("MC+{}", currents(c.detection.currents)),
            (true, false) => "MC".to_string(),
            (false, _) => currents(c.detection.currents),
        };
        out.push_str(&format!(
            "{}\t{}/{severity}\t{}\t{}\t{detection}\n",
            report.name,
            c.key,
            c.voltage,
            currents(c.detection.currents),
        ));
    }
    out
}

fn check(harness: &dyn MacroHarness, max_classes: Option<usize>, min_classes: usize) {
    let name = harness.name();
    let actual = render(harness, &config(max_classes));
    let prefix = format!("{name}\t");
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| l.starts_with(&prefix)).collect();
    compare(name, &golden, &actual, min_classes);
}

/// Fails with the first differing lines, after writing `actual` to
/// `verdicts_<label>.actual.txt`, unless it equals `golden` line by line.
fn compare(label: &str, golden: &[&str], actual: &str, min_classes: usize) {
    let got: Vec<&str> = actual.lines().collect();
    if got != golden {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("verdicts_{label}.actual.txt"));
        let _ = std::fs::write(&dump, actual);
        let flips: Vec<String> = golden
            .iter()
            .zip(&got)
            .filter(|(g, a)| g != a)
            .take(10)
            .map(|(g, a)| format!("  golden: {g}\n  actual: {a}"))
            .collect();
        panic!(
            "{label}: {} golden vs {} actual classes; first differences:\n{}\nfull run: {}",
            golden.len(),
            got.len(),
            flips.join("\n"),
            dump.display()
        );
    }
    assert!(
        golden.len() >= min_classes,
        "{label}: golden holds {} classes, expected at least {min_classes}",
        golden.len()
    );
}

#[test]
fn comparator_verdicts_match_the_golden() {
    check(&ComparatorHarness::production(), Some(12), 24);
}

#[test]
fn ladder_verdicts_match_the_golden() {
    check(&LadderHarness, None, 900);
}

#[test]
fn bias_gen_verdicts_match_the_golden() {
    check(&BiasHarness::default(), Some(30), 50);
}

#[test]
fn clock_gen_verdicts_match_the_golden() {
    check(&ClockgenHarness::default(), None, 250);
}

#[test]
fn decoder_slice_verdicts_match_the_golden() {
    check(&DecoderHarness::default(), None, 300);
}

/// The full default-knob `fig4` and `fig5` populations (25 000 defects,
/// 5 × 4 good space, every class), as the paper binaries run them with
/// no knob set. Only the comparator differs between the two figures (the
/// DfT one in fig5), so the other four macros are run once and rendered
/// into both.
#[test]
#[ignore = "full-size run, about a minute on two threads; scripts/verify.sh runs it"]
fn full_fig4_and_fig5_verdicts_match_the_goldens() {
    let cfg = PipelineConfig {
        goodspace: GoodSpaceConfig {
            seed: 1995 ^ 0xD07,
            ..GoodSpaceConfig::default()
        },
        ..PipelineConfig::default()
    };
    let rest: Vec<Box<dyn MacroHarness>> = vec![
        Box::new(LadderHarness),
        Box::new(BiasHarness::default()),
        Box::new(ClockgenHarness::default()),
        Box::new(DecoderHarness::default()),
    ];
    let rest: String = rest.iter().map(|h| render(h.as_ref(), &cfg)).collect();
    for (label, comparator, golden, min_classes) in [
        ("fig4", ComparatorHarness::production(), GOLDEN_FIG4, 1935),
        ("fig5", ComparatorHarness::dft(), GOLDEN_FIG5, 1944),
    ] {
        let actual = render(&comparator, &cfg) + &rest;
        let golden: Vec<&str> = golden.lines().collect();
        compare(label, &golden, &actual, min_classes);
    }
}
