//! Diagnostic dump of comparator internals (run with --nocapture).

use dotm_adc::comparator::*;
use dotm_adc::process::*;
use dotm_sim::Simulator;

#[test]
#[ignore]
fn dump_waveforms() {
    let stim = ComparatorStimulus::dc_offset(1.6, 0.03);
    let nl = comparator_testbench(ComparatorConfig::default(), &stim);
    let mut sim = Simulator::new(&nl);
    let nodes = [
        "ck1", "ck2", "ck3", "na", "nb", "ga", "gb", "oa", "ob", "ntail", "nls", "la", "lb", "fa",
        "fb", "xa", "xb", "ck2b",
    ];
    let probe_times: Vec<(f64, &str)> = vec![
        (Phase::Sample.settle_time(), "end sample c0"),
        (Phase::Amplify.settle_time(), "end amplify c0"),
        (75.0e-9, "r0"),
        (75.25e-9, "r1"),
        (75.5e-9, "r2"),
        (75.75e-9, "r3"),
        (76.0e-9, "r4"),
        (76.25e-9, "r5"),
        (76.5e-9, "r6"),
        (76.75e-9, "r7"),
        (Phase::Latch.settle_time(), "end latch c0"),
        (0.98 * CLOCK_PERIOD, "gap before c1"),
        (CLOCK_PERIOD + 5e-9, "early sample c1"),
        (CLOCK_PERIOD + Phase::Sample.settle_time(), "end sample c1"),
        (decision_time(), "decision"),
    ];
    let at: Vec<f64> = probe_times.iter().map(|&(t, _)| t).collect();
    let reads = sim.transient(0.25e-9, &at).unwrap();
    for ((t, label), op) in probe_times.into_iter().zip(&reads) {
        print!("t={:6.1}ns {:16}", t * 1e9, label);
        for n in nodes {
            let id = nl.find_node(n).unwrap();
            print!(" {n}={:5.2}", op.voltage(id));
        }
        println!();
    }
}

#[test]
#[ignore]
fn dump_clockgen_nodes() {
    use dotm_adc::clockgen::*;
    let nl = clockgen_testbench();
    let opts = dotm_sim::SimOptions {
        integration: dotm_sim::Integration::BackwardEuler,
        ..dotm_sim::SimOptions::default()
    };
    let mut sim = Simulator::with_options(&nl, opts);
    let current_times = [20e-9, 30e-9, 36e-9, 50e-9, 60e-9];
    let mut at = vec![Phase::Sample.settle_time()];
    at.extend(current_times);
    let reads = sim.transient(0.5e-9, &at).unwrap();
    for n in [
        "x1", "x2", "x3", "a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3", "nmid1", "nmid2",
        "nmid3", "ck1", "ck2", "ck3",
    ] {
        let id = nl.find_node(n).unwrap();
        print!(" {n}={:5.2}", reads[0].voltage(id));
    }
    println!();
    let id = nl.device_id("VDDDIG").unwrap();
    for (tt, op) in current_times.iter().zip(&reads[1..]) {
        println!(
            "i({:.0}ns) = {:.3e}",
            tt * 1e9,
            op.branch_current(id).unwrap()
        );
    }
}
