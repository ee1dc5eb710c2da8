//! Fault simulation of the Flash ADC's comparator macro, end to end:
//! simulate the fault-free three-phase comparator, inject two classic
//! faults (a clock-line short and a gate-oxide pinhole), and watch the
//! voltage and current signatures appear.
//!
//! Run with: `cargo run --release --example comparator_fault_sim`

use dotm::adc::comparator::{comparator_testbench, decision, ComparatorConfig, ComparatorStimulus};
use dotm::adc::process::{Phase, CLOCK_PERIOD};
use dotm::defects::{BridgeMedium, FaultEffect};
use dotm::faults::{Injector, Severity};
use dotm::netlist::Netlist;
use dotm::sim::Simulator;

const DT: f64 = 0.25e-9;

/// Runs one decision at vin = vref + dv and the sampling-phase currents,
/// every analysis on one simulator.
fn characterize(nl: &Netlist, label: &str) -> Result<(), Box<dyn std::error::Error>> {
    print!("{label:<28}");
    let mut sim = Simulator::new(nl);
    for dv in [-0.02, 0.02] {
        sim.override_source("VIN", 2.5 + dv)?;
        match decision(nl, &mut sim, DT) {
            Ok(d) => {
                let sym = if d > 2.0 {
                    "1"
                } else if d < -2.0 {
                    "0"
                } else {
                    "?"
                };
                print!(" dec({dv:+.2}V)={sym}");
            }
            Err(_) => print!(" dec({dv:+.2}V)=x"),
        }
    }
    // Quiescent currents at the end of the sampling phase.
    sim.override_source("VIN", 1.3)?;
    let sampled = CLOCK_PERIOD + Phase::Sample.settle_time();
    let op = &sim.transient(DT, &[sampled])?[0];
    let ivdd = op
        .branch_current(nl.device_id("VDD").unwrap())
        .unwrap()
        .abs();
    let iddq = op
        .branch_current(nl.device_id("VDDDIG").unwrap())
        .unwrap()
        .abs();
    println!("  IVdd={:7.1}µA  IDDQ={:9.3}µA", ivdd * 1e6, iddq * 1e6);
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let stim = ComparatorStimulus::dc_offset(2.5, 0.0);
    let good = comparator_testbench(ComparatorConfig::default(), &stim);
    println!(
        "comparator testbench: {} devices, {} nodes",
        good.device_count(),
        good.node_count()
    );
    println!();
    characterize(&good, "fault-free")?;

    let injector = Injector::default();

    // Fault 1: a metal bridge between two clock-distribution lines — the
    // canonical boundary-disturbing fault. Watch IDDQ jump.
    let mut f1 = good.clone();
    injector.inject(
        &mut f1,
        &FaultEffect::Bridge {
            nets: vec!["ck1".into(), "ck2".into()],
            medium: BridgeMedium::Metal,
        },
        Severity::Catastrophic,
        0,
        "f1",
    )?;
    characterize(&f1, "ck1-ck2 metal short")?;

    // Fault 2: a gate-oxide pinhole in the tail current source. The
    // injector offers three placements; the methodology keeps the worst.
    let effect = FaultEffect::GateOxide {
        device: "M3".into(),
    };
    for variant in 0..injector.variant_count(&effect) {
        let mut f2 = good.clone();
        injector.inject(&mut f2, &effect, Severity::Catastrophic, variant, "f2")?;
        characterize(
            &f2,
            &format!("M3 pinhole ({})", injector.variant_name(&effect, variant)),
        )?;
    }

    // Fault 3: the near-miss (non-catastrophic) version of the clock short.
    let mut f3 = good.clone();
    injector.inject(
        &mut f3,
        &FaultEffect::Bridge {
            nets: vec!["ck1".into(), "ck2".into()],
            medium: BridgeMedium::Metal,
        },
        Severity::NonCatastrophic,
        0,
        "f3",
    )?;
    characterize(&f3, "ck1-ck2 near-miss (500Ω)")?;

    println!();
    println!("legend: dec = flipflop decision for vin above/below the reference;");
    println!("        a healthy comparator shows dec(-0.02V)=0 dec(+0.02V)=1");
    Ok(())
}
