//! A transistor-level 3-bit flash converter slice: seven comparator
//! macros instantiated against a real resistor-ladder section, converted
//! by full transient simulation, and cross-checked against the
//! behavioural model used for fault propagation — the validation that
//! justifies the paper's divide-and-conquer.
//!
//! Run with: `cargo run --release --example mini_flash` (a few seconds).

use dotm::adc::column::FlashColumn;
use dotm::adc::comparator::{decision_time, ComparatorConfig};
use dotm::sim::Simulator;

const N_STAGES: usize = 7; // 3-bit flash: 2³−1 comparators
const V_LO: f64 = 1.9;
const V_HI: f64 = 3.1;

fn convert(vin: f64) -> (usize, usize, usize) {
    let col = FlashColumn::build(ComparatorConfig::default(), N_STAGES, V_LO, V_HI, vin);
    let devices = col.netlist.device_count();
    let mut sim = Simulator::new(&col.netlist);
    let decided = sim
        .transient(0.5e-9, &[decision_time()])
        .expect("mini-flash transient");
    let therm = col.read_thermometer(&decided[0]);
    let silicon = therm.iter().take_while(|&&t| t).count();
    (silicon, col.ideal_code(vin), devices)
}

fn main() {
    println!("3-bit transistor-level flash: {N_STAGES} comparator macros, ladder {V_LO}..{V_HI} V");
    println!();
    println!(
        "{:>8} {:>12} {:>12}",
        "vin (V)", "transistor", "behavioural"
    );
    let lsb = (V_HI - V_LO) / (N_STAGES + 1) as f64;
    let mut agree = true;
    let mut devices = 0;
    for code in 0..=N_STAGES {
        // Mid-bin input for each code.
        let vin = V_LO + (code as f64 + 0.5) * lsb;
        let (silicon, expected, d) = convert(vin);
        devices = d;
        let mark = if silicon == expected {
            ""
        } else {
            "  <-- MISMATCH"
        };
        agree &= silicon == expected;
        println!("{vin:>8.3} {silicon:>12} {expected:>12}{mark}");
    }
    println!();
    println!("({devices} devices per conversion testbench)");
    if agree {
        println!("transistor-level and behavioural conversions agree on every code —");
        println!("the macro decomposition's propagation models are faithful");
    } else {
        println!("MISMATCH between transistor-level and behavioural conversion!");
        std::process::exit(1);
    }
}
