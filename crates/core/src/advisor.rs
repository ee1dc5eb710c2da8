//! Automated DfT advisories — the paper's §4 design rules, checked
//! mechanically:
//!
//! 1. *"Faults influencing lines with almost identical signals are very
//!    difficult to detect. Therefore, such lines should not be placed
//!    close to each other."*
//! 2. *"The interface between analog and digital should be designed in
//!    such a way that in a fault-free circuit the quiescent current is
//!    negligible small"* (so boundary faults light up IDDQ).

use crate::harness::with_instrumented_sim;
use dotm_netlist::Netlist;
use dotm_sim::{OpPoint, SimError, SimOptions, SimStats};
use std::fmt;

/// One advisory produced by the checks.
#[derive(Debug, Clone, PartialEq)]
pub enum Advisory {
    /// Two adjacent routed lines carry nearly identical DC values: shorts
    /// between them are nearly undetectable. Reorder so a strongly
    /// different line separates them.
    SimilarAdjacentSignals {
        /// First line (net name).
        a: String,
        /// Second line (net name).
        b: String,
        /// DC difference between them (V).
        delta_v: f64,
    },
    /// The digital supply draws a non-negligible quiescent current in the
    /// fault-free circuit, blunting the IDDQ measurement.
    QuiescentDigitalCurrent {
        /// Supply source name.
        supply: String,
        /// Measured quiescent current (A).
        current: f64,
    },
}

impl fmt::Display for Advisory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Advisory::SimilarAdjacentSignals { a, b, delta_v } => write!(
                f,
                "adjacent lines `{a}` and `{b}` differ by only {:.0} mV — shorts between \
                 them are nearly undetectable; separate them with a strongly different line",
                delta_v * 1e3
            ),
            Advisory::QuiescentDigitalCurrent { supply, current } => write!(
                f,
                "digital supply `{supply}` draws {:.1} µA quiescent — boundary faults \
                 will hide inside the IDDQ band; gate the static paths",
                current * 1e6
            ),
        }
    }
}

/// DC difference below which two adjacent lines count as "almost
/// identical signals" (V).
pub const SIMILARITY_THRESHOLD: f64 = 0.3;

/// Quiescent digital current above which IDDQ is considered blunted (A).
pub const IDDQ_BUDGET: f64 = 5e-6;

/// The DC operating point of `nl` at default solver options.
fn solve_dc(nl: &Netlist) -> Result<OpPoint, SimError> {
    with_instrumented_sim(
        nl,
        &SimOptions::default(),
        &mut SimStats::default(),
        |sim| sim.dc_op(),
    )
}

/// Checks an ordered list of routed trunk lines against a solved DC
/// operating point: every *adjacent* pair of **static analog** lines with
/// nearly identical values is flagged.
///
/// `is_static` selects the lines the rule applies to — bias and reference
/// distribution, not clocks, driven inputs or logic outputs (shorts on
/// those announce themselves dynamically or through IDDQ). Supply rails
/// (`vdd*`, `gnd`) are always skipped: a supply short is gross.
///
/// # Errors
/// Propagates simulator failures from the operating-point solve.
pub fn check_trunk_order(
    nl: &Netlist,
    trunk_order: &[&str],
    is_static: &dyn Fn(&str) -> bool,
) -> Result<Vec<Advisory>, SimError> {
    let op = solve_dc(nl)?;
    let mut advisories = Vec::new();
    let is_rail = |n: &str| n.starts_with("vdd") || n == "gnd";
    for pair in trunk_order.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if is_rail(a) || is_rail(b) || !is_static(a) || !is_static(b) {
            continue;
        }
        let (Some(na), Some(nb)) = (nl.find_node(a), nl.find_node(b)) else {
            continue;
        };
        let delta_v = (op.voltage(na) - op.voltage(nb)).abs();
        if delta_v < SIMILARITY_THRESHOLD {
            advisories.push(Advisory::SimilarAdjacentSignals {
                a: a.to_string(),
                b: b.to_string(),
                delta_v,
            });
        }
    }
    Ok(advisories)
}

/// Checks the fault-free quiescent current of a digital supply against
/// the IDDQ budget, at a DC operating point.
///
/// # Errors
/// Propagates simulator failures; returns [`SimError::BadSource`] if the
/// named device is not a voltage source.
pub fn check_iddq_budget(nl: &Netlist, supply: &str) -> Result<Vec<Advisory>, SimError> {
    let id = nl
        .device_id(supply)
        .ok_or_else(|| SimError::BadSource(supply.to_string()))?;
    let op = solve_dc(nl)?;
    let current = op
        .branch_current(id)
        .ok_or_else(|| SimError::BadSource(supply.to_string()))?
        .abs();
    if current > IDDQ_BUDGET {
        Ok(vec![Advisory::QuiescentDigitalCurrent {
            supply: supply.to_string(),
            current,
        }])
    } else {
        Ok(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dotm_adc::comparator::{comparator_testbench, ComparatorConfig, ComparatorStimulus};
    use dotm_adc::layouts::{comparator_trunk_order, LayoutConfig};
    use dotm_netlist::Waveform;

    fn testbench() -> Netlist {
        let stim = ComparatorStimulus::dc_offset(2.5, 0.0);
        comparator_testbench(ComparatorConfig::default(), &stim)
    }

    /// The comparator's static analog distribution lines.
    fn is_static(net: &str) -> bool {
        matches!(net, "vbn" | "vbnc" | "vbp" | "vaz" | "vref")
    }

    #[test]
    fn production_order_flags_the_similar_bias_pair() {
        let nl = testbench();
        let order = comparator_trunk_order(LayoutConfig::default());
        let advisories = check_trunk_order(&nl, &order, &is_static).unwrap();
        assert!(
            advisories.iter().any(|a| matches!(
                a,
                Advisory::SimilarAdjacentSignals { a, b, .. }
                    if (a == "vbn" && b == "vbnc") || (a == "vbnc" && b == "vbn")
            )),
            "must flag vbn/vbnc: {advisories:?}"
        );
    }

    #[test]
    fn dynamic_lines_are_exempt() {
        let nl = testbench();
        // Clock lines share DC levels but are dynamic: not the rule's
        // concern.
        let advisories = check_trunk_order(&nl, &["ck1", "ck2", "ck3"], &is_static).unwrap();
        assert!(advisories.is_empty(), "{advisories:?}");
    }

    #[test]
    fn dft_order_clears_the_bias_advisory() {
        let nl = testbench();
        let order = comparator_trunk_order(LayoutConfig {
            dft_bias_order: true,
        });
        let advisories = check_trunk_order(&nl, &order, &is_static).unwrap();
        assert!(
            !advisories.iter().any(|a| matches!(
                a,
                Advisory::SimilarAdjacentSignals { a, b, .. }
                    if (a == "vbn" && b == "vbnc") || (a == "vbnc" && b == "vbn")
            )),
            "DfT order must not flag vbn/vbnc: {advisories:?}"
        );
    }

    #[test]
    fn dissimilar_static_lines_are_not_flagged() {
        // vaz (2.2 V) vs vbp (3.6 V): well apart.
        let nl = testbench();
        let advisories = check_trunk_order(&nl, &["vaz", "vbp"], &is_static).unwrap();
        assert!(advisories.is_empty(), "{advisories:?}");
    }

    #[test]
    fn iddq_budget_passes_clean_and_flags_leaky() {
        // A clean CMOS load on the digital supply.
        let mut nl = Netlist::new("clean");
        let vdd_dig = nl.node("vdd_dig");
        nl.add_vsource("VDDDIG", vdd_dig, Netlist::GROUND, Waveform::dc(5.0))
            .unwrap();
        nl.add_capacitor("CL", vdd_dig, Netlist::GROUND, 1e-12)
            .unwrap();
        assert!(check_iddq_budget(&nl, "VDDDIG").unwrap().is_empty());
        // A resistive static path blows the budget.
        let leaky_node = nl.node("x");
        nl.add_resistor("RLEAK", vdd_dig, leaky_node, 100e3)
            .unwrap();
        nl.add_resistor("RLEAK2", leaky_node, Netlist::GROUND, 100e3)
            .unwrap();
        let advisories = check_iddq_budget(&nl, "VDDDIG").unwrap();
        assert_eq!(advisories.len(), 1);
        assert!(advisories[0].to_string().contains("µA quiescent"));
    }

    #[test]
    fn unknown_supply_is_an_error() {
        let nl = Netlist::new("empty");
        assert!(matches!(
            check_iddq_budget(&nl, "NOPE"),
            Err(SimError::BadSource(_))
        ));
    }
}
