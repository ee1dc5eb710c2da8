//! Harness for the dual-ladder reference string.

use crate::harness::MacroHarness;
use crate::measure::{MeasureKind, MeasureLabel, MeasurementPlan};
use crate::signature::{CurrentKind, VoltageSignature};
use dotm_adc::behavior::FlashAdc;
use dotm_adc::ladder::{ideal_tap_voltage, ladder_testbench, tap_node, TAPS};
use dotm_layout::Layout;
use dotm_netlist::Netlist;
use dotm_sim::{SimError, Simulator};

/// Deviation treated as a hard (stuck) reference failure (V).
const RAIL_DEV: f64 = 0.5;

/// Harness for the ladder macro. A single DC operating point yields all
/// 256 tap voltages (the "decisions") and the reference input currents.
#[derive(Debug, Clone, Default)]
pub struct LadderHarness;

impl MacroHarness for LadderHarness {
    fn name(&self) -> &str {
        "ladder"
    }

    fn layout(&self) -> Layout {
        dotm_adc::layouts::ladder_layout()
    }

    fn instance_count(&self) -> usize {
        1
    }

    fn testbench(&self) -> Netlist {
        ladder_testbench()
    }

    fn plan(&self) -> MeasurementPlan {
        let mut labels = Vec::new();
        for k in 1..=TAPS {
            labels.push(MeasureLabel::new(MeasureKind::Decision, format!("tap{k}")));
        }
        labels.push(MeasureLabel::new(
            MeasureKind::Current(CurrentKind::Iinput),
            "i(VRH)",
        ));
        labels.push(MeasureLabel::new(
            MeasureKind::Current(CurrentKind::Iinput),
            "i(VRL)",
        ));
        // Terminal balance: a fault-free two-terminal ladder returns every
        // electron (i(VRH) + i(VRL) ≈ 0 independent of the sheet-ρ spread),
        // so any leak to the substrate or a neighbouring structure shows
        // up here with an essentially zero-width good band.
        labels.push(MeasureLabel::new(
            MeasureKind::Current(CurrentKind::Iinput),
            "i(VRH)+i(VRL)",
        ));
        MeasurementPlan { labels }
    }

    fn measure_with(&self, nl: &Netlist, sim: &mut Simulator<'_>) -> Result<Vec<f64>, SimError> {
        let op = sim.dc_op()?;
        let mut out = Vec::with_capacity(TAPS + 2);
        for k in 1..=TAPS {
            out.push(op.voltage(tap_node(nl, k)));
        }
        let mut sum = 0.0;
        for src in ["VRH", "VRL"] {
            let i = nl
                .device_id(src)
                .and_then(|id| op.branch_current(id))
                .unwrap_or(0.0);
            sum += i;
            out.push(i);
        }
        out.push(sum);
        Ok(out)
    }

    fn classify_voltage(&self, _nominal: &[f64], faulty: &[f64]) -> VoltageSignature {
        // Propagate the faulty reference set through the behavioural
        // converter (ideal comparators, real decoder): this is the exact
        // sensitisation path of the paper.
        let mut adc = FlashAdc::ideal();
        let mut worst = 0.0f64;
        for (k, &v) in faulty.iter().enumerate().take(TAPS) {
            adc.set_reference(k, v);
            worst = worst.max((v - ideal_tap_voltage(k + 1)).abs());
        }
        if worst > RAIL_DEV {
            return VoltageSignature::OutputStuckAt;
        }
        if adc.fails_missing_code_test() {
            VoltageSignature::Offset
        } else {
            VoltageSignature::NoDeviation
        }
    }

    fn shared_nets(&self) -> Vec<&'static str> {
        Vec::new() // single instance: no multiplicity scaling
    }

    fn current_floor(&self, kind: CurrentKind) -> f64 {
        match kind {
            // The reference current is milliamp-scale; detection rides on
            // its tight resistor-matching band.
            CurrentKind::Iinput => 50e-6,
            CurrentKind::IVdd => 500e-6,
            CurrentKind::Iddq => 20e-6,
        }
    }
}
