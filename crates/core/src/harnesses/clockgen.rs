//! Harness for the clock generator — the digital cell whose quiescent
//! supply current is the IDDQ measurement.

use crate::harness::MacroHarness;
use crate::measure::{MeasureKind, MeasureLabel, MeasurementPlan};
use crate::signature::{CurrentKind, VoltageSignature};
use dotm_adc::clockgen::clockgen_testbench;
use dotm_adc::process::Phase;
use dotm_layout::Layout;
use dotm_netlist::Netlist;
use dotm_sim::{OpPoint, SimError, Simulator};

/// Level deviation that still counts as a working (but shifted) clock.
const LEVEL_DEV: f64 = 0.30;
/// Level deviation that breaks the conversion.
const LOGIC_DEV: f64 = 1.50;

/// Harness for the clock-generator macro.
#[derive(Debug, Clone)]
pub struct ClockgenHarness {
    /// Transient timestep (s).
    pub dt: f64,
}

impl Default for ClockgenHarness {
    fn default() -> Self {
        ClockgenHarness { dt: 0.5e-9 }
    }
}

impl MacroHarness for ClockgenHarness {
    fn name(&self) -> &str {
        "clock_gen"
    }

    fn layout(&self) -> Layout {
        dotm_adc::layouts::clockgen_layout()
    }

    fn instance_count(&self) -> usize {
        1
    }

    fn testbench(&self) -> Netlist {
        clockgen_testbench()
    }

    fn plan(&self) -> MeasurementPlan {
        let mut labels = Vec::new();
        for ck in 1..=3 {
            for phase in Phase::ALL {
                labels.push(MeasureLabel::new(
                    MeasureKind::Decision,
                    format!("ck{ck}@{}", phase.name()),
                ));
            }
        }
        for phase in Phase::ALL {
            labels.push(MeasureLabel::new(
                MeasureKind::Current(CurrentKind::Iddq),
                format!("iddq@{}", phase.name()),
            ));
        }
        for x in 1..=3 {
            labels.push(MeasureLabel::new(
                MeasureKind::Current(CurrentKind::Iinput),
                format!("i(VX{x})"),
            ));
        }
        MeasurementPlan { labels }
    }

    fn measure_with(&self, nl: &Netlist, sim: &mut Simulator<'_>) -> Result<Vec<f64>, SimError> {
        let settled = Phase::ALL.map(|phase| phase.settle_time());
        let reads = sim.transient(self.dt, &settled)?;
        let branch = |op: &OpPoint, name: &str| -> f64 {
            nl.device_id(name)
                .and_then(|id| op.branch_current(id))
                .unwrap_or(0.0)
        };
        let mut out = Vec::new();
        for ck in 1..=3 {
            let node = nl.find_node(&format!("ck{ck}"));
            for op in &reads {
                out.push(node.map_or(0.0, |n| op.voltage(n)));
            }
        }
        for op in &reads {
            out.push(branch(op, "VDDDIG"));
        }
        // The inputs are read in the sampling phase, `Phase::ALL[0]`.
        let sample = &reads[0];
        for x in 1..=3 {
            out.push(branch(sample, &format!("VX{x}")));
        }
        Ok(out)
    }

    fn classify_voltage(&self, nominal: &[f64], faulty: &[f64]) -> VoltageSignature {
        // Nine phase levels: a broken phase kills every comparator
        // (stuck-at conversion); a shifted level is the "clock value"
        // signature.
        let mut worst = 0.0f64;
        for i in 0..9 {
            worst = worst.max((nominal[i] - faulty[i]).abs());
        }
        if worst > LOGIC_DEV {
            VoltageSignature::OutputStuckAt
        } else if worst > LEVEL_DEV {
            VoltageSignature::ClockValue
        } else {
            VoltageSignature::NoDeviation
        }
    }

    fn shared_nets(&self) -> Vec<&'static str> {
        Vec::new()
    }

    fn current_floor(&self, kind: CurrentKind) -> f64 {
        match kind {
            // The digital cell is quiescent by construction: IDDQ has a
            // very tight band (this is why the paper finds IDDQ so
            // powerful).
            CurrentKind::Iddq => 10e-6,
            CurrentKind::IVdd => 500e-6,
            CurrentKind::Iinput => 50e-6,
        }
    }
}
