//! Harness for the clock generator — the digital cell whose quiescent
//! supply current is the IDDQ measurement.

use crate::harness::{with_instrumented_sim, MacroHarness};
use crate::measure::{MeasureKind, MeasureLabel, MeasurementPlan};
use crate::signature::{CurrentKind, VoltageSignature};
use dotm_adc::clockgen::clockgen_testbench;
use dotm_adc::process::{Phase, CLOCK_PERIOD};
use dotm_layout::Layout;
use dotm_netlist::Netlist;
use dotm_sim::{SimError, SimOptions, SimStats};

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

    fn measure_with(
        &self,
        nl: &Netlist,
        opts: &SimOptions,
        stats: &mut SimStats,
    ) -> Result<Vec<f64>, SimError> {
        let tr =
            with_instrumented_sim(nl, opts, stats, |sim| sim.transient(CLOCK_PERIOD, self.dt))?;
        let mut out = Vec::new();
        for ck in 1..=3 {
            let node = nl.find_node(&format!("ck{ck}"));
            for phase in Phase::ALL {
                let k = tr.index_at(phase.settle_time());
                out.push(match node {
                    Some(n) => tr.voltage(k, n),
                    None => 0.0,
                });
            }
        }
        for phase in Phase::ALL {
            let k = tr.index_at(phase.settle_time());
            out.push(
                nl.device_id("VDDDIG")
                    .and_then(|id| tr.branch_current(k, id))
                    .unwrap_or(0.0),
            );
        }
        for x in 1..=3 {
            let k = tr.index_at(Phase::Sample.settle_time());
            out.push(
                nl.device_id(&format!("VX{x}"))
                    .and_then(|id| tr.branch_current(k, id))
                    .unwrap_or(0.0),
            );
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
