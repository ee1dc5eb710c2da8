//! Harness for the decoder column section.

use crate::harness::MacroHarness;
use crate::measure::{MeasureKind, MeasureLabel, MeasurementPlan};
use crate::signature::{CurrentKind, VoltageSignature};
use dotm_adc::decoder::{decoder_slice_testbench, SLICE_CODES, SLICE_INPUTS};
use dotm_layout::Layout;
use dotm_netlist::Netlist;
use dotm_sim::{OpPoint, SimError, Simulator};

/// Bitline deviation counting as a corrupted code (V).
const BIT_DEV: f64 = 1.0;

/// Thermometer heights exercised by the measurement: idle, the three row
/// transitions, and all-high.
const HEIGHTS: [usize; 5] = [0, 1, 2, 3, 4];

/// Harness for the decoder column section (three transition detectors and
/// their ROM rows on the shared bitlines); the full decoder is this
/// structure times 256/3.
#[derive(Debug, Clone)]
pub struct DecoderHarness {
    /// Transient timestep (s).
    pub dt: f64,
}

impl Default for DecoderHarness {
    fn default() -> Self {
        DecoderHarness { dt: 0.2e-9 }
    }
}

impl MacroHarness for DecoderHarness {
    fn name(&self) -> &str {
        "decoder_slice"
    }

    fn layout(&self) -> Layout {
        dotm_adc::layouts::decoder_slice_layout(SLICE_CODES)
    }

    fn instance_count(&self) -> usize {
        // 256 ROM rows = 256/3 three-row sections, rounded up.
        86
    }

    fn testbench(&self) -> Netlist {
        decoder_slice_testbench(SLICE_CODES, 1)
    }

    fn plan(&self) -> MeasurementPlan {
        let mut labels = Vec::new();
        for h in HEIGHTS {
            for bit in 0..8 {
                labels.push(MeasureLabel::new(
                    MeasureKind::Decision,
                    format!("bl{bit}@h{h}"),
                ));
            }
            labels.push(MeasureLabel::new(
                MeasureKind::Current(CurrentKind::Iddq),
                format!("iddq@h{h}"),
            ));
            for i in 0..SLICE_INPUTS {
                labels.push(MeasureLabel::new(
                    MeasureKind::Current(CurrentKind::Iinput),
                    format!("i(VT{i})@h{h}"),
                ));
            }
            labels.push(MeasureLabel::new(
                MeasureKind::Current(CurrentKind::Iinput),
                format!("i(VPC)@h{h}"),
            ));
        }
        MeasurementPlan { labels }
    }

    fn measure_with(&self, nl: &Netlist, sim: &mut Simulator<'_>) -> Result<Vec<f64>, SimError> {
        let mut out = Vec::new();
        let branch = |op: &OpPoint, name: &str| -> f64 {
            nl.device_id(name)
                .and_then(|id| op.branch_current(id))
                .unwrap_or(0.0)
        };
        for h in HEIGHTS {
            for i in 0..SLICE_INPUTS {
                let level = if i < h { 5.0 } else { 0.0 };
                sim.override_source(&format!("VT{i}"), level)?;
            }
            let op = &sim.transient(self.dt, &[29e-9])?[0];
            for bit in 0..8 {
                out.push(match nl.find_node(&format!("bl{bit}")) {
                    Some(n) => op.voltage(n),
                    None => 0.0,
                });
            }
            out.push(branch(op, "VDDDIG"));
            for i in 0..SLICE_INPUTS {
                out.push(branch(op, &format!("VT{i}")));
            }
            out.push(branch(op, "VPC"));
        }
        Ok(out)
    }

    fn classify_voltage(&self, nominal: &[f64], faulty: &[f64]) -> VoltageSignature {
        let plan = self.plan();
        let mut worst = 0.0f64;
        for i in plan.decision_indices() {
            worst = worst.max((nominal[i] - faulty[i]).abs());
        }
        if worst > BIT_DEV {
            // A wrong ROM bit corrupts the output code directly.
            VoltageSignature::OutputStuckAt
        } else {
            VoltageSignature::NoDeviation
        }
    }

    fn shared_nets(&self) -> Vec<&'static str> {
        // Bitlines are wired-OR across all rows; the precharge and the
        // digital supply are shared too.
        vec![
            "vdd_dig", "pc", "bl0", "bl1", "bl2", "bl3", "bl4", "bl5", "bl6", "bl7",
        ]
    }

    fn current_floor(&self, kind: CurrentKind) -> f64 {
        match kind {
            CurrentKind::Iddq => 10e-6,
            CurrentKind::IVdd => 500e-6,
            CurrentKind::Iinput => 50e-6,
        }
    }
}
