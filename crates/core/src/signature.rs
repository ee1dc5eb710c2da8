//! Fault signatures and detection sets — the vocabulary of the paper's
//! Tables 2 and 3 and Figures 3–5.

use std::fmt;

/// The voltage fault-signature categories of the paper's Table 2.
///
/// Stuck-at, offset and mixed signatures reach the converter output as
/// missing codes; clock-value deviations and fault-free behaviour are
/// invisible to the simple voltage test (see
/// [`VoltageSignature::causes_missing_code`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VoltageSignature {
    /// The macro output is stuck at one decision.
    OutputStuckAt,
    /// The decision threshold shifted by more than 8 mV (one LSB).
    Offset,
    /// Weak, indeterminate or otherwise mixed output levels.
    Mixed,
    /// The macro behaves correctly but a clock-distribution line carries a
    /// deviating value.
    ClockValue,
    /// Indistinguishable from the fault-free circuit by voltage tests.
    NoDeviation,
}

impl VoltageSignature {
    /// All categories in the paper's table order.
    pub const ALL: [VoltageSignature; 5] = [
        VoltageSignature::OutputStuckAt,
        VoltageSignature::Offset,
        VoltageSignature::Mixed,
        VoltageSignature::ClockValue,
        VoltageSignature::NoDeviation,
    ];

    /// `true` if this signature propagates to a missing code at the ADC
    /// output. Stuck-at and offset signatures lose codes directly; a
    /// mixed (weak/indeterminate-level) output is resolved by the decoder's
    /// input gates into a deterministic wrong thermometer bit, which also
    /// corrupts codes. Clock-value deviations and fault-free behaviour do
    /// not reach the output.
    pub fn causes_missing_code(self) -> bool {
        matches!(
            self,
            VoltageSignature::OutputStuckAt | VoltageSignature::Offset | VoltageSignature::Mixed
        )
    }
}

impl fmt::Display for VoltageSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VoltageSignature::OutputStuckAt => "Output Stuck At",
            VoltageSignature::Offset => "Offset (> 8 mV)",
            VoltageSignature::Mixed => "Mixed",
            VoltageSignature::ClockValue => "Clock value",
            VoltageSignature::NoDeviation => "No deviations",
        };
        write!(f, "{s}")
    }
}

/// The current measurements of the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CurrentKind {
    /// Analog power-supply current.
    IVdd,
    /// Quiescent current of the digital supply (clock generator/decoder).
    Iddq,
    /// Current drawn by or supplied to an input terminal.
    Iinput,
}

impl CurrentKind {
    /// All kinds in the paper's table order.
    pub const ALL: [CurrentKind; 3] = [CurrentKind::IVdd, CurrentKind::Iddq, CurrentKind::Iinput];
}

impl fmt::Display for CurrentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CurrentKind::IVdd => "IVdd",
            CurrentKind::Iddq => "IDDQ",
            CurrentKind::Iinput => "Iinput",
        };
        write!(f, "{s}")
    }
}

/// Which current measurements flag a fault (a fault may flag several —
/// the paper's Table 3 rows overlap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct CurrentFlags {
    /// Analog supply current outside its 3σ band.
    pub ivdd: bool,
    /// Digital quiescent current outside its band.
    pub iddq: bool,
    /// An input-terminal current outside its band.
    pub iinput: bool,
}

impl CurrentFlags {
    /// `true` if any current measurement detects the fault.
    pub fn any(self) -> bool {
        self.ivdd || self.iddq || self.iinput
    }

    /// Looks up one kind.
    pub fn get(self, kind: CurrentKind) -> bool {
        match kind {
            CurrentKind::IVdd => self.ivdd,
            CurrentKind::Iddq => self.iddq,
            CurrentKind::Iinput => self.iinput,
        }
    }

    /// Sets one kind.
    pub fn set(&mut self, kind: CurrentKind, value: bool) {
        match kind {
            CurrentKind::IVdd => self.ivdd = value,
            CurrentKind::Iddq => self.iddq = value,
            CurrentKind::Iinput => self.iinput = value,
        }
    }

    /// Merges (ORs) another flag set into this one.
    pub fn merge(&mut self, other: CurrentFlags) {
        self.ivdd |= other.ivdd;
        self.iddq |= other.iddq;
        self.iinput |= other.iinput;
    }
}

/// The complete detection outcome of one fault class against the paper's
/// simple test set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DetectionSet {
    /// Detected by the missing-code (voltage) test.
    pub missing_code: bool,
    /// Current-measurement detections.
    pub currents: CurrentFlags,
}

impl DetectionSet {
    /// `true` if any mechanism detects the fault.
    pub fn detected(self) -> bool {
        self.missing_code || self.currents.any()
    }

    /// Detected by voltage only.
    pub fn voltage_only(self) -> bool {
        self.missing_code && !self.currents.any()
    }

    /// Detected by current only.
    pub fn current_only(self) -> bool {
        !self.missing_code && self.currents.any()
    }

    /// Detected only by the IDDQ measurement.
    pub fn iddq_only(self) -> bool {
        !self.missing_code && self.currents.iddq && !self.currents.ivdd && !self.currents.iinput
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_code_mapping() {
        assert!(VoltageSignature::OutputStuckAt.causes_missing_code());
        assert!(VoltageSignature::Offset.causes_missing_code());
        assert!(VoltageSignature::Mixed.causes_missing_code());
        assert!(!VoltageSignature::ClockValue.causes_missing_code());
        assert!(!VoltageSignature::NoDeviation.causes_missing_code());
    }

    #[test]
    fn current_flags_merge_and_query() {
        let mut f = CurrentFlags::default();
        assert!(!f.any());
        f.set(CurrentKind::Iddq, true);
        assert!(f.any() && f.get(CurrentKind::Iddq));
        let mut g = CurrentFlags::default();
        g.set(CurrentKind::IVdd, true);
        f.merge(g);
        assert!(f.ivdd && f.iddq && !f.iinput);
    }

    #[test]
    fn detection_set_classification() {
        let v_only = DetectionSet {
            missing_code: true,
            currents: CurrentFlags::default(),
        };
        assert!(v_only.detected() && v_only.voltage_only() && !v_only.current_only());
        let iddq = DetectionSet {
            missing_code: false,
            currents: CurrentFlags {
                iddq: true,
                ..Default::default()
            },
        };
        assert!(iddq.current_only() && iddq.iddq_only());
        let both = DetectionSet {
            missing_code: true,
            currents: CurrentFlags {
                ivdd: true,
                ..Default::default()
            },
        };
        assert!(both.detected() && !both.voltage_only() && !both.current_only());
        let none = DetectionSet {
            missing_code: false,
            currents: CurrentFlags::default(),
        };
        assert!(!none.detected());
    }
}
