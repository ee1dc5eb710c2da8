//! Circuit-level fault descriptors extracted from defects.

use crate::kinds::Defect;
use std::fmt::{self, Write as _};

/// The fault taxonomy of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultMechanism {
    /// Bridging short between nets (extra material).
    Short,
    /// Unintended inter-layer contact.
    ExtraContact,
    /// Pinhole through the gate oxide.
    GateOxidePinhole,
    /// Pinhole through a source/drain junction.
    JunctionPinhole,
    /// Pinhole through the field oxide.
    ThickOxidePinhole,
    /// Open (missing material splitting a net).
    Open,
    /// Parasitic transistor created by extra material.
    NewDevice,
    /// Transistor with a destroyed (conducting) channel.
    ShortedDevice,
}

impl FaultMechanism {
    /// All mechanisms in the paper's Table 1 row order.
    pub const ALL: [FaultMechanism; 8] = [
        FaultMechanism::Short,
        FaultMechanism::ExtraContact,
        FaultMechanism::GateOxidePinhole,
        FaultMechanism::JunctionPinhole,
        FaultMechanism::ThickOxidePinhole,
        FaultMechanism::Open,
        FaultMechanism::NewDevice,
        FaultMechanism::ShortedDevice,
    ];
}

impl fmt::Display for FaultMechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultMechanism::Short => "short",
            FaultMechanism::ExtraContact => "extra contact",
            FaultMechanism::GateOxidePinhole => "gate oxide pinhole",
            FaultMechanism::JunctionPinhole => "junction pinhole",
            FaultMechanism::ThickOxidePinhole => "thick oxide pinhole",
            FaultMechanism::Open => "open",
            FaultMechanism::NewDevice => "new device",
            FaultMechanism::ShortedDevice => "shorted device",
        };
        write!(f, "{s}")
    }
}

/// The conducting medium of a bridge, which sets its resistance in the
/// paper's fault models (§3.2: 0.2 Ω for metal; higher for poly and
/// diffusion; 2 Ω for extra contacts; 2 kΩ for pinholes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BridgeMedium {
    /// Metal short (either metal layer).
    Metal,
    /// Polysilicon short.
    Poly,
    /// Diffusion short.
    Diffusion,
    /// Extra contact.
    Contact,
    /// Oxide or junction pinhole (2 kΩ).
    Pinhole,
}

/// A device terminal reference by name: `(device, terminal index)` in
/// `dotm_netlist::Device::terminals` order.
pub type TerminalName = (String, usize);

/// The circuit-level effect of a defect.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEffect {
    /// Resistive bridge between two or more nets.
    Bridge {
        /// Bridged net names (≥ 2, sorted).
        nets: Vec<String>,
        /// Medium, which fixes the bridge resistance.
        medium: BridgeMedium,
    },
    /// A net split into ≥ 2 groups of device terminals.
    NodeSplit {
        /// Net that was severed.
        net: String,
        /// Terminal partition: first group is the "main" side.
        groups: Vec<Vec<TerminalName>>,
    },
    /// Gate-oxide pinhole in a device: resistive short from the gate to
    /// the channel/source/drain (worst case chosen at modelling time).
    GateOxide {
        /// Affected MOSFET name.
        device: String,
    },
    /// Destroyed channel: drain–source short.
    DeviceShort {
        /// Affected MOSFET name.
        device: String,
    },
    /// Resistive leak from a net to a bulk rail (junction or thick-oxide
    /// pinhole).
    BulkLeak {
        /// Leaking net.
        net: String,
        /// Bulk rail net (substrate or well).
        bulk: String,
    },
    /// Parasitic transistor interrupting a diffusion net: the net splits
    /// and a new device bridges the two sides.
    NewDevice {
        /// The severed diffusion net.
        net: String,
        /// Terminal partition of the severed net.
        groups: Vec<Vec<TerminalName>>,
        /// Net driving the parasitic gate, or `None` if floating.
        gate: Option<String>,
        /// `true` for an n-channel parasitic (in the substrate).
        n_channel: bool,
    },
}

impl FaultEffect {
    /// Canonical key for fault collapsing: equivalent circuit-level faults
    /// (e.g. shorts between the same node pair) share a key.
    pub fn canonical_key(&self) -> String {
        let mut key = String::new();
        self.write_key(&mut key)
            .expect("writing to a String cannot fail");
        key
    }

    /// Appends [`FaultEffect::canonical_key`] to `out`.
    fn write_key(&self, out: &mut String) -> fmt::Result {
        fn group_key(groups: &[Vec<TerminalName>]) -> String {
            let mut gs: Vec<String> = groups
                .iter()
                .map(|g| {
                    let mut ts: Vec<String> = g.iter().map(|(d, t)| format!("{d}.{t}")).collect();
                    ts.sort();
                    ts.join(",")
                })
                .collect();
            gs.sort();
            gs.join("|")
        }
        match self {
            FaultEffect::Bridge { nets, medium } => {
                write!(out, "bridge:{medium:?}:")?;
                for (i, net) in nets.iter().enumerate() {
                    if i > 0 {
                        out.push('+');
                    }
                    out.push_str(net);
                }
                Ok(())
            }
            FaultEffect::NodeSplit { net, groups } => {
                write!(out, "open:{net}:{}", group_key(groups))
            }
            FaultEffect::GateOxide { device } => write!(out, "gos:{device}"),
            FaultEffect::DeviceShort { device } => write!(out, "dshort:{device}"),
            FaultEffect::BulkLeak { net, bulk } => write!(out, "leak:{net}->{bulk}"),
            FaultEffect::NewDevice {
                net,
                groups,
                gate,
                n_channel,
            } => write!(
                out,
                "newdev:{net}:{}:{}:{}",
                group_key(groups),
                gate.as_deref().unwrap_or("~float"),
                if *n_channel { "n" } else { "p" }
            ),
        }
    }
}

/// A defect together with its extracted circuit-level effect.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// The mechanism class (Table 1 row).
    pub mechanism: FaultMechanism,
    /// The circuit-level effect.
    pub effect: FaultEffect,
    /// The defect that caused it.
    pub defect: Defect,
}

impl Fault {
    /// Canonical class key (mechanism + effect key).
    pub fn canonical_key(&self) -> String {
        let mut key = format!("{:?}#", self.mechanism);
        self.effect
            .write_key(&mut key)
            .expect("writing to a String cannot fail");
        key
    }

    /// The net names this fault touches (for the paper's "influences nodes
    /// of only this macro" statistic).
    pub fn touched_nets(&self) -> Vec<&str> {
        match &self.effect {
            FaultEffect::Bridge { nets, .. } => nets.iter().map(String::as_str).collect(),
            FaultEffect::NodeSplit { net, .. } => vec![net.as_str()],
            FaultEffect::GateOxide { .. } | FaultEffect::DeviceShort { .. } => Vec::new(),
            FaultEffect::BulkLeak { net, bulk } => vec![net.as_str(), bulk.as_str()],
            FaultEffect::NewDevice { net, gate, .. } => {
                let mut v = vec![net.as_str()];
                if let Some(g) = gate {
                    v.push(g.as_str());
                }
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::DefectKind;

    fn dummy_defect() -> Defect {
        Defect {
            kind: DefectKind::ExtraMetal1,
            x: 0,
            y: 0,
            size: 1000,
        }
    }

    #[test]
    fn bridge_keys_collapse_same_pairs() {
        let a = FaultEffect::Bridge {
            nets: vec!["clk1".into(), "out".into()],
            medium: BridgeMedium::Metal,
        };
        let b = FaultEffect::Bridge {
            nets: vec!["clk1".into(), "out".into()],
            medium: BridgeMedium::Metal,
        };
        assert_eq!(a.canonical_key(), b.canonical_key());
        let c = FaultEffect::Bridge {
            nets: vec!["clk1".into(), "out".into()],
            medium: BridgeMedium::Poly,
        };
        assert_ne!(a.canonical_key(), c.canonical_key());
    }

    #[test]
    fn open_keys_ignore_group_order() {
        let g1 = vec![
            vec![("M1".to_string(), 0usize)],
            vec![("M2".to_string(), 2usize), ("M3".to_string(), 1usize)],
        ];
        let mut g2 = g1.clone();
        g2.reverse();
        g2[0].reverse();
        let a = FaultEffect::NodeSplit {
            net: "n1".into(),
            groups: g1,
        };
        let b = FaultEffect::NodeSplit {
            net: "n1".into(),
            groups: g2,
        };
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn touched_nets_reports_bridges() {
        let f = Fault {
            mechanism: FaultMechanism::Short,
            effect: FaultEffect::Bridge {
                nets: vec!["a".into(), "clk".into()],
                medium: BridgeMedium::Metal,
            },
            defect: dummy_defect(),
        };
        assert_eq!(f.touched_nets(), vec!["a", "clk"]);
    }

    #[test]
    fn canonical_key_includes_mechanism() {
        let f1 = Fault {
            mechanism: FaultMechanism::JunctionPinhole,
            effect: FaultEffect::BulkLeak {
                net: "x".into(),
                bulk: "gnd".into(),
            },
            defect: dummy_defect(),
        };
        let f2 = Fault {
            mechanism: FaultMechanism::ThickOxidePinhole,
            effect: FaultEffect::BulkLeak {
                net: "x".into(),
                bulk: "gnd".into(),
            },
            defect: dummy_defect(),
        };
        assert_ne!(f1.canonical_key(), f2.canonical_key());
    }
}
