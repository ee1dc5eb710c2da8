//! # dotm-netlist — circuit netlists for defect-oriented test
//!
//! This crate provides the circuit representation shared by the whole DOTM
//! workspace: a flat, index-addressed netlist of analog devices with named
//! nodes, hierarchical instantiation of subcircuit templates, and — because
//! this is a *test* library — the fault-editing operations the
//! defect-oriented methodology needs (bridge insertion, node splitting for
//! opens, parasitic device attachment, device shorting).
//!
//! The representation is deliberately simple and owned: a [`Netlist`] is a
//! `Vec` of [`Device`]s over a `Vec` of nodes. Simulation semantics
//! (stamping, model evaluation) live in `dotm-sim`; defect semantics live in
//! `dotm-defects` / `dotm-faults`. This crate is pure data plus structural
//! operations.
//!
//! ## Example
//!
//! ```
//! use dotm_netlist::{Netlist, Waveform};
//!
//! let mut nl = Netlist::new("divider");
//! let vin = nl.node("vin");
//! let mid = nl.node("mid");
//! let gnd = Netlist::GROUND;
//! nl.add_vsource("V1", vin, gnd, Waveform::dc(5.0));
//! nl.add_resistor("R1", vin, mid, 1_000.0);
//! nl.add_resistor("R2", mid, gnd, 1_000.0);
//! assert_eq!(nl.device_count(), 3);
//! assert_eq!(nl.node_count(), 3); // ground + vin + mid
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod edit;
mod error;
pub mod fnv;
mod netlist;
mod node;
mod parse;
mod waveform;

pub use device::{Device, DeviceId, DeviceKind, DiodeParams, MosType, MosfetParams, SwitchParams};
pub use edit::TerminalRef;
pub use error::NetlistError;
pub use netlist::{Netlist, PortMap};
pub use node::NodeId;
pub use parse::{parse_spice, parse_value, write_spice, ParseError};
pub use waveform::Waveform;
