//! # dotm-sim — a SPICE-class analog circuit simulator
//!
//! The defect-oriented test methodology of the 1995 DATE paper needs
//! circuit-level fault simulation of analog macro cells: DC operating
//! points at overridden source levels (decoder inputs, comparator inputs)
//! and clocked transients (the three-phase comparator). No mature analog
//! simulator bindings exist for Rust, so this crate implements one from
//! scratch:
//!
//! * **Modified nodal analysis** over the devices of a
//!   [`dotm_netlist::Netlist`], with independent-source branch currents as
//!   extra unknowns.
//! * **Sparse LU** with one symbolic analysis per netlist (transversal,
//!   minimum-degree order, static fill) and a numeric-only refactor per
//!   Newton step; a pivot that fails its threshold test sends that one
//!   factorisation to the dense partial-pivot LU.
//! * **Newton–Raphson** with per-iteration voltage-step limiting, plus
//!   *gmin stepping* and *source stepping* homotopies for hard operating
//!   points (fault-injected circuits are routinely pathological).
//! * **Device models**: Level-1 (Shichman–Hodges) MOSFETs with body effect,
//!   channel-length modulation and bulk-junction leakage diodes; junction
//!   diodes; voltage-controlled switches; R, C, V, I.
//! * **Transient analysis** with trapezoidal integration (backward-Euler
//!   start-up) and automatic step halving on non-convergence. It returns
//!   the operating points at the instants the caller reads, snapped to
//!   the output grid, not whole waveforms.
//!
//! One [`Simulator`] serves every analysis of a measurement: the stamp
//! plan and symbolic analysis are built once per netlist, and the stimuli
//! of each analysis are source overrides
//! ([`Simulator::override_source`], [`Simulator::clear_override`]).
//!
//! ## Example: an inverter at both input levels
//!
//! ```
//! use dotm_netlist::{MosType, MosfetParams, Netlist, Waveform};
//! use dotm_sim::Simulator;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut nl = Netlist::new("inv");
//! let vdd = nl.node("vdd");
//! let vin = nl.node("in");
//! let out = nl.node("out");
//! let gnd = Netlist::GROUND;
//! nl.add_vsource("VDD", vdd, gnd, Waveform::dc(5.0))?;
//! nl.add_vsource("VIN", vin, gnd, Waveform::dc(0.0))?;
//! nl.add_mosfet("MP", out, vin, vdd, vdd, MosType::Pmos, MosfetParams::pmos_default())?;
//! nl.add_mosfet("MN", out, vin, gnd, gnd, MosType::Nmos, MosfetParams::nmos_default())?;
//! let mut sim = Simulator::new(&nl);
//! let low = sim.dc_op()?;
//! assert!(low.voltage(out) > 4.9); // input low → output high
//! sim.override_source("VIN", 5.0)?;
//! let high = sim.dc_op_from(low.unknowns())?;
//! assert!(high.voltage(out) < 0.1); // input high → output low
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod matrix;
mod models;
mod sparse;
mod stats;

pub use engine::{Integration, OpPoint, SimOptions, Simulator};
pub use error::SimError;
pub use matrix::{DenseMatrix, LuFactors, SingularInfo};
pub use models::{diode_eval, mosfet_eval, switch_eval, MosChannel, VT_THERMAL};
pub use sparse::{SparseLu, SparseMatrix};
pub use stats::SimStats;
