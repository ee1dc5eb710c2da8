//! # dotm-layout — mask-level layout geometry for defect simulation
//!
//! The paper's defect simulator (VLASIC) works on real mask geometry: spot
//! defects are sprinkled over a cell's layout and their electrical effect is
//! decided geometrically. This crate provides that substrate:
//!
//! * [`Rect`] — integer-nanometre rectilinear geometry with the severing
//!   rules missing-material defects need;
//! * [`Layer`] — the single-poly double-metal CMOS stack of the paper's
//!   0.8 µm-era process;
//! * [`Layout`] — net-tagged shapes plus transistor-channel records
//!   ([`TransistorGeom`]) and terminal landing pads ([`Pin`]);
//! * [`SpatialIndex`] — per-layer uniform grid making 10-million-defect
//!   sprinkles O(defects);
//! * [`connect`] — geometric connectivity: [`connect::extract`] verifies a
//!   layout against its net tags, [`connect::open_partition`] decides
//!   whether a missing-material defect electrically splits a net and which
//!   device terminals end up on each side.
//!
//! ```
//! use dotm_layout::{connect, Layer, Layout, Rect, SpatialIndex};
//! let mut lo = Layout::new("wire-pair");
//! let a = lo.net("a");
//! let b = lo.net("b");
//! lo.wire_h(a, Layer::Metal1, 0, 10_000, 0, 700);
//! lo.wire_h(b, Layer::Metal1, 0, 10_000, 1_400, 700);
//! let idx = SpatialIndex::build(&lo);
//! let extracted = connect::extract(&lo, &idx);
//! assert!(extracted.violations.is_empty());
//! // A 2 µm extra-metal defect between the wires would bridge them:
//! let defect = Rect::square(5_000, 700, 2_000);
//! assert_eq!(idx.query(&lo, Layer::Metal1, &defect).len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connect;
mod geom;
mod index;
mod layer;
mod layout;
mod render;

pub use connect::{ExtractViolation, Extracted, OpenPartition, UnionFind};
pub use geom::Rect;
pub use index::{NetSummary, SpatialIndex};
pub use layer::Layer;
pub use layout::{ChannelType, Layout, NetId, Pin, Shape, ShapeId, TransistorGeom};
pub use render::{render_svg, RenderOptions};
