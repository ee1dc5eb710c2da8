//! Uniform-grid spatial index over a layout's shapes.
//!
//! The defect sprinkler performs tens of millions of point/rect queries;
//! a per-layer uniform grid makes each query O(shapes in the local cell)
//! instead of O(all shapes). Each layer's grid is two flat arrays — cell
//! offsets into one array of shape ids, the compressed-row layout — plus a
//! per-cell [`NetSummary`], so a query over cells that hold no shape or
//! only one net's shapes is answered without touching a shape. The
//! hand-rolled bench `cargo bench -p dotm-bench --bench engine -- sprinkle`
//! compares the index against a linear scan.

use crate::geom::Rect;
use crate::layer::Layer;
use crate::layout::{Layout, NetId, ShapeId};
use std::cmp::Ordering;

/// How many distinct nets a set of shapes carries: none, exactly one, or
/// several.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetSummary {
    /// No shape.
    Empty,
    /// Shapes of exactly one net.
    One(NetId),
    /// Shapes of at least two nets.
    Several,
}

/// A [`NetSummary`] as the range of the shapes' net numbers: empty when
/// `lo > hi`, one net when `lo == hi`. Adding a shape or merging two sets
/// is a `min` and a `max`, with no branch.
#[derive(Debug, Clone, Copy)]
struct NetRange {
    lo: u32,
    hi: u32,
}

impl NetRange {
    const EMPTY: NetRange = NetRange {
        lo: u32::MAX,
        hi: 0,
    };

    fn with(self, net: NetId) -> NetRange {
        NetRange {
            lo: self.lo.min(net.0),
            hi: self.hi.max(net.0),
        }
    }

    fn union(self, other: NetRange) -> NetRange {
        NetRange {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    fn summary(self) -> NetSummary {
        match self.lo.cmp(&self.hi) {
            Ordering::Greater => NetSummary::Empty,
            Ordering::Equal => NetSummary::One(NetId(self.lo)),
            Ordering::Less => NetSummary::Several,
        }
    }
}

/// One layer's grid in compressed-row form: the shapes touching cell `c`
/// are `shapes[starts[c]..starts[c + 1]]`, in shape order, and `nets[c]`
/// summarises their nets.
#[derive(Debug, Clone)]
struct LayerGrid {
    starts: Vec<u32>,
    shapes: Vec<ShapeId>,
    nets: Vec<NetRange>,
}

impl LayerGrid {
    fn cell(&self, c: usize) -> &[ShapeId] {
        &self.shapes[self.starts[c] as usize..self.starts[c + 1] as usize]
    }
}

/// A per-layer uniform-grid index over the shapes of one [`Layout`].
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    origin_x: i64,
    origin_y: i64,
    /// `⌈2³² / pitch⌉`: a cell number is a multiply and a shift, not a
    /// 64-bit division.
    recip: u64,
    nx: usize,
    ny: usize,
    layers: Vec<LayerGrid>,
}

impl SpatialIndex {
    /// Default grid pitch: 2 µm.
    pub const DEFAULT_CELL: i64 = 2_000;

    /// Builds an index with the default grid pitch.
    pub fn build(layout: &Layout) -> Self {
        Self::build_with_cell(layout, Self::DEFAULT_CELL)
    }

    /// Builds an index with an explicit grid pitch (nm).
    ///
    /// # Panics
    /// Panics if `cell <= 0`.
    pub fn build_with_cell(layout: &Layout, cell: i64) -> Self {
        assert!(cell > 0, "grid pitch must be positive");
        let bbox = layout
            .bbox()
            .unwrap_or(Rect::new(0, 0, 1, 1))
            .expanded(cell);
        let mut index = SpatialIndex {
            origin_x: bbox.x0,
            origin_y: bbox.y0,
            recip: (1u64 << 32).div_ceil(cell as u64),
            nx: 0,
            ny: 0,
            layers: Vec::with_capacity(Layer::ALL.len()),
        };
        let (cx, cy) = index.cell_of(bbox.x1, bbox.y1);
        let (nx, ny) = (cx + 1, cy + 1);
        (index.nx, index.ny) = (nx, ny);
        for layer in Layer::ALL {
            let on_layer = || {
                layout
                    .shapes()
                    .iter()
                    .enumerate()
                    .filter(move |(_, s)| s.layer == layer)
            };
            // Two passes: count each cell's shapes, then place them.
            let mut starts = vec![0u32; nx * ny + 1];
            let mut nets = vec![NetRange::EMPTY; nx * ny];
            for (_, shape) in on_layer() {
                for c in index.cells(&shape.rect) {
                    starts[c + 1] += 1;
                    nets[c] = nets[c].with(shape.net);
                }
            }
            for c in 0..nx * ny {
                starts[c + 1] += starts[c];
            }
            let mut fill = starts.clone();
            let mut shapes = vec![ShapeId(0); starts[nx * ny] as usize];
            for (i, shape) in on_layer() {
                for c in index.cells(&shape.rect) {
                    shapes[fill[c] as usize] = ShapeId(i as u32);
                    fill[c] += 1;
                }
            }
            index.layers.push(LayerGrid {
                starts,
                shapes,
                nets,
            });
        }
        index
    }

    /// The grid column and row of a point. Any non-decreasing map from
    /// coordinates to cells keeps the index exact, as long as building
    /// and querying use the same one: a shape and a query rectangle that
    /// touch share a point, and that point's cell lies in both ranges.
    /// The rounded-up reciprocal gives `⌊d / pitch⌋` exactly for offsets
    /// `d` below `2³² / pitch` (2 mm at the default pitch); farther out the
    /// cells shrink by a fraction of a nanometre each, which changes nothing
    /// else.
    fn cell_of(&self, x: i64, y: i64) -> (usize, usize) {
        let cell = |d: i64| ((d.clamp(0, u32::MAX.into()) as u64 * self.recip) >> 32) as usize;
        (cell(x - self.origin_x), cell(y - self.origin_y))
    }

    /// The row-major numbers of the grid cells `rect` touches, clamped to
    /// the grid, row by row.
    fn cells(&self, rect: &Rect) -> impl Iterator<Item = usize> {
        let (cx0, cy0) = self.cell_of(rect.x0, rect.y0);
        let (cx1, cy1) = self.cell_of(rect.x1, rect.y1);
        let (cx1, cy1) = ((cx1 + 1).min(self.nx), (cy1 + 1).min(self.ny));
        let nx = self.nx;
        (cy0..cy1).flat_map(move |cy| cy * nx + cx0..cy * nx + cx1)
    }

    /// Calls `f` for every shape id on `layer` whose grid cells intersect
    /// `query`, stopping at the first for which `f` returns `true`;
    /// returns whether it did. A shape spanning several cells may be
    /// offered more than once.
    pub fn any_candidate(
        &self,
        layer: Layer,
        query: &Rect,
        mut f: impl FnMut(ShapeId) -> bool,
    ) -> bool {
        let grid = &self.layers[layer.index()];
        self.cells(query)
            .any(|c| grid.cell(c).iter().any(|&id| f(id)))
    }

    /// Calls `f` for every shape id on `layer` whose grid cells intersect
    /// `query`. A shape spanning several cells may be reported more than
    /// once; callers that need uniqueness should deduplicate (see
    /// [`SpatialIndex::query`]).
    pub fn for_each_candidate(&self, layer: Layer, query: &Rect, mut f: impl FnMut(ShapeId)) {
        let grid = &self.layers[layer.index()];
        for c in self.cells(query) {
            grid.cell(c).iter().for_each(|&id| f(id));
        }
    }

    /// The nets of every shape on `layer` whose grid cells intersect
    /// `query`: a bound on [`SpatialIndex::nets_touching`] read from the
    /// per-cell summaries alone, without loading a shape.
    pub fn cell_nets(&self, layer: Layer, query: &Rect) -> NetSummary {
        let nets = &self.layers[layer.index()].nets;
        self.cells(query)
            .fold(NetRange::EMPTY, |acc, c| acc.union(nets[c]))
            .summary()
    }

    /// The nets of the shapes on `layer` whose rectangles touch `query`,
    /// without allocating.
    pub fn nets_touching(&self, layout: &Layout, layer: Layer, query: &Rect) -> NetSummary {
        let grid = &self.layers[layer.index()];
        let mut acc = NetRange::EMPTY;
        for c in self.cells(query) {
            for &id in grid.cell(c) {
                let shape = layout.shape(id);
                if shape.rect.touches(query) {
                    acc = acc.with(shape.net);
                }
            }
        }
        acc.summary()
    }

    /// Returns the deduplicated shapes on `layer` whose rectangles touch
    /// `query`.
    pub fn query(&self, layout: &Layout, layer: Layer, query: &Rect) -> Vec<ShapeId> {
        let mut out = Vec::new();
        self.for_each_candidate(layer, query, |id| {
            if layout.shape(id).rect.touches(query) {
                out.push(id);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Like [`SpatialIndex::query`] but requiring strict interior overlap.
    pub fn query_overlapping(&self, layout: &Layout, layer: Layer, query: &Rect) -> Vec<ShapeId> {
        let mut out = Vec::new();
        self.for_each_candidate(layer, query, |id| {
            if layout.shape(id).rect.overlaps(query) {
                out.push(id);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;

    fn grid_layout() -> Layout {
        let mut lo = Layout::new("grid");
        for i in 0..10 {
            let net = lo.net(&format!("n{i}"));
            // Horizontal metal1 wires 10 µm long, 0.7 µm wide, 2 µm pitch.
            lo.wire_h(net, Layer::Metal1, 0, 10_000, i * 2_000, 700);
        }
        lo
    }

    #[test]
    fn query_finds_touching_wires() {
        let lo = grid_layout();
        let idx = SpatialIndex::build(&lo);
        // A 1 µm square centred between wires 2 and 3 touches neither.
        let q = Rect::square(5_000, 5_000, 800);
        assert!(idx.query(&lo, Layer::Metal1, &q).is_empty());
        // A 3 µm square centred on wire 2 touches wires 2 and 3.
        let q = Rect::square(5_000, 4_500, 3_000);
        let hits = idx.query(&lo, Layer::Metal1, &q);
        assert_eq!(hits.len(), 2);
    }

    /// The exact answer by a linear scan over all shapes.
    fn scan(lo: &Layout, layer: Layer, q: &Rect) -> (Vec<ShapeId>, NetSummary) {
        let mut ids = Vec::new();
        let mut nets = Vec::new();
        for (i, sh) in lo.shapes().iter().enumerate() {
            if sh.layer == layer && sh.rect.touches(q) {
                ids.push(ShapeId(i as u32));
                nets.push(sh.net);
            }
        }
        nets.sort_unstable();
        nets.dedup();
        let summary = match nets[..] {
            [] => NetSummary::Empty,
            [net] => NetSummary::One(net),
            _ => NetSummary::Several,
        };
        (ids, summary)
    }

    #[test]
    fn query_matches_linear_scan() {
        let lo = grid_layout();
        let idx = SpatialIndex::build_with_cell(&lo, 1_500);
        for (cx, cy, s) in [
            (0i64, 0i64, 500i64),
            (5_000, 3_000, 2_500),
            (9_900, 18_000, 4_000),
            (-500, -500, 200),
            (12_000, 9_000, 6_000),
            (5_000, 0, 100),
            (5_000, 1_000, 600),
        ] {
            let q = Rect::square(cx, cy, s);
            let (ids, nets) = scan(&lo, Layer::Metal1, &q);
            assert_eq!(
                idx.query(&lo, Layer::Metal1, &q),
                ids,
                "mismatch at ({cx},{cy}) size {s}"
            );
            assert_eq!(idx.nets_touching(&lo, Layer::Metal1, &q), nets);
            // The cell summary bounds the exact answer from above.
            match idx.cell_nets(Layer::Metal1, &q) {
                NetSummary::Empty => assert_eq!(nets, NetSummary::Empty),
                NetSummary::One(n) => {
                    assert!(nets == NetSummary::Empty || nets == NetSummary::One(n))
                }
                NetSummary::Several => {}
            }
        }
    }

    #[test]
    fn cell_summaries_count_nets() {
        let lo = grid_layout();
        let idx = SpatialIndex::build(&lo);
        let n0 = lo.find_net("n0").unwrap();
        // The grid starts one pitch below the bbox (y = -2.35 µm): its
        // first row holds no wire, its second row wire n0 alone.
        let empty = Rect::square(5_000, -1_900, 10);
        assert_eq!(idx.cell_nets(Layer::Metal1, &empty), NetSummary::Empty);
        let beside = Rect::square(5_000, 1_000, 10);
        assert_eq!(idx.cell_nets(Layer::Metal1, &beside), NetSummary::One(n0));
        assert_eq!(
            idx.nets_touching(&lo, Layer::Metal1, &beside),
            NetSummary::Empty
        );
        let on = Rect::square(5_000, 0, 10);
        assert_eq!(
            idx.nets_touching(&lo, Layer::Metal1, &on),
            NetSummary::One(n0)
        );
        let wide = Rect::square(5_000, 9_000, 8_000);
        assert_eq!(idx.cell_nets(Layer::Metal1, &wide), NetSummary::Several);
        assert_eq!(idx.cell_nets(Layer::Poly, &wide), NetSummary::Empty);
    }

    #[test]
    fn cell_numbers_are_exact_quotients_within_range() {
        let lo = grid_layout();
        for cell in [300, 1_500, 2_000, 4_096] {
            let idx = SpatialIndex::build_with_cell(&lo, cell);
            let limit = (1i64 << 32) / cell;
            let offsets = (0..50_000).chain((0..50_000).map(|i| limit - 1 - i * (limit / 50_000)));
            for d in offsets.filter(|&d| d >= 0) {
                let (cx, _) = idx.cell_of(idx.origin_x + d, idx.origin_y);
                assert_eq!(cx as i64, d / cell, "pitch {cell}, offset {d}");
            }
        }
    }

    #[test]
    fn empty_layout_does_not_panic() {
        let lo = Layout::new("empty");
        let idx = SpatialIndex::build(&lo);
        let q = Rect::new(0, 0, 10, 10);
        assert!(idx.query(&lo, Layer::Metal1, &q).is_empty());
        assert_eq!(idx.cell_nets(Layer::Metal1, &q), NetSummary::Empty);
        assert_eq!(idx.nets_touching(&lo, Layer::Metal1, &q), NetSummary::Empty);
    }

    #[test]
    fn overlapping_excludes_edge_touch() {
        let mut lo = Layout::new("t");
        let a = lo.net("a");
        lo.add_rect(a, Layer::Poly, Rect::new(0, 0, 100, 100));
        let idx = SpatialIndex::build(&lo);
        let edge = Rect::new(100, 0, 200, 100);
        assert_eq!(idx.query(&lo, Layer::Poly, &edge).len(), 1);
        assert!(idx.query_overlapping(&lo, Layer::Poly, &edge).is_empty());
    }
}
