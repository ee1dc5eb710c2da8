//! Geometric connectivity: extraction/verification and open-fault
//! partitioning.
//!
//! Connectivity rules of the reference process:
//!
//! * shapes on the same conductor layer connect where they touch;
//! * a [`Layer::Contact`] cut connects overlapping [`Layer::Metal1`] to
//!   overlapping [`Layer::Poly`] or [`Layer::Active`];
//! * a [`Layer::Via`] cut connects overlapping [`Layer::Metal1`] to
//!   [`Layer::Metal2`];
//! * poly crossing active forms a transistor channel, **not** a connection.

use crate::geom::Rect;
use crate::index::SpatialIndex;
use crate::layer::Layer;
use crate::layout::{Layout, NetId, Pin, ShapeId};
use std::collections::HashMap;

/// Disjoint-set forest over `n` elements.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Finds the representative of `i` (with path halving).
    pub fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] as usize != i {
            let gp = self.parent[self.parent[i] as usize];
            self.parent[i] = gp;
            i = gp as usize;
        }
        i
    }

    /// Merges the sets of `a` and `b`.
    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb as u32,
            std::cmp::Ordering::Greater => self.parent[rb] = ra as u32,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra as u32;
                self.rank[ra] += 1;
            }
        }
    }

    /// `true` if `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// A connectivity violation found by [`extract`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractViolation {
    /// Two differently-tagged nets are geometrically connected.
    Bridged {
        /// The two net tags found in one connected component.
        nets: (NetId, NetId),
    },
    /// One net's shapes form more than one connected component.
    SplitNet {
        /// The net in question.
        net: NetId,
        /// Number of disconnected components found.
        components: usize,
    },
}

/// Result of layout extraction.
#[derive(Debug, Clone)]
pub struct Extracted {
    /// Connected components as lists of shape ids.
    pub components: Vec<Vec<ShapeId>>,
    /// Disagreements between geometry and net tags.
    pub violations: Vec<ExtractViolation>,
}

/// Which conductor layers a cut connects when it overlaps them.
fn cut_targets(layer: Layer) -> &'static [Layer] {
    match layer {
        Layer::Contact => &[Layer::Metal1, Layer::Poly, Layer::Active],
        Layer::Via => &[Layer::Metal1, Layer::Metal2],
        _ => &[],
    }
}

/// Extracts geometric connectivity over the whole layout and cross-checks
/// it against the generator's net tags. A defect-free procedural layout
/// must extract with zero violations — the ADC macro layouts are tested
/// against exactly this.
pub fn extract(layout: &Layout, index: &SpatialIndex) -> Extracted {
    let n = layout.shape_count();
    let mut uf = UnionFind::new(n);
    for (i, s) in layout.shapes().iter().enumerate() {
        if s.layer.is_conductor() {
            for other in index.query(layout, s.layer, &s.rect) {
                uf.union(i, other.index());
            }
        } else if s.layer.is_cut() {
            for &target in cut_targets(s.layer) {
                for other in index.query_overlapping(layout, target, &s.rect) {
                    uf.union(i, other.index());
                }
            }
        }
        // Nwell participates in no connectivity.
    }

    let mut comp_map: HashMap<usize, usize> = HashMap::new();
    let mut components: Vec<Vec<ShapeId>> = Vec::new();
    for i in 0..n {
        let root = uf.find(i);
        let slot = *comp_map.entry(root).or_insert_with(|| {
            components.push(Vec::new());
            components.len() - 1
        });
        components[slot].push(ShapeId(i as u32));
    }

    let mut violations = Vec::new();
    // Bridged: one component, several nets. Skip Nwell shapes: wells carry
    // a bulk tag but are not connectivity participants.
    for comp in &components {
        let mut nets: Vec<NetId> = comp
            .iter()
            .map(|&id| layout.shape(id))
            .filter(|s| s.layer != Layer::Nwell)
            .map(|s| s.net)
            .collect();
        nets.sort_unstable();
        nets.dedup();
        if nets.len() > 1 {
            violations.push(ExtractViolation::Bridged {
                nets: (nets[0], nets[1]),
            });
        }
    }
    // Split: one net, several components.
    let mut comps_of_net: HashMap<NetId, Vec<usize>> = HashMap::new();
    for (ci, comp) in components.iter().enumerate() {
        let mut nets: Vec<NetId> = comp
            .iter()
            .map(|&id| layout.shape(id))
            .filter(|s| s.layer != Layer::Nwell)
            .map(|s| s.net)
            .collect();
        nets.sort_unstable();
        nets.dedup();
        for net in nets {
            comps_of_net.entry(net).or_default().push(ci);
        }
    }
    for (net, comps) in comps_of_net {
        if comps.len() > 1 {
            violations.push(ExtractViolation::SplitNet {
                net,
                components: comps.len(),
            });
        }
    }
    Extracted {
        components,
        violations,
    }
}

/// The two (or more) sides of an open fault: device terminals grouped by
/// the surviving connected component they land on.
#[derive(Debug, Clone)]
pub struct OpenPartition {
    /// Terminal groups; each inner vec holds the pins of one side.
    /// Pins that lost all their metal are reported as singleton groups.
    pub groups: Vec<Vec<Pin>>,
}

/// Analyses a missing-material defect (`defect` rect removed from
/// `cut_layer`) against one net: returns the terminal partition if the
/// defect electrically splits the net, `None` if the net survives
/// connected (defect missed, only nibbled an edge, or a redundant path
/// exists).
pub fn open_partition(
    layout: &Layout,
    net: NetId,
    cut_layer: Layer,
    defect: &Rect,
) -> Option<OpenPartition> {
    // Local modified copy of the net's shapes.
    let mut pieces: Vec<(Layer, Rect)> = Vec::new();
    let mut severed_any = false;
    for s in layout.shapes().iter().filter(|s| s.net == net) {
        if s.layer == cut_layer {
            if s.layer.is_cut() {
                // A missing cut is removed only when fully covered.
                if defect.contains(&s.rect) {
                    severed_any = true;
                    continue;
                }
                pieces.push((s.layer, s.rect));
            } else {
                match s.rect.sever(defect) {
                    Some(remains) => {
                        severed_any = true;
                        for r in remains {
                            pieces.push((s.layer, r));
                        }
                    }
                    None => pieces.push((s.layer, s.rect)),
                }
            }
        } else {
            pieces.push((s.layer, s.rect));
        }
    }
    if !severed_any {
        return None;
    }

    // Union-find over the modified pieces (the per-net piece count is small,
    // so the O(n²) pairing is fine here).
    let n = pieces.len();
    let mut uf = UnionFind::new(n.max(1));
    for i in 0..n {
        for j in (i + 1)..n {
            let (la, ra) = pieces[i];
            let (lb, rb) = pieces[j];
            let connected = if la == lb && la.is_conductor() {
                ra.touches(&rb)
            } else if la.is_cut() && cut_targets(la).contains(&lb) {
                ra.overlaps(&rb)
            } else if lb.is_cut() && cut_targets(lb).contains(&la) {
                rb.overlaps(&ra)
            } else {
                false
            };
            if connected {
                uf.union(i, j);
            }
        }
    }

    // Assign pins to components.
    let mut groups: HashMap<isize, Vec<Pin>> = HashMap::new();
    let mut orphan = -1isize;
    for pin in layout.pins_of_net(net) {
        let mut comp: Option<usize> = None;
        for (i, (l, r)) in pieces.iter().enumerate() {
            if *l == pin.layer && r.touches(&pin.at) {
                comp = Some(uf.find(i));
                break;
            }
        }
        match comp {
            Some(c) => groups.entry(c as isize).or_default().push(pin.clone()),
            None => {
                groups.insert(orphan, vec![pin.clone()]);
                orphan -= 1;
            }
        }
    }
    if groups.len() < 2 {
        return None; // redundant path kept everything connected
    }
    let mut groups: Vec<Vec<Pin>> = groups.into_values().collect();
    // Deterministic order: largest group (the "main" side) first, then by
    // the groups' (device, terminal) lists. The map's iteration order is
    // random, so the order must be total: two one-pin groups on the same
    // device differ only in their terminals.
    fn pins(g: &[Pin]) -> impl Iterator<Item = (&str, usize)> {
        g.iter().map(|p| (p.device.as_str(), p.terminal))
    }
    groups.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| pins(a).cmp(pins(b))));
    Some(OpenPartition { groups })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(!uf.same(0, 1));
        uf.union(0, 1);
        uf.union(3, 4);
        assert!(uf.same(0, 1));
        assert!(uf.same(4, 3));
        assert!(!uf.same(1, 3));
        uf.union(1, 3);
        assert!(uf.same(0, 4));
    }

    /// Two metal1 wires joined by metal2 through two vias, with pins at the
    /// far ends.
    fn strap_layout() -> Layout {
        let mut lo = Layout::new("strap");
        let a = lo.net("a");
        lo.wire_h(a, Layer::Metal1, 0, 4_000, 0, 700);
        lo.wire_h(a, Layer::Metal1, 6_000, 10_000, 0, 700);
        lo.wire_h(a, Layer::Metal2, 3_500, 6_500, 0, 900);
        lo.add_via(a, 3_800, 0, 500);
        lo.add_via(a, 6_200, 0, 500);
        lo.add_pin(Pin {
            device: "D0".into(),
            terminal: 0,
            net: a,
            layer: Layer::Metal1,
            at: Rect::new(0, -350, 200, 350),
        });
        lo.add_pin(Pin {
            device: "D1".into(),
            terminal: 0,
            net: a,
            layer: Layer::Metal1,
            at: Rect::new(9_800, -350, 10_000, 350),
        });
        lo
    }

    #[test]
    fn extract_accepts_clean_layout() {
        let lo = strap_layout();
        let idx = SpatialIndex::build(&lo);
        let ex = extract(&lo, &idx);
        assert!(ex.violations.is_empty(), "{:?}", ex.violations);
        // All five shapes form one component.
        assert_eq!(ex.components.iter().filter(|c| c.len() > 1).count(), 1);
    }

    #[test]
    fn extract_flags_bridge() {
        let mut lo = strap_layout();
        let b = lo.net("b");
        // A second net overlapping the first on metal1.
        lo.wire_h(b, Layer::Metal1, 2_000, 3_000, 0, 700);
        let idx = SpatialIndex::build(&lo);
        let ex = extract(&lo, &idx);
        assert!(ex
            .violations
            .iter()
            .any(|v| matches!(v, ExtractViolation::Bridged { .. })));
    }

    #[test]
    fn extract_flags_split_net() {
        let mut lo = Layout::new("split");
        let a = lo.net("a");
        lo.wire_h(a, Layer::Metal1, 0, 1_000, 0, 700);
        lo.wire_h(a, Layer::Metal1, 5_000, 6_000, 0, 700);
        let idx = SpatialIndex::build(&lo);
        let ex = extract(&lo, &idx);
        assert!(ex
            .violations
            .iter()
            .any(|v| matches!(v, ExtractViolation::SplitNet { components: 2, .. })));
    }

    #[test]
    fn open_partition_splits_cut_wire() {
        let lo = strap_layout();
        let a = lo.find_net("a").unwrap();
        // Cut the left metal1 wire in the middle.
        let defect = Rect::new(1_900, -400, 2_300, 400);
        let part = open_partition(&lo, a, Layer::Metal1, &defect).unwrap();
        assert_eq!(part.groups.len(), 2);
        let names: Vec<&str> = part.groups.iter().map(|g| g[0].device.as_str()).collect();
        assert!(names.contains(&"D0") && names.contains(&"D1"));
    }

    #[test]
    fn open_partition_none_when_missed() {
        let lo = strap_layout();
        let a = lo.find_net("a").unwrap();
        let defect = Rect::new(1_900, 5_000, 2_300, 5_400);
        assert!(open_partition(&lo, a, Layer::Metal1, &defect).is_none());
    }

    #[test]
    fn open_partition_none_with_redundant_path() {
        let mut lo = strap_layout();
        let a = lo.find_net("a").unwrap();
        // Add a redundant metal2 strap over the left wire's cut position.
        lo.wire_h(a, Layer::Metal2, 1_000, 3_000, 0, 900);
        lo.add_via(a, 1_200, 0, 500);
        lo.add_via(a, 2_800, 0, 500);
        let defect = Rect::new(1_900, -400, 2_300, 400);
        assert!(open_partition(&lo, a, Layer::Metal1, &defect).is_none());
    }

    #[test]
    fn missing_via_opens_strap() {
        let lo = strap_layout();
        let a = lo.find_net("a").unwrap();
        // Remove the left via completely.
        let defect = Rect::square(3_800, 0, 1_000);
        let part = open_partition(&lo, a, Layer::Via, &defect).unwrap();
        assert_eq!(part.groups.len(), 2);
    }

    #[test]
    fn partial_via_damage_is_not_an_open() {
        let lo = strap_layout();
        let a = lo.find_net("a").unwrap();
        // A defect overlapping but not covering the via.
        let defect = Rect::new(3_700, -100, 3_850, 100);
        assert!(open_partition(&lo, a, Layer::Via, &defect).is_none());
    }
}
