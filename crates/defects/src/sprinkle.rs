//! The Monte-Carlo defect sprinkler: VLASIC's core loop.
//!
//! Defects are sampled (kind, size, position), dropped on the layout, and
//! classified geometrically into circuit-level faults. Most defects land on
//! empty field or inside a single net and cause no fault at all — exactly
//! as in the paper, where 25,000 sprinkled defects yielded a few hundred
//! catastrophic faults.

use crate::fault::{BridgeMedium, Fault, FaultEffect, FaultMechanism, TerminalName};
use crate::kinds::{Defect, DefectKind, DefectStatistics, KindSampler};
use dotm_layout::{connect, Layer, Layout, NetId, NetSummary, Rect, SpatialIndex};
use dotm_rng::rngs::StdRng;
use dotm_rng::{Rng, SeedableRng};

/// Defects sampled and classified per batch: the sprinkle holds at most
/// this many defects at any `n`.
const CHUNK: usize = 1024;

/// Outcome of a sprinkle run.
#[derive(Debug, Clone)]
pub struct SprinkleReport {
    /// Number of defects sprinkled.
    pub defects: usize,
    /// The faults caused (one per fault-causing defect).
    pub faults: Vec<Fault>,
}

impl SprinkleReport {
    /// Fraction of defects that caused a fault.
    pub fn fault_rate(&self) -> f64 {
        if self.defects == 0 {
            0.0
        } else {
            self.faults.len() as f64 / self.defects as f64
        }
    }
}

/// A defect sprinkler bound to one cell layout.
///
/// ```
/// use dotm_defects::{DefectStatistics, Sprinkler};
/// use dotm_layout::{Layer, Layout};
/// let mut lo = Layout::new("pair");
/// let gnd = lo.net("gnd");
/// lo.set_substrate_net(gnd);
/// let a = lo.net("a");
/// let b = lo.net("b");
/// lo.wire_h(a, Layer::Metal1, 0, 50_000, 0, 700);
/// lo.wire_h(b, Layer::Metal1, 0, 50_000, 1_600, 700);
/// let sprinkler = Sprinkler::new(&lo, DefectStatistics::default());
/// let report = sprinkler.sprinkle(20_000, 42);
/// assert!(!report.faults.is_empty()); // two long parallel wires short often
/// ```
#[derive(Debug)]
pub struct Sprinkler<'a> {
    layout: &'a Layout,
    index: SpatialIndex,
    stats: DefectStatistics,
    area: Rect,
    kinds: KindSampler,
    /// `stats.size.norm()`, computed once.
    size_norm: f64,
}

impl<'a> Sprinkler<'a> {
    /// Builds a sprinkler (and its spatial index) over a layout.
    ///
    /// # Panics
    /// Panics if the layout is empty.
    pub fn new(layout: &'a Layout, stats: DefectStatistics) -> Self {
        let bbox = layout.bbox().expect("cannot sprinkle an empty layout");
        // Sprinkle over the cell plus half the largest defect size of
        // margin, so edge defects are not under-counted.
        let area = bbox.expanded(stats.size.xmax / 2);
        Sprinkler {
            layout,
            index: SpatialIndex::build(layout),
            kinds: KindSampler::new(&stats),
            size_norm: stats.size.norm(),
            stats,
            area,
        }
    }

    /// The layout under test.
    pub fn layout(&self) -> &Layout {
        self.layout
    }

    /// The statistics in force.
    pub fn statistics(&self) -> &DefectStatistics {
        &self.stats
    }

    /// Area of the sprinkle rectangle (the layout bounding box plus half
    /// the largest defect size on every side) in nm², the denominator of
    /// every fault density the pipeline reports.
    pub fn area_nm2(&self) -> f64 {
        self.area.area() as f64
    }

    /// Samples one defect.
    pub fn sample_defect(&self, rng: &mut impl Rng) -> Defect {
        Defect {
            kind: self.kinds.sample(rng),
            x: rng.gen_range(self.area.x0..=self.area.x1),
            y: rng.gen_range(self.area.y0..=self.area.y1),
            size: self.stats.size.sample_normed(self.size_norm, rng),
        }
    }

    /// Sprinkles `n` defects with a deterministic seed and collects the
    /// resulting faults.
    pub fn sprinkle(&self, n: usize, seed: u64) -> SprinkleReport {
        let mut faults = Vec::new();
        self.for_each_fault(n, seed, |fault| faults.push(fault));
        SprinkleReport { defects: n, faults }
    }

    /// The one sprinkle loop: samples `n` defects from `seed` and hands
    /// every fault to `sink` in defect order. Defects are sampled in
    /// chunks of [`CHUNK`]; each chunk is classified grouped by kind, and
    /// its faults are then passed on in the order their defects were
    /// drawn, so a collapse keeps each class's first representative.
    pub(crate) fn for_each_fault(&self, n: usize, seed: u64, mut sink: impl FnMut(Fault)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut defects = Vec::with_capacity(CHUNK.min(n));
        let mut by_kind = vec![0u32; CHUNK.min(n)];
        let mut hits: Vec<(u32, Fault)> = Vec::new();
        let mut done = 0;
        while done < n {
            let m = CHUNK.min(n - done);
            defects.clear();
            defects.extend((0..m).map(|_| self.sample_defect(&mut rng)));
            // Counting sort of the chunk's defect numbers by kind.
            let mut starts = [0usize; DefectKind::ALL.len() + 1];
            for d in &defects {
                starts[d.kind as usize + 1] += 1;
            }
            for k in 0..DefectKind::ALL.len() {
                starts[k + 1] += starts[k];
            }
            for (i, d) in defects.iter().enumerate() {
                by_kind[starts[d.kind as usize]] = i as u32;
                starts[d.kind as usize] += 1;
            }
            hits.extend(
                by_kind[..m]
                    .iter()
                    .filter_map(|&i| Some((i, self.classify(&defects[i as usize])?))),
            );
            hits.sort_unstable_by_key(|&(i, _)| i);
            hits.drain(..).for_each(|(_, fault)| sink(fault));
            done += m;
        }
    }

    /// Classifies a single defect into a circuit-level fault, if any.
    pub fn classify(&self, defect: &Defect) -> Option<Fault> {
        let spot = Rect::square(defect.x, defect.y, defect.size);
        match defect.kind {
            DefectKind::ExtraMetal1 => self.extra_material(defect, &spot, Layer::Metal1),
            DefectKind::ExtraMetal2 => self.extra_material(defect, &spot, Layer::Metal2),
            DefectKind::ExtraPoly => self
                .extra_material(defect, &spot, Layer::Poly)
                .or_else(|| self.new_device(defect, &spot)),
            DefectKind::ExtraActive => self.extra_material(defect, &spot, Layer::Active),
            DefectKind::MissingMetal1 => self.missing_material(defect, &spot, Layer::Metal1),
            DefectKind::MissingMetal2 => self.missing_material(defect, &spot, Layer::Metal2),
            DefectKind::MissingPoly => self.missing_material(defect, &spot, Layer::Poly),
            DefectKind::MissingActive => self.missing_material(defect, &spot, Layer::Active),
            DefectKind::MissingContact => self.missing_material(defect, &spot, Layer::Contact),
            DefectKind::MissingVia => self.missing_material(defect, &spot, Layer::Via),
            DefectKind::GateOxidePinhole => self.gate_oxide(defect, &spot),
            DefectKind::ThickOxidePinhole => self.thick_oxide(defect, &spot),
            DefectKind::JunctionPinhole => self.junction(defect, &spot),
            DefectKind::ExtraContact => self.extra_contact(defect, &spot),
        }
    }

    /// Distinct nets with shapes on `layer` touching `spot`, sorted.
    fn net_list(&self, layer: Layer, spot: &Rect) -> Vec<NetId> {
        let mut nets = Vec::new();
        self.index.for_each_candidate(layer, spot, |id| {
            let shape = self.layout.shape(id);
            if shape.rect.touches(spot) {
                nets.push(shape.net);
            }
        });
        nets.sort_unstable();
        nets.dedup();
        nets
    }

    /// How many nets have shapes on `layer` touching `spot`, without
    /// allocating.
    fn nets_touching(&self, layer: Layer, spot: &Rect) -> NetSummary {
        self.index.nets_touching(self.layout, layer, spot)
    }

    fn net_names(&self, nets: &[NetId]) -> Vec<String> {
        let mut names: Vec<String> = nets
            .iter()
            .map(|&n| self.layout.net_name(n).to_string())
            .collect();
        names.sort();
        names
    }

    fn extra_material(&self, defect: &Defect, spot: &Rect, layer: Layer) -> Option<Fault> {
        // A bridge needs two nets: the cell summaries rule out most spots
        // before a shape is loaded.
        if self.index.cell_nets(layer, spot) != NetSummary::Several
            || self.nets_touching(layer, spot) != NetSummary::Several
        {
            return None;
        }
        let nets = self.net_list(layer, spot);
        let medium = match layer {
            Layer::Metal1 | Layer::Metal2 => BridgeMedium::Metal,
            Layer::Poly => BridgeMedium::Poly,
            Layer::Active => BridgeMedium::Diffusion,
            _ => unreachable!("extra material only on conductor layers"),
        };
        Some(Fault {
            mechanism: FaultMechanism::Short,
            effect: FaultEffect::Bridge {
                nets: self.net_names(&nets),
                medium,
            },
            defect: *defect,
        })
    }

    fn missing_material(&self, defect: &Defect, spot: &Rect, layer: Layer) -> Option<Fault> {
        // Nets with shapes on this layer near the defect; test each for a
        // genuine electrical split (deterministic net order).
        let shapes = if layer.is_cut() {
            // Cuts are removed only when fully covered.
            self.index
                .query(self.layout, layer, spot)
                .into_iter()
                .filter(|&id| spot.contains(&self.layout.shape(id).rect))
                .collect::<Vec<_>>()
        } else {
            self.index.query_overlapping(self.layout, layer, spot)
        };
        let mut nets: Vec<NetId> = shapes
            .into_iter()
            .map(|id| self.layout.shape(id).net)
            .collect();
        nets.sort_unstable();
        nets.dedup();
        for net in nets {
            if let Some(partition) = connect::open_partition(self.layout, net, layer, spot) {
                let groups: Vec<Vec<TerminalName>> = partition
                    .groups
                    .iter()
                    .map(|g| g.iter().map(|p| (p.device.clone(), p.terminal)).collect())
                    .collect();
                return Some(Fault {
                    mechanism: FaultMechanism::Open,
                    effect: FaultEffect::NodeSplit {
                        net: self.layout.net_name(net).to_string(),
                        groups,
                    },
                    defect: *defect,
                });
            }
        }
        None
    }

    fn gate_oxide(&self, defect: &Defect, spot: &Rect) -> Option<Fault> {
        let t = self
            .layout
            .transistors()
            .iter()
            .find(|t| t.channel.contains_point(defect.x, defect.y))?;
        if spot.contains(&t.channel) {
            Some(Fault {
                mechanism: FaultMechanism::ShortedDevice,
                effect: FaultEffect::DeviceShort {
                    device: t.device.clone(),
                },
                defect: *defect,
            })
        } else {
            Some(Fault {
                mechanism: FaultMechanism::GateOxidePinhole,
                effect: FaultEffect::GateOxide {
                    device: t.device.clone(),
                },
                defect: *defect,
            })
        }
    }

    fn thick_oxide(&self, defect: &Defect, spot: &Rect) -> Option<Fault> {
        // Field-oxide pinhole: conductor poly over field (not over active)
        // leaks to the bulk underneath.
        if self.nets_touching(Layer::Poly, spot) == NetSummary::Empty {
            return None;
        }
        if self.index.any_candidate(Layer::Active, spot, |id| {
            self.layout.shape(id).rect.overlaps(spot)
        }) {
            return None; // over active: that is gate/junction territory
        }
        if self
            .layout
            .transistors()
            .iter()
            .any(|t| t.channel.overlaps(spot))
        {
            return None; // over a channel: gate-oxide territory
        }
        let polys = self.net_list(Layer::Poly, spot);
        let bulk = self.bulk_net_at(defect.x, defect.y)?;
        let net = self.layout.net_name(polys[0]).to_string();
        let bulk_name = self.layout.net_name(bulk).to_string();
        if net == bulk_name {
            return None;
        }
        Some(Fault {
            mechanism: FaultMechanism::ThickOxidePinhole,
            effect: FaultEffect::BulkLeak {
                net,
                bulk: bulk_name,
            },
            defect: *defect,
        })
    }

    fn junction(&self, defect: &Defect, spot: &Rect) -> Option<Fault> {
        if self.nets_touching(Layer::Active, spot) == NetSummary::Empty {
            return None;
        }
        let net = self.net_list(Layer::Active, spot)[0];
        let bulk = self.bulk_net_at(defect.x, defect.y)?;
        if net == bulk {
            return None; // substrate/well tap — junction to itself
        }
        Some(Fault {
            mechanism: FaultMechanism::JunctionPinhole,
            effect: FaultEffect::BulkLeak {
                net: self.layout.net_name(net).to_string(),
                bulk: self.layout.net_name(bulk).to_string(),
            },
            defect: *defect,
        })
    }

    fn extra_contact(&self, defect: &Defect, spot: &Rect) -> Option<Fault> {
        // A contact bridges when a metal net and a different poly or
        // active net both touch the spot; the summaries decide that
        // before any net list is built.
        let metal = self.nets_touching(Layer::Metal1, spot);
        let bridges = |under: Layer| match (metal, self.nets_touching(under, spot)) {
            (NetSummary::Empty, _) | (_, NetSummary::Empty) => false,
            (NetSummary::One(m), NetSummary::One(u)) => m != u,
            _ => true,
        };
        if !bridges(Layer::Poly) && !bridges(Layer::Active) {
            return None;
        }
        let metals = self.net_list(Layer::Metal1, spot);
        for under in [Layer::Poly, Layer::Active] {
            let unders = self.net_list(under, spot);
            for &m in &metals {
                for &u in &unders {
                    if m != u {
                        let nets = self.net_names(&[m, u]);
                        return Some(Fault {
                            mechanism: FaultMechanism::ExtraContact,
                            effect: FaultEffect::Bridge {
                                nets,
                                medium: BridgeMedium::Contact,
                            },
                            defect: *defect,
                        });
                    }
                }
            }
        }
        None
    }

    fn new_device(&self, defect: &Defect, spot: &Rect) -> Option<Fault> {
        // Extra poly spanning a diffusion blocks the S/D implant: the net
        // splits and a parasitic FET bridges the pieces.
        if !self.index.any_candidate(Layer::Active, spot, |id| {
            self.layout.shape(id).rect.splits(spot)
        }) {
            return None;
        }
        let actives = self
            .index
            .query_overlapping(self.layout, Layer::Active, spot);
        for sid in actives {
            let shape = self.layout.shape(sid);
            if shape.rect.splits(spot) {
                if let Some(partition) =
                    connect::open_partition(self.layout, shape.net, Layer::Active, spot)
                {
                    let groups: Vec<Vec<TerminalName>> = partition
                        .groups
                        .iter()
                        .map(|g| g.iter().map(|p| (p.device.clone(), p.terminal)).collect())
                        .collect();
                    let gate = self
                        .net_list(Layer::Poly, spot)
                        .first()
                        .map(|&n| self.layout.net_name(n).to_string());
                    let n_channel = self.well_net_at(defect.x, defect.y).is_none();
                    return Some(Fault {
                        mechanism: FaultMechanism::NewDevice,
                        effect: FaultEffect::NewDevice {
                            net: self.layout.net_name(shape.net).to_string(),
                            groups,
                            gate,
                            n_channel,
                        },
                        defect: *defect,
                    });
                }
            }
        }
        None
    }

    /// The net of the well covering the point, if any.
    fn well_net_at(&self, x: i64, y: i64) -> Option<NetId> {
        let pt = Rect::new(x, y, x, y);
        self.index
            .query(self.layout, Layer::Nwell, &pt)
            .first()
            .map(|&id| self.layout.shape(id).net)
    }

    /// Bulk net at a point: the well net inside a well, else the substrate.
    fn bulk_net_at(&self, x: i64, y: i64) -> Option<NetId> {
        self.well_net_at(x, y)
            .or_else(|| self.layout.substrate_net())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dotm_layout::{ChannelType, Pin, TransistorGeom};

    /// A small cell with two parallel metal1 wires, a transistor, and a
    /// diffusion strip — enough geometry to exercise every defect rule.
    fn test_layout() -> Layout {
        let mut lo = Layout::new("probe");
        let gnd = lo.net("gnd");
        lo.set_substrate_net(gnd);
        let vdd = lo.net("vdd");
        let a = lo.net("a");
        let b = lo.net("b");
        let gate = lo.net("gate");

        // Parallel metal wires 1.6 µm apart.
        lo.wire_h(a, Layer::Metal1, 0, 40_000, 0, 700);
        lo.wire_h(b, Layer::Metal1, 0, 40_000, 1_600, 700);

        // A transistor: active strip for drain (net a) / source (net b)
        // with a poly gate between, channel at x = 10..11 µm, y = 10 µm.
        lo.add_rect(a, Layer::Active, Rect::new(7_000, 9_000, 10_000, 11_000));
        lo.add_rect(b, Layer::Active, Rect::new(11_000, 9_000, 13_000, 11_000));
        lo.wire_v(gate, Layer::Poly, 10_500, 7_000, 13_000, 1_000);
        lo.add_transistor(TransistorGeom {
            device: "M1".into(),
            ty: ChannelType::N,
            channel: Rect::new(10_000, 9_000, 11_000, 11_000),
            gate_net: gate,
            drain_net: a,
            source_net: b,
            bulk_net: gnd,
        });
        lo.add_pin(Pin {
            device: "M1".into(),
            terminal: 0,
            net: a,
            layer: Layer::Active,
            at: Rect::new(7_000, 9_000, 10_000, 11_000),
        });
        lo.add_pin(Pin {
            device: "M1".into(),
            terminal: 2,
            net: b,
            layer: Layer::Active,
            at: Rect::new(11_000, 9_000, 13_000, 11_000),
        });
        // Give nets a and b metal pins at the wire ends so opens partition.
        lo.add_pin(Pin {
            device: "RA".into(),
            terminal: 0,
            net: a,
            layer: Layer::Metal1,
            at: Rect::new(0, -350, 400, 350),
        });
        lo.add_pin(Pin {
            device: "RA".into(),
            terminal: 1,
            net: a,
            layer: Layer::Metal1,
            at: Rect::new(39_600, -350, 40_000, 350),
        });
        // An nwell with a pmos-side diffusion for junction tests.
        lo.add_rect(vdd, Layer::Nwell, Rect::new(20_000, 8_000, 30_000, 14_000));
        lo.add_rect(a, Layer::Active, Rect::new(22_000, 10_000, 25_000, 12_000));
        lo
    }

    fn defect(kind: DefectKind, x: i64, y: i64, size: i64) -> Defect {
        Defect { kind, x, y, size }
    }

    #[test]
    fn extra_metal_bridges_parallel_wires() {
        let lo = test_layout();
        let sp = Sprinkler::new(&lo, DefectStatistics::default());
        // Size 2.4 µm centred between the wires touches both.
        let f = sp
            .classify(&defect(DefectKind::ExtraMetal1, 20_000, 800, 2_400))
            .unwrap();
        assert_eq!(f.mechanism, FaultMechanism::Short);
        match &f.effect {
            FaultEffect::Bridge { nets, medium } => {
                assert_eq!(nets, &vec!["a".to_string(), "b".to_string()]);
                assert_eq!(*medium, BridgeMedium::Metal);
            }
            other => panic!("expected bridge, got {other:?}"),
        }
    }

    #[test]
    fn small_extra_metal_on_one_wire_is_benign() {
        let lo = test_layout();
        let sp = Sprinkler::new(&lo, DefectStatistics::default());
        assert!(sp
            .classify(&defect(DefectKind::ExtraMetal1, 20_000, 0, 700))
            .is_none());
    }

    #[test]
    fn missing_metal_opens_wire() {
        let lo = test_layout();
        let sp = Sprinkler::new(&lo, DefectStatistics::default());
        let f = sp
            .classify(&defect(DefectKind::MissingMetal1, 20_000, 0, 1_000))
            .unwrap();
        assert_eq!(f.mechanism, FaultMechanism::Open);
        match &f.effect {
            FaultEffect::NodeSplit { net, groups } => {
                assert_eq!(net, "a");
                assert!(groups.len() >= 2);
                // The two metal pins must land on different sides.
                let side_of = |d: &str, t: usize| {
                    groups
                        .iter()
                        .position(|g| g.iter().any(|(gd, gt)| gd == d && *gt == t))
                        .expect("pin present")
                };
                assert_ne!(side_of("RA", 0), side_of("RA", 1));
            }
            other => panic!("expected node split, got {other:?}"),
        }
    }

    #[test]
    fn small_missing_metal_nibble_is_benign() {
        let lo = test_layout();
        let sp = Sprinkler::new(&lo, DefectStatistics::default());
        // 0.4 µm defect cannot span the 0.7 µm wire.
        assert!(sp
            .classify(&defect(DefectKind::MissingMetal1, 20_000, 300, 400))
            .is_none());
    }

    #[test]
    fn gate_oxide_pinhole_hits_channel() {
        let lo = test_layout();
        let sp = Sprinkler::new(&lo, DefectStatistics::default());
        let f = sp
            .classify(&defect(DefectKind::GateOxidePinhole, 10_500, 10_000, 600))
            .unwrap();
        assert_eq!(f.mechanism, FaultMechanism::GateOxidePinhole);
        assert_eq!(
            f.effect,
            FaultEffect::GateOxide {
                device: "M1".into()
            }
        );
    }

    #[test]
    fn huge_gate_oxide_defect_shorts_device() {
        let lo = test_layout();
        let sp = Sprinkler::new(&lo, DefectStatistics::default());
        let f = sp
            .classify(&defect(DefectKind::GateOxidePinhole, 10_500, 10_000, 5_000))
            .unwrap();
        assert_eq!(f.mechanism, FaultMechanism::ShortedDevice);
    }

    #[test]
    fn junction_pinhole_leaks_to_substrate_and_well() {
        let lo = test_layout();
        let sp = Sprinkler::new(&lo, DefectStatistics::default());
        // Drain diffusion over substrate.
        let f = sp
            .classify(&defect(DefectKind::JunctionPinhole, 9_000, 10_000, 600))
            .unwrap();
        assert_eq!(
            f.effect,
            FaultEffect::BulkLeak {
                net: "a".into(),
                bulk: "gnd".into()
            }
        );
        // Diffusion inside the nwell leaks to vdd.
        let f = sp
            .classify(&defect(DefectKind::JunctionPinhole, 23_000, 11_000, 600))
            .unwrap();
        assert_eq!(
            f.effect,
            FaultEffect::BulkLeak {
                net: "a".into(),
                bulk: "vdd".into()
            }
        );
    }

    #[test]
    fn thick_oxide_pinhole_under_field_poly() {
        let lo = test_layout();
        let sp = Sprinkler::new(&lo, DefectStatistics::default());
        // Poly at y = 7.5 µm runs over field (active starts at 9 µm).
        let f = sp
            .classify(&defect(DefectKind::ThickOxidePinhole, 10_500, 7_500, 600))
            .unwrap();
        assert_eq!(f.mechanism, FaultMechanism::ThickOxidePinhole);
        assert_eq!(
            f.effect,
            FaultEffect::BulkLeak {
                net: "gate".into(),
                bulk: "gnd".into()
            }
        );
        // Over the channel region it is not a thick-oxide site.
        assert!(sp
            .classify(&defect(DefectKind::ThickOxidePinhole, 10_500, 10_000, 600))
            .is_none());
    }

    #[test]
    fn extra_contact_shorts_metal_to_poly() {
        let lo = test_layout();
        let mut lo2 = lo.clone();
        // Run a metal1 wire straight over the poly gate stripe.
        let c = lo2.find_net("a").unwrap();
        lo2.wire_h(c, Layer::Metal1, 9_000, 12_000, 12_500, 700);
        let sp = Sprinkler::new(&lo2, DefectStatistics::default());
        let f = sp
            .classify(&defect(DefectKind::ExtraContact, 10_500, 12_500, 600))
            .unwrap();
        assert_eq!(f.mechanism, FaultMechanism::ExtraContact);
        match &f.effect {
            FaultEffect::Bridge { nets, medium } => {
                assert_eq!(nets, &vec!["a".to_string(), "gate".to_string()]);
                assert_eq!(*medium, BridgeMedium::Contact);
            }
            other => panic!("expected bridge, got {other:?}"),
        }
    }

    #[test]
    fn extra_poly_across_diffusion_creates_new_device() {
        let lo = test_layout();
        let sp = Sprinkler::new(&lo, DefectStatistics::default());
        // A poly spot spanning the 2 µm-tall drain diffusion at x = 8.5 µm.
        let f = sp
            .classify(&defect(DefectKind::ExtraPoly, 8_500, 10_000, 2_400))
            .unwrap();
        assert_eq!(f.mechanism, FaultMechanism::NewDevice);
        match &f.effect {
            FaultEffect::NewDevice { net, n_channel, .. } => {
                assert_eq!(net, "a");
                assert!(*n_channel);
            }
            other => panic!("expected new device, got {other:?}"),
        }
    }

    #[test]
    fn sprinkle_is_deterministic() {
        let lo = test_layout();
        let sp = Sprinkler::new(&lo, DefectStatistics::default());
        let r1 = sp.sprinkle(5_000, 7);
        let r2 = sp.sprinkle(5_000, 7);
        assert_eq!(r1.faults.len(), r2.faults.len());
        let r3 = sp.sprinkle(5_000, 8);
        // Different seed, almost surely different fault count.
        assert!(r1.faults.len() != r3.faults.len() || !r1.faults.is_empty());
        assert!(r1.fault_rate() < 0.5, "most defects must be benign");
    }
}
