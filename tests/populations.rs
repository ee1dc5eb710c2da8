//! Fault-population golden and a brute-force check of the defect
//! classifier.
//!
//! * `populations_match_the_golden` sprinkles the six layouts of the
//!   methodology (the five macros and the DfT comparator) at seed 1995 with
//!   25 000 defects and pins, per layout, the total fault count, the class
//!   count and every class's count, key and first representative defect
//!   against `tests/golden/populations.txt`. A change to the sprinkler's
//!   sampling, its geometric rules, its index or its collapsing order fails
//!   it. On a mismatch the full rendering is written to
//!   `populations.actual.txt` under `CARGO_TARGET_TMPDIR`.
//! * `classify_matches_a_linear_scan` classifies seeded defects with
//!   [`Sprinkler::classify`] and with a reference classifier in this file
//!   that scans every shape and transistor of the layout, with no index,
//!   and demands identical faults. The defects cover every kind, the
//!   largest spot size, shape corners and the edges of the sprinkle area.

use dotm::core::harnesses::{
    BiasHarness, ClockgenHarness, ComparatorHarness, DecoderHarness, LadderHarness,
};
use dotm::core::MacroHarness;
use dotm::defects::{
    sprinkle_collapsed, BridgeMedium, Defect, DefectKind, DefectStatistics, Fault, FaultEffect,
    FaultMechanism, Sprinkler, TerminalName,
};
use dotm::layout::{connect, Layer, Layout, NetId, Rect};
use dotm_rng::rngs::StdRng;
use dotm_rng::{Rng, SeedableRng};

const GOLDEN: &str = include_str!("golden/populations.txt");

fn harnesses() -> Vec<Box<dyn MacroHarness>> {
    vec![
        Box::new(ComparatorHarness::production()),
        Box::new(ComparatorHarness::dft()),
        Box::new(LadderHarness),
        Box::new(BiasHarness::default()),
        Box::new(ClockgenHarness::default()),
        Box::new(DecoderHarness::default()),
    ]
}

/// One header line per layout, then one tab-separated line per class in
/// report order: count, key, and the representative's kind, x, y, size.
fn render(harness: &dyn MacroHarness) -> String {
    let layout = harness.layout();
    let sprinkler = Sprinkler::new(&layout, DefectStatistics::default());
    let report = sprinkle_collapsed(&sprinkler, 25_000, 1995);
    let mut out = format!(
        "{}\tfaults={}\tclasses={}\n",
        harness.name(),
        report.total_faults,
        report.class_count()
    );
    for c in &report.classes {
        let d = c.representative.defect;
        out.push_str(&format!(
            "{}\t{}\t{}\t{} {} {} {}\n",
            harness.name(),
            c.count,
            c.key,
            d.kind,
            d.x,
            d.y,
            d.size
        ));
    }
    out
}

#[test]
fn populations_match_the_golden() {
    let actual: String = harnesses().iter().map(|h| render(h.as_ref())).collect();
    if actual != GOLDEN {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("populations.actual.txt");
        let _ = std::fs::write(&dump, &actual);
        let first = GOLDEN
            .lines()
            .zip(actual.lines())
            .find(|(g, a)| g != a)
            .map(|(g, a)| format!("  golden: {g}\n  actual: {a}"))
            .unwrap_or_else(|| "  (one rendering is a prefix of the other)".to_string());
        panic!(
            "fault populations moved; first difference:\n{first}\nfull run: {}",
            dump.display()
        );
    }
    assert_eq!(
        GOLDEN.lines().filter(|l| l.contains("\tfaults=")).count(),
        6
    );
}

// ---------------------------------------------------------------------
// The reference classifier: the sprinkler's rules over linear scans.

/// Sorted, distinct nets of the shapes on `layer` that touch `spot`.
fn nets_touching(lo: &Layout, layer: Layer, spot: &Rect) -> Vec<NetId> {
    let mut nets: Vec<NetId> = lo
        .shapes()
        .iter()
        .filter(|s| s.layer == layer && s.rect.touches(spot))
        .map(|s| s.net)
        .collect();
    nets.sort_unstable();
    nets.dedup();
    nets
}

fn names(lo: &Layout, nets: &[NetId]) -> Vec<String> {
    let mut names: Vec<String> = nets.iter().map(|&n| lo.net_name(n).to_string()).collect();
    names.sort();
    names
}

fn groups(partition: &connect::OpenPartition) -> Vec<Vec<TerminalName>> {
    partition
        .groups
        .iter()
        .map(|g| g.iter().map(|p| (p.device.clone(), p.terminal)).collect())
        .collect()
}

/// The well net under a point: the first Nwell shape (in layout order)
/// covering it.
fn well_at(lo: &Layout, x: i64, y: i64) -> Option<NetId> {
    lo.shapes()
        .iter()
        .find(|s| s.layer == Layer::Nwell && s.rect.contains_point(x, y))
        .map(|s| s.net)
}

fn bulk_at(lo: &Layout, x: i64, y: i64) -> Option<NetId> {
    well_at(lo, x, y).or_else(|| lo.substrate_net())
}

fn fault(mechanism: FaultMechanism, effect: FaultEffect, defect: &Defect) -> Option<Fault> {
    Some(Fault {
        mechanism,
        effect,
        defect: *defect,
    })
}

fn extra_material(lo: &Layout, d: &Defect, spot: &Rect, layer: Layer) -> Option<Fault> {
    let nets = nets_touching(lo, layer, spot);
    if nets.len() < 2 {
        return None;
    }
    let medium = match layer {
        Layer::Metal1 | Layer::Metal2 => BridgeMedium::Metal,
        Layer::Poly => BridgeMedium::Poly,
        _ => BridgeMedium::Diffusion,
    };
    let nets = names(lo, &nets);
    fault(
        FaultMechanism::Short,
        FaultEffect::Bridge { nets, medium },
        d,
    )
}

fn missing_material(lo: &Layout, d: &Defect, spot: &Rect, layer: Layer) -> Option<Fault> {
    let mut nets: Vec<NetId> = lo
        .shapes()
        .iter()
        .filter(|s| s.layer == layer)
        .filter(|s| {
            if layer.is_cut() {
                spot.contains(&s.rect)
            } else {
                s.rect.overlaps(spot)
            }
        })
        .map(|s| s.net)
        .collect();
    nets.sort_unstable();
    nets.dedup();
    nets.into_iter().find_map(|net| {
        let p = connect::open_partition(lo, net, layer, spot)?;
        let effect = FaultEffect::NodeSplit {
            net: lo.net_name(net).to_string(),
            groups: groups(&p),
        };
        fault(FaultMechanism::Open, effect, d)
    })
}

fn gate_oxide(lo: &Layout, d: &Defect, spot: &Rect) -> Option<Fault> {
    let t = lo
        .transistors()
        .iter()
        .find(|t| t.channel.contains_point(d.x, d.y))?;
    let device = t.device.clone();
    if spot.contains(&t.channel) {
        fault(
            FaultMechanism::ShortedDevice,
            FaultEffect::DeviceShort { device },
            d,
        )
    } else {
        fault(
            FaultMechanism::GateOxidePinhole,
            FaultEffect::GateOxide { device },
            d,
        )
    }
}

fn thick_oxide(lo: &Layout, d: &Defect, spot: &Rect) -> Option<Fault> {
    let polys = nets_touching(lo, Layer::Poly, spot);
    let over_active = lo
        .shapes()
        .iter()
        .any(|s| s.layer == Layer::Active && s.rect.overlaps(spot));
    let over_channel = lo.transistors().iter().any(|t| t.channel.overlaps(spot));
    if polys.is_empty() || over_active || over_channel {
        return None;
    }
    let net = lo.net_name(polys[0]).to_string();
    let bulk = lo.net_name(bulk_at(lo, d.x, d.y)?).to_string();
    if net == bulk {
        return None;
    }
    fault(
        FaultMechanism::ThickOxidePinhole,
        FaultEffect::BulkLeak { net, bulk },
        d,
    )
}

fn junction(lo: &Layout, d: &Defect, spot: &Rect) -> Option<Fault> {
    let net = *nets_touching(lo, Layer::Active, spot).first()?;
    let bulk = bulk_at(lo, d.x, d.y)?;
    if net == bulk {
        return None;
    }
    let effect = FaultEffect::BulkLeak {
        net: lo.net_name(net).to_string(),
        bulk: lo.net_name(bulk).to_string(),
    };
    fault(FaultMechanism::JunctionPinhole, effect, d)
}

fn extra_contact(lo: &Layout, d: &Defect, spot: &Rect) -> Option<Fault> {
    let metals = nets_touching(lo, Layer::Metal1, spot);
    for under in [Layer::Poly, Layer::Active] {
        let unders = nets_touching(lo, under, spot);
        for &m in &metals {
            if let Some(&u) = unders.iter().find(|&&u| u != m) {
                let effect = FaultEffect::Bridge {
                    nets: names(lo, &[m, u]),
                    medium: BridgeMedium::Contact,
                };
                return fault(FaultMechanism::ExtraContact, effect, d);
            }
        }
    }
    None
}

fn new_device(lo: &Layout, d: &Defect, spot: &Rect) -> Option<Fault> {
    lo.shapes()
        .iter()
        .filter(|s| s.layer == Layer::Active)
        .filter(|s| s.rect.sever(spot).is_some_and(|p| p.len() >= 2))
        .find_map(|s| {
            let p = connect::open_partition(lo, s.net, Layer::Active, spot)?;
            let effect = FaultEffect::NewDevice {
                net: lo.net_name(s.net).to_string(),
                groups: groups(&p),
                gate: nets_touching(lo, Layer::Poly, spot)
                    .first()
                    .map(|&n| lo.net_name(n).to_string()),
                n_channel: well_at(lo, d.x, d.y).is_none(),
            };
            fault(FaultMechanism::NewDevice, effect, d)
        })
}

fn reference_classify(lo: &Layout, d: &Defect) -> Option<Fault> {
    let spot = Rect::square(d.x, d.y, d.size);
    let spot = &spot;
    match d.kind {
        DefectKind::ExtraMetal1 => extra_material(lo, d, spot, Layer::Metal1),
        DefectKind::ExtraMetal2 => extra_material(lo, d, spot, Layer::Metal2),
        DefectKind::ExtraPoly => {
            extra_material(lo, d, spot, Layer::Poly).or_else(|| new_device(lo, d, spot))
        }
        DefectKind::ExtraActive => extra_material(lo, d, spot, Layer::Active),
        DefectKind::MissingMetal1 => missing_material(lo, d, spot, Layer::Metal1),
        DefectKind::MissingMetal2 => missing_material(lo, d, spot, Layer::Metal2),
        DefectKind::MissingPoly => missing_material(lo, d, spot, Layer::Poly),
        DefectKind::MissingActive => missing_material(lo, d, spot, Layer::Active),
        DefectKind::MissingContact => missing_material(lo, d, spot, Layer::Contact),
        DefectKind::MissingVia => missing_material(lo, d, spot, Layer::Via),
        DefectKind::GateOxidePinhole => gate_oxide(lo, d, spot),
        DefectKind::ThickOxidePinhole => thick_oxide(lo, d, spot),
        DefectKind::JunctionPinhole => junction(lo, d, spot),
        DefectKind::ExtraContact => extra_contact(lo, d, spot),
    }
}

/// Seeded probe defects: a third as the sprinkler samples them, the rest
/// of every kind at shape corners or on the sprinkle area's edge, with
/// sizes from the resolution limit up to the largest spot.
fn probes(lo: &Layout, sprinkler: &Sprinkler<'_>, n: usize, seed: u64) -> Vec<Defect> {
    let stats = sprinkler.statistics();
    let (x0, xmax) = (stats.size.x0, stats.size.xmax);
    let area = lo.bbox().expect("non-empty layout").expanded(xmax / 2);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if i % 3 == 0 {
                return sprinkler.sample_defect(&mut rng);
            }
            let kind = DefectKind::ALL[rng.gen_range(0..DefectKind::ALL.len())];
            let size = match rng.gen_range(0..4) {
                0 => xmax,
                1 => x0,
                _ => rng.gen_range(x0..=xmax),
            };
            let (x, y) = if i % 3 == 1 {
                let s = lo.shapes()[rng.gen_range(0..lo.shape_count())].rect;
                let jitter = [0, 1, -1, size / 2, -(size / 2), size / 2 + 1][rng.gen_range(0..6)];
                let x = if rng.gen_range(0..2) == 0 { s.x0 } else { s.x1 };
                let y = if rng.gen_range(0..2) == 0 { s.y0 } else { s.y1 };
                (x + jitter, y - jitter)
            } else {
                let x = rng.gen_range(area.x0..=area.x1);
                let y = rng.gen_range(area.y0..=area.y1);
                match rng.gen_range(0..4) {
                    0 => (area.x0, y),
                    1 => (area.x1, y),
                    2 => (x, area.y0),
                    _ => (area.x1, area.y1),
                }
            };
            Defect { kind, x, y, size }
        })
        .collect()
}

#[test]
fn classify_matches_a_linear_scan() {
    for (h, harness) in harnesses().iter().enumerate() {
        let lo = harness.layout();
        let sprinkler = Sprinkler::new(&lo, DefectStatistics::default());
        let mut faults = 0;
        for d in probes(&lo, &sprinkler, 6_000, 0x5EED + h as u64) {
            let fast = sprinkler.classify(&d);
            let slow = reference_classify(&lo, &d);
            assert_eq!(fast, slow, "{}: {d:?}", harness.name());
            faults += usize::from(fast.is_some());
        }
        assert!(
            faults > 100,
            "{}: only {faults} probes fault",
            harness.name()
        );
    }
}

#[test]
fn sprinkle_equals_one_defect_at_a_time() {
    let harness = ComparatorHarness::production();
    let lo = harness.layout();
    let sprinkler = Sprinkler::new(&lo, DefectStatistics::default());
    let mut rng = StdRng::seed_from_u64(77);
    let expected: Vec<Fault> = (0..9_000)
        .filter_map(|_| sprinkler.classify(&sprinkler.sample_defect(&mut rng)))
        .collect();
    let report = sprinkler.sprinkle(9_000, 77);
    assert_eq!(report.defects, 9_000);
    assert_eq!(report.faults, expected);
}
