//! Spot-defect taxonomy and process statistics.

use dotm_rng::Rng;
use std::fmt;

/// The physical spot-defect types of the reference fabrication process.
///
/// Mirrors the VLASIC defect universe: extra/missing material on each
/// patterned layer, oxide and junction pinholes, and extra (unintended)
/// contacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefectKind {
    /// Extra metal-1 material (bridging).
    ExtraMetal1,
    /// Extra metal-2 material (bridging).
    ExtraMetal2,
    /// Extra polysilicon (bridging; may form a parasitic device over
    /// active).
    ExtraPoly,
    /// Extra active/diffusion material (bridging).
    ExtraActive,
    /// Missing metal-1 material (opens).
    MissingMetal1,
    /// Missing metal-2 material (opens).
    MissingMetal2,
    /// Missing polysilicon (opens; may sever a gate).
    MissingPoly,
    /// Missing active material (opens).
    MissingActive,
    /// Missing contact cut (inter-layer open).
    MissingContact,
    /// Missing via cut (inter-layer open).
    MissingVia,
    /// Pinhole in the gate oxide under a channel.
    GateOxidePinhole,
    /// Pinhole in the field (thick) oxide under a conductor.
    ThickOxidePinhole,
    /// Pinhole in a source/drain junction.
    JunctionPinhole,
    /// Unintended contact where metal-1 crosses poly or active.
    ExtraContact,
}

impl DefectKind {
    /// All defect kinds.
    pub const ALL: [DefectKind; 14] = [
        DefectKind::ExtraMetal1,
        DefectKind::ExtraMetal2,
        DefectKind::ExtraPoly,
        DefectKind::ExtraActive,
        DefectKind::MissingMetal1,
        DefectKind::MissingMetal2,
        DefectKind::MissingPoly,
        DefectKind::MissingActive,
        DefectKind::MissingContact,
        DefectKind::MissingVia,
        DefectKind::GateOxidePinhole,
        DefectKind::ThickOxidePinhole,
        DefectKind::JunctionPinhole,
        DefectKind::ExtraContact,
    ];
}

impl fmt::Display for DefectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DefectKind::ExtraMetal1 => "extra-metal1",
            DefectKind::ExtraMetal2 => "extra-metal2",
            DefectKind::ExtraPoly => "extra-poly",
            DefectKind::ExtraActive => "extra-active",
            DefectKind::MissingMetal1 => "missing-metal1",
            DefectKind::MissingMetal2 => "missing-metal2",
            DefectKind::MissingPoly => "missing-poly",
            DefectKind::MissingActive => "missing-active",
            DefectKind::MissingContact => "missing-contact",
            DefectKind::MissingVia => "missing-via",
            DefectKind::GateOxidePinhole => "gate-oxide-pinhole",
            DefectKind::ThickOxidePinhole => "thick-oxide-pinhole",
            DefectKind::JunctionPinhole => "junction-pinhole",
            DefectKind::ExtraContact => "extra-contact",
        };
        write!(f, "{s}")
    }
}

/// The `x₀²⁄x³` spot-defect size law used across the yield literature
/// (and by VLASIC): sizes below the resolution limit `x0` do not occur,
/// density falls off with the cube of the size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeDistribution {
    /// Minimum (peak) defect size in nm.
    pub x0: i64,
    /// Truncation size in nm.
    pub xmax: i64,
}

impl SizeDistribution {
    /// Samples a defect size via the inverse CDF of `2·x0²/x³` on
    /// `[x0, xmax]`.
    pub fn sample(&self, rng: &mut impl Rng) -> i64 {
        self.sample_normed(self.norm(), rng)
    }

    /// The truncated CDF's denominator `1 − x0²/xmax²`.
    pub(crate) fn norm(&self) -> f64 {
        let x0 = self.x0 as f64;
        let xmax = self.xmax as f64;
        1.0 - (x0 * x0) / (xmax * xmax)
    }

    /// [`SizeDistribution::sample`] with its [`SizeDistribution::norm`]
    /// computed once by the caller.
    pub(crate) fn sample_normed(&self, norm: f64, rng: &mut impl Rng) -> i64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        // CDF on the truncated support: F(x) = (1 − x0²/x²)/(1 − x0²/xmax²).
        let x = self.x0 as f64 / (1.0 - u * norm).sqrt();
        (x.round() as i64).clamp(self.x0, self.xmax)
    }
}

impl Default for SizeDistribution {
    /// 0.8 µm-era defaults: 0.6 µm resolution limit, 8 µm truncation.
    fn default() -> Self {
        SizeDistribution {
            x0: 600,
            xmax: 8_000,
        }
    }
}

/// Relative defect densities per kind plus the shared size law.
///
/// The defaults encode the paper's observation that "the majority of the
/// spot defects in the fabrication process consist of extra material
/// defects in the metallization steps" — extra metal dominates, missing
/// material is rare, pinholes sit in between.
#[derive(Debug, Clone, PartialEq)]
pub struct DefectStatistics {
    weights: Vec<(DefectKind, f64)>,
    /// Size law shared by the material-defect kinds.
    pub size: SizeDistribution,
}

impl DefectStatistics {
    /// Creates statistics from explicit relative weights.
    ///
    /// # Panics
    /// Panics if all weights are zero or any weight is negative.
    pub fn from_weights(weights: Vec<(DefectKind, f64)>, size: SizeDistribution) -> Self {
        assert!(
            weights.iter().all(|(_, w)| *w >= 0.0),
            "defect weights must be non-negative"
        );
        let stats = DefectStatistics { weights, size };
        assert!(
            stats.total_weight() > 0.0,
            "at least one defect weight must be positive"
        );
        stats
    }

    /// The sum of the relative weights.
    pub(crate) fn total_weight(&self) -> f64 {
        self.weights.iter().map(|(_, w)| w).sum()
    }

    /// The relative weight of a kind.
    pub fn weight(&self, kind: DefectKind) -> f64 {
        self.weights
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, w)| *w)
            .unwrap_or(0.0)
    }

    /// Iterates over `(kind, weight)` pairs.
    pub fn weights(&self) -> impl Iterator<Item = (DefectKind, f64)> + '_ {
        self.weights.iter().copied()
    }

    /// Samples a defect kind according to the weights.
    pub fn sample_kind(&self, rng: &mut impl Rng) -> DefectKind {
        let pick = rng.gen_range(0.0..self.total_weight());
        self.weights[self.kind_index_at(pick)].0
    }

    /// The weight-table position a uniform `pick` in `[0, total)` selects:
    /// the walk that subtracts each weight in turn until `pick` falls
    /// below one. Defines [`DefectStatistics::sample_kind`] bit for bit.
    fn kind_index_at(&self, mut pick: f64) -> usize {
        for (i, (_, w)) in self.weights.iter().enumerate() {
            if pick < *w {
                return i;
            }
            pick -= w;
        }
        self.weights.len() - 1
    }
}

/// [`DefectStatistics::sample_kind`] with its per-draw work done once: the
/// weight total is summed at construction, and the subtraction walk is
/// replaced by its breakpoints.
///
/// The walk is a non-decreasing function of the pick (each subtraction
/// and comparison is monotone under IEEE rounding), so the picks that
/// select position `i` or later form an up-set whose least element is
/// `bounds[i - 1]`. Each breakpoint is found by bisecting the bit patterns
/// of the non-negative floats, which are ordered like their values, with
/// the walk itself as the oracle. A draw then counts the breakpoints at or
/// below its pick, and selects the same kind as the walk for every pick.
#[derive(Debug, Clone)]
pub(crate) struct KindSampler {
    total: f64,
    bounds: Vec<f64>,
    kinds: Vec<DefectKind>,
}

impl KindSampler {
    pub(crate) fn new(stats: &DefectStatistics) -> Self {
        let total = stats.total_weight();
        let walk = |bits: u64| stats.kind_index_at(f64::from_bits(bits));
        let bounds = (1..stats.weights.len())
            .map(|i| {
                // `pick` never exceeds `total`; past it nothing is reached.
                if walk(total.to_bits()) < i {
                    return f64::INFINITY;
                }
                let (mut lo, mut hi) = (0u64, total.to_bits());
                if walk(lo) >= i {
                    return 0.0;
                }
                // Invariant: walk(lo) < i <= walk(hi).
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if walk(mid) >= i {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                f64::from_bits(hi)
            })
            .collect();
        KindSampler {
            total,
            bounds,
            kinds: stats.weights.iter().map(|(k, _)| *k).collect(),
        }
    }

    /// The position [`DefectStatistics::kind_index_at`] gives `pick`.
    fn index_at(&self, pick: f64) -> usize {
        self.bounds.iter().filter(|&&b| pick >= b).count()
    }

    pub(crate) fn sample(&self, rng: &mut impl Rng) -> DefectKind {
        self.kinds[self.index_at(rng.gen_range(0.0..self.total))]
    }
}

impl Default for DefectStatistics {
    fn default() -> Self {
        DefectStatistics::from_weights(
            vec![
                (DefectKind::ExtraMetal1, 0.34),
                (DefectKind::ExtraMetal2, 0.27),
                (DefectKind::ExtraPoly, 0.14),
                (DefectKind::ExtraActive, 0.04),
                (DefectKind::MissingMetal1, 0.004),
                (DefectKind::MissingMetal2, 0.003),
                (DefectKind::MissingPoly, 0.002),
                (DefectKind::MissingActive, 0.001),
                (DefectKind::MissingContact, 0.002),
                (DefectKind::MissingVia, 0.002),
                (DefectKind::GateOxidePinhole, 0.07),
                (DefectKind::ThickOxidePinhole, 0.022),
                (DefectKind::JunctionPinhole, 0.022),
                (DefectKind::ExtraContact, 0.05),
            ],
            SizeDistribution::default(),
        )
    }
}

/// One sprinkled spot defect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Defect {
    /// Defect type.
    pub kind: DefectKind,
    /// Centre x (nm).
    pub x: i64,
    /// Centre y (nm).
    pub y: i64,
    /// Size (side of the square spot), nm.
    pub size: i64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dotm_rng::rngs::StdRng;
    use dotm_rng::{Rng, SeedableRng};

    #[test]
    fn size_distribution_respects_bounds() {
        let d = SizeDistribution::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let s = d.sample(&mut rng);
            assert!(s >= d.x0 && s <= d.xmax);
        }
    }

    #[test]
    fn size_distribution_is_small_heavy() {
        let d = SizeDistribution::default();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let small = (0..n).filter(|_| d.sample(&mut rng) < 2 * d.x0).count() as f64 / n as f64;
        // P(x < 2·x0) = (1 − 1/4)/(1 − x0²/xmax²) ≈ 0.754.
        assert!(
            (small - 0.754).abs() < 0.01,
            "P(x < 2x0) = {small}, expected ≈ 0.754"
        );
    }

    #[test]
    fn kind_sampling_tracks_weights() {
        let stats = DefectStatistics::default();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        let mut extra_m1 = 0usize;
        for _ in 0..n {
            if stats.sample_kind(&mut rng) == DefectKind::ExtraMetal1 {
                extra_m1 += 1;
            }
        }
        let total: f64 = stats.weights().map(|(_, w)| w).sum();
        let expect = stats.weight(DefectKind::ExtraMetal1) / total;
        let got = extra_m1 as f64 / n as f64;
        assert!((got - expect).abs() < 0.01, "got {got}, expect {expect}");
    }

    #[test]
    fn kind_sampler_draws_what_the_walk_draws() {
        let skewed = DefectStatistics::from_weights(
            vec![
                (DefectKind::ExtraMetal1, 1e-300),
                (DefectKind::GateOxidePinhole, 0.0),
                (DefectKind::ExtraPoly, 0.1),
                (DefectKind::ExtraContact, 3.0),
                (DefectKind::MissingVia, 0.0),
            ],
            SizeDistribution::default(),
        );
        for stats in [DefectStatistics::default(), skewed] {
            let sampler = KindSampler::new(&stats);
            let total = stats.total_weight();
            // Every breakpoint and its float neighbours, the ends of the
            // range, and seeded uniform picks.
            let mut picks = vec![0.0, total, f64::from_bits(total.to_bits() - 1)];
            for &b in sampler.bounds.iter().filter(|b| b.is_finite()) {
                picks.extend([b, f64::from_bits(b.to_bits() + 1)]);
                if b > 0.0 {
                    picks.push(f64::from_bits(b.to_bits() - 1));
                }
            }
            let mut rng = StdRng::seed_from_u64(4);
            picks.extend((0..200_000).map(|_| rng.gen_range(0.0..total)));
            for p in picks {
                assert_eq!(sampler.index_at(p), stats.kind_index_at(p), "pick {p:e}");
            }
            let (mut a, mut b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
            for _ in 0..10_000 {
                assert_eq!(sampler.sample(&mut a), stats.sample_kind(&mut b));
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        let _ = DefectStatistics::from_weights(
            vec![(DefectKind::ExtraMetal1, -1.0)],
            SizeDistribution::default(),
        );
    }

    #[test]
    fn default_weights_are_metal_dominated() {
        let stats = DefectStatistics::default();
        let extra_metal =
            stats.weight(DefectKind::ExtraMetal1) + stats.weight(DefectKind::ExtraMetal2);
        let missing: f64 = [
            DefectKind::MissingMetal1,
            DefectKind::MissingMetal2,
            DefectKind::MissingPoly,
            DefectKind::MissingActive,
            DefectKind::MissingContact,
            DefectKind::MissingVia,
        ]
        .iter()
        .map(|&k| stats.weight(k))
        .sum();
        assert!(extra_metal > 0.5);
        assert!(missing < 0.02);
    }
}
