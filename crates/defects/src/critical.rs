//! Analytic critical-area analysis.
//!
//! The Monte-Carlo sprinkler estimates fault likelihoods by sampling; for
//! simple geometries the same quantities have closed forms (Walker's and
//! Maly's critical-area literature). This module computes them — both as
//! an independent cross-check of the sprinkler (asserted in tests) and as
//! the fast path for layout-vs-layout DfT comparisons (critical area is
//! exactly what the paper's bias-line reordering reduces).
//!
//! For a bridging defect of size `x` between two parallel wires with edge
//! separation `s` and common run length `L`, the critical area is
//!
//! ```text
//! A_crit(x) = L · (x − s)        for x > s (and x below overlap limits)
//! ```
//!
//! and the expected fault count for `N` defects sprinkled uniformly over
//! area `A` is `N/A · ∫ A_crit(x)·p(x) dx` with the x₀²⁄x³ size density.

use crate::kinds::SizeDistribution;

/// Expected value of `max(x − s, 0)` under the truncated `2·x0²/x³`
/// density on `[x0, xmax]` — the kernel of every parallel-wire critical
/// area integral.
pub fn expected_excess_over(sep: f64, size: &SizeDistribution) -> f64 {
    let x0 = size.x0 as f64;
    let xmax = size.xmax as f64;
    if sep >= xmax {
        return 0.0;
    }
    let a = sep.max(x0);
    // Normalisation of the truncated density.
    let norm = 1.0 - (x0 * x0) / (xmax * xmax);
    // ∫_a^xmax (x − s) · 2·x0²/x³ dx
    //   = 2·x0² · [ −1/x + s/(2x²) ]_a^xmax
    let anti = |x: f64| -1.0 / x + sep / (2.0 * x * x);
    let integral = 2.0 * x0 * x0 * (anti(xmax) - anti(a));
    // When sep < x0 the lower limit clamps to x0 and the integrand is
    // already (x − s) over the whole support — no extra term needed.
    integral / norm
}

/// Expected number of bridging faults between two parallel wires of
/// common run `length_nm` and edge separation `sep_nm`, when `defects`
/// spot defects of one bridging kind land uniformly on `area_nm2`.
pub fn expected_parallel_wire_bridges(
    length_nm: f64,
    sep_nm: f64,
    size: &SizeDistribution,
    defects: f64,
    area_nm2: f64,
) -> f64 {
    let mean_crit = length_nm * expected_excess_over(sep_nm, size);
    defects * mean_crit / area_nm2
}

/// Relative bridging exposure of an ordered list of parallel trunk wires:
/// the sum over adjacent pairs of `E[max(x − s, 0)]`. Reordering the
/// trunks changes which *nets* are adjacent but not this total; combined
/// with per-pair detectability weights it quantifies a DfT reorder.
pub fn adjacent_pair_exposure(separations_nm: &[f64], size: &SizeDistribution) -> Vec<f64> {
    separations_nm
        .iter()
        .map(|&s| expected_excess_over(s, size))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::{DefectKind, DefectStatistics};
    use crate::sprinkle::Sprinkler;
    use dotm_layout::{Layer, Layout};

    #[test]
    fn excess_is_zero_beyond_truncation() {
        let size = SizeDistribution::default();
        assert_eq!(expected_excess_over(size.xmax as f64, &size), 0.0);
        assert_eq!(expected_excess_over(1e9, &size), 0.0);
    }

    #[test]
    fn excess_decreases_with_separation() {
        let size = SizeDistribution::default();
        let mut last = f64::INFINITY;
        for s in [0.0, 500.0, 1_000.0, 2_000.0, 4_000.0, 7_000.0] {
            let e = expected_excess_over(s, &size);
            assert!(e < last, "E[excess] must decrease: {e} at s = {s}");
            assert!(e >= 0.0);
            last = e;
        }
    }

    #[test]
    fn closed_form_matches_numeric_integration() {
        let size = SizeDistribution::default();
        for sep in [400.0, 900.0, 2_000.0, 5_000.0] {
            // Numeric: integrate max(x−s,0)·p(x) over the support.
            let x0 = size.x0 as f64;
            let xmax = size.xmax as f64;
            let norm = 1.0 - (x0 * x0) / (xmax * xmax);
            let n = 200_000;
            let mut acc = 0.0;
            for k in 0..n {
                let x = x0 + (xmax - x0) * (k as f64 + 0.5) / n as f64;
                let p = 2.0 * x0 * x0 / (x * x * x) / norm;
                acc += (x - sep).max(0.0) * p * (xmax - x0) / n as f64;
            }
            let closed = expected_excess_over(sep, &size);
            assert!(
                (closed - acc).abs() / acc.max(1e-9) < 1e-3,
                "sep {sep}: closed {closed} vs numeric {acc}"
            );
        }
    }

    #[test]
    fn monte_carlo_sprinkler_matches_critical_area() {
        // Two parallel metal1 wires: the sprinkler's extra-metal1 bridge
        // count must match the analytic expectation within Monte-Carlo
        // noise.
        let length = 200_000i64; // 200 µm
        let width = 700i64;
        let sep = 900i64;
        let mut lo = Layout::new("pair");
        let gnd = lo.net("gnd");
        lo.set_substrate_net(gnd);
        let a = lo.net("a");
        let b = lo.net("b");
        lo.wire_h(a, Layer::Metal1, 0, length, 0, width);
        lo.wire_h(
            b,
            Layer::Metal1,
            0,
            length,
            width / 2 + sep + width / 2,
            width,
        );

        // Extra-metal1 only, so every fault is the bridge of interest.
        let stats = DefectStatistics::from_weights(
            vec![(DefectKind::ExtraMetal1, 1.0)],
            SizeDistribution::default(),
        );
        let sprinkler = Sprinkler::new(&lo, stats.clone());
        let n = 400_000usize;
        let faults = sprinkler.sprinkle(n, 11).faults.len() as f64;

        let expected = expected_parallel_wire_bridges(
            length as f64,
            sep as f64,
            &stats.size,
            n as f64,
            sprinkler.area_nm2(),
        );
        let rel = (faults - expected).abs() / expected;
        assert!(
            rel < 0.10,
            "MC {faults} vs analytic {expected:.1} ({:.1}% off)",
            rel * 100.0
        );
    }

    #[test]
    fn wider_spacing_reduces_exposure_vector() {
        let size = SizeDistribution::default();
        let tight = adjacent_pair_exposure(&[600.0, 600.0], &size);
        let loose = adjacent_pair_exposure(&[600.0, 2_000.0], &size);
        assert_eq!(tight.len(), 2);
        assert!(loose[1] < tight[1]);
        assert_eq!(loose[0], tight[0]);
    }
}
