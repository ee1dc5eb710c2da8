//! Behavioural macro models and the full Flash ADC assembly.
//!
//! The paper's divide-and-conquer: circuit-level simulation happens per
//! macro; propagation of fault signatures to the circuit edge uses
//! "higher-level models of the other cells". This module provides those
//! models — a comparator parameterised by its voltage fault signature, the
//! reference taps, and the wired-OR decoder — plus the missing-code test
//! itself (triangular stimulus, 1000 samples, check that every output
//! number occurs).

use crate::decoder::decode_thermometer;
use crate::ladder::{ideal_tap_voltage, TAPS};
use crate::process::{VREF_HI, VREF_LO};

/// Behavioural model of one comparator stage, as parameterised by a fault
/// signature from the circuit-level analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ComparatorBehavior {
    /// Working comparator with an input-referred offset (V).
    Normal {
        /// Input-referred offset (V); positive offset makes the stage trip
        /// at a higher input voltage.
        offset: f64,
    },
    /// Output stuck high (thermometer bit always 1).
    StuckHigh,
    /// Output stuck low.
    StuckLow,
    /// Erratic ("mixed") behaviour: the decision inverts on a fraction of
    /// the samples, deterministically derived from the sample index.
    Erratic {
        /// Invert every `period`-th sample (≥ 2).
        period: usize,
    },
}

impl ComparatorBehavior {
    /// The decision of this stage for input `vin` against reference
    /// `vref` on sample number `sample`.
    pub fn decide(&self, vin: f64, vref: f64, sample: usize) -> bool {
        match *self {
            ComparatorBehavior::Normal { offset } => vin > vref + offset,
            ComparatorBehavior::StuckHigh => true,
            ComparatorBehavior::StuckLow => false,
            ComparatorBehavior::Erratic { period } => {
                let ideal = vin > vref;
                if period >= 2 && sample % period == 0 {
                    !ideal
                } else {
                    ideal
                }
            }
        }
    }

    /// An ideal comparator.
    pub fn ideal() -> Self {
        ComparatorBehavior::Normal { offset: 0.0 }
    }
}

/// Behavioural model of the complete flash converter: 256 reference taps,
/// 256 comparator stages, and the transition-detect wired-OR decoder.
#[derive(Debug, Clone)]
pub struct FlashAdc {
    refs: Vec<f64>,
    comps: Vec<ComparatorBehavior>,
}

impl FlashAdc {
    /// An ideal converter with evenly spaced references.
    pub fn ideal() -> Self {
        FlashAdc {
            refs: (1..=TAPS).map(ideal_tap_voltage).collect(),
            comps: vec![ComparatorBehavior::ideal(); TAPS],
        }
    }

    /// Number of comparator stages.
    pub fn stages(&self) -> usize {
        self.comps.len()
    }

    /// Replaces the behaviour of stage `k` (0-based).
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn set_comparator(&mut self, k: usize, behavior: ComparatorBehavior) {
        self.comps[k] = behavior;
    }

    /// Overrides reference tap `k` (0-based) — used for ladder fault
    /// propagation.
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn set_reference(&mut self, k: usize, volts: f64) {
        self.refs[k] = volts;
    }

    /// Converts one sample.
    pub fn convert(&self, vin: f64, sample: usize) -> u8 {
        let therm: Vec<bool> = self
            .comps
            .iter()
            .zip(&self.refs)
            .map(|(c, &r)| c.decide(vin, r, sample))
            .collect();
        decode_thermometer(&therm)
    }

    /// Runs the paper's missing-code test: `n` samples of a triangular
    /// sweep spanning slightly beyond the full reference range, then the
    /// set of output codes that never occurred.
    ///
    /// Sample `s` sits at `sweep_input(s, n)`: up the ramp for
    /// `s <= n / 2`, back down after. One sample sits at the bottom of the
    /// ramp, and no sample leaves every code missing.
    ///
    /// The samples are visited in ascending input order, once up the ramp
    /// and once down it, against the trip points sorted once: each sample
    /// sets only the stages whose trip point it has just passed, and the
    /// decoder's output is kept up to date transition by transition. An
    /// erratic stage is inverted for the one sample that inverts it. The
    /// code set is exactly that of converting every sample.
    pub fn missing_codes(&self, n: usize) -> Vec<u8> {
        // Trip points in ascending order: stage `k` decides 1 once the
        // input exceeds `trips[..].0`.
        let mut trips: Vec<(f64, usize)> = Vec::with_capacity(self.stages());
        let mut erratic = Vec::new();
        for (k, (c, &vref)) in self.comps.iter().zip(&self.refs).enumerate() {
            match *c {
                ComparatorBehavior::Normal { offset } => trips.push((vref + offset, k)),
                ComparatorBehavior::Erratic { period } => {
                    trips.push((vref, k));
                    if period >= 2 {
                        erratic.push((k, period));
                    }
                }
                ComparatorBehavior::StuckHigh | ComparatorBehavior::StuckLow => {}
            }
        }
        // `vin > NaN` never holds: such a stage stays at 0.
        trips.retain(|(t, _)| !t.is_nan());
        trips.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut seen = [false; 256];
        let half = n / 2;
        let up = 0..n.min(half + 1);
        let down = (half + 1..n).rev();
        for ramp in [up.collect::<Vec<_>>(), down.collect()] {
            let mut therm = Thermometer::new(self.stages());
            for (k, c) in self.comps.iter().enumerate() {
                if *c == ComparatorBehavior::StuckHigh {
                    therm.set(k, true);
                }
            }
            let mut next = 0;
            for s in ramp {
                let vin = sweep_input(s, n);
                while next < trips.len() && trips[next].0 < vin {
                    therm.set(trips[next].1, true);
                    next += 1;
                }
                let inverted = erratic.iter().filter(|&&(_, period)| s % period == 0);
                for &(k, _) in inverted.clone() {
                    therm.set(k, !therm.bit(k));
                }
                seen[therm.code() as usize] = true;
                for &(k, _) in inverted {
                    therm.set(k, !therm.bit(k));
                }
            }
        }
        (0u8..=255).filter(|&c| !seen[c as usize]).collect()
    }

    /// `true` if the missing-code test (with the paper's 1000 samples)
    /// flags this converter as faulty.
    pub fn fails_missing_code_test(&self) -> bool {
        !self.missing_codes(1000).is_empty()
    }
}

/// The input of sample `s` of the missing-code test's `n`-sample
/// triangular sweep, from 10 mV below the lowest reference to 10 mV above
/// the highest: up the ramp for `s <= n / 2`, then back down. With fewer
/// than two samples the ramp has no length and sample 0 sits at its
/// bottom.
fn sweep_input(s: usize, n: usize) -> f64 {
    let lo = VREF_LO - 0.01;
    let hi = VREF_HI + 0.01;
    let half = n / 2;
    let frac = if half == 0 {
        0.0
    } else if s <= half {
        s as f64 / half as f64
    } else {
        (n - s) as f64 / (n - half) as f64
    };
    lo + (hi - lo) * frac
}

/// A thermometer vector and the wired-OR decoder output it drives
/// ([`decode_thermometer`]), updated one stage at a time.
struct Thermometer {
    bits: Vec<bool>,
    /// Per output bit, how many firing transitions set it.
    firing: [i32; 8],
}

impl Thermometer {
    fn new(stages: usize) -> Self {
        Thermometer {
            bits: vec![false; stages],
            firing: [0; 8],
        }
    }

    fn bit(&self, k: usize) -> bool {
        self.bits[k]
    }

    /// Adds (`delta = 1`) or removes (`delta = -1`) the ROM row of
    /// transition `i` if it fires: stage `i` is 1 and the stage above it
    /// is 0.
    fn count(&mut self, i: usize, delta: i32) {
        let above = self.bits.get(i + 1).copied().unwrap_or(false);
        if self.bits[i] && !above {
            let code = (i + 1).min(255);
            for (b, d) in self.firing.iter_mut().enumerate() {
                if code >> b & 1 == 1 {
                    *d += delta;
                }
            }
        }
    }

    fn set(&mut self, k: usize, value: bool) {
        if self.bits[k] == value {
            return;
        }
        let rows = k.saturating_sub(1)..=k;
        for i in rows.clone() {
            self.count(i, -1);
        }
        self.bits[k] = value;
        for i in rows {
            self.count(i, 1);
        }
    }

    fn code(&self) -> u8 {
        (0..8)
            .filter(|&b| self.firing[b] > 0)
            .fold(0, |out, b| out | 1 << b)
    }
}

impl Default for FlashAdc {
    fn default() -> Self {
        Self::ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dotm_rng::rngs::StdRng;
    use dotm_rng::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// The missing-code test as it was first written: convert every
    /// sample of the sweep and collect the codes. The reference for the
    /// sweep at `n >= 2`; at `n = 1` its input is 0/0.
    fn missing_codes_by_conversion(adc: &FlashAdc, n: usize) -> Vec<u8> {
        let mut seen = BTreeSet::new();
        let lo = VREF_LO - 0.01;
        let hi = VREF_HI + 0.01;
        for s in 0..n {
            // Triangle over the sample index: up then down.
            let half = n / 2;
            let frac = if s <= half {
                s as f64 / half as f64
            } else {
                (n - s) as f64 / (n - half) as f64
            };
            let vin = lo + (hi - lo) * frac;
            seen.insert(adc.convert(vin, s));
        }
        (0u8..=255).filter(|c| !seen.contains(c)).collect()
    }

    /// A seeded converter: references jittered (some out of order), and a
    /// mix of every comparator behaviour.
    fn random_adc(rng: &mut StdRng) -> FlashAdc {
        let mut adc = FlashAdc::ideal();
        let faults = rng.gen_range(0..12usize);
        for _ in 0..faults {
            let k = rng.gen_range(0..TAPS);
            let behavior = match rng.gen_range(0..5u32) {
                0 => ComparatorBehavior::StuckHigh,
                1 => ComparatorBehavior::StuckLow,
                2 => ComparatorBehavior::Erratic {
                    period: rng.gen_range(0..6usize),
                },
                _ => ComparatorBehavior::Normal {
                    offset: rng.gen_range(-0.05..0.05),
                },
            };
            adc.set_comparator(k, behavior);
        }
        for _ in 0..rng.gen_range(0..8usize) {
            let k = rng.gen_range(0..TAPS);
            let volts = match rng.gen_range(0..3u32) {
                // A tap swapped out of order, or a tap at a neighbour's
                // exact voltage, or one off the ends of the sweep.
                0 => ideal_tap_voltage(rng.gen_range(1..=TAPS)),
                1 => adc.refs[(k + 1) % TAPS],
                _ => rng.gen_range(VREF_LO - 0.5..VREF_HI + 0.5),
            };
            adc.set_reference(k, volts);
        }
        adc
    }

    #[test]
    fn sweep_equals_converting_every_sample() {
        let mut rng = StdRng::seed_from_u64(26);
        for case in 0..300 {
            let adc = random_adc(&mut rng);
            for n in [2, 3, 7, 64, 255, 256, 999, 1000, 1001] {
                assert_eq!(
                    adc.missing_codes(n),
                    missing_codes_by_conversion(&adc, n),
                    "case {case}, n {n}: {adc:?}"
                );
            }
        }
    }

    #[test]
    fn sweep_handles_a_sample_exactly_on_a_trip_point() {
        // vin > trip is strict: a sample landing exactly on a trip point
        // leaves that stage at 0.
        let n = 1000;
        let mut adc = FlashAdc::ideal();
        adc.set_reference(100, sweep_input(300, n));
        adc.set_comparator(7, ComparatorBehavior::Normal { offset: f64::NAN });
        adc.set_comparator(
            8,
            ComparatorBehavior::Normal {
                offset: f64::NEG_INFINITY,
            },
        );
        assert_eq!(adc.missing_codes(n), missing_codes_by_conversion(&adc, n));
    }

    #[test]
    fn fewer_than_two_samples() {
        // No sample: every code is missing.
        let adc = FlashAdc::ideal();
        assert_eq!(adc.missing_codes(0), (0u8..=255).collect::<Vec<_>>());
        // One sample sits at the bottom of the sweep, below every
        // reference: only code 0 occurs.
        assert_eq!(sweep_input(0, 1), VREF_LO - 0.01);
        assert_eq!(adc.missing_codes(1), (1u8..=255).collect::<Vec<_>>());
        let mut adc = FlashAdc::ideal();
        adc.set_comparator(0, ComparatorBehavior::Erratic { period: 2 });
        // Sample 0 inverts the erratic stage 0: the decoder reads code 1.
        let mut expected: Vec<u8> = (0u8..=255).collect();
        expected.retain(|&c| c != 1);
        assert_eq!(adc.missing_codes(1), expected);
        assert_eq!(adc.missing_codes(0).len(), 256);
    }

    #[test]
    fn ideal_adc_has_no_missing_codes() {
        let adc = FlashAdc::ideal();
        assert!(adc.missing_codes(1000).is_empty());
        assert!(!adc.fails_missing_code_test());
    }

    #[test]
    fn conversion_is_monotone_for_ideal_adc() {
        let adc = FlashAdc::ideal();
        let mut last = 0u8;
        for k in 0..200 {
            let vin = VREF_LO + (VREF_HI - VREF_LO) * k as f64 / 199.0;
            let code = adc.convert(vin, 0);
            assert!(code >= last, "non-monotone at {vin}");
            last = code;
        }
        assert_eq!(adc.convert(VREF_LO - 0.1, 0), 0);
        assert_eq!(adc.convert(VREF_HI + 0.1, 0), 255);
    }

    #[test]
    fn stuck_comparator_causes_missing_codes() {
        for behavior in [ComparatorBehavior::StuckHigh, ComparatorBehavior::StuckLow] {
            let mut adc = FlashAdc::ideal();
            adc.set_comparator(100, behavior);
            assert!(
                adc.fails_missing_code_test(),
                "{behavior:?} must cause missing codes"
            );
        }
    }

    #[test]
    fn small_offset_is_not_detected_large_offset_is() {
        // Offsets below one LSB (≈ 7.8 mV) leave every code reachable;
        // offsets of several LSBs swallow codes.
        let mut adc = FlashAdc::ideal();
        adc.set_comparator(100, ComparatorBehavior::Normal { offset: 0.002 });
        assert!(!adc.fails_missing_code_test(), "2 mV offset must pass");
        let mut adc = FlashAdc::ideal();
        adc.set_comparator(100, ComparatorBehavior::Normal { offset: 0.030 });
        assert!(adc.fails_missing_code_test(), "30 mV offset must fail");
    }

    #[test]
    fn erratic_comparator_corrupts_codes() {
        let mut adc = FlashAdc::ideal();
        adc.set_comparator(100, ComparatorBehavior::Erratic { period: 2 });
        assert!(adc.fails_missing_code_test());
    }

    #[test]
    fn shifted_reference_tap_swallows_codes() {
        let mut adc = FlashAdc::ideal();
        // Tap 100 jumps near tap 110's value: codes around 100 vanish.
        adc.set_reference(100, ideal_tap_voltage(110));
        assert!(adc.fails_missing_code_test());
    }
}

/// Code-density linearity of a converter: DNL/INL in LSB estimated from a
/// dense linear ramp (the histogram method every production test floor
/// uses; the missing-code test is its cheap binary cousin).
#[derive(Debug, Clone)]
pub struct LinearityReport {
    /// Differential nonlinearity per code (LSB), codes `1..=254`.
    pub dnl: Vec<f64>,
    /// Integral nonlinearity per code (LSB), cumulative sum of DNL.
    pub inl: Vec<f64>,
    /// Codes that never occurred.
    pub missing: Vec<u8>,
}

impl LinearityReport {
    /// Largest |DNL| (LSB).
    pub fn max_dnl(&self) -> f64 {
        self.dnl.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Largest |INL| (LSB).
    pub fn max_inl(&self) -> f64 {
        self.inl.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }
}

impl FlashAdc {
    /// Runs the code-density (histogram) linearity analysis with
    /// `samples_per_code` ramp samples per nominal code bin.
    pub fn code_density_linearity(&self, samples_per_code: usize) -> LinearityReport {
        let n = samples_per_code.max(1) * 256;
        let lo = VREF_LO;
        let hi = VREF_HI;
        let mut hist = [0usize; 256];
        for s in 0..n {
            let vin = lo + (hi - lo) * (s as f64 + 0.5) / n as f64;
            hist[self.convert(vin, s) as usize] += 1;
        }
        // End bins absorb the clipped range; evaluate codes 1..=254.
        let interior: usize = hist[1..255].iter().sum();
        let ideal = interior as f64 / 254.0;
        let mut dnl = Vec::with_capacity(254);
        let mut inl = Vec::with_capacity(254);
        let mut acc = 0.0;
        for &count in &hist[1..255] {
            let d = count as f64 / ideal - 1.0;
            dnl.push(d);
            acc += d;
            inl.push(acc);
        }
        let missing = (0u8..=255).filter(|&c| hist[c as usize] == 0).collect();
        LinearityReport { dnl, inl, missing }
    }
}

#[cfg(test)]
mod linearity_tests {
    use super::*;
    use crate::ladder::ideal_tap_voltage;

    #[test]
    fn ideal_adc_is_linear() {
        let adc = FlashAdc::ideal();
        let rep = adc.code_density_linearity(32);
        assert!(rep.missing.is_empty());
        assert!(rep.max_dnl() < 0.1, "max dnl {}", rep.max_dnl());
        assert!(rep.max_inl() < 0.2, "max inl {}", rep.max_inl());
    }

    #[test]
    fn offset_comparator_shows_dnl_spike() {
        let mut adc = FlashAdc::ideal();
        // Half-LSB offset: no missing code, but a visible DNL error.
        adc.set_comparator(100, ComparatorBehavior::Normal { offset: 0.004 });
        let rep = adc.code_density_linearity(32);
        assert!(rep.missing.is_empty());
        assert!(rep.max_dnl() > 0.3, "max dnl {}", rep.max_dnl());
    }

    #[test]
    fn shifted_reference_appears_in_inl() {
        let mut adc = FlashAdc::ideal();
        adc.set_reference(100, ideal_tap_voltage(103));
        let rep = adc.code_density_linearity(32);
        assert!(rep.max_inl() >= 0.99, "max inl {}", rep.max_inl());
        assert!(!rep.missing.is_empty());
    }

    #[test]
    fn stuck_comparator_reports_missing_codes_in_histogram() {
        let mut adc = FlashAdc::ideal();
        adc.set_comparator(100, ComparatorBehavior::StuckLow);
        let rep = adc.code_density_linearity(16);
        assert!(!rep.missing.is_empty());
    }
}
