//! Binary codecs for the two persisted payloads: a cached measurement
//! (store entries) and a list of class outcomes (journal records).
//!
//! Encodings are canonical — one byte sequence per value — which is what
//! lets serial and multi-threaded runs write byte-identical stores and
//! journals. Solver-stats words and sequence lengths are LEB128 varints
//! (most counters fit in one or two bytes); floats keep their exact
//! eight-byte bit patterns. Decoding is total: any unknown tag, truncation or trailing
//! garbage yields `None` and the caller treats the record as absent.

use crate::wire::{Reader, Writer};
use dotm_core::{CachedMeasurement, ClassOutcome, CurrentFlags, DetectionSet, VoltageSignature};
use dotm_defects::FaultMechanism;
use dotm_faults::Severity;
use dotm_sim::{SimError, SimStats};

/// The `&'static str` analysis names a [`SimError`] can carry. An entry
/// naming an analysis outside this set decodes as corrupt (a miss) —
/// the strings must come from the binary, not the disk.
const ANALYSES: [&str; 2] = ["dc", "transient"];

fn encode_analysis(w: &mut Writer, analysis: &str) {
    let tag = ANALYSES.iter().position(|a| *a == analysis);
    // An unknown analysis name still encodes (as the reserved tag), so
    // encoding is total; such entries simply never decode.
    w.u8(tag.map_or(u8::MAX, |t| t as u8));
}

fn decode_analysis(r: &mut Reader) -> Option<&'static str> {
    ANALYSES.get(r.u8()? as usize).copied()
}

fn encode_sim_error(w: &mut Writer, e: &SimError) {
    match e {
        SimError::Singular { analysis } => {
            w.u8(0);
            encode_analysis(w, analysis);
        }
        SimError::NoConvergence {
            analysis,
            time,
            iterations,
        } => {
            w.u8(1);
            encode_analysis(w, analysis);
            match time {
                Some(t) => {
                    w.u8(1);
                    w.f64(*t);
                }
                None => w.u8(0),
            }
            w.u64(*iterations as u64);
        }
        SimError::InvalidRequest(s) => {
            w.u8(2);
            w.str(s);
        }
        SimError::BadSource(s) => {
            w.u8(3);
            w.str(s);
        }
    }
}

fn decode_sim_error(r: &mut Reader) -> Option<SimError> {
    match r.u8()? {
        0 => Some(SimError::Singular {
            analysis: decode_analysis(r)?,
        }),
        1 => {
            let analysis = decode_analysis(r)?;
            let time = match r.u8()? {
                0 => None,
                1 => Some(r.f64()?),
                _ => return None,
            };
            let iterations = usize::try_from(r.u64()?).ok()?;
            Some(SimError::NoConvergence {
                analysis,
                time,
                iterations,
            })
        }
        2 => Some(SimError::InvalidRequest(r.str()?)),
        3 => Some(SimError::BadSource(r.str()?)),
        _ => None,
    }
}

fn encode_stats(w: &mut Writer, s: &SimStats) {
    for word in s.to_words() {
        w.uvar(word);
    }
}

fn decode_stats(r: &mut Reader) -> Option<SimStats> {
    let mut s = SimStats::default();
    let fields: [&mut u64; 15] = [
        &mut s.nr_solves,
        &mut s.nr_iterations,
        &mut s.converged_plain,
        &mut s.converged_gmin,
        &mut s.converged_source,
        &mut s.dc_failures,
        &mut s.singular_pivots,
        &mut s.maxiter_exhausted,
        &mut s.tran_steps,
        &mut s.rejected_steps,
        &mut s.step_halvings,
        &mut s.warm_hits,
        &mut s.warm_misses,
        &mut s.factor_reuse_hits,
        &mut s.factor_refactor_fallbacks,
    ];
    for f in fields {
        *f = r.uvar()?;
    }
    Some(s)
}

/// Encodes one cached measurement: the `Result` and the solver-stats
/// delta that replaying it must merge.
pub fn encode_measurement(m: &CachedMeasurement) -> Vec<u8> {
    let mut w = Writer::new();
    match &m.0 {
        Ok(values) => {
            w.u8(0);
            w.uvar(values.len() as u64);
            for v in values {
                w.f64(*v);
            }
        }
        Err(e) => {
            w.u8(1);
            encode_sim_error(&mut w, e);
        }
    }
    encode_stats(&mut w, &m.1);
    w.into_bytes()
}

/// Decodes one cached measurement; `None` on any corruption, including
/// trailing bytes.
pub fn decode_measurement(bytes: &[u8]) -> Option<CachedMeasurement> {
    let mut r = Reader::new(bytes);
    let result = match r.u8()? {
        0 => {
            let n = r.seq_len(8)?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(r.f64()?);
            }
            Ok(values)
        }
        1 => Err(decode_sim_error(&mut r)?),
        _ => return None,
    };
    let stats = decode_stats(&mut r)?;
    if !r.is_empty() {
        return None;
    }
    Some((result, stats))
}

fn mechanism_tag(m: FaultMechanism) -> u8 {
    FaultMechanism::ALL
        .iter()
        .position(|x| *x == m)
        .expect("every mechanism is in ALL") as u8
}

fn voltage_tag(v: VoltageSignature) -> u8 {
    VoltageSignature::ALL
        .iter()
        .position(|x| *x == v)
        .expect("every signature is in ALL") as u8
}

fn encode_outcome(w: &mut Writer, o: &ClassOutcome) {
    w.str(&o.key);
    w.u8(mechanism_tag(o.mechanism));
    w.u64(o.count as u64);
    w.u8(match o.severity {
        Severity::Catastrophic => 0,
        Severity::NonCatastrophic => 1,
    });
    w.u8(o.shared as u8);
    w.u8(voltage_tag(o.voltage));
    w.u8(o.detection.missing_code as u8);
    w.u8(o.detection.currents.ivdd as u8);
    w.u8(o.detection.currents.iddq as u8);
    w.u8(o.detection.currents.iinput as u8);
    w.uvar(o.flagged.len() as u64);
    for &i in &o.flagged {
        w.u64(i as u64);
    }
    w.u8(o.sim_failed as u8);
    w.u8(o.inject_failed as u8);
    w.u8(o.rung.unwrap_or(u8::MAX));
    w.u64(o.inject_errors as u64);
    w.u8(o.excluded as u8);
    encode_stats(w, &o.solver);
}

fn decode_bool(r: &mut Reader) -> Option<bool> {
    match r.u8()? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

fn decode_outcome(r: &mut Reader) -> Option<ClassOutcome> {
    let key = r.str()?;
    let mechanism = *FaultMechanism::ALL.get(r.u8()? as usize)?;
    let count = usize::try_from(r.u64()?).ok()?;
    let severity = match r.u8()? {
        0 => Severity::Catastrophic,
        1 => Severity::NonCatastrophic,
        _ => return None,
    };
    let shared = decode_bool(r)?;
    let voltage = *VoltageSignature::ALL.get(r.u8()? as usize)?;
    let detection = DetectionSet {
        missing_code: decode_bool(r)?,
        currents: CurrentFlags {
            ivdd: decode_bool(r)?,
            iddq: decode_bool(r)?,
            iinput: decode_bool(r)?,
        },
    };
    let n_flagged = r.seq_len(8)?;
    let mut flagged = Vec::with_capacity(n_flagged);
    for _ in 0..n_flagged {
        flagged.push(usize::try_from(r.u64()?).ok()?);
    }
    let sim_failed = decode_bool(r)?;
    let inject_failed = decode_bool(r)?;
    let rung = match r.u8()? {
        u8::MAX => None,
        r => Some(r),
    };
    let inject_errors = usize::try_from(r.u64()?).ok()?;
    let excluded = decode_bool(r)?;
    let solver = decode_stats(r)?;
    Some(ClassOutcome {
        key,
        mechanism,
        count,
        severity,
        shared,
        voltage,
        detection,
        flagged,
        sim_failed,
        inject_failed,
        rung,
        inject_errors,
        excluded,
        solver,
    })
}

/// Encodes the outcome list of one completed class (a journal record's
/// payload).
pub fn encode_outcomes(outcomes: &[ClassOutcome]) -> Vec<u8> {
    let mut w = Writer::new();
    w.uvar(outcomes.len() as u64);
    for o in outcomes {
        encode_outcome(&mut w, o);
    }
    w.into_bytes()
}

/// Decodes one class's outcome list; `None` on any corruption.
pub fn decode_outcomes(bytes: &[u8]) -> Option<Vec<ClassOutcome>> {
    let mut r = Reader::new(bytes);
    let n = r.seq_len(1)?;
    let mut outcomes = Vec::with_capacity(n);
    for _ in 0..n {
        outcomes.push(decode_outcome(&mut r)?);
    }
    if !r.is_empty() {
        return None;
    }
    Some(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dotm_rng::rngs::StdRng;
    use dotm_rng::{Rng, RngCore, SeedableRng};

    fn sample_stats() -> SimStats {
        SimStats {
            nr_solves: 3,
            nr_iterations: 41,
            converged_plain: 2,
            dc_failures: 1,
            warm_hits: 2,
            warm_misses: 1,
            factor_reuse_hits: 5,
            factor_refactor_fallbacks: 1,
            ..SimStats::default()
        }
    }

    fn sample_outcome() -> ClassOutcome {
        ClassOutcome {
            key: "short:mid|vdd".into(),
            mechanism: FaultMechanism::Short,
            count: 17,
            severity: Severity::NonCatastrophic,
            shared: true,
            voltage: VoltageSignature::Offset,
            detection: DetectionSet {
                missing_code: true,
                currents: CurrentFlags {
                    ivdd: true,
                    iddq: false,
                    iinput: true,
                },
            },
            flagged: vec![1, 4],
            sim_failed: false,
            inject_failed: false,
            rung: Some(2),
            inject_errors: 0,
            excluded: false,
            solver: sample_stats(),
        }
    }

    #[test]
    fn measurement_ok_roundtrips_bit_exactly() {
        let m: CachedMeasurement = (
            Ok(vec![2.5, -0.0, f64::MIN_POSITIVE, 1.0e300]),
            sample_stats(),
        );
        let bytes = encode_measurement(&m);
        let back = decode_measurement(&bytes).expect("decodes");
        let (Ok(orig), Ok(dec)) = (&m.0, &back.0) else {
            panic!("both must be Ok");
        };
        assert_eq!(orig.len(), dec.len());
        for (a, b) in orig.iter().zip(dec) {
            assert_eq!(a.to_bits(), b.to_bits(), "exact bit pattern");
        }
        assert_eq!(m.1, back.1);
    }

    #[test]
    fn measurement_errors_roundtrip() {
        for e in [
            SimError::Singular { analysis: "dc" },
            SimError::NoConvergence {
                analysis: "transient",
                time: Some(1.5e-9),
                iterations: 600,
            },
            SimError::InvalidRequest("bad step".into()),
            SimError::BadSource("R1".into()),
        ] {
            let m: CachedMeasurement = (Err(e.clone()), SimStats::default());
            let back = decode_measurement(&encode_measurement(&m)).expect("decodes");
            assert_eq!(back.0, Err(e));
        }
    }

    #[test]
    fn unknown_analysis_name_decodes_as_corrupt() {
        // "ac" names the retired AC analysis.
        for e in [
            SimError::Singular { analysis: "noise" },
            SimError::NoConvergence {
                analysis: "ac",
                time: None,
                iterations: 150,
            },
        ] {
            let m: CachedMeasurement = (Err(e), SimStats::default());
            assert_eq!(decode_measurement(&encode_measurement(&m)), None);
        }
        // Nor does the AC analysis's old tag, 2, decode.
        let mut w = Writer::new();
        w.u8(1); // an error
        w.u8(0); // `Singular`
        w.u8(2);
        encode_stats(&mut w, &SimStats::default());
        assert_eq!(decode_measurement(&w.into_bytes()), None);
    }

    #[test]
    fn flipping_any_byte_is_rejected_or_different() {
        let m: CachedMeasurement = (Ok(vec![1.0, 2.0]), sample_stats());
        let bytes = encode_measurement(&m);
        // Truncations are always rejected.
        for cut in 0..bytes.len() {
            assert_eq!(decode_measurement(&bytes[..cut]), None, "cut at {cut}");
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(decode_measurement(&padded), None);
    }

    #[test]
    fn outcomes_roundtrip() {
        let outcomes = vec![
            sample_outcome(),
            ClassOutcome {
                severity: Severity::Catastrophic,
                rung: None,
                sim_failed: true,
                excluded: true,
                flagged: Vec::new(),
                ..sample_outcome()
            },
        ];
        let bytes = encode_outcomes(&outcomes);
        let back = decode_outcomes(&bytes).expect("decodes");
        assert_eq!(back.len(), 2);
        for (a, b) in outcomes.iter().zip(&back) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.mechanism, b.mechanism);
            assert_eq!(a.count, b.count);
            assert_eq!(a.severity, b.severity);
            assert_eq!(a.shared, b.shared);
            assert_eq!(a.voltage, b.voltage);
            assert_eq!(a.detection, b.detection);
            assert_eq!(a.flagged, b.flagged);
            assert_eq!(a.sim_failed, b.sim_failed);
            assert_eq!(a.inject_failed, b.inject_failed);
            assert_eq!(a.rung, b.rung);
            assert_eq!(a.inject_errors, b.inject_errors);
            assert_eq!(a.excluded, b.excluded);
            assert_eq!(a.solver, b.solver);
        }
        // Canonical: re-encoding the decode gives the same bytes.
        assert_eq!(encode_outcomes(&back), bytes);
    }

    /// One encoded measurement pinned byte for byte: a codec change that
    /// does not bump `FORMAT_VERSION` (and so would misread old stores)
    /// fails here.
    #[test]
    fn measurement_encoding_is_pinned_to_the_format_version() {
        assert_eq!(crate::context::FORMAT_VERSION, 11);
        let m: CachedMeasurement = (Ok(vec![1.25, -3.5e-6]), sample_stats_wide());
        assert_eq!(
            crate::wire::to_hex(&encode_measurement(&m)),
            "0002000000000000f43fb75f3e59315ccdbe02ac020100000000007803010000c80100"
        );
    }

    fn sample_stats_wide() -> SimStats {
        SimStats {
            nr_solves: 2,
            nr_iterations: 300,
            converged_plain: 1,
            tran_steps: 120,
            rejected_steps: 3,
            step_halvings: 1,
            factor_reuse_hits: 200,
            ..SimStats::default()
        }
    }

    fn random_stats(rng: &mut StdRng) -> SimStats {
        let mut words = [0u64; 15];
        for w in &mut words {
            // Mostly small counters, sometimes any width up to u64::MAX.
            *w = rng.next_u64() >> rng.gen_range(0u32..64);
        }
        let [nr_solves, nr_iterations, converged_plain, converged_gmin, converged_source, dc_failures, singular_pivots, maxiter_exhausted, tran_steps, rejected_steps, step_halvings, warm_hits, warm_misses, factor_reuse_hits, factor_refactor_fallbacks] =
            words;
        SimStats {
            nr_solves,
            nr_iterations,
            converged_plain,
            converged_gmin,
            converged_source,
            dc_failures,
            singular_pivots,
            maxiter_exhausted,
            tran_steps,
            rejected_steps,
            step_halvings,
            warm_hits,
            warm_misses,
            factor_reuse_hits,
            factor_refactor_fallbacks,
        }
    }

    fn random_measurement(rng: &mut StdRng) -> CachedMeasurement {
        let result = if rng.gen_bool(0.8) {
            let n = rng.gen_range(0usize..200);
            Ok((0..n).map(|_| f64::from_bits(rng.next_u64())).collect())
        } else {
            Err(SimError::NoConvergence {
                analysis: ANALYSES[rng.gen_range(0usize..ANALYSES.len())],
                time: rng.gen_bool(0.5).then(|| rng.gen_f64()),
                iterations: rng.gen_range(0usize..100_000),
            })
        };
        (result, random_stats(rng))
    }

    /// A varint in its canonical form followed by `extra` redundant zero
    /// groups — the same value, spelled overlong.
    fn overlong(v: u64, extra: usize) -> Vec<u8> {
        let mut w = Writer::new();
        w.uvar(v);
        let mut bytes = w.into_bytes();
        for _ in 0..extra {
            *bytes.last_mut().expect("one byte at least") |= 0x80;
            bytes.push(0);
        }
        bytes
    }

    /// Decodes `bytes` with every payload decoder; whatever is accepted
    /// must re-encode to exactly `bytes`.
    fn assert_canonical_or_rejected(bytes: &[u8]) {
        if let Some(m) = decode_measurement(bytes) {
            assert_eq!(encode_measurement(&m), bytes, "measurement {bytes:02x?}");
        }
        if let Some(o) = decode_outcomes(bytes) {
            assert_eq!(encode_outcomes(&o), bytes, "outcomes {bytes:02x?}");
        }
    }

    /// Seeded fuzz loop over the measurement, good-space and
    /// journal-outcome payloads: random bytes, truncations, bit flips and
    /// overlong varints never panic, valid values round-trip, and every
    /// accepted input is the canonical encoding of what it decodes to.
    #[test]
    fn seeded_fuzz_round_trips_and_rejects_noncanonical_bytes() {
        let mut rng = StdRng::seed_from_u64(0xD07_F022);
        // The good space's record: an integral retry count and σ pairs.
        let goodspace: CachedMeasurement = (Ok(vec![1.0, 2.5e-6, 3.0e-7]), sample_stats_wide());
        let mut corpus = vec![
            encode_measurement(&goodspace),
            encode_measurement(&(Ok(vec![4.9, -4.9, 4.9, 5.0]), sample_stats())),
            encode_measurement(&(Err(SimError::BadSource("VIN".into())), sample_stats())),
            encode_outcomes(&[sample_outcome()]),
        ];
        for _ in 0..2_000 {
            // NaN payloads make `==` useless; the bytes compare bits.
            let bytes = encode_measurement(&random_measurement(&mut rng));
            let back = decode_measurement(&bytes).expect("round trip");
            assert_eq!(encode_measurement(&back), bytes, "round trip");
            if corpus.len() < 32 {
                corpus.push(bytes);
            }
            let mut o = sample_outcome();
            o.solver = random_stats(&mut rng);
            o.flagged = (0..rng.gen_range(0usize..6)).collect();
            let bytes = encode_outcomes(&[o.clone(), o]);
            let back = decode_outcomes(&bytes).expect("outcome round trip");
            assert_eq!(encode_outcomes(&back), bytes, "outcome round trip");
        }
        for _ in 0..20_000 {
            let seed = &corpus[rng.gen_range(0usize..corpus.len())];
            let bytes = match rng.gen_range(0u32..3) {
                0 => (0..rng.gen_range(0usize..48))
                    .map(|_| rng.next_u64() as u8)
                    .collect(),
                1 => seed[..rng.gen_range(0usize..seed.len())].to_vec(),
                _ => {
                    let mut b = seed.clone();
                    for _ in 0..rng.gen_range(1u32..4) {
                        let at = rng.gen_range(0usize..b.len());
                        b[at] ^= 1 << rng.gen_range(0u32..8);
                    }
                    b
                }
            };
            assert_canonical_or_rejected(&bytes);
        }
        // Overlong varints: the same measurement with its length or one
        // stats word spelled in a redundant longer form never decodes.
        for _ in 0..2_000 {
            let (result, stats) = random_measurement(&mut rng);
            let Ok(values) = result else { continue };
            let words = stats.to_words();
            let which = rng.gen_range(0usize..=words.len());
            let extra = rng.gen_range(1usize..3);
            let mut bytes = vec![0u8];
            bytes.extend(overlong(
                values.len() as u64,
                if which == 0 { extra } else { 0 },
            ));
            for v in &values {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            for (k, w) in words.iter().enumerate() {
                bytes.extend(overlong(*w, if which == k + 1 { extra } else { 0 }));
            }
            assert_eq!(decode_measurement(&bytes), None, "overlong field {which}");
            assert_canonical_or_rejected(&bytes);
        }
    }

    #[test]
    fn outcome_truncations_are_rejected() {
        let bytes = encode_outcomes(&[sample_outcome()]);
        for cut in 0..bytes.len() {
            assert!(decode_outcomes(&bytes[..cut]).is_none(), "cut at {cut}");
        }
    }
}
