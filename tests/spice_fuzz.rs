//! A seeded fuzz loop for the SPICE reader.
//!
//! Inputs start from the `write_spice` decks of the five macro
//! testbenches plus one deck that uses every card and waveform the
//! reader knows, and are mutated by random bytes, truncation, bit flips,
//! splices of hard tokens (overflowing numbers, waveform openers,
//! comment characters) and duplicated, dropped or swapped lines. Two
//! properties hold for every input:
//!
//! - `parse_spice` never panics;
//! - a deck that parses writes back and re-parses to the same
//!   `content_digest`.
//!
//! A failure names the round and prints the input, so it reproduces
//! from the seed alone.

use dotm::core::harnesses::{
    BiasHarness, ClockgenHarness, ComparatorHarness, DecoderHarness, LadderHarness,
};
use dotm::core::MacroHarness;
use dotm::netlist::{parse_spice, write_spice};
use dotm_rng::{Rng, RngCore, StdRng};

const SEED: u64 = 1995;
const ROUNDS_PER_DECK: usize = 1_500;

/// A deck with every card kind, every waveform (a SIN with a delay
/// among them), a title and comments.
const EVERY_CARD: &str = "\
every card
* a comment line
V1 in 0 DC 5
VCK ck 0 PULSE(0 5 10n 2n 2n 38n 100n)
VS s 0 SIN(2.5 0.5 1MEG 20n)
VP p 0 PWL(0 0 1u 5 2u 0)
I1 a 0 DC 1m $ trailing comment
R1 in a 10k ; another
C1 a 0 1.5p
D1 a 0 IS=1e-14 N=1.2
M1 s ck a 0 NMOS W=10u L=0.8u VT0=0.7
M2 s ck in in PMOS W=20u L=0.8u
.tran 1n 100n
.end
";

/// Tokens a random byte rarely spells.
const DICTIONARY: [&str; 22] = [
    "1e999",
    "-1e999",
    "1e308t",
    "1e-320",
    "nan",
    "inf",
    "-0",
    "0",
    " DC ",
    "SIN(1 2 3 4)",
    "PULSE(",
    "PWL(0 0 1 1)",
    ")",
    "(",
    "=",
    "$",
    ";",
    "*",
    ".end",
    "gnd",
    "\r",
    "meg",
];

fn corpus() -> Vec<String> {
    let harnesses: [&dyn MacroHarness; 5] = [
        &ComparatorHarness::production(),
        &LadderHarness,
        &BiasHarness::default(),
        &ClockgenHarness::default(),
        &DecoderHarness::default(),
    ];
    let mut decks: Vec<String> = harnesses
        .iter()
        .map(|h| write_spice(&h.testbench()).expect("testbenches have SPICE cards"))
        .collect();
    decks.push(EVERY_CARD.to_string());
    decks
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// One random edit of `text`.
fn mutate(rng: &mut StdRng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let mut lines: Vec<&str> = text.split('\n').collect();
    let n = lines.len();
    match rng.gen_range(0..7u32) {
        0 => {
            let len = rng.gen_range(0..200usize);
            let alphabet = b"RCVIDMrcvidm0123456789.+-eEkKmMnNpPuU ()=$;*\n\t\r_xyz";
            bytes = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.9) {
                        *pick(rng, alphabet)
                    } else {
                        rng.next_u64() as u8
                    }
                })
                .collect();
        }
        1 => bytes.truncate(rng.gen_range(0..=bytes.len())),
        2 if !bytes.is_empty() => {
            for _ in 0..rng.gen_range(1..=4usize) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        3 => {
            let at = rng.gen_range(0..=bytes.len());
            let token = pick(rng, &DICTIONARY).as_bytes();
            bytes.splice(at..at, token.iter().copied());
        }
        4 => {
            let i = rng.gen_range(0..n);
            lines.insert(rng.gen_range(0..=n), lines[i]);
            bytes = lines.join("\n").into_bytes();
        }
        5 => {
            lines.remove(rng.gen_range(0..n));
            bytes = lines.join("\n").into_bytes();
        }
        _ => {
            lines.swap(rng.gen_range(0..n), rng.gen_range(0..n));
            bytes = lines.join("\n").into_bytes();
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Checks both properties on `input`: `Ok` says whether it parsed, and
/// `Err` describes the violation.
fn check(input: &str) -> Result<bool, String> {
    let parsed = std::panic::catch_unwind(|| parse_spice(input))
        .map_err(|_| "parse_spice panicked".to_string())?;
    let Ok(nl) = parsed else {
        return Ok(false);
    };
    let deck = write_spice(&nl).map_err(|e| format!("write_spice refused a parsed deck: {e}"))?;
    let back =
        parse_spice(&deck).map_err(|e| format!("written deck does not parse: {e}\n{deck}"))?;
    if back.content_digest() != nl.content_digest() {
        return Err(format!("round trip moved the content digest:\n{deck}"));
    }
    Ok(true)
}

#[test]
fn mutated_decks_never_panic_and_round_trip_when_they_parse() {
    let mut parsed = 0;
    for (d, deck) in corpus().iter().enumerate() {
        assert_eq!(check(deck), Ok(true), "deck {d}, unmutated");
        let mut rng = StdRng::seed_from_stream(SEED, d as u64);
        for round in 0..ROUNDS_PER_DECK {
            let mut input = mutate(&mut rng, deck);
            for _ in 0..rng.gen_range(0..3usize) {
                input = mutate(&mut rng, &input);
            }
            match check(&input) {
                Ok(ok) => parsed += usize::from(ok),
                Err(why) => panic!("deck {d}, round {round}: {why}\ninput:\n{input:?}"),
            }
        }
    }
    assert!(
        parsed > ROUNDS_PER_DECK,
        "only {parsed} inputs parsed: the loop no longer reaches the write-back"
    );
}
