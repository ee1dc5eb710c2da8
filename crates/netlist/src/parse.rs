//! A SPICE-card netlist parser.
//!
//! Supports the subset of classic SPICE decks this workspace's devices
//! cover, so external circuits can be dropped into the defect-oriented
//! flow without writing builder code:
//!
//! ```text
//! * comment lines and trailing $ comments
//! R1 a b 10k
//! C1 out 0 1.5p
//! V1 in 0 DC 5
//! VCK ck 0 PULSE(0 5 10n 2n 2n 38n 100n)
//! VS  s  0 SIN(2.5 0.5 1MEG)
//! VP  p  0 PWL(0 0 1u 5 2u 0)
//! I1 a 0 DC 1m
//! D1 a 0 IS=1e-14
//! M1 d g s b NMOS W=10u L=0.8u
//! .end
//! ```
//!
//! Node `0` (or `gnd`) is ground. Values accept engineering suffixes
//! (`f p n u m k meg g t`) with any following unit text ignored
//! (`10kohm` ≡ `10k`).

use crate::device::{DiodeParams, MosType, MosfetParams};
use crate::netlist::Netlist;
use crate::waveform::Waveform;
use std::fmt;

/// Errors produced by [`parse_spice`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number of the offending card.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses an engineering-notation value like `10k`, `1.5p`, `3meg`,
/// `100nF` (unit text after the suffix is ignored). A value that
/// overflows to infinity is not a number: no card could write it back.
pub fn parse_value(text: &str) -> Option<f64> {
    let t = text.trim().to_ascii_lowercase();
    // Split the leading numeric part.
    let mut split = t.len();
    for (i, c) in t.char_indices() {
        if !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e') {
            split = i;
            break;
        }
        // 'e' is only numeric if followed by a digit or sign.
        if c == 'e' {
            let rest = &t[i + 1..];
            let ok = rest
                .chars()
                .next()
                .map(|n| n.is_ascii_digit() || n == '-' || n == '+')
                .unwrap_or(false);
            if !ok {
                split = i;
                break;
            }
        }
    }
    let (num, suffix) = t.split_at(split);
    let base: f64 = num.parse().ok()?;
    let mult = if suffix.starts_with("meg") {
        1e6
    } else {
        match suffix.chars().next() {
            None => 1.0,
            Some('f') => 1e-15,
            Some('p') => 1e-12,
            Some('n') => 1e-9,
            Some('u') => 1e-6,
            Some('m') => 1e-3,
            Some('k') => 1e3,
            Some('g') => 1e9,
            Some('t') => 1e12,
            // Unknown suffix letters are treated as unit text (e.g. "5v").
            Some(_) => 1.0,
        }
    };
    Some(base * mult).filter(|v| v.is_finite())
}

/// Splits a card into tokens, honouring `(` `)` `=` as separators but
/// keeping function arguments together: `PULSE(0 5 1n)` becomes
/// `["pulse", "0", "5", "1n"]`.
fn tokenize(line: &str) -> Vec<String> {
    line.replace(['(', ')', ',', '='], " ")
        .split_whitespace()
        .map(|s| s.to_ascii_lowercase())
        .collect()
}

/// Strips comments: whole-line `*`, trailing `$` or `;`.
fn strip_comment(line: &str) -> &str {
    let line = line.trim();
    if line.starts_with('*') {
        return "";
    }
    let cut = line.find(['$', ';']).unwrap_or(line.len());
    line[..cut].trim()
}

fn source_waveform(tokens: &[String], line: usize) -> Result<Waveform, ParseError> {
    if tokens.is_empty() {
        return Err(err(line, "source needs a value"));
    }
    // Exactly `n` numeric arguments after the keyword: a missing one and
    // a trailing extra one are both errors, never silently defaulted or
    // dropped.
    let need = |n: usize| -> Result<Vec<f64>, ParseError> {
        if tokens.len() != n + 1 {
            return Err(err(line, format!("expected {n} numeric arguments")));
        }
        tokens[1..=n]
            .iter()
            .map(|t| parse_value(t).ok_or_else(|| err(line, format!("bad number `{t}`"))))
            .collect()
    };
    match tokens[0].as_str() {
        "dc" => {
            let v = need(1)?;
            Ok(Waveform::dc(v[0]))
        }
        "pulse" => {
            let v = need(7)?;
            Ok(Waveform::pulse(v[0], v[1], v[2], v[3], v[4], v[5], v[6]))
        }
        "sin" => {
            if !(4..=5).contains(&tokens.len()) {
                return Err(err(
                    line,
                    "SIN needs offset, amplitude, frequency and an optional delay",
                ));
            }
            let v = need(tokens.len() - 1)?;
            Ok(Waveform::Sin {
                offset: v[0],
                amplitude: v[1],
                freq: v[2],
                delay: v.get(3).copied().unwrap_or(0.0),
            })
        }
        "pwl" => {
            let nums: Result<Vec<f64>, ParseError> = tokens[1..]
                .iter()
                .map(|t| parse_value(t).ok_or_else(|| err(line, format!("bad number `{t}`"))))
                .collect();
            let nums = nums?;
            if nums.len() < 2 || nums.len() % 2 != 0 {
                return Err(err(line, "PWL needs an even number of values"));
            }
            Ok(Waveform::Pwl(
                nums.chunks(2).map(|c| (c[0], c[1])).collect(),
            ))
        }
        // A bare number is a DC value.
        _ => {
            if tokens.len() > 1 {
                return Err(err(line, "unexpected tokens after the source value"));
            }
            let v = parse_value(&tokens[0])
                .ok_or_else(|| err(line, format!("bad source value `{}`", tokens[0])))?;
            Ok(Waveform::dc(v))
        }
    }
}

/// The one value of an R or C card, its fourth and last token.
fn value(tokens: &[String], line: usize, what: &str) -> Result<f64, ParseError> {
    match tokens {
        [_, _, _, v] => parse_value(v).ok_or_else(|| err(line, format!("bad {what} value `{v}`"))),
        [_, _, _] => Err(err(line, format!("{what} needs a value"))),
        _ => Err(err(line, "unexpected tokens after the value")),
    }
}

/// Reads `key value` pairs (already `=`-stripped by the tokenizer) from
/// the tail of a card.
fn params(tokens: &[String], line: usize) -> Result<Vec<(String, f64)>, ParseError> {
    if tokens.len() % 2 != 0 {
        return Err(err(line, "dangling parameter name"));
    }
    tokens
        .chunks(2)
        .map(|c| {
            let v = parse_value(&c[1])
                .ok_or_else(|| err(line, format!("bad parameter value `{}`", c[1])))?;
            Ok((c[0].clone(), v))
        })
        .collect()
}

/// Parses a SPICE deck into a [`Netlist`]. The first line is treated as a
/// title if it does not parse as a card (classic SPICE convention) —
/// decks starting directly with cards work too.
///
/// ```
/// let deck = "divider\nV1 in 0 DC 5\nR1 in out 3k\nR2 out 0 2k\n.end";
/// let nl = dotm_netlist::parse_spice(deck)?;
/// assert_eq!(nl.name(), "divider");
/// assert_eq!(nl.device_count(), 3);
/// # Ok::<(), dotm_netlist::ParseError>(())
/// ```
///
/// # Errors
/// Returns the first [`ParseError`] with its 1-based line number.
pub fn parse_spice(text: &str) -> Result<Netlist, ParseError> {
    let mut nl = Netlist::new("spice");
    let mut first_card = true;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw);
        if line.is_empty() {
            continue;
        }
        let lower = line.to_ascii_lowercase();
        if lower.starts_with(".end") {
            break;
        }
        if lower.starts_with('.') {
            // Other dot-cards (.tran, .options...) are analysis directives,
            // not structure; ignore them.
            continue;
        }
        let kind = lower.chars().next().unwrap();
        let is_card = matches!(kind, 'r' | 'c' | 'v' | 'i' | 'd' | 'm');
        let card_result = if is_card {
            parse_card(&mut nl, kind, line, lineno)
        } else {
            Err(err(lineno, format!("unsupported card `{line}`")))
        };
        match card_result {
            Ok(()) => {
                first_card = false;
            }
            Err(e) => {
                if first_card {
                    // Classic SPICE: the first line is the deck title.
                    first_card = false;
                    nl = Netlist::new(line.trim());
                } else {
                    return Err(e);
                }
            }
        }
    }
    Ok(nl)
}

/// Parses a single device card into the netlist.
fn parse_card(nl: &mut Netlist, kind: char, line: &str, lineno: usize) -> Result<(), ParseError> {
    {
        let tokens = tokenize(line);
        if tokens.len() < 3 {
            return Err(err(lineno, "card needs a name and nodes"));
        }
        let name = tokens[0].to_ascii_uppercase();
        match kind {
            'r' => {
                let a = nl.node(&tokens[1]);
                let b = nl.node(&tokens[2]);
                let v = value(&tokens, lineno, "resistor")?;
                nl.add_resistor(&name, a, b, v)
                    .map_err(|e| err(lineno, e.to_string()))?;
            }
            'c' => {
                let a = nl.node(&tokens[1]);
                let b = nl.node(&tokens[2]);
                let v = value(&tokens, lineno, "capacitor")?;
                nl.add_capacitor(&name, a, b, v)
                    .map_err(|e| err(lineno, e.to_string()))?;
            }
            'v' | 'i' => {
                let p = nl.node(&tokens[1]);
                let q = nl.node(&tokens[2]);
                let wf = source_waveform(&tokens[3..], lineno)?;
                if kind == 'v' {
                    nl.add_vsource(&name, p, q, wf)
                } else {
                    nl.add_isource(&name, p, q, wf)
                }
                .map_err(|e| err(lineno, e.to_string()))?;
            }
            'd' => {
                let a = nl.node(&tokens[1]);
                let c = nl.node(&tokens[2]);
                let mut dp = DiodeParams::default();
                for (k, v) in params(&tokens[3..], lineno)? {
                    match k.as_str() {
                        "is" => dp.is = v,
                        "n" => dp.n = v,
                        other => return Err(err(lineno, format!("unknown diode param `{other}`"))),
                    }
                }
                nl.add_diode(&name, a, c, dp)
                    .map_err(|e| err(lineno, e.to_string()))?;
            }
            'm' => {
                if tokens.len() < 6 {
                    return Err(err(lineno, "MOSFET needs d g s b and a model"));
                }
                let d = nl.node(&tokens[1]);
                let g = nl.node(&tokens[2]);
                let s = nl.node(&tokens[3]);
                let b = nl.node(&tokens[4]);
                let ty = match tokens[5].as_str() {
                    "nmos" => MosType::Nmos,
                    "pmos" => MosType::Pmos,
                    other => return Err(err(lineno, format!("unknown model `{other}`"))),
                };
                let mut mp = MosfetParams::default_for(ty);
                for (k, v) in params(&tokens[6..], lineno)? {
                    match k.as_str() {
                        "w" => mp.w = v,
                        "l" => mp.l = v,
                        "vt0" | "vto" => mp.vt0 = v,
                        "kp" => mp.kp = v,
                        "lambda" => mp.lambda = v,
                        "gamma" => mp.gamma = v,
                        "phi" => mp.phi = v,
                        "is" => mp.is_leak = v,
                        other => {
                            return Err(err(lineno, format!("unknown MOSFET param `{other}`")))
                        }
                    }
                }
                nl.add_mosfet(&name, d, g, s, b, ty, mp)
                    .map_err(|e| err(lineno, e.to_string()))?;
            }
            _ => unreachable!("is_card checked"),
        }
    }
    Ok(())
}

/// Serialises a netlist back to a SPICE deck that [`parse_spice`] accepts
/// (title line, one card per device, `.end`). Switches have no SPICE-card
/// equivalent here and are rejected.
///
/// ```
/// use dotm_netlist::{parse_spice, write_spice, Netlist, Waveform};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("cell");
/// let a = nl.node("a");
/// nl.add_resistor("R1", a, Netlist::GROUND, 10e3)?;
/// let deck = write_spice(&nl)?;
/// let back = parse_spice(&deck)?;
/// assert_eq!(back.device_count(), 1);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
/// Returns an error naming the first unsupported device.
pub fn write_spice(nl: &Netlist) -> Result<String, crate::NetlistError> {
    use crate::device::DeviceKind;
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(out, "{}", nl.name());
    let wf = |w: &Waveform| -> String {
        match w {
            Waveform::Dc(v) => format!("DC {v}"),
            Waveform::Pulse {
                v0,
                v1,
                delay,
                rise,
                fall,
                width,
                period,
            } => format!("PULSE({v0} {v1} {delay} {rise} {fall} {width} {period})"),
            Waveform::Sin {
                offset,
                amplitude,
                freq,
                delay,
            } => format!("SIN({offset} {amplitude} {freq} {delay})"),
            Waveform::Pwl(pts) => {
                let body: Vec<String> = pts.iter().map(|(t, v)| format!("{t} {v}")).collect();
                format!("PWL({})", body.join(" "))
            }
        }
    };
    for (_, dev) in nl.devices() {
        let nodes: Vec<&str> = dev.terminals().iter().map(|n| nl.node_name(*n)).collect();
        match &dev.kind {
            DeviceKind::Resistor { ohms, .. } => {
                let _ = writeln!(out, "{} {} {} {}", dev.name, nodes[0], nodes[1], ohms);
            }
            DeviceKind::Capacitor { farads, .. } => {
                let _ = writeln!(out, "{} {} {} {}", dev.name, nodes[0], nodes[1], farads);
            }
            DeviceKind::Vsource { waveform, .. } | DeviceKind::Isource { waveform, .. } => {
                let _ = writeln!(
                    out,
                    "{} {} {} {}",
                    dev.name,
                    nodes[0],
                    nodes[1],
                    wf(waveform)
                );
            }
            DeviceKind::Diode { params, .. } => {
                let _ = writeln!(
                    out,
                    "{} {} {} IS={} N={}",
                    dev.name, nodes[0], nodes[1], params.is, params.n
                );
            }
            DeviceKind::Mosfet { ty, params, .. } => {
                let model = match ty {
                    crate::MosType::Nmos => "NMOS",
                    crate::MosType::Pmos => "PMOS",
                };
                let _ = writeln!(
                    out,
                    "{} {} {} {} {} {model} W={} L={} VT0={} KP={} LAMBDA={} GAMMA={} PHI={} IS={}",
                    dev.name,
                    nodes[0],
                    nodes[1],
                    nodes[2],
                    nodes[3],
                    params.w,
                    params.l,
                    params.vt0,
                    params.kp,
                    params.lambda,
                    params.gamma,
                    params.phi,
                    params.is_leak
                );
            }
            DeviceKind::Switch { .. } => {
                return Err(crate::NetlistError::InvalidEdit(format!(
                    "device `{}`: switches have no SPICE-card form",
                    dev.name
                )));
            }
        }
    }
    out.push_str(".end\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceKind;

    #[test]
    fn values_with_suffixes() {
        assert_eq!(parse_value("10k"), Some(10e3));
        assert_eq!(parse_value("1.5p"), Some(1.5e-12));
        assert_eq!(parse_value("3meg"), Some(3e6));
        assert!((parse_value("100nF").unwrap() - 100e-9).abs() < 1e-18);
        assert_eq!(parse_value("-2.5"), Some(-2.5));
        assert_eq!(parse_value("1e-3"), Some(1e-3));
        assert_eq!(parse_value("2E6"), Some(2e6));
        assert_eq!(parse_value("5v"), Some(5.0));
        assert_eq!(parse_value("abc"), None);
        assert_eq!(parse_value("1e999"), None);
        assert_eq!(parse_value("1e308t"), None);
    }

    #[test]
    fn sin_delay_survives_a_round_trip() {
        let nl = parse_spice("VS s 0 SIN(2.5 0.5 1MEG 20n)").unwrap();
        let back = parse_spice(&write_spice(&nl).unwrap()).unwrap();
        match &back.device("VS").unwrap().kind {
            DeviceKind::Vsource {
                waveform: Waveform::Sin { delay, .. },
                ..
            } => assert_eq!(*delay, 20e-9),
            other => panic!("{other:?}"),
        }
        assert_eq!(back.content_digest(), nl.content_digest());
    }

    #[test]
    fn parses_divider_with_title() {
        let deck = "\
my divider
* a comment
V1 in 0 DC 5
R1 in mid 3k   $ upper leg
R2 mid 0 2kohm
.end";
        let nl = parse_spice(deck).unwrap();
        assert_eq!(nl.name(), "my divider");
        assert_eq!(nl.device_count(), 3);
        match &nl.device("R2").unwrap().kind {
            DeviceKind::Resistor { ohms, .. } => assert_eq!(*ohms, 2e3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_sources() {
        let deck = "\
VDC a 0 DC 3.3
VPU b 0 PULSE(0 5 10n 2n 2n 38n 100n)
VSN c 0 SIN(2.5 0.5 1MEG)
VPW d 0 PWL(0 0 1u 5)
IB  e 0 1m";
        let nl = parse_spice(deck).unwrap();
        match &nl.device("VPU").unwrap().kind {
            DeviceKind::Vsource { waveform, .. } => {
                assert_eq!(waveform.value_at(30e-9), 5.0);
                assert_eq!(waveform.value_at(60e-9), 0.0);
            }
            other => panic!("{other:?}"),
        }
        match &nl.device("VSN").unwrap().kind {
            DeviceKind::Vsource { waveform, .. } => assert_eq!(waveform.dc_value(), 2.5),
            other => panic!("{other:?}"),
        }
        match &nl.device("IB").unwrap().kind {
            DeviceKind::Isource { waveform, .. } => assert_eq!(waveform.dc_value(), 1e-3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_mosfet_with_params() {
        let deck = "M1 d g s 0 NMOS W=10u L=0.8u VT0=0.7";
        let nl = parse_spice(deck).unwrap();
        match &nl.device("M1").unwrap().kind {
            DeviceKind::Mosfet { ty, params, .. } => {
                assert_eq!(*ty, MosType::Nmos);
                assert!((params.w - 10e-6).abs() < 1e-12);
                assert!((params.l - 0.8e-6).abs() < 1e-12);
                assert!((params.vt0 - 0.7).abs() < 1e-12);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ground_aliases_map_to_node_zero() {
        let deck = "R1 a 0 1k\nR2 a gnd 1k";
        let nl = parse_spice(deck).unwrap();
        let a = nl.find_node("a").unwrap();
        assert_eq!(nl.connections(Netlist::GROUND).len(), 2);
        assert_eq!(nl.connections(a).len(), 2);
    }

    #[test]
    fn reports_line_numbers_on_errors() {
        let deck = "R1 a 0 1k\nQ1 c b e npn";
        let e = parse_spice(deck).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unsupported"));
        // A failing first line becomes the title (classic SPICE), so the
        // error checks use decks with an explicit title line.
        let e = parse_spice("title\nR1 a 0").unwrap_err();
        assert!(e.message.contains("value"), "{e}");
        let e = parse_spice("title\nM1 d g s 0 BJT").unwrap_err();
        assert!(e.message.contains("unknown model"), "{e}");
    }

    #[test]
    fn trailing_and_malformed_arguments_are_rejected() {
        // Each deck used to parse as a different valid one: the extra
        // tokens were dropped, or the bad delay read as 0.
        for (card, needle) in [
            ("R1 a 0 1k junk more", "unexpected tokens"),
            ("C1 a 0 1p 2p", "unexpected tokens"),
            ("R1 a 0 junk", "bad resistor value"),
            ("V1 a 0 DC 5 7 8", "expected 1 numeric"),
            ("V1 a 0 PULSE(0 5 1n 1n 1n 5n 10n 3)", "expected 7 numeric"),
            ("V1 a 0 5 7", "unexpected tokens"),
            ("I1 a 0 1m 2m", "unexpected tokens"),
            ("V1 a 0 SIN(1 2 3 zz)", "bad number `zz`"),
            ("V1 a 0 SIN(1 2 3 4 5)", "SIN needs"),
        ] {
            let e = parse_spice(&format!("title\n{card}")).unwrap_err();
            assert_eq!(e.line, 2, "{card}");
            assert!(e.message.contains(needle), "{card}: {e}");
        }
        // The forms the writer emits still parse.
        let nl = parse_spice("title\nV1 a 0 SIN(1 2 3)\nV2 b 0 SIN(1 2 3 4)\nV3 c 0 5").unwrap();
        assert_eq!(nl.device_count(), 3);
    }

    #[test]
    fn dot_cards_are_ignored_and_end_stops() {
        let deck = "R1 a 0 1k\n.tran 1n 100n\n.end\nR2 b 0 1k";
        let nl = parse_spice(deck).unwrap();
        assert_eq!(nl.device_count(), 1);
    }

    #[test]
    fn parsed_deck_simulates() {
        // Round-trip into the simulator: a diode clamp.
        let deck = "\
clamp
V1 in 0 DC 5
R1 in a 1k
D1 a 0 IS=1e-14";
        let nl = parse_spice(deck).unwrap();
        // Constructing a Simulator here would cycle the dependency; the
        // cross-crate round-trip lives in dotm-sim's tests. Structure only:
        assert_eq!(nl.device_count(), 3);
        assert!(nl.find_node("a").is_some());
    }
}
