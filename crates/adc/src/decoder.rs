//! The thermometer→binary decoder.
//!
//! The full decoder is digital and is evaluated behaviourally (see
//! [`crate::behavior`]): a 1→0 transition detector per tap drives a
//! wired-OR ROM. For the decoder macro's defect analysis this module
//! provides a representative transistor-level *column section*: three
//! adjacent ROM rows sharing the eight bitlines. Three rows (with codes
//! chosen so that every bitline is pulled down by some row, left high by
//! some row, and every adjacent bitline pair differs in some row) are the
//! smallest section in which bitline leaks, bitline-to-bitline bridges
//! and detector faults are all observable — the same
//! "simulate boundary-crossing faults with the affected cells" rule the
//! paper applies to the comparator.

use crate::process::VDD;
use dotm_netlist::{MosType, MosfetParams, Netlist, Waveform};

/// Decodes a thermometer vector into the output byte through the
/// transition-detect + wired-OR ROM structure of the case-study ADC.
///
/// `therm[i]` is comparator `i+1`'s decision (`vin > ref_{i+1}`). In the
/// fault-free circuit the vector is a prefix of ones and exactly one
/// transition fires. With bubbles (faulty comparators) several ROM rows
/// fire simultaneously and OR together — precisely the mechanism that
/// turns a stuck comparator into missing codes.
pub fn decode_thermometer(therm: &[bool]) -> u8 {
    let n = therm.len();
    let mut out: u8 = 0;
    for i in 0..n {
        let above = if i + 1 < n { therm[i + 1] } else { false };
        if therm[i] && !above {
            let code = (i + 1).min(255) as u8;
            out |= code;
        }
    }
    out
}

/// The ideal thermometer height for a vector (number of leading ones) —
/// used by tests and the behavioural model.
pub fn thermometer_height(therm: &[bool]) -> usize {
    therm.iter().take_while(|&&b| b).count()
}

fn nmos(w: f64, l: f64) -> MosfetParams {
    MosfetParams::nmos_default().sized(w, l)
}

fn pmos(w: f64, l: f64) -> MosfetParams {
    MosfetParams::pmos_default().sized(w, l)
}

/// The ROM codes of the three analysed rows: together they pull every
/// bitline low at least once, leave every bitline high at least once, and
/// drive every adjacent bitline pair to opposite values at least once.
pub const SLICE_CODES: [u8; 3] = [0b1011_0100, 0b0100_1011, 0b0101_0101];

/// Number of thermometer inputs of the slice (`t0..t3`).
pub const SLICE_INPUTS: usize = 4;

/// Builds the decoder column section: three transition detectors over the
/// thermometer inputs `t0..t3`, each driving its ROM row on the shared,
/// precharged bitlines `bl0..bl7`.
pub fn decoder_slice_macro(codes: [u8; 3]) -> Netlist {
    let mut nl = Netlist::new("decoder_slice");
    let gnd = Netlist::GROUND;
    let vdd = nl.node("vdd_dig");
    let pc = nl.node("pc");
    let t: Vec<_> = (0..SLICE_INPUTS)
        .map(|i| nl.node(&format!("t{i}")))
        .collect();
    // Shared bitlines with precharge PMOS.
    for bit in 0..8u8 {
        let bl = nl.node(&format!("bl{bit}"));
        nl.add_mosfet(
            &format!("MDP{bit}"),
            bl,
            pc,
            vdd,
            vdd,
            MosType::Pmos,
            pmos(4e-6, 0.8e-6),
        )
        .unwrap();
    }
    // Three rows: row r detects the transition t_{r} & !t_{r+1}
    // (r = 0..2, using thermometer inputs t0..t3).
    for (r, &code) in codes.iter().enumerate() {
        let t_cur = t[r];
        let t_next = t[r + 1];
        let tn_b = nl.node(&format!("tn_b{r}"));
        let e_b = nl.node(&format!("e_b{r}"));
        let e = nl.node(&format!("e{r}"));
        let mid = nl.node(&format!("nmid{r}"));
        nl.add_mosfet(
            &format!("MD1N{r}"),
            tn_b,
            t_next,
            gnd,
            gnd,
            MosType::Nmos,
            nmos(2e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MD1P{r}"),
            tn_b,
            t_next,
            vdd,
            vdd,
            MosType::Pmos,
            pmos(4e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MD2A{r}"),
            mid,
            t_cur,
            gnd,
            gnd,
            MosType::Nmos,
            nmos(3e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MD2B{r}"),
            e_b,
            tn_b,
            mid,
            gnd,
            MosType::Nmos,
            nmos(3e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MD2PA{r}"),
            e_b,
            t_cur,
            vdd,
            vdd,
            MosType::Pmos,
            pmos(4e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MD2PB{r}"),
            e_b,
            tn_b,
            vdd,
            vdd,
            MosType::Pmos,
            pmos(4e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MD3N{r}"),
            e,
            e_b,
            gnd,
            gnd,
            MosType::Nmos,
            nmos(3e-6, 0.8e-6),
        )
        .unwrap();
        nl.add_mosfet(
            &format!("MD3P{r}"),
            e,
            e_b,
            vdd,
            vdd,
            MosType::Pmos,
            pmos(6e-6, 0.8e-6),
        )
        .unwrap();
        for bit in 0..8u8 {
            if code & (1 << bit) != 0 {
                let bl = nl.node(&format!("bl{bit}"));
                nl.add_mosfet(
                    &format!("MDR{bit}_{r}"),
                    bl,
                    e,
                    gnd,
                    gnd,
                    MosType::Nmos,
                    nmos(3e-6, 0.8e-6),
                )
                .unwrap();
            }
        }
    }
    nl
}

/// Builds the slice testbench: digital supply, thermometer inputs set to
/// `height` leading ones, precharge released through a realistic driver
/// impedance, and bitline hold capacitance.
pub fn decoder_slice_testbench(codes: [u8; 3], height: usize) -> Netlist {
    let mut nl = decoder_slice_macro(codes);
    let vdd = nl.node("vdd_dig");
    nl.add_vsource("VDDDIG", vdd, Netlist::GROUND, Waveform::dc(VDD))
        .unwrap();
    for i in 0..SLICE_INPUTS {
        let t = nl.node(&format!("t{i}"));
        let level = if i < height { VDD } else { 0.0 };
        nl.add_vsource(&format!("VT{i}"), t, Netlist::GROUND, Waveform::dc(level))
            .unwrap();
    }
    // Precharge released low→high early; the driver has a few hundred
    // ohms of output impedance, so shorts on the pc line actually move it.
    let pc_src = nl.node("pc_src");
    let pc = nl.node("pc");
    nl.add_vsource(
        "VPC",
        pc_src,
        Netlist::GROUND,
        Waveform::pulse(0.0, VDD, 5e-9, 1e-9, 1e-9, 1.0, 0.0),
    )
    .unwrap();
    nl.add_resistor("RPC", pc_src, pc, 250.0).unwrap();
    for bit in 0..8 {
        let bl = nl.node(&format!("bl{bit}"));
        nl.add_capacitor(&format!("CBL{bit}"), bl, Netlist::GROUND, 50e-15)
            .unwrap();
    }
    nl
}

/// The code the slice should produce for a given thermometer height
/// (0 = no row fires, bitlines stay precharged).
pub fn slice_expected_code(codes: [u8; 3], height: usize) -> u8 {
    if (1..=3).contains(&height) {
        codes[height - 1]
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dotm_sim::Simulator;

    #[test]
    fn clean_thermometer_decodes_height() {
        let mut t = vec![false; 256];
        assert_eq!(decode_thermometer(&t), 0);
        for h in [1usize, 5, 128, 255] {
            t.iter_mut().for_each(|b| *b = false);
            t[..h].iter_mut().for_each(|b| *b = true);
            assert_eq!(decode_thermometer(&t) as usize, h, "height {h}");
        }
        t.iter_mut().for_each(|b| *b = true);
        assert_eq!(decode_thermometer(&t), 255); // clamp at full scale
    }

    #[test]
    fn bubble_corrupts_code_by_or() {
        // Height 100 with a stuck-at-1 comparator at position 200:
        // two rows fire (100 and 200) and OR together.
        let mut t = vec![false; 256];
        t[..100].iter_mut().for_each(|b| *b = true);
        t[199] = true;
        let code = decode_thermometer(&t);
        assert_eq!(code, 100u8 | 200u8);
    }

    #[test]
    fn stuck_at_zero_splits_prefix() {
        let mut t = vec![false; 256];
        t[..100].iter_mut().for_each(|b| *b = true);
        t[49] = false;
        assert_eq!(decode_thermometer(&t), 49u8 | 100u8);
        assert_eq!(thermometer_height(&t), 49);
    }

    #[test]
    fn slice_codes_exercise_all_bitlines_and_pairs() {
        let [a, b, c] = SLICE_CODES;
        assert_eq!(a | b | c, 0xFF, "every bit pulled low somewhere");
        assert_eq!(a & b & c, 0x00, "every bit left high somewhere");
        for i in 0..7u8 {
            let differs = [a, b, c]
                .iter()
                .any(|code| ((code >> i) & 1) != ((code >> (i + 1)) & 1));
            assert!(differs, "adjacent pair {i}/{} never differs", i + 1);
        }
    }

    fn read_bitlines(height: usize) -> Vec<f64> {
        let nl = decoder_slice_testbench(SLICE_CODES, height);
        let mut sim = Simulator::new(&nl);
        let op = &sim.transient(0.2e-9, &[29e-9]).unwrap()[0];
        (0..8)
            .map(|bit| op.voltage(nl.find_node(&format!("bl{bit}")).unwrap()))
            .collect()
    }

    #[test]
    fn each_row_discharges_its_code() {
        for height in 1..=3usize {
            let code = slice_expected_code(SLICE_CODES, height);
            let bl = read_bitlines(height);
            for (bit, v) in bl.iter().enumerate() {
                if code & (1 << bit) != 0 {
                    assert!(*v < 0.5, "h={height} bit {bit} must discharge, got {v:.2}");
                } else {
                    assert!(
                        *v > VDD - 0.5,
                        "h={height} bit {bit} must stay high, got {v:.2}"
                    );
                }
            }
        }
    }

    #[test]
    fn no_transition_keeps_bitlines_precharged() {
        for height in [0usize, 4] {
            let bl = read_bitlines(height);
            for (bit, v) in bl.iter().enumerate() {
                assert!(
                    *v > VDD - 0.5,
                    "h={height} bit {bit} discharged spuriously ({v:.2})"
                );
            }
        }
    }
}
