//! Integration tests checking the simulator against circuits with known
//! analytic solutions.

use dotm_netlist::{DiodeParams, MosType, MosfetParams, Netlist, SwitchParams, Waveform};
use dotm_sim::{Integration, SimOptions, Simulator, VT_THERMAL};

const VDD: f64 = 5.0;

fn supply(nl: &mut Netlist) -> dotm_netlist::NodeId {
    let vdd = nl.node("vdd");
    nl.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(VDD))
        .unwrap();
    vdd
}

#[test]
fn voltage_divider_exact() {
    let mut nl = Netlist::new("div");
    let vdd = supply(&mut nl);
    let mid = nl.node("mid");
    nl.add_resistor("R1", vdd, mid, 3e3).unwrap();
    nl.add_resistor("R2", mid, Netlist::GROUND, 2e3).unwrap();
    let mut sim = Simulator::new(&nl);
    let op = sim.dc_op().unwrap();
    assert!((op.voltage(mid) - VDD * 2.0 / 5.0).abs() < 1e-7);
    // Supply sources I = V/(R1+R2) = 1 mA; SPICE convention: negative.
    let ivdd = op.branch_current(nl.device_id("VDD").unwrap()).unwrap();
    assert!((ivdd + 1e-3).abs() < 1e-7, "ivdd = {ivdd}");
}

#[test]
fn wheatstone_bridge_balanced() {
    let mut nl = Netlist::new("bridge");
    let vdd = supply(&mut nl);
    let l = nl.node("l");
    let r = nl.node("r");
    nl.add_resistor("R1", vdd, l, 1e3).unwrap();
    nl.add_resistor("R2", l, Netlist::GROUND, 2e3).unwrap();
    nl.add_resistor("R3", vdd, r, 2e3).unwrap();
    nl.add_resistor("R4", r, Netlist::GROUND, 4e3).unwrap();
    nl.add_resistor("Rbridge", l, r, 5e3).unwrap();
    let mut sim = Simulator::new(&nl);
    let op = sim.dc_op().unwrap();
    // Balanced bridge: no current through Rbridge, equal mid voltages.
    assert!((op.voltage(l) - op.voltage(r)).abs() < 1e-7);
    assert!((op.voltage(l) - VDD * 2.0 / 3.0).abs() < 1e-7);
}

#[test]
fn current_source_into_resistor() {
    let mut nl = Netlist::new("ir");
    let n = nl.node("n");
    // 1 mA pulled from ground into node n (Isource from gnd to n pushes
    // current into n per the sign convention: positive I flows pos→neg
    // through the source, i.e. out of the circuit at pos, into it at neg).
    nl.add_isource("I1", Netlist::GROUND, n, Waveform::dc(1e-3))
        .unwrap();
    nl.add_resistor("R1", n, Netlist::GROUND, 1e3).unwrap();
    let mut sim = Simulator::new(&nl);
    let op = sim.dc_op().unwrap();
    assert!((op.voltage(n) - 1.0).abs() < 1e-6);
}

#[test]
fn diode_clamp_forward_voltage() {
    let mut nl = Netlist::new("dclamp");
    let vdd = supply(&mut nl);
    let a = nl.node("a");
    nl.add_resistor("R1", vdd, a, 1e3).unwrap();
    nl.add_diode("D1", a, Netlist::GROUND, DiodeParams::default())
        .unwrap();
    let mut sim = Simulator::new(&nl);
    let op = sim.dc_op().unwrap();
    let vd = op.voltage(a);
    // Id = (VDD−vd)/R = Is·(exp(vd/VT)−1) — check self-consistency.
    let id = (VDD - vd) / 1e3;
    let id_model = 1e-14 * ((vd / VT_THERMAL).exp() - 1.0);
    assert!(vd > 0.5 && vd < 0.8, "vd = {vd}");
    assert!((id - id_model).abs() / id < 1e-3);
}

#[test]
fn nmos_saturation_current_matches_level1() {
    let mut nl = Netlist::new("msat");
    let vdd = supply(&mut nl);
    let g = nl.node("g");
    let d = nl.node("d");
    nl.add_vsource("VG", g, Netlist::GROUND, Waveform::dc(2.0))
        .unwrap();
    nl.add_resistor("RD", vdd, d, 1e3).unwrap();
    let p = MosfetParams::nmos_default();
    nl.add_mosfet(
        "M1",
        d,
        g,
        Netlist::GROUND,
        Netlist::GROUND,
        MosType::Nmos,
        p.clone(),
    )
    .unwrap();
    let mut sim = Simulator::new(&nl);
    let op = sim.dc_op().unwrap();
    let vd = op.voltage(d);
    let beta = p.kp * p.w / p.l;
    let vov = 2.0 - p.vt0;
    assert!(vd > vov, "device must sit in saturation, vd = {vd}");
    let ids = 0.5 * beta * vov * vov * (1.0 + p.lambda * vd);
    let ids_kcl = (VDD - vd) / 1e3;
    assert!(
        (ids - ids_kcl).abs() / ids < 1e-6,
        "model {ids} vs kcl {ids_kcl}"
    );
}

#[test]
fn cmos_inverter_vtc_monotone_with_sharp_transition() {
    let mut nl = Netlist::new("inv");
    let vdd = supply(&mut nl);
    let vin = nl.node("in");
    let out = nl.node("out");
    nl.add_vsource("VIN", vin, Netlist::GROUND, Waveform::dc(0.0))
        .unwrap();
    nl.add_mosfet(
        "MP",
        out,
        vin,
        vdd,
        vdd,
        MosType::Pmos,
        MosfetParams::pmos_default(),
    )
    .unwrap();
    nl.add_mosfet(
        "MN",
        out,
        vin,
        Netlist::GROUND,
        Netlist::GROUND,
        MosType::Nmos,
        MosfetParams::nmos_default(),
    )
    .unwrap();
    let mut sim = Simulator::new(&nl);
    // Continuation: each point starts from its neighbour's solution.
    let mut prev = sim.dc_op().unwrap();
    let mut vout = vec![prev.voltage(out)];
    for k in 1..=50 {
        sim.override_source("VIN", VDD * k as f64 / 50.0).unwrap();
        prev = sim.dc_op_from(prev.unknowns()).unwrap();
        vout.push(prev.voltage(out));
    }
    assert!(vout[0] > VDD - 0.01);
    assert!(vout[50] < 0.01);
    for w in vout.windows(2) {
        assert!(w[1] <= w[0] + 1e-6, "VTC must be monotone: {w:?}");
    }
    // The transition must be sharp: gain region somewhere in the middle.
    let max_drop = vout.windows(2).map(|w| w[0] - w[1]).fold(0.0f64, f64::max);
    assert!(max_drop > 1.0, "inverter gain too low, max step {max_drop}");
}

#[test]
fn nmos_source_follower_level_shift() {
    let mut nl = Netlist::new("sf");
    let vdd = supply(&mut nl);
    let g = nl.node("g");
    let s = nl.node("s");
    nl.add_vsource("VG", g, Netlist::GROUND, Waveform::dc(3.0))
        .unwrap();
    nl.add_mosfet(
        "M1",
        vdd,
        g,
        s,
        Netlist::GROUND,
        MosType::Nmos,
        MosfetParams::nmos_default(),
    )
    .unwrap();
    nl.add_resistor("RS", s, Netlist::GROUND, 10e3).unwrap();
    let mut sim = Simulator::new(&nl);
    let op = sim.dc_op().unwrap();
    let vs = op.voltage(s);
    // Follower output sits roughly Vt (plus body effect) below the gate.
    assert!(vs > 1.0 && vs < 3.0 - 0.7, "vs = {vs}");
}

#[test]
fn nmos_current_mirror_copies_current() {
    let mut nl = Netlist::new("mirror");
    let vdd = supply(&mut nl);
    let gate = nl.node("gate");
    let out = nl.node("out");
    // Reference branch: resistor from VDD into the diode-connected device.
    nl.add_resistor("RREF", vdd, gate, 10e3).unwrap();
    let p = MosfetParams::nmos_default().sized(8e-6, 2e-6);
    nl.add_mosfet(
        "M1",
        gate,
        gate,
        Netlist::GROUND,
        Netlist::GROUND,
        MosType::Nmos,
        p.clone(),
    )
    .unwrap();
    nl.add_mosfet(
        "M2",
        out,
        gate,
        Netlist::GROUND,
        Netlist::GROUND,
        MosType::Nmos,
        p,
    )
    .unwrap();
    nl.add_resistor("ROUT", vdd, out, 1e3).unwrap();
    let mut sim = Simulator::new(&nl);
    let op = sim.dc_op().unwrap();
    let iref = (VDD - op.voltage(gate)) / 10e3;
    let iout = (VDD - op.voltage(out)) / 1e3;
    // Mirror ratio within 15% (channel-length modulation mismatch).
    assert!(
        (iout - iref).abs() / iref < 0.15,
        "iref = {iref}, iout = {iout}"
    );
}

#[test]
fn switch_passes_and_blocks() {
    let mut nl = Netlist::new("sw");
    let vdd = supply(&mut nl);
    let ctl = nl.node("ctl");
    let out = nl.node("out");
    nl.add_vsource("VC", ctl, Netlist::GROUND, Waveform::dc(0.0))
        .unwrap();
    nl.add_switch(
        "S1",
        vdd,
        out,
        ctl,
        Netlist::GROUND,
        SwitchParams {
            v_on: 3.0,
            v_off: 2.0,
            r_on: 100.0,
            r_off: 1e9,
        },
    )
    .unwrap();
    nl.add_resistor("RL", out, Netlist::GROUND, 10e3).unwrap();
    let mut sim = Simulator::new(&nl);
    sim.override_source("VC", 0.0).unwrap();
    let off = sim.dc_op().unwrap();
    assert!(off.voltage(out) < 0.01, "switch off leaks");
    sim.override_source("VC", 5.0).unwrap();
    let on = sim.dc_op().unwrap();
    assert!(
        on.voltage(out) > VDD * 10e3 / (10e3 + 100.0) - 1e-3,
        "switch on drops too much"
    );
}

#[test]
fn rc_transient_time_constant() {
    let mut nl = Netlist::new("rc");
    let inp = nl.node("in");
    let out = nl.node("out");
    // Step from 0 to 1 V at t = 0 through R = 1k into C = 1µF; τ = 1 ms.
    nl.add_vsource(
        "VIN",
        inp,
        Netlist::GROUND,
        Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1.0, 0.0),
    )
    .unwrap();
    nl.add_resistor("R1", inp, out, 1e3).unwrap();
    nl.add_capacitor("C1", out, Netlist::GROUND, 1e-6).unwrap();
    let mut sim = Simulator::new(&nl);
    let tr = sim.transient(5e-3, 10e-6).unwrap();
    let out_id = out;
    // At t = τ the output must be 1 − e⁻¹ ≈ 0.632.
    let k = tr.index_at(1e-3);
    let v_tau = tr.voltage(k, out_id);
    assert!(
        (v_tau - 0.6321).abs() < 0.01,
        "v(τ) = {v_tau}, expected ≈ 0.632 (BE, dt = τ/100)"
    );
    // At 5τ the output is settled.
    let v_end = tr.voltage(tr.len() - 1, out_id);
    assert!((v_end - 1.0).abs() < 0.01);
}

#[test]
fn rc_transient_trapezoidal_is_more_accurate() {
    let mut nl = Netlist::new("rc");
    let inp = nl.node("in");
    let out = nl.node("out");
    nl.add_vsource(
        "VIN",
        inp,
        Netlist::GROUND,
        Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1.0, 0.0),
    )
    .unwrap();
    nl.add_resistor("R1", inp, out, 1e3).unwrap();
    nl.add_capacitor("C1", out, Netlist::GROUND, 1e-6).unwrap();
    let err = |integ: Integration| {
        let opts = SimOptions {
            integration: integ,
            ..SimOptions::default()
        };
        let mut sim = Simulator::with_options(&nl, opts);
        let tr = sim.transient(2e-3, 50e-6).unwrap();
        let k = tr.index_at(1e-3);
        (tr.voltage(k, out) - 0.632_120_6).abs()
    };
    let be = err(Integration::BackwardEuler);
    let trap = err(Integration::Trapezoidal);
    assert!(trap < be, "trap err {trap} must beat BE err {be}");
}

#[test]
fn rc_transient_backward_euler_also_converges() {
    let mut nl = Netlist::new("rc");
    let inp = nl.node("in");
    let out = nl.node("out");
    nl.add_vsource(
        "VIN",
        inp,
        Netlist::GROUND,
        Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1.0, 0.0),
    )
    .unwrap();
    nl.add_resistor("R1", inp, out, 1e3).unwrap();
    nl.add_capacitor("C1", out, Netlist::GROUND, 1e-6).unwrap();
    let opts = SimOptions {
        integration: Integration::BackwardEuler,
        ..SimOptions::default()
    };
    let mut sim = Simulator::with_options(&nl, opts);
    let tr = sim.transient(5e-3, 10e-6).unwrap();
    let v_end = tr.voltage(tr.len() - 1, out);
    assert!((v_end - 1.0).abs() < 0.02);
}

#[test]
fn transient_tracks_triangle_through_rc_with_small_tau() {
    let mut nl = Netlist::new("tri");
    let inp = nl.node("in");
    let out = nl.node("out");
    nl.add_vsource(
        "VIN",
        inp,
        Netlist::GROUND,
        Waveform::triangle(0.0, 1.0, 1e-3),
    )
    .unwrap();
    nl.add_resistor("R1", inp, out, 100.0).unwrap();
    nl.add_capacitor("C1", out, Netlist::GROUND, 1e-9).unwrap();
    let mut sim = Simulator::new(&nl);
    let tr = sim.transient(1e-3, 5e-6).unwrap();
    // τ = 100 ns ≪ ramp, so the output tracks the triangle closely.
    let k = tr.index_at(0.5e-3);
    assert!((tr.voltage(k, out) - 1.0).abs() < 0.02);
    let k = tr.index_at(0.25e-3);
    assert!((tr.voltage(k, out) - 0.5).abs() < 0.02);
}

#[test]
fn floating_node_is_handled_by_gmin() {
    let mut nl = Netlist::new("float");
    let vdd = supply(&mut nl);
    let fl = nl.node("floating");
    nl.add_capacitor("C1", fl, vdd, 1e-12).unwrap();
    let mut sim = Simulator::new(&nl);
    // A floating capacitor node must not make the DC solve fail.
    let op = sim.dc_op().unwrap();
    assert!(op.voltage(fl).abs() < 1.0);
}

#[test]
fn short_circuit_fault_pulls_supply_current() {
    // A 0.2 Ω metal short across the supply — the paper's canonical
    // catastrophic fault — must show up as a huge IVdd.
    let mut nl = Netlist::new("shorted");
    let vdd = supply(&mut nl);
    let mid = nl.node("mid");
    nl.add_resistor("R1", vdd, mid, 1e3).unwrap();
    nl.add_resistor("R2", mid, Netlist::GROUND, 1e3).unwrap();
    nl.insert_bridge("FSHORT", vdd, Netlist::GROUND, 0.2, None)
        .unwrap();
    let mut sim = Simulator::new(&nl);
    let op = sim.dc_op().unwrap();
    let ivdd = op.branch_current(nl.device_id("VDD").unwrap()).unwrap();
    assert!(ivdd.abs() > 20.0, "short must draw >20 A, got {ivdd}");
}

#[test]
fn open_fault_floats_downstream_node() {
    let mut nl = Netlist::new("open");
    let vdd = supply(&mut nl);
    let mid = nl.node("mid");
    nl.add_resistor("R1", vdd, mid, 1e3).unwrap();
    nl.add_resistor("R2", mid, Netlist::GROUND, 1e3).unwrap();
    let r2 = nl.device_id("R2").unwrap();
    nl.split_node(
        mid,
        &[dotm_netlist::TerminalRef {
            device: r2,
            terminal: 0,
        }],
    )
    .unwrap();
    let mut sim = Simulator::new(&nl);
    let op = sim.dc_op().unwrap();
    // With R2 cut off, no current flows: mid sits at VDD.
    assert!((op.voltage(mid) - VDD).abs() < 1e-3);
}

#[test]
fn dc_op_from_neighbour_matches_fresh_dc_op() {
    let mut nl = Netlist::new("inv2");
    let vdd = supply(&mut nl);
    let vin = nl.node("in");
    let out = nl.node("out");
    nl.add_vsource("VIN", vin, Netlist::GROUND, Waveform::dc(0.0))
        .unwrap();
    nl.add_mosfet(
        "MP",
        out,
        vin,
        vdd,
        vdd,
        MosType::Pmos,
        MosfetParams::pmos_default(),
    )
    .unwrap();
    nl.add_mosfet(
        "MN",
        out,
        vin,
        Netlist::GROUND,
        Netlist::GROUND,
        MosType::Nmos,
        MosfetParams::nmos_default(),
    )
    .unwrap();
    let mut sim = Simulator::new(&nl);
    let mut prev = sim.dc_op().unwrap();
    for v in [1.0, 2.0, 3.0] {
        sim.override_source("VIN", v).unwrap();
        let seeded = sim.dc_op_from(prev.unknowns()).unwrap();
        let fresh = sim.dc_op().unwrap();
        assert!(
            (fresh.voltage(out) - seeded.voltage(out)).abs() < 1e-4,
            "seeded/fresh mismatch at VIN = {v}"
        );
        prev = seeded;
    }
}

#[test]
fn mosfet_junction_leakage_appears_in_supply_current() {
    // Reverse-biased junction with huge Is models the paper's leaky
    // flipflop; IVdd must scale with the leak.
    let build = |is_leak: f64| {
        let mut nl = Netlist::new("leak");
        let vdd = supply(&mut nl);
        let mut p = MosfetParams::nmos_default();
        p.is_leak = is_leak;
        // Off transistor with drain at VDD: bulk-drain junction leaks.
        nl.add_mosfet(
            "M1",
            vdd,
            Netlist::GROUND,
            Netlist::GROUND,
            Netlist::GROUND,
            MosType::Nmos,
            p,
        )
        .unwrap();
        nl
    };
    let nl_small = build(1e-15);
    let nl_big = build(1e-9);
    let i_small = {
        let mut sim = Simulator::new(&nl_small);
        let op = sim.dc_op().unwrap();
        op.branch_current(nl_small.device_id("VDD").unwrap())
            .unwrap()
            .abs()
    };
    let i_big = {
        let mut sim = Simulator::new(&nl_big);
        let op = sim.dc_op().unwrap();
        op.branch_current(nl_big.device_id("VDD").unwrap())
            .unwrap()
            .abs()
    };
    assert!(
        i_big > 100.0 * i_small,
        "i_big = {i_big}, i_small = {i_small}"
    );
}

#[test]
fn spice_deck_round_trips_through_the_simulator() {
    // The netlist crate's SPICE parser feeds the simulator directly.
    let deck = "\
diode clamp
V1 in 0 DC 5
R1 in a 1k
D1 a 0 IS=1e-14
M1 out a 0 0 NMOS W=10u L=2u
RL vdd2 out 10k
V2 vdd2 0 DC 5
";
    let nl = dotm_netlist::parse_spice(deck).expect("deck parses");
    let mut sim = Simulator::new(&nl);
    let op = sim.dc_op().expect("parsed deck simulates");
    let va = op.voltage(nl.find_node("a").unwrap());
    assert!(va > 0.5 && va < 0.8, "diode clamp at {va}");
    // M1's gate sits at the diode voltage (< Vt): it is off, out pulled up.
    let vout = op.voltage(nl.find_node("out").unwrap());
    assert!(vout > 4.5, "out = {vout}");
}

#[test]
fn tran_result_accessors_and_index_lookup() {
    let mut nl = Netlist::new("rc");
    let inp = nl.node("in");
    let out = nl.node("out");
    nl.add_vsource(
        "VIN",
        inp,
        Netlist::GROUND,
        Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1.0, 0.0),
    )
    .unwrap();
    nl.add_resistor("R1", inp, out, 1e3).unwrap();
    nl.add_capacitor("C1", out, Netlist::GROUND, 1e-9).unwrap();
    let mut sim = Simulator::new(&nl);
    let tr = sim.transient(1e-6, 10e-9).unwrap();
    assert_eq!(tr.len(), 101);
    assert!(!tr.is_empty());
    assert_eq!(tr.times()[0], 0.0);
    // index_at clamps to the grid ends and rounds to the nearest point.
    assert_eq!(tr.index_at(-1.0), 0);
    assert_eq!(tr.index_at(10.0), 100);
    assert_eq!(tr.index_at(54e-9), 5);
    assert_eq!(tr.index_at(56e-9), 6);
    // Ground is always zero.
    assert_eq!(tr.voltage(50, Netlist::GROUND), 0.0);
    // series matches per-step voltage.
    let series = tr.series(out);
    assert_eq!(series.len(), tr.len());
    assert_eq!(series[40], tr.voltage(40, out));
    // branch current series exists for the source and not for a resistor.
    let vid = nl.device_id("VIN").unwrap();
    let rid = nl.device_id("R1").unwrap();
    assert!(tr.branch_series(vid).is_some());
    assert!(tr.branch_series(rid).is_none());
    // op_at snapshots agree with the series.
    let op = tr.op_at(40);
    assert_eq!(op.voltage(out), series[40]);
    assert_eq!(op.branch_current(rid), None);
}

#[test]
fn override_source_affects_transient_too() {
    let mut nl = Netlist::new("ov");
    let a = nl.node("a");
    nl.add_vsource("V1", a, Netlist::GROUND, Waveform::triangle(0.0, 5.0, 1e-6))
        .unwrap();
    nl.add_resistor("R1", a, Netlist::GROUND, 1e3).unwrap();
    let mut sim = Simulator::new(&nl);
    sim.override_source("V1", 2.0).unwrap();
    let tr = sim.transient(1e-6, 50e-9).unwrap();
    for k in 0..tr.len() {
        assert!(
            (tr.voltage(k, a) - 2.0).abs() < 1e-6,
            "override must pin the source"
        );
    }
    sim.clear_override("V1");
    let tr = sim.transient(1e-6, 50e-9).unwrap();
    let mid = tr.voltage(tr.index_at(0.5e-6), a);
    assert!(
        mid > 4.5,
        "triangle must be back after clearing the override"
    );
}
