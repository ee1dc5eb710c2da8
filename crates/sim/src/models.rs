//! Nonlinear device model evaluation.
//!
//! Pure functions mapping terminal voltages to currents and small-signal
//! conductances. The Level-1 (Shichman–Hodges) MOSFET model is sufficient
//! for the defect signatures this workspace reproduces: DC levels,
//! comparator trip points and quiescent currents (see DESIGN.md §1).

use dotm_netlist::{DiodeParams, MosType, MosfetParams, SwitchParams};

/// Thermal voltage kT/q at 300 K.
pub const VT_THERMAL: f64 = 0.02585;

/// Exponent clamp for junction laws: beyond this the exponential is
/// linearised so Newton iterations cannot overflow.
const EXP_CLAMP: f64 = 40.0;

/// Evaluates a junction diode at voltage `vd` (anode minus cathode).
///
/// Returns `(id, gd)`: the diode current and its derivative. The
/// exponential is linearised above `EXP_CLAMP·n·Vt` so the function is
/// finite and continuously differentiable for all inputs.
pub fn diode_eval(vd: f64, params: &DiodeParams) -> (f64, f64) {
    let nvt = params.n * VT_THERMAL;
    let x = vd / nvt;
    if x > EXP_CLAMP {
        let e = EXP_CLAMP.exp();
        let id = params.is * (e * (1.0 + (x - EXP_CLAMP)) - 1.0);
        let gd = params.is * e / nvt;
        (id, gd)
    } else {
        let e = x.exp();
        let id = params.is * (e - 1.0);
        // Keep a floor on gd so deeply reverse-biased junctions still
        // contribute a tiny conductance (numerical robustness).
        let gd = (params.is * e / nvt).max(1e-15);
        (id, gd)
    }
}

/// Channel evaluation result for a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosChannel {
    /// Drain-to-source current (A), positive into the drain for NMOS
    /// conduction.
    pub ids: f64,
    /// ∂ids/∂vgs.
    pub gm: f64,
    /// ∂ids/∂vds.
    pub gds: f64,
    /// ∂ids/∂vbs.
    pub gmbs: f64,
}

/// Evaluates the Level-1 channel current of a MOSFET.
///
/// `vgs`, `vds`, `vbs` are the *device-polarity* terminal voltages (drain,
/// gate, bulk relative to source). Handles both polarities and the
/// `vds < 0` source/drain role reversal internally.
pub fn mosfet_eval(vgs: f64, vds: f64, vbs: f64, ty: MosType, p: &MosfetParams) -> MosChannel {
    mosfet_channel(vgs, vds, vbs, ty, p, MosConsts::of(p))
}

/// The bias-independent factors of a MOSFET's channel law, computed once
/// per device by the engine's compiled kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MosConsts {
    /// `β = kp·w/l`.
    beta: f64,
    /// `√φ`.
    sqrt_phi: f64,
}

impl MosConsts {
    pub(crate) fn of(p: &MosfetParams) -> Self {
        MosConsts {
            beta: p.kp * p.w / p.l,
            sqrt_phi: p.phi.sqrt(),
        }
    }
}

/// [`mosfet_eval`] with the device's [`MosConsts`] supplied: the same
/// arithmetic, so the same bits.
pub(crate) fn mosfet_channel(
    vgs: f64,
    vds: f64,
    vbs: f64,
    ty: MosType,
    p: &MosfetParams,
    k: MosConsts,
) -> MosChannel {
    match ty {
        MosType::Nmos => nmos_eval(vgs, vds, vbs, p, k, p.vt0),
        MosType::Pmos => {
            // Evaluate the mirrored N-device and negate the current. With
            // ids_p(v) = -ids_n(-v), the partials keep their sign.
            let m = nmos_eval(-vgs, -vds, -vbs, p, k, -p.vt0);
            MosChannel {
                ids: -m.ids,
                gm: m.gm,
                gds: m.gds,
                gmbs: m.gmbs,
            }
        }
    }
}

fn nmos_eval(vgs: f64, vds: f64, vbs: f64, p: &MosfetParams, k: MosConsts, vt0: f64) -> MosChannel {
    if vds >= 0.0 {
        nmos_eval_forward(vgs, vds, vbs, p, k, vt0)
    } else {
        // Source and drain exchange roles: ids(v) = -i'(vgd, -vds, vbd).
        let m = nmos_eval_forward(vgs - vds, -vds, vbs - vds, p, k, vt0);
        MosChannel {
            ids: -m.ids,
            gm: -m.gm,
            gds: m.gm + m.gds + m.gmbs,
            gmbs: -m.gmbs,
        }
    }
}

fn nmos_eval_forward(
    vgs: f64,
    vds: f64,
    vbs: f64,
    p: &MosfetParams,
    k: MosConsts,
    vt0: f64,
) -> MosChannel {
    debug_assert!(vds >= 0.0);
    let beta = k.beta;
    // Body effect with clamped square roots: for vbs >= phi the argument
    // would go negative; clamp and zero the derivative there.
    let (vt, dvt_dvbs) = {
        let arg = p.phi - vbs;
        if arg > 1e-9 {
            let sq = arg.sqrt();
            (vt0 + p.gamma * (sq - k.sqrt_phi), -p.gamma / (2.0 * sq))
        } else {
            (vt0 + p.gamma * (0.0 - k.sqrt_phi), 0.0)
        }
    };
    let vov = vgs - vt;
    if vov <= 0.0 {
        // Cutoff. A tiny residual output conductance helps Newton.
        return MosChannel {
            ids: 0.0,
            gm: 0.0,
            gds: 1e-12,
            gmbs: 0.0,
        };
    }
    let clm = 1.0 + p.lambda * vds;
    if vds >= vov {
        // Saturation.
        let ids0 = 0.5 * beta * vov * vov;
        let ids = ids0 * clm;
        let gm = beta * vov * clm;
        let gds = ids0 * p.lambda;
        MosChannel {
            ids,
            gm,
            gds,
            gmbs: gm * (-dvt_dvbs),
        }
    } else {
        // Triode.
        let ids0 = beta * (vov - 0.5 * vds) * vds;
        let ids = ids0 * clm;
        let gm = beta * vds * clm;
        let gds = beta * (vov - vds) * clm + ids0 * p.lambda;
        MosChannel {
            ids,
            gm,
            gds,
            gmbs: gm * (-dvt_dvbs),
        }
    }
}

/// Evaluates a voltage-controlled switch at control voltage `vc`.
///
/// Returns `(g, dg_dvc)`: the switch conductance and its derivative with
/// respect to the control voltage. The conductance interpolates
/// log-linearly between `1/r_off` and `1/r_on` through a smoothstep of the
/// control window, so it is C¹ everywhere.
pub fn switch_eval(vc: f64, p: &SwitchParams) -> (f64, f64) {
    let g_on = 1.0 / p.r_on;
    let g_off = 1.0 / p.r_off;
    let span = p.v_on - p.v_off;
    let t = ((vc - p.v_off) / span).clamp(0.0, 1.0);
    // Smoothstep s(t) = 3t² − 2t³, s'(t) = 6t(1−t).
    let s = t * t * (3.0 - 2.0 * t);
    let ds_dt = 6.0 * t * (1.0 - t);
    let lg_on = g_on.ln();
    let lg_off = g_off.ln();
    let lg = lg_off + (lg_on - lg_off) * s;
    let g = lg.exp();
    let dg = g * (lg_on - lg_off) * ds_dt / span;
    (g, dg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nparams() -> MosfetParams {
        MosfetParams::nmos_default()
    }

    #[test]
    fn diode_forward_is_exponential() {
        let p = DiodeParams::default();
        let (i1, g1) = diode_eval(0.6, &p);
        let (i2, _) = diode_eval(0.6 + VT_THERMAL, &p);
        assert!(i1 > 0.0 && g1 > 0.0);
        // One thermal voltage up multiplies the current by ~e.
        assert!((i2 / i1 - std::f64::consts::E).abs() < 0.01);
    }

    #[test]
    fn diode_reverse_saturates() {
        let p = DiodeParams::default();
        let (i, _) = diode_eval(-5.0, &p);
        assert!((i + p.is).abs() < 1e-16);
    }

    #[test]
    fn diode_never_overflows() {
        let p = DiodeParams::default();
        let (i, g) = diode_eval(100.0, &p);
        assert!(i.is_finite() && g.is_finite());
        // Linearised region is still monotone increasing.
        let (i2, _) = diode_eval(101.0, &p);
        assert!(i2 > i);
    }

    #[test]
    fn nmos_cutoff_saturation_triode() {
        let p = nparams();
        // Cutoff.
        let c = mosfet_eval(0.2, 2.0, 0.0, MosType::Nmos, &p);
        assert_eq!(c.ids, 0.0);
        // Saturation: vgs = 1.75 (vov = 1.0), vds = 3 > vov.
        let s = mosfet_eval(1.75, 3.0, 0.0, MosType::Nmos, &p);
        let beta = p.kp * p.w / p.l;
        let expect = 0.5 * beta * 1.0 * (1.0 + p.lambda * 3.0);
        assert!((s.ids - expect).abs() / expect < 1e-9);
        assert!(s.gm > 0.0 && s.gds > 0.0);
        // Triode: vds = 0.1 << vov.
        let t = mosfet_eval(1.75, 0.1, 0.0, MosType::Nmos, &p);
        assert!(t.ids < s.ids);
        assert!(t.gds > s.gds); // triode output conductance is large
    }

    #[test]
    fn nmos_reversal_is_antisymmetric() {
        let p = nparams();
        // With source and drain swapped the current must negate exactly:
        // ids(vg - vs, vd - vs, vb - vs) = -ids(vg - vd, vs - vd, vb - vd).
        let (vg, vd, vs, vb) = (2.0, 0.5, 1.0, 0.0);
        let fwd = mosfet_eval(vg - vs, vd - vs, vb - vs, MosType::Nmos, &p);
        let rev = mosfet_eval(vg - vd, vs - vd, vb - vd, MosType::Nmos, &p);
        assert!((fwd.ids + rev.ids).abs() < 1e-15);
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let p = MosfetParams::pmos_default();
        // PMOS on: vgs = −2, vds = −2 → negative drain current.
        let m = mosfet_eval(-2.0, -2.0, 0.0, MosType::Pmos, &p);
        assert!(m.ids < 0.0);
        assert!(m.gm > 0.0, "gm must stay positive, got {}", m.gm);
        // PMOS off.
        let off = mosfet_eval(0.0, -2.0, 0.0, MosType::Pmos, &p);
        assert_eq!(off.ids, 0.0);
    }

    #[test]
    fn body_effect_raises_threshold() {
        let p = nparams();
        let no_body = mosfet_eval(1.0, 2.0, 0.0, MosType::Nmos, &p);
        let body = mosfet_eval(1.0, 2.0, -2.0, MosType::Nmos, &p);
        assert!(body.ids < no_body.ids);
    }

    #[test]
    fn channel_current_continuous_at_saturation_edge() {
        let p = nparams();
        let vov = 1.0;
        let below = mosfet_eval(p.vt0 + vov, vov - 1e-9, 0.0, MosType::Nmos, &p);
        let above = mosfet_eval(p.vt0 + vov, vov + 1e-9, 0.0, MosType::Nmos, &p);
        assert!((below.ids - above.ids).abs() < 1e-9 * below.ids.max(1e-12));
    }

    #[test]
    fn switch_interpolates_conductance() {
        let p = SwitchParams::default();
        let (g_off, _) = switch_eval(p.v_off - 1.0, &p);
        let (g_on, _) = switch_eval(p.v_on + 1.0, &p);
        assert!((g_off - 1.0 / p.r_off).abs() / g_off < 1e-12);
        assert!((g_on - 1.0 / p.r_on).abs() / g_on < 1e-12);
        let (g_mid, dg_mid) = switch_eval((p.v_on + p.v_off) / 2.0, &p);
        assert!(g_mid > g_off && g_mid < g_on);
        assert!(dg_mid > 0.0);
    }

    #[test]
    fn switch_derivative_vanishes_outside_window() {
        let p = SwitchParams::default();
        let (_, d1) = switch_eval(p.v_off - 0.5, &p);
        let (_, d2) = switch_eval(p.v_on + 0.5, &p);
        assert_eq!(d1, 0.0);
        assert_eq!(d2, 0.0);
    }
}
