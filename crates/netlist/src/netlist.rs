//! The [`Netlist`] container and builder methods.

use crate::device::{
    Device, DeviceId, DeviceKind, DiodeParams, MosType, MosfetParams, SwitchParams,
};
use crate::error::NetlistError;
use crate::fnv::Fnv128;
use crate::node::NodeId;
use crate::waveform::Waveform;
use std::collections::HashMap;
use std::fmt;

/// Mapping from a subcircuit template's port names to nodes of the parent
/// netlist, used by [`Netlist::instantiate`].
pub type PortMap<'a> = &'a [(&'a str, NodeId)];

/// A flat analog netlist: named nodes plus a list of [`Device`]s.
///
/// Node 0 is always ground (named `"0"`). Builder methods
/// (`add_resistor`, `add_mosfet`, …) validate parameters and reject
/// duplicate device names. Fault-editing operations (bridge insertion,
/// node splitting, parasitic attachment) are exposed as inherent methods
/// such as [`Netlist::insert_bridge`] and [`Netlist::split_node`].
///
/// ```
/// use dotm_netlist::{Netlist, Waveform};
/// # fn main() -> Result<(), dotm_netlist::NetlistError> {
/// let mut nl = Netlist::new("rc");
/// let inp = nl.node("in");
/// let out = nl.node("out");
/// nl.add_vsource("V1", inp, Netlist::GROUND, Waveform::dc(1.0))?;
/// nl.add_resistor("R1", inp, out, 1e3)?;
/// nl.add_capacitor("C1", out, Netlist::GROUND, 1e-12)?;
/// assert!(nl.device("R1").is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    node_names: Vec<String>,
    node_index: HashMap<String, NodeId>,
    devices: Vec<Device>,
    device_index: HashMap<String, DeviceId>,
}

impl Netlist {
    /// The ground/reference node, present in every netlist.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty netlist containing only the ground node.
    pub fn new(name: impl Into<String>) -> Self {
        let mut node_index = HashMap::new();
        node_index.insert("0".to_string(), NodeId(0));
        Netlist {
            name: name.into(),
            node_names: vec!["0".to_string()],
            node_index,
            devices: Vec::new(),
            device_index: HashMap::new(),
        }
    }

    /// The netlist's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the node with the given name, creating it if necessary.
    /// The names `"0"` and `"gnd"` both resolve to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "gnd" || name == "0" {
            return Self::GROUND;
        }
        if let Some(&id) = self.node_index.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(name.to_string());
        self.node_index.insert(name.to_string(), id);
        id
    }

    /// Looks up an existing node by name without creating it.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        if name == "gnd" {
            return Some(Self::GROUND);
        }
        self.node_index.get(name).copied()
    }

    /// Creates a fresh node with a generated unique name derived from `stem`.
    pub fn fresh_node(&mut self, stem: &str) -> NodeId {
        let mut i = self.node_names.len();
        loop {
            let candidate = format!("{stem}#{i}");
            if !self.node_index.contains_key(&candidate) {
                return self.node(&candidate);
            }
            i += 1;
        }
    }

    /// The name of a node.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this netlist.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.index()]
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// A 128-bit content hash (FNV-1a) over the full electrical structure:
    /// node names in id order, then every device's name, kind tag, terminal
    /// node ids, and parameter values (as raw `f64` bit patterns, so `-0.0`
    /// and `0.0` hash differently and NaNs are stable).
    ///
    /// Two netlists with equal digests stamp identical MNA systems, so any
    /// measurement is a pure function of `(digest, SimOptions)` — this is
    /// the key used by the measurement memoization cache in `dotm-core`.
    /// The netlist *name* is deliberately excluded: fault injection renames
    /// the netlist per fault id while distinct faults can degenerate to the
    /// same circuit, and those should share a cache entry.
    pub fn content_digest(&self) -> u128 {
        // Every string is length-prefixed, so concatenations cannot
        // collide ("ab"+"c" vs "a"+"bc").
        fn f64s(h: &mut Fnv128, vs: &[f64]) {
            for &v in vs {
                h.f64(v);
            }
        }
        fn waveform(h: &mut Fnv128, w: &Waveform) {
            match w {
                Waveform::Dc(v) => {
                    h.u8(0).f64(*v);
                }
                Waveform::Pulse {
                    v0,
                    v1,
                    delay,
                    rise,
                    fall,
                    width,
                    period,
                } => {
                    h.u8(1);
                    f64s(h, &[*v0, *v1, *delay, *rise, *fall, *width, *period]);
                }
                Waveform::Pwl(points) => {
                    h.u8(2).u64(points.len() as u64);
                    for &(t, v) in points {
                        h.f64(t).f64(v);
                    }
                }
                Waveform::Sin {
                    offset,
                    amplitude,
                    freq,
                    delay,
                } => {
                    h.u8(3);
                    f64s(h, &[*offset, *amplitude, *freq, *delay]);
                }
            }
        }
        let mut h = Fnv128::new();
        for name in &self.node_names {
            h.str(name);
        }
        h.u64(self.devices.len() as u64);
        for dev in &self.devices {
            h.str(&dev.name);
            h.str(dev.kind.tag());
            for t in dev.terminals() {
                h.u64(t.index() as u64);
            }
            match &dev.kind {
                DeviceKind::Resistor { ohms, .. } => {
                    h.f64(*ohms);
                }
                DeviceKind::Capacitor { farads, .. } => {
                    h.f64(*farads);
                }
                DeviceKind::Vsource { waveform: w, .. }
                | DeviceKind::Isource { waveform: w, .. } => waveform(&mut h, w),
                DeviceKind::Diode { params, .. } => {
                    h.f64(params.is).f64(params.n);
                }
                DeviceKind::Mosfet { ty, params, .. } => {
                    h.u8(match ty {
                        MosType::Nmos => 0,
                        MosType::Pmos => 1,
                    });
                    f64s(
                        &mut h,
                        &[
                            params.w,
                            params.l,
                            params.vt0,
                            params.kp,
                            params.lambda,
                            params.gamma,
                            params.phi,
                            params.is_leak,
                            params.cox,
                            params.cj,
                        ],
                    );
                }
                DeviceKind::Switch { params, .. } => f64s(
                    &mut h,
                    &[params.v_on, params.v_off, params.r_on, params.r_off],
                ),
            }
        }
        h.finish()
    }

    /// Iterates over `(DeviceId, &Device)` pairs.
    pub fn devices(&self) -> impl Iterator<Item = (DeviceId, &Device)> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, d)| (DeviceId(i as u32), d))
    }

    /// Looks up a device by name.
    pub fn device(&self, name: &str) -> Option<&Device> {
        self.device_index
            .get(name)
            .map(|id| &self.devices[id.index()])
    }

    /// Looks up a device id by name.
    pub fn device_id(&self, name: &str) -> Option<DeviceId> {
        self.device_index.get(name).copied()
    }

    /// Returns the device with the given id.
    pub fn device_by_id(&self, id: DeviceId) -> Option<&Device> {
        self.devices.get(id.index())
    }

    /// Mutable access to a device by id (for parameter perturbation in
    /// process Monte-Carlo and fault injection).
    pub fn device_by_id_mut(&mut self, id: DeviceId) -> Option<&mut Device> {
        self.devices.get_mut(id.index())
    }

    /// Mutable access to a device by name.
    pub fn device_mut(&mut self, name: &str) -> Option<&mut Device> {
        let id = *self.device_index.get(name)?;
        self.devices.get_mut(id.index())
    }

    /// Adds an arbitrary pre-built device.
    ///
    /// # Errors
    /// Returns [`NetlistError::DuplicateDevice`] if the name is taken, or
    /// [`NetlistError::InvalidNodeId`] if a terminal references a node not
    /// issued by this netlist.
    pub fn add_device(&mut self, device: Device) -> Result<DeviceId, NetlistError> {
        if self.device_index.contains_key(&device.name) {
            return Err(NetlistError::DuplicateDevice(device.name));
        }
        for t in device.terminals() {
            if t.index() >= self.node_names.len() {
                return Err(NetlistError::InvalidNodeId(t));
            }
        }
        let id = DeviceId(self.devices.len() as u32);
        self.device_index.insert(device.name.clone(), id);
        self.devices.push(device);
        Ok(id)
    }

    /// Adds a resistor.
    ///
    /// # Errors
    /// Rejects non-finite or non-positive resistance and duplicate names.
    pub fn add_resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        ohms: f64,
    ) -> Result<DeviceId, NetlistError> {
        if !(ohms.is_finite() && ohms > 0.0) {
            return Err(NetlistError::InvalidParameter {
                device: name.to_string(),
                reason: format!("resistance must be finite and > 0, got {ohms}"),
            });
        }
        self.add_device(Device {
            name: name.to_string(),
            kind: DeviceKind::Resistor { a, b, ohms },
        })
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    /// Rejects negative or non-finite capacitance and duplicate names.
    pub fn add_capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
    ) -> Result<DeviceId, NetlistError> {
        if !(farads.is_finite() && farads >= 0.0) {
            return Err(NetlistError::InvalidParameter {
                device: name.to_string(),
                reason: format!("capacitance must be finite and >= 0, got {farads}"),
            });
        }
        self.add_device(Device {
            name: name.to_string(),
            kind: DeviceKind::Capacitor { a, b, farads },
        })
    }

    /// Adds an independent voltage source (`pos` positive).
    ///
    /// # Errors
    /// Rejects duplicate names.
    pub fn add_vsource(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        waveform: Waveform,
    ) -> Result<DeviceId, NetlistError> {
        self.add_device(Device {
            name: name.to_string(),
            kind: DeviceKind::Vsource { pos, neg, waveform },
        })
    }

    /// Adds an independent current source (positive value flows from `pos`
    /// through the source into `neg`).
    ///
    /// # Errors
    /// Rejects duplicate names.
    pub fn add_isource(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        waveform: Waveform,
    ) -> Result<DeviceId, NetlistError> {
        self.add_device(Device {
            name: name.to_string(),
            kind: DeviceKind::Isource { pos, neg, waveform },
        })
    }

    /// Adds a junction diode.
    ///
    /// # Errors
    /// Rejects non-positive saturation current and duplicate names.
    pub fn add_diode(
        &mut self,
        name: &str,
        anode: NodeId,
        cathode: NodeId,
        params: DiodeParams,
    ) -> Result<DeviceId, NetlistError> {
        if !(params.is.is_finite() && params.is > 0.0) {
            return Err(NetlistError::InvalidParameter {
                device: name.to_string(),
                reason: format!("diode Is must be finite and > 0, got {}", params.is),
            });
        }
        self.add_device(Device {
            name: name.to_string(),
            kind: DeviceKind::Diode {
                anode,
                cathode,
                params,
            },
        })
    }

    /// Adds a four-terminal MOSFET.
    ///
    /// # Errors
    /// Rejects non-positive `W`, `L` or `kp` and duplicate names.
    #[allow(clippy::too_many_arguments)]
    pub fn add_mosfet(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        ty: MosType,
        params: MosfetParams,
    ) -> Result<DeviceId, NetlistError> {
        if !(params.w > 0.0 && params.l > 0.0 && params.kp > 0.0) {
            return Err(NetlistError::InvalidParameter {
                device: name.to_string(),
                reason: "W, L and kp must all be > 0".to_string(),
            });
        }
        self.add_device(Device {
            name: name.to_string(),
            kind: DeviceKind::Mosfet {
                d,
                g,
                s,
                b,
                ty,
                params,
            },
        })
    }

    /// Adds a voltage-controlled switch.
    ///
    /// # Errors
    /// Rejects `v_on <= v_off`, non-positive resistances, and duplicates.
    #[allow(clippy::too_many_arguments)]
    pub fn add_switch(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        cp: NodeId,
        cn: NodeId,
        params: SwitchParams,
    ) -> Result<DeviceId, NetlistError> {
        if params.v_on <= params.v_off || params.r_on <= 0.0 || params.r_off <= 0.0 {
            return Err(NetlistError::InvalidParameter {
                device: name.to_string(),
                reason: "require v_on > v_off and positive resistances".to_string(),
            });
        }
        self.add_device(Device {
            name: name.to_string(),
            kind: DeviceKind::Switch {
                a,
                b,
                cp,
                cn,
                params,
            },
        })
    }

    /// Removes a device by name, preserving the ids of other devices is
    /// *not* guaranteed — ids issued before a removal must not be reused.
    ///
    /// # Errors
    /// Returns [`NetlistError::UnknownDevice`] if absent.
    pub fn remove_device(&mut self, name: &str) -> Result<Device, NetlistError> {
        let id = self
            .device_index
            .remove(name)
            .ok_or_else(|| NetlistError::UnknownDevice(name.to_string()))?;
        let device = self.devices.remove(id.index());
        // Reindex devices after the removed one.
        for (i, d) in self.devices.iter().enumerate().skip(id.index()) {
            self.device_index.insert(d.name.clone(), DeviceId(i as u32));
        }
        Ok(device)
    }

    /// Instantiates a subcircuit template into this netlist.
    ///
    /// Every node of `template` whose name appears in `ports` is connected
    /// to the mapped parent node; every other template node becomes a fresh
    /// parent node named `{prefix}.{node}`. Devices are copied with names
    /// `{prefix}.{device}`.
    ///
    /// Ground in the template is always ground in the parent.
    ///
    /// # Errors
    /// Returns [`NetlistError::UnmappedPort`] if `ports` names a node that
    /// does not exist in the template, or [`NetlistError::DuplicateDevice`]
    /// if a prefixed device name collides.
    pub fn instantiate(
        &mut self,
        template: &Netlist,
        prefix: &str,
        ports: PortMap<'_>,
    ) -> Result<(), NetlistError> {
        // Validate the port map first.
        for (port, _) in ports {
            if template.find_node(port).is_none() {
                return Err(NetlistError::UnmappedPort((*port).to_string()));
            }
        }
        // Build template-node -> parent-node map.
        let mut map: Vec<Option<NodeId>> = vec![None; template.node_count()];
        map[0] = Some(Self::GROUND);
        for (port, parent_node) in ports {
            let t = template.find_node(port).expect("validated above");
            map[t.index()] = Some(*parent_node);
        }
        for (i, tname) in template.node_names.iter().enumerate() {
            if map[i].is_none() {
                map[i] = Some(self.node(&format!("{prefix}.{tname}")));
            }
        }
        for (_, dev) in template.devices() {
            let mut copy = dev.clone();
            copy.name = format!("{prefix}.{}", dev.name);
            for t in copy.terminals_mut() {
                *t = map[t.index()].expect("all template nodes mapped");
            }
            self.add_device(copy)?;
        }
        Ok(())
    }

    /// All devices touching `node`, as `(DeviceId, terminal index)` pairs.
    pub fn connections(&self, node: NodeId) -> Vec<(DeviceId, usize)> {
        let mut out = Vec::new();
        for (id, dev) in self.devices() {
            for (ti, t) in dev.terminals().iter().enumerate() {
                if *t == node {
                    out.push((id, ti));
                }
            }
        }
        out
    }
}

impl fmt::Display for Netlist {
    /// SPICE-card-like rendering, one device per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "* netlist {}", self.name)?;
        for (_, dev) in self.devices() {
            let nodes: Vec<&str> = dev.terminals().iter().map(|n| self.node_name(*n)).collect();
            match &dev.kind {
                DeviceKind::Resistor { ohms, .. } => {
                    writeln!(f, "R {} {} {ohms}", dev.name, nodes.join(" "))?
                }
                DeviceKind::Capacitor { farads, .. } => {
                    writeln!(f, "C {} {} {farads}", dev.name, nodes.join(" "))?
                }
                DeviceKind::Vsource { waveform, .. } => {
                    writeln!(f, "V {} {} {waveform:?}", dev.name, nodes.join(" "))?
                }
                DeviceKind::Isource { waveform, .. } => {
                    writeln!(f, "I {} {} {waveform:?}", dev.name, nodes.join(" "))?
                }
                DeviceKind::Diode { params, .. } => {
                    writeln!(f, "D {} {} is={}", dev.name, nodes.join(" "), params.is)?
                }
                DeviceKind::Mosfet { ty, params, .. } => writeln!(
                    f,
                    "M {} {} {ty} w={} l={}",
                    dev.name,
                    nodes.join(" "),
                    params.w,
                    params.l
                )?,
                DeviceKind::Switch { params, .. } => writeln!(
                    f,
                    "S {} {} ron={} roff={}",
                    dev.name,
                    nodes.join(" "),
                    params.r_on,
                    params.r_off
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc() -> Netlist {
        let mut nl = Netlist::new("rc");
        let a = nl.node("a");
        let b = nl.node("b");
        nl.add_vsource("V1", a, Netlist::GROUND, Waveform::dc(1.0))
            .unwrap();
        nl.add_resistor("R1", a, b, 1e3).unwrap();
        nl.add_capacitor("C1", b, Netlist::GROUND, 1e-12).unwrap();
        nl
    }

    #[test]
    fn content_digest_tracks_structure_not_name() {
        let a = rc();
        let mut b = rc();
        assert_eq!(a.content_digest(), b.content_digest());
        // The netlist name is excluded: renamed copies share a digest.
        let mut renamed = rc();
        renamed.name = "other".to_string();
        assert_eq!(a.content_digest(), renamed.content_digest());
        // A parameter change, however small, changes the digest.
        if let DeviceKind::Resistor { ohms, .. } = &mut b.device_mut("R1").unwrap().kind {
            *ohms += 1e-9;
        }
        assert_ne!(a.content_digest(), b.content_digest());
        // A structural change (extra node + device) changes the digest.
        let mut c = rc();
        let extra = c.node("extra");
        c.add_resistor("Rx", extra, Netlist::GROUND, 1.0).unwrap();
        assert_ne!(a.content_digest(), c.content_digest());
    }

    #[test]
    fn ground_aliases() {
        let mut nl = Netlist::new("t");
        assert_eq!(nl.node("0"), Netlist::GROUND);
        assert_eq!(nl.node("gnd"), Netlist::GROUND);
        assert_eq!(nl.find_node("gnd"), Some(Netlist::GROUND));
    }

    #[test]
    fn node_lookup_is_idempotent() {
        let mut nl = Netlist::new("t");
        let a1 = nl.node("a");
        let a2 = nl.node("a");
        assert_eq!(a1, a2);
        assert_eq!(nl.node_count(), 2);
        assert_eq!(nl.node_name(a1), "a");
    }

    #[test]
    fn fresh_node_is_unique() {
        let mut nl = Netlist::new("t");
        let f1 = nl.fresh_node("split");
        let f2 = nl.fresh_node("split");
        assert_ne!(f1, f2);
    }

    #[test]
    fn duplicate_device_rejected() {
        let mut nl = rc();
        let a = nl.node("a");
        let err = nl.add_resistor("R1", a, Netlist::GROUND, 5.0).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateDevice("R1".into()));
    }

    #[test]
    fn invalid_resistance_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.node("a");
        assert!(nl.add_resistor("R1", a, Netlist::GROUND, 0.0).is_err());
        assert!(nl.add_resistor("R2", a, Netlist::GROUND, f64::NAN).is_err());
        assert!(nl.add_resistor("R3", a, Netlist::GROUND, -1.0).is_err());
    }

    #[test]
    fn device_lookup() {
        let nl = rc();
        assert!(nl.device("R1").is_some());
        assert!(nl.device("R9").is_none());
        let id = nl.device_id("C1").unwrap();
        assert_eq!(nl.device_by_id(id).unwrap().name, "C1");
    }

    #[test]
    fn remove_device_reindexes() {
        let mut nl = rc();
        nl.remove_device("R1").unwrap();
        assert_eq!(nl.device_count(), 2);
        // C1 must still be addressable by its (re-indexed) id.
        let id = nl.device_id("C1").unwrap();
        assert_eq!(nl.device_by_id(id).unwrap().name, "C1");
        assert!(nl.remove_device("R1").is_err());
    }

    #[test]
    fn connections_lists_terminals() {
        let nl = rc();
        let b = nl.find_node("b").unwrap();
        let conns = nl.connections(b);
        assert_eq!(conns.len(), 2); // R1.b and C1.a
    }

    #[test]
    fn instantiate_maps_ports_and_prefixes_internals() {
        let mut sub = Netlist::new("half");
        let p = sub.node("in");
        let q = sub.node("out");
        let m = sub.node("mid");
        sub.add_resistor("Ra", p, m, 10.0).unwrap();
        sub.add_resistor("Rb", m, q, 10.0).unwrap();

        let mut top = Netlist::new("top");
        let x = top.node("x");
        let y = top.node("y");
        top.instantiate(&sub, "u1", &[("in", x), ("out", y)])
            .unwrap();
        top.instantiate(&sub, "u2", &[("in", y), ("out", Netlist::GROUND)])
            .unwrap();

        assert_eq!(top.device_count(), 4);
        assert!(top.device("u1.Ra").is_some());
        assert!(top.find_node("u1.mid").is_some());
        assert!(top.find_node("u2.mid").is_some());
        // Port nodes are shared, not duplicated.
        assert!(top.find_node("u1.in").is_none());
    }

    #[test]
    fn instantiate_rejects_unknown_port() {
        let sub = Netlist::new("empty");
        let mut top = Netlist::new("top");
        let x = top.node("x");
        let err = top.instantiate(&sub, "u1", &[("nope", x)]).unwrap_err();
        assert_eq!(err, NetlistError::UnmappedPort("nope".into()));
    }

    #[test]
    fn display_contains_devices() {
        let nl = rc();
        let s = nl.to_string();
        assert!(s.contains("R R1"));
        assert!(s.contains("C C1"));
    }
}
