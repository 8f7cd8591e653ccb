//! Transistor netlists.

use std::collections::HashMap;
use std::fmt;

/// Identifier of an electrical node within a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into node-indexed arrays.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a transistor within a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransistorId(pub u32);

impl TransistorId {
    /// Index into transistor-indexed arrays.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TransistorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Relative node capacitance class, used to resolve charge sharing.
///
/// When an isolated component mixes stored charges, the nodes of the
/// highest capacitance class present determine the shared level; smaller
/// nodes adopt it. This mirrors MOSSIM-style capacitance strength classes
/// and matches physical reality: a tiny series midpoint cannot flip a gate
/// output's stored charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum CapClass {
    /// Tiny parasitic node (series-chain midpoints inside switch networks).
    Small,
    /// Ordinary storage node (gate outputs, latched inputs).
    #[default]
    Normal,
}

/// Transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetKind {
    /// n-channel: conducts when the gate is high.
    N,
    /// p-channel: conducts when the gate is low.
    P,
}

impl FetKind {
    /// Default on-resistance in ohms used by the timing model. p-channel
    /// devices are modelled ~2x more resistive (hole mobility).
    pub(crate) fn default_resistance(self) -> f64 {
        match self {
            FetKind::N => 10_000.0,
            FetKind::P => 20_000.0,
        }
    }
}

/// A single MOS transistor: a switch between `source` and `drain`
/// controlled by the `gate` node.
#[derive(Debug, Clone, PartialEq)]
pub struct Transistor {
    /// Polarity.
    pub kind: FetKind,
    /// Controlling node.
    pub gate: NodeId,
    /// One channel terminal.
    pub source: NodeId,
    /// The other channel terminal.
    pub drain: NodeId,
    /// On-resistance in ohms (used by [`crate::timing`]).
    pub resistance: f64,
    /// Human-readable label (e.g. the paper's `T1`, `Tn+1`).
    pub label: String,
}

/// A transistor-level circuit: nodes, transistors, distinguished supply
/// rails and declared inputs/outputs.
///
/// Build with [`CircuitBuilder`]; simulate with [`crate::Sim`].
///
/// # Example
///
/// ```
/// use dynmos_switch::{CircuitBuilder, FetKind};
/// let mut b = CircuitBuilder::new();
/// let a = b.input("a");
/// let z = b.node("z");
/// let (vdd, vss) = (b.vdd(), b.vss());
/// b.fet(FetKind::P, a, vdd, z, "Tp");
/// b.fet(FetKind::N, a, z, vss, "Tn");
/// let inv = b.finish();
/// assert_eq!(inv.transistors().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Circuit {
    node_names: Vec<String>,
    cap_classes: Vec<CapClass>,
    transistors: Vec<Transistor>,
    vdd: NodeId,
    vss: NodeId,
    inputs: Vec<NodeId>,
}

impl Circuit {
    /// All transistors, indexed by [`TransistorId`].
    pub fn transistors(&self) -> &[Transistor] {
        &self.transistors
    }

    /// The transistor with id `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub(crate) fn transistor(&self, t: TransistorId) -> &Transistor {
        &self.transistors[t.index()]
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// The positive supply rail.
    pub(crate) fn vdd(&self) -> NodeId {
        self.vdd
    }

    /// The ground rail.
    pub(crate) fn vss(&self) -> NodeId {
        self.vss
    }

    /// Nodes declared as externally driven inputs (including clocks).
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The name of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub(crate) fn node_name(&self, n: NodeId) -> &str {
        &self.node_names[n.index()]
    }

    /// The capacitance class of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub(crate) fn cap_class(&self, n: NodeId) -> CapClass {
        self.cap_classes[n.index()]
    }

    /// Iterates all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_names.len() as u32).map(NodeId)
    }

    /// Iterates all transistor ids.
    pub(crate) fn transistor_ids(&self) -> impl Iterator<Item = TransistorId> {
        (0..self.transistors.len() as u32).map(TransistorId)
    }

    /// `true` if `n` is a supply rail.
    pub(crate) fn is_supply(&self, n: NodeId) -> bool {
        n == self.vdd || n == self.vss
    }

    /// `true` if `n` is a declared input.
    pub(crate) fn is_input(&self, n: NodeId) -> bool {
        self.inputs.contains(&n)
    }
}

/// Incremental builder for [`Circuit`].
///
/// The builder pre-allocates the supply rails `VDD` (always node 0) and
/// `VSS` (node 1).
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    node_names: Vec<String>,
    cap_classes: Vec<CapClass>,
    transistors: Vec<Transistor>,
    inputs: Vec<NodeId>,
    by_name: HashMap<String, NodeId>,
}

impl CircuitBuilder {
    /// Creates a builder with `VDD` and `VSS` rails pre-allocated.
    pub fn new() -> Self {
        let mut b = Self {
            node_names: Vec::new(),
            cap_classes: Vec::new(),
            transistors: Vec::new(),
            inputs: Vec::new(),
            by_name: HashMap::new(),
        };
        b.node("VDD");
        b.node("VSS");
        b
    }

    /// The positive supply rail.
    pub fn vdd(&self) -> NodeId {
        NodeId(0)
    }

    /// The ground rail.
    pub fn vss(&self) -> NodeId {
        NodeId(1)
    }

    /// Adds (or retrieves) a named internal node.
    ///
    /// Re-using a name returns the existing node, so builders can be
    /// compositional.
    pub fn node(&mut self, name: &str) -> NodeId {
        self.node_with_cap(name, CapClass::Normal)
    }

    /// Adds (or retrieves) a named node with an explicit capacitance class.
    ///
    /// Re-using a name returns the existing node without changing its class.
    pub(crate) fn node_with_cap(&mut self, name: &str, cap: CapClass) -> NodeId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(name.to_owned());
        self.cap_classes.push(cap);
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Adds a fresh anonymous [`CapClass::Small`] node (unique
    /// auto-generated name) — the right class for series-chain midpoints.
    pub fn fresh_node(&mut self, prefix: &str) -> NodeId {
        let name = format!("{prefix}${}", self.node_names.len());
        self.node_with_cap(&name, CapClass::Small)
    }

    /// Adds a named node and declares it an external input (or clock).
    pub fn input(&mut self, name: &str) -> NodeId {
        let id = self.node(name);
        if !self.inputs.contains(&id) {
            self.inputs.push(id);
        }
        id
    }

    /// Adds a transistor with the default on-resistance for its kind.
    pub fn fet(
        &mut self,
        kind: FetKind,
        gate: NodeId,
        source: NodeId,
        drain: NodeId,
        label: &str,
    ) -> TransistorId {
        self.fet_with_resistance(kind, gate, source, drain, kind.default_resistance(), label)
    }

    /// Adds a transistor with an explicit on-resistance.
    ///
    /// # Panics
    ///
    /// Panics if `resistance` is not finite and positive.
    pub(crate) fn fet_with_resistance(
        &mut self,
        kind: FetKind,
        gate: NodeId,
        source: NodeId,
        drain: NodeId,
        resistance: f64,
        label: &str,
    ) -> TransistorId {
        assert!(
            resistance.is_finite() && resistance > 0.0,
            "on-resistance must be finite and positive, got {resistance}"
        );
        let id = TransistorId(self.transistors.len() as u32);
        self.transistors.push(Transistor {
            kind,
            gate,
            source,
            drain,
            resistance,
            label: label.to_owned(),
        });
        id
    }

    /// Finalizes the circuit.
    pub fn finish(self) -> Circuit {
        Circuit {
            node_names: self.node_names,
            cap_classes: self.cap_classes,
            transistors: self.transistors,
            vdd: NodeId(0),
            vss: NodeId(1),
            inputs: self.inputs,
        }
    }
}

impl Default for CircuitBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_preallocates_rails() {
        let b = CircuitBuilder::new();
        assert_eq!(b.vdd(), NodeId(0));
        assert_eq!(b.vss(), NodeId(1));
        let c = b.finish();
        assert_eq!(c.node_name(c.vdd()), "VDD");
        assert_eq!(c.node_name(c.vss()), "VSS");
        assert!(c.is_supply(NodeId(0)));
        assert!(c.is_supply(NodeId(1)));
    }

    #[test]
    fn node_names_are_idempotent() {
        let mut b = CircuitBuilder::new();
        let x = b.node("x");
        assert_eq!(b.node("x"), x);
    }

    #[test]
    fn fresh_nodes_are_unique() {
        let mut b = CircuitBuilder::new();
        let a = b.fresh_node("m");
        let bb = b.fresh_node("m");
        assert_ne!(a, bb);
    }

    #[test]
    fn inputs_deduplicate() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let a2 = b.input("a");
        assert_eq!(a, a2);
        let c = b.finish();
        assert_eq!(c.inputs(), &[a]);
        assert!(c.is_input(a));
    }

    #[test]
    fn inverter_netlist_shape() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let z = b.node("z");
        let (vdd, vss) = (b.vdd(), b.vss());
        let tp = b.fet(FetKind::P, a, vdd, z, "Tp");
        let tn = b.fet(FetKind::N, a, z, vss, "Tn");
        let c = b.finish();
        assert_eq!(c.transistor(tp).kind, FetKind::P);
        assert_eq!(c.transistor(tn).gate, a);
        assert_eq!(c.transistors().len(), 2);
        assert_eq!(c.transistor_ids().count(), 2);
        assert_eq!(c.node_count(), 4);
    }

    #[test]
    fn default_resistances_differ_by_kind() {
        assert!(FetKind::P.default_resistance() > FetKind::N.default_resistance());
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_nonpositive_resistance() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let z = b.node("z");
        let vss = b.vss();
        b.fet_with_resistance(FetKind::N, a, z, vss, 0.0, "bad");
    }
}
