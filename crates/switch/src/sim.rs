//! The relaxation switch-level simulator.
//!
//! Simulation proceeds in *steps*: the caller fixes external inputs (data
//! and clocks) and calls [`Sim::settle`], which relaxes the circuit to a
//! fixpoint. Within a step:
//!
//! 1. Every transistor's conduction is derived from its gate node's current
//!    level (respecting injected faults and assumption A1 for open gates).
//! 2. Conducting transistors partition the nodes into electrical components
//!    (union-find).
//! 3. Each component resolves to the strongest contribution: a supply rail
//!    or driven input wins; otherwise the component *shares charge* — equal
//!    stored levels persist, mixed levels degrade to `X`. This charge
//!    memory is what produces the paper's Fig. 1 sequential behaviour in
//!    faulty static CMOS.
//! 4. Because new node levels change gate conduction, steps 1–3 iterate to
//!    a fixpoint; oscillation drives the unstable nodes to `X`.
//!
//! Between steps, node levels persist as stored charge (dynamic operation).

use crate::circuit::{CapClass, Circuit, FetKind, NodeId, TransistorId};
use crate::fault::FaultSet;
use crate::level::{Logic, Signal, Strength};
use std::collections::HashMap;

/// Transistor conduction state during relaxation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Conduction {
    On,
    Off,
    /// Gate at `X`: may or may not conduct.
    Unknown,
}

/// Outcome summary of one [`Sim::settle`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SettleReport {
    /// Number of relaxation iterations performed.
    pub iterations: usize,
    /// `true` if the circuit failed to stabilize and unstable nodes were
    /// forced to `X`.
    pub oscillated: bool,
    /// Transistors on at least one conducting path connecting `VDD` to
    /// `VSS` in the final state — the paper's "faulty bridging between
    /// power and ground", the signal an IDDQ / leakage test would look for.
    pub supply_shorts: Vec<TransistorId>,
}

impl SettleReport {
    /// `true` when a static supply-to-ground path exists (raised leakage).
    pub fn has_supply_short(&self) -> bool {
        !self.supply_shorts.is_empty()
    }
}

/// A switch-level simulation of one [`Circuit`] under one [`FaultSet`].
///
/// # Example
///
/// ```
/// use dynmos_switch::{gates::static_inverter, Logic, Sim};
/// let inv = static_inverter();
/// let mut sim = Sim::new(&inv.circuit);
/// sim.set_input(inv.a, Logic::Zero);
/// sim.settle();
/// assert_eq!(sim.level(inv.z), Logic::One);
/// ```
#[derive(Debug, Clone)]
pub struct Sim<'c> {
    circuit: &'c Circuit,
    faults: FaultSet,
    /// Externally applied input levels.
    inputs: HashMap<NodeId, Logic>,
    /// Current node state (level persists between steps as charge).
    state: Vec<Signal>,
}

impl<'c> Sim<'c> {
    /// Creates a fault-free simulation. All non-supply nodes start at
    /// charged `X` (unknown stored charge), supplies at their rail values.
    pub fn new(circuit: &'c Circuit) -> Self {
        Self::with_faults(circuit, FaultSet::new())
    }

    /// Creates a simulation with `faults` injected.
    pub fn with_faults(circuit: &'c Circuit, faults: FaultSet) -> Self {
        let mut state = vec![Signal::charged(Logic::X); circuit.node_count()];
        state[circuit.vdd().index()] = Signal::driven(Logic::One);
        state[circuit.vss().index()] = Signal::driven(Logic::Zero);
        Self {
            circuit,
            faults,
            inputs: HashMap::new(),
            state,
        }
    }

    /// Applies an external level to a declared input node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not declared as an input of the circuit.
    pub fn set_input(&mut self, node: NodeId, level: Logic) {
        assert!(
            self.circuit.is_input(node),
            "{} is not a declared input",
            self.circuit.node_name(node)
        );
        self.inputs.insert(node, level);
    }

    /// The current logic level of `node`.
    pub fn level(&self, node: NodeId) -> Logic {
        self.state[node.index()].level
    }

    /// The full signal (level + strength) of `node`.
    pub fn signal(&self, node: NodeId) -> Signal {
        self.state[node.index()]
    }

    /// Overwrites a node's stored charge without driving it — used to set
    /// up "previous state" scenarios (e.g. the `Z(t)` column of Fig. 1).
    pub fn preset_charge(&mut self, node: NodeId, level: Logic) {
        if !self.circuit.is_supply(node) {
            self.state[node.index()] = Signal::charged(level);
        }
    }

    /// Relaxes the circuit to a fixpoint under the current inputs.
    ///
    /// Returns a [`SettleReport`]; on oscillation the unstable nodes are
    /// left at `X` and `oscillated` is set.
    pub fn settle(&mut self) -> SettleReport {
        let bound = 4 + 2 * self.circuit.transistors().len() + self.circuit.node_count();
        let mut iterations = 0;
        let mut oscillated = false;
        let mut prev = self.state.clone();
        // Externally applied levels take effect immediately so that the
        // first relaxation pass sees the new gate voltages (simultaneous
        // input changes do not race through pass transistors).
        prev[self.circuit.vdd().index()] = Signal::driven(Logic::One);
        prev[self.circuit.vss().index()] = Signal::driven(Logic::Zero);
        for (&n, &lvl) in &self.inputs {
            prev[n.index()] = Signal::driven(lvl);
        }
        loop {
            iterations += 1;
            let next = self.relax_once(&prev);
            if next == prev {
                self.state = next;
                break;
            }
            if iterations >= bound {
                // Oscillation: nodes still changing degrade to X.
                let mut forced = next.clone();
                for (i, (a, b)) in next.iter().zip(&prev).enumerate() {
                    if a != b {
                        forced[i] = Signal {
                            strength: a.strength.max(b.strength),
                            level: Logic::X,
                        };
                    }
                }
                self.state = self.relax_once(&forced);
                oscillated = true;
                break;
            }
            prev = next;
        }
        let supply_shorts = self.find_supply_shorts();
        SettleReport {
            iterations,
            oscillated,
            supply_shorts,
        }
    }

    /// One synchronous relaxation pass: conduction from `prev` levels, then
    /// component resolution.
    fn relax_once(&self, prev: &[Signal]) -> Vec<Signal> {
        let conduction: Vec<Conduction> = self
            .circuit
            .transistor_ids()
            .map(|t| self.conduction(t, prev))
            .collect();

        // Union-find over definitely-conducting transistors.
        let mut uf = UnionFind::new(self.circuit.node_count());
        for (ti, c) in conduction.iter().enumerate() {
            if *c == Conduction::On {
                let tr = &self.circuit.transistors()[ti];
                uf.union(tr.source.index(), tr.drain.index());
            }
        }

        // Resolve each component: any driven contribution wins (conflicts
        // merge to X); otherwise charge sharing, where the nodes of the
        // highest capacitance class present set the level.
        #[derive(Clone, Copy)]
        struct Acc {
            driven: Option<Logic>,
            charged: Option<(CapClass, Logic)>,
        }
        let mut acc: HashMap<usize, Acc> = HashMap::new();
        for n in self.circuit.node_ids() {
            let root = uf.find(n.index());
            let contrib = self.node_contribution(n, prev);
            let a = acc.entry(root).or_insert(Acc {
                driven: None,
                charged: None,
            });
            match contrib.strength {
                Strength::Driven => {
                    a.driven = Some(match a.driven {
                        Some(l) => l.merge(contrib.level),
                        None => contrib.level,
                    });
                }
                Strength::Charged => {
                    let cap = self.circuit.cap_class(n);
                    a.charged = Some(match a.charged {
                        Some((c0, l0)) => {
                            use std::cmp::Ordering;
                            match cap.cmp(&c0) {
                                Ordering::Greater => (cap, contrib.level),
                                Ordering::Less => (c0, l0),
                                Ordering::Equal => (c0, l0.merge(contrib.level)),
                            }
                        }
                        None => (cap, contrib.level),
                    });
                }
            }
        }
        let mut comp_signal: HashMap<usize, Signal> = acc
            .into_iter()
            .map(|(root, a)| {
                let s = match (a.driven, a.charged) {
                    (Some(l), _) => Signal::driven(l),
                    (None, Some((_, l))) => Signal::charged(l),
                    (None, None) => Signal::charged(Logic::X),
                };
                (root, s)
            })
            .collect();

        // Unknown-conduction transistors: if conducting would change a
        // side's value, that side's level becomes uncertain. Only the
        // weaker side is tainted (a supply rail cannot be overpowered by a
        // floating node); equally strong disagreeing sides both taint.
        let mut tainted: Vec<usize> = Vec::new();
        for (ti, c) in conduction.iter().enumerate() {
            if *c == Conduction::Unknown {
                let tr = &self.circuit.transistors()[ti];
                let ra = uf.find(tr.source.index());
                let rb = uf.find(tr.drain.index());
                if ra == rb {
                    continue;
                }
                let sa = comp_signal[&ra];
                let sb = comp_signal[&rb];
                if sa.level == sb.level {
                    continue;
                }
                use std::cmp::Ordering;
                match sa.strength.cmp(&sb.strength) {
                    Ordering::Greater => tainted.push(rb),
                    Ordering::Less => tainted.push(ra),
                    Ordering::Equal => {
                        tainted.push(ra);
                        tainted.push(rb);
                    }
                }
            }
        }
        for root in tainted {
            comp_signal.get_mut(&root).expect("component exists").level = Logic::X;
        }

        let mut next: Vec<Signal> = self
            .circuit
            .node_ids()
            .map(|n| comp_signal[&uf.find(n.index())])
            .collect();

        // Externally driven nodes and supplies always read their own value.
        next[self.circuit.vdd().index()] = Signal::driven(Logic::One);
        next[self.circuit.vss().index()] = Signal::driven(Logic::Zero);
        for (&n, &lvl) in &self.inputs {
            next[n.index()] = Signal::driven(lvl);
        }
        next
    }

    /// A node's own contribution to its component: rails and driven inputs
    /// contribute driven values, everything else its stored charge.
    fn node_contribution(&self, n: NodeId, prev: &[Signal]) -> Signal {
        if n == self.circuit.vdd() {
            return Signal::driven(Logic::One);
        }
        if n == self.circuit.vss() {
            return Signal::driven(Logic::Zero);
        }
        if let Some(&lvl) = self.inputs.get(&n) {
            return Signal::driven(lvl);
        }
        Signal::charged(prev[n.index()].level)
    }

    /// Effective conduction of transistor `t` given gate levels in `prev`.
    fn conduction(&self, t: TransistorId, prev: &[Signal]) -> Conduction {
        if self.faults.is_open(t) {
            return Conduction::Off;
        }
        if self.faults.is_closed(t) {
            return Conduction::On;
        }
        let tr = self.circuit.transistor(t);
        let gate_level = if self.faults.is_gate_open(t) {
            if self.faults.a1_enabled() {
                // A1: an open gate with no connection to power reads low.
                Logic::Zero
            } else {
                Logic::X
            }
        } else {
            prev[tr.gate.index()].level
        };
        match (tr.kind, gate_level) {
            (FetKind::N, Logic::One) | (FetKind::P, Logic::Zero) => Conduction::On,
            (FetKind::N, Logic::Zero) | (FetKind::P, Logic::One) => Conduction::Off,
            (_, Logic::X) => Conduction::Unknown,
        }
    }

    /// Transistors lying on a conducting VDD–VSS path in the current state.
    fn find_supply_shorts(&self) -> Vec<TransistorId> {
        let conduction: Vec<Conduction> = self
            .circuit
            .transistor_ids()
            .map(|t| self.conduction(t, &self.state))
            .collect();
        let mut uf = UnionFind::new(self.circuit.node_count());
        for (ti, c) in conduction.iter().enumerate() {
            if *c == Conduction::On {
                let tr = &self.circuit.transistors()[ti];
                uf.union(tr.source.index(), tr.drain.index());
            }
        }
        if uf.find(self.circuit.vdd().index()) != uf.find(self.circuit.vss().index()) {
            return Vec::new();
        }
        // All conducting transistors in the VDD/VSS component participate.
        let short_root = uf.find(self.circuit.vdd().index());
        self.circuit
            .transistor_ids()
            .filter(|&t| {
                conduction[t.index()] == Conduction::On
                    && uf.find(self.circuit.transistor(t).source.index()) == short_root
            })
            .collect()
    }
}

/// Minimal union-find with path halving.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::fault::SwitchFault;

    /// A hand-built static CMOS inverter.
    fn inverter() -> (Circuit, NodeId, NodeId, TransistorId, TransistorId) {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let z = b.node("z");
        let (vdd, vss) = (b.vdd(), b.vss());
        let tp = b.fet(FetKind::P, a, vdd, z, "Tp");
        let tn = b.fet(FetKind::N, a, z, vss, "Tn");
        (b.finish(), a, z, tp, tn)
    }

    #[test]
    fn inverter_inverts() {
        let (c, a, z, _, _) = inverter();
        let mut sim = Sim::new(&c);
        sim.set_input(a, Logic::Zero);
        let r = sim.settle();
        assert_eq!(sim.level(z), Logic::One);
        assert!(!r.oscillated);
        assert!(!r.has_supply_short());
        sim.set_input(a, Logic::One);
        sim.settle();
        assert_eq!(sim.level(z), Logic::Zero);
    }

    #[test]
    fn inverter_x_input_gives_x_output() {
        let (c, a, z, _, _) = inverter();
        let mut sim = Sim::new(&c);
        sim.set_input(a, Logic::X);
        sim.settle();
        assert_eq!(sim.level(z), Logic::X);
    }

    #[test]
    fn stuck_closed_pullup_creates_supply_short() {
        let (c, a, z, tp, _) = inverter();
        let mut sim = Sim::with_faults(&c, FaultSet::single(SwitchFault::StuckClosed(tp)));
        sim.set_input(a, Logic::One); // pull-down on, pull-up forced on
        let r = sim.settle();
        assert!(r.has_supply_short());
        assert_eq!(sim.level(z), Logic::X); // contention at switch level
    }

    #[test]
    fn stuck_open_pullup_leaves_output_floating_with_memory() {
        let (c, a, z, tp, _) = inverter();
        let mut sim = Sim::with_faults(&c, FaultSet::single(SwitchFault::StuckOpen(tp)));
        // Drive output low first (a=1).
        sim.set_input(a, Logic::One);
        sim.settle();
        assert_eq!(sim.level(z), Logic::Zero);
        // Now a=0 should pull up but cannot: output retains 0 — the static
        // stuck-open memory effect of the paper's introduction.
        sim.set_input(a, Logic::Zero);
        sim.settle();
        assert_eq!(sim.level(z), Logic::Zero);
        assert_eq!(sim.signal(z).strength, Strength::Charged);
    }

    #[test]
    fn gate_open_with_a1_reads_low() {
        let (c, a, z, _, tn) = inverter();
        // n-transistor gate open: reads 0, never conducts; output can only
        // be pulled high.
        let mut sim = Sim::with_faults(&c, FaultSet::single(SwitchFault::GateOpen(tn)));
        sim.set_input(a, Logic::One);
        sim.settle();
        // pull-up off (a=1 at the p gate), pull-down off (A1) -> floats X
        // (initial charge unknown).
        assert_eq!(sim.signal(z).strength, Strength::Charged);
        sim.set_input(a, Logic::Zero);
        sim.settle();
        assert_eq!(sim.level(z), Logic::One);
    }

    #[test]
    fn gate_open_without_a1_reads_x() {
        let (c, a, z, _, tn) = inverter();
        let mut faults = FaultSet::single(SwitchFault::GateOpen(tn));
        faults.disable_a1();
        let mut sim = Sim::with_faults(&c, faults);
        sim.set_input(a, Logic::One);
        sim.settle();
        // Unknown conduction against a known pull-up state: z is tainted X
        // whenever the two sides disagree.
        sim.set_input(a, Logic::Zero);
        sim.settle();
        assert_eq!(sim.level(z), Logic::X);
    }

    #[test]
    fn preset_charge_sets_memory() {
        let (c, _a, z, _, _) = inverter();
        let mut sim = Sim::new(&c);
        sim.preset_charge(z, Logic::One);
        assert_eq!(sim.level(z), Logic::One);
        // Supplies cannot be preset.
        sim.preset_charge(c.vdd(), Logic::Zero);
        assert_eq!(sim.level(c.vdd()), Logic::One);
    }

    #[test]
    #[should_panic(expected = "not a declared input")]
    fn set_input_on_internal_node_panics() {
        let (c, _, z, _, _) = inverter();
        let mut sim = Sim::new(&c);
        sim.set_input(z, Logic::One);
    }

    #[test]
    fn charge_sharing_mixed_becomes_x() {
        // Two charged nodes joined by a pass transistor with opposite
        // charges -> X on both.
        let mut b = CircuitBuilder::new();
        let g = b.input("g");
        let n1 = b.node("n1");
        let n2 = b.node("n2");
        b.fet(FetKind::N, g, n1, n2, "pass");
        let c = b.finish();
        let mut sim = Sim::new(&c);
        sim.preset_charge(n1, Logic::One);
        sim.preset_charge(n2, Logic::Zero);
        sim.set_input(g, Logic::One);
        sim.settle();
        assert_eq!(sim.level(n1), Logic::X);
        assert_eq!(sim.level(n2), Logic::X);
    }

    #[test]
    fn charge_sharing_agreeing_keeps_level() {
        let mut b = CircuitBuilder::new();
        let g = b.input("g");
        let n1 = b.node("n1");
        let n2 = b.node("n2");
        b.fet(FetKind::N, g, n1, n2, "pass");
        let c = b.finish();
        let mut sim = Sim::new(&c);
        sim.preset_charge(n1, Logic::One);
        sim.preset_charge(n2, Logic::One);
        sim.set_input(g, Logic::One);
        sim.settle();
        assert_eq!(sim.level(n1), Logic::One);
        assert_eq!(sim.level(n2), Logic::One);
    }

    #[test]
    fn pass_transistor_drives_through() {
        let mut b = CircuitBuilder::new();
        let g = b.input("g");
        let d = b.input("d");
        let out = b.node("out");
        b.fet(FetKind::N, g, d, out, "pass");
        let c = b.finish();
        let mut sim = Sim::new(&c);
        sim.set_input(g, Logic::One);
        sim.set_input(d, Logic::Zero);
        sim.settle();
        assert_eq!(sim.signal(out), Signal::driven(Logic::Zero));
        // Turn the pass gate off; out retains charge.
        sim.set_input(g, Logic::Zero);
        sim.set_input(d, Logic::One);
        sim.settle();
        assert_eq!(sim.signal(out), Signal::charged(Logic::Zero));
    }

    #[test]
    fn ring_oscillator_reports_oscillation() {
        // A single inverter with output fed back to its own gate.
        let mut b = CircuitBuilder::new();
        let z = b.node("z");
        let (vdd, vss) = (b.vdd(), b.vss());
        b.fet(FetKind::P, z, vdd, z, "Tp");
        b.fet(FetKind::N, z, z, vss, "Tn");
        let c = b.finish();
        let mut sim = Sim::new(&c);
        // Force a definite starting charge to kick off the oscillation.
        sim.preset_charge(z, Logic::Zero);
        let r = sim.settle();
        assert!(r.oscillated);
        assert_eq!(sim.level(z), Logic::X);
    }

    #[test]
    fn settle_is_idempotent() {
        let (c, a, z, _, _) = inverter();
        let mut sim = Sim::new(&c);
        sim.set_input(a, Logic::Zero);
        sim.settle();
        let s1 = sim.signal(z);
        let r = sim.settle();
        assert_eq!(sim.signal(z), s1);
        assert_eq!(r.iterations, 1); // already at fixpoint
    }
}
