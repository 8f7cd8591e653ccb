//! Combinational networks of technology-tagged cells.
//!
//! Mirrors the paper's Figs. 5 and 7: a network of domino CMOS gates is
//! "controlled by a single clock"; dynamic nMOS gates need "at least two
//! non-overlapping clocks", alternating phases along every path.
//! [`Network::check_clocking`] enforces exactly these disciplines.

use crate::cell::Cell;
use crate::compile::{CompiledNetwork, PackedEvaluator, PreparedFault};
use crate::tech::Technology;
use dynmos_logic::{Bexpr, VarId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Identifier of a net (signal) in a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl NetId {
    /// Index into net-indexed arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net{}", self.0)
    }
}

/// Identifier of a gate instance in a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateRef(pub u32);

impl GateRef {
    /// Index into gate-indexed arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Clock phase of a dynamic gate (Fig. 7's `Φ1`/`Φ2`). Domino networks use
/// a single clock; by convention all their gates sit on `Phi1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Phase {
    /// First phase.
    #[default]
    Phi1,
    /// Second (complementary) phase.
    Phi2,
}

impl Phase {
    /// The complementary phase.
    pub(crate) fn other(self) -> Phase {
        match self {
            Phase::Phi1 => Phase::Phi2,
            Phase::Phi2 => Phase::Phi1,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Phi1 => write!(f, "Φ1"),
            Phase::Phi2 => write!(f, "Φ2"),
        }
    }
}

/// One cell instance.
#[derive(Debug, Clone)]
pub struct GateInstance {
    /// Index into the network's cell list.
    pub cell: usize,
    /// Input nets, one per cell input, in cell-input order.
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
    /// Clock phase.
    pub phase: Phase,
}

/// Errors from [`NetworkBuilder::finish`] or clocking checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A net is driven by more than one gate (or a gate drives a primary
    /// input).
    MultipleDrivers(String),
    /// A gate input net is neither a primary input nor any gate's output.
    Undriven(String),
    /// The gate/cell arities disagree.
    ArityMismatch {
        /// The offending gate.
        gate: GateRef,
        /// Inputs the cell wants.
        expected: usize,
        /// Inputs the instance got.
        got: usize,
    },
    /// The network contains a combinational cycle.
    Cycle,
    /// A dynamic nMOS gate is fed by a gate of the *same* phase — two-phase
    /// discipline violated (Fig. 7 requires alternation).
    ClockingViolation {
        /// The consuming gate.
        gate: GateRef,
        /// The offending driver gate.
        driver: GateRef,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::MultipleDrivers(n) => write!(f, "net '{n}' has multiple drivers"),
            NetworkError::Undriven(n) => write!(f, "net '{n}' is undriven"),
            NetworkError::ArityMismatch {
                gate,
                expected,
                got,
            } => write!(f, "{gate}: cell expects {expected} inputs, got {got}"),
            NetworkError::Cycle => write!(f, "network contains a combinational cycle"),
            NetworkError::ClockingViolation { gate, driver } => write!(
                f,
                "{gate} and its driver {driver} share a clock phase (two-phase discipline violated)"
            ),
        }
    }
}

impl Error for NetworkError {}

/// A fault at network level: either a net stuck at a constant or one gate
/// computing a faulty function (the form the paper's fault library emits).
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkFault {
    /// The net reads the constant regardless of its driver.
    NetStuck(NetId, bool),
    /// The gate computes `function` (over its cell-input variables) instead
    /// of its cell's logic function.
    GateFunction(GateRef, Bexpr),
}

/// A combinational network of cell instances.
///
/// # Example
///
/// ```
/// use dynmos_netlist::{parse_cell, NetworkBuilder, Phase};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let and2 = parse_cell("and2", "TECHNOLOGY domino-CMOS; INPUT a,b; OUTPUT z; z := a*b;")?;
/// let or2 = parse_cell("or2", "TECHNOLOGY domino-CMOS; INPUT a,b; OUTPUT z; z := a+b;")?;
/// let mut b = NetworkBuilder::new();
/// let x = b.input("x");
/// let y = b.input("y");
/// let w = b.input("w");
/// let c0 = b.add_cell(and2);
/// let c1 = b.add_cell(or2);
/// let (_, m) = b.gate(c0, &[x, y], "m", Phase::Phi1);
/// let (_, z) = b.gate(c1, &[m, w], "z", Phase::Phi1);
/// b.mark_output(z);
/// let net = b.finish()?;
/// assert_eq!(net.eval(&[true, true, false]), vec![true]); // (x&y)|w
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    cells: Vec<Cell>,
    gates: Vec<GateInstance>,
    net_names: Vec<String>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
    /// Gates in topological order.
    topo: Vec<GateRef>,
    /// Driving gate per net (None for primary inputs).
    driver: Vec<Option<GateRef>>,
    /// Logic level per gate (PIs are level 0).
    levels: Vec<usize>,
    /// The compiled instruction tape and fault-cone data (built once at
    /// [`NetworkBuilder::finish`] time; see [`crate::compile`]).
    compiled: CompiledNetwork,
}

impl Network {
    /// The cell library.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The gate instances.
    pub fn gates(&self) -> &[GateInstance] {
        &self.gates
    }

    /// The cell of gate `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn cell_of(&self, g: GateRef) -> &Cell {
        &self.cells[self.gates[g.index()].cell]
    }

    /// Primary inputs in declaration order.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Primary outputs in declaration order.
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Name of net `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn net_name(&self, n: NetId) -> &str {
        &self.net_names[n.index()]
    }

    /// The gate driving net `n`, if any.
    pub fn driver(&self, n: NetId) -> Option<GateRef> {
        self.driver[n.index()]
    }

    /// Gates in topological (evaluation) order.
    pub fn topo_order(&self) -> &[GateRef] {
        &self.topo
    }

    /// Logic depth: the maximum gate level (PIs are level 0).
    pub fn depth(&self) -> usize {
        self.levels.iter().copied().max().unwrap_or(0)
    }

    /// Evaluates the network on one input assignment; returns primary
    /// output values in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `pi_values.len() != primary_inputs().len()`.
    pub fn eval(&self, pi_values: &[bool]) -> Vec<bool> {
        let packed: Vec<u64> = pi_values.iter().map(|&b| if b { 1 } else { 0 }).collect();
        self.eval_packed(&packed)
            .into_iter()
            .map(|w| w & 1 == 1)
            .collect()
    }

    /// Evaluates 64 input assignments at once (bit lane `k` of every word
    /// is assignment `k`); returns packed primary-output words.
    ///
    /// # Panics
    ///
    /// Panics if `pi_words.len() != primary_inputs().len()`.
    pub fn eval_packed(&self, pi_words: &[u64]) -> Vec<u64> {
        self.eval_packed_faulty(pi_words, None)
    }

    /// Packed evaluation with an optional injected [`NetworkFault`].
    ///
    /// # Panics
    ///
    /// Panics if `pi_words.len() != primary_inputs().len()`.
    pub fn eval_packed_faulty(&self, pi_words: &[u64], fault: Option<&NetworkFault>) -> Vec<u64> {
        let values = self.eval_packed_all(pi_words, fault);
        self.primary_outputs
            .iter()
            .map(|po| values[po.index()])
            .collect()
    }

    /// Packed evaluation returning the value of *every* net (indexed by
    /// [`NetId`]). PROTEST's estimators and the A1/A2 coverage experiment
    /// need internal nets, not just outputs.
    ///
    /// This is a compatibility shim over the compiled evaluator: one
    /// [`PackedEvaluator`] is built per call. Hot callers that evaluate
    /// many batches should hold a [`PackedEvaluator`] (and, per fault, a
    /// [`PreparedFault`]) instead and skip the per-call allocation.
    ///
    /// # Panics
    ///
    /// Panics if `pi_words.len() != primary_inputs().len()`.
    pub fn eval_packed_all(&self, pi_words: &[u64], fault: Option<&NetworkFault>) -> Vec<u64> {
        let mut ev = PackedEvaluator::new(self);
        ev.eval(pi_words);
        match fault {
            None => ev.net_values().to_vec(),
            Some(f) => {
                let prepared = self.prepare_fault(f);
                ev.eval_faulty_all(&prepared).to_vec()
            }
        }
    }

    /// The compiled tape and fault-cone data of this network.
    pub fn compiled(&self) -> &CompiledNetwork {
        &self.compiled
    }

    /// Binds `fault` to its precomputed fanout cone (and compiles the
    /// faulty function, for gate-function faults) for incremental faulty
    /// evaluation with [`PackedEvaluator::fault_diff64`].
    pub fn prepare_fault(&self, fault: &NetworkFault) -> PreparedFault<'_> {
        self.compiled.prepare(self, fault)
    }

    /// The original interpretive evaluator, kept as the differential-test
    /// oracle for the compiled path (and as the baseline in the
    /// `fsim_patterns_per_sec` bench). Walks the [`Bexpr`] of every gate
    /// per batch; allocates per call.
    ///
    /// # Panics
    ///
    /// Panics if `pi_words.len() != primary_inputs().len()`.
    pub fn eval_packed_all_reference(
        &self,
        pi_words: &[u64],
        fault: Option<&NetworkFault>,
    ) -> Vec<u64> {
        assert_eq!(
            pi_words.len(),
            self.primary_inputs.len(),
            "need one packed word per primary input"
        );
        let mut values = vec![0u64; self.net_names.len()];
        for (pi, &w) in self.primary_inputs.iter().zip(pi_words) {
            values[pi.index()] = w;
        }
        // Apply PI stuck faults before gate evaluation.
        if let Some(NetworkFault::NetStuck(net, v)) = fault {
            if self.driver[net.index()].is_none() {
                values[net.index()] = if *v { u64::MAX } else { 0 };
            }
        }
        for &g in &self.topo {
            let inst = &self.gates[g.index()];
            let cell = &self.cells[inst.cell];
            let faulty_fn = match fault {
                Some(NetworkFault::GateFunction(fg, f)) if *fg == g => Some(f),
                _ => None,
            };
            let function = match faulty_fn {
                Some(f) => f.clone(),
                None => cell.logic_function(),
            };
            let out = function.eval_lanes(&|v: VarId| values[inst.inputs[v.index()].index()]);
            values[inst.output.index()] = out;
            if let Some(NetworkFault::NetStuck(net, v)) = fault {
                if *net == inst.output {
                    values[net.index()] = if *v { u64::MAX } else { 0 };
                }
            }
        }
        values
    }

    /// Checks the technology clocking discipline:
    ///
    /// * dynamic nMOS gates must alternate phases along every arc
    ///   (Fig. 7's two-phase rule);
    /// * domino gates all share one clock, so any phase assignment where
    ///   driver and consumer phases are *equal* is fine — the check is a
    ///   no-op for them.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::ClockingViolation`] naming the first
    /// offending arc.
    pub fn check_clocking(&self) -> Result<(), NetworkError> {
        for (gi, inst) in self.gates.iter().enumerate() {
            let g = GateRef(gi as u32);
            if self.cells[inst.cell].technology() != Technology::DynamicNmos {
                continue;
            }
            for &input in &inst.inputs {
                if let Some(driver) = self.driver[input.index()] {
                    let d = &self.gates[driver.index()];
                    if self.cells[d.cell].technology() == Technology::DynamicNmos
                        && d.phase == inst.phase
                    {
                        return Err(NetworkError::ClockingViolation { gate: g, driver });
                    }
                }
            }
        }
        Ok(())
    }

    /// The global logic function of primary output `po` as an expression
    /// over primary-input variables (`VarId(i)` = i-th primary input),
    /// obtained by back-substitution through the cone.
    ///
    /// # Panics
    ///
    /// Panics if `po` is not a primary output.
    pub fn output_function(&self, po: NetId) -> Bexpr {
        assert!(
            self.primary_outputs.contains(&po),
            "{po} is not a primary output"
        );
        let mut memo: HashMap<NetId, Bexpr> = HashMap::new();
        self.net_function(po, &mut memo)
    }

    fn net_function(&self, net: NetId, memo: &mut HashMap<NetId, Bexpr>) -> Bexpr {
        if let Some(e) = memo.get(&net) {
            return e.clone();
        }
        let result = match self.driver[net.index()] {
            None => {
                let pi_index = self
                    .primary_inputs
                    .iter()
                    .position(|&p| p == net)
                    .expect("undriven net must be a primary input");
                Bexpr::var(VarId(pi_index as u32))
            }
            Some(g) => {
                let inst = &self.gates[g.index()];
                let f = self.cells[inst.cell].logic_function();
                // Simultaneous substitution of all cell inputs in a single
                // pass: cell-variable ids and primary-input ids share the
                // number space, so chained substitution would capture the
                // PI variables introduced by earlier substitutions.
                let subs: Vec<Bexpr> = inst
                    .inputs
                    .iter()
                    .map(|&in_net| self.net_function(in_net, memo))
                    .collect();
                f.compose(&|v: VarId| subs[v.index()].clone())
            }
        };
        memo.insert(net, result.clone());
        result
    }
}

/// Builder for [`Network`].
#[derive(Debug, Clone, Default)]
pub struct NetworkBuilder {
    cells: Vec<Cell>,
    gates: Vec<GateInstance>,
    net_names: Vec<String>,
    by_name: HashMap<String, NetId>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
    driver: Vec<Option<GateRef>>,
    /// Per net: whether it is a primary input.
    is_input: Vec<bool>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a cell to the library, returning its index for [`Self::gate`].
    pub fn add_cell(&mut self, cell: Cell) -> usize {
        self.cells.push(cell);
        self.cells.len() - 1
    }

    /// Declares a primary input net.
    pub fn input(&mut self, name: &str) -> NetId {
        let id = self.net(name);
        if !self.is_input[id.index()] {
            self.is_input[id.index()] = true;
            self.primary_inputs.push(id);
        }
        id
    }

    /// Adds (or retrieves) a named net.
    pub fn net(&mut self, name: &str) -> NetId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = NetId(self.net_names.len() as u32);
        self.net_names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        self.driver.push(None);
        self.is_input.push(false);
        id
    }

    /// Instantiates cell `cell_index` with the given input nets, driving a
    /// new (or existing, undriven) net named `output`.
    ///
    /// Returns the gate reference and its output net.
    pub fn gate(
        &mut self,
        cell_index: usize,
        inputs: &[NetId],
        output: &str,
        phase: Phase,
    ) -> (GateRef, NetId) {
        let out = self.net(output);
        let g = GateRef(self.gates.len() as u32);
        self.gates.push(GateInstance {
            cell: cell_index,
            inputs: inputs.to_vec(),
            output: out,
            phase,
        });
        (g, out)
    }

    /// Marks a net as primary output.
    pub fn mark_output(&mut self, net: NetId) {
        if !self.primary_outputs.contains(&net) {
            self.primary_outputs.push(net);
        }
    }

    /// Validates and finalizes the network: single drivers, no undriven
    /// internal nets, matching arities, acyclicity (topological sort),
    /// level assignment.
    ///
    /// It then compiles the network (see [`crate::compile`]). Its fault
    /// cones cost O(gates × (gates + POs) / 64 + Σ cone sizes) to build,
    /// the sum running over nets.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetworkError`] found.
    pub fn finish(mut self) -> Result<Network, NetworkError> {
        // Drivers + arity.
        for (gi, inst) in self.gates.iter().enumerate() {
            let g = GateRef(gi as u32);
            let cell = &self.cells[inst.cell];
            if inst.inputs.len() != cell.input_count() {
                return Err(NetworkError::ArityMismatch {
                    gate: g,
                    expected: cell.input_count(),
                    got: inst.inputs.len(),
                });
            }
            let slot = &mut self.driver[inst.output.index()];
            if slot.is_some() || self.is_input[inst.output.index()] {
                return Err(NetworkError::MultipleDrivers(
                    self.net_names[inst.output.index()].clone(),
                ));
            }
            *slot = Some(g);
        }
        // Undriven nets.
        for inst in &self.gates {
            for &n in &inst.inputs {
                if self.driver[n.index()].is_none() && !self.is_input[n.index()] {
                    return Err(NetworkError::Undriven(self.net_names[n.index()].clone()));
                }
            }
        }
        for &po in &self.primary_outputs {
            if self.driver[po.index()].is_none() && !self.is_input[po.index()] {
                return Err(NetworkError::Undriven(self.net_names[po.index()].clone()));
            }
        }
        // Topological sort (Kahn) + levels.
        let mut indeg = vec![0usize; self.gates.len()];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); self.gates.len()];
        for (gi, inst) in self.gates.iter().enumerate() {
            for &n in &inst.inputs {
                if let Some(d) = self.driver[n.index()] {
                    indeg[gi] += 1;
                    consumers[d.index()].push(gi);
                }
            }
        }
        let mut queue: Vec<usize> = (0..self.gates.len()).filter(|&g| indeg[g] == 0).collect();
        let mut topo = Vec::with_capacity(self.gates.len());
        let mut levels = vec![1usize; self.gates.len()];
        while let Some(g) = queue.pop() {
            topo.push(GateRef(g as u32));
            for &c in &consumers[g] {
                levels[c] = levels[c].max(levels[g] + 1);
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    queue.push(c);
                }
            }
        }
        if topo.len() != self.gates.len() {
            return Err(NetworkError::Cycle);
        }
        // Kahn with a stack does not guarantee input-order stability; sort
        // by level then index for deterministic evaluation order.
        topo.sort_by_key(|g| (levels[g.index()], g.index()));

        let compiled = CompiledNetwork::build(
            &self.cells,
            &self.gates,
            self.net_names.len(),
            &topo,
            &self.primary_inputs,
            &self.primary_outputs,
        );

        Ok(Network {
            cells: self.cells,
            gates: self.gates,
            net_names: self.net_names,
            primary_inputs: self.primary_inputs,
            primary_outputs: self.primary_outputs,
            topo,
            driver: self.driver,
            levels,
            compiled,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_cell;

    fn and2() -> Cell {
        parse_cell(
            "and2",
            "TECHNOLOGY domino-CMOS; INPUT a,b; OUTPUT z; z := a*b;",
        )
        .unwrap()
    }

    fn or2() -> Cell {
        parse_cell(
            "or2",
            "TECHNOLOGY domino-CMOS; INPUT a,b; OUTPUT z; z := a+b;",
        )
        .unwrap()
    }

    fn dyn_nor2() -> Cell {
        parse_cell(
            "nor2",
            "TECHNOLOGY dynamic-nMOS; INPUT a,b; OUTPUT z; z := a+b;",
        )
        .unwrap()
    }

    /// (x&y)|w network used across tests.
    fn small_net() -> Network {
        let mut b = NetworkBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let w = b.input("w");
        let ca = b.add_cell(and2());
        let co = b.add_cell(or2());
        let (_, m) = b.gate(ca, &[x, y], "m", Phase::Phi1);
        let (_, z) = b.gate(co, &[m, w], "z", Phase::Phi1);
        b.mark_output(z);
        b.finish().unwrap()
    }

    #[test]
    fn eval_matches_expected_function() {
        let net = small_net();
        for w in 0..8u32 {
            let x = w & 1 == 1;
            let y = w >> 1 & 1 == 1;
            let ww = w >> 2 & 1 == 1;
            assert_eq!(net.eval(&[x, y, ww]), vec![(x && y) || ww]);
        }
    }

    #[test]
    fn eval_packed_matches_scalar() {
        let net = small_net();
        // Pack all 8 assignments into lanes 0..8.
        let mut pi = vec![0u64; 3];
        for lane in 0..8u64 {
            for (i, w) in pi.iter_mut().enumerate() {
                if (lane >> i) & 1 == 1 {
                    *w |= 1 << lane;
                }
            }
        }
        let packed = net.eval_packed(&pi)[0];
        for lane in 0..8u64 {
            let expect = net.eval(&[lane & 1 == 1, lane >> 1 & 1 == 1, lane >> 2 & 1 == 1])[0];
            assert_eq!((packed >> lane) & 1 == 1, expect, "lane {lane}");
        }
    }

    #[test]
    fn depth_and_levels() {
        let net = small_net();
        assert_eq!(net.depth(), 2);
        assert_eq!(net.topo_order().len(), 2);
    }

    #[test]
    fn output_function_back_substitutes() {
        let net = small_net();
        let po = net.primary_outputs()[0];
        let f = net.output_function(po);
        // f over (x,y,w) must equal (x&y)|w.
        for w in 0..8u64 {
            let expect = ((w & 1 == 1) && (w >> 1 & 1 == 1)) || (w >> 2 & 1 == 1);
            assert_eq!(f.eval_word(w), expect, "w={w:b}");
        }
    }

    #[test]
    fn net_stuck_fault_forces_value() {
        let net = small_net();
        let m = net
            .primary_outputs()
            .first()
            .and_then(|_| net.gates().first().map(|g| g.output))
            .unwrap();
        let fault = NetworkFault::NetStuck(m, true);
        // With m stuck-1, output = 1 always.
        let out = net.eval_packed_faulty(&[0, 0, 0], Some(&fault));
        assert_eq!(out[0], u64::MAX);
    }

    #[test]
    fn pi_stuck_fault() {
        let net = small_net();
        let x = net.primary_inputs()[0];
        let fault = NetworkFault::NetStuck(x, true);
        // x stuck-1: f = y|w ... check one distinguishing assignment:
        // x=0,y=1,w=0 -> good 0, faulty 1.
        let out = net.eval_packed_faulty(&[0, u64::MAX, 0], Some(&fault));
        assert_eq!(out[0], u64::MAX);
        let good = net.eval_packed(&[0, u64::MAX, 0]);
        assert_eq!(good[0], 0);
    }

    #[test]
    fn gate_function_fault_overrides_cell() {
        let net = small_net();
        // Replace the AND by constant-0 (an s0-z on the first gate).
        let fault = NetworkFault::GateFunction(GateRef(0), Bexpr::FALSE);
        let out = net.eval_packed_faulty(&[u64::MAX, u64::MAX, 0], Some(&fault));
        assert_eq!(out[0], 0);
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut b = NetworkBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let c = b.add_cell(and2());
        b.gate(c, &[x, y], "z", Phase::Phi1);
        b.gate(c, &[x, y], "z", Phase::Phi1);
        assert!(matches!(
            b.finish().unwrap_err(),
            NetworkError::MultipleDrivers(_)
        ));
    }

    #[test]
    fn driving_a_primary_input_rejected() {
        let mut b = NetworkBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let c = b.add_cell(and2());
        b.gate(c, &[x, y], "x", Phase::Phi1);
        assert!(matches!(
            b.finish().unwrap_err(),
            NetworkError::MultipleDrivers(_)
        ));
    }

    #[test]
    fn undriven_net_rejected() {
        let mut b = NetworkBuilder::new();
        let x = b.input("x");
        let ghost = b.net("ghost");
        let c = b.add_cell(and2());
        let (_, z) = b.gate(c, &[x, ghost], "z", Phase::Phi1);
        b.mark_output(z);
        assert!(matches!(b.finish().unwrap_err(), NetworkError::Undriven(_)));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = NetworkBuilder::new();
        let x = b.input("x");
        let c = b.add_cell(and2());
        b.gate(c, &[x], "z", Phase::Phi1);
        assert!(matches!(
            b.finish().unwrap_err(),
            NetworkError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn cycle_rejected() {
        let mut b = NetworkBuilder::new();
        let x = b.input("x");
        let c = b.add_cell(and2());
        let loop_net = b.net("loop");
        b.gate(c, &[x, loop_net], "loop", Phase::Phi1);
        assert!(matches!(b.finish().unwrap_err(), NetworkError::Cycle));
    }

    #[test]
    fn two_phase_alternation_accepted() {
        // Fig. 7: Φ1 gate feeding a Φ2 gate.
        let mut b = NetworkBuilder::new();
        let i1 = b.input("i1");
        let i2 = b.input("i2");
        let c = b.add_cell(dyn_nor2());
        let (_, z1) = b.gate(c, &[i1, i2], "z1", Phase::Phi1);
        let (_, z2) = b.gate(c, &[z1, i2], "z2", Phase::Phi2);
        b.mark_output(z2);
        let net = b.finish().unwrap();
        assert!(net.check_clocking().is_ok());
    }

    #[test]
    fn same_phase_arc_rejected_for_dynamic_nmos() {
        let mut b = NetworkBuilder::new();
        let i1 = b.input("i1");
        let i2 = b.input("i2");
        let c = b.add_cell(dyn_nor2());
        let (_, z1) = b.gate(c, &[i1, i2], "z1", Phase::Phi1);
        let (_, z2) = b.gate(c, &[z1, i2], "z2", Phase::Phi1);
        b.mark_output(z2);
        let net = b.finish().unwrap();
        assert!(matches!(
            net.check_clocking().unwrap_err(),
            NetworkError::ClockingViolation { .. }
        ));
    }

    #[test]
    fn domino_gates_ignore_phase_rule() {
        let net = small_net(); // both gates Phi1, domino cells
        assert!(net.check_clocking().is_ok());
    }

    #[test]
    fn phase_other_is_involutive() {
        assert_eq!(Phase::Phi1.other(), Phase::Phi2);
        assert_eq!(Phase::Phi2.other().other(), Phase::Phi2);
    }
}
