//! Ready-made transistor-level gates for the paper's three technologies.
//!
//! * [`static_inverter`], [`static_nor2`], [`static_cmos_gate`] — the
//!   *static* CMOS circuits of the paper's introduction (Fig. 1/2), used to
//!   demonstrate the stuck-open memory problem,
//! * [`domino_gate`] — the domino CMOS gate of Fig. 4 (precharge
//!   p-transistor `T1`, switch network `SN`, foot n-transistor `T2`, output
//!   inverter),
//! * [`dynamic_nmos_gate`] — the dynamic nMOS gate of Fig. 6 (precharge
//!   transistor `Tn+1` fed from the clock itself, input pass transistors
//!   charged by the complementary clock).
//!
//! Every builder returns a handle exposing the individual transistors so
//! fault-injection experiments can address "T1 permanently closed" etc.
//! exactly as the paper does.

use crate::circuit::{Circuit, CircuitBuilder, FetKind, NodeId, TransistorId};
use crate::level::Logic;
use crate::sim::Sim;
use crate::sn::{build_sn, dual, SnError, SnHandle};
use dynmos_logic::Bexpr;

/// A static CMOS inverter (the subject of the paper's Fig. 2).
#[derive(Debug, Clone)]
pub struct StaticInverter {
    /// The netlist.
    pub circuit: Circuit,
    /// Input node.
    pub a: NodeId,
    /// Output node.
    pub z: NodeId,
    /// Pull-up p-transistor (`T1` in Fig. 2).
    pub tp: TransistorId,
    /// Pull-down n-transistor (`T2` in Fig. 2).
    pub tn: TransistorId,
}

/// Builds a static CMOS inverter.
///
/// # Example
///
/// ```
/// use dynmos_switch::{gates::static_inverter, Logic, Sim};
/// let inv = static_inverter();
/// let mut sim = Sim::new(&inv.circuit);
/// sim.set_input(inv.a, Logic::One);
/// sim.settle();
/// assert_eq!(sim.level(inv.z), Logic::Zero);
/// ```
pub fn static_inverter() -> StaticInverter {
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let z = b.node("z");
    let (vdd, vss) = (b.vdd(), b.vss());
    let tp = b.fet(FetKind::P, a, vdd, z, "T1");
    let tn = b.fet(FetKind::N, a, z, vss, "T2");
    StaticInverter {
        circuit: b.finish(),
        a,
        z,
        tp,
        tn,
    }
}

/// A static CMOS 2-input NOR (the paper's Fig. 1).
#[derive(Debug, Clone)]
pub struct StaticNor2 {
    /// The netlist.
    pub circuit: Circuit,
    /// Input A.
    pub a: NodeId,
    /// Input B.
    pub b: NodeId,
    /// Output Z.
    pub z: NodeId,
    /// Series pull-up transistor gated by A.
    pub pullup_a: TransistorId,
    /// Series pull-up transistor gated by B.
    pub pullup_b: TransistorId,
    /// Parallel pull-down transistor gated by A — the device whose open
    /// connection the paper marks in Fig. 1.
    pub pulldown_a: TransistorId,
    /// Parallel pull-down transistor gated by B.
    pub pulldown_b: TransistorId,
}

/// Builds the static CMOS NOR of Fig. 1.
pub fn static_nor2() -> StaticNor2 {
    let mut b = CircuitBuilder::new();
    let a = b.input("A");
    let bb = b.input("B");
    let z = b.node("Z");
    let mid = b.fresh_node("pu_mid");
    let (vdd, vss) = (b.vdd(), b.vss());
    let pullup_a = b.fet(FetKind::P, a, vdd, mid, "PU:A");
    let pullup_b = b.fet(FetKind::P, bb, mid, z, "PU:B");
    let pulldown_a = b.fet(FetKind::N, a, z, vss, "PD:A");
    let pulldown_b = b.fet(FetKind::N, bb, z, vss, "PD:B");
    StaticNor2 {
        circuit: b.finish(),
        a,
        b: bb,
        z,
        pullup_a,
        pullup_b,
        pulldown_a,
        pulldown_b,
    }
}

/// A generic static CMOS gate `z = /T(inputs)` with pull-down network `T`
/// and its dual pull-up.
#[derive(Debug, Clone)]
pub struct StaticGate {
    /// The netlist.
    pub circuit: Circuit,
    /// Input node per variable index (dense over `0..nvars`).
    pub inputs: Vec<NodeId>,
    /// Output node.
    pub z: NodeId,
    /// Pull-down network transistors.
    pub pulldown: SnHandle,
    /// Pull-up (dual) network transistors.
    pub pullup: SnHandle,
}

/// Builds a static CMOS gate computing `z = /T(i…)` for a positive
/// series-parallel `pulldown` expression over `nvars` inputs.
///
/// # Errors
///
/// Returns [`SnError`] if the expression is not positive series-parallel.
pub fn static_cmos_gate(pulldown: &Bexpr, nvars: usize) -> Result<StaticGate, SnError> {
    let mut b = CircuitBuilder::new();
    let inputs: Vec<NodeId> = (0..nvars).map(|i| b.input(&format!("i{i}"))).collect();
    let z = b.node("z");
    let (vdd, vss) = (b.vdd(), b.vss());
    let pd = build_sn(&mut b, pulldown, z, vss, FetKind::N, &|v| {
        inputs.get(v.index()).copied()
    })?;
    let pu_expr = dual(pulldown)?;
    let pu = build_sn(&mut b, &pu_expr, vdd, z, FetKind::P, &|v| {
        inputs.get(v.index()).copied()
    })?;
    Ok(StaticGate {
        circuit: b.finish(),
        inputs,
        z,
        pulldown: pd,
        pullup: pu,
    })
}

/// A domino CMOS gate per the paper's Fig. 4.
///
/// `z = T(inputs)` during evaluation; the internal node `y` carries the
/// precharged complement.
#[derive(Debug, Clone)]
pub struct DominoGate {
    /// The netlist.
    pub circuit: Circuit,
    /// Clock `Φ`.
    pub clock: NodeId,
    /// Input node per variable index.
    pub inputs: Vec<NodeId>,
    /// Internal precharged node `y`.
    pub y: NodeId,
    /// Output node `z` (after the inverter).
    pub z: NodeId,
    /// Precharge p-transistor `T1`.
    pub t1: TransistorId,
    /// Foot (evaluate) n-transistor `T2`.
    pub t2: TransistorId,
    /// Output inverter pull-up.
    pub inv_p: TransistorId,
    /// Output inverter pull-down.
    pub inv_n: TransistorId,
    /// The switch network transistors.
    pub sn: SnHandle,
}

/// Builds the domino CMOS gate of Fig. 4 for a positive series-parallel
/// transmission function over `nvars` inputs.
///
/// # Errors
///
/// Returns [`SnError`] if the expression is not positive series-parallel.
///
/// # Example
///
/// ```
/// use dynmos_logic::{parse_expr, VarTable};
/// use dynmos_switch::gates::{domino_gate, DominoGate};
/// use dynmos_switch::{Logic, Sim};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut vars = VarTable::new();
/// let t = parse_expr("a*(b+c)+d*e", &mut vars)?;
/// let gate = domino_gate(&t, vars.len())?;
/// let mut sim = Sim::new(&gate.circuit);
/// // a=1, b=1 -> u must rise during evaluation.
/// let out = gate.evaluate(&mut sim, 0b00011);
/// assert_eq!(out, Logic::One);
/// # Ok(())
/// # }
/// ```
pub fn domino_gate(transmission: &Bexpr, nvars: usize) -> Result<DominoGate, SnError> {
    let mut b = CircuitBuilder::new();
    let clock = b.input("phi");
    let inputs: Vec<NodeId> = (0..nvars).map(|i| b.input(&format!("i{i}"))).collect();
    let y = b.node("y");
    let z = b.node("z");
    // The foot node is a tiny stack-internal parasitic; its unknown
    // start-up charge must not disturb the precharged y by charge sharing.
    let foot = b.fresh_node("foot");
    let (vdd, vss) = (b.vdd(), b.vss());
    let t1 = b.fet(FetKind::P, clock, vdd, y, "T1");
    let sn = build_sn(&mut b, transmission, y, foot, FetKind::N, &|v| {
        inputs.get(v.index()).copied()
    })?;
    let t2 = b.fet(FetKind::N, clock, foot, vss, "T2");
    let inv_p = b.fet(FetKind::P, y, vdd, z, "INVp");
    let inv_n = b.fet(FetKind::N, y, z, vss, "INVn");
    Ok(DominoGate {
        circuit: b.finish(),
        clock,
        inputs,
        y,
        z,
        t1,
        t2,
        inv_p,
        inv_n,
        sn,
    })
}

impl DominoGate {
    /// Runs one full precharge/evaluate cycle on `sim` and returns the
    /// output level during evaluation.
    ///
    /// Follows the domino discipline: inputs are low during precharge
    /// (they are outputs of other domino gates, which are all low at `Φ̄`),
    /// then take their values for evaluation. Bit `i` of `word` is input
    /// `i`.
    pub fn evaluate(&self, sim: &mut Sim<'_>, word: u64) -> Logic {
        // Precharge: Φ=0, all inputs low.
        sim.set_input(self.clock, Logic::Zero);
        for &i in &self.inputs {
            sim.set_input(i, Logic::Zero);
        }
        sim.settle();
        // Evaluate: Φ=1, inputs rise to their values (monotone, as in a
        // domino network).
        sim.set_input(self.clock, Logic::One);
        for (k, &i) in self.inputs.iter().enumerate() {
            sim.set_input(i, Logic::from_bool((word >> k) & 1 == 1));
        }
        sim.settle();
        sim.level(self.z)
    }
}

/// A dynamic nMOS gate per the paper's Fig. 6.
///
/// `z = /T(inputs)` after evaluation. Inputs pass through n-transistors
/// gated by the complementary clock `Φ2`, so the stored input charge is
/// what the switch network sees — the basis of the `nMOS-i` fault classes.
#[derive(Debug, Clone)]
pub struct DynamicNmosGate {
    /// The netlist.
    pub circuit: Circuit,
    /// The gate's own clock `Φ1` (precharges `z`, evaluation on its fall).
    pub clock: NodeId,
    /// The complementary clock `Φ2` (charges the input nodes).
    pub clock2: NodeId,
    /// External data nodes (before the pass transistors).
    pub data: Vec<NodeId>,
    /// Internal input nodes (after the pass transistors) driving `SN` gates.
    pub gate_nodes: Vec<NodeId>,
    /// Input pass transistors, one per input.
    pub pass: Vec<TransistorId>,
    /// Output node `z`.
    pub z: NodeId,
    /// The precharge transistor `Tn+1`.
    pub t_pre: TransistorId,
    /// The switch network transistors (`T1 … Tn`).
    pub sn: SnHandle,
}

/// Builds the dynamic nMOS gate of Fig. 6 for a positive series-parallel
/// transmission function over `nvars` inputs.
///
/// # Errors
///
/// Returns [`SnError`] if the expression is not positive series-parallel.
pub fn dynamic_nmos_gate(transmission: &Bexpr, nvars: usize) -> Result<DynamicNmosGate, SnError> {
    let mut b = CircuitBuilder::new();
    let clock = b.input("phi1");
    let clock2 = b.input("phi2");
    let data: Vec<NodeId> = (0..nvars).map(|i| b.input(&format!("d{i}"))).collect();
    let gate_nodes: Vec<NodeId> = (0..nvars).map(|i| b.node(&format!("g{i}"))).collect();
    let pass: Vec<TransistorId> = (0..nvars)
        .map(|i| {
            b.fet(
                FetKind::N,
                clock2,
                data[i],
                gate_nodes[i],
                &format!("PASS{i}"),
            )
        })
        .collect();
    let z = b.node("z");
    // Tn+1: gate AND source tied to the clock — precharges z while Φ1=1.
    let t_pre = b.fet(FetKind::N, clock, clock, z, "Tn+1");
    // SN between z and the clock rail: discharges z when Φ1 falls low and
    // the transmission function holds.
    let sn = build_sn(&mut b, transmission, z, clock, FetKind::N, &|v| {
        gate_nodes.get(v.index()).copied()
    })?;
    Ok(DynamicNmosGate {
        circuit: b.finish(),
        clock,
        clock2,
        data,
        gate_nodes,
        pass,
        z,
        t_pre,
        sn,
    })
}

impl DynamicNmosGate {
    /// Runs one full two-phase cycle on `sim` and returns the valid output
    /// level after evaluation (`z = /T` for the fault-free gate).
    ///
    /// The clocks are *non-overlapping* (Fig. 7): inputs load during
    /// `Φ2` while `Φ1` is low, `Φ2` falls (inputs latched), `Φ1` rises
    /// (precharge with stable inputs), `Φ1` falls (evaluation). Bit `i` of
    /// `word` is input `i`.
    pub fn evaluate(&self, sim: &mut Sim<'_>, word: u64) -> Logic {
        // Input-load phase: Φ1 low, Φ2 high.
        sim.set_input(self.clock, Logic::Zero);
        sim.set_input(self.clock2, Logic::One);
        for (k, &d) in self.data.iter().enumerate() {
            sim.set_input(d, Logic::from_bool((word >> k) & 1 == 1));
        }
        sim.settle();
        // Latch: both clocks low.
        sim.set_input(self.clock2, Logic::Zero);
        sim.settle();
        // Precharge: Φ1 high, inputs stable.
        sim.set_input(self.clock, Logic::One);
        sim.settle();
        // Evaluate on the falling edge of Φ1.
        sim.set_input(self.clock, Logic::Zero);
        sim.settle();
        sim.level(self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultSet, SwitchFault};
    use dynmos_logic::{parse_expr, VarTable};

    #[test]
    fn static_nor_truth_table() {
        let nor = static_nor2();
        for (a, b, expect) in [
            (Logic::Zero, Logic::Zero, Logic::One),
            (Logic::Zero, Logic::One, Logic::Zero),
            (Logic::One, Logic::Zero, Logic::Zero),
            (Logic::One, Logic::One, Logic::Zero),
        ] {
            let mut sim = Sim::new(&nor.circuit);
            sim.set_input(nor.a, a);
            sim.set_input(nor.b, b);
            sim.settle();
            assert_eq!(sim.level(nor.z), expect, "A={a} B={b}");
        }
    }

    #[test]
    fn fig1_fault_makes_nor_sequential() {
        // The paper's Fig. 1 table: with the pull-down A device open,
        // (A,B)=(1,0) yields Z(t) — the previous output.
        let nor = static_nor2();
        let faults = FaultSet::single(SwitchFault::StuckOpen(nor.pulldown_a));
        for prev in [Logic::Zero, Logic::One] {
            let mut sim = Sim::with_faults(&nor.circuit, faults.clone());
            sim.preset_charge(nor.z, prev);
            sim.set_input(nor.a, Logic::One);
            sim.set_input(nor.b, Logic::Zero);
            sim.settle();
            assert_eq!(sim.level(nor.z), prev, "Z(t+Δ) must equal Z(t)");
        }
    }

    #[test]
    fn fig1_other_rows_unchanged() {
        let nor = static_nor2();
        let faults = FaultSet::single(SwitchFault::StuckOpen(nor.pulldown_a));
        for (a, b, expect) in [
            (Logic::Zero, Logic::Zero, Logic::One),
            (Logic::Zero, Logic::One, Logic::Zero),
            (Logic::One, Logic::One, Logic::Zero),
        ] {
            let mut sim = Sim::with_faults(&nor.circuit, faults.clone());
            sim.set_input(nor.a, a);
            sim.set_input(nor.b, b);
            sim.settle();
            assert_eq!(sim.level(nor.z), expect, "A={a} B={b}");
        }
    }

    #[test]
    fn generic_static_gate_matches_complement() {
        let mut vars = VarTable::new();
        let t = parse_expr("a*b+c", &mut vars).unwrap();
        let n = vars.len();
        let gate = static_cmos_gate(&t, n).unwrap();
        for w in 0..(1u64 << n) {
            let mut sim = Sim::new(&gate.circuit);
            for (i, &node) in gate.inputs.iter().enumerate() {
                sim.set_input(node, Logic::from_bool((w >> i) & 1 == 1));
            }
            sim.settle();
            assert_eq!(
                sim.level(gate.z),
                Logic::from_bool(!t.eval_word(w)),
                "row {w:b}"
            );
        }
    }

    #[test]
    fn domino_gate_computes_transmission_function() {
        // "The logical function of a domino gate is exactly the
        //  transmission function of the involved switching network."
        let mut vars = VarTable::new();
        let t = parse_expr("a*(b+c)+d*e", &mut vars).unwrap();
        let n = vars.len();
        let gate = domino_gate(&t, n).unwrap();
        for w in 0..(1u64 << n) {
            let mut sim = Sim::new(&gate.circuit);
            let out = gate.evaluate(&mut sim, w);
            assert_eq!(out, Logic::from_bool(t.eval_word(w)), "row {w:b}");
        }
    }

    #[test]
    fn domino_precharge_drives_output_low() {
        let mut vars = VarTable::new();
        let t = parse_expr("a*b", &mut vars).unwrap();
        let gate = domino_gate(&t, 2).unwrap();
        let mut sim = Sim::new(&gate.circuit);
        sim.set_input(gate.clock, Logic::Zero);
        for &i in &gate.inputs {
            sim.set_input(i, Logic::Zero);
        }
        sim.settle();
        // "At Φ̄ the output nodes of all gates are low."
        assert_eq!(sim.level(gate.y), Logic::One);
        assert_eq!(sim.level(gate.z), Logic::Zero);
    }

    #[test]
    fn dynamic_nmos_computes_inverse_transmission() {
        // "The logical function of the gate is the inverse of the
        //  transmission function."
        let mut vars = VarTable::new();
        let t = parse_expr("a*b+c", &mut vars).unwrap();
        let n = vars.len();
        let gate = dynamic_nmos_gate(&t, n).unwrap();
        for w in 0..(1u64 << n) {
            let mut sim = Sim::new(&gate.circuit);
            let out = gate.evaluate(&mut sim, w);
            assert_eq!(out, Logic::from_bool(!t.eval_word(w)), "row {w:b}");
        }
    }

    #[test]
    fn dynamic_nmos_inputs_latched_at_phi2_fall() {
        let mut vars = VarTable::new();
        let t = parse_expr("a", &mut vars).unwrap();
        let gate = dynamic_nmos_gate(&t, 1).unwrap();
        let mut sim = Sim::new(&gate.circuit);
        // Load a=1 during Φ2, then change the data line before evaluation:
        // the latched value must win.
        sim.set_input(gate.data[0], Logic::One);
        sim.set_input(gate.clock, Logic::One);
        sim.set_input(gate.clock2, Logic::One);
        sim.settle();
        sim.set_input(gate.clock2, Logic::Zero);
        sim.settle();
        sim.set_input(gate.data[0], Logic::Zero); // too late
        sim.set_input(gate.clock, Logic::Zero);
        sim.settle();
        assert_eq!(sim.level(gate.z), Logic::Zero); // /T(1) = 0
    }
}
