//! Compiled pattern-parallel evaluation: instruction tapes, reusable
//! packed evaluators, and fault-cone incremental faulty simulation.
//!
//! # Why
//!
//! Every PROTEST stage — exact enumeration, Monte Carlo estimation and
//! validating fault simulation — funnels through packed network
//! evaluation. The original path interpreted a [`Bexpr`] AST per gate per
//! batch, cloning each gate's logic function on every visit and
//! allocating a fresh value vector per call. This module lowers the
//! network **once**, at [`crate::NetworkBuilder::finish`] time, into a
//! flat instruction tape that a tight word-parallel loop executes with no
//! AST traversal, no cloning and no per-call allocation.
//!
//! # Tape format
//!
//! The tape is a struct-of-arrays program (`opcode`, operand slots `a`,
//! `b`, destination `dst`) over a flat array of *value slots*:
//!
//! * slot `i` for `i < net_count` holds the value of net `i` (so the
//!   result array doubles as the all-nets evaluation the estimators
//!   need);
//! * slots `net_count..` form a scratch region shared by all gates for
//!   intermediate sub-expression values. Sharing is safe because each
//!   gate's tape slice writes a scratch slot before reading it, so every
//!   slice is independently replayable.
//!
//! Gate tapes are concatenated in topological order; `gate_slice[p]`
//! records the half-open instruction range of the gate at topological
//! position `p`. Each slot holds `width` consecutive `u64` words, so one
//! pass evaluates `width × 64` patterns (64 for the common `width = 1`).
//!
//! # Fault cones and event-driven replay
//!
//! For serial-fault simulation the faulty machine differs from the good
//! machine only in the transitive fanout cone of the fault site. At build
//! time this module walks the gates in reverse topological order and
//! fills, per gate, two dense bitsets: its fanout cone over topological
//! positions, and the primary outputs that cone reaches (the gate's own
//! output net, if it is one, plus its readers' sets). From them it stores
//! each cone **once, per net**, in one flat arena: a driven net's entry is
//! its driver's position followed by its ascending *reader* cone (the
//! cone that matters when the net itself is forced, since the driver's
//! own computation is overridden). Readers always sit above their driver,
//! so a gate's fanout cone is the whole entry of its output net and a
//! forced net's cone is the entry without the driver. A second arena
//! holds each net's output set, which is also its driver's. The readers
//! of each net are kept too, as words of a bitset over topological
//! positions.
//!
//! The build costs O(gates × (gates + POs) / 64 + Σ cone sizes), the sum
//! running over nets: the bitset unions, then one scan per net to list
//! its entries.
//!
//! The static cone is only an upper bound on the work: under weighted
//! patterns a fault effect usually dies within a few gates. So
//! [`PackedEvaluator::fault_diff64`] replays event-driven, the
//! differential idea of concurrent fault simulators (PROOFS, Niermann,
//! Cheng & Patel, DAC'90). It forces the fault site and, if the site
//! differs from the good machine on some lane, marks the site's readers
//! in a bitset over topological positions. It then pops marked positions
//! in ascending order, replays each one's tape slice, and marks a gate's
//! readers only when its output differs from the good machine on some
//! lane. Readers always sit at higher positions, so one forward sweep
//! settles the faulty machine. Only the differing slots are compared
//! against the outputs and copied back. A replay therefore costs the
//! gates the effect reaches, not the whole cone.

use crate::network::{GateInstance, GateRef, NetId, Network, NetworkFault};
use dynmos_logic::{Bexpr, VarId};

/// Opcodes of the compiled tape. All operate on packed `u64` lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `dst = 0`
    Const0,
    /// `dst = !0`
    Const1,
    /// `dst = a`
    Copy,
    /// `dst = !a`
    Not,
    /// `dst = a & b`
    And,
    /// `dst = a | b`
    Or,
}

/// Struct-of-arrays instruction tape.
#[derive(Debug, Clone, Default)]
struct Tape {
    op: Vec<Op>,
    a: Vec<u32>,
    b: Vec<u32>,
    dst: Vec<u32>,
}

impl Tape {
    fn len(&self) -> u32 {
        self.op.len() as u32
    }

    fn push(&mut self, op: Op, a: u32, b: u32, dst: u32) {
        self.op.push(op);
        self.a.push(a);
        self.b.push(b);
        self.dst.push(dst);
    }

    /// Executes instructions `range` over `values`, each slot `width`
    /// words wide.
    fn execute(&self, range: std::ops::Range<usize>, values: &mut [u64], width: usize) {
        if width == 1 {
            // Zipped iteration lets the tape arrays stream without bounds
            // checks; only the slot accesses stay checked.
            let iter = self.op[range.clone()]
                .iter()
                .zip(&self.a[range.clone()])
                .zip(&self.b[range.clone()])
                .zip(&self.dst[range]);
            for (((&op, &a), &b), &d) in iter {
                let (a, b, d) = (a as usize, b as usize, d as usize);
                values[d] = match op {
                    Op::Const0 => 0,
                    Op::Const1 => !0,
                    Op::Copy => values[a],
                    Op::Not => !values[a],
                    Op::And => values[a] & values[b],
                    Op::Or => values[a] | values[b],
                };
            }
            return;
        }
        for i in range {
            let (a, b, d) = (
                self.a[i] as usize * width,
                self.b[i] as usize * width,
                self.dst[i] as usize * width,
            );
            match self.op[i] {
                Op::Const0 => values[d..d + width].fill(0),
                Op::Const1 => values[d..d + width].fill(!0),
                Op::Copy => {
                    for w in 0..width {
                        values[d + w] = values[a + w];
                    }
                }
                Op::Not => {
                    for w in 0..width {
                        values[d + w] = !values[a + w];
                    }
                }
                Op::And => {
                    for w in 0..width {
                        values[d + w] = values[a + w] & values[b + w];
                    }
                }
                Op::Or => {
                    for w in 0..width {
                        values[d + w] = values[a + w] | values[b + w];
                    }
                }
            }
        }
    }
}

/// Lowers `expr` onto `tape`, writing the final value to slot `dst`.
///
/// `input_slot` maps the expression's variables to value slots. Scratch
/// slots are allocated from `scratch` upward; returns the high-water
/// scratch mark.
fn lower_into(
    tape: &mut Tape,
    expr: &Bexpr,
    input_slot: &dyn Fn(VarId) -> u32,
    dst: u32,
    scratch: u32,
) -> u32 {
    match expr {
        Bexpr::Const(false) => {
            tape.push(Op::Const0, 0, 0, dst);
            scratch
        }
        Bexpr::Const(true) => {
            tape.push(Op::Const1, 0, 0, dst);
            scratch
        }
        Bexpr::Var(v) => {
            tape.push(Op::Copy, input_slot(*v), 0, dst);
            scratch
        }
        Bexpr::Not(inner) => {
            let (slot, high) = lower_operand(tape, inner, input_slot, scratch);
            tape.push(Op::Not, slot, 0, dst);
            high
        }
        Bexpr::And(terms) | Bexpr::Or(terms) => {
            let op = if matches!(expr, Bexpr::And(_)) {
                Op::And
            } else {
                Op::Or
            };
            // The n-ary constructors flatten below two terms, but a
            // hand-built expression may still carry the degenerate forms.
            match terms.len() {
                0 => {
                    let identity = if op == Op::And {
                        Op::Const1
                    } else {
                        Op::Const0
                    };
                    tape.push(identity, 0, 0, dst);
                    return scratch;
                }
                1 => return lower_into(tape, &terms[0], input_slot, dst, scratch),
                _ => {}
            }
            let mut high = scratch;
            // Left-fold the chain. The accumulator lives in slot
            // `scratch`; each operand slot is dead once folded, so it is
            // reused across iterations — scratch usage is bounded by
            // expression *depth*, not operand count. The first operand
            // may itself occupy `scratch + 1`, so only the first fold
            // step lowers its right-hand side one slot higher.
            let (first, h) = lower_operand(tape, &terms[0], input_slot, scratch + 1);
            high = high.max(h);
            let mut acc = first;
            for (k, term) in terms[1..].iter().enumerate() {
                let last = k == terms.len() - 2;
                let rhs_base = if k == 0 { scratch + 2 } else { scratch + 1 };
                let (rhs, h) = lower_operand(tape, term, input_slot, rhs_base);
                high = high.max(h);
                let target = if last { dst } else { scratch };
                tape.push(op, acc, rhs, target);
                acc = target;
            }
            high
        }
    }
}

/// Lowers `expr` as an operand: variables are referenced in place, other
/// shapes evaluate into a fresh scratch slot. Returns `(slot, high)`.
fn lower_operand(
    tape: &mut Tape,
    expr: &Bexpr,
    input_slot: &dyn Fn(VarId) -> u32,
    scratch: u32,
) -> (u32, u32) {
    match expr {
        Bexpr::Var(v) => (input_slot(*v), scratch),
        _ => {
            let high = lower_into(tape, expr, input_slot, scratch, scratch + 1);
            (scratch, high)
        }
    }
}

/// The compiled form of a [`Network`], built once at
/// [`crate::NetworkBuilder::finish`] time.
#[derive(Debug, Clone)]
pub struct CompiledNetwork {
    net_count: u32,
    /// Total slots: nets plus the shared scratch region.
    slot_count: u32,
    tape: Tape,
    /// Instruction range per topological position.
    gate_slice: Vec<(u32, u32)>,
    /// Output net slot per topological position.
    gate_output: Vec<u32>,
    /// Gate index → topological position.
    gate_pos: Vec<u32>,
    /// Cone arena, one entry per net:
    /// `cones[cone_start[n]..cone_start[n + 1]]` holds the topological
    /// position of `n`'s driver (driven nets only), then the net's reader
    /// cone (the gates that read it, transitively), ascending. Since
    /// readers sit above their driver, a gate's fanout cone is the whole
    /// entry of its output net and a forced net's cone is the reader
    /// part, each stored once.
    cone_start: Vec<u32>,
    /// Per net: where the reader part of its `cones` entry starts
    /// (`cone_start[n]`, plus one for a driven net).
    reader_cone_start: Vec<u32>,
    cones: Vec<u32>,
    /// Output arena: `outputs[output_start[n]..output_start[n + 1]]` holds
    /// the primary-output indices, ascending, that forcing net `n`
    /// disturbs: `n` itself if it is an output (at its first index when
    /// listed twice) and every output its reader cone drives. It is also
    /// the reachable-output set of `n`'s driver.
    output_start: Vec<u32>,
    outputs: Vec<u32>,
    /// Readers of net `n` as words of a bitset over topological
    /// positions: `fanout[fanout_start[n]..fanout_start[n + 1]]` holds one
    /// `(block, bits)` per 64-position block with a reader, ascending.
    fanout_start: Vec<u32>,
    fanout: Vec<(u32, u64)>,
    /// Per topological position: the `fanout` range of the gate's output
    /// net, so the replay's sweep reaches it in one lookup.
    output_fanout: Vec<(u32, u32)>,
    /// Per net: whether it is a primary output.
    is_output: Vec<bool>,
    /// Primary-input net slots in declaration order.
    pi_slots: Vec<u32>,
}

/// Words of a dense bitset over `n` positions.
fn bitset_blocks(n: usize) -> usize {
    n.div_ceil(64)
}

/// Sets bit `i` of `bits`; `u32::MAX` stands for no bit.
fn set_bit(bits: &mut [u64], i: u32) {
    if i != u32::MAX {
        bits[i as usize / 64] |= 1u64 << (i % 64);
    }
}

fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Row `i` of a row-major bitset matrix with `width`-word rows.
fn row(matrix: &[u64], width: usize, i: usize) -> &[u64] {
    &matrix[i * width..(i + 1) * width]
}

/// ORs row `src` of a row-major bitset matrix with `width`-word rows into
/// row `dst`, which must lie below it.
fn union_row(matrix: &mut [u64], width: usize, dst: usize, src: usize) {
    // Split so the source row can be borrowed while the target is written.
    let (lo, hi) = matrix.split_at_mut(src * width);
    or_into(&mut lo[dst * width..(dst + 1) * width], &hi[..width]);
}

/// Appends the set bits of `bits`, ascending, to `out`.
fn push_positions(out: &mut Vec<u32>, bits: &[u64]) {
    for (bi, &word) in bits.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            out.push(bi as u32 * 64 + w.trailing_zeros());
            w &= w - 1;
        }
    }
}

// Thread-safety audit: the parallel fault simulator
// (`dynmos_protest::parallel`) shares `&Network` and `&PreparedFault`
// across scoped threads, each worker owning its own `PackedEvaluator`.
// That is sound because a finished network and its compiled form are
// immutable owned data with no interior mutability. These assertions turn
// an accidental `Rc`/`RefCell`/raw-pointer regression into a compile
// error instead of a data race.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Network>();
    assert_send_sync::<CompiledNetwork>();
    assert_send_sync::<PreparedFault<'static>>();
};

impl CompiledNetwork {
    /// Compiles the network parts. Called by the network builder; the
    /// fields mirror [`Network`]'s internals.
    pub(crate) fn build(
        cells: &[crate::cell::Cell],
        gates: &[GateInstance],
        net_count: usize,
        topo: &[GateRef],
        primary_inputs: &[NetId],
        primary_outputs: &[NetId],
    ) -> Self {
        let mut tape = Tape::default();
        let mut gate_slice = Vec::with_capacity(topo.len());
        let mut gate_output = Vec::with_capacity(topo.len());
        let mut gate_pos = vec![0u32; gates.len()];
        let mut max_scratch = 0u32;
        let scratch_base = net_count as u32;
        for (pos, &g) in topo.iter().enumerate() {
            gate_pos[g.index()] = pos as u32;
            let inst = &gates[g.index()];
            let function = cells[inst.cell].logic_function();
            let start = tape.len();
            let inputs = &inst.inputs;
            let high = lower_into(
                &mut tape,
                &function,
                &|v: VarId| inputs[v.index()].index() as u32,
                inst.output.index() as u32,
                scratch_base,
            );
            max_scratch = max_scratch.max(high - scratch_base);
            gate_slice.push((start, tape.len()));
            gate_output.push(inst.output.index() as u32);
        }

        // Readers of each net as ascending topological positions:
        // `readers[reader_start[n]..reader_start[n + 1]]`.
        let n_gates = topo.len();
        let mut reader_start = vec![0u32; net_count + 1];
        for inst in gates {
            for &input in &inst.inputs {
                reader_start[input.index() + 1] += 1;
            }
        }
        for n in 0..net_count {
            reader_start[n + 1] += reader_start[n];
        }
        let mut readers = vec![0u32; reader_start[net_count] as usize];
        let mut fill = reader_start.clone();
        for (pos, &g) in topo.iter().enumerate() {
            for &input in &gates[g.index()].inputs {
                readers[fill[input.index()] as usize] = pos as u32;
                fill[input.index()] += 1;
            }
        }
        let readers_of =
            |net: usize| &readers[reader_start[net] as usize..reader_start[net + 1] as usize];
        // Each net's first index in the output list; later repeats of a
        // net are not reported.
        let mut po_index = vec![u32::MAX; net_count];
        for (i, po) in primary_outputs.iter().enumerate().rev() {
            po_index[po.index()] = i as u32;
        }

        // Per topological position, two dense bitsets filled in reverse
        // topological order: the transitive fanout cone over positions,
        // cone(g) = {g} ∪ ⋃ cone(readers of g's output), and the primary
        // outputs it reaches, outs(g) = po(g's output) ∪ ⋃ outs(readers).
        let blocks = bitset_blocks(n_gates);
        let po_blocks = bitset_blocks(primary_outputs.len());
        let mut cone_bits = vec![0u64; n_gates * blocks];
        let mut out_bits = vec![0u64; n_gates * po_blocks];
        for pos in (0..n_gates).rev() {
            let out = gates[topo[pos].index()].output.index();
            for &r in readers_of(out) {
                union_row(&mut cone_bits, blocks, pos, r as usize);
                union_row(&mut out_bits, po_blocks, pos, r as usize);
            }
            cone_bits[pos * blocks + pos / 64] |= 1u64 << (pos % 64);
            set_bit(&mut out_bits[pos * po_blocks..], po_index[out]);
        }

        // One entry per net in each arena. A driven net's entry is its
        // driver's row, whose lowest position is the driver itself, since
        // readers sit above it, so the reader part starts one further on.
        // An undriven net's entry is the union of its readers' rows.
        let mut driver_pos = vec![u32::MAX; net_count];
        for (pos, &out) in gate_output.iter().enumerate() {
            driver_pos[out as usize] = pos as u32;
        }
        let mut cone_start = Vec::with_capacity(net_count + 1);
        let mut reader_cone_start = Vec::with_capacity(net_count);
        let mut cones: Vec<u32> = Vec::new();
        let mut output_start = Vec::with_capacity(net_count + 1);
        let mut outputs: Vec<u32> = Vec::new();
        let mut scratch_cone = vec![0u64; blocks];
        let mut scratch_out = vec![0u64; po_blocks];
        for net in 0..net_count {
            cone_start.push(cones.len() as u32);
            output_start.push(outputs.len() as u32);
            let (cone_row, out_row): (&[u64], &[u64]) = match driver_pos[net] {
                u32::MAX => {
                    scratch_cone.fill(0);
                    scratch_out.fill(0);
                    set_bit(&mut scratch_out, po_index[net]);
                    for &r in readers_of(net) {
                        or_into(&mut scratch_cone, row(&cone_bits, blocks, r as usize));
                        or_into(&mut scratch_out, row(&out_bits, po_blocks, r as usize));
                    }
                    (&scratch_cone, &scratch_out)
                }
                p => (
                    row(&cone_bits, blocks, p as usize),
                    row(&out_bits, po_blocks, p as usize),
                ),
            };
            let readers_from = cones.len() as u32 + u32::from(driver_pos[net] != u32::MAX);
            reader_cone_start.push(readers_from);
            push_positions(&mut cones, cone_row);
            push_positions(&mut outputs, out_row);
        }
        cone_start.push(cones.len() as u32);
        output_start.push(outputs.len() as u32);

        let mut fanout_start = Vec::with_capacity(net_count + 1);
        let mut fanout: Vec<(u32, u64)> = Vec::new();
        for net in 0..net_count {
            fanout_start.push(fanout.len() as u32);
            let first = fanout.len();
            for &r in readers_of(net) {
                let (block, bit) = (r / 64, 1u64 << (r % 64));
                match fanout[first..].last_mut() {
                    Some((b, bits)) if *b == block => *bits |= bit,
                    _ => fanout.push((block, bit)),
                }
            }
        }
        fanout_start.push(fanout.len() as u32);
        let output_fanout = gate_output
            .iter()
            .map(|&o| (fanout_start[o as usize], fanout_start[o as usize + 1]))
            .collect();
        let is_output = po_index.iter().map(|&i| i != u32::MAX).collect();

        Self {
            net_count: net_count as u32,
            slot_count: net_count as u32 + max_scratch,
            tape,
            gate_slice,
            gate_output,
            gate_pos,
            cone_start,
            reader_cone_start,
            cones,
            output_start,
            outputs,
            fanout_start,
            fanout,
            output_fanout,
            is_output,
            pi_slots: primary_inputs.iter().map(|n| n.index() as u32).collect(),
        }
    }

    /// Number of tape instructions (a size metric for benches and tests).
    pub fn instruction_count(&self) -> usize {
        self.tape.op.len()
    }

    /// Number of value slots an evaluator allocates per lane word.
    pub(crate) fn slot_count(&self) -> usize {
        self.slot_count as usize
    }

    /// The topological positions of gate `g`'s transitive fanout cone
    /// (including `g` itself).
    pub(crate) fn fanout_cone(&self, g: GateRef) -> &[u32] {
        let out = self.gate_output[self.gate_pos[g.index()] as usize] as usize;
        &self.cones[self.cone_start[out] as usize..self.cone_start[out + 1] as usize]
    }

    /// Primary-output indices reachable from gate `g`.
    pub(crate) fn reachable_outputs(&self, g: GateRef) -> &[u32] {
        self.net_outputs(self.gate_output[self.gate_pos[g.index()] as usize] as usize)
    }

    /// The reader cone of net `net`: the positions a replay may touch when
    /// the net is forced.
    fn reader_cone(&self, net: usize) -> &[u32] {
        &self.cones[self.reader_cone_start[net] as usize..self.cone_start[net + 1] as usize]
    }

    /// Primary-output indices disturbed when net `net` is forced.
    fn net_outputs(&self, net: usize) -> &[u32] {
        &self.outputs[self.output_start[net] as usize..self.output_start[net + 1] as usize]
    }

    /// The readers of net slot `slot` as `(block, bits)` bitset words,
    /// ascending by block.
    fn net_fanout(&self, slot: u32) -> &[(u32, u64)] {
        let s = slot as usize;
        &self.fanout[self.fanout_start[s] as usize..self.fanout_start[s + 1] as usize]
    }

    /// [`Self::net_fanout`] of the output of the gate at topological
    /// position `p`.
    fn output_fanout(&self, p: usize) -> &[(u32, u64)] {
        let (lo, up) = self.output_fanout[p];
        &self.fanout[lo as usize..up as usize]
    }

    /// Binds `fault` to its precomputed cone and, for gate-function
    /// faults, lowers the faulty function to a private tape. Prepare once
    /// per fault, evaluate per batch.
    ///
    /// # Panics
    ///
    /// Panics if a gate-function fault references a variable beyond its
    /// gate's input count (the same misuse the interpreter rejects).
    pub(crate) fn prepare<'n>(
        &'n self,
        net: &'n Network,
        fault: &NetworkFault,
    ) -> PreparedFault<'n> {
        match fault {
            NetworkFault::NetStuck(n, v) => PreparedFault {
                kind: PreparedKind::Stuck {
                    slot: n.index() as u32,
                    value: *v,
                },
                cone: self.reader_cone(n.index()),
                outputs: self.net_outputs(n.index()),
            },
            NetworkFault::GateFunction(g, f) => {
                let inst = &net.gates()[g.index()];
                let arity = inst.inputs.len();
                if let Some(max) = f.support().last() {
                    assert!(
                        max.index() < arity,
                        "faulty function references input {max} beyond arity {arity}"
                    );
                }
                let mut tape = Tape::default();
                let inputs = &inst.inputs;
                let high = lower_into(
                    &mut tape,
                    f,
                    &|v: VarId| inputs[v.index()].index() as u32,
                    inst.output.index() as u32,
                    self.net_count,
                );
                PreparedFault {
                    kind: PreparedKind::GateFn {
                        pos: self.gate_pos[g.index()],
                        tape,
                        slots_needed: high,
                    },
                    cone: self.fanout_cone(*g),
                    outputs: self.reachable_outputs(*g),
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
enum PreparedKind {
    /// Force a net slot to a constant and replay the readers it reaches.
    Stuck { slot: u32, value: bool },
    /// Replace the tape slice of the gate at topological position `pos`.
    GateFn {
        pos: u32,
        tape: Tape,
        /// Exclusive slot high-water mark of the private tape (may
        /// exceed the network's shared scratch region).
        slots_needed: u32,
    },
}

/// A fault bound to its fanout cone and (for gate-function faults) a
/// compiled faulty tape. Create with [`Network::prepare_fault`] once per
/// fault; reuse across batches.
#[derive(Debug, Clone)]
pub struct PreparedFault<'n> {
    kind: PreparedKind,
    cone: &'n [u32],
    outputs: &'n [u32],
}

impl PreparedFault<'_> {
    /// Number of gates in this fault's static cone: an upper bound on
    /// the gates a replay re-evaluates. A replay runs only the gates the
    /// fault effect reaches on the batch at hand, often far fewer.
    pub fn cone_size(&self) -> usize {
        self.cone.len()
    }

    /// Primary-output indices this fault can disturb. An empty slice
    /// proves the fault undetectable.
    pub fn observable_outputs(&self) -> &[u32] {
        self.outputs
    }

    /// The topological positions (ascending indices into
    /// [`Network::topo_order`]) of the gates in this fault's static cone —
    /// the same cone a symbolic engine must rebuild with the fault
    /// injected.
    pub fn cone_positions(&self) -> &[u32] {
        self.cone
    }
}

/// A reusable packed evaluator over a compiled network.
///
/// Holds the good-machine and faulty-machine value buffers so the
/// per-call allocations of the interpretive path disappear. One
/// evaluator serves one batch shape (`width × 64` patterns); callers
/// evaluate the good machine once per batch and then diff any number of
/// prepared faults against it incrementally.
///
/// # Example
///
/// ```
/// use dynmos_netlist::generate::c17_dynamic_nmos;
/// use dynmos_netlist::{PackedEvaluator, NetworkFault};
///
/// let net = c17_dynamic_nmos();
/// let fault = NetworkFault::NetStuck(net.primary_inputs()[0], true);
/// let prepared = net.prepare_fault(&fault);
/// let mut ev = PackedEvaluator::new(&net);
/// ev.eval(&[1, 2, 3, 4, 5]);
/// // Lanes where any primary output differs from the good machine:
/// let differ = ev.fault_diff64(&prepared);
/// assert_eq!(
///     differ,
///     {
///         let good = net.eval_packed(&[1, 2, 3, 4, 5]);
///         let bad = net.eval_packed_faulty(&[1, 2, 3, 4, 5], Some(&fault));
///         good.iter().zip(&bad).fold(0, |acc, (g, b)| acc | (g ^ b))
///     }
/// );
/// ```
#[derive(Debug)]
pub struct PackedEvaluator<'n> {
    net: &'n Network,
    width: usize,
    /// Good-machine slot values, slot-major (`slot * width + w`).
    good: Vec<u64>,
    /// Faulty-machine buffer; net slots mirror `good` between faults.
    faulty: Vec<u64>,
    /// Whether `faulty`'s net slots currently mirror `good`.
    synced: bool,
    /// Gate positions awaiting replay, one bit each; all zero between
    /// replays.
    pending: Vec<u64>,
    /// Net slots where `faulty` differs from `good` after a replay.
    touched: Vec<u32>,
}

impl<'n> PackedEvaluator<'n> {
    /// An evaluator with one word per slot (64 patterns per pass).
    pub fn new(net: &'n Network) -> Self {
        Self::with_width(net, 1)
    }

    /// An evaluator with `width` words per slot (`width × 64` patterns
    /// per pass).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn with_width(net: &'n Network, width: usize) -> Self {
        assert!(width > 0, "need at least one lane word");
        let slots = net.compiled().slot_count() * width;
        Self {
            net,
            width,
            good: vec![0; slots],
            faulty: vec![0; slots],
            synced: false,
            pending: vec![0; bitset_blocks(net.compiled().gate_slice.len())],
            touched: Vec::new(),
        }
    }

    /// Evaluates the good machine on one batch. `pi_words` is
    /// input-major: `width` consecutive words per primary input, in
    /// declaration order. Returns the net values (`net_count × width`
    /// words, slot-major).
    ///
    /// # Panics
    ///
    /// Panics if `pi_words.len() != primary_inputs × width`.
    pub fn eval(&mut self, pi_words: &[u64]) -> &[u64] {
        let c = self.net.compiled();
        assert_eq!(
            pi_words.len(),
            c.pi_slots.len() * self.width,
            "need {} packed words per primary input",
            self.width
        );
        for (i, &slot) in c.pi_slots.iter().enumerate() {
            let d = slot as usize * self.width;
            self.good[d..d + self.width]
                .copy_from_slice(&pi_words[i * self.width..(i + 1) * self.width]);
        }
        self.synced = false;
        c.tape
            .execute(0..c.tape.op.len(), &mut self.good, self.width);
        &self.good[..c.net_count as usize * self.width]
    }

    /// The net values of the last [`Self::eval`] call.
    pub fn net_values(&self) -> &[u64] {
        &self.good[..self.net.compiled().net_count as usize * self.width]
    }

    fn sync_faulty(&mut self) {
        if !self.synced {
            let nets = self.net.compiled().net_count as usize * self.width;
            self.faulty[..nets].copy_from_slice(&self.good[..nets]);
            self.touched.clear();
            self.synced = true;
        }
    }

    /// If net `slot` of the faulty machine differs from the good machine
    /// on some lane word, lists it as touched and marks its readers
    /// pending, those in bitset block `block` in `word` instead. Returns
    /// the block just past the last reader marked, or 0 when none was.
    fn spread(&mut self, fanout: &[(u32, u64)], slot: u32, block: usize, word: &mut u64) -> usize {
        let (w, d) = (self.width, slot as usize * self.width);
        let same = if w == 1 {
            self.faulty[d] == self.good[d]
        } else {
            self.faulty[d..d + w] == self.good[d..d + w]
        };
        if same {
            return 0;
        }
        self.touched.push(slot);
        for &(b, bits) in fanout {
            if b as usize == block {
                *word |= bits;
            } else {
                self.pending[b as usize] |= bits;
            }
        }
        fanout.last().map_or(0, |&(b, _)| b as usize + 1)
    }

    /// Injects `fault` and replays, in ascending topological order, only
    /// the gates with an input that differs from the good machine. On
    /// return `touched` lists every net slot that differs.
    fn inject_and_replay(&mut self, fault: &PreparedFault<'_>) {
        let net: &'n Network = self.net;
        let c = net.compiled();
        let width = self.width;
        self.sync_faulty();
        let site = match &fault.kind {
            PreparedKind::Stuck { slot, value } => {
                let d = *slot as usize * width;
                self.faulty[d..d + width].fill(if *value { !0 } else { 0 });
                *slot
            }
            PreparedKind::GateFn {
                pos,
                tape,
                slots_needed,
            } => {
                let need = *slots_needed as usize * width;
                if self.faulty.len() < need {
                    self.faulty.resize(need, 0);
                }
                tape.execute(0..tape.op.len(), &mut self.faulty, width);
                c.gate_output[*pos as usize]
            }
        };
        // A forced value equal to the good one leaves nothing to restore.
        // No block is being swept yet, so every mark lands in `pending`.
        let fanout = c.net_fanout(site);
        let mut hi = self.spread(fanout, site, usize::MAX, &mut 0);
        let mut block = fanout.first().map_or(0, |&(b, _)| b as usize);
        while block < hi {
            // The block being swept lives in a register: marks into it land
            // there, so the next pop does not wait on a store.
            let mut word = std::mem::take(&mut self.pending[block]);
            while word != 0 {
                let p = block * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let (start, end) = c.gate_slice[p];
                c.tape
                    .execute(start as usize..end as usize, &mut self.faulty, width);
                let out = c.gate_output[p];
                hi = hi.max(self.spread(c.output_fanout(p), out, block, &mut word));
            }
            block += 1;
        }
    }

    /// Copies the touched slots back from the good machine, first handing
    /// `observe(w, good ^ faulty)` for each lane word `w` of every touched
    /// primary output.
    fn restore(&mut self, mut observe: impl FnMut(usize, u64)) {
        let c = self.net.compiled();
        let width = self.width;
        for &slot in &self.touched {
            let d = slot as usize * width;
            if c.is_output[slot as usize] {
                for w in 0..width {
                    observe(w, self.good[d + w] ^ self.faulty[d + w]);
                }
            }
            self.faulty[d..d + width].copy_from_slice(&self.good[d..d + width]);
        }
        self.touched.clear();
    }

    /// Replays `fault` against the last evaluated batch and returns, for
    /// each lane word, the OR over all primary outputs of
    /// `good XOR faulty` — bit `k` set means pattern `k` detects the
    /// fault. `out.len()` must equal `Self::width`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.width()`.
    pub fn fault_diff(&mut self, fault: &PreparedFault<'_>, out: &mut [u64]) {
        assert_eq!(out.len(), self.width, "need one output word per lane word");
        self.inject_and_replay(fault);
        out.fill(0);
        self.restore(|w, x| out[w] |= x);
    }

    /// [`Self::fault_diff`] for the common `width == 1` evaluator.
    ///
    /// # Panics
    ///
    /// Panics if the evaluator was built with `width != 1`.
    pub fn fault_diff64(&mut self, fault: &PreparedFault<'_>) -> u64 {
        assert_eq!(self.width, 1, "fault_diff64 requires a width-1 evaluator");
        self.inject_and_replay(fault);
        let mut differ = 0u64;
        self.restore(|_, x| differ |= x);
        differ
    }

    /// Evaluates the faulty machine for *all* nets: replays `fault` and
    /// returns the full net-value slice (nets the effect reaches faulty,
    /// the rest equal to the good machine — which is exactly what they
    /// are). The buffer is left dirty and re-synced on the next use.
    pub fn eval_faulty_all(&mut self, fault: &PreparedFault<'_>) -> &[u64] {
        self.inject_and_replay(fault);
        self.synced = false;
        &self.faulty[..self.net.compiled().net_count as usize * self.width]
    }
}

#[cfg(test)]
mod cone_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{
        array_multiplier, c17_dynamic_nmos, domino_wide_and, fig9_cell, random_domino_network,
        single_cell_network,
    };
    use crate::network::NetworkFault;
    use dynmos_logic::Bexpr;

    /// All faults of a network in the fault-list shape the tests need.
    fn all_faults(net: &Network) -> Vec<NetworkFault> {
        let mut faults = Vec::new();
        for &pi in net.primary_inputs() {
            faults.push(NetworkFault::NetStuck(pi, false));
            faults.push(NetworkFault::NetStuck(pi, true));
        }
        for g in net.gates() {
            faults.push(NetworkFault::NetStuck(g.output, false));
            faults.push(NetworkFault::NetStuck(g.output, true));
        }
        for (gi, _) in net.gates().iter().enumerate() {
            let g = GateRef(gi as u32);
            faults.push(NetworkFault::GateFunction(g, Bexpr::FALSE));
            faults.push(NetworkFault::GateFunction(g, Bexpr::TRUE));
            faults.push(NetworkFault::GateFunction(
                g,
                Bexpr::var(dynmos_logic::VarId(0)),
            ));
        }
        faults
    }

    fn batch_for(seed: u64, n: usize) -> Vec<u64> {
        (0..n)
            .map(|i| {
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            })
            .collect()
    }

    /// The lane shapes the event-driven replay must handle: dense hash
    /// words; sparse words (the AND of four hash words, as under low
    /// input weights, where fault effects die early); and the constant
    /// all-zero and all-ones batches, where a forced value often equals
    /// the good one on every lane.
    fn lane_shapes(seed: u64, n: usize) -> [Vec<u64>; 4] {
        let mut sparse = vec![!0u64; n];
        for k in 0..4 {
            let words = batch_for(seed.wrapping_mul(4).wrapping_add(k + 1000), n);
            for (s, w) in sparse.iter_mut().zip(words) {
                *s &= w;
            }
        }
        [batch_for(seed, n), sparse, vec![0; n], vec![!0; n]]
    }

    /// The interpreter's OR over all primary outputs of `good ^ faulty`.
    fn reference_diff(net: &Network, batch: &[u64], fault: &NetworkFault) -> u64 {
        let good = net.eval_packed_all_reference(batch, None);
        let bad = net.eval_packed_all_reference(batch, Some(fault));
        net.primary_outputs()
            .iter()
            .fold(0, |acc, po| acc | (good[po.index()] ^ bad[po.index()]))
    }

    #[test]
    fn compiled_good_eval_matches_reference() {
        for seed in 0..50 {
            let net = random_domino_network(seed, 4, 6);
            let n = net.primary_inputs().len();
            for batch in lane_shapes(seed, n) {
                let reference = net.eval_packed_all_reference(&batch, None);
                let mut ev = PackedEvaluator::new(&net);
                let compiled = ev.eval(&batch);
                assert_eq!(compiled, &reference[..], "seed {seed}");
            }
        }
    }

    #[test]
    fn compiled_faulty_eval_matches_reference_all_nets() {
        for seed in 0..30 {
            let net = random_domino_network(seed, 4, 6);
            let n = net.primary_inputs().len();
            for batch in lane_shapes(seed, n) {
                let mut ev = PackedEvaluator::new(&net);
                ev.eval(&batch);
                for fault in all_faults(&net) {
                    let reference = net.eval_packed_all_reference(&batch, Some(&fault));
                    let prepared = net.prepare_fault(&fault);
                    let faulty = ev.eval_faulty_all(&prepared).to_vec();
                    // Nets the effect reaches must match exactly; the rest
                    // equal the good machine in both paths.
                    assert_eq!(faulty, reference, "seed {seed} fault {fault:?}");
                    // Buffer must resync for the next fault.
                    ev.eval(&batch);
                }
            }
        }
    }

    #[test]
    fn fault_diff_matches_full_po_comparison() {
        for seed in 0..30 {
            let net = random_domino_network(seed, 4, 6);
            let n = net.primary_inputs().len();
            for batch in lane_shapes(seed.wrapping_add(77), n) {
                let mut ev = PackedEvaluator::new(&net);
                ev.eval(&batch);
                for fault in all_faults(&net) {
                    let expect = reference_diff(&net, &batch, &fault);
                    let prepared = net.prepare_fault(&fault);
                    let got = ev.fault_diff64(&prepared);
                    assert_eq!(got, expect, "seed {seed} fault {fault:?}");
                }
            }
        }
    }

    #[test]
    fn repeated_diffs_are_stable() {
        // The restore path must leave the faulty buffer equal to the good
        // machine: a touched slot left faulty leaks into the next replay.
        // Interleave the three entry points so each follows each other.
        for seed in 0..10 {
            let net = random_domino_network(seed, 4, 6);
            let n = net.primary_inputs().len();
            let faults = all_faults(&net);
            let prepared: Vec<_> = faults.iter().map(|f| net.prepare_fault(f)).collect();
            for batch in lane_shapes(seed, n) {
                let good = net.eval_packed_all_reference(&batch, None);
                let faulty: Vec<_> = faults
                    .iter()
                    .map(|f| net.eval_packed_all_reference(&batch, Some(f)))
                    .collect();
                let diffs: Vec<u64> = faults
                    .iter()
                    .map(|f| reference_diff(&net, &batch, f))
                    .collect();
                let mut ev = PackedEvaluator::new(&net);
                ev.eval(&batch);
                for round in 0..4 {
                    for (i, p) in prepared.iter().enumerate() {
                        let ctx = format!("seed {seed} round {round} fault {:?}", faults[i]);
                        match (i + round) % 4 {
                            0 | 1 => assert_eq!(ev.fault_diff64(p), diffs[i], "{ctx}"),
                            2 => assert_eq!(ev.eval_faulty_all(p), &faulty[i][..], "{ctx}"),
                            _ => {
                                assert_eq!(ev.eval(&batch), &good[..], "{ctx}");
                                assert_eq!(ev.fault_diff64(p), diffs[i], "{ctx}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn wide_lanes_match_repeated_narrow_batches() {
        // Each lane word of the wide batch has its own density, rotated
        // per seed, so a differs check that reads only one word of a slot
        // misses effects that live in the others.
        let width = 4;
        for seed in 0..20 {
            let net = random_domino_network(seed, 4, 6);
            let n = net.primary_inputs().len();
            let mut narrow = lane_shapes(seed, n);
            narrow.rotate_left(seed as usize % width);
            let mut wide = vec![0u64; n * width];
            for (w, b) in narrow.iter().enumerate() {
                for i in 0..n {
                    wide[i * width + w] = b[i];
                }
            }
            let mut ev = PackedEvaluator::with_width(&net, width);
            ev.eval(&wide);
            let mut ev1 = PackedEvaluator::new(&net);
            let mut diff = vec![0u64; width];
            for fault in all_faults(&net) {
                let prepared = net.prepare_fault(&fault);
                ev.fault_diff(&prepared, &mut diff);
                for (w, b) in narrow.iter().enumerate() {
                    ev1.eval(b);
                    let ctx = format!("seed {seed} fault {fault:?} word {w}");
                    assert_eq!(diff[w], ev1.fault_diff64(&prepared), "{ctx}");
                    assert_eq!(diff[w], reference_diff(&net, b, &fault), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn cone_of_output_gate_is_itself() {
        let net = single_cell_network(fig9_cell());
        let c = net.compiled();
        assert_eq!(c.fanout_cone(GateRef(0)), &[0]);
        assert_eq!(c.reachable_outputs(GateRef(0)), &[0]);
    }

    #[test]
    fn cones_shrink_toward_outputs() {
        // In the c17 remake, a first-level gate's cone strictly contains
        // a last-level gate's cone.
        let net = c17_dynamic_nmos();
        let c = net.compiled();
        let first = net.topo_order()[0];
        let last = *net.topo_order().last().unwrap();
        assert!(c.fanout_cone(first).len() > 1);
        assert_eq!(c.fanout_cone(last).len(), 1);
    }

    #[test]
    fn each_cone_is_stored_once_per_net() {
        // A driver's fanout cone past itself and the cone of its forced
        // output net are one slice of the arena, as are their output
        // sets: a layout that copies cones per gate fails here.
        let nets = [
            c17_dynamic_nmos(),
            array_multiplier(6),
            random_domino_network(3, 4, 12),
        ];
        for net in &nets {
            let c = net.compiled();
            for (gi, inst) in net.gates().iter().enumerate() {
                let g = GateRef(gi as u32);
                let stuck = net.prepare_fault(&NetworkFault::NetStuck(inst.output, false));
                let cone = c.fanout_cone(g);
                assert_eq!(cone[0], c.gate_pos[gi], "gate {gi}");
                assert!(
                    std::ptr::eq(&cone[1..], stuck.cone_positions()),
                    "gate {gi}"
                );
                let outputs = stuck.observable_outputs();
                assert!(std::ptr::eq(c.reachable_outputs(g), outputs), "gate {gi}");
            }
        }
    }

    #[test]
    fn undetectable_site_has_no_observable_outputs() {
        // A gate feeding only primary outputs through itself: every fault
        // site in a single-cell network observes output 0.
        let net = single_cell_network(domino_wide_and(4));
        for fault in all_faults(&net) {
            let p = net.prepare_fault(&fault);
            assert!(!p.observable_outputs().is_empty(), "{fault:?}");
        }
    }

    #[test]
    fn instruction_count_scales_with_literals() {
        let net = single_cell_network(domino_wide_and(8));
        // A wide AND lowers to a chain of binary ANDs: 7 instructions.
        assert_eq!(net.compiled().instruction_count(), 7);
    }

    #[test]
    #[should_panic(expected = "beyond arity")]
    fn preparing_out_of_arity_gate_fault_panics() {
        let net = single_cell_network(domino_wide_and(2));
        let fault = NetworkFault::GateFunction(GateRef(0), Bexpr::var(dynmos_logic::VarId(7)));
        net.prepare_fault(&fault);
    }
}
