//! Seeded circuit corpus.
//!
//! The paper evaluates on circuits of its era without naming them; the
//! statistical experiments (PROTEST test lengths, fault coverage curves,
//! A1/A2 charge coverage) need a reproducible corpus. Everything here is
//! deterministic in its parameters and seed.

use crate::cell::Cell;
use crate::network::{NetId, Network, NetworkBuilder, Phase};
use crate::parse::parse_cell;
use crate::tech::Technology;
use dynmos_logic::Bexpr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds the domino AND2 cell.
pub(crate) fn domino_and2() -> Cell {
    parse_cell(
        "and2",
        "TECHNOLOGY domino-CMOS; INPUT a,b; OUTPUT z; z := a*b;",
    )
    .expect("static cell text is valid")
}

/// Builds the domino OR2 cell.
pub(crate) fn domino_or2() -> Cell {
    parse_cell(
        "or2",
        "TECHNOLOGY domino-CMOS; INPUT a,b; OUTPUT z; z := a+b;",
    )
    .expect("static cell text is valid")
}

/// Builds the domino 3-input majority cell `maj = a*b + a*c + b*c` — the
/// carry function of a full adder (monotone, hence domino-friendly).
pub(crate) fn domino_maj3() -> Cell {
    parse_cell(
        "maj3",
        "TECHNOLOGY domino-CMOS; INPUT a,b,c; OUTPUT z; z := a*b+a*c+b*c;",
    )
    .expect("static cell text is valid")
}

/// Builds a domino wide-AND cell over `n` inputs — the PROTEST showcase:
/// under uniform random patterns its output stuck-at-0 fault has detection
/// probability `2^-n`.
///
/// # Panics
///
/// Panics if `n == 0` or `n > 16`.
pub fn domino_wide_and(n: usize) -> Cell {
    assert!((1..=16).contains(&n), "wide AND supports 1..=16 inputs");
    let names: Vec<String> = (0..n).map(|i| format!("i{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let expr = Bexpr::and(
        (0..n)
            .map(|i| Bexpr::var(dynmos_logic::VarId(i as u32)))
            .collect(),
    );
    Cell::from_transmission("wide_and", Technology::DominoCmos, &refs, expr)
}

/// Builds the dynamic nMOS NAND2 cell (`z = /(a*b)`).
pub(crate) fn dynamic_nand2() -> Cell {
    parse_cell(
        "nand2",
        "TECHNOLOGY dynamic-nMOS; INPUT a,b; OUTPUT z; z := a*b;",
    )
    .expect("static cell text is valid")
}

/// Builds the bipolar XOR2 cell (direct function, stuck-at fault model).
pub(crate) fn bipolar_xor2() -> Cell {
    parse_cell(
        "xor2",
        "TECHNOLOGY bipolar; INPUT a,b; OUTPUT z; z := a*/b+/a*b;",
    )
    .expect("static cell text is valid")
}

/// An alternating AND/OR tree of domino cells with `2^levels` distinct
/// primary inputs; level 1 is AND.
///
/// # Panics
///
/// Panics if `levels == 0` or the tree would need more than 2^16 inputs.
pub fn and_or_tree(levels: usize) -> Network {
    assert!((1..=16).contains(&levels), "levels must be in 1..=16");
    let mut b = NetworkBuilder::new();
    let and_c = b.add_cell(domino_and2());
    let or_c = b.add_cell(domino_or2());
    let n_leaves = 1usize << levels;
    let mut frontier: Vec<_> = (0..n_leaves).map(|i| b.input(&format!("x{i}"))).collect();
    let mut level = 1;
    while frontier.len() > 1 {
        let cell = if level % 2 == 1 { and_c } else { or_c };
        let mut next = Vec::with_capacity(frontier.len() / 2);
        for (k, pair) in frontier.chunks(2).enumerate() {
            let name = format!("t{level}_{k}");
            let (_, out) = b.gate(cell, &[pair[0], pair[1]], &name, Phase::Phi1);
            next.push(out);
        }
        frontier = next;
        level += 1;
    }
    b.mark_output(frontier[0]);
    b.finish().expect("tree construction is well-formed")
}

/// A domino ripple carry chain: `c[i+1] = maj(a[i], b[i], c[i])` with
/// `c[0]` a primary input; all carries are primary outputs.
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn carry_chain(bits: usize) -> Network {
    assert!(bits >= 1, "need at least one bit");
    let mut b = NetworkBuilder::new();
    let maj = b.add_cell(domino_maj3());
    let mut carry = b.input("c0");
    for i in 0..bits {
        let a = b.input(&format!("a{i}"));
        let bb = b.input(&format!("b{i}"));
        let (_, c_next) = b.gate(maj, &[a, bb, carry], &format!("c{}", i + 1), Phase::Phi1);
        b.mark_output(c_next);
        carry = c_next;
    }
    b.finish().expect("carry chain is well-formed")
}

/// A monotone domino magnitude comparator: output `gt = 1` iff `A > B`,
/// taking dual-rail `B` (primary inputs `a0..`, `nb0..` where `nbI` is the
/// externally supplied complement of `bI` — domino logic is inversion-free,
/// so complemented operands enter as separate rails).
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn comparator(bits: usize) -> Network {
    assert!(bits >= 1, "need at least one bit");
    let mut b = NetworkBuilder::new();
    let and_c = b.add_cell(domino_and2());
    let or_c = b.add_cell(domino_or2());
    let a: Vec<_> = (0..bits).map(|i| b.input(&format!("a{i}"))).collect();
    let nb: Vec<_> = (0..bits).map(|i| b.input(&format!("nb{i}"))).collect();
    // gt_i (A > B considering bits i..): gt = (a_i & nb_i) | (eq_i & gt_{i-1})
    // Monotone form without eq: unrolled prefix — gt = OR over i of
    // (a_i & nb_i & AND_{j>i}( (a_j&nb_j) | ... )) is messy; use the
    // textbook iterative form with eq_i = (a_i&nb_i)|(na_i&b_i)… which
    // needs more rails. Keep it monotone and simple:
    // gt_{i+1} = (a_i * nb_i) + gt_i * (a_i + nb_i)
    // — correct for dual-rail inputs: if a_i=1,b_i=0 win; if bits equal
    // (a_i+nb_i covers 11 and 00? a=1,b=1: nb=0, a+nb=1; a=0,b=0: nb=1 ->1;
    // a=0,b=1: nb=0, a+nb=0 kills gt. Exactly "not (a<b at this bit)".
    let mut gt = b.input("gt_in"); // seed (tie-breaker below LSB), usually 0
    for i in 0..bits {
        let (_, win) = b.gate(and_c, &[a[i], nb[i]], &format!("win{i}"), Phase::Phi1);
        let (_, keep) = b.gate(or_c, &[a[i], nb[i]], &format!("keep{i}"), Phase::Phi1);
        let (_, carry) = b.gate(and_c, &[gt, keep], &format!("carry{i}"), Phase::Phi1);
        let (_, gt_next) = b.gate(or_c, &[win, carry], &format!("gt{}", i + 1), Phase::Phi1);
        gt = gt_next;
    }
    b.mark_output(gt);
    b.finish().expect("comparator is well-formed")
}

/// The ISCAS-85 c17 topology in dynamic nMOS NAND2 cells, with a bipartite
/// two-phase assignment (the network is 2-colorable, so Fig. 7's
/// discipline holds — verified by `check_clocking` in tests).
pub fn c17_dynamic_nmos() -> Network {
    let mut b = NetworkBuilder::new();
    let nand = b.add_cell(dynamic_nand2());
    let i1 = b.input("i1");
    let i2 = b.input("i2");
    let i3 = b.input("i3");
    let i4 = b.input("i4");
    let i5 = b.input("i5");
    // Phases from 2-coloring of the gate-arc graph:
    // edges {1,5},{2,3},{2,4},{3,5},{3,6},{4,6} =>
    // n2=Φ1, n3=Φ2, n4=Φ2, n5=Φ1, n1=Φ2, n6=Φ1.
    let (_, n1) = b.gate(nand, &[i1, i3], "n1", Phase::Phi2);
    let (_, n2) = b.gate(nand, &[i3, i4], "n2", Phase::Phi1);
    let (_, n3) = b.gate(nand, &[i2, n2], "n3", Phase::Phi2);
    let (_, n4) = b.gate(nand, &[n2, i5], "n4", Phase::Phi2);
    let (_, n5) = b.gate(nand, &[n1, n3], "n5", Phase::Phi1);
    let (_, n6) = b.gate(nand, &[n3, n4], "n6", Phase::Phi1);
    b.mark_output(n5);
    b.mark_output(n6);
    b.finish().expect("c17 is well-formed")
}

/// A balanced XOR (parity) tree of bipolar cells over `2^levels` inputs.
///
/// # Panics
///
/// Panics if `levels` is 0 or greater than 16.
pub fn parity_tree(levels: usize) -> Network {
    assert!((1..=16).contains(&levels), "levels must be in 1..=16");
    let mut b = NetworkBuilder::new();
    let xor_c = b.add_cell(bipolar_xor2());
    let n_leaves = 1usize << levels;
    let mut frontier: Vec<_> = (0..n_leaves).map(|i| b.input(&format!("x{i}"))).collect();
    let mut level = 1;
    while frontier.len() > 1 {
        let mut next = Vec::with_capacity(frontier.len() / 2);
        for (k, pair) in frontier.chunks(2).enumerate() {
            let (_, out) = b.gate(
                xor_c,
                &[pair[0], pair[1]],
                &format!("p{level}_{k}"),
                Phase::Phi1,
            );
            next.push(out);
        }
        frontier = next;
        level += 1;
    }
    b.mark_output(frontier[0]);
    b.finish().expect("parity tree is well-formed")
}

/// A single-gate network wrapping one cell (its inputs become primary
/// inputs) — the unit under test for cell-level experiments.
pub fn single_cell_network(cell: Cell) -> Network {
    let mut b = NetworkBuilder::new();
    let ins: Vec<_> = (0..cell.input_count())
        .map(|i| b.input(&format!("pi{i}")))
        .collect();
    let c = b.add_cell(cell);
    let (_, z) = b.gate(c, &ins, "z", Phase::Phi1);
    b.mark_output(z);
    b.finish().expect("single-cell network is well-formed")
}

/// A random positive series-parallel expression over `nvars` variables
/// with exactly `literals` literal occurrences.
///
/// Every variable index used is `< nvars`; the expression alternates
/// And/Or shapes driven by `rng`.
///
/// # Panics
///
/// Panics if `literals == 0` or `nvars == 0`.
pub fn random_sp_expr(rng: &mut StdRng, nvars: usize, literals: usize) -> Bexpr {
    assert!(literals >= 1 && nvars >= 1);
    if literals == 1 {
        return Bexpr::var(dynmos_logic::VarId(rng.gen_range(0..nvars) as u32));
    }
    let left = rng.gen_range(1..literals);
    let right = literals - left;
    let a = random_sp_expr(rng, nvars, left);
    let b = random_sp_expr(rng, nvars, right);
    if rng.gen_bool(0.5) {
        Bexpr::and(vec![a, b])
    } else {
        Bexpr::or(vec![a, b])
    }
}

/// A seeded random domino cell with `nvars` inputs and `literals` switch
/// transistors — the unit of the fault-class and library benchmarks.
pub fn random_domino_cell(seed: u64, nvars: usize, literals: usize) -> Cell {
    let mut rng = StdRng::seed_from_u64(seed);
    let expr = random_sp_expr(&mut rng, nvars, literals);
    let names: Vec<String> = (0..nvars).map(|i| format!("i{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    Cell::from_transmission(
        &format!("rand{seed}_{nvars}x{literals}"),
        Technology::DominoCmos,
        &refs,
        expr,
    )
}

/// A seeded random multi-level domino network: `n_pis` inputs, `n_gates`
/// random 2-4 input cells wired to random earlier nets; the last gate and
/// any undriven-by-consumers nets become primary outputs.
pub fn random_domino_network(seed: u64, n_pis: usize, n_gates: usize) -> Network {
    assert!(n_pis >= 2 && n_gates >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetworkBuilder::new();
    let mut nets: Vec<_> = (0..n_pis).map(|i| b.input(&format!("x{i}"))).collect();
    let mut consumed = vec![false; nets.len()];
    for g in 0..n_gates {
        let arity = rng.gen_range(2..=3.min(nets.len()));
        let lits = rng.gen_range(arity..=arity + 2);
        let cell = {
            let expr = random_sp_expr(&mut rng, arity, lits);
            let names: Vec<String> = (0..arity).map(|i| format!("i{i}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            Cell::from_transmission(&format!("rc{g}"), Technology::DominoCmos, &refs, expr)
        };
        let c = b.add_cell(cell);
        // Choose distinct input nets.
        let mut chosen = Vec::with_capacity(arity);
        while chosen.len() < arity {
            let pick = rng.gen_range(0..nets.len());
            if !chosen.contains(&pick) {
                chosen.push(pick);
            }
        }
        let input_nets: Vec<_> = chosen.iter().map(|&i| nets[i]).collect();
        for &i in &chosen {
            consumed[i] = true;
        }
        let (_, out) = b.gate(c, &input_nets, &format!("g{g}"), Phase::Phi1);
        nets.push(out);
        consumed.push(false);
    }
    // Outputs: all nets no one consumed (at least the last gate's output).
    for (i, &net) in nets.iter().enumerate() {
        if !consumed[i] && i >= n_pis {
            b.mark_output(net);
        }
    }
    b.finish().expect("random network is well-formed")
}

/// Assigns two-phase clocks to a gate list by bipartite coloring of the
/// gate-to-gate arcs; returns `None` if the underlying graph has an odd
/// cycle (no legal two-phase assignment exists).
pub fn bipartite_phases(net: &Network) -> Option<Vec<Phase>> {
    let n = net.gates().len();
    let mut color: Vec<Option<Phase>> = vec![None; n];
    // Undirected adjacency over gate-to-gate arcs.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (gi, inst) in net.gates().iter().enumerate() {
        for &input in &inst.inputs {
            if let Some(d) = net.driver(input) {
                adj[gi].push(d.index());
                adj[d.index()].push(gi);
            }
        }
    }
    for start in 0..n {
        if color[start].is_some() {
            continue;
        }
        color[start] = Some(Phase::Phi1);
        let mut queue = vec![start];
        while let Some(g) = queue.pop() {
            let c = color[g].expect("colored before push");
            for &nb in &adj[g] {
                match color[nb] {
                    None => {
                        color[nb] = Some(c.other());
                        queue.push(nb);
                    }
                    Some(existing) if existing == c => return None,
                    Some(_) => {}
                }
            }
        }
    }
    Some(color.into_iter().map(|c| c.expect("all colored")).collect())
}

/// Builds the bipolar AND2 cell (direct function, stuck-at model).
pub(crate) fn bipolar_and2() -> Cell {
    parse_cell("and2", "TECHNOLOGY bipolar; INPUT a,b; OUTPUT z; z := a*b;")
        .expect("static cell text is valid")
}

/// Builds the bipolar OR2 cell (direct function, stuck-at model).
pub(crate) fn bipolar_or2() -> Cell {
    parse_cell("or2", "TECHNOLOGY bipolar; INPUT a,b; OUTPUT z; z := a+b;")
        .expect("static cell text is valid")
}

/// A ripple-carry adder over two `bits`-wide operands plus a carry-in,
/// in bipolar XOR/AND/OR cells — 5 gates per bit, so `bits = 80` is an
/// ISCAS-85-class (c880-scale) network of 400 gates whose per-fault
/// fanout cones are small relative to the network.
///
/// Primary inputs in declaration order: `cin`, then `a0, b0, a1, b1, …`;
/// primary outputs: `s0 … s{bits-1}`, then `cout`.
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn ripple_adder(bits: usize) -> Network {
    assert!(bits >= 1, "need at least one bit");
    let mut b = NetworkBuilder::new();
    let xor_c = b.add_cell(bipolar_xor2());
    let and_c = b.add_cell(bipolar_and2());
    let or_c = b.add_cell(bipolar_or2());
    let mut carry = b.input("cin");
    let mut sums = Vec::with_capacity(bits);
    for i in 0..bits {
        let a = b.input(&format!("a{i}"));
        let bb = b.input(&format!("b{i}"));
        let (_, axb) = b.gate(xor_c, &[a, bb], &format!("axb{i}"), Phase::Phi1);
        let (_, sum) = b.gate(xor_c, &[axb, carry], &format!("s{i}"), Phase::Phi1);
        let (_, gen) = b.gate(and_c, &[a, bb], &format!("gen{i}"), Phase::Phi1);
        let (_, prop) = b.gate(and_c, &[axb, carry], &format!("prop{i}"), Phase::Phi1);
        let (_, cout) = b.gate(or_c, &[gen, prop], &format!("c{}", i + 1), Phase::Phi1);
        sums.push(sum);
        carry = cout;
    }
    for s in sums {
        b.mark_output(s);
    }
    b.mark_output(carry);
    b.finish().expect("ripple adder is well-formed")
}

/// The [`ripple_adder`] netlist as ISCAS `.bench` text — a generated
/// fixture for [`crate::bench_format::parse_bench`] at arbitrary scale.
pub fn ripple_adder_bench_text(bits: usize) -> String {
    assert!(bits >= 1, "need at least one bit");
    let mut out = String::new();
    out.push_str(&format!("# {bits}-bit ripple-carry adder\n"));
    out.push_str("INPUT(cin)\n");
    for i in 0..bits {
        out.push_str(&format!("INPUT(a{i})\nINPUT(b{i})\n"));
    }
    for i in 0..bits {
        out.push_str(&format!("OUTPUT(s{i})\n"));
    }
    out.push_str(&format!("OUTPUT(c{bits})\n"));
    let mut carry = "cin".to_owned();
    for i in 0..bits {
        out.push_str(&format!("axb{i} = XOR(a{i}, b{i})\n"));
        out.push_str(&format!("s{i} = XOR(axb{i}, {carry})\n"));
        out.push_str(&format!("gen{i} = AND(a{i}, b{i})\n"));
        out.push_str(&format!("prop{i} = AND(axb{i}, {carry})\n"));
        out.push_str(&format!("c{} = OR(gen{i}, prop{i})\n", i + 1));
        carry = format!("c{}", i + 1);
    }
    out
}

/// An unsigned `bits × bits` array multiplier (the c6288 topology at
/// parameterized width): `bits²` partial-product AND gates reduced by
/// rows of ripple-carry adders. `bits = 10` is a 520-gate network.
///
/// Primary inputs in declaration order: `a0…a{bits-1}`, `b0…b{bits-1}`;
/// primary outputs: product bits `p0 … p{2·bits-1}`.
///
/// # Panics
///
/// Panics if `bits < 2`.
pub fn array_multiplier(bits: usize) -> Network {
    assert!(bits >= 2, "need at least two bits");
    let mut b = NetworkBuilder::new();
    let xor_c = b.add_cell(bipolar_xor2());
    let and_c = b.add_cell(bipolar_and2());
    let or_c = b.add_cell(bipolar_or2());
    let a: Vec<_> = (0..bits).map(|i| b.input(&format!("a{i}"))).collect();
    let bi: Vec<_> = (0..bits).map(|i| b.input(&format!("b{i}"))).collect();
    // Partial products.
    let pp: Vec<Vec<NetId>> = (0..bits)
        .map(|i| {
            (0..bits)
                .map(|j| {
                    let (_, n) = b.gate(and_c, &[a[j], bi[i]], &format!("pp{i}_{j}"), Phase::Phi1);
                    n
                })
                .collect()
        })
        .collect();
    // Row-wise reduction: `acc` holds the running sum of rows 0..=i,
    // aligned at bit i; each row adds the next partial-product vector
    // with a chain of half/full adders.
    let half = |b: &mut NetworkBuilder, x: NetId, y: NetId, tag: &str| -> (NetId, NetId) {
        let (_, s) = b.gate(xor_c, &[x, y], &format!("hs{tag}"), Phase::Phi1);
        let (_, c) = b.gate(and_c, &[x, y], &format!("hc{tag}"), Phase::Phi1);
        (s, c)
    };
    let full =
        |b: &mut NetworkBuilder, x: NetId, y: NetId, z: NetId, tag: &str| -> (NetId, NetId) {
            let (_, xy) = b.gate(xor_c, &[x, y], &format!("fx{tag}"), Phase::Phi1);
            let (_, s) = b.gate(xor_c, &[xy, z], &format!("fs{tag}"), Phase::Phi1);
            let (_, g) = b.gate(and_c, &[x, y], &format!("fg{tag}"), Phase::Phi1);
            let (_, p) = b.gate(and_c, &[xy, z], &format!("fp{tag}"), Phase::Phi1);
            let (_, c) = b.gate(or_c, &[g, p], &format!("fc{tag}"), Phase::Phi1);
            (s, c)
        };
    let mut product: Vec<NetId> = Vec::with_capacity(2 * bits);
    // acc[j] = bit (i + j) of the sum of rows 0..=i.
    let mut acc: Vec<NetId> = pp[0].clone();
    product.push(acc[0]);
    for (i, row) in pp.iter().enumerate().skip(1) {
        let mut next: Vec<NetId> = Vec::with_capacity(bits);
        let mut carry: Option<NetId> = None;
        for (j, &rbit) in row.iter().enumerate() {
            // Add row bit j to acc[j + 1] (the shifted previous sum); the
            // top previous bit beyond acc is zero.
            let prev = acc.get(j + 1).copied();
            let (s, c) = match (prev, carry) {
                (Some(pv), Some(cv)) => full(&mut b, rbit, pv, cv, &format!("{i}_{j}")),
                (Some(pv), None) => half(&mut b, rbit, pv, &format!("{i}_{j}")),
                (None, Some(cv)) => half(&mut b, rbit, cv, &format!("{i}_{j}")),
                (None, None) => {
                    next.push(rbit);
                    continue;
                }
            };
            next.push(s);
            carry = Some(c);
        }
        if let Some(cv) = carry {
            next.push(cv);
        }
        product.push(next[0]);
        acc = next;
    }
    for &bit in acc.iter().skip(1) {
        product.push(bit);
    }
    // Row 0 contributes `bits` bits and every later row one sum bit plus
    // a final carry: the reduction always yields exactly 2·bits bits.
    assert_eq!(product.len(), 2 * bits, "array reduction width");
    for p in &product {
        b.mark_output(*p);
    }
    b.finish().expect("array multiplier is well-formed")
}

/// The reference gate of the paper's Fig. 9: `u = a*(b+c) + d*e`, domino
/// CMOS.
pub fn fig9_cell() -> Cell {
    parse_cell(
        "fig9",
        "TECHNOLOGY domino-CMOS;
         INPUT a,b,c,d,e;
         OUTPUT u;
         x1 := a*(b+c);
         x2 := d*e;
         u := x1+x2;",
    )
    .expect("the paper's own example parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_or_tree_shape_and_function() {
        let net = and_or_tree(2); // 4 leaves: (x0&x1) | (x2&x3)
        assert_eq!(net.primary_inputs().len(), 4);
        assert_eq!(net.gates().len(), 3);
        assert_eq!(net.eval(&[true, true, false, false]), vec![true]);
        assert_eq!(net.eval(&[true, false, false, true]), vec![false]);
        assert_eq!(net.eval(&[false, false, true, true]), vec![true]);
    }

    #[test]
    fn carry_chain_is_majority_recurrence() {
        let net = carry_chain(3);
        // inputs: c0, a0, b0, a1, b1, a2, b2 (in declaration order)
        // All ones: all carries 1.
        let outs = net.eval(&[true, true, true, true, true, true, true]);
        assert_eq!(outs, vec![true, true, true]);
        // c0=0, a0=1,b0=1 -> c1=1; a1=0,b1=0 -> c2=0; a2=1,b2=0 -> c3=0.
        let outs = net.eval(&[false, true, true, false, false, true, false]);
        assert_eq!(outs, vec![true, false, false]);
    }

    #[test]
    fn comparator_computes_greater_than() {
        let bits = 3;
        let net = comparator(bits);
        // PIs in declaration order: a0..a2, nb0..nb2, gt_in.
        for a in 0..8u32 {
            for bv in 0..8u32 {
                let mut pi = Vec::new();
                for i in 0..bits {
                    pi.push((a >> i) & 1 == 1);
                }
                for i in 0..bits {
                    pi.push((bv >> i) & 1 == 0); // nb = !b
                }
                pi.push(false); // gt_in
                let out = net.eval(&pi)[0];
                assert_eq!(out, a > bv, "a={a} b={bv}");
            }
        }
    }

    #[test]
    fn c17_matches_nand_reference() {
        let net = c17_dynamic_nmos();
        assert!(net.check_clocking().is_ok());
        let nand = |x: bool, y: bool| !(x && y);
        for w in 0..32u32 {
            let i: Vec<bool> = (0..5).map(|k| (w >> k) & 1 == 1).collect();
            let n1 = nand(i[0], i[2]);
            let n2 = nand(i[2], i[3]);
            let n3 = nand(i[1], n2);
            let n4 = nand(n2, i[4]);
            let n5 = nand(n1, n3);
            let n6 = nand(n3, n4);
            assert_eq!(net.eval(&i), vec![n5, n6], "w={w:05b}");
        }
    }

    #[test]
    fn parity_tree_computes_parity() {
        let net = parity_tree(3);
        for w in 0..256u32 {
            let bits: Vec<bool> = (0..8).map(|k| (w >> k) & 1 == 1).collect();
            let parity = bits.iter().filter(|&&b| b).count() % 2 == 1;
            assert_eq!(net.eval(&bits), vec![parity], "w={w:08b}");
        }
    }

    #[test]
    fn wide_and_cell() {
        let cell = domino_wide_and(6);
        assert_eq!(cell.switch_count(), 6);
        let net = single_cell_network(cell);
        assert_eq!(net.eval(&[true; 6]), vec![true]);
        assert_eq!(
            net.eval(&[true, true, false, true, true, true]),
            vec![false]
        );
    }

    #[test]
    fn random_sp_expr_has_requested_literals() {
        let mut rng = StdRng::seed_from_u64(7);
        for lits in 1..20 {
            let e = random_sp_expr(&mut rng, 5, lits);
            fn count(e: &Bexpr) -> usize {
                match e {
                    Bexpr::Var(_) => 1,
                    Bexpr::And(ts) | Bexpr::Or(ts) => ts.iter().map(count).sum(),
                    _ => 0,
                }
            }
            assert_eq!(count(&e), lits);
        }
    }

    #[test]
    fn random_cells_are_seed_deterministic() {
        let a = random_domino_cell(42, 4, 7);
        let b = random_domino_cell(42, 4, 7);
        assert_eq!(a.transmission(), b.transmission());
        let c = random_domino_cell(43, 4, 7);
        // Overwhelmingly likely to differ; don't hard-require it, just
        // check it compiles and has the right size.
        assert_eq!(c.switch_count(), 7);
    }

    #[test]
    fn random_network_is_valid_and_deterministic() {
        let n1 = random_domino_network(9, 4, 10);
        let n2 = random_domino_network(9, 4, 10);
        assert_eq!(n1.gates().len(), 10);
        assert!(!n1.primary_outputs().is_empty());
        // Determinism: identical evaluation on a probe vector.
        let probe: Vec<bool> = (0..4).map(|i| i % 2 == 0).collect();
        assert_eq!(n1.eval(&probe), n2.eval(&probe));
    }

    #[test]
    fn bipartite_phases_two_colorable() {
        let net = c17_dynamic_nmos();
        let phases = bipartite_phases(&net).expect("c17 is 2-colorable");
        for (gi, inst) in net.gates().iter().enumerate() {
            for &input in &inst.inputs {
                if let Some(d) = net.driver(input) {
                    assert_ne!(phases[gi], phases[d.index()], "arc {d}->g{gi}");
                }
            }
        }
    }

    /// Packs an integer into the adder's PI order (cin, a0, b0, a1, b1…).
    fn adder_inputs(bits: usize, a: u64, b: u64, cin: bool) -> Vec<bool> {
        let mut pi = vec![cin];
        for i in 0..bits {
            pi.push((a >> i) & 1 == 1);
            pi.push((b >> i) & 1 == 1);
        }
        pi
    }

    fn bits_to_u64(bits: &[bool]) -> u64 {
        bits.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
    }

    #[test]
    fn ripple_adder_adds() {
        let bits = 6;
        let net = ripple_adder(bits);
        assert_eq!(net.gates().len(), 5 * bits);
        assert_eq!(net.primary_outputs().len(), bits + 1);
        for (a, b, cin) in [
            (0u64, 0u64, false),
            (63, 1, false),
            (21, 42, true),
            (63, 63, true),
        ] {
            let out = net.eval(&adder_inputs(bits, a, b, cin));
            let sum = bits_to_u64(&out);
            assert_eq!(sum, a + b + u64::from(cin), "a={a} b={b} cin={cin}");
        }
        // ISCAS-85-class scale: 80 bits = 400 gates.
        assert_eq!(ripple_adder(80).gates().len(), 400);
    }

    #[test]
    fn ripple_adder_bench_text_round_trips() {
        let bits = 8;
        let direct = ripple_adder(bits);
        let parsed = crate::bench_format::parse_bench(&ripple_adder_bench_text(bits))
            .expect("generated bench text parses");
        assert_eq!(parsed.gates().len(), direct.gates().len());
        for (a, b, cin) in [
            (0u64, 0, false),
            (255, 1, false),
            (170, 85, true),
            (200, 100, false),
        ] {
            let pi = adder_inputs(bits, a, b, cin);
            assert_eq!(parsed.eval(&pi), direct.eval(&pi), "a={a} b={b}");
        }
    }

    #[test]
    fn array_multiplier_multiplies() {
        for bits in [2usize, 3, 4, 5] {
            let net = array_multiplier(bits);
            assert_eq!(net.primary_outputs().len(), 2 * bits);
            for (a, b) in [
                (0u64, 0u64),
                (1, 1),
                (3, 3),
                ((1 << bits) - 1, (1 << bits) - 1),
                (2, 3),
            ] {
                let a = a & ((1 << bits) - 1);
                let b = b & ((1 << bits) - 1);
                let mut pi = Vec::new();
                for i in 0..bits {
                    pi.push((a >> i) & 1 == 1);
                }
                for i in 0..bits {
                    pi.push((b >> i) & 1 == 1);
                }
                let out = net.eval(&pi);
                assert_eq!(bits_to_u64(&out), a * b, "bits={bits} a={a} b={b}");
            }
        }
    }

    #[test]
    fn array_multiplier_reaches_iscas_scale() {
        // The c6288 topology: at 10 bits the network passes 500 gates
        // (520), and a typical fault cone is small relative to the whole.
        let net = array_multiplier(10);
        assert!(net.gates().len() >= 500, "{} gates", net.gates().len());
        let c = net.compiled();
        let mut cones: Vec<usize> = (0..net.gates().len())
            .map(|i| c.fanout_cone(crate::network::GateRef(i as u32)).len())
            .collect();
        cones.sort_unstable();
        // The median fault replays ~a quarter of the network, the best
        // quartile under a tenth — cone-incremental simulation pays here.
        assert!(cones[cones.len() / 2] < net.gates().len() / 3);
        assert!(cones[cones.len() / 4] < net.gates().len() / 8);
    }

    #[test]
    fn fig9_cell_parses() {
        let cell = fig9_cell();
        assert_eq!(cell.switch_count(), 5);
        assert_eq!(cell.technology(), Technology::DominoCmos);
    }
}
