//! Series-parallel switch networks (the paper's `SN`).
//!
//! The paper (Fig. 3) defines a switch network `SN` with two terminals `S`
//! and `D`; its *transmission function* `T(i1,…,in)` is true iff a
//! conducting path exists between the terminals. Cell descriptions build
//! `SN` "in an elementary way": `*` composes in series, `+` in parallel.
//!
//! [`build_sn`] realizes a transmission function as transistors inside a
//! [`CircuitBuilder`], recording which transistor each input literal became
//! — the fault-injection sites for the paper's `nMOS-i` fault classes.

use crate::circuit::{CircuitBuilder, FetKind, NodeId, TransistorId};
use dynmos_logic::{Bexpr, VarId};
use std::error::Error;
use std::fmt;

/// Error from [`build_sn`]: the expression is not a positive
/// series-parallel form.
///
/// Switch networks are built from plain (uncomplemented) transistors, so
/// only `*`, `+` and input variables are allowed; complements and constants
/// have no transistor realization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnError {
    /// A complemented subexpression was encountered.
    Complement,
    /// A constant was encountered.
    Constant(bool),
    /// A variable had no gate-node mapping.
    UnmappedVariable(VarId),
}

impl fmt::Display for SnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnError::Complement => {
                write!(f, "switch networks cannot realize complemented literals")
            }
            SnError::Constant(b) => write!(f, "switch networks cannot realize constant {b}"),
            SnError::UnmappedVariable(v) => write!(f, "no gate node mapped for variable {v}"),
        }
    }
}

impl Error for SnError {}

/// The transistors created for one switch network.
#[derive(Debug, Clone, Default)]
pub struct SnHandle {
    /// All transistors of the network in creation order.
    pub transistors: Vec<TransistorId>,
    /// `(input variable, transistor)` pairs — one per literal occurrence.
    pub literal_sites: Vec<(VarId, TransistorId)>,
}

/// Builds the series-parallel network for `expr` between `s` and `d`.
///
/// Each variable occurrence becomes one `kind` transistor whose gate is
/// `gate_of(var)`. Series composition introduces fresh internal nodes.
///
/// # Errors
///
/// Returns [`SnError`] if `expr` contains complements or constants, or if
/// `gate_of` returns `None` for some variable.
///
/// # Example
///
/// ```
/// use dynmos_logic::{parse_expr, VarTable};
/// use dynmos_switch::{build_sn, CircuitBuilder, FetKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut vars = VarTable::new();
/// let t = parse_expr("a*(b+c)+d*e", &mut vars)?;
/// let mut b = CircuitBuilder::new();
/// let nodes: Vec<_> = (0..vars.len())
///     .map(|i| b.input(vars.name(dynmos_logic::VarId(i as u32))))
///     .collect();
/// let s = b.node("S");
/// let d = b.node("D");
/// let sn = build_sn(&mut b, &t, s, d, FetKind::N, &|v| Some(nodes[v.index()]))?;
/// assert_eq!(sn.transistors.len(), 5); // one per literal
/// # Ok(())
/// # }
/// ```
pub fn build_sn(
    builder: &mut CircuitBuilder,
    expr: &Bexpr,
    s: NodeId,
    d: NodeId,
    kind: FetKind,
    gate_of: &dyn Fn(VarId) -> Option<NodeId>,
) -> Result<SnHandle, SnError> {
    let mut handle = SnHandle::default();
    build_rec(builder, expr, s, d, kind, gate_of, &mut handle)?;
    Ok(handle)
}

fn build_rec(
    builder: &mut CircuitBuilder,
    expr: &Bexpr,
    s: NodeId,
    d: NodeId,
    kind: FetKind,
    gate_of: &dyn Fn(VarId) -> Option<NodeId>,
    handle: &mut SnHandle,
) -> Result<(), SnError> {
    match expr {
        Bexpr::Const(b) => Err(SnError::Constant(*b)),
        Bexpr::Not(_) => Err(SnError::Complement),
        Bexpr::Var(v) => {
            let gate = gate_of(*v).ok_or(SnError::UnmappedVariable(*v))?;
            let label = format!("SN:{v}");
            let t = builder.fet(kind, gate, s, d, &label);
            handle.transistors.push(t);
            handle.literal_sites.push((*v, t));
            Ok(())
        }
        Bexpr::And(terms) => {
            // Series chain with fresh intermediate nodes.
            let mut from = s;
            for (i, term) in terms.iter().enumerate() {
                let to = if i + 1 == terms.len() {
                    d
                } else {
                    builder.fresh_node("sn")
                };
                build_rec(builder, term, from, to, kind, gate_of, handle)?;
                from = to;
            }
            Ok(())
        }
        Bexpr::Or(terms) => {
            for term in terms {
                build_rec(builder, term, s, d, kind, gate_of, handle)?;
            }
            Ok(())
        }
    }
}

/// The *dual* of a positive series-parallel expression: swaps `*` and `+`.
///
/// Static CMOS pull-up networks are the duals of their pull-down networks;
/// this helper keeps gate builders honest.
///
/// # Errors
///
/// Returns [`SnError`] on complements or constants (same restrictions as
/// [`build_sn`]).
pub(crate) fn dual(expr: &Bexpr) -> Result<Bexpr, SnError> {
    match expr {
        Bexpr::Const(b) => Err(SnError::Constant(*b)),
        Bexpr::Not(_) => Err(SnError::Complement),
        Bexpr::Var(v) => Ok(Bexpr::Var(*v)),
        Bexpr::And(ts) => Ok(Bexpr::or(
            ts.iter().map(dual).collect::<Result<Vec<_>, _>>()?,
        )),
        Bexpr::Or(ts) => Ok(Bexpr::and(
            ts.iter().map(dual).collect::<Result<Vec<_>, _>>()?,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::Logic;
    use crate::sim::Sim;
    use dynmos_logic::{parse_expr, VarTable};

    /// Builds SN for `expr_src` between a driven source and a probe node,
    /// then checks conduction equals the transmission function for every
    /// input assignment.
    fn check_transmission(expr_src: &str) {
        let mut vars = VarTable::new();
        let expr = parse_expr(expr_src, &mut vars).unwrap();
        let n = vars.len();
        let mut b = CircuitBuilder::new();
        let gate_nodes: Vec<NodeId> = (0..n)
            .map(|i| b.input(vars.name(VarId(i as u32))))
            .collect();
        // Drive S from an input so conduction is observable at D.
        let s = b.input("S");
        let d = b.node("D");
        build_sn(&mut b, &expr, s, d, FetKind::N, &|v| {
            Some(gate_nodes[v.index()])
        })
        .unwrap();
        let c = b.finish();
        for w in 0..(1u64 << n) {
            let mut sim = Sim::new(&c);
            for (i, &g) in gate_nodes.iter().enumerate() {
                sim.set_input(g, Logic::from_bool((w >> i) & 1 == 1));
            }
            sim.set_input(s, Logic::One);
            sim.settle();
            let expect = expr.eval_word(w);
            if expect {
                assert_eq!(sim.level(d), Logic::One, "{expr_src} at {w:b}");
            } else {
                // No conducting path: D floats with unknown initial charge.
                assert_eq!(
                    sim.signal(d).strength,
                    crate::level::Strength::Charged,
                    "{expr_src} at {w:b}"
                );
            }
        }
    }

    #[test]
    fn single_literal() {
        check_transmission("a");
    }

    #[test]
    fn series_chain() {
        check_transmission("a*b*c");
    }

    #[test]
    fn parallel_branches() {
        check_transmission("a+b+c");
    }

    #[test]
    fn fig9_network() {
        check_transmission("a*(b+c)+d*e");
    }

    #[test]
    fn deep_nesting() {
        check_transmission("a*(b+c*(d+e))");
    }

    #[test]
    fn one_transistor_per_literal() {
        let mut vars = VarTable::new();
        let expr = parse_expr("a*(b+c)+d*e", &mut vars).unwrap();
        let mut b = CircuitBuilder::new();
        let gates: Vec<NodeId> = (0..5).map(|i| b.input(&format!("i{i}"))).collect();
        let s = b.node("S");
        let d = b.node("D");
        let sn = build_sn(&mut b, &expr, s, d, FetKind::N, &|v| Some(gates[v.index()])).unwrap();
        assert_eq!(sn.transistors.len(), 5);
        assert_eq!(sn.literal_sites.len(), 5);
        // Repeated literals get distinct transistors.
        let mut vars2 = VarTable::new();
        let expr2 = parse_expr("a*b+a*c", &mut vars2).unwrap();
        let mut b2 = CircuitBuilder::new();
        let g2: Vec<NodeId> = (0..3).map(|i| b2.input(&format!("i{i}"))).collect();
        let s2 = b2.node("S");
        let d2 = b2.node("D");
        let sn2 = build_sn(&mut b2, &expr2, s2, d2, FetKind::N, &|v| {
            Some(g2[v.index()])
        })
        .unwrap();
        assert_eq!(sn2.transistors.len(), 4);
    }

    #[test]
    fn rejects_complement_and_constants() {
        let mut vars = VarTable::new();
        let e = parse_expr("/a", &mut vars).unwrap();
        let mut b = CircuitBuilder::new();
        let s = b.node("S");
        let d = b.node("D");
        assert_eq!(
            build_sn(&mut b, &e, s, d, FetKind::N, &|_| None).unwrap_err(),
            SnError::Complement
        );
        let mut b2 = CircuitBuilder::new();
        let s2 = b2.node("S");
        let d2 = b2.node("D");
        assert_eq!(
            build_sn(&mut b2, &Bexpr::TRUE, s2, d2, FetKind::N, &|_| None).unwrap_err(),
            SnError::Constant(true)
        );
    }

    #[test]
    fn rejects_unmapped_variable() {
        let mut vars = VarTable::new();
        let e = parse_expr("a", &mut vars).unwrap();
        let mut b = CircuitBuilder::new();
        let s = b.node("S");
        let d = b.node("D");
        let err = build_sn(&mut b, &e, s, d, FetKind::N, &|_| None).unwrap_err();
        assert!(matches!(err, SnError::UnmappedVariable(_)));
        assert!(err.to_string().contains("no gate node"));
    }

    #[test]
    fn dual_swaps_operators() {
        let mut vars = VarTable::new();
        let e = parse_expr("a*(b+c)", &mut vars).unwrap();
        let d = dual(&e).unwrap();
        let expected = parse_expr("a+b*c", &mut vars).unwrap();
        assert_eq!(d, expected);
        // Involution: dual(dual(e)) == e.
        assert_eq!(dual(&d).unwrap(), e);
    }

    #[test]
    fn dual_de_morgan_complement_property() {
        // T_dual(x) == /T(/x): check pointwise over all assignments.
        let mut vars = VarTable::new();
        let e = parse_expr("a*(b+c)+d*e", &mut vars).unwrap();
        let n = vars.len();
        let du = dual(&e).unwrap();
        for w in 0..(1u64 << n) {
            let flipped = !w & ((1 << n) - 1);
            assert_eq!(du.eval_word(w), !e.eval_word(flipped));
        }
    }
}
