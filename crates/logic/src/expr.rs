//! Boolean expressions in the paper's cell-description syntax.

use crate::vars::{VarId, VarTable};
use std::fmt;

/// A Boolean expression over [`VarId`]s.
///
/// The constructors mirror the operators of the paper's switching-network
/// description language: `*` (series transistors / conjunction), `+`
/// (parallel transistors / disjunction) and `/` (complement, used for the
/// inverse transmission function of dynamic nMOS gates).
///
/// `And`/`Or` are n-ary, matching how series/parallel chains appear in cell
/// descriptions.
///
/// # Example
///
/// ```
/// use dynmos_logic::{Bexpr, VarTable};
/// let mut vars = VarTable::new();
/// let a = vars.intern("a");
/// let b = vars.intern("b");
/// // a*b  evaluated at a=1,b=0
/// let e = Bexpr::and(vec![Bexpr::var(a), Bexpr::var(b)]);
/// assert!(!e.eval(&|v| v == a));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Bexpr {
    /// Constant `false` / `true`.
    Const(bool),
    /// A variable reference.
    Var(VarId),
    /// Complement.
    Not(Box<Bexpr>),
    /// n-ary conjunction. Empty conjunction is `true`.
    And(Vec<Bexpr>),
    /// n-ary disjunction. Empty disjunction is `false`.
    Or(Vec<Bexpr>),
}

impl Bexpr {
    /// The constant `false`.
    pub const FALSE: Bexpr = Bexpr::Const(false);
    /// The constant `true`.
    pub const TRUE: Bexpr = Bexpr::Const(true);

    /// A single variable.
    pub fn var(id: VarId) -> Self {
        Bexpr::Var(id)
    }

    /// Complement of `e`, flattening double negation.
    ///
    /// An associated constructor (not a method), mirroring [`Bexpr::and`]
    /// and [`Bexpr::or`].
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Bexpr) -> Self {
        match e {
            Bexpr::Const(b) => Bexpr::Const(!b),
            Bexpr::Not(inner) => *inner,
            other => Bexpr::Not(Box::new(other)),
        }
    }

    /// n-ary conjunction, flattening nested `And`s and folding constants.
    pub fn and(terms: Vec<Bexpr>) -> Self {
        let mut flat = Vec::with_capacity(terms.len());
        for t in terms {
            match t {
                Bexpr::Const(true) => {}
                Bexpr::Const(false) => return Bexpr::FALSE,
                Bexpr::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Bexpr::TRUE,
            1 => flat.pop().expect("len checked"),
            _ => Bexpr::And(flat),
        }
    }

    /// n-ary disjunction, flattening nested `Or`s and folding constants.
    pub fn or(terms: Vec<Bexpr>) -> Self {
        let mut flat = Vec::with_capacity(terms.len());
        for t in terms {
            match t {
                Bexpr::Const(false) => {}
                Bexpr::Const(true) => return Bexpr::TRUE,
                Bexpr::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Bexpr::FALSE,
            1 => flat.pop().expect("len checked"),
            _ => Bexpr::Or(flat),
        }
    }

    /// Evaluates under an assignment given as a predicate on variables.
    pub fn eval(&self, assign: &impl Fn(VarId) -> bool) -> bool {
        match self {
            Bexpr::Const(b) => *b,
            Bexpr::Var(v) => assign(*v),
            Bexpr::Not(e) => !e.eval(assign),
            Bexpr::And(ts) => ts.iter().all(|t| t.eval(assign)),
            Bexpr::Or(ts) => ts.iter().any(|t| t.eval(assign)),
        }
    }

    /// Evaluates under a dense input word: bit `i` of `word` is variable `i`.
    pub fn eval_word(&self, word: u64) -> bool {
        self.eval(&|v: VarId| (word >> v.index()) & 1 == 1)
    }

    /// Evaluates 64 assignments at once: `lanes(v)` supplies 64 packed
    /// values of variable `v`, one per bit lane, and the result packs the
    /// 64 function values. This is the kernel of pattern-parallel fault
    /// simulation (64 random patterns per expression walk).
    pub fn eval_lanes(&self, lanes: &impl Fn(VarId) -> u64) -> u64 {
        match self {
            Bexpr::Const(b) => {
                if *b {
                    u64::MAX
                } else {
                    0
                }
            }
            Bexpr::Var(v) => lanes(*v),
            Bexpr::Not(e) => !e.eval_lanes(lanes),
            Bexpr::And(ts) => ts.iter().fold(u64::MAX, |acc, t| acc & t.eval_lanes(lanes)),
            Bexpr::Or(ts) => ts.iter().fold(0, |acc, t| acc | t.eval_lanes(lanes)),
        }
    }

    /// Substitutes `var := value` (a stuck-at fault on an input) and
    /// simplifies constants away.
    ///
    /// This is exactly how the paper's `s0-iᵢ` / `s1-iᵢ` fault classes turn
    /// into faulty combinational functions.
    pub fn substitute(&self, var: VarId, value: bool) -> Bexpr {
        match self {
            Bexpr::Const(b) => Bexpr::Const(*b),
            Bexpr::Var(v) => {
                if *v == var {
                    Bexpr::Const(value)
                } else {
                    Bexpr::Var(*v)
                }
            }
            Bexpr::Not(e) => Bexpr::not(e.substitute(var, value)),
            Bexpr::And(ts) => Bexpr::and(ts.iter().map(|t| t.substitute(var, value)).collect()),
            Bexpr::Or(ts) => Bexpr::or(ts.iter().map(|t| t.substitute(var, value)).collect()),
        }
    }

    /// Simultaneous substitution: replaces every variable `v` with
    /// `subs(v)` in a single pass, so substituted content is never
    /// re-substituted (no variable capture — the pitfall of chaining
    /// one-variable substitutions when source and target variable spaces
    /// overlap).
    ///
    /// # Example
    ///
    /// ```
    /// use dynmos_logic::{parse_expr, Bexpr, VarId, VarTable};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut vars = VarTable::new();
    /// // Swap a and b in one pass — impossible with chained substitution.
    /// let e = parse_expr("a*/b", &mut vars)?;
    /// let swapped = e.compose(&|v| Bexpr::var(VarId(1 - v.0)));
    /// let expect = parse_expr("b*/a", &mut vars)?;
    /// for w in 0..4 {
    ///     assert_eq!(swapped.eval_word(w), expect.eval_word(w));
    /// }
    /// # Ok(())
    /// # }
    /// ```
    pub fn compose(&self, subs: &impl Fn(VarId) -> Bexpr) -> Bexpr {
        match self {
            Bexpr::Const(b) => Bexpr::Const(*b),
            Bexpr::Var(v) => subs(*v),
            Bexpr::Not(e) => Bexpr::not(e.compose(subs)),
            Bexpr::And(ts) => Bexpr::and(ts.iter().map(|t| t.compose(subs)).collect()),
            Bexpr::Or(ts) => Bexpr::or(ts.iter().map(|t| t.compose(subs)).collect()),
        }
    }

    /// Collects the set of variables referenced, as a sorted, deduplicated list.
    pub fn support(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Bexpr::Const(_) => {}
            Bexpr::Var(v) => out.push(*v),
            Bexpr::Not(e) => e.collect_vars(out),
            Bexpr::And(ts) | Bexpr::Or(ts) => {
                for t in ts {
                    t.collect_vars(out);
                }
            }
        }
    }

    /// Pretty-prints using the paper's syntax with names from `vars`.
    ///
    /// `*` binds tighter than `+`; complement is the prefix `/`.
    pub fn display<'a>(&'a self, vars: &'a VarTable) -> DisplayExpr<'a> {
        DisplayExpr { expr: self, vars }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, vars: &VarTable, prec: u8) -> fmt::Result {
        match self {
            Bexpr::Const(false) => write!(f, "0"),
            Bexpr::Const(true) => write!(f, "1"),
            Bexpr::Var(v) => write!(f, "{}", vars.name(*v)),
            Bexpr::Not(e) => {
                write!(f, "/")?;
                e.fmt_prec(f, vars, 2)
            }
            Bexpr::And(ts) => {
                let need_paren = prec > 1;
                if need_paren {
                    write!(f, "(")?;
                }
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "*")?;
                    }
                    t.fmt_prec(f, vars, 2)?;
                }
                if need_paren {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Bexpr::Or(ts) => {
                let need_paren = prec > 0;
                if need_paren {
                    write!(f, "(")?;
                }
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "+")?;
                    }
                    t.fmt_prec(f, vars, 1)?;
                }
                if need_paren {
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

impl Default for Bexpr {
    /// The constant `false` (an empty disjunction).
    fn default() -> Self {
        Bexpr::FALSE
    }
}

/// Borrowed pretty-printer returned by [`Bexpr::display`].
#[derive(Debug, Clone, Copy)]
pub struct DisplayExpr<'a> {
    expr: &'a Bexpr,
    vars: &'a VarTable,
}

impl fmt::Display for DisplayExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.expr.fmt_prec(f, self.vars, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn abc() -> (VarTable, VarId, VarId, VarId) {
        let mut t = VarTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let c = t.intern("c");
        (t, a, b, c)
    }

    #[test]
    fn constant_folding_in_and() {
        let (_, a, _, _) = abc();
        assert_eq!(Bexpr::and(vec![Bexpr::TRUE, Bexpr::var(a)]), Bexpr::var(a));
        assert_eq!(Bexpr::and(vec![Bexpr::FALSE, Bexpr::var(a)]), Bexpr::FALSE);
        assert_eq!(Bexpr::and(vec![]), Bexpr::TRUE);
    }

    #[test]
    fn constant_folding_in_or() {
        let (_, a, _, _) = abc();
        assert_eq!(Bexpr::or(vec![Bexpr::FALSE, Bexpr::var(a)]), Bexpr::var(a));
        assert_eq!(Bexpr::or(vec![Bexpr::TRUE, Bexpr::var(a)]), Bexpr::TRUE);
        assert_eq!(Bexpr::or(vec![]), Bexpr::FALSE);
    }

    #[test]
    fn double_negation_flattens() {
        let (_, a, _, _) = abc();
        let e = Bexpr::not(Bexpr::not(Bexpr::var(a)));
        assert_eq!(e, Bexpr::var(a));
    }

    #[test]
    fn nary_flattening() {
        let (_, a, b, c) = abc();
        let e = Bexpr::and(vec![
            Bexpr::var(a),
            Bexpr::and(vec![Bexpr::var(b), Bexpr::var(c)]),
        ]);
        assert_eq!(
            e,
            Bexpr::And(vec![Bexpr::var(a), Bexpr::var(b), Bexpr::var(c)])
        );
    }

    #[test]
    fn eval_word_uses_bit_positions() {
        let (_, a, b, _) = abc();
        let e = Bexpr::and(vec![Bexpr::var(a), Bexpr::not(Bexpr::var(b))]);
        assert!(e.eval_word(0b001)); // a=1, b=0
        assert!(!e.eval_word(0b011)); // a=1, b=1
        assert!(!e.eval_word(0b000));
    }

    #[test]
    fn substitute_stuck_at() {
        let mut vars = VarTable::new();
        let u = parse_expr("a*(b+c)+d*e", &mut vars).unwrap();
        let a = vars.get("a").unwrap();
        // a stuck-at-0 yields d*e (paper's fault class 2)
        let faulty = u.substitute(a, false);
        let de = parse_expr("d*e", &mut vars).unwrap();
        for w in 0..32u64 {
            assert_eq!(faulty.eval_word(w), de.eval_word(w));
        }
    }

    #[test]
    fn support_is_sorted_dedup() {
        let mut vars = VarTable::new();
        let e = parse_expr("b*a+a*c", &mut vars).unwrap();
        let sup = e.support();
        let names: Vec<_> = sup.iter().map(|v| vars.name(*v)).collect();
        // ids are sorted and deduplicated; names were interned b,a,c
        assert_eq!(names, ["b", "a", "c"]);
        assert!(sup.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn display_round_trips_through_parser() {
        let mut vars = VarTable::new();
        let e = parse_expr("a*(b+c)+/d*e", &mut vars).unwrap();
        let printed = e.display(&vars).to_string();
        let mut vars2 = vars.clone();
        let reparsed = parse_expr(&printed, &mut vars2).unwrap();
        for w in 0..64u64 {
            assert_eq!(e.eval_word(w), reparsed.eval_word(w), "at {printed}");
        }
    }

    #[test]
    fn eval_lanes_matches_scalar_eval() {
        let mut vars = VarTable::new();
        let e = parse_expr("a*(b+/c)+d", &mut vars).unwrap();
        let n = vars.len();
        // Pack rows 0..16 into lanes 0..16.
        let lane_of = |v: VarId| -> u64 {
            let mut w = 0u64;
            for row in 0..(1u64 << n) {
                if (row >> v.index()) & 1 == 1 {
                    w |= 1 << row;
                }
            }
            w
        };
        let packed = e.eval_lanes(&lane_of);
        for row in 0..(1u64 << n) {
            assert_eq!((packed >> row) & 1 == 1, e.eval_word(row), "row {row}");
        }
    }
}
