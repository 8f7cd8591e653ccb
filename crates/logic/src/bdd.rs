//! Reduced ordered binary decision diagrams.
//!
//! The truth-table representation caps exact analysis at ~24 variables;
//! BDDs push exact signal and detection probabilities far beyond that for
//! well-structured circuits (trees, chains), which is how a
//! production-scale PROTEST would run. The package is deliberately small:
//! hash-consed nodes, `and`/`or`/`not`/`xor` via the standard apply
//! recursion, conversion from [`Bexpr`], satisfying-assignment counting
//! and weighted probability evaluation (linear in BDD size).

use crate::expr::Bexpr;
use crate::vars::VarId;
use std::collections::HashMap;

/// The manager's node budget was exhausted mid-operation.
///
/// Returned by the `try_*` operations on a manager built with
/// [`Bdd::with_node_limit`]. The partially built nodes are still in the
/// store; callers that want transactional behaviour should take a
/// [`Bdd::mark`] before the operation and [`Bdd::truncate`] back to it on
/// overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BddOverflow {
    /// The node limit that was hit.
    pub limit: usize,
}

impl std::fmt::Display for BddOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BDD node budget of {} exhausted", self.limit)
    }
}

impl std::error::Error for BddOverflow {}

/// A watermark into a [`Bdd`] node store, taken with [`Bdd::mark`] and
/// rolled back to with [`Bdd::truncate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BddMark(usize);

/// Reference to a node inside a [`Bdd`] manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant false node.
    pub const FALSE: BddRef = BddRef(0);
    /// The constant true node.
    pub const TRUE: BddRef = BddRef(1);

    /// `true` if this is a terminal node.
    pub fn is_const(self) -> bool {
        self.0 < 2
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    lo: BddRef,
    hi: BddRef,
}

/// A BDD manager: owns the node store and the operation caches.
///
/// Variable order is the natural [`VarId`] order (0 at the top).
///
/// # Example
///
/// ```
/// use dynmos_logic::{parse_expr, Bdd, VarTable};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut vars = VarTable::new();
/// let f = parse_expr("a*b+/a*c", &mut vars)?;
/// let mut bdd = Bdd::new();
/// let root = bdd.from_expr(&f);
/// assert_eq!(bdd.sat_count(root, 3), 4); // mux: 4 of 8 rows true
/// let p = bdd.probability(root, &[0.5, 0.5, 0.5]);
/// assert!((p - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Bdd {
    nodes: Vec<Node>,
    unique: HashMap<Node, BddRef>,
    and_cache: HashMap<(BddRef, BddRef), BddRef>,
    xor_cache: HashMap<(BddRef, BddRef), BddRef>,
    not_cache: HashMap<BddRef, BddRef>,
    node_limit: Option<usize>,
}

impl Bdd {
    /// Creates an empty manager (terminals pre-allocated).
    pub fn new() -> Self {
        let terminal = Node {
            var: u32::MAX,
            lo: BddRef::FALSE,
            hi: BddRef::TRUE,
        };
        Self {
            // Index 0/1 are placeholders for the terminals; never read
            // through `node()` because is_const is checked first.
            nodes: vec![terminal, terminal],
            unique: HashMap::new(),
            and_cache: HashMap::new(),
            xor_cache: HashMap::new(),
            not_cache: HashMap::new(),
            node_limit: None,
        }
    }

    /// Creates a manager with a hard node budget: any `try_*` operation
    /// that would push the store past `limit` nodes returns
    /// [`BddOverflow`] instead of growing without bound. The infallible
    /// operations (`and`, `or`, …) panic on overflow — use the `try_*`
    /// variants on a budgeted manager.
    pub fn with_node_limit(limit: usize) -> Self {
        let mut bdd = Self::new();
        bdd.node_limit = Some(limit.max(2));
        bdd
    }

    /// The configured node budget, if any.
    pub fn node_limit(&self) -> Option<usize> {
        self.node_limit
    }

    /// Number of live nodes (incl. the two terminals) — the size metric.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Takes a watermark of the current node store, for transactional
    /// rollback with [`truncate`](Self::truncate).
    pub fn mark(&self) -> BddMark {
        BddMark(self.nodes.len())
    }

    /// Rolls the node store back to a previously taken [`mark`]: every
    /// node created since is removed, and cache entries touching removed
    /// nodes are dropped. Refs obtained before the mark stay valid; refs
    /// created after it must not be used again.
    ///
    /// [`mark`]: Self::mark
    pub fn truncate(&mut self, mark: BddMark) {
        let keep = mark.0;
        if keep >= self.nodes.len() {
            return;
        }
        for n in &self.nodes[keep..] {
            self.unique.remove(n);
        }
        self.nodes.truncate(keep);
        let live = |r: BddRef| (r.0 as usize) < keep;
        self.and_cache
            .retain(|&(a, b), r| live(a) && live(b) && live(*r));
        self.xor_cache
            .retain(|&(a, b), r| live(a) && live(b) && live(*r));
        self.not_cache.retain(|&a, r| live(a) && live(*r));
    }

    fn node(&self, r: BddRef) -> Node {
        self.nodes[r.0 as usize]
    }

    /// Hash-consing constructor with the reduction rules.
    fn mk(&mut self, var: u32, lo: BddRef, hi: BddRef) -> BddRef {
        self.try_mk(var, lo, hi)
            .expect("node budget exhausted; use the try_* operations")
    }

    fn try_mk(&mut self, var: u32, lo: BddRef, hi: BddRef) -> Result<BddRef, BddOverflow> {
        if lo == hi {
            return Ok(lo);
        }
        let n = Node { var, lo, hi };
        if let Some(&r) = self.unique.get(&n) {
            return Ok(r);
        }
        if let Some(limit) = self.node_limit {
            if self.nodes.len() >= limit {
                return Err(BddOverflow { limit });
            }
        }
        let r = BddRef(self.nodes.len() as u32);
        self.nodes.push(n);
        self.unique.insert(n, r);
        Ok(r)
    }

    /// The single-variable function `var`.
    pub fn var(&mut self, var: VarId) -> BddRef {
        self.mk(var.0, BddRef::FALSE, BddRef::TRUE)
    }

    /// [`var`](Self::var), failing gracefully when the node budget runs
    /// out.
    pub fn try_var(&mut self, var: VarId) -> Result<BddRef, BddOverflow> {
        self.try_mk(var.0, BddRef::FALSE, BddRef::TRUE)
    }

    /// Top variable of a non-terminal; terminals sort last.
    fn top_var(&self, r: BddRef) -> u32 {
        if r.is_const() {
            u32::MAX
        } else {
            self.node(r).var
        }
    }

    fn cofactors(&self, r: BddRef, var: u32) -> (BddRef, BddRef) {
        if r.is_const() || self.node(r).var != var {
            (r, r)
        } else {
            let n = self.node(r);
            (n.lo, n.hi)
        }
    }

    /// Conjunction.
    pub fn and(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.try_and(a, b)
            .expect("node budget exhausted; use the try_* operations")
    }

    /// Conjunction, failing gracefully when the node budget runs out.
    pub fn try_and(&mut self, a: BddRef, b: BddRef) -> Result<BddRef, BddOverflow> {
        if a == BddRef::FALSE || b == BddRef::FALSE {
            return Ok(BddRef::FALSE);
        }
        if a == BddRef::TRUE {
            return Ok(b);
        }
        if b == BddRef::TRUE {
            return Ok(a);
        }
        if a == b {
            return Ok(a);
        }
        let key = (a.min(b), a.max(b));
        if let Some(&r) = self.and_cache.get(&key) {
            return Ok(r);
        }
        let v = self.top_var(a).min(self.top_var(b));
        let (a0, a1) = self.cofactors(a, v);
        let (b0, b1) = self.cofactors(b, v);
        let lo = self.try_and(a0, b0)?;
        let hi = self.try_and(a1, b1)?;
        let r = self.try_mk(v, lo, hi)?;
        self.and_cache.insert(key, r);
        Ok(r)
    }

    /// Complement.
    pub fn not(&mut self, a: BddRef) -> BddRef {
        self.try_not(a)
            .expect("node budget exhausted; use the try_* operations")
    }

    /// Complement, failing gracefully when the node budget runs out.
    pub fn try_not(&mut self, a: BddRef) -> Result<BddRef, BddOverflow> {
        if a == BddRef::FALSE {
            return Ok(BddRef::TRUE);
        }
        if a == BddRef::TRUE {
            return Ok(BddRef::FALSE);
        }
        if let Some(&r) = self.not_cache.get(&a) {
            return Ok(r);
        }
        let n = self.node(a);
        let lo = self.try_not(n.lo)?;
        let hi = self.try_not(n.hi)?;
        let r = self.try_mk(n.var, lo, hi)?;
        self.not_cache.insert(a, r);
        self.not_cache.insert(r, a);
        Ok(r)
    }

    /// Disjunction (via De Morgan).
    pub fn or(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.try_or(a, b)
            .expect("node budget exhausted; use the try_* operations")
    }

    /// Disjunction, failing gracefully when the node budget runs out.
    pub fn try_or(&mut self, a: BddRef, b: BddRef) -> Result<BddRef, BddOverflow> {
        let na = self.try_not(a)?;
        let nb = self.try_not(b)?;
        let n = self.try_and(na, nb)?;
        self.try_not(n)
    }

    /// Exclusive or — the Boolean difference used for test patterns.
    pub fn xor(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.try_xor(a, b)
            .expect("node budget exhausted; use the try_* operations")
    }

    /// Exclusive or, failing gracefully when the node budget runs out.
    pub fn try_xor(&mut self, a: BddRef, b: BddRef) -> Result<BddRef, BddOverflow> {
        if a == b {
            return Ok(BddRef::FALSE);
        }
        if a == BddRef::FALSE {
            return Ok(b);
        }
        if b == BddRef::FALSE {
            return Ok(a);
        }
        if a == BddRef::TRUE {
            return self.try_not(b);
        }
        if b == BddRef::TRUE {
            return self.try_not(a);
        }
        let key = (a.min(b), a.max(b));
        if let Some(&r) = self.xor_cache.get(&key) {
            return Ok(r);
        }
        let v = self.top_var(a).min(self.top_var(b));
        let (a0, a1) = self.cofactors(a, v);
        let (b0, b1) = self.cofactors(b, v);
        let lo = self.try_xor(a0, b0)?;
        let hi = self.try_xor(a1, b1)?;
        let r = self.try_mk(v, lo, hi)?;
        self.xor_cache.insert(key, r);
        Ok(r)
    }

    /// Builds the BDD of an expression.
    pub fn from_expr(&mut self, expr: &Bexpr) -> BddRef {
        match expr {
            Bexpr::Const(false) => BddRef::FALSE,
            Bexpr::Const(true) => BddRef::TRUE,
            Bexpr::Var(v) => self.var(*v),
            Bexpr::Not(e) => {
                let inner = self.from_expr(e);
                self.not(inner)
            }
            Bexpr::And(ts) => {
                let mut acc = BddRef::TRUE;
                for t in ts {
                    let b = self.from_expr(t);
                    acc = self.and(acc, b);
                    if acc == BddRef::FALSE {
                        break;
                    }
                }
                acc
            }
            Bexpr::Or(ts) => {
                let mut acc = BddRef::FALSE;
                for t in ts {
                    let b = self.from_expr(t);
                    acc = self.or(acc, b);
                    if acc == BddRef::TRUE {
                        break;
                    }
                }
                acc
            }
        }
    }

    /// Evaluates under a dense input word (bit `i` = variable `i`).
    pub fn eval_word(&self, r: BddRef, word: u64) -> bool {
        let mut cur = r;
        while !cur.is_const() {
            let n = self.node(cur);
            cur = if (word >> n.var) & 1 == 1 { n.hi } else { n.lo };
        }
        cur == BddRef::TRUE
    }

    /// Number of satisfying assignments over `nvars` variables,
    /// saturating at `u64::MAX`.
    ///
    /// The count is derived from the satisfying *fraction* in f64, so for
    /// `nvars >= 64` (or any count at f64 resolution of 2^nvars) the
    /// result is exact only when the fraction is: a 64-variable AND chain
    /// still counts exactly 1, but a function satisfied by more than
    /// `u64::MAX` rows reports `u64::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if the function references a variable `>= nvars`.
    pub fn sat_count(&self, r: BddRef, nvars: usize) -> u64 {
        let mut memo: HashMap<BddRef, f64> = HashMap::new();
        let frac = self.sat_fraction(r, &mut memo);
        // 2^nvars overflows the old `1u64 << nvars` for nvars >= 64;
        // compute in f64 (exact for powers of two up to the exponent
        // range) and saturate.
        let count = frac * 2f64.powi(nvars.min(4096) as i32);
        if count >= u64::MAX as f64 {
            u64::MAX
        } else {
            count.round() as u64
        }
    }

    fn sat_fraction(&self, r: BddRef, memo: &mut HashMap<BddRef, f64>) -> f64 {
        if r == BddRef::FALSE {
            return 0.0;
        }
        if r == BddRef::TRUE {
            return 1.0;
        }
        if let Some(&f) = memo.get(&r) {
            return f;
        }
        let n = self.node(r);
        let f = 0.5 * self.sat_fraction(n.lo, memo) + 0.5 * self.sat_fraction(n.hi, memo);
        memo.insert(r, f);
        f
    }

    /// Exact signal probability under independent per-variable
    /// probabilities — linear in the BDD size, the scalable replacement
    /// for truth-table enumeration.
    ///
    /// # Panics
    ///
    /// Panics if the function references a variable `>= probs.len()` or a
    /// probability is outside `[0, 1]`.
    pub fn probability(&self, r: BddRef, probs: &[f64]) -> f64 {
        for &p in probs {
            assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
        }
        let mut memo: HashMap<BddRef, f64> = HashMap::new();
        self.prob_rec(r, probs, &mut memo)
    }

    /// [`probability`](Self::probability) with a caller-owned memo table,
    /// so a caller evaluating many roots one at a time (the per-fault
    /// detectability functions over one good machine) evaluates nodes
    /// common to several roots once.
    pub fn probability_memo(
        &self,
        r: BddRef,
        probs: &[f64],
        memo: &mut HashMap<BddRef, f64>,
    ) -> f64 {
        for &p in probs {
            assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
        }
        self.prob_rec(r, probs, memo)
    }

    fn prob_rec(&self, r: BddRef, probs: &[f64], memo: &mut HashMap<BddRef, f64>) -> f64 {
        if r == BddRef::FALSE {
            return 0.0;
        }
        if r == BddRef::TRUE {
            return 1.0;
        }
        if let Some(&p) = memo.get(&r) {
            return p;
        }
        let n = self.node(r);
        let pv = *probs
            .get(n.var as usize)
            .unwrap_or_else(|| panic!("variable v{} has no probability", n.var));
        let p =
            pv * self.prob_rec(n.hi, probs, memo) + (1.0 - pv) * self.prob_rec(n.lo, probs, memo);
        memo.insert(r, p);
        p
    }

    /// Evaluates an expression whose variables stand for already-built
    /// BDDs: the composition primitive for building a network's global
    /// output function gate by gate.
    ///
    /// # Example
    ///
    /// ```
    /// use dynmos_logic::{parse_expr, Bdd, VarId, VarTable};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut vars = VarTable::new();
    /// let gate_fn = parse_expr("a*b", &mut vars)?; // the cell function
    /// let mut bdd = Bdd::new();
    /// // Wire cell input a to global x2, b to global x5.
    /// let x2 = bdd.var(VarId(2));
    /// let x5 = bdd.var(VarId(5));
    /// let out = bdd.eval_expr_over(&gate_fn, &|v| if v.index() == 0 { x2 } else { x5 });
    /// assert!(bdd.eval_word(out, 0b100100));
    /// # Ok(())
    /// # }
    /// ```
    pub fn eval_expr_over(&mut self, expr: &Bexpr, operand: &impl Fn(VarId) -> BddRef) -> BddRef {
        self.try_eval_expr_over(expr, operand)
            .expect("node budget exhausted; use the try_* operations")
    }

    /// [`eval_expr_over`](Self::eval_expr_over), failing gracefully when
    /// the node budget runs out.
    pub fn try_eval_expr_over(
        &mut self,
        expr: &Bexpr,
        operand: &impl Fn(VarId) -> BddRef,
    ) -> Result<BddRef, BddOverflow> {
        match expr {
            Bexpr::Const(false) => Ok(BddRef::FALSE),
            Bexpr::Const(true) => Ok(BddRef::TRUE),
            Bexpr::Var(v) => Ok(operand(*v)),
            Bexpr::Not(e) => {
                let inner = self.try_eval_expr_over(e, operand)?;
                self.try_not(inner)
            }
            Bexpr::And(ts) => {
                let mut acc = BddRef::TRUE;
                for t in ts {
                    let b = self.try_eval_expr_over(t, operand)?;
                    acc = self.try_and(acc, b)?;
                    if acc == BddRef::FALSE {
                        break;
                    }
                }
                Ok(acc)
            }
            Bexpr::Or(ts) => {
                let mut acc = BddRef::FALSE;
                for t in ts {
                    let b = self.try_eval_expr_over(t, operand)?;
                    acc = self.try_or(acc, b)?;
                    if acc == BddRef::TRUE {
                        break;
                    }
                }
                Ok(acc)
            }
        }
    }

    /// One satisfying assignment over variables `0..nvars` (entry `v` is
    /// the value of `VarId(v)`), or `None` for the constant-false
    /// function. Variables the path skips default to `false`.
    ///
    /// # Panics
    ///
    /// Panics if the function references a variable `>= nvars`.
    pub fn any_sat(&self, r: BddRef, nvars: usize) -> Option<Vec<bool>> {
        if r == BddRef::FALSE {
            return None;
        }
        let mut assignment = vec![false; nvars];
        let mut cur = r;
        while !cur.is_const() {
            let n = self.node(cur);
            if n.hi != BddRef::FALSE {
                assignment[n.var as usize] = true;
                cur = n.hi;
            } else {
                cur = n.lo;
            }
        }
        Some(assignment)
    }
}

impl Default for Bdd {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::table::TruthTable;
    use crate::vars::VarTable;

    fn check_equiv(src: &str) {
        let mut vars = VarTable::new();
        let e = parse_expr(src, &mut vars).unwrap();
        let n = vars.len();
        let mut bdd = Bdd::new();
        let root = bdd.from_expr(&e);
        for w in 0..(1u64 << n) {
            assert_eq!(bdd.eval_word(root, w), e.eval_word(w), "{src} at {w}");
        }
    }

    #[test]
    fn from_expr_equivalence() {
        for src in [
            "a",
            "/a",
            "a*b+c",
            "a*(b+c)+d*e",
            "a*/b+/a*b",
            "(a+b)*(c+d)*(/a+/c)",
        ] {
            check_equiv(src);
        }
    }

    #[test]
    fn reduction_canonicity() {
        // Equivalent expressions share one root.
        let mut vars = VarTable::new();
        let e1 = parse_expr("a*b+a*c", &mut vars).unwrap();
        let e2 = parse_expr("a*(b+c)", &mut vars).unwrap();
        let mut bdd = Bdd::new();
        let r1 = bdd.from_expr(&e1);
        let r2 = bdd.from_expr(&e2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn tautology_collapses_to_true() {
        let mut vars = VarTable::new();
        let e = parse_expr("a+/a", &mut vars).unwrap();
        let mut bdd = Bdd::new();
        assert_eq!(bdd.from_expr(&e), BddRef::TRUE);
        let contradiction = parse_expr("a*/a", &mut vars).unwrap();
        assert_eq!(bdd.from_expr(&contradiction), BddRef::FALSE);
    }

    #[test]
    fn sat_count_matches_truth_table() {
        let mut vars = VarTable::new();
        let e = parse_expr("a*(b+c)+d*e", &mut vars).unwrap();
        let n = vars.len();
        let t = TruthTable::from_expr(&e, n);
        let mut bdd = Bdd::new();
        let root = bdd.from_expr(&e);
        assert_eq!(bdd.sat_count(root, n), t.count_ones());
    }

    #[test]
    fn probability_matches_table() {
        let mut vars = VarTable::new();
        let e = parse_expr("a*(b+/c)+d", &mut vars).unwrap();
        let n = vars.len();
        let t = TruthTable::from_expr(&e, n);
        let probs: Vec<f64> = (0..n).map(|i| 0.15 + 0.2 * i as f64).collect();
        let exact = crate::prob::signal_probability(&t, &probs);
        let mut bdd = Bdd::new();
        let root = bdd.from_expr(&e);
        assert!((bdd.probability(root, &probs) - exact).abs() < 1e-12);
    }

    #[test]
    fn xor_gives_boolean_difference() {
        let mut vars = VarTable::new();
        let good = parse_expr("a*(b+c)+d*e", &mut vars).unwrap();
        let faulty = parse_expr("d*e", &mut vars).unwrap(); // class 2
        let mut bdd = Bdd::new();
        let g = bdd.from_expr(&good);
        let f = bdd.from_expr(&faulty);
        let diff = bdd.xor(g, f);
        for w in 0..32u64 {
            assert_eq!(
                bdd.eval_word(diff, w),
                good.eval_word(w) != faulty.eval_word(w)
            );
        }
        // any_sat yields a test pattern for the fault.
        let test = bdd.any_sat(diff, 5).expect("fault is testable");
        let word = test
            .iter()
            .enumerate()
            .fold(0u64, |w, (i, &b)| w | (u64::from(b) << i));
        assert_ne!(good.eval_word(word), faulty.eval_word(word));
    }

    #[test]
    fn any_sat_none_for_false() {
        let bdd = Bdd::new();
        assert_eq!(bdd.any_sat(BddRef::FALSE, 2), None);
        assert_eq!(bdd.any_sat(BddRef::TRUE, 2), Some(vec![false, false]));
    }

    #[test]
    fn any_sat_past_64_variables() {
        // A 70-variable AND chain has exactly one satisfying row: all
        // ones, six of them past what one 64-bit word could hold.
        let mut bdd = Bdd::new();
        let mut acc = BddRef::TRUE;
        for i in 0..70u32 {
            let v = bdd.var(VarId(i));
            acc = bdd.and(acc, v);
        }
        assert_eq!(bdd.any_sat(acc, 70), Some(vec![true; 70]));
        // With the last variable negated, only v69 must be false.
        let last = bdd.var(VarId(69));
        let not_last = bdd.not(last);
        let mut head = BddRef::TRUE;
        for i in 0..69u32 {
            let v = bdd.var(VarId(i));
            head = bdd.and(head, v);
        }
        let f = bdd.and(head, not_last);
        let mut expect = vec![true; 70];
        expect[69] = false;
        assert_eq!(bdd.any_sat(f, 70), Some(expect));
    }

    #[test]
    fn scales_past_truth_table_limit() {
        // 64-variable AND chain: truth tables are impossible, the BDD is
        // linear.
        let mut bdd = Bdd::new();
        let mut acc = BddRef::TRUE;
        for i in 0..64u32 {
            let v = bdd.var(VarId(i));
            acc = bdd.and(acc, v);
        }
        // No garbage collection: dead intermediate chains stay allocated,
        // so the count is quadratic-ish in the chain length but still
        // tiny compared to 2^64 rows.
        assert!(bdd.node_count() < 3000);
        let probs = vec![0.9; 64];
        let p = bdd.probability(acc, &probs);
        assert!((p - 0.9f64.powi(64)).abs() < 1e-15);
    }

    #[test]
    fn wide_or_probability() {
        // 40-variable OR: P = 1 - (1-p)^40.
        let mut bdd = Bdd::new();
        let mut acc = BddRef::FALSE;
        for i in 0..40u32 {
            let v = bdd.var(VarId(i));
            acc = bdd.or(acc, v);
        }
        let p = bdd.probability(acc, &vec![0.03; 40]);
        let expect = 1.0 - 0.97f64.powi(40);
        assert!((p - expect).abs() < 1e-12);
    }

    #[test]
    fn sat_count_saturates_instead_of_overflowing() {
        // Regression: `1u64 << 64` used to overflow silently. A 64-var
        // AND chain has exactly one satisfying row; a 70-var OR has more
        // rows than u64 can hold and must saturate.
        let mut bdd = Bdd::new();
        let mut and_acc = BddRef::TRUE;
        let mut or_acc = BddRef::FALSE;
        for i in 0..70u32 {
            let v = bdd.var(VarId(i));
            if i < 64 {
                and_acc = bdd.and(and_acc, v);
            }
            or_acc = bdd.or(or_acc, v);
        }
        assert_eq!(bdd.sat_count(and_acc, 64), 1);
        assert_eq!(bdd.sat_count(or_acc, 70), u64::MAX);
        assert_eq!(bdd.sat_count(BddRef::TRUE, 64), u64::MAX);
        assert_eq!(bdd.sat_count(BddRef::TRUE, 63), 1u64 << 63);
    }

    #[test]
    fn node_budget_overflows_gracefully() {
        // An 8-var parity function needs more than 16 nodes; the
        // budgeted manager must refuse instead of growing.
        let mut bdd = Bdd::with_node_limit(16);
        let mark = bdd.mark();
        let mut acc = BddRef::FALSE;
        let mut overflowed = false;
        for i in 0..8u32 {
            let v = bdd.var(VarId(i));
            match bdd.try_xor(acc, v) {
                Ok(r) => acc = r,
                Err(e) => {
                    assert_eq!(e.limit, 16);
                    overflowed = true;
                    break;
                }
            }
        }
        assert!(overflowed, "16-node budget must not fit 8-var parity");
        assert!(bdd.node_count() <= 16);
        // Rollback leaves only the terminals.
        bdd.truncate(mark);
        assert_eq!(bdd.node_count(), 2);
    }

    #[test]
    fn truncate_keeps_earlier_roots_valid() {
        let mut vars = VarTable::new();
        let e = parse_expr("a*(b+/c)+d", &mut vars).unwrap();
        let mut bdd = Bdd::new();
        let root = bdd.from_expr(&e);
        let probs = vec![0.3, 0.4, 0.5, 0.6];
        let before = bdd.probability(root, &probs);
        let mark = bdd.mark();
        // Build and discard an unrelated function.
        let junk = parse_expr("e*f+g*h+e*/g", &mut vars).unwrap();
        let jr = bdd.from_expr(&junk);
        assert!(!jr.is_const());
        bdd.truncate(mark);
        // The earlier root still evaluates identically, and rebuilding
        // the original expression hash-conses back to the same ref.
        assert_eq!(bdd.probability(root, &probs), before);
        assert_eq!(bdd.from_expr(&e), root);
        for w in 0..16u64 {
            assert_eq!(bdd.eval_word(root, w), e.eval_word(w));
        }
    }

    #[test]
    fn shared_memo_matches_scalar() {
        let mut vars = VarTable::new();
        let e1 = parse_expr("a*(b+/c)+d", &mut vars).unwrap();
        let e2 = parse_expr("a*b+c*d", &mut vars).unwrap();
        let mut bdd = Bdd::new();
        let r1 = bdd.from_expr(&e1);
        let r2 = bdd.from_expr(&e2);
        let probs = vec![0.15, 0.35, 0.55, 0.75];
        // One memo shared across the roots gives the scalar values.
        let mut memo = HashMap::new();
        let many: Vec<f64> = [r1, r2, BddRef::TRUE]
            .iter()
            .map(|&r| bdd.probability_memo(r, &probs, &mut memo))
            .collect();
        assert_eq!(many[0], bdd.probability(r1, &probs));
        assert_eq!(many[1], bdd.probability(r2, &probs));
        assert_eq!(many[2], 1.0);
    }

    #[test]
    fn de_morgan_on_bdds() {
        let mut vars = VarTable::new();
        let a = parse_expr("a*b", &mut vars).unwrap();
        let b = parse_expr("b+c", &mut vars).unwrap();
        let mut bdd = Bdd::new();
        let ra = bdd.from_expr(&a);
        let rb = bdd.from_expr(&b);
        let and_then_not = {
            let x = bdd.and(ra, rb);
            bdd.not(x)
        };
        let nots_then_or = {
            let na = bdd.not(ra);
            let nb = bdd.not(rb);
            bdd.or(na, nb)
        };
        assert_eq!(and_then_not, nots_then_or);
    }
}
