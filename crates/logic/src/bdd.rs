//! Reduced ordered binary decision diagrams.
//!
//! The truth-table representation caps exact analysis at ~24 variables;
//! BDDs push exact signal and detection probabilities far beyond that for
//! well-structured circuits (trees, chains), which is how a
//! production-scale PROTEST would run. The package is deliberately small:
//! hash-consed nodes, `and`/`or`/`not`/`xor` via the standard apply
//! recursion, conversion from [`Bexpr`], satisfying-assignment counting
//! and weighted probability evaluation (linear in BDD size).
//!
//! The store follows the classic package layout (Brace, Rudell & Bryant,
//! "Efficient Implementation of a BDD Package", DAC'90):
//! - nodes live in one `Vec`, and the unique table is a flat array of
//!   chain heads with a `next` index in every node;
//! - the computed table is lossy and direct-mapped: a colliding result
//!   overwrites the old one, and a lookup only hits an entry written in
//!   the current generation;
//! - probability and counting memos are `Vec`s indexed by node.
//!
//! Nodes die strictly last-in first-out ([`Bdd::truncate`]), so a
//! rollback pops each freed node off the head of its chain and bumps the
//! computed table's generation: it costs the nodes it frees, not the
//! size of any table. A lost cache entry only costs time. Recomputing an
//! operation whose result is live reaches only live nodes, so the nodes a
//! sequence of operations creates, and where a node budget overflows, do
//! not depend on what the computed table holds.

use crate::expr::Bexpr;
use crate::vars::VarId;

/// The manager's node budget was exhausted mid-operation.
///
/// Returned by the `try_*` operations on a manager built with
/// [`Bdd::with_node_limit`]. The partially built nodes are still in the
/// store; callers that want transactional behaviour should take a
/// [`Bdd::mark`] before the operation and [`Bdd::truncate`] back to it on
/// overflow, which costs only the nodes it frees.
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
    pub(crate) fn is_const(self) -> bool {
        self.0 < 2
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: BddRef,
    hi: BddRef,
    /// The next older node in this node's unique-table chain; `0` (a
    /// terminal, never chained) ends the chain.
    next: u32,
}

/// Slots of a fresh manager's unique and computed tables.
const INITIAL_SLOTS: usize = 256;

/// The computed table grows with the node count up to this many entries
/// per table, so a large store does not double its memory in cache.
const COMPUTED_CAP: usize = 1 << 18;

/// The index in a table of `len` (a power of two, at least 2) slots of a
/// key: its multiplicative hash, top bits first.
fn slot(hi: u64, lo: u32, len: usize) -> usize {
    let h = (hi.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(lo))
        .wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    (h >> (64 - len.trailing_zeros())) as usize
}

fn pair(a: BddRef, b: BddRef) -> u64 {
    (u64::from(a.0) << 32) | u64::from(b.0)
}

/// A binary operation kept in the computed table.
#[derive(Debug, Clone, Copy)]
enum Op {
    And = 0,
    Xor = 1,
}

/// A computed-table entry `op(a, b) = r`; `tag` is the generation shifted
/// left by one, with the op in the low bit.
#[derive(Debug, Clone, Copy, Default)]
struct BinEntry {
    a: u32,
    b: u32,
    r: u32,
    tag: u32,
}

/// A computed-table entry `not(a) = r`, valid in generation `gen`.
#[derive(Debug, Clone, Copy, Default)]
struct NotEntry {
    a: u32,
    r: u32,
    gen: u32,
}

/// The lossy, direct-mapped computed table. An entry is valid only in
/// the generation that wrote it; generation 0 marks empty slots.
#[derive(Debug, Clone)]
struct ComputedTable {
    bin: Vec<BinEntry>,
    not: Vec<NotEntry>,
    gen: u32,
}

impl ComputedTable {
    /// Generations fit in 31 bits, beside the op bit of a [`BinEntry`] tag.
    const GEN_LIMIT: u32 = 1 << 31;

    fn new() -> Self {
        Self {
            bin: vec![BinEntry::default(); INITIAL_SLOTS],
            not: vec![NotEntry::default(); INITIAL_SLOTS],
            gen: 1,
        }
    }

    fn bin_tag(&self, op: Op) -> u32 {
        (self.gen << 1) | op as u32
    }

    fn get(&self, op: Op, a: BddRef, b: BddRef) -> Option<BddRef> {
        let e = self.bin[slot(pair(a, b), op as u32, self.bin.len())];
        (e.tag == self.bin_tag(op) && e.a == a.0 && e.b == b.0).then_some(BddRef(e.r))
    }

    fn put(&mut self, op: Op, a: BddRef, b: BddRef, r: BddRef) {
        let i = slot(pair(a, b), op as u32, self.bin.len());
        self.bin[i] = BinEntry {
            a: a.0,
            b: b.0,
            r: r.0,
            tag: self.bin_tag(op),
        };
    }

    fn get_not(&self, a: BddRef) -> Option<BddRef> {
        let e = self.not[slot(u64::from(a.0), 0, self.not.len())];
        (e.gen == self.gen && e.a == a.0).then_some(BddRef(e.r))
    }

    fn put_not(&mut self, a: BddRef, r: BddRef) {
        let i = slot(u64::from(a.0), 0, self.not.len());
        self.not[i] = NotEntry {
            a: a.0,
            r: r.0,
            gen: self.gen,
        };
    }

    /// Drops every entry at once by starting a new generation; a wrapped
    /// counter clears the tables so no stale entry can match again.
    fn invalidate(&mut self) {
        self.gen += 1;
        if self.gen == Self::GEN_LIMIT {
            self.bin.fill(BinEntry::default());
            self.not.fill(NotEntry::default());
            self.gen = 1;
        }
    }

    /// Grows the tables toward one slot per node, up to [`COMPUTED_CAP`].
    /// The fresh tables start empty: growth happens a logarithmic number
    /// of times, and a lost entry only costs a recomputation.
    fn fit(&mut self, nodes: usize) {
        if nodes <= self.bin.len() || self.bin.len() >= COMPUTED_CAP {
            return;
        }
        let len = nodes.next_power_of_two().min(COMPUTED_CAP);
        self.bin = vec![BinEntry::default(); len];
        self.not = vec![NotEntry::default(); len];
    }
}

/// A BDD manager: owns the node store, the unique table and the computed
/// table.
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
    /// Unique table: per hash slot, the newest node of its chain (`0` for
    /// none). Never shorter than the node store.
    buckets: Vec<u32>,
    computed: ComputedTable,
    node_limit: Option<usize>,
}

impl Bdd {
    /// Creates an empty manager (terminals pre-allocated).
    pub fn new() -> Self {
        let terminal = Node {
            var: u32::MAX,
            lo: BddRef::FALSE,
            hi: BddRef::TRUE,
            next: 0,
        };
        Self {
            // Index 0/1 are placeholders for the terminals; never read
            // through `node()` because is_const is checked first.
            nodes: vec![terminal, terminal],
            buckets: vec![0; INITIAL_SLOTS],
            computed: ComputedTable::new(),
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
    /// node created since is removed, and the computed table starts a new
    /// generation, which drops all its entries at once. Refs obtained
    /// before the mark stay valid; refs created after it must not be used
    /// again. Costs O(freed nodes): nodes die last-in first-out, so each
    /// one is still the head of its unique-table chain.
    ///
    /// [`mark`]: Self::mark
    pub fn truncate(&mut self, mark: BddMark) {
        let keep = mark.0;
        if keep >= self.nodes.len() {
            return;
        }
        for i in (keep..self.nodes.len()).rev() {
            let n = self.nodes[i];
            let b = slot(pair(n.lo, n.hi), n.var, self.buckets.len());
            debug_assert_eq!(self.buckets[b] as usize, i, "freed node heads its chain");
            self.buckets[b] = n.next;
        }
        self.nodes.truncate(keep);
        self.computed.invalidate();
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
        let b = slot(pair(lo, hi), var, self.buckets.len());
        let mut i = self.buckets[b];
        while i != 0 {
            let n = self.nodes[i as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                return Ok(BddRef(i));
            }
            i = n.next;
        }
        if let Some(limit) = self.node_limit {
            if self.nodes.len() >= limit {
                return Err(BddOverflow { limit });
            }
        }
        let r = self.nodes.len() as u32;
        self.nodes.push(Node {
            var,
            lo,
            hi,
            next: self.buckets[b],
        });
        self.buckets[b] = r;
        if self.nodes.len() > self.buckets.len() {
            self.grow_unique();
        }
        self.computed.fit(self.nodes.len());
        Ok(BddRef(r))
    }

    /// Doubles the unique table, relinking the nodes oldest first so each
    /// chain head stays its newest node.
    fn grow_unique(&mut self) {
        self.buckets = vec![0; 2 * self.buckets.len()];
        for i in 2..self.nodes.len() {
            let n = &mut self.nodes[i];
            let b = slot(pair(n.lo, n.hi), n.var, self.buckets.len());
            n.next = self.buckets[b];
            self.buckets[b] = i as u32;
        }
    }

    /// Starts a new computed-table generation without freeing nodes: a
    /// manager that calls this before every operation must build exactly
    /// the nodes a caching one builds.
    #[cfg(test)]
    fn flush_computed(&mut self) {
        self.computed.invalidate();
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
    pub(crate) fn and(&mut self, a: BddRef, b: BddRef) -> BddRef {
        self.try_and(a, b)
            .expect("node budget exhausted; use the try_* operations")
    }

    /// Conjunction, failing gracefully when the node budget runs out.
    pub(crate) fn try_and(&mut self, a: BddRef, b: BddRef) -> Result<BddRef, BddOverflow> {
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
        let (a, b) = (a.min(b), a.max(b));
        if let Some(r) = self.computed.get(Op::And, a, b) {
            return Ok(r);
        }
        let v = self.top_var(a).min(self.top_var(b));
        let (a0, a1) = self.cofactors(a, v);
        let (b0, b1) = self.cofactors(b, v);
        let lo = self.try_and(a0, b0)?;
        let hi = self.try_and(a1, b1)?;
        let r = self.try_mk(v, lo, hi)?;
        self.computed.put(Op::And, a, b, r);
        Ok(r)
    }

    /// Complement.
    pub(crate) fn not(&mut self, a: BddRef) -> BddRef {
        self.try_not(a)
            .expect("node budget exhausted; use the try_* operations")
    }

    /// Complement, failing gracefully when the node budget runs out.
    pub(crate) fn try_not(&mut self, a: BddRef) -> Result<BddRef, BddOverflow> {
        if a == BddRef::FALSE {
            return Ok(BddRef::TRUE);
        }
        if a == BddRef::TRUE {
            return Ok(BddRef::FALSE);
        }
        if let Some(r) = self.computed.get_not(a) {
            return Ok(r);
        }
        let n = self.node(a);
        let lo = self.try_not(n.lo)?;
        let hi = self.try_not(n.hi)?;
        let r = self.try_mk(n.var, lo, hi)?;
        self.computed.put_not(a, r);
        self.computed.put_not(r, a);
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
        let (a, b) = (a.min(b), a.max(b));
        if let Some(r) = self.computed.get(Op::Xor, a, b) {
            return Ok(r);
        }
        let v = self.top_var(a).min(self.top_var(b));
        let (a0, a1) = self.cofactors(a, v);
        let (b0, b1) = self.cofactors(b, v);
        let lo = self.try_xor(a0, b0)?;
        let hi = self.try_xor(a1, b1)?;
        let r = self.try_mk(v, lo, hi)?;
        self.computed.put(Op::Xor, a, b, r);
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
    ///
    /// # Panics
    ///
    /// Panics if the evaluation path reaches a variable `>= 64`, which no
    /// `u64` word can hold; [`any_sat`](Self::any_sat) and
    /// [`probability`](Self::probability) have no such limit.
    pub fn eval_word(&self, r: BddRef, word: u64) -> bool {
        let mut cur = r;
        while !cur.is_const() {
            let n = self.node(cur);
            assert!(
                n.var < u64::BITS,
                "eval_word reached variable v{}, past the 64 bits of an input word",
                n.var
            );
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
        let mut memo = vec![f64::NAN; self.nodes.len()];
        let frac = self.sat_fraction(r, nvars, &mut memo);
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

    /// The satisfying fraction of `r`; `memo[i]` holds node `i`'s, or NaN
    /// when not yet known.
    ///
    /// # Panics
    ///
    /// Panics on a node whose variable is `>= nvars`.
    fn sat_fraction(&self, r: BddRef, nvars: usize, memo: &mut [f64]) -> f64 {
        if r == BddRef::FALSE {
            return 0.0;
        }
        if r == BddRef::TRUE {
            return 1.0;
        }
        let known = memo[r.0 as usize];
        if !known.is_nan() {
            return known;
        }
        let n = self.node(r);
        assert!(
            (n.var as usize) < nvars,
            "sat_count reached variable v{} outside 0..{nvars}",
            n.var
        );
        let f =
            0.5 * self.sat_fraction(n.lo, nvars, memo) + 0.5 * self.sat_fraction(n.hi, nvars, memo);
        memo[r.0 as usize] = f;
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
        self.probability_memo(r, probs, &mut Vec::new())
    }

    /// [`probability`](Self::probability) with a caller-owned memo, so a
    /// caller evaluating many roots one at a time (the per-fault
    /// detectability functions over one good machine) evaluates nodes
    /// common to several roots once.
    ///
    /// The memo is indexed by node and holds NaN for nodes not yet
    /// evaluated; start from an empty `Vec`. It belongs to one `probs`,
    /// which is validated on the first call, while the memo is empty. The
    /// caller must not reuse a memo across a [`truncate`](Self::truncate)
    /// that frees a node the memo has evaluated: a later node with the
    /// same index would read its value.
    ///
    /// # Panics
    ///
    /// Panics if the function references a variable `>= probs.len()`, or,
    /// on the first call, if a probability is outside `[0, 1]`.
    pub fn probability_memo(&self, r: BddRef, probs: &[f64], memo: &mut Vec<f64>) -> f64 {
        if memo.is_empty() {
            for &p in probs {
                assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
            }
        }
        if memo.len() < self.nodes.len() {
            memo.resize(self.nodes.len(), f64::NAN);
        }
        self.prob_rec(r, probs, memo)
    }

    fn prob_rec(&self, r: BddRef, probs: &[f64], memo: &mut [f64]) -> f64 {
        if r == BddRef::FALSE {
            return 0.0;
        }
        if r == BddRef::TRUE {
            return 1.0;
        }
        let known = memo[r.0 as usize];
        if !known.is_nan() {
            return known;
        }
        let n = self.node(r);
        let pv = *probs
            .get(n.var as usize)
            .unwrap_or_else(|| panic!("variable v{} has no probability", n.var));
        let p =
            pv * self.prob_rec(n.hi, probs, memo) + (1.0 - pv) * self.prob_rec(n.lo, probs, memo);
        memo[r.0 as usize] = p;
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
    use crate::expr::Bexpr;
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
        // Variables the function does not read still double the count.
        let v2 = bdd.var(VarId(2));
        assert_eq!(bdd.sat_count(v2, 3), 4);
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
    #[should_panic(expected = "eval_word reached variable v64")]
    fn eval_word_refuses_variables_past_the_word() {
        // A 70-variable AND chain: with the first 64 variables true the
        // walk reaches v64, which a u64 word cannot hold. Shifting by it
        // used to panic in debug builds and read bit 0 in release.
        let mut bdd = Bdd::new();
        let mut acc = BddRef::TRUE;
        for i in 0..70u32 {
            let v = bdd.var(VarId(i));
            acc = bdd.and(acc, v);
        }
        // Paths that stop within the word still evaluate.
        assert!(!bdd.eval_word(acc, u64::MAX - 1));
        let _ = bdd.eval_word(acc, u64::MAX);
    }

    /// An operation of the store test, over indices into its root pool.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Var(u32),
        Not(usize),
        And(usize, usize),
        Or(usize, usize),
        Xor(usize, usize),
    }

    fn apply(bdd: &mut Bdd, step: Step, roots: &[BddRef]) -> Result<BddRef, BddOverflow> {
        match step {
            Step::Var(v) => bdd.try_var(VarId(v)),
            Step::Not(a) => bdd.try_not(roots[a]),
            Step::And(a, b) => bdd.try_and(roots[a], roots[b]),
            Step::Or(a, b) => bdd.try_or(roots[a], roots[b]),
            Step::Xor(a, b) => bdd.try_xor(roots[a], roots[b]),
        }
    }

    fn table_of(step: Step, tables: &[TruthTable], nvars: usize) -> TruthTable {
        match step {
            Step::Var(v) => TruthTable::from_expr(&Bexpr::Var(VarId(v)), nvars),
            Step::Not(a) => tables[a].not(),
            Step::And(a, b) => tables[a].and(&tables[b]),
            Step::Or(a, b) => tables[a].or(&tables[b]),
            Step::Xor(a, b) => tables[a].xor(&tables[b]),
        }
    }

    #[test]
    fn store_invariants_under_random_ops_and_rollback() {
        const NVARS: usize = 8;
        let (mut overflows, mut rollbacks, mut peak) = (0, 0, 0);
        for seed in 1..=40u64 {
            // xorshift64*, so the op sequence is fixed per seed.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut below = |n: usize| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
            };
            // Mostly tight budgets, so ops overflow; every fourth seed
            // rolls back rarely and grows the unique table past its
            // initial size instead.
            let roomy = seed % 4 == 0;
            let (limit, odds, ops) = if roomy {
                (2000 + below(1000), 200, 1500)
            } else {
                (10 + below(30), 12, 300)
            };
            let mut bdd = Bdd::with_node_limit(limit);
            // Flushed before every op: whatever the computed table holds
            // must not change which nodes get built.
            let mut twin = Bdd::with_node_limit(limit);
            let mut roots = vec![BddRef::FALSE, BddRef::TRUE];
            let mut tables = vec![TruthTable::zeros(NVARS), TruthTable::ones(NVARS)];
            let mut steps: Vec<Option<Step>> = vec![None, None];
            // (mark, roots kept) per open transaction; the first is only
            // rolled back to on overflow.
            let mut marks = vec![(bdd.mark(), roots.len())];
            for _ in 0..ops {
                let pick = below(odds);
                if pick == 0 || (pick == 1 && marks.len() == 1) {
                    assert_eq!(twin.mark(), bdd.mark());
                    marks.push((bdd.mark(), roots.len()));
                    continue;
                }
                if pick == 1 {
                    let (mark, kept) = marks.pop().expect("open mark");
                    rollbacks += usize::from(bdd.mark() != mark);
                    bdd.truncate(mark);
                    twin.truncate(mark);
                    roots.truncate(kept);
                    tables.truncate(kept);
                    steps.truncate(kept);
                    // Rebuilding a kept root hash-conses back to it
                    // without growing the store.
                    let count = bdd.node_count();
                    for i in 2..roots.len() {
                        let step = steps[i].expect("built roots have a step");
                        assert_eq!(apply(&mut bdd, step, &roots), Ok(roots[i]), "seed {seed}");
                        assert_eq!(bdd.node_count(), count, "seed {seed}: rebuild grew");
                    }
                    continue;
                }
                let n = roots.len();
                let step = match below(5) {
                    0 => Step::Var(below(NVARS) as u32),
                    1 => Step::Not(below(n)),
                    2 => Step::And(below(n), below(n)),
                    3 => Step::Or(below(n), below(n)),
                    _ => Step::Xor(below(n), below(n)),
                };
                let got = apply(&mut bdd, step, &roots);
                peak = peak.max(bdd.node_count());
                twin.flush_computed();
                assert_eq!(apply(&mut twin, step, &roots), got, "seed {seed}: {step:?}");
                assert_eq!(twin.node_count(), bdd.node_count(), "seed {seed}: {step:?}");
                match got {
                    Ok(r) => {
                        let table = table_of(step, &tables, NVARS);
                        for w in 0..1u64 << NVARS {
                            assert_eq!(bdd.eval_word(r, w), table.get(w), "seed {seed}: {step:?}");
                        }
                        roots.push(r);
                        tables.push(table);
                        steps.push(Some(step));
                    }
                    Err(e) => {
                        assert_eq!(e.limit, limit);
                        overflows += 1;
                        let (mark, kept) = *marks.last().expect("base mark");
                        bdd.truncate(mark);
                        twin.truncate(mark);
                        roots.truncate(kept);
                        tables.truncate(kept);
                        steps.truncate(kept);
                    }
                }
            }
        }
        assert!(overflows > 100, "only {overflows} overflows");
        assert!(rollbacks > 100, "only {rollbacks} rollbacks freed nodes");
        assert!(
            peak > 2 * INITIAL_SLOTS,
            "the unique table never grew twice: {peak} nodes"
        );
    }

    #[test]
    fn generation_wrap_clears_the_computed_table() {
        let mut bdd = Bdd::new();
        bdd.computed.gen = ComputedTable::GEN_LIMIT - 1;
        let a = bdd.var(VarId(0));
        let b = bdd.var(VarId(1));
        let mark = bdd.mark();
        let ab = bdd.and(a, b);
        let not_a = bdd.not(a);
        bdd.truncate(mark);
        // The wrap restarts at generation 1 with empty tables, so no entry
        // of the last generation can match a recycled generation number.
        assert_eq!(bdd.computed.gen, 1);
        assert!(bdd.computed.bin.iter().all(|e| e.tag == 0));
        assert!(bdd.computed.not.iter().all(|e| e.gen == 0));
        assert_eq!(bdd.and(a, b), ab);
        assert_eq!(bdd.not(a), not_a);
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
    #[should_panic(expected = "sat_count reached variable v5 outside 0..3")]
    fn sat_count_refuses_variables_past_nvars() {
        let mut bdd = Bdd::new();
        let v5 = bdd.var(VarId(5));
        bdd.sat_count(v5, 3);
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
        let mut memo = Vec::new();
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
