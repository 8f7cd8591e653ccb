//! Bit-packed truth tables.
//!
//! A [`TruthTable`] over `n` variables stores one bit per input assignment,
//! `2^n` bits packed into `u64` words. Truth tables are the canonical
//! function representation used throughout the workspace: two faulty
//! functions are *fault equivalent* exactly when their tables are equal,
//! which is how the paper's library generator collapses fault classes
//! ("fault equivalent classes are constructed").

use crate::expr::Bexpr;
use crate::vars::VarId;
use std::fmt;

/// Practical cap on truth-table width; `2^MAX_VARS` bits must fit in memory.
pub(crate) const MAX_VARS: usize = 24;

/// A complete truth table over `nvars` variables.
///
/// Bit `k` of the table is the function value at the assignment where
/// variable `i` takes bit `i` of `k`.
///
/// # Example
///
/// ```
/// use dynmos_logic::{parse_expr, TruthTable, VarTable};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut vars = VarTable::new();
/// let xor = parse_expr("a*/b+/a*b", &mut vars)?;
/// let tt = TruthTable::from_expr(&xor, 2);
/// assert_eq!(tt.count_ones(), 2);
/// assert!(tt.get(0b01) && tt.get(0b10));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    nvars: usize,
    bits: Vec<u64>,
}

impl TruthTable {
    /// The all-false function over `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > MAX_VARS`.
    pub fn zeros(nvars: usize) -> Self {
        assert!(
            nvars <= MAX_VARS,
            "truth table over {nvars} variables exceeds MAX_VARS={MAX_VARS}"
        );
        let words = Self::word_count(nvars);
        Self {
            nvars,
            bits: vec![0; words],
        }
    }

    /// The all-true function over `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > MAX_VARS`.
    pub fn ones(nvars: usize) -> Self {
        let mut t = Self::zeros(nvars);
        for w in &mut t.bits {
            *w = u64::MAX;
        }
        t.mask_tail();
        t
    }

    /// Builds the table of `expr` over variables `0..nvars`.
    ///
    /// Variables referenced by `expr` but `>= nvars` would panic; pass the
    /// full variable count of the enclosing [`crate::VarTable`].
    ///
    /// # Panics
    ///
    /// Panics if `nvars > MAX_VARS` or `expr` references a variable id
    /// `>= nvars`.
    pub fn from_expr(expr: &Bexpr, nvars: usize) -> Self {
        if let Some(max) = expr.support().last() {
            assert!(
                max.index() < nvars,
                "expression references variable {max} outside 0..{nvars}"
            );
        }
        let mut t = Self::zeros(nvars);
        // Vectorized evaluation: variables 0..=5 become fixed alternating
        // bit patterns, higher variables are constant per 64-row word, so
        // each word is one expression walk (~64x faster than per-row eval).
        let words = t.bits.len();
        for w in 0..words {
            t.bits[w] = eval_word_block(expr, w);
        }
        t.mask_tail();
        t
    }

    /// Number of variables.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// Number of rows (`2^nvars`).
    pub fn len(&self) -> u64 {
        1u64 << self.nvars
    }

    /// `true` when the table has zero rows — never the case, so always
    /// `false`; provided for API symmetry with `len`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The function value at input assignment `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= 2^nvars`.
    #[inline]
    pub fn get(&self, row: u64) -> bool {
        assert!(row < self.len(), "row {row} out of range");
        (self.bits[(row >> 6) as usize] >> (row & 63)) & 1 == 1
    }

    /// Sets the function value at `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= 2^nvars`.
    #[inline]
    pub fn set(&mut self, row: u64, value: bool) {
        assert!(row < self.len(), "row {row} out of range");
        let w = (row >> 6) as usize;
        let b = row & 63;
        if value {
            self.bits[w] |= 1 << b;
        } else {
            self.bits[w] &= !(1 << b);
        }
    }

    /// Number of input assignments mapped to `true` (the *weight*).
    pub fn count_ones(&self) -> u64 {
        self.bits.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Fraction of assignments mapped to `true` — the signal probability
    /// under uniform inputs.
    pub fn density(&self) -> f64 {
        self.count_ones() as f64 / self.len() as f64
    }

    /// `true` if the function is constant `false`.
    pub fn is_zero(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// `true` if the function is constant `true`.
    pub fn is_one(&self) -> bool {
        self.count_ones() == self.len()
    }

    /// Pointwise complement.
    #[allow(clippy::should_implement_trait)]
    pub fn not(&self) -> Self {
        let mut out = self.clone();
        for w in &mut out.bits {
            *w = !*w;
        }
        out.mask_tail();
        out
    }

    /// Pointwise conjunction.
    ///
    /// # Panics
    ///
    /// Panics if the tables have different widths.
    pub fn and(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a & b)
    }

    /// Pointwise disjunction.
    ///
    /// # Panics
    ///
    /// Panics if the tables have different widths.
    pub fn or(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a | b)
    }

    /// Pointwise XOR — the *Boolean difference* of two functions. The ones
    /// of `f.xor(g)` are exactly the input patterns distinguishing `f` from
    /// `g`, i.e. the test patterns for the fault that changes `f` into `g`.
    ///
    /// # Panics
    ///
    /// Panics if the tables have different widths.
    pub fn xor(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a ^ b)
    }

    /// Iterates the rows at which the function is `true`, ascending.
    pub fn ones_iter(&self) -> impl Iterator<Item = u64> + '_ {
        // Scan words and pop set bits; the masked tail holds no stray ones.
        self.bits.iter().enumerate().flat_map(|(i, &word)| {
            let base = (i as u64) << 6;
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = u64::from(rest.trailing_zeros());
                    rest &= rest - 1;
                    base | bit
                })
            })
        })
    }

    /// The packed rows: bit `r & 63` of word `r >> 6` is row `r`. A table
    /// over fewer than 6 variables has one word with its tail bits clear.
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits
    }

    /// The packed rows for writing; callers keep the tail bits clear.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.bits
    }

    /// The positive cofactor `f[var := 1]` (table width shrinks by one).
    ///
    /// # Panics
    ///
    /// Panics if `var.index() >= nvars`.
    pub fn cofactor(&self, var: VarId, value: bool) -> Self {
        assert!(var.index() < self.nvars, "cofactor variable out of range");
        let mut out = Self::zeros(self.nvars - 1);
        let vbit = 1u64 << var.index();
        let low_mask = vbit - 1;
        for r in 0..out.len() {
            // Re-insert the cofactored variable's bit into the row index.
            let full = ((r & !low_mask) << 1) | (r & low_mask) | if value { vbit } else { 0 };
            out.set(r, self.get(full));
        }
        out
    }

    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(
            self.nvars, other.nvars,
            "truth tables over different variable counts"
        );
        let bits = self
            .bits
            .iter()
            .zip(&other.bits)
            .map(|(&a, &b)| f(a, b))
            .collect();
        let mut out = Self {
            nvars: self.nvars,
            bits,
        };
        out.mask_tail();
        out
    }

    fn word_count(nvars: usize) -> usize {
        if nvars >= 6 {
            1 << (nvars - 6)
        } else {
            1
        }
    }

    /// Zeroes bits beyond `2^nvars` in the final word (for `nvars < 6`).
    fn mask_tail(&mut self) {
        if self.nvars < 6 {
            let valid = 1u64 << self.len();
            let mask = valid.wrapping_sub(1);
            if let Some(last) = self.bits.last_mut() {
                *last &= mask;
            }
        }
    }
}

/// Variables 0–5 within one 64-row word: bit `r` of `VAR_PATTERNS[v]` is
/// bit `v` of `r`. Variables 6 and up are constant across a word.
pub(crate) const VAR_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Evaluates `expr` for the 64 consecutive rows in word `w`, vectorized.
///
/// Variables 0..=5 use fixed alternating masks; variable `i >= 6` is
/// constant within a word, determined by bit `i-6` of `w`.
fn eval_word_block(expr: &Bexpr, word_index: usize) -> u64 {
    match expr {
        Bexpr::Const(false) => 0,
        Bexpr::Const(true) => u64::MAX,
        Bexpr::Var(v) => {
            let i = v.index();
            if i < 6 {
                VAR_PATTERNS[i]
            } else if (word_index >> (i - 6)) & 1 == 1 {
                u64::MAX
            } else {
                0
            }
        }
        Bexpr::Not(e) => !eval_word_block(e, word_index),
        Bexpr::And(ts) => ts
            .iter()
            .fold(u64::MAX, |acc, t| acc & eval_word_block(t, word_index)),
        Bexpr::Or(ts) => ts
            .iter()
            .fold(0, |acc, t| acc | eval_word_block(t, word_index)),
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars; ", self.nvars)?;
        if self.nvars <= 6 {
            for r in (0..self.len()).rev() {
                write!(f, "{}", u8::from(self.get(r)))?;
            }
        } else {
            write!(f, "{} ones of {}", self.count_ones(), self.len())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::vars::VarTable;

    /// Builds a table with variables pre-interned as a,b,c,… so that the
    /// same letter maps to the same bit across calls.
    fn tt(s: &str, n: usize) -> TruthTable {
        let mut vars = VarTable::new();
        for name in ["a", "b", "c", "d", "e", "f", "g", "h"].iter().take(n) {
            vars.intern(name);
        }
        let e = parse_expr(s, &mut vars).unwrap();
        assert!(vars.len() <= n.max(vars.len()));
        TruthTable::from_expr(&e, n)
    }

    #[test]
    fn from_expr_matches_pointwise_eval() {
        let mut vars = VarTable::new();
        let e = parse_expr("a*(b+c)+/d*e+d*/a*g", &mut vars).unwrap();
        let n = vars.len();
        let t = TruthTable::from_expr(&e, n);
        for r in 0..(1u64 << n) {
            assert_eq!(t.get(r), e.eval_word(r), "row {r}");
        }
    }

    #[test]
    fn from_expr_wide_table_crosses_word_boundary() {
        // 8 vars = 4 words; exercise variables >= 6.
        let mut vars = VarTable::new();
        let e = parse_expr("a*h+g*/b", &mut vars).unwrap();
        for extra in ["c", "d", "e", "f"] {
            vars.intern(extra);
        }
        let n = 8.max(vars.len());
        let t = TruthTable::from_expr(&e, n);
        for r in 0..(1u64 << n) {
            assert_eq!(t.get(r), e.eval_word(r), "row {r}");
        }
    }

    #[test]
    fn zeros_ones_density() {
        let z = TruthTable::zeros(4);
        let o = TruthTable::ones(4);
        assert!(z.is_zero());
        assert!(o.is_one());
        assert_eq!(z.density(), 0.0);
        assert_eq!(o.density(), 1.0);
        assert_eq!(o.count_ones(), 16);
    }

    #[test]
    fn tail_masking_small_tables() {
        let o = TruthTable::ones(2);
        assert_eq!(o.count_ones(), 4);
        let n = o.not();
        assert!(n.is_zero());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut t = TruthTable::zeros(5);
        t.set(17, true);
        assert!(t.get(17));
        assert_eq!(t.count_ones(), 1);
        t.set(17, false);
        assert!(t.is_zero());
    }

    #[test]
    fn ones_iter_ascends_and_matches_get() {
        let mut state = 0x0123_4567_89AB_CDEFu64;
        for nvars in 0..=8 {
            // Sparse to full tables; widths below 6 have a masked tail in
            // their one word.
            for ones_per_4 in [1u64, 2, 3, 4] {
                let mut t = TruthTable::zeros(nvars);
                for r in 0..t.len() {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    t.set(r, (state >> 62) < ones_per_4);
                }
                let expected: Vec<u64> = (0..t.len()).filter(|&r| t.get(r)).collect();
                assert_eq!(t.ones_iter().collect::<Vec<_>>(), expected, "{t:?}");
            }
            assert_eq!(TruthTable::zeros(nvars).ones_iter().count(), 0);
            let negated = TruthTable::zeros(nvars).not();
            let all: Vec<u64> = (0..negated.len()).collect();
            assert_eq!(negated.ones_iter().collect::<Vec<_>>(), all);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        TruthTable::zeros(3).get(8);
    }

    #[test]
    fn pointwise_ops() {
        let a = tt("a", 2);
        let b = tt("b", 2);
        assert_eq!(a.and(&b), tt("a*b", 2));
        assert_eq!(a.or(&b), tt("a+b", 2));
        assert_eq!(a.xor(&b), tt("a*/b+/a*b", 2));
        assert_eq!(a.not(), tt("/a", 2));
    }

    #[test]
    fn xor_gives_distinguishing_patterns() {
        // Paper's fig. 9 gate vs its class-2 fault (a open -> u = d*e):
        // the tests for the fault are the rows where the functions differ.
        let good = tt("a*(b+c)+d*e", 5);
        let faulty = tt("d*e", 5);
        let diff = good.xor(&faulty);
        for r in diff.ones_iter() {
            assert_ne!(good.get(r), faulty.get(r));
        }
        assert!(diff.count_ones() > 0);
    }

    #[test]
    fn cofactor_shannon_expansion() {
        let mut vars = VarTable::new();
        let e = parse_expr("a*(b+c)+d*e", &mut vars).unwrap();
        let n = vars.len();
        let t = TruthTable::from_expr(&e, n);
        let a = vars.get("a").unwrap();
        let f0 = t.cofactor(a, false);
        let f1 = t.cofactor(a, true);
        // Verify Shannon cofactors against explicit substitution.
        let e0 = e.substitute(a, false);
        let e1 = e.substitute(a, true);
        for r in 0..(1u64 << (n - 1)) {
            // reinsert a at bit 0
            let full = r << 1;
            assert_eq!(f0.get(r), e0.eval_word(full));
            assert_eq!(f1.get(r), e1.eval_word(full | 1));
        }
    }

    #[test]
    fn fig9_gate_has_17_ones() {
        // u = a*(b+c)+d*e over 5 vars:
        // |a*(b+c)| = 1*3*4 = 12, |d*e| = 8, intersection = 3; union = 17.
        let t = tt("a*(b+c)+d*e", 5);
        assert_eq!(t.count_ones(), 17);
        let mut vars = VarTable::new();
        let e = parse_expr("a*(b+c)+d*e", &mut vars).unwrap();
        let direct = (0..32u64).filter(|&w| e.eval_word(w)).count() as u64;
        assert_eq!(t.count_ones(), direct);
    }

    #[test]
    #[should_panic(expected = "different variable counts")]
    fn zip_width_mismatch_panics() {
        let a = TruthTable::zeros(2);
        let b = TruthTable::zeros(3);
        let _ = a.and(&b);
    }

    #[test]
    fn debug_format_small_and_large() {
        let t = tt("a*b", 2);
        let s = format!("{t:?}");
        assert!(s.contains("2 vars"));
        let big = TruthTable::zeros(10);
        assert!(format!("{big:?}").contains("0 ones of 1024"));
    }
}
