//! Cubes (product terms) and covers (sums of products).
//!
//! A [`Cube`] is a product term over `n` variables; a [`Cover`] is a set of
//! cubes interpreted as their disjunction. These are the carriers for the
//! two-level minimization in [`crate::mindnf`], which produces the
//! "minimum disjunctive form" in which the paper's fault library stores
//! every faulty function.

use crate::expr::Bexpr;
use crate::vars::{VarId, VarTable};
use std::fmt;

/// A product term over `nvars` variables, encoded as `(care, value)` bit
/// masks: variable `i` appears in the cube iff bit `i` of `care` is set, and
/// then appears complemented iff bit `i` of `value` is clear.
///
/// The full-care cube with `care == (1<<n)-1` is a *minterm*.
///
/// # Example
///
/// ```
/// use dynmos_logic::Cube;
/// // a * /c over 3 vars: care = 0b101, value = 0b001
/// let cube = Cube::new(0b101, 0b001);
/// assert!(cube.contains(0b001)); // a=1, b=0, c=0
/// assert!(cube.contains(0b011)); // b is don't-care
/// assert!(!cube.contains(0b100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cube {
    care: u64,
    value: u64,
}

impl Cube {
    /// Creates a cube from care and value masks.
    ///
    /// Bits of `value` outside `care` are normalized to zero so that equal
    /// cubes compare equal.
    pub fn new(care: u64, value: u64) -> Self {
        Self {
            care,
            value: value & care,
        }
    }

    /// The minterm for input assignment `row` over `nvars` variables.
    pub fn minterm(row: u64, nvars: usize) -> Self {
        let care = if nvars >= 64 {
            u64::MAX
        } else {
            (1u64 << nvars) - 1
        };
        Self::new(care, row)
    }

    /// The universal cube (empty product, always true).
    pub(crate) fn universe() -> Self {
        Self { care: 0, value: 0 }
    }

    /// Care mask: which variables are bound.
    pub fn care(&self) -> u64 {
        self.care
    }

    /// Value mask: polarity of bound variables (within `care`).
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Number of literals in the product term.
    pub fn literal_count(&self) -> u32 {
        self.care.count_ones()
    }

    /// `true` if the assignment `row` satisfies the product term.
    #[inline]
    pub fn contains(&self, row: u64) -> bool {
        row & self.care == self.value
    }

    /// `true` if every assignment of `other` also satisfies `self`.
    pub fn covers(&self, other: &Cube) -> bool {
        // self's bound literals must be a subset of other's, with agreeing
        // polarity.
        self.care & other.care == self.care && other.value & self.care == self.value
    }

    /// Converts to a [`Bexpr`] product term.
    pub(crate) fn to_expr(self) -> Bexpr {
        let mut lits = Vec::new();
        let mut care = self.care;
        while care != 0 {
            let i = care.trailing_zeros();
            let v = Bexpr::var(VarId(i));
            lits.push(if (self.value >> i) & 1 == 1 {
                v
            } else {
                Bexpr::not(v)
            });
            care &= care - 1;
        }
        Bexpr::and(lits)
    }

    /// Pretty-prints as e.g. `a*/c` with names from `vars`; the universal
    /// cube prints as `1`.
    pub(crate) fn display<'a>(&'a self, vars: &'a VarTable) -> DisplayCube<'a> {
        DisplayCube { cube: self, vars }
    }
}

/// Borrowed pretty-printer returned by `Cube::display`.
#[derive(Debug, Clone, Copy)]
pub struct DisplayCube<'a> {
    cube: &'a Cube,
    vars: &'a VarTable,
}

impl fmt::Display for DisplayCube<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cube.care == 0 {
            return write!(f, "1");
        }
        let mut first = true;
        let mut care = self.cube.care;
        while care != 0 {
            let i = care.trailing_zeros();
            if !first {
                write!(f, "*")?;
            }
            first = false;
            if (self.cube.value >> i) & 1 == 0 {
                write!(f, "/")?;
            }
            write!(f, "{}", self.vars.name(VarId(i)))?;
            care &= care - 1;
        }
        Ok(())
    }
}

/// A sum of product terms over a fixed variable count.
///
/// # Example
///
/// ```
/// use dynmos_logic::{Cover, Cube};
/// let mut c = Cover::new(3);
/// c.push(Cube::new(0b011, 0b011)); // a*b
/// c.push(Cube::new(0b100, 0b100)); // c
/// assert!(c.contains(0b100));
/// assert!(!c.contains(0b001));
/// assert_eq!(c.literal_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cover {
    nvars: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// The empty cover (constant false) over `nvars` variables.
    pub fn new(nvars: usize) -> Self {
        Self {
            nvars,
            cubes: Vec::new(),
        }
    }

    /// Number of variables the cover ranges over.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// Adds a cube.
    pub fn push(&mut self, cube: Cube) {
        self.cubes.push(cube);
    }

    /// The cubes in insertion order.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// `true` if the cover is the constant-false empty cover.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// `true` if any cube contains `row`.
    pub fn contains(&self, row: u64) -> bool {
        self.cubes.iter().any(|c| c.contains(row))
    }

    /// Total literal count across cubes — the minimization cost function
    /// (ties between equal-cube-count covers are broken on literals).
    pub fn literal_count(&self) -> u32 {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// Converts to a disjunction [`Bexpr`].
    pub fn to_expr(&self) -> Bexpr {
        Bexpr::or(self.cubes.iter().map(|c| c.to_expr()).collect())
    }

    /// Pretty-prints as `term+term+…` (or `0` for the empty cover), with
    /// cubes sorted for a canonical, diff-friendly string.
    pub fn display<'a>(&'a self, vars: &'a VarTable) -> DisplayCover<'a> {
        DisplayCover { cover: self, vars }
    }
}

impl FromIterator<Cube> for Cover {
    /// Collects cubes into a cover; the variable count is set to the highest
    /// bound variable + 1.
    fn from_iter<I: IntoIterator<Item = Cube>>(iter: I) -> Self {
        let cubes: Vec<Cube> = iter.into_iter().collect();
        let nvars = cubes
            .iter()
            .map(|c| 64 - c.care().leading_zeros() as usize)
            .max()
            .unwrap_or(0);
        Self { nvars, cubes }
    }
}

impl Extend<Cube> for Cover {
    fn extend<I: IntoIterator<Item = Cube>>(&mut self, iter: I) {
        self.cubes.extend(iter);
    }
}

/// Borrowed pretty-printer returned by [`Cover::display`].
#[derive(Debug, Clone, Copy)]
pub struct DisplayCover<'a> {
    cover: &'a Cover,
    vars: &'a VarTable,
}

impl fmt::Display for DisplayCover<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cover.cubes.is_empty() {
            return write!(f, "0");
        }
        let mut sorted = self.cover.cubes.clone();
        sorted.sort();
        for (i, c) in sorted.iter().enumerate() {
            if i > 0 {
                write!(f, "+")?;
            }
            write!(f, "{}", c.display(self.vars))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minterm_binds_all_vars() {
        let m = Cube::minterm(0b101, 3);
        assert_eq!(m.literal_count(), 3);
        assert!(m.contains(0b101));
        assert!(!m.contains(0b111));
    }

    #[test]
    fn value_normalized_to_care() {
        let c = Cube::new(0b001, 0b111);
        assert_eq!(c.value(), 0b001);
        assert_eq!(c, Cube::new(0b001, 0b001));
    }

    #[test]
    fn universe_contains_everything() {
        let u = Cube::universe();
        for r in 0..16 {
            assert!(u.contains(r));
        }
        assert_eq!(u.literal_count(), 0);
    }

    #[test]
    fn covers_relation() {
        let a = Cube::new(0b01, 0b01); // a
        let ab = Cube::new(0b11, 0b11); // a*b
        assert!(a.covers(&ab));
        assert!(!ab.covers(&a));
        assert!(a.covers(&a));
        let nb = Cube::new(0b10, 0b00); // /b
        assert!(!a.covers(&nb));
    }

    #[test]
    fn cube_to_expr_and_back() {
        let c = Cube::new(0b101, 0b001); // a*/c
        let e = c.to_expr();
        for r in 0..8u64 {
            assert_eq!(e.eval_word(r), c.contains(r));
        }
    }

    #[test]
    fn cube_display_polarity() {
        let mut vars = VarTable::new();
        for n in ["a", "b", "c"] {
            vars.intern(n);
        }
        let c = Cube::new(0b101, 0b001);
        assert_eq!(c.display(&vars).to_string(), "a*/c");
        assert_eq!(Cube::universe().display(&vars).to_string(), "1");
    }

    #[test]
    fn cover_semantics_is_disjunction() {
        let mut cov = Cover::new(2);
        cov.push(Cube::new(0b01, 0b01)); // a
        cov.push(Cube::new(0b10, 0b10)); // b
        for r in 0..4u64 {
            assert_eq!(cov.contains(r), r != 0);
        }
        let e = cov.to_expr();
        for r in 0..4u64 {
            assert_eq!(e.eval_word(r), cov.contains(r));
        }
    }

    #[test]
    fn empty_cover_is_false() {
        let cov = Cover::new(3);
        assert!(cov.is_empty());
        assert!(!cov.contains(0));
        assert_eq!(cov.to_expr(), Bexpr::FALSE);
        let vars = VarTable::new();
        assert_eq!(cov.display(&vars).to_string(), "0");
    }

    #[test]
    fn cover_display_is_sorted_canonical() {
        let mut vars = VarTable::new();
        for n in ["a", "b"] {
            vars.intern(n);
        }
        let mut c1 = Cover::new(2);
        c1.push(Cube::new(0b10, 0b10));
        c1.push(Cube::new(0b01, 0b01));
        let mut c2 = Cover::new(2);
        c2.push(Cube::new(0b01, 0b01));
        c2.push(Cube::new(0b10, 0b10));
        assert_eq!(c1.display(&vars).to_string(), c2.display(&vars).to_string());
    }

    #[test]
    fn from_iterator_infers_nvars() {
        let cov: Cover = vec![Cube::new(0b100, 0b100)].into_iter().collect();
        assert_eq!(cov.nvars(), 3);
        assert_eq!(cov.len(), 1);
    }
}
