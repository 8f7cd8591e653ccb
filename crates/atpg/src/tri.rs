//! Kleene three-valued logic for partial assignments.

use dynmos_logic::{Bexpr, VarId};
use std::fmt;

/// A three-valued (Kleene) logic value: `0`, `1` or unassigned `X`.
///
/// Used by the PODEM search to simulate the network under *partial*
/// primary-input assignments. Kleene evaluation is conservative: it may
/// report `X` where the value is actually determined (e.g. `a + /a`), but
/// never reports a wrong definite value — so pruning on definite values is
/// always sound.
///
/// # Example
///
/// ```
/// use dynmos_atpg::Tri;
/// assert_eq!(Tri::Zero.and(Tri::X), Tri::Zero); // controlling value
/// assert_eq!(Tri::One.and(Tri::X), Tri::X);
/// assert_eq!(Tri::One.or(Tri::X), Tri::One);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tri {
    /// Definite 0.
    Zero,
    /// Definite 1.
    One,
    /// Unassigned / unknown.
    #[default]
    X,
}

impl Tri {
    /// Converts a definite bool.
    pub(crate) fn from_bool(b: bool) -> Self {
        if b {
            Tri::One
        } else {
            Tri::Zero
        }
    }

    /// `Some(bool)` when definite.
    pub(crate) fn to_bool(self) -> Option<bool> {
        match self {
            Tri::Zero => Some(false),
            Tri::One => Some(true),
            Tri::X => None,
        }
    }

    /// Kleene conjunction (0 is controlling).
    pub fn and(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::Zero, _) | (_, Tri::Zero) => Tri::Zero,
            (Tri::One, Tri::One) => Tri::One,
            _ => Tri::X,
        }
    }

    /// Kleene disjunction (1 is controlling).
    pub fn or(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::One, _) | (_, Tri::One) => Tri::One,
            (Tri::Zero, Tri::Zero) => Tri::Zero,
            _ => Tri::X,
        }
    }

    /// Kleene negation.
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn not(self) -> Tri {
        match self {
            Tri::Zero => Tri::One,
            Tri::One => Tri::Zero,
            Tri::X => Tri::X,
        }
    }

    /// `true` when definite.
    pub(crate) fn is_known(self) -> bool {
        self != Tri::X
    }
}

impl fmt::Display for Tri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Tri::Zero => '0',
            Tri::One => '1',
            Tri::X => 'X',
        };
        write!(f, "{c}")
    }
}

impl From<bool> for Tri {
    fn from(b: bool) -> Self {
        Tri::from_bool(b)
    }
}

/// Kleene evaluation of an expression under a three-valued assignment.
///
/// # Example
///
/// ```
/// use dynmos_atpg::{Tri, tri::eval_tri};
/// use dynmos_logic::{parse_expr, VarTable};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut vars = VarTable::new();
/// let e = parse_expr("a*b+c", &mut vars)?;
/// // c=1 forces the output regardless of a,b.
/// let out = eval_tri(&e, &|v| if v.index() == 2 { Tri::One } else { Tri::X });
/// assert_eq!(out, Tri::One);
/// # Ok(())
/// # }
/// ```
pub fn eval_tri(expr: &Bexpr, assign: &impl Fn(VarId) -> Tri) -> Tri {
    match expr {
        Bexpr::Const(b) => Tri::from_bool(*b),
        Bexpr::Var(v) => assign(*v),
        Bexpr::Not(e) => eval_tri(e, assign).not(),
        Bexpr::And(ts) => ts
            .iter()
            .fold(Tri::One, |acc, t| acc.and(eval_tri(t, assign))),
        Bexpr::Or(ts) => ts
            .iter()
            .fold(Tri::Zero, |acc, t| acc.or(eval_tri(t, assign))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmos_logic::{parse_expr, VarTable};

    #[test]
    fn controlling_values_dominate_x() {
        assert_eq!(Tri::Zero.and(Tri::X), Tri::Zero);
        assert_eq!(Tri::X.and(Tri::Zero), Tri::Zero);
        assert_eq!(Tri::One.or(Tri::X), Tri::One);
        assert_eq!(Tri::X.or(Tri::One), Tri::One);
    }

    #[test]
    fn x_propagates_without_controlling_value() {
        assert_eq!(Tri::One.and(Tri::X), Tri::X);
        assert_eq!(Tri::Zero.or(Tri::X), Tri::X);
        assert_eq!(Tri::X.not(), Tri::X);
    }

    #[test]
    fn definite_operations_match_bool() {
        for a in [false, true] {
            for b in [false, true] {
                assert_eq!(
                    Tri::from_bool(a).and(Tri::from_bool(b)),
                    Tri::from_bool(a && b)
                );
                assert_eq!(
                    Tri::from_bool(a).or(Tri::from_bool(b)),
                    Tri::from_bool(a || b)
                );
            }
        }
    }

    #[test]
    fn kleene_is_pessimistic_on_tautologies() {
        // a + /a is 1 for definite a but X under Kleene with a=X — the
        // documented pessimism.
        let mut vars = VarTable::new();
        let e = parse_expr("a+/a", &mut vars).unwrap();
        assert_eq!(eval_tri(&e, &|_| Tri::X), Tri::X);
        assert_eq!(eval_tri(&e, &|_| Tri::One), Tri::One);
    }

    #[test]
    fn eval_tri_matches_eval_word_on_full_assignments() {
        let mut vars = VarTable::new();
        let e = parse_expr("a*(b+/c)+d", &mut vars).unwrap();
        for w in 0..16u64 {
            let out = eval_tri(&e, &|v| Tri::from_bool((w >> v.index()) & 1 == 1));
            assert_eq!(out.to_bool(), Some(e.eval_word(w)), "w={w}");
        }
    }

    #[test]
    fn display_and_conversions() {
        assert_eq!(Tri::X.to_string(), "X");
        assert_eq!(Tri::from(true), Tri::One);
        assert_eq!(Tri::Zero.to_bool(), Some(false));
        assert_eq!(Tri::X.to_bool(), None);
        assert!(!Tri::X.is_known());
    }
}
