//! Three-valued logic levels and node signal states.

use std::fmt;

/// A three-valued logic level: `0`, `1` or unknown/conflict `X`.
///
/// `X` arises from charge sharing between differently-charged nodes, from
/// supply shorts (both `Vdd` and `Vss` in one conducting component), from
/// oscillation, and from unknown transistor conduction.
///
/// # Example
///
/// ```
/// use dynmos_switch::Logic;
/// assert_eq!(Logic::from_bool(true), Logic::One);
/// assert_eq!(Logic::One.merge(Logic::Zero), Logic::X);
/// assert_eq!(Logic::One.merge(Logic::One), Logic::One);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum Logic {
    /// Logic low.
    Zero,
    /// Logic high.
    One,
    /// Unknown or conflicting.
    #[default]
    X,
}

impl Logic {
    /// Converts a `bool` into `Zero`/`One`.
    pub fn from_bool(b: bool) -> Self {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// Returns `Some(bool)` for definite levels, `None` for `X`.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            Logic::X => None,
        }
    }

    /// Lattice join: equal levels stay, different levels become `X`.
    pub fn merge(self, other: Logic) -> Logic {
        if self == other {
            self
        } else {
            Logic::X
        }
    }

    /// Logical complement (`X` stays `X`).
    pub fn invert(self) -> Logic {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X => Logic::X,
        }
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::X => 'X',
        };
        write!(f, "{c}")
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Self {
        Logic::from_bool(b)
    }
}

/// Signal strength: whether a node is actively driven (connected to a supply
/// or an external input through conducting transistors) or merely holding
/// stored charge.
///
/// The distinction is the crux of the paper: in static CMOS a stuck-open
/// fault can leave the output at `Charged` strength, turning the gate into a
/// memory element; in dynamic MOS (under assumptions A1/A2) it cannot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Strength {
    /// Holding charge only — the value survives until overwritten or decayed.
    #[default]
    Charged,
    /// Actively driven through a conducting path to a supply or input.
    Driven,
}

/// The full state of a node: level plus strength.
///
/// # Example
///
/// ```
/// use dynmos_switch::{Logic, Signal, Strength};
/// let s = Signal::driven(Logic::One);
/// assert_eq!(s.level, Logic::One);
/// assert_eq!(s.strength, Strength::Driven);
/// assert!(Signal::charged(Logic::Zero) < s); // driven beats charged
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Signal {
    /// Strength first so that `Ord` ranks driven above charged.
    pub strength: Strength,
    /// The logic level.
    pub level: Logic,
}

impl Signal {
    /// A driven signal at `level`.
    pub fn driven(level: Logic) -> Self {
        Self {
            strength: Strength::Driven,
            level,
        }
    }

    /// A charge-retained signal at `level`.
    pub fn charged(level: Logic) -> Self {
        Self {
            strength: Strength::Charged,
            level,
        }
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.strength {
            Strength::Driven => "D",
            Strength::Charged => "c",
        };
        write!(f, "{}{}", tag, self.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_commutative_and_idempotent() {
        for a in [Logic::Zero, Logic::One, Logic::X] {
            for b in [Logic::Zero, Logic::One, Logic::X] {
                assert_eq!(a.merge(b), b.merge(a));
            }
            assert_eq!(a.merge(a), a);
        }
    }

    #[test]
    fn merge_conflicts_to_x() {
        assert_eq!(Logic::Zero.merge(Logic::One), Logic::X);
        assert_eq!(Logic::X.merge(Logic::One), Logic::X);
    }

    #[test]
    fn invert() {
        assert_eq!(Logic::Zero.invert(), Logic::One);
        assert_eq!(Logic::One.invert(), Logic::Zero);
        assert_eq!(Logic::X.invert(), Logic::X);
    }

    #[test]
    fn bool_conversions() {
        assert_eq!(Logic::from_bool(true).to_bool(), Some(true));
        assert_eq!(Logic::from_bool(false).to_bool(), Some(false));
        assert_eq!(Logic::X.to_bool(), None);
        assert_eq!(Logic::from(true), Logic::One);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Signal::driven(Logic::One).to_string(), "D1");
        assert_eq!(Signal::charged(Logic::X).to_string(), "cX");
        assert_eq!(Logic::Zero.to_string(), "0");
    }
}
