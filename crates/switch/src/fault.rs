//! Switch-level fault injection.
//!
//! The paper's "commonly used physical fault model for basic logical cells"
//! (section 3) consists of:
//!
//! * a connection is open,
//! * a transistor is permanently open,
//! * a transistor is permanently closed.
//!
//! [`SwitchFault`] enumerates these at the switch level. An open *gate line*
//! is special: assumption **A1** says an open gate with no connection to
//! power reads logic low (it loses its charge). [`FaultSet::a1_enabled`]
//! controls whether A1 is applied (the default) or the gate floats to `X`,
//! which is useful for demonstrating *why* the paper needs A1.

use crate::circuit::TransistorId;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// One physical fault of the paper's fault model, at switch level.
///
/// Source/drain connection opens are electrically equivalent to the
/// adjacent transistor being stuck open (the paper folds them together:
/// "Open drain-source connections in SN also remain combinational"), so the
/// enum needs no separate variant for them — inject [`SwitchFault::StuckOpen`]
/// on the transistor whose terminal lost its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchFault {
    /// Transistor can never conduct (stuck-open), also modelling an open
    /// source or drain connection.
    StuckOpen(TransistorId),
    /// Transistor always conducts (stuck-closed / shorted channel).
    StuckClosed(TransistorId),
    /// The line into the transistor's gate is open: under A1 the gate reads
    /// a constant low; with A1 disabled it reads `X`.
    GateOpen(TransistorId),
    /// The channel is resistive rather than cleanly open/closed: the
    /// on-resistance is multiplied by the given factor. Purely a timing
    /// fault — conduction logic is unchanged. Used for fault class CMOS-3b.
    Resistive(TransistorId, ResistanceScale),
}

/// Multiplier applied to a transistor's on-resistance by
/// [`SwitchFault::Resistive`]. Wrapped so the fault enum stays `Eq`/`Hash`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResistanceScale(pub f64);

impl Eq for ResistanceScale {}

#[allow(clippy::derived_hash_with_manual_eq)]
impl std::hash::Hash for ResistanceScale {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl fmt::Display for SwitchFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchFault::StuckOpen(t) => write!(f, "{t} stuck-open"),
            SwitchFault::StuckClosed(t) => write!(f, "{t} stuck-closed"),
            SwitchFault::GateOpen(t) => write!(f, "{t} gate-line open"),
            SwitchFault::Resistive(t, s) => write!(f, "{t} resistive x{}", s.0),
        }
    }
}

/// A set of simultaneously injected faults plus the A1 policy.
///
/// Most experiments inject a single fault, but the set form also supports
/// multiple-fault studies.
///
/// # Example
///
/// ```
/// use dynmos_switch::{FaultSet, TransistorId};
/// let mut faults = FaultSet::new();
/// faults.stuck_open(TransistorId(3));
/// assert!(faults.is_open(TransistorId(3)));
/// assert!(!faults.is_closed(TransistorId(3)));
/// assert!(faults.a1_enabled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultSet {
    open: HashSet<TransistorId>,
    closed: HashSet<TransistorId>,
    gate_open: HashSet<TransistorId>,
    resistance_scale: HashMap<TransistorId, f64>,
    a1_disabled: bool,
}

impl FaultSet {
    /// The empty, fault-free set with A1 enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from a single fault.
    pub fn single(fault: SwitchFault) -> Self {
        let mut s = Self::new();
        s.inject(fault);
        s
    }

    /// Injects `fault` into the set.
    pub fn inject(&mut self, fault: SwitchFault) {
        match fault {
            SwitchFault::StuckOpen(t) => {
                self.open.insert(t);
            }
            SwitchFault::StuckClosed(t) => {
                self.closed.insert(t);
            }
            SwitchFault::GateOpen(t) => {
                self.gate_open.insert(t);
            }
            SwitchFault::Resistive(t, s) => {
                self.resistance_scale.insert(t, s.0);
            }
        }
    }

    /// Shorthand for injecting [`SwitchFault::StuckOpen`].
    pub fn stuck_open(&mut self, t: TransistorId) -> &mut Self {
        self.open.insert(t);
        self
    }

    /// Disables assumption A1: open gate lines read `X` instead of low.
    pub fn disable_a1(&mut self) -> &mut Self {
        self.a1_disabled = true;
        self
    }

    /// `true` if A1 (open gates read low) is in effect.
    pub fn a1_enabled(&self) -> bool {
        !self.a1_disabled
    }

    /// `true` if transistor `t` is stuck open.
    pub fn is_open(&self, t: TransistorId) -> bool {
        self.open.contains(&t)
    }

    /// `true` if transistor `t` is stuck closed.
    pub fn is_closed(&self, t: TransistorId) -> bool {
        self.closed.contains(&t)
    }

    /// `true` if transistor `t`'s gate line is open.
    pub(crate) fn is_gate_open(&self, t: TransistorId) -> bool {
        self.gate_open.contains(&t)
    }

    /// Resistance multiplier for `t` (1.0 when unfaulted).
    pub(crate) fn resistance_scale(&self, t: TransistorId) -> f64 {
        self.resistance_scale.get(&t).copied().unwrap_or(1.0)
    }

    /// `true` when no fault is injected (the fault-free machine).
    pub fn is_fault_free(&self) -> bool {
        self.open.is_empty()
            && self.closed.is_empty()
            && self.gate_open.is_empty()
            && self.resistance_scale.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_is_fault_free() {
        let f = FaultSet::new();
        assert!(f.is_fault_free());
        assert!(f.a1_enabled());
        assert!(!f.is_open(TransistorId(0)));
        assert_eq!(f.resistance_scale(TransistorId(0)), 1.0);
    }

    #[test]
    fn single_constructor_routes_by_variant() {
        let t = TransistorId(2);
        assert!(FaultSet::single(SwitchFault::StuckOpen(t)).is_open(t));
        assert!(FaultSet::single(SwitchFault::StuckClosed(t)).is_closed(t));
        assert!(FaultSet::single(SwitchFault::GateOpen(t)).is_gate_open(t));
        let r = FaultSet::single(SwitchFault::Resistive(t, ResistanceScale(8.0)));
        assert_eq!(r.resistance_scale(t), 8.0);
        assert!(!r.is_fault_free());
    }

    #[test]
    fn a1_toggle() {
        let mut f = FaultSet::new();
        assert!(f.a1_enabled());
        f.disable_a1();
        assert!(!f.a1_enabled());
    }

    #[test]
    fn display_is_informative() {
        let t = TransistorId(7);
        assert_eq!(SwitchFault::StuckOpen(t).to_string(), "t7 stuck-open");
        assert_eq!(
            SwitchFault::Resistive(t, ResistanceScale(4.0)).to_string(),
            "t7 resistive x4"
        );
    }

    #[test]
    fn resistance_scale_eq_hash_consistent() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(SwitchFault::Resistive(
            TransistorId(0),
            ResistanceScale(2.0),
        ));
        assert!(s.contains(&SwitchFault::Resistive(
            TransistorId(0),
            ResistanceScale(2.0)
        )));
        assert!(!s.contains(&SwitchFault::Resistive(
            TransistorId(0),
            ResistanceScale(3.0)
        )));
    }
}
