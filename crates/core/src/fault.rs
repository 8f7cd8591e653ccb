//! The physical fault universe.

use dynmos_logic::{Bexpr, VarId, VarTable};
use dynmos_netlist::{Cell, Technology};
use std::fmt;

/// One physical fault of the paper's model, addressed the way the paper
/// addresses them.
///
/// `site` indices refer to the literal occurrences of the cell's
/// transmission function in left-to-right order (each literal is one
/// switch transistor of `SN`); see [`Cell::literal_sites`].
///
/// [`Cell::literal_sites`]: dynmos_netlist::Cell::literal_sites
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhysicalFault {
    /// Switch transistor at `site` (gated by `var`) permanently closed.
    /// Paper: `nMOS-(n+i)` for dynamic nMOS; "a closed" in the Fig. 9
    /// table.
    SwitchClosed {
        /// Literal site index.
        site: usize,
        /// The input variable gating this transistor.
        var: VarId,
    },
    /// Switch transistor at `site` permanently open (also models an open
    /// source/drain connection at that transistor). Paper: `nMOS-i`;
    /// "a open".
    SwitchOpen {
        /// Literal site index.
        site: usize,
        /// The input variable gating this transistor.
        var: VarId,
    },
    /// Open connection on the input line of `var`: *every* transistor
    /// gated by `var` loses its gate signal, which reads low under A1.
    InputLineOpen {
        /// The affected input variable.
        var: VarId,
    },
    /// Precharge transistor permanently open (`nMOS-(2n+1)`; `CMOS-4`).
    PrechargeOpen,
    /// Precharge transistor permanently closed (`nMOS-(2n+2)`; `CMOS-3`).
    PrechargeClosed,
    /// Evaluate/foot transistor permanently open (`CMOS-2`; domino only).
    EvaluateOpen,
    /// Evaluate/foot transistor permanently closed (`CMOS-1`; domino
    /// only) — the redundant, timing-only fault.
    EvaluateClosed,
    /// Output inverter p-transistor permanently open (domino only).
    InverterPOpen,
    /// Output inverter p-transistor permanently closed (domino only).
    InverterPClosed,
    /// Output inverter n-transistor permanently open (domino only).
    InverterNOpen,
    /// Output inverter n-transistor permanently closed (domino only).
    InverterNClosed,
    /// Classic stuck-at on input `var` (used for the static technologies,
    /// where the paper applies "the common stuck-at fault model").
    InputStuck {
        /// The affected input.
        var: VarId,
        /// Stuck value.
        value: bool,
    },
    /// Classic stuck-at on the output.
    OutputStuck {
        /// Stuck value.
        value: bool,
    },
}

impl PhysicalFault {
    /// The paper-style display name, using `vars` for input names (e.g.
    /// "a closed", "CMOS-2", "s0-b"). Clocking-transistor faults use the
    /// domino names; for technology-aware naming (the paper's
    /// `nMOS-(2n+1)` style) use `PhysicalFault::display_for`.
    pub fn display<'a>(&'a self, vars: &'a VarTable) -> DisplayFault<'a> {
        DisplayFault {
            fault: self,
            vars,
            tech: Technology::DominoCmos,
        }
    }

    /// Technology-aware display: dynamic nMOS precharge faults print as
    /// the paper's `Tn+1 open` / `Tn+1 closed` instead of the domino
    /// `CMOS-4` / `CMOS-3` names.
    pub(crate) fn display_for<'a>(
        &'a self,
        vars: &'a VarTable,
        tech: Technology,
    ) -> DisplayFault<'a> {
        DisplayFault {
            fault: self,
            vars,
            tech,
        }
    }
}

/// Borrowed pretty-printer returned by [`PhysicalFault::display`].
#[derive(Debug, Clone, Copy)]
pub struct DisplayFault<'a> {
    fault: &'a PhysicalFault,
    vars: &'a VarTable,
    tech: Technology,
}

impl fmt::Display for DisplayFault<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.fault {
            PhysicalFault::SwitchClosed { var, .. } => {
                write!(f, "{} closed", self.vars.name(*var))
            }
            PhysicalFault::SwitchOpen { var, .. } => write!(f, "{} open", self.vars.name(*var)),
            PhysicalFault::InputLineOpen { var } => {
                write!(f, "{} line open", self.vars.name(*var))
            }
            PhysicalFault::PrechargeOpen => match self.tech {
                Technology::DynamicNmos => write!(f, "Tn+1 open"),
                _ => write!(f, "CMOS-4"),
            },
            PhysicalFault::PrechargeClosed => match self.tech {
                Technology::DynamicNmos => write!(f, "Tn+1 closed"),
                _ => write!(f, "CMOS-3"),
            },
            PhysicalFault::EvaluateOpen => write!(f, "CMOS-2"),
            PhysicalFault::EvaluateClosed => write!(f, "CMOS-1"),
            PhysicalFault::InverterPOpen => write!(f, "INV-p open"),
            PhysicalFault::InverterPClosed => write!(f, "INV-p closed"),
            PhysicalFault::InverterNOpen => write!(f, "INV-n open"),
            PhysicalFault::InverterNClosed => write!(f, "INV-n closed"),
            PhysicalFault::InputStuck { var, value } => {
                write!(f, "s{}-{}", u8::from(*value), self.vars.name(*var))
            }
            PhysicalFault::OutputStuck { value } => write!(f, "s{}-z", u8::from(*value)),
        }
    }
}

/// Which faults to enumerate for a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultUniverse {
    /// Include per-input gate-line opens (merge into switch-open classes
    /// for single-occurrence inputs; the paper's table omits them).
    pub include_line_opens: bool,
    /// Include the domino output-inverter faults (the paper discusses them
    /// in prose but omits them from the Fig. 9 table).
    pub include_inverter: bool,
}

impl FaultUniverse {
    /// The universe the paper's section-5 table enumerates: switch faults
    /// plus the clocking-transistor faults.
    pub fn paper_table() -> Self {
        Self {
            include_line_opens: false,
            include_inverter: false,
        }
    }

    /// Everything: line opens and inverter faults included.
    pub fn full() -> Self {
        Self {
            include_line_opens: true,
            include_inverter: true,
        }
    }

    /// Whether `fault` is in this universe. [`enumerate_faults`] lists a
    /// cell's faults of this universe as exactly those of
    /// [`FaultUniverse::full`] for which this holds, in the same order.
    pub fn contains(&self, fault: &PhysicalFault) -> bool {
        match fault {
            PhysicalFault::InputLineOpen { .. } => self.include_line_opens,
            PhysicalFault::InverterPOpen
            | PhysicalFault::InverterPClosed
            | PhysicalFault::InverterNOpen
            | PhysicalFault::InverterNClosed => self.include_inverter,
            _ => true,
        }
    }

    /// Whether every fault of `other` is in this universe.
    pub fn includes(&self, other: FaultUniverse) -> bool {
        (self.include_line_opens || !other.include_line_opens)
            && (self.include_inverter || !other.include_inverter)
    }
}

impl Default for FaultUniverse {
    fn default() -> Self {
        Self::paper_table()
    }
}

/// Enumerates the physical faults of `cell` for its technology, in the
/// paper's presentation order.
///
/// * Domino CMOS: per input variable (sites in left-to-right order)
///   `closed` then `open`, then `CMOS-2`, `CMOS-3`, `CMOS-4`, `CMOS-1`
///   (the order in which the Fig. 9 table assigns class numbers), then
///   optional line opens and inverter faults.
/// * Dynamic nMOS: `nMOS-1…n` (opens), `nMOS-(n+1)…2n` (closes),
///   `nMOS-(2n+1)` (precharge open), `nMOS-(2n+2)` (precharge closed),
///   then optional line opens.
/// * Static technologies: the common stuck-at model on inputs and output.
pub fn enumerate_faults(cell: &Cell, universe: FaultUniverse) -> Vec<PhysicalFault> {
    let sites = cell.literal_sites();
    let mut out = Vec::new();
    match cell.technology() {
        Technology::DominoCmos => {
            for &(site, var) in &sites {
                out.push(PhysicalFault::SwitchClosed { site, var });
                out.push(PhysicalFault::SwitchOpen { site, var });
            }
            out.push(PhysicalFault::EvaluateOpen); // CMOS-2
            out.push(PhysicalFault::PrechargeClosed); // CMOS-3
            out.push(PhysicalFault::PrechargeOpen); // CMOS-4
            out.push(PhysicalFault::EvaluateClosed); // CMOS-1
            if universe.include_inverter {
                out.push(PhysicalFault::InverterPOpen);
                out.push(PhysicalFault::InverterPClosed);
                out.push(PhysicalFault::InverterNOpen);
                out.push(PhysicalFault::InverterNClosed);
            }
            if universe.include_line_opens {
                for v in 0..cell.input_count() {
                    out.push(PhysicalFault::InputLineOpen {
                        var: VarId(v as u32),
                    });
                }
            }
        }
        Technology::DynamicNmos => {
            for &(site, var) in &sites {
                out.push(PhysicalFault::SwitchOpen { site, var });
            }
            for &(site, var) in &sites {
                out.push(PhysicalFault::SwitchClosed { site, var });
            }
            out.push(PhysicalFault::PrechargeOpen);
            out.push(PhysicalFault::PrechargeClosed);
            if universe.include_line_opens {
                for v in 0..cell.input_count() {
                    out.push(PhysicalFault::InputLineOpen {
                        var: VarId(v as u32),
                    });
                }
            }
        }
        Technology::StaticCmos | Technology::NmosPullDown | Technology::Bipolar => {
            for v in 0..cell.input_count() {
                let var = VarId(v as u32);
                out.push(PhysicalFault::InputStuck { var, value: false });
                out.push(PhysicalFault::InputStuck { var, value: true });
            }
            out.push(PhysicalFault::OutputStuck { value: false });
            out.push(PhysicalFault::OutputStuck { value: true });
        }
    }
    out
}

/// Replaces the `site`-th literal occurrence (left-to-right) of `expr`
/// with the constant `value`, leaving other occurrences of the same
/// variable untouched.
///
/// This is how a single stuck-open/closed switch transistor edits the
/// transmission function: only *its* branch of `SN` changes.
///
/// # Panics
///
/// Panics if `site` is not a valid literal index of `expr`.
///
/// # Example
///
/// ```
/// use dynmos_core::substitute_site;
/// use dynmos_logic::{parse_expr, VarTable};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut vars = VarTable::new();
/// let t = parse_expr("a*b+a*c", &mut vars)?;
/// // Open only the FIRST a-transistor: a*b + a*c -> 0*b + a*c = a*c.
/// let faulty = substitute_site(&t, 0, false);
/// let expect = parse_expr("a*c", &mut vars)?;
/// for w in 0..8 {
///     assert_eq!(faulty.eval_word(w), expect.eval_word(w));
/// }
/// # Ok(())
/// # }
/// ```
pub fn substitute_site(expr: &Bexpr, site: usize, value: bool) -> Bexpr {
    let mut counter = 0usize;
    let result = walk(expr, site, value, &mut counter);
    assert!(
        counter > site,
        "site {site} out of range: expression has only {counter} literals"
    );
    result
}

fn walk(expr: &Bexpr, site: usize, value: bool, counter: &mut usize) -> Bexpr {
    match expr {
        Bexpr::Const(b) => Bexpr::Const(*b),
        Bexpr::Var(v) => {
            let here = *counter;
            *counter += 1;
            if here == site {
                Bexpr::Const(value)
            } else {
                Bexpr::Var(*v)
            }
        }
        Bexpr::Not(e) => Bexpr::not(walk(e, site, value, counter)),
        Bexpr::And(ts) => Bexpr::and(ts.iter().map(|t| walk(t, site, value, counter)).collect()),
        Bexpr::Or(ts) => Bexpr::or(ts.iter().map(|t| walk(t, site, value, counter)).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmos_logic::parse_expr;
    use dynmos_netlist::generate::fig9_cell;
    use dynmos_netlist::parse_cell;

    #[test]
    fn fig9_paper_table_enumeration_order() {
        let cell = fig9_cell();
        let faults = enumerate_faults(&cell, FaultUniverse::paper_table());
        let vt = cell.var_table();
        let names: Vec<String> = faults.iter().map(|f| f.display(&vt).to_string()).collect();
        assert_eq!(
            names,
            vec![
                "a closed", "a open", "b closed", "b open", "c closed", "c open", "d closed",
                "d open", "e closed", "e open", "CMOS-2", "CMOS-3", "CMOS-4", "CMOS-1",
            ]
        );
    }

    #[test]
    fn full_universe_adds_line_opens_and_inverter() {
        let cell = fig9_cell();
        let base = enumerate_faults(&cell, FaultUniverse::paper_table()).len();
        let full = enumerate_faults(&cell, FaultUniverse::full()).len();
        // +5 line opens +4 inverter faults
        assert_eq!(full, base + 9);
    }

    #[test]
    fn dynamic_nmos_numbering_matches_paper() {
        // nMOS-1..n opens, nMOS-n+1..2n closes, 2n+1 precharge open,
        // 2n+2 precharge closed.
        let cell = parse_cell(
            "g",
            "TECHNOLOGY dynamic-nMOS; INPUT a,b; OUTPUT z; z := a*b;",
        )
        .unwrap();
        let faults = enumerate_faults(&cell, FaultUniverse::paper_table());
        assert_eq!(faults.len(), 2 * 2 + 2);
        assert!(matches!(
            faults[0],
            PhysicalFault::SwitchOpen { site: 0, .. }
        ));
        assert!(matches!(
            faults[1],
            PhysicalFault::SwitchOpen { site: 1, .. }
        ));
        assert!(matches!(
            faults[2],
            PhysicalFault::SwitchClosed { site: 0, .. }
        ));
        assert!(matches!(faults[4], PhysicalFault::PrechargeOpen));
        assert!(matches!(faults[5], PhysicalFault::PrechargeClosed));
    }

    #[test]
    fn static_technologies_get_stuck_at_universe() {
        let cell = parse_cell(
            "g",
            "TECHNOLOGY static-CMOS; INPUT a,b; OUTPUT z; z := a+b;",
        )
        .unwrap();
        let faults = enumerate_faults(&cell, FaultUniverse::paper_table());
        // 2 inputs x 2 polarities + 2 output faults
        assert_eq!(faults.len(), 6);
        assert!(matches!(
            faults[0],
            PhysicalFault::InputStuck { value: false, .. }
        ));
        assert!(matches!(
            faults[5],
            PhysicalFault::OutputStuck { value: true }
        ));
    }

    #[test]
    fn substitute_site_targets_single_occurrence() {
        let mut vars = VarTable::new();
        let t = parse_expr("a*b+a*c", &mut vars).unwrap();
        // Site 2 is the second 'a'.
        let faulty = substitute_site(&t, 2, false);
        let expect = parse_expr("a*b", &mut vars).unwrap();
        for w in 0..8u64 {
            assert_eq!(faulty.eval_word(w), expect.eval_word(w), "w={w}");
        }
    }

    #[test]
    fn substitute_site_closed_shorts_literal() {
        let mut vars = VarTable::new();
        let t = parse_expr("a*(b+c)", &mut vars).unwrap();
        // Close 'b' (site 1): a*(1+c) = a.
        let faulty = substitute_site(&t, 1, true);
        for w in 0..8u64 {
            assert_eq!(faulty.eval_word(w), w & 1 == 1, "w={w}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn substitute_site_out_of_range_panics() {
        let mut vars = VarTable::new();
        let t = parse_expr("a*b", &mut vars).unwrap();
        substitute_site(&t, 2, false);
    }

    #[test]
    fn display_names() {
        let cell = fig9_cell();
        let vt = cell.var_table();
        assert_eq!(
            PhysicalFault::InputStuck {
                var: VarId(0),
                value: false
            }
            .display(&vt)
            .to_string(),
            "s0-a"
        );
        assert_eq!(
            PhysicalFault::OutputStuck { value: true }
                .display(&vt)
                .to_string(),
            "s1-z"
        );
        assert_eq!(
            PhysicalFault::InputLineOpen { var: VarId(2) }
                .display(&vt)
                .to_string(),
            "c line open"
        );
    }
}
