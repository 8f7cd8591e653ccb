//! The section-3 theorems: physical fault → logical fault effect.
//!
//! For dynamic nMOS (under assumptions A1 and A2):
//!
//! | fault | effect |
//! |---|---|
//! | `nMOS-i` (Tᵢ open)         | `s0` at that literal site |
//! | `nMOS-(n+i)` (Tᵢ closed)   | `s1` at that literal site |
//! | `nMOS-(2n+1)` (Tₙ₊₁ open)  | `s0-z` |
//! | `nMOS-(2n+2)` (Tₙ₊₁ closed)| `s0-z` (the paper's "very interesting fact": both precharge faults collapse) |
//!
//! For domino CMOS:
//!
//! | fault | effect |
//! |---|---|
//! | SN transistor open/closed | literal site `s0`/`s1` |
//! | `CMOS-1` (T2 closed)      | timing only, possibly undetectable |
//! | `CMOS-2` (T2 open)        | `s0-z` |
//! | `CMOS-3` (T1 closed)      | `s0-z`; detection may require maximum speed (case b) |
//! | `CMOS-4` (T1 open)        | `s1-z` (by A1) |
//! | inverter p open           | `s0-z` |
//! | inverter n open           | `s1-z` (by A2) |
//! | inverter p/n closed       | like `CMOS-3`: ratioed, at-speed |

use crate::fault::{substitute_site, PhysicalFault};
use dynmos_logic::Bexpr;
use dynmos_netlist::{Cell, Technology};
use std::fmt;

/// A named stuck-at fault (the paper's `s0-i`/`s1-i`/`s0-z`/`s1-z`
/// shorthand).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StuckAt {
    /// Input `var` stuck at `value` (all its fanout inside the cell).
    Input {
        /// The affected input.
        var: dynmos_logic::VarId,
        /// The stuck value.
        value: bool,
    },
    /// Output stuck at `value`.
    Output {
        /// The stuck value.
        value: bool,
    },
}

/// How the fault must be detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectionRequirement {
    /// Any functional test pattern distinguishing the functions works.
    Standard,
    /// The logical effect only materializes at full clock rate (the
    /// paper's CMOS-3 case b: the slow path "needs more time (perhaps
    /// infinite)"); slow external testers miss it.
    AtSpeed,
    /// No logical effect at all: the fault changes timing margins only and
    /// may be undetectable (the paper's CMOS-1 redundancy).
    TimingOnly,
}

/// The logical effect of one physical fault on one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEffect {
    /// The faulty output function over the cell's input variables; equals
    /// the fault-free function for timing-only faults.
    pub function: Bexpr,
    /// Detection requirement.
    pub requirement: DetectionRequirement,
    /// The stuck-at name when the faulty function coincides with one
    /// (`None` for general function changes).
    pub stuck_at: Option<StuckAt>,
}

impl fmt::Display for FaultEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.requirement {
            DetectionRequirement::Standard => write!(f, "functional"),
            DetectionRequirement::AtSpeed => write!(f, "functional (at speed)"),
            DetectionRequirement::TimingOnly => write!(f, "timing only"),
        }
    }
}

/// Classifies one physical fault of `cell` per the paper's section-3
/// theorems, returning the faulty output function and detection
/// requirement.
///
/// # Panics
///
/// Panics if the fault kind does not exist in the cell's technology (e.g.
/// `CMOS-2` on a dynamic nMOS cell) or a site index is out of range.
pub fn classify(cell: &Cell, fault: PhysicalFault) -> FaultEffect {
    let tech = cell.technology();
    let transmission = cell.transmission();
    let invert = tech.output_is_inverted();
    // Output function from a (possibly edited) transmission function.
    let out_fn = |t: Bexpr| -> Bexpr {
        if invert {
            Bexpr::not(t)
        } else {
            t
        }
    };

    match fault {
        PhysicalFault::SwitchOpen { site, var } => {
            assert!(
                tech.uses_dynamic_fault_model(),
                "switch faults are enumerated for dynamic technologies"
            );
            let t = substitute_site(transmission, site, false);
            let function = out_fn(t);
            let stuck_at = single_occurrence_stuck(cell, var, false);
            FaultEffect {
                function,
                requirement: DetectionRequirement::Standard,
                stuck_at,
            }
        }
        PhysicalFault::SwitchClosed { site, var } => {
            assert!(
                tech.uses_dynamic_fault_model(),
                "switch faults are enumerated for dynamic technologies"
            );
            let t = substitute_site(transmission, site, true);
            let function = out_fn(t);
            let stuck_at = single_occurrence_stuck(cell, var, true);
            FaultEffect {
                function,
                requirement: DetectionRequirement::Standard,
                stuck_at,
            }
        }
        PhysicalFault::InputLineOpen { var } => {
            // A1: the whole line reads low -> input stuck-at-0.
            let t = transmission.substitute(var, false);
            FaultEffect {
                function: out_fn(t),
                requirement: DetectionRequirement::Standard,
                stuck_at: Some(StuckAt::Input { var, value: false }),
            }
        }
        PhysicalFault::PrechargeOpen => match tech {
            // nMOS-(2n+1): z was discharged once (A2) and can never be
            // pulled up again -> s0-z.
            Technology::DynamicNmos => stuck_output(false, DetectionRequirement::Standard),
            // CMOS-4: y never precharged, reads low by A1; the inverter
            // turns that into a constant high output -> s1-z.
            Technology::DominoCmos => stuck_output(true, DetectionRequirement::Standard),
            other => panic!("precharge fault undefined for {other}"),
        },
        PhysicalFault::PrechargeClosed => match tech {
            // nMOS-(2n+2): conducting path from the clock rail pulls the
            // output down whenever the clock is low -> s0-z. The paper:
            // "both cases ... result in the same fault s0-z".
            Technology::DynamicNmos => stuck_output(false, DetectionRequirement::Standard),
            // CMOS-3: y is held high against the pull-down; case (a)
            // strong short -> z stuck low; case (b) resistive -> slow,
            // detected as s0-z only by maximum-speed testing.
            Technology::DominoCmos => stuck_output(false, DetectionRequirement::AtSpeed),
            other => panic!("precharge fault undefined for {other}"),
        },
        PhysicalFault::EvaluateOpen => {
            assert_eq!(tech, Technology::DominoCmos, "CMOS-2 is a domino fault");
            // y can never be pulled down -> z never rises -> s0-z.
            stuck_output(false, DetectionRequirement::Standard)
        }
        PhysicalFault::EvaluateClosed => {
            assert_eq!(tech, Technology::DominoCmos, "CMOS-1 is a domino fault");
            // During precharge all domino inputs are low, so SN conducts
            // nothing; T2's job is timing insurance only. Logic unchanged.
            FaultEffect {
                function: cell.logic_function(),
                requirement: DetectionRequirement::TimingOnly,
                stuck_at: None,
            }
        }
        PhysicalFault::InverterPOpen => {
            assert_eq!(tech, Technology::DominoCmos, "inverter is a domino part");
            stuck_output(false, DetectionRequirement::Standard)
        }
        PhysicalFault::InverterNOpen => {
            assert_eq!(tech, Technology::DominoCmos, "inverter is a domino part");
            // A2: z was driven high at least once and can never be pulled
            // low again -> s1-z.
            stuck_output(true, DetectionRequirement::Standard)
        }
        PhysicalFault::InverterPClosed => {
            assert_eq!(tech, Technology::DominoCmos, "inverter is a domino part");
            // Ratioed fight when the n-side pulls down: like CMOS-3, the
            // observable stuck value appears at full speed.
            stuck_output(true, DetectionRequirement::AtSpeed)
        }
        PhysicalFault::InverterNClosed => {
            assert_eq!(tech, Technology::DominoCmos, "inverter is a domino part");
            stuck_output(false, DetectionRequirement::AtSpeed)
        }
        PhysicalFault::InputStuck { var, value } => {
            let function = cell.logic_function().substitute(var, value);
            FaultEffect {
                function,
                requirement: DetectionRequirement::Standard,
                stuck_at: Some(StuckAt::Input { var, value }),
            }
        }
        PhysicalFault::OutputStuck { value } => stuck_output(value, DetectionRequirement::Standard),
    }
}

fn stuck_output(value: bool, requirement: DetectionRequirement) -> FaultEffect {
    FaultEffect {
        function: Bexpr::Const(value),
        requirement,
        stuck_at: Some(StuckAt::Output { value }),
    }
}

/// If `var` occurs exactly once in the transmission function, a per-site
/// fault is exactly the input stuck-at the paper names (`s0-i`/`s1-i`).
fn single_occurrence_stuck(cell: &Cell, var: dynmos_logic::VarId, value: bool) -> Option<StuckAt> {
    let occurrences = cell
        .literal_sites()
        .iter()
        .filter(|(_, v)| *v == var)
        .count();
    if occurrences == 1 {
        Some(StuckAt::Input { var, value })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{enumerate_faults, FaultUniverse};
    use dynmos_logic::{min_dnf_string, parse_expr, TruthTable, VarTable};
    use dynmos_netlist::generate::fig9_cell;
    use dynmos_netlist::{parse_cell, Cell, Technology};

    fn assert_fn_eq(effect: &FaultEffect, expect_src: &str, nvars: usize) {
        let mut vars = VarTable::new();
        for i in 0..nvars {
            // names a..e for readability in expectations
            vars.intern(&"abcdefgh"[i..=i]);
        }
        let expect = parse_expr(expect_src, &mut vars).unwrap();
        let got = TruthTable::from_expr(&effect.function, nvars);
        let want = TruthTable::from_expr(&expect, nvars);
        assert_eq!(
            got,
            want,
            "expected {} got {}",
            expect_src,
            min_dnf_string(&got, &vars)
        );
    }

    #[test]
    fn fig9_class_functions_match_paper_table() {
        let cell = fig9_cell();
        let faults = enumerate_faults(&cell, FaultUniverse::paper_table());
        let vt = cell.var_table();
        // (fault display name, expected faulty function)
        let expect = [
            ("a closed", "b+c+d*e"),
            ("a open", "d*e"),
            ("b closed", "a+d*e"),
            ("b open", "a*c+d*e"),
            ("c closed", "a+d*e"),
            ("c open", "a*b+d*e"),
            ("d closed", "a*b+a*c+e"),
            ("d open", "a*b+a*c"),
            ("e closed", "a*b+a*c+d"),
            ("e open", "a*b+a*c"),
            ("CMOS-2", "0"),
            ("CMOS-3", "0"),
            ("CMOS-4", "1"),
        ];
        for (name, fn_src) in expect {
            let fault = faults
                .iter()
                .find(|f| f.display(&vt).to_string() == name)
                .unwrap_or_else(|| panic!("fault {name} not enumerated"));
            let effect = classify(&cell, *fault);
            assert_fn_eq(&effect, fn_src, 5);
        }
    }

    #[test]
    fn cmos1_is_timing_only_with_unchanged_function() {
        let cell = fig9_cell();
        let effect = classify(&cell, PhysicalFault::EvaluateClosed);
        assert_eq!(effect.requirement, DetectionRequirement::TimingOnly);
        let good = TruthTable::from_expr(&cell.logic_function(), 5);
        assert_eq!(TruthTable::from_expr(&effect.function, 5), good);
    }

    #[test]
    fn cmos3_requires_at_speed() {
        let cell = fig9_cell();
        let effect = classify(&cell, PhysicalFault::PrechargeClosed);
        assert_eq!(effect.requirement, DetectionRequirement::AtSpeed);
        assert_eq!(effect.stuck_at, Some(StuckAt::Output { value: false }));
    }

    #[test]
    fn dynamic_nmos_both_precharge_faults_collapse_to_s0z() {
        // The paper's "very interesting fact".
        let cell = parse_cell(
            "g",
            "TECHNOLOGY dynamic-nMOS; INPUT a,b; OUTPUT z; z := a*b;",
        )
        .unwrap();
        let open = classify(&cell, PhysicalFault::PrechargeOpen);
        let closed = classify(&cell, PhysicalFault::PrechargeClosed);
        assert_eq!(open.function, Bexpr::FALSE);
        assert_eq!(closed.function, Bexpr::FALSE);
        assert_eq!(open.stuck_at, Some(StuckAt::Output { value: false }));
        assert_eq!(closed.stuck_at, Some(StuckAt::Output { value: false }));
        assert_eq!(open.requirement, DetectionRequirement::Standard);
        assert_eq!(closed.requirement, DetectionRequirement::Standard);
    }

    #[test]
    fn dynamic_nmos_switch_faults_are_input_stucks() {
        // nMOS-i open -> s0-i; nMOS-(n+i) closed -> s1-i, inverted output.
        let cell = parse_cell(
            "g",
            "TECHNOLOGY dynamic-nMOS; INPUT a,b; OUTPUT z; z := a+b;",
        )
        .unwrap();
        let sites = cell.literal_sites();
        let open = classify(
            &cell,
            PhysicalFault::SwitchOpen {
                site: sites[0].0,
                var: sites[0].1,
            },
        );
        // z = /(a+b); a open -> /(0+b) = /b
        assert_fn_eq(&open, "/b", 2);
        assert_eq!(
            open.stuck_at,
            Some(StuckAt::Input {
                var: sites[0].1,
                value: false
            })
        );
        let closed = classify(
            &cell,
            PhysicalFault::SwitchClosed {
                site: sites[1].0,
                var: sites[1].1,
            },
        );
        // b closed -> /(a+1) = 0
        assert_fn_eq(&closed, "0", 2);
    }

    #[test]
    fn repeated_literal_site_fault_is_not_a_named_stuck_at() {
        let cell = Cell::from_transmission("g", Technology::DominoCmos, &["a", "b", "c"], {
            let mut vars = VarTable::new();
            parse_expr("a*b+a*c", &mut vars).unwrap()
        });
        let sites = cell.literal_sites();
        // Open only the first 'a' transistor.
        let effect = classify(
            &cell,
            PhysicalFault::SwitchOpen {
                site: sites[0].0,
                var: sites[0].1,
            },
        );
        assert_eq!(effect.stuck_at, None);
        assert_fn_eq(&effect, "a*c", 3);
    }

    #[test]
    fn input_line_open_zeroes_all_occurrences() {
        let cell = Cell::from_transmission("g", Technology::DominoCmos, &["a", "b", "c"], {
            let mut vars = VarTable::new();
            parse_expr("a*b+a*c", &mut vars).unwrap()
        });
        let effect = classify(
            &cell,
            PhysicalFault::InputLineOpen {
                var: dynmos_logic::VarId(0),
            },
        );
        assert_fn_eq(&effect, "0", 3);
        assert_eq!(
            effect.stuck_at,
            Some(StuckAt::Input {
                var: dynmos_logic::VarId(0),
                value: false
            })
        );
    }

    #[test]
    fn inverter_faults() {
        let cell = fig9_cell();
        assert_eq!(
            classify(&cell, PhysicalFault::InverterPOpen).function,
            Bexpr::FALSE
        );
        assert_eq!(
            classify(&cell, PhysicalFault::InverterNOpen).function,
            Bexpr::TRUE
        );
        assert_eq!(
            classify(&cell, PhysicalFault::InverterPClosed).requirement,
            DetectionRequirement::AtSpeed
        );
        assert_eq!(
            classify(&cell, PhysicalFault::InverterNClosed).requirement,
            DetectionRequirement::AtSpeed
        );
    }

    #[test]
    fn static_stuck_at_model() {
        let cell = parse_cell(
            "g",
            "TECHNOLOGY static-CMOS; INPUT a,b; OUTPUT z; z := a*b;",
        )
        .unwrap();
        // z = /(a*b) = NAND; a stuck-1 -> /b.
        let effect = classify(
            &cell,
            PhysicalFault::InputStuck {
                var: dynmos_logic::VarId(0),
                value: true,
            },
        );
        assert_fn_eq(&effect, "/b", 2);
    }

    #[test]
    #[should_panic(expected = "domino fault")]
    fn cmos2_on_dynamic_nmos_panics() {
        let cell = parse_cell("g", "TECHNOLOGY dynamic-nMOS; INPUT a; OUTPUT z; z := a;").unwrap();
        classify(&cell, PhysicalFault::EvaluateOpen);
    }
}
