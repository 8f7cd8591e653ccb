//! E1 — the paper's Fig. 1: a stuck-open pull-down transistor turns a
//! static CMOS NOR into a sequential element.
//!
//! Regenerates the four-row function table of the paper's introduction:
//!
//! ```text
//! A B | Z   | Zfaulty(t+Δ)
//! 0 0 | 1   | 1
//! 0 1 | 0   | 0
//! 1 0 | 0   | Z(t)   <- sequential!
//! 1 1 | 0   | 0
//! ```

use dynmos_switch::gates::static_nor2;
use dynmos_switch::{FaultSet, Logic, Sim, SwitchFault};

/// One row of the Fig. 1 table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Input A.
    pub a: bool,
    /// Input B.
    pub b: bool,
    /// Fault-free output.
    pub good: Logic,
    /// Faulty output when the previous output was 0.
    pub faulty_prev0: Logic,
    /// Faulty output when the previous output was 1.
    pub faulty_prev1: Logic,
}

impl Row {
    /// `true` when the faulty output depends on the previous output —
    /// the sequential-behaviour signature.
    pub(crate) fn is_sequential(&self) -> bool {
        self.faulty_prev0 != self.faulty_prev1
    }
}

/// Measures the table at switch level.
pub(crate) fn table() -> Vec<Row> {
    let nor = static_nor2();
    let faults = FaultSet::single(SwitchFault::StuckOpen(nor.pulldown_a));
    let mut rows = Vec::new();
    for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
        let good = {
            let mut sim = Sim::new(&nor.circuit);
            sim.set_input(nor.a, Logic::from_bool(a));
            sim.set_input(nor.b, Logic::from_bool(b));
            sim.settle();
            sim.level(nor.z)
        };
        let with_prev = |prev: Logic| {
            let mut sim = Sim::with_faults(&nor.circuit, faults.clone());
            sim.preset_charge(nor.z, prev);
            sim.set_input(nor.a, Logic::from_bool(a));
            sim.set_input(nor.b, Logic::from_bool(b));
            sim.settle();
            sim.level(nor.z)
        };
        rows.push(Row {
            a,
            b,
            good,
            faulty_prev0: with_prev(Logic::Zero),
            faulty_prev1: with_prev(Logic::One),
        });
    }
    rows
}

/// Renders the measured table alongside the paper's expected column.
pub(crate) fn run() -> String {
    let rows = table();
    let mut out = String::new();
    out.push_str("Fig. 1: static CMOS NOR, pull-down transistor A stuck-open\n");
    out.push_str(" A B | Z(good) | Zfaulty(t+D)\n");
    for r in &rows {
        let faulty = if r.is_sequential() {
            "Z(t)   <- SEQUENTIAL".to_owned()
        } else {
            r.faulty_prev0.to_string()
        };
        out.push_str(&format!(
            " {} {} |    {}    | {}\n",
            u8::from(r.a),
            u8::from(r.b),
            r.good,
            faulty
        ));
    }
    let seq_rows: Vec<String> = rows
        .iter()
        .filter(|r| r.is_sequential())
        .map(|r| format!("A={},B={}", u8::from(r.a), u8::from(r.b)))
        .collect();
    out.push_str(&format!(
        "sequential rows: {} (paper: exactly A=1,B=0)\n",
        seq_rows.join(", ")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_papers_table_exactly() {
        let rows = table();
        // (A,B) -> (good, sequential?)
        let expect = [
            (false, false, Logic::One, false),
            (false, true, Logic::Zero, false),
            (true, false, Logic::Zero, true), // the Z(t) row
            (true, true, Logic::Zero, false),
        ];
        for (row, (a, b, good, seq)) in rows.iter().zip(expect) {
            assert_eq!((row.a, row.b), (a, b));
            assert_eq!(row.good, good, "A={a} B={b}");
            assert_eq!(row.is_sequential(), seq, "A={a} B={b}");
            if seq {
                // The memory row reproduces the previous value exactly.
                assert_eq!(row.faulty_prev0, Logic::Zero);
                assert_eq!(row.faulty_prev1, Logic::One);
            }
        }
    }

    #[test]
    fn report_flags_the_sequential_row() {
        let report = run();
        assert!(report.contains("SEQUENTIAL"));
        assert!(report.contains("A=1,B=0"));
    }
}
