//! E5 — the section-3 theorems, machine-checked over a gate corpus.
//!
//! Claim (a) of the paper: "There is no fault, that changes a
//! combinational behaviour into a sequential one for the investigated
//! dynamic MOS circuits." Claim: every fault matches its classified
//! logical effect (`nMOS-1…2n+2`, `CMOS-1…4` tables).
//!
//! The check injects every enumerable fault of every corpus cell at
//! switch level and compares against the `dynmos-core` classification,
//! across multiple charge histories (assumption A2 conditioning applied).

use dynmos_core::validate_cell;
use dynmos_netlist::generate::random_domino_cell;
use dynmos_netlist::{parse_cell, Cell};

/// The fixed corpus: paper example + hand-written cells of both dynamic
/// technologies.
pub(crate) fn fixed_corpus() -> Vec<Cell> {
    vec![
        dynmos_netlist::generate::fig9_cell(),
        parse_cell(
            "and2",
            "TECHNOLOGY domino-CMOS; INPUT a,b; OUTPUT z; z := a*b;",
        )
        .expect("valid"),
        parse_cell(
            "or3",
            "TECHNOLOGY domino-CMOS; INPUT a,b,c; OUTPUT z; z := a+b+c;",
        )
        .expect("valid"),
        parse_cell(
            "aoi_dom",
            "TECHNOLOGY domino-CMOS; INPUT a,b,c,d; OUTPUT z; z := a*b+c*d;",
        )
        .expect("valid"),
        parse_cell(
            "nand2",
            "TECHNOLOGY dynamic-nMOS; INPUT a,b; OUTPUT z; z := a*b;",
        )
        .expect("valid"),
        parse_cell(
            "nor2",
            "TECHNOLOGY dynamic-nMOS; INPUT a,b; OUTPUT z; z := a+b;",
        )
        .expect("valid"),
        parse_cell(
            "oai_dyn",
            "TECHNOLOGY dynamic-nMOS; INPUT a,b,c; OUTPUT z; z := a*b+c;",
        )
        .expect("valid"),
    ]
}

/// Seeded random domino cells extending the corpus.
pub(crate) fn random_corpus(count: u64) -> Vec<Cell> {
    (0..count)
        .map(|seed| random_domino_cell(seed, 4, 6))
        .collect()
}

/// Summary counters for one cell.
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Cell name.
    pub name: String,
    /// Faults validated.
    pub faults: usize,
    /// Faults that behaved combinationally.
    pub combinational: usize,
    /// Faults matching their predicted logical effect.
    pub matched: usize,
}

/// Validates the full corpus.
pub(crate) fn validate_corpus(random_cells: u64) -> Vec<CellSummary> {
    let mut cells = fixed_corpus();
    cells.extend(random_corpus(random_cells));
    cells
        .iter()
        .map(|cell| {
            let v = validate_cell(cell);
            CellSummary {
                name: cell.name().to_owned(),
                faults: v.faults.len(),
                combinational: v.faults.iter().filter(|f| f.combinational).count(),
                matched: v.faults.iter().filter(|f| f.matches_prediction).count(),
            }
        })
        .collect()
}

/// Renders the experiment.
pub(crate) fn run() -> String {
    let summaries = validate_corpus(4);
    let mut out = String::new();
    out.push_str("Section 3 theorems, exhaustive switch-level validation:\n");
    out.push_str(" cell              faults  combinational  match-prediction\n");
    let (mut tf, mut tc, mut tm) = (0, 0, 0);
    for s in &summaries {
        out.push_str(&format!(
            " {:<16} {:>6}  {:>12}  {:>15}\n",
            s.name, s.faults, s.combinational, s.matched
        ));
        tf += s.faults;
        tc += s.combinational;
        tm += s.matched;
    }
    out.push_str(&format!(
        " TOTAL            {tf:>6}  {tc:>12}  {tm:>15}\n\
         paper claim: no fault creates sequential behaviour -> {}\n",
        if tc == tf { "CONFIRMED" } else { "VIOLATED" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_corpus_is_combinational_and_matches() {
        for s in validate_corpus(3) {
            assert_eq!(s.combinational, s.faults, "{} sequential", s.name);
            assert_eq!(s.matched, s.faults, "{} mismatched", s.name);
        }
    }

    #[test]
    fn report_confirms_the_claim() {
        assert!(run().contains("CONFIRMED"));
    }
}
