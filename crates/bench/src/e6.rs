//! E6 — the paper's section-5 table: the fault library of the Fig. 9
//! gate `u = a*(b+c) + d*e`, with the ten distinguishable fault classes
//! in minimum disjunctive form.
//!
//! This is the paper's only explicit results table; the golden values are
//! asserted verbatim.

use dynmos_core::FaultLibrary;
use dynmos_netlist::generate::fig9_cell;

/// The paper's expected table: (faults of the class, minimal DNF).
pub(crate) const GOLDEN: [(&[&str], &str); 10] = [
    (&["a closed"], "b+c+d*e"),
    (&["a open"], "d*e"),
    (&["b closed", "c closed"], "a+d*e"),
    (&["b open"], "a*c+d*e"),
    (&["c open"], "a*b+d*e"),
    (&["d closed"], "a*b+a*c+e"),
    (&["d open", "e open"], "a*b+a*c"),
    (&["e closed"], "a*b+a*c+d"),
    (&["CMOS-2", "CMOS-3"], "0"),
    (&["CMOS-4"], "1"),
];

/// Generates the library and checks it against [`GOLDEN`]; returns the
/// list of deviations (empty when exact).
pub(crate) fn deviations() -> Vec<String> {
    let lib = FaultLibrary::generate(&fig9_cell());
    let vars = lib.vars().clone();
    let mut out = Vec::new();
    if lib.classes().len() != GOLDEN.len() {
        out.push(format!(
            "class count {} != {}",
            lib.classes().len(),
            GOLDEN.len()
        ));
        return out;
    }
    for (class, (faults, function)) in lib.classes().iter().zip(GOLDEN.iter()) {
        let names: Vec<String> = class
            .faults
            .iter()
            .map(|f| f.display(&vars).to_string())
            .collect();
        if names != *faults {
            out.push(format!(
                "class {}: faults {:?} != {:?}",
                class.id, names, faults
            ));
        }
        if class.function_string() != *function {
            out.push(format!(
                "class {}: function {} != {}",
                class.id,
                class.function_string(),
                function
            ));
        }
    }
    out
}

/// Renders the library plus the golden comparison.
pub(crate) fn run() -> String {
    let lib = FaultLibrary::generate(&fig9_cell());
    let mut out = lib.render_table();
    let devs = deviations();
    if devs.is_empty() {
        out.push_str("\ngolden check vs the paper's table: EXACT MATCH (10/10 classes)\n");
    } else {
        out.push_str("\nDEVIATIONS FROM PAPER:\n");
        for d in &devs {
            out.push_str(&format!("  {d}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_the_paper_exactly() {
        assert!(deviations().is_empty(), "{:?}", deviations());
    }

    #[test]
    fn report_declares_exact_match() {
        assert!(run().contains("EXACT MATCH"));
    }

    #[test]
    fn cmos1_is_reported_timing_only() {
        let lib = FaultLibrary::generate(&fig9_cell());
        assert_eq!(lib.timing_only().len(), 1);
        assert!(run().contains("CMOS-1"));
    }
}
