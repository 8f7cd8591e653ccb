//! E9 — deterministic test generation and the apply-twice rule
//! (section 4).
//!
//! "If a deterministic test set is generated e.g. by PODEM \[13\], then
//! these assumptions [A1, A2] can be fulfilled by applying the test set
//! exactly two times." The experiment runs the PODEM-style generator on
//! the corpus, verifies 100% coverage of non-redundant faults by fault
//! simulation of the doubled set, and reports compaction statistics.

use dynmos_atpg::{apply_twice, generate_test_set};
use dynmos_netlist::generate::{
    and_or_tree, c17_dynamic_nmos, carry_chain, comparator, fig9_cell, single_cell_network,
};
use dynmos_netlist::Network;
use dynmos_protest::{network_fault_list, FaultSimulator};

/// One circuit's ATPG summary.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Circuit name.
    pub name: String,
    /// Fault-list size.
    pub faults: usize,
    /// Tests generated (before doubling).
    pub tests: usize,
    /// Redundant faults proven.
    pub redundant: usize,
    /// Coverage of the doubled set by fault simulation.
    pub coverage: f64,
}

/// The circuits measured.
pub(crate) fn circuits() -> Vec<(String, Network)> {
    vec![
        ("fig9".into(), single_cell_network(fig9_cell())),
        ("and-or-tree-3".into(), and_or_tree(3)),
        ("carry-chain-4".into(), carry_chain(4)),
        ("comparator-3".into(), comparator(3)),
        ("c17-dynamic".into(), c17_dynamic_nmos()),
    ]
}

/// Runs ATPG + apply-twice + fault simulation on every circuit.
pub(crate) fn summaries() -> Vec<Summary> {
    circuits()
        .into_iter()
        .map(|(name, net)| {
            let faults = network_fault_list(&net);
            let report = generate_test_set(&net, &faults, 0);
            assert!(report.aborted.is_empty(), "unlimited budget cannot abort");
            let doubled = apply_twice(&report.tests);
            let outcome = FaultSimulator::new(&net).run_patterns(&faults, &doubled);
            // Escapes must be exactly the proven-redundant faults.
            let coverage = (outcome.detected_at.iter().filter(|d| d.is_some()).count() as f64)
                / (faults.len() - report.redundant.len()).max(1) as f64;
            Summary {
                name,
                faults: faults.len(),
                tests: report.tests.len(),
                redundant: report.redundant.len(),
                coverage,
            }
        })
        .collect()
}

/// Renders the experiment.
pub(crate) fn run() -> String {
    let rows = summaries();
    let mut out = String::new();
    out.push_str("PODEM-style ATPG with fault dropping; test set applied twice (A1/A2)\n");
    out.push_str(" circuit        faults  tests  redundant  coverage(non-redundant)\n");
    for r in &rows {
        out.push_str(&format!(
            " {:<13} {:>6}  {:>5}  {:>9}  {:>8.1}%\n",
            r.name,
            r.faults,
            r.tests,
            r.redundant,
            100.0 * r.coverage
        ));
    }
    out.push_str("paper claim: all non-redundant faults detected by the doubled set -> ");
    out.push_str(if rows.iter().all(|r| r.coverage >= 1.0) {
        "CONFIRMED\n"
    } else {
        "VIOLATED\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_coverage_of_non_redundant_faults() {
        for s in summaries() {
            assert!(s.coverage >= 1.0, "{}: coverage {:.3}", s.name, s.coverage);
        }
    }

    #[test]
    fn test_sets_are_compact() {
        for s in summaries() {
            assert!(
                s.tests < s.faults,
                "{}: {} tests for {} faults",
                s.name,
                s.tests,
                s.faults
            );
        }
    }

    #[test]
    fn report_confirms() {
        assert!(run().contains("CONFIRMED"));
    }
}
