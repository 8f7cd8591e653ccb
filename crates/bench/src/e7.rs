//! E7 — PROTEST (the paper's Fig. 8): signal probabilities, detection
//! probabilities, test lengths and the optimized-input-probability claim
//! ("the necessary test length can be reduced by orders of magnitudes"),
//! plus the estimator-vs-exact ablation.

use dynmos_netlist::generate::{
    and_or_tree, c17_dynamic_nmos, carry_chain, domino_wide_and, single_cell_network,
};
use dynmos_netlist::Network;
use dynmos_protest::{
    detection_probabilities, exact_signal_probability, network_fault_list,
    optimize_input_probabilities, signal_probabilities, test_length,
};

/// One circuit's PROTEST summary.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Circuit name.
    pub name: String,
    /// Fault-list size.
    pub faults: usize,
    /// Test length at uniform inputs (confidence 0.999).
    pub uniform_length: u64,
    /// Test length at optimized inputs.
    pub optimized_length: u64,
    /// Maximum absolute signal-probability estimation error at POs.
    pub estimator_error: f64,
}

/// Confidence used throughout the experiment.
pub(crate) const CONFIDENCE: f64 = 0.999;

/// The benchmark circuits.
pub(crate) fn circuits() -> Vec<(String, Network)> {
    vec![
        ("wide-and-8".into(), single_cell_network(domino_wide_and(8))),
        (
            "wide-and-12".into(),
            single_cell_network(domino_wide_and(12)),
        ),
        ("and-or-tree-3".into(), and_or_tree(3)),
        ("carry-chain-4".into(), carry_chain(4)),
        ("c17-dynamic".into(), c17_dynamic_nmos()),
    ]
}

/// Runs the PROTEST pipeline on every circuit.
pub(crate) fn summaries() -> Vec<Summary> {
    circuits()
        .into_iter()
        .map(|(name, net)| {
            let n = net.primary_inputs().len();
            let faults = network_fault_list(&net);
            let uniform = vec![0.5f64; n];
            let det = detection_probabilities(&net, &faults, &uniform);
            let uniform_length = test_length(&det, CONFIDENCE);
            let report = optimize_input_probabilities(&net, &faults, CONFIDENCE, 6);
            // Estimator ablation: topological estimate vs exact, at POs.
            let est = signal_probabilities(&net, &uniform);
            let estimator_error = net
                .primary_outputs()
                .iter()
                .map(|&po| (est[po.index()] - exact_signal_probability(&net, po, &uniform)).abs())
                .fold(0.0f64, f64::max);
            Summary {
                name,
                faults: faults.len(),
                uniform_length,
                optimized_length: report.optimized_length,
                estimator_error,
            }
        })
        .collect()
}

/// Renders the experiment.
pub(crate) fn run() -> String {
    let rows = summaries();
    let mut out = String::new();
    out.push_str(&format!(
        "PROTEST pipeline, confidence {CONFIDENCE} (test length = #random patterns)\n"
    ));
    out.push_str(
        " circuit        faults  N(uniform)  N(optimized)  improvement  estimator max err\n",
    );
    for r in &rows {
        out.push_str(&format!(
            " {:<13} {:>6}  {:>10}  {:>12}  {:>10.1}x  {:>16.4}\n",
            r.name,
            r.faults,
            r.uniform_length,
            r.optimized_length,
            r.uniform_length as f64 / r.optimized_length as f64,
            r.estimator_error
        ));
    }
    let max_impr = rows
        .iter()
        .map(|r| r.uniform_length as f64 / r.optimized_length as f64)
        .fold(0.0f64, f64::max);
    out.push_str(&format!(
        "paper claim \"orders of magnitudes\": max improvement {max_impr:.0}x\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimization_never_worsens() {
        for s in summaries() {
            assert!(
                s.optimized_length <= s.uniform_length,
                "{}: {} > {}",
                s.name,
                s.optimized_length,
                s.uniform_length
            );
        }
    }

    #[test]
    fn wide_gates_improve_by_orders_of_magnitude() {
        let rows = summaries();
        let wide12 = rows
            .iter()
            .find(|r| r.name == "wide-and-12")
            .expect("exists");
        assert!(
            wide12.uniform_length as f64 / wide12.optimized_length as f64 > 50.0,
            "{wide12:?}"
        );
    }

    #[test]
    fn estimator_is_exact_on_trees() {
        let rows = summaries();
        for name in ["wide-and-8", "and-or-tree-3"] {
            let r = rows.iter().find(|r| r.name == name).expect("exists");
            assert!(r.estimator_error < 1e-9, "{name}: {}", r.estimator_error);
        }
    }

    #[test]
    fn estimator_error_bounded_under_reconvergence() {
        let rows = summaries();
        let c17 = rows
            .iter()
            .find(|r| r.name == "c17-dynamic")
            .expect("exists");
        assert!(c17.estimator_error < 0.25);
    }
}
