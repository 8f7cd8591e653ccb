//! Input signal probability optimization.
//!
//! PROTEST's headline feature: "For each primary input a specific signal
//! probability is computed, promising an increase of fault detection and a
//! decrease of the necessary test length. Using those optimized input
//! signal probabilities, the necessary test length can be reduced by
//! orders of magnitudes."
//!
//! [`optimize_input_probabilities`] minimizes the joint test length by
//! cyclic coordinate descent over a discrete probability grid — robust,
//! derivative-free, and more than enough to reproduce the orders-of-
//! magnitude effect on the paper-scale circuits (the objective is exact,
//! via exhaustive detection probabilities). The objective's enumeration
//! engine is thread-sharded along the axis the two-axis planner picks
//! ([`crate::parallel::plan_shards`]): the fault list when it can feed
//! every worker, or the enumeration's row-block axis when the descent
//! has narrowed to a few hard faults — so the descent — hundreds of
//! objective evaluations — scales with cores in both regimes while
//! staying bit-identical at any thread count.

use crate::budget::{RunBudget, RunStatus, StopReason};
use crate::detect::EstimateMethod;
use crate::length::{test_length_budgeted, LengthError};
use crate::list::FaultEntry;
use crate::parallel::Parallelism;
use crate::testability::{DetectionEngine, TestabilityConfig};
use dynmos_netlist::Network;

/// Fixed seed for the sampling parts of the objective (cutting-tier
/// bound tightening): every evaluation of the same probability vector
/// sees the same sample stream, so the descent compares candidates on a
/// common, deterministic footing.
const OPT_MC_SEED: u64 = 0x0D7E57;

/// Result of an optimization run.
#[derive(Debug, Clone)]
pub struct OptimizeReport {
    /// The optimized per-input probabilities.
    pub probabilities: Vec<f64>,
    /// Test length at the uniform 0.5 starting point.
    pub uniform_length: u64,
    /// Test length at the optimized probabilities.
    pub optimized_length: u64,
    /// Number of full coordinate sweeps performed.
    pub sweeps: usize,
}

impl OptimizeReport {
    /// The improvement factor (uniform / optimized), `inf` if the uniform
    /// length was unbounded.
    pub fn improvement(&self) -> f64 {
        if self.optimized_length == 0 {
            return f64::INFINITY;
        }
        self.uniform_length as f64 / self.optimized_length as f64
    }
}

/// The candidate grid used for each coordinate. Matches the resolution a
/// weighted-random pattern generator can realize with a few LFSR bits.
const GRID: [f64; 15] = [
    0.03125, 0.0625, 0.125, 0.1875, 0.25, 0.375, 0.5, 0.625, 0.75, 0.8125, 0.875, 0.9375, 0.96875,
    0.984375, 0.015625,
];

/// Optimizes per-input signal probabilities to minimize the joint random
/// test length at `confidence`.
///
/// Starts from the uniform 0.5 assignment and performs cyclic coordinate
/// descent over a fixed probability grid until a full sweep makes no
/// improvement (or
/// `max_sweeps` is reached).
///
/// Networks beyond the exact-enumeration row cap run the objective on
/// the symbolic tiers of [`DetectionEngine`] instead of panicking.
///
/// # Panics
///
/// Panics if `faults` is empty or `confidence` is not in `(0,1)`.
///
/// # Example
///
/// ```
/// use dynmos_netlist::generate::{domino_wide_and, single_cell_network};
/// use dynmos_protest::{network_fault_list, optimize_input_probabilities};
///
/// let net = single_cell_network(domino_wide_and(8));
/// let faults = network_fault_list(&net);
/// let report = optimize_input_probabilities(&net, &faults, 0.999, 8);
/// // The paper's claim: orders of magnitude shorter tests.
/// assert!(report.improvement() > 10.0);
/// ```
pub fn optimize_input_probabilities(
    net: &Network,
    faults: &[FaultEntry],
    confidence: f64,
    max_sweeps: usize,
) -> OptimizeReport {
    optimize_input_probabilities_budgeted(
        net,
        faults,
        confidence,
        max_sweeps,
        Parallelism::default(),
        &RunBudget::unlimited(),
    )
    .report
}

/// An optimization outcome under a [`RunBudget`]: the (possibly
/// partial) report, whether the descent completed, and which engine
/// tier served each fault of the objective.
#[derive(Debug, Clone)]
pub struct OptimizeRun {
    /// Best probabilities and lengths seen before the stop. When the
    /// very first objective evaluation is interrupted, the report
    /// holds the uniform starting point with unbounded lengths.
    pub report: OptimizeReport,
    /// [`RunStatus::Completed`], or the [`StopReason`] that ended the
    /// descent early.
    pub status: RunStatus,
    /// Per-fault engine tiers of the objective, in fault-list order.
    /// Empty only when the run was interrupted before the first
    /// objective evaluation finished.
    pub methods: Vec<EstimateMethod>,
}

/// [`optimize_input_probabilities`] with an explicit thread policy (the
/// report is identical at any thread count) and under a [`RunBudget`].
/// The budget is threaded into every objective evaluation (enumeration
/// chunks, symbolic passes, and test-length searches all check it); an
/// interrupt ends the descent at the last fully evaluated candidate and
/// returns the best-so-far report with [`RunStatus::Interrupted`].
///
/// The objective runs on the tiered [`DetectionEngine`]: exact
/// enumeration when the row space fits
/// `RunBudget::effective_exact_rows`, otherwise the shared-BDD tier
/// (one linear probability pass per evaluation — the thing that makes
/// coordinate descent feasible at hundreds of inputs), degrading per
/// fault to certified cutting bounds. Per-fault tiers are reported in
/// [`OptimizeRun::methods`]. The tier policy follows
/// `DYNMOS_TESTABILITY`; use [`optimize_input_probabilities_with`] to
/// pin it.
///
/// # Panics
///
/// Panics if `faults` is empty or `confidence` is not in `(0,1)`.
pub fn optimize_input_probabilities_budgeted(
    net: &Network,
    faults: &[FaultEntry],
    confidence: f64,
    max_sweeps: usize,
    parallelism: Parallelism,
    run_budget: &RunBudget,
) -> OptimizeRun {
    let config = TestabilityConfig::from_env().with_seed(OPT_MC_SEED);
    optimize_input_probabilities_with(
        net,
        faults,
        confidence,
        max_sweeps,
        parallelism,
        run_budget,
        &config,
    )
}

/// [`optimize_input_probabilities_budgeted`] with an explicit engine
/// configuration, for callers that must pin a tier regardless of
/// `DYNMOS_TESTABILITY`.
///
/// # Panics
///
/// Panics if `faults` is empty or `confidence` is not in `(0,1)`.
pub fn optimize_input_probabilities_with(
    net: &Network,
    faults: &[FaultEntry],
    confidence: f64,
    max_sweeps: usize,
    parallelism: Parallelism,
    run_budget: &RunBudget,
    config: &TestabilityConfig,
) -> OptimizeRun {
    let n = net.primary_inputs().len();
    // One engine (tier plan, shared BDD, per-fault difference roots)
    // serves every objective evaluation of the descent.
    let mut engine =
        DetectionEngine::new(net, faults, config.clone()).with_parallelism(parallelism);
    let mut methods: Vec<EstimateMethod> = Vec::new();
    let mut objective = |probs: &[f64]| -> Result<u64, StopReason> {
        let estimates = engine.estimates(probs, run_budget)?;
        if methods.is_empty() {
            methods = estimates.iter().map(|e| e.method).collect();
        }
        let dps: Vec<f64> = estimates.into_iter().map(|e| e.value).collect();
        match test_length_budgeted(&dps, confidence, parallelism, run_budget) {
            Ok(len) => Ok(len),
            Err(LengthError::Interrupted(reason)) => Err(reason),
            // Degenerate confidence / empty fault list: the documented
            // panics of the unbudgeted API.
            Err(other) => panic!("{other}"),
        }
    };
    let mut probs = vec![0.5f64; n];
    let mut uniform_length = u64::MAX;
    let mut best = u64::MAX;
    let mut sweeps = 0usize;
    let mut status = RunStatus::Completed;
    'descent: {
        uniform_length = match objective(&probs) {
            Ok(len) => len,
            Err(reason) => {
                status = RunStatus::Interrupted(reason);
                break 'descent;
            }
        };
        best = uniform_length;
        // Phase 1: uniform grid scan. On symmetric circuits (wide gates,
        // balanced trees) the optimum has equal coordinates, and pure
        // coordinate descent from 0.5 stalls on them — a single raised
        // input hurts its own stuck-closed fault before the joint gain
        // kicks in.
        for &g in &GRID {
            let cand = vec![g; n];
            match objective(&cand) {
                Ok(len) => {
                    if len < best {
                        best = len;
                        probs = cand;
                    }
                }
                Err(reason) => {
                    status = RunStatus::Interrupted(reason);
                    break 'descent;
                }
            }
        }
        for _ in 0..max_sweeps {
            sweeps += 1;
            let mut improved = false;
            for i in 0..n {
                let original = probs[i];
                let mut best_here = best;
                let mut best_p = original;
                for &cand in &GRID {
                    if (cand - original).abs() < 1e-12 {
                        continue;
                    }
                    probs[i] = cand;
                    match objective(&probs) {
                        Ok(len) => {
                            if len < best_here {
                                best_here = len;
                                best_p = cand;
                            }
                        }
                        Err(reason) => {
                            probs[i] = best_p;
                            if best_here < best {
                                best = best_here;
                            }
                            status = RunStatus::Interrupted(reason);
                            break 'descent;
                        }
                    }
                }
                probs[i] = best_p;
                if best_here < best {
                    best = best_here;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }
    OptimizeRun {
        report: OptimizeReport {
            probabilities: probs,
            uniform_length,
            optimized_length: best,
            sweeps,
        },
        status,
        methods,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::network_fault_list;
    use crate::testability::TierMode;
    use dynmos_netlist::generate::{and_or_tree, domino_wide_and, fig9_cell, single_cell_network};

    #[test]
    fn wide_and_improves_by_orders_of_magnitude() {
        let net = single_cell_network(domino_wide_and(10));
        let faults = network_fault_list(&net);
        let report = optimize_input_probabilities(&net, &faults, 0.999, 10);
        // Uniform: hardest fault p = 2^-10 -> thousands of patterns.
        assert!(report.uniform_length > 5000, "{report:?}");
        // Optimized: high input probabilities -> dozens.
        assert!(
            report.improvement() > 30.0,
            "improvement {} too small: {report:?}",
            report.improvement()
        );
    }

    #[test]
    fn optimizer_never_worsens() {
        for net in [and_or_tree(2), single_cell_network(fig9_cell())] {
            let faults = network_fault_list(&net);
            let report = optimize_input_probabilities(&net, &faults, 0.99, 6);
            assert!(report.optimized_length <= report.uniform_length);
            assert!(report.sweeps >= 1);
        }
    }

    #[test]
    fn optimized_probabilities_are_valid() {
        let net = single_cell_network(domino_wide_and(6));
        let faults = network_fault_list(&net);
        let report = optimize_input_probabilities(&net, &faults, 0.999, 6);
        assert_eq!(report.probabilities.len(), 6);
        for &p in &report.probabilities {
            assert!(p > 0.0 && p < 1.0);
        }
    }

    #[test]
    fn wide_and_pushes_probabilities_high() {
        // For the wide AND, the hard faults need all-ones patterns; the
        // optimizer must move every input probability above 0.5.
        let net = single_cell_network(domino_wide_and(8));
        let faults = network_fault_list(&net);
        let report = optimize_input_probabilities(&net, &faults, 0.999, 8);
        for (i, &p) in report.probabilities.iter().enumerate() {
            assert!(p > 0.5, "input {i} stayed at {p}");
        }
    }

    #[test]
    fn converges_before_max_sweeps_on_small_nets() {
        let net = and_or_tree(2);
        let faults = network_fault_list(&net);
        let report = optimize_input_probabilities(&net, &faults, 0.99, 50);
        assert!(report.sweeps < 50, "did not converge: {report:?}");
    }

    #[test]
    fn budgeted_descent_matches_unbudgeted() {
        // A live deadline routes every objective through the chunked
        // budgeted kernels; a completed run must reproduce the
        // unbudgeted report exactly.
        // Pinned Auto config: the assertions are about the exact tier
        // and must hold under any `DYNMOS_TESTABILITY` CI leg.
        let auto = TestabilityConfig::new(TierMode::Auto);
        let net = single_cell_network(domino_wide_and(8));
        let faults = network_fault_list(&net);
        let reference = optimize_input_probabilities_with(
            &net,
            &faults,
            0.999,
            8,
            Parallelism::Serial,
            &RunBudget::unlimited(),
            &auto,
        );
        let far = RunBudget::deadline_in(std::time::Duration::from_secs(3600));
        let run = optimize_input_probabilities_with(
            &net,
            &faults,
            0.999,
            8,
            Parallelism::Serial,
            &far,
            &auto,
        );
        assert!(run.status.is_complete());
        assert_eq!(run.methods.len(), faults.len());
        assert!(run.methods.iter().all(|&m| m == EstimateMethod::Exact));
        assert_eq!(run.report.probabilities, reference.report.probabilities);
        assert_eq!(run.report.uniform_length, reference.report.uniform_length);
        assert_eq!(
            run.report.optimized_length,
            reference.report.optimized_length
        );
        assert_eq!(run.report.sweeps, reference.report.sweeps);
    }

    #[test]
    fn over_cap_objective_goes_symbolic() {
        // A row cap below 2^6 moves the objective onto the shared-BDD
        // tier; the descent still completes, tags every fault, and
        // never worsens the start point.
        let net = single_cell_network(domino_wide_and(6));
        let faults = network_fault_list(&net);
        let run = optimize_input_probabilities_with(
            &net,
            &faults,
            0.99,
            1,
            Parallelism::Serial,
            &RunBudget::unlimited().with_max_exact_rows(1 << 4),
            &TestabilityConfig::new(TierMode::Auto),
        );
        assert!(run.status.is_complete());
        assert_eq!(run.methods.len(), faults.len());
        assert!(run.methods.iter().all(|&m| m == EstimateMethod::Bdd));
        assert!(run.report.optimized_length <= run.report.uniform_length);
        assert_eq!(run.report.probabilities.len(), 6);
    }

    #[test]
    fn cancelled_descent_returns_best_so_far() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let net = single_cell_network(domino_wide_and(8));
        let faults = network_fault_list(&net);
        let flag = Arc::new(AtomicBool::new(true));
        let run = optimize_input_probabilities_budgeted(
            &net,
            &faults,
            0.999,
            8,
            Parallelism::Serial,
            &RunBudget::unlimited().with_cancel(flag),
        );
        assert_eq!(
            run.status,
            RunStatus::Interrupted(crate::budget::StopReason::Cancelled)
        );
        // Interrupted before the first objective finished: the report
        // is the documented uniform starting point.
        assert_eq!(run.report.sweeps, 0);
        assert!(run.report.probabilities.iter().all(|&p| p == 0.5));
    }
}
