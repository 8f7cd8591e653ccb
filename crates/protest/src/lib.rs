#![forbid(unsafe_code)]
//! Reproduction of **PROTEST** (Probabilistic Testability Analysis),
//! the paper's section-5 tool (Fig. 8).
//!
//! For a combinational network and per-input signal probabilities, PROTEST
//!
//! 1. estimates the **signal probability** at each internal node
//!    ([`signal_probabilities`], plus the exact oracle
//!    [`exact_signal_probability`]),
//! 2. estimates each fault's **detection probability**
//!    ([`detection_probabilities`]; past the enumeration wall the tiered
//!    [`DetectionEngine`] serves exact BDD values or certified cutting
//!    bounds, and reads deterministic test patterns off the same BDDs),
//! 3. computes the **test length** needed for a demanded confidence
//!    ([`test_length`]),
//! 4. **optimizes the input signal probabilities**, "reducing the
//!    necessary test length by orders of magnitudes"
//!    ([`optimize_input_probabilities`]),
//! 5. generates weighted **random patterns** ([`PatternSource`]: a
//!    splittable counter-based stream with bit-sliced weighting — one
//!    threshold cascade per 64 lanes instead of 64 Bernoulli draws), and
//! 6. validates predictions by **static fault simulation**
//!    ([`FaultSimulator`], 64-way pattern-parallel and thread-sharded
//!    along whichever axis of the (faults × patterns) grid keeps every
//!    core busy ([`plan_shards`]: fault slices, or contiguous stream
//!    ranges in the few-fault regime) — see [`parallel`] for the
//!    determinism contract: same seed ⇒ same result at any thread
//!    count on either axis).
//!
//! # Example
//!
//! ```
//! use dynmos_netlist::generate::{domino_wide_and, single_cell_network};
//! use dynmos_protest::{network_fault_list, test_length, detection_probabilities};
//!
//! let net = single_cell_network(domino_wide_and(8));
//! let faults = network_fault_list(&net);
//! let uniform = vec![0.5; 8];
//! let probs = detection_probabilities(&net, &faults, &uniform);
//! let n_uniform = test_length(&probs, 0.999);
//! // The hardest fault needs p = 2^-8 patterns; thousands of patterns.
//! assert!(n_uniform > 1000);
//! ```

pub mod budget;
pub mod chaos;
pub mod detect;
pub mod env_contract;
pub mod estimate;
pub mod fsim;
pub mod length;
pub mod list;
pub mod montecarlo;
pub mod optimize;
pub mod parallel;
pub mod random;
pub mod service;
pub mod testability;

pub use budget::{env_budget_ms, RunBudget, RunStatus, StopReason};
pub use chaos::FaultPlan;
pub use detect::{
    detection_probabilities, detection_probability_estimates, exact_detection_probability,
    DetectionEstimate, EstimateMethod, ExactDetector,
};
pub use estimate::{exact_signal_probability, signal_probabilities};
pub use fsim::{FaultSimulator, FsimCheckpoint, FsimOutcome};
pub use length::{
    escape_probability, test_length, test_length_budgeted, test_length_per_fault, LengthError,
};
pub use list::{network_fault_list, network_fault_list_from, stuck_fault_list, FaultEntry};
pub use montecarlo::{
    mc_detection_probabilities, mc_detection_probabilities_budgeted, mc_detection_probability,
    mc_detection_resume, mc_signal_probability, mc_signal_probability_budgeted, mc_signal_resume,
    BudgetedEstimates, Estimate, McCheckpoint,
};
pub use optimize::{
    optimize_input_probabilities, optimize_input_probabilities_budgeted,
    optimize_input_probabilities_with,
};
pub use parallel::{plan_shards, run_sharded, Parallelism, ShardPlan};
pub use random::PatternSource;
pub use service::{
    BackoffPolicy, EngineConfig, JobContext, JobEngine, JobKernel, JobRecord, JobStatus, Json,
    NetlistFormat, NetworkCache,
};
pub use testability::{
    tier_census, DetectionEngine, TestPattern, TestabilityConfig, TierMode, DEFAULT_NODE_BUDGET,
};
