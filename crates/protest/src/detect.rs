//! Fault detection probabilities.
//!
//! PROTEST's second stage: "for each fault the probability is estimated,
//! that it is detected by a random pattern." A pattern detects a fault iff
//! some primary output differs between the fault-free and faulty machines.
//!
//! The enumeration core is [`ExactDetector`]: it walks the weighted input
//! space **once per probability vector**, evaluating the good machine on
//! the compiled tape and replaying each fault's fanout cone
//! incrementally, so whole-list detection probabilities cost one
//! enumeration instead of one per fault. The row space is walked in
//! 4096-row blocks through the crate's one chunked, sharded,
//! budget-checked stream walk (`parallel::StreamWalk`); every fault's
//! total is its block partials added in ascending block order, so the
//! f64 result is the same at any thread count, shard axis or chunking.
//! The tiered [`crate::DetectionEngine`] holds one detector for its
//! fault list, so the optimizer's coordinate sweeps reuse it (and its
//! prepared faults) across hundreds of objective evaluations.

use crate::budget::{RunBudget, StopReason};
use crate::list::FaultEntry;
use crate::parallel::{Parallelism, StreamWalk};
use dynmos_netlist::{Network, NetworkFault, PackedEvaluator, PreparedFault};
use std::ops::Range;

/// How a [`DetectionEstimate`] was computed — the engine tier that
/// served the fault (see [`crate::testability`] for the selection
/// rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimateMethod {
    /// Exact weighted enumeration of the whole input space.
    Exact,
    /// Monte-Carlo estimation (standalone sampler paths; the tiered
    /// engine itself reports [`EstimateMethod::Cutting`] when sampling
    /// only tightens certified bounds).
    MonteCarlo,
    /// Exact symbolic evaluation on the shared BDD — mathematically
    /// exact, but summed in BDD order rather than enumeration order.
    Bdd,
    /// Cutting-style certified bounds (`bounds` is always `Some`);
    /// `value` is the Monte-Carlo-tightened point inside them, or the
    /// interval midpoint when tightening is disabled.
    Cutting,
}

impl EstimateMethod {
    /// Machine-readable token used in service payloads and status lines.
    pub fn token(self) -> &'static str {
        match self {
            EstimateMethod::Exact => "exact",
            EstimateMethod::MonteCarlo => "monte-carlo",
            EstimateMethod::Bdd => "bdd",
            EstimateMethod::Cutting => "cutting",
        }
    }

    /// Inverse of [`token`](Self::token).
    pub(crate) fn from_token(s: &str) -> Result<Self, String> {
        match s {
            "exact" => Ok(EstimateMethod::Exact),
            "monte-carlo" => Ok(EstimateMethod::MonteCarlo),
            "bdd" => Ok(EstimateMethod::Bdd),
            "cutting" => Ok(EstimateMethod::Cutting),
            other => Err(format!("unknown estimate method {other:?}")),
        }
    }
}

/// A detection probability with its provenance. Exact and BDD tiers
/// report a zero standard error; Monte-Carlo reports the binomial
/// standard error of its sample mean; the cutting tier reports certified
/// bounds plus a point estimate inside them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionEstimate {
    /// The detection probability (exact value, sample mean, or a point
    /// inside the certified bounds).
    pub value: f64,
    /// Standard error of `value` (0 for the exact methods).
    pub std_error: f64,
    /// Which engine tier produced `value`.
    pub method: EstimateMethod,
    /// Certified `[low, high]` enclosure of the true probability —
    /// `Some` exactly when `method` is [`EstimateMethod::Cutting`].
    pub bounds: Option<(f64, f64)>,
}

/// The number of enumeration rows for `inputs` primary inputs, or
/// `None` when `2^inputs` does not even fit in a `u64`.
pub(crate) fn row_space(inputs: usize) -> Option<u64> {
    if inputs >= 64 {
        None
    } else {
        Some(1u64 << inputs)
    }
}

/// Exact detection probability of one fault by weighted exhaustive
/// enumeration (inputs independent with probabilities `pi_probs`).
///
/// # Panics
///
/// Panics if the network has more than 24 primary inputs or the arity of
/// `pi_probs` is wrong.
///
/// # Example
///
/// ```
/// use dynmos_netlist::generate::{domino_wide_and, single_cell_network};
/// use dynmos_protest::{exact_detection_probability, network_fault_list};
///
/// let net = single_cell_network(domino_wide_and(4));
/// let list = network_fault_list(&net);
/// // The all-ones pattern is the only test for output s-a-0: p = 2^-4.
/// // Find the stuck-0-output class (constant-false faulty function).
/// let s0z = list.iter()
///     .find(|e| matches!(&e.fault,
///         dynmos_netlist::NetworkFault::GateFunction(_, f) if *f == dynmos_logic::Bexpr::FALSE))
///     .unwrap();
/// let p = exact_detection_probability(&net, &s0z.fault, &[0.5; 4]);
/// assert!((p - 0.0625).abs() < 1e-12);
/// ```
pub fn exact_detection_probability(
    net: &Network,
    fault: &dynmos_netlist::NetworkFault,
    pi_probs: &[f64],
) -> f64 {
    ExactDetector::for_faults(net, std::slice::from_ref(fault)).probabilities(pi_probs)[0]
}

/// Exact detection probabilities for a whole fault list (one value per
/// entry, in order). One weighted enumeration of the input space serves
/// every fault.
///
/// # Panics
///
/// Same conditions as [`exact_detection_probability`].
pub fn detection_probabilities(net: &Network, faults: &[FaultEntry], pi_probs: &[f64]) -> Vec<f64> {
    ExactDetector::new(net, faults).probabilities(pi_probs)
}

/// A reusable exact-enumeration engine: one [`PreparedFault`] per fault,
/// shared across any number of probability vectors. Each query walks the
/// row space once through the crate's stream walk, with evaluators
/// allocated per shard, so the detector itself holds no scratch state.
///
/// # Example
///
/// ```
/// use dynmos_netlist::generate::{domino_wide_and, single_cell_network};
/// use dynmos_protest::{network_fault_list, ExactDetector};
///
/// let net = single_cell_network(domino_wide_and(4));
/// let faults = network_fault_list(&net);
/// let mut det = ExactDetector::new(&net, &faults);
/// let uniform = det.probabilities(&[0.5; 4]);
/// let weighted = det.probabilities(&[0.9; 4]); // same detector, new vector
/// assert_eq!(uniform.len(), weighted.len());
/// ```
#[derive(Debug)]
pub struct ExactDetector<'n> {
    net: &'n Network,
    prepared: Vec<PreparedFault<'n>>,
    parallelism: Parallelism,
}

/// Enumeration becomes worth sharding once the per-worker setup (an
/// evaluator allocation) is dwarfed by the row walk; smaller row spaces
/// walk serially.
const PARALLEL_ROWS_MIN: u64 = 1 << 12;

/// Rows per accumulation block, the walk's unit. Every fault's total is
/// its block partials (rows ascending within a block) added in ascending
/// block order, whichever shard computed them, so the floating-point
/// summation tree is a property of the workload, never of the thread
/// count or axis. 4096 rows (64 packed evaluations) per block keeps the
/// partials small while giving a pattern-axis worker enough work to pay
/// for its evaluator.
const ROW_BLOCK: u64 = 1 << 12;

/// Blocks per budgeted chunk: a budgeted walk checks its [`RunBudget`]
/// only between groups of this many row blocks (`16 * 4096 = 65536`
/// rows), so check frequency is a property of the workload, never of
/// the thread count.
const CHUNK_BLOCKS: u64 = 16;

impl<'n> ExactDetector<'n> {
    /// A detector for a fault list, with the default thread policy
    /// ([`Parallelism::Auto`]).
    pub fn new(net: &'n Network, faults: &[FaultEntry]) -> Self {
        Self::for_faults_iter(net, faults.iter().map(|e| &e.fault))
    }

    /// A detector for bare faults (no list metadata).
    pub(crate) fn for_faults(net: &'n Network, faults: &[NetworkFault]) -> Self {
        Self::for_faults_iter(net, faults.iter())
    }

    /// Sets the thread policy for subsequent [`Self::probabilities`]
    /// calls. Results are bit-identical at any thread count.
    pub(crate) fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }

    fn for_faults_iter<'f>(
        net: &'n Network,
        faults: impl Iterator<Item = &'f NetworkFault>,
    ) -> Self {
        Self {
            net,
            prepared: faults.map(|f| net.prepare_fault(f)).collect(),
            parallelism: Parallelism::default(),
        }
    }

    /// Exact detection probability of every fault under independent
    /// per-input probabilities `pi_probs`, by one weighted exhaustive
    /// enumeration of the input space. When the row space is large
    /// enough to pay for worker threads, the enumeration is sharded
    /// along the axis [`plan_shards`](crate::parallel::plan_shards)
    /// picks: the fault list, or — in the few-fault regime the
    /// optimizer's late objectives live in — the row-block axis.
    ///
    /// # Panics
    ///
    /// Panics if the network has more than 24 primary inputs or the arity
    /// of `pi_probs` is wrong.
    pub fn probabilities(&mut self, pi_probs: &[f64]) -> Vec<f64> {
        let n = self.net.primary_inputs().len();
        assert!(n <= 24, "exact enumeration over {n} inputs is infeasible");
        self.try_probabilities(pi_probs, &RunBudget::unlimited())
            .expect("an unlimited walk within the row cap completes")
    }

    /// [`Self::probabilities`] under a [`RunBudget`]. A row space
    /// larger than [`RunBudget::effective_exact_rows`] is refused up
    /// front with [`StopReason::RowCap`] — no work is done, so callers
    /// can degrade to the symbolic tiers (see
    /// [`detection_probability_estimates`]). A deadline or cancellation
    /// flag turns the enumeration into a chunked walk checked every
    /// `CHUNK_BLOCKS` row blocks; the pattern cap does not apply. A
    /// completed budgeted run is bit-identical to
    /// [`Self::probabilities`] at any thread count. Exact enumeration
    /// has no resumable checkpoint — an interrupted walk returns the
    /// [`StopReason`] and discards its partial sums (a prefix of the row
    /// space is not an estimate of anything).
    ///
    /// # Panics
    ///
    /// Panics if the arity of `pi_probs` is wrong, or with the
    /// [`ShardError`](crate::ShardError) text if a shard fails twice.
    pub(crate) fn try_probabilities(
        &mut self,
        pi_probs: &[f64],
        run_budget: &RunBudget,
    ) -> Result<Vec<f64>, StopReason> {
        self.walk(0..self.prepared.len(), pi_probs, run_budget)
    }

    /// [`Self::try_probabilities`] for the faults `faults` of the
    /// detector's list only — the entry point the tiered engine walks
    /// its fault blocks through, so one detector serves every query.
    pub(crate) fn walk(
        &self,
        faults: Range<usize>,
        pi_probs: &[f64],
        run_budget: &RunBudget,
    ) -> Result<Vec<f64>, StopReason> {
        let n = self.net.primary_inputs().len();
        assert_eq!(pi_probs.len(), n, "need one probability per primary input");
        let rows = match row_space(n) {
            Some(rows) if rows <= run_budget.effective_exact_rows() => rows,
            _ => return Err(StopReason::RowCap),
        };
        let prepared = &self.prepared[faults];
        // No checkpoint exists, so a pattern cap could only cut walks
        // that never finish.
        let budget = RunBudget {
            max_patterns: None,
            ..run_budget.clone()
        };
        let mut totals = vec![0.0f64; prepared.len()];
        let end = StreamWalk {
            done: 0,
            total: rows.div_ceil(ROW_BLOCK),
            chunk: CHUNK_BLOCKS,
            unit_patterns: ROW_BLOCK,
            threads: if rows < PARALLEL_ROWS_MIN {
                1
            } else {
                self.parallelism.resolve()
            },
            budget: &budget,
        }
        .run(
            &mut totals,
            |totals| (0..totals.len()).collect(),
            |targets, blocks| block_partials(self.net, prepared, targets, pi_probs, rows, blocks),
            |total, (head, tail)| {
                *total += head; // dynlint: ordered -- StreamWalk merges shards in shard order and chunks in walk order; partials arrive in ascending block order
                for p in tail {
                    *total += p; // dynlint: ordered -- ascending block order within the span
                }
            },
        );
        if let Some(e) = end.error {
            panic!("{e}");
        }
        if let Some(reason) = end.stop {
            return Err(reason);
        }
        // Summing 2^n weights accumulates ulp-scale error; clamp to [0,1]
        // so downstream validation (test_length) never sees 1.0 + epsilon.
        for t in &mut totals {
            *t = t.clamp(0.0, 1.0);
        }
        Ok(totals)
    }
}

/// Detection probabilities through the tiered testability engine
/// ([`crate::DetectionEngine`]): exact enumeration runs when the row
/// space fits `RunBudget::effective_exact_rows`; otherwise the walk is
/// refused up front and the symbolic tiers run instead — the BDD tier,
/// degrading per fault to certified cutting bounds (tightened by Monte
/// Carlo over one sample bank shared by the query) when a fault's BDD
/// overflows the node budget. Each returned [`DetectionEstimate`]
/// labels which tier produced it, so callers can report standard errors
/// for bounded values. The tier mode comes from `DYNMOS_TESTABILITY`
/// (default `auto`). A deadline/cancellation interrupt surfaces as
/// `Err(StopReason)`.
///
/// Only perfbench calls this now, to rebuild a `detect` job's expected
/// result; the service streams the same engine per fault.
///
/// # Panics
///
/// Panics if the arity of `pi_probs` is wrong.
pub fn detection_probability_estimates(
    net: &Network,
    faults: &[FaultEntry],
    pi_probs: &[f64],
    seed: u64,
    parallelism: Parallelism,
    run_budget: &RunBudget,
) -> Result<Vec<DetectionEstimate>, StopReason> {
    let config = crate::testability::TestabilityConfig::from_env().with_seed(seed);
    crate::testability::DetectionEngine::new(net, faults, config)
        .with_parallelism(parallelism)
        .estimates(pi_probs, run_budget)
}

/// The span of the exact walk: each listed fault's block partials over
/// `blocks`, in ascending block order, as `(head, tail)` — the first
/// block's partial and the rest. A range starting at block 0 pre-folds
/// every partial into `head` (the running total it merges into is still
/// +0.0, and `0.0 + x == x` exactly), so a whole-space span stores one
/// partial per fault and allocates none.
fn block_partials(
    net: &Network,
    prepared: &[PreparedFault<'_>],
    targets: &[usize],
    pi_probs: &[f64],
    rows: u64,
    blocks: Range<u64>,
) -> Vec<(f64, Vec<f64>)> {
    let faults: Vec<&PreparedFault<'_>> = targets.iter().map(|&t| &prepared[t]).collect();
    let start = blocks.start;
    let mut out = vec![(0.0f64, Vec::new()); faults.len()];
    let mut ev = PackedEvaluator::new(net);
    let mut pi_words = vec![0u64; pi_probs.len()];
    let mut weights = [0.0f64; 64];
    let mut block = vec![0.0f64; faults.len()];
    for b in blocks {
        enumerate_block_into(
            &faults,
            pi_probs,
            b * ROW_BLOCK..((b + 1) * ROW_BLOCK).min(rows),
            &mut ev,
            &mut pi_words,
            &mut weights,
            &mut block,
        );
        for ((head, tail), &p) in out.iter_mut().zip(&block) {
            if b == start || start == 0 {
                *head += p; // dynlint: ordered -- ascending block order from the span's first block
            } else {
                tail.push(p);
            }
        }
    }
    out
}

/// The weighted row walk of one block, `out[fi]` reset and accumulated
/// in ascending row order within the block. Every fault's block partial
/// is a pure function of the block's row range, so the result does not
/// depend on which worker (or axis) computed it.
fn enumerate_block_into(
    prepared: &[&PreparedFault<'_>],
    pi_probs: &[f64],
    row_range: Range<u64>,
    ev: &mut PackedEvaluator<'_>,
    pi_words: &mut [u64],
    weights: &mut [f64; 64],
    out: &mut [f64],
) {
    out.fill(0.0);
    let mut row = row_range.start;
    while row < row_range.end {
        let lanes = (row_range.end - row).min(64);
        pi_words.fill(0);
        for lane in 0..lanes {
            let assignment = row + lane;
            for (i, w) in pi_words.iter_mut().enumerate() {
                if (assignment >> i) & 1 == 1 {
                    *w |= 1 << lane;
                }
            }
            let mut weight = 1.0;
            for (i, &p) in pi_probs.iter().enumerate() {
                weight *= if (assignment >> i) & 1 == 1 {
                    p
                } else {
                    1.0 - p
                };
            }
            weights[lane as usize] = weight;
        }
        ev.eval(pi_words);
        for (fi, prepared) in prepared.iter().enumerate() {
            let mut differ = ev.fault_diff64(prepared);
            if lanes < 64 {
                differ &= (1u64 << lanes) - 1;
            }
            while differ != 0 {
                let lane = differ.trailing_zeros() as usize;
                out[fi] += weights[lane]; // dynlint: ordered -- lanes drain in ascending bit position within one pattern word
                differ &= differ - 1;
            }
        }
        row += lanes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::network_fault_list;
    use crate::testability::{DetectionEngine, TestabilityConfig, TierMode};
    use dynmos_logic::Bexpr;
    use dynmos_netlist::generate::{and_or_tree, domino_wide_and, fig9_cell, single_cell_network};
    use dynmos_netlist::{NetId, NetworkFault};

    /// Index of the constant-0 gate-function class (the s0-z fault).
    fn s0z_index(list: &[crate::list::FaultEntry]) -> usize {
        list.iter()
            .position(
                |e| matches!(&e.fault, NetworkFault::GateFunction(_, f) if *f == Bexpr::FALSE),
            )
            .expect("s0-z class exists")
    }

    #[test]
    fn wide_and_hard_fault_probability() {
        for n in [4usize, 6, 8] {
            let net = single_cell_network(domino_wide_and(n));
            let list = network_fault_list(&net);
            let s0z = &list[s0z_index(&list)];
            let p = exact_detection_probability(&net, &s0z.fault, &vec![0.5; n]);
            assert!((p - 0.5f64.powi(n as i32)).abs() < 1e-12, "n={n} p={p}");
        }
    }

    #[test]
    fn weighting_raises_hard_fault_probability() {
        let n = 8;
        let net = single_cell_network(domino_wide_and(n));
        let list = network_fault_list(&net);
        let s0z = &list[s0z_index(&list)];
        let uniform = exact_detection_probability(&net, &s0z.fault, &vec![0.5; n]);
        let weighted = exact_detection_probability(&net, &s0z.fault, &vec![0.9; n]);
        // 0.9^8 ≈ 0.43 vs 2^-8 ≈ 0.0039: two orders of magnitude.
        assert!(weighted / uniform > 100.0);
    }

    #[test]
    fn undetectable_fault_has_probability_zero() {
        // A gate-function fault equal to the good function detects nothing.
        let net = and_or_tree(2);
        let good = net.cell_of(dynmos_netlist::GateRef(0)).logic_function();
        let fault = NetworkFault::GateFunction(dynmos_netlist::GateRef(0), good);
        let p = exact_detection_probability(&net, &fault, &[0.5; 4]);
        assert_eq!(p, 0.0);
    }

    #[test]
    fn po_stuck_detection_is_one_sided() {
        // Output of the tree stuck at 1: detected whenever good output is 0.
        let net = and_or_tree(2);
        let po = net.primary_outputs()[0];
        let fault = NetworkFault::NetStuck(po, true);
        let p = exact_detection_probability(&net, &fault, &[0.5; 4]);
        // good P(out=1) = 0.4375 -> detect when 0: 0.5625
        assert!((p - 0.5625).abs() < 1e-12);
    }

    #[test]
    fn all_fig9_classes_detectable_under_uniform() {
        let net = single_cell_network(fig9_cell());
        let list = network_fault_list(&net);
        let probs = detection_probabilities(&net, &list, &[0.5; 5]);
        for (e, p) in list.iter().zip(&probs) {
            assert!(*p > 0.0, "{} undetectable", e.label);
            assert!(*p <= 1.0);
        }
    }

    #[test]
    fn detection_probability_respects_input_weights() {
        // PI s-a-1 on input x0 of the tree: detection needs x0=0 and the
        // difference to propagate.
        let net = and_or_tree(2);
        let x0: NetId = net.primary_inputs()[0];
        let fault = NetworkFault::NetStuck(x0, true);
        let p_low = exact_detection_probability(&net, &fault, &[0.9, 0.5, 0.5, 0.5]);
        let p_high = exact_detection_probability(&net, &fault, &[0.1, 0.5, 0.5, 0.5]);
        // Setting x0=0 more often makes the s-a-1 easier to see.
        assert!(p_high > p_low);
    }

    #[test]
    fn thread_count_does_not_change_probabilities() {
        // 13 inputs -> 8192 rows, above the parallel threshold.
        let net = single_cell_network(domino_wide_and(13));
        let list = network_fault_list(&net);
        let probs: Vec<f64> = (0..13).map(|i| 0.25 + 0.05 * (i % 10) as f64).collect();
        let mut det = ExactDetector::new(&net, &list);
        det.set_parallelism(Parallelism::Serial);
        let serial = det.probabilities(&probs);
        for threads in [2usize, 4, 8] {
            det.set_parallelism(Parallelism::Fixed(threads));
            assert_eq!(det.probabilities(&probs), serial, "threads={threads}");
        }
    }

    #[test]
    fn few_fault_row_block_axis_matches_serial() {
        // 2 faults < threads on a 2^14-row space: the planner shards the
        // row-block axis; ascending-order block sums keep every f64 total
        // bit-identical to the serial fold.
        let net = single_cell_network(domino_wide_and(14));
        let list: Vec<_> = network_fault_list(&net).into_iter().take(2).collect();
        let probs: Vec<f64> = (0..14).map(|i| 0.3 + 0.04 * (i % 9) as f64).collect();
        let mut det = ExactDetector::new(&net, &list);
        det.set_parallelism(Parallelism::Serial);
        let serial = det.probabilities(&probs);
        for threads in [2usize, 4, 8] {
            det.set_parallelism(Parallelism::Fixed(threads));
            assert_eq!(det.probabilities(&probs), serial, "threads={threads}");
        }
    }

    #[test]
    fn single_fault_enumeration_shards_rows() {
        // The degenerate one-fault list used to force serial; the pattern
        // axis now parallelizes it and must stay exact.
        let net = single_cell_network(domino_wide_and(13));
        let list = network_fault_list(&net);
        let s0z = vec![list[s0z_index(&list)].clone()];
        let mut det = ExactDetector::new(&net, &s0z);
        det.set_parallelism(Parallelism::Fixed(8));
        let p = det.probabilities(&[0.5; 13]);
        assert!((p[0] - 0.5f64.powi(13)).abs() < 1e-15, "p={}", p[0]);
    }

    /// The test-local oracle for the exact walk: each detecting row's
    /// weight added in ascending row order within each `ROW_BLOCK`-row
    /// block, the block sums added in ascending block order. Only the
    /// packed evaluator is shared with the walk.
    fn reference_fold(net: &Network, faults: &[FaultEntry], probs: &[f64]) -> Vec<f64> {
        let rows = 1u64 << probs.len();
        let prepared: Vec<_> = faults.iter().map(|e| net.prepare_fault(&e.fault)).collect();
        let mut ev = PackedEvaluator::new(net);
        let mut totals = vec![0.0f64; faults.len()];
        for block in (0..rows).step_by(ROW_BLOCK as usize) {
            let mut sums = vec![0.0f64; faults.len()];
            for row0 in (block..(block + ROW_BLOCK).min(rows)).step_by(64) {
                let lanes: Vec<u64> = (row0..(row0 + 64).min(rows)).collect();
                let weight = |row: u64| {
                    let bit = |i: usize| row >> i & 1 == 1;
                    (0..probs.len()).fold(1.0, |w, i| {
                        w * if bit(i) { probs[i] } else { 1.0 - probs[i] }
                    })
                };
                let weights: Vec<f64> = lanes.iter().map(|&r| weight(r)).collect();
                let pi: Vec<u64> = (0..probs.len())
                    .map(|i| {
                        (0..lanes.len())
                            .filter(|&l| lanes[l] >> i & 1 == 1)
                            .fold(0, |w, l| w | 1 << l)
                    })
                    .collect();
                ev.eval(&pi);
                for (sum, fault) in sums.iter_mut().zip(&prepared) {
                    let differ = ev.fault_diff64(fault);
                    for (l, w) in weights.iter().enumerate() {
                        if differ >> l & 1 == 1 {
                            *sum += w;
                        }
                    }
                }
            }
            for (total, sum) in totals.iter_mut().zip(&sums) {
                *total += sum;
            }
        }
        totals.iter().map(|t| t.clamp(0.0, 1.0)).collect()
    }

    #[test]
    fn few_fault_and_full_list_exact_walk_matches_reference_fold() {
        // (carry-chain bits, fault index, f64 bits) captured from the
        // enumeration before it ran through the stream walk.
        const GOLDEN: [(usize, usize, u64); 6] = [
            (2, 1, 0x3fd50e5604189373),
            (2, 25, 0x3fe44dd2f1a9fbe7),
            (6, 1, 0x3fd50e560418936e),
            (6, 73, 0x3fe1bd99a87f87cc),
            (8, 1, 0x3fd50e560418937b),
            (8, 97, 0x3fe5319af76946b3),
        ];
        let far = RunBudget::deadline_in(std::time::Duration::from_secs(3600));
        let budgets = [
            RunBudget::unlimited(),
            far,
            RunBudget::unlimited().with_max_patterns(256),
        ];
        // 5, 13 and 17 inputs: 1, 2 and 32 row blocks.
        for bits in [2usize, 6, 8] {
            let net = dynmos_netlist::generate::carry_chain(bits);
            let faults = network_fault_list(&net);
            let n = net.primary_inputs().len();
            let probs: Vec<f64> = (0..n).map(|i| 0.3 + 0.05 * (i % 7) as f64).collect();
            let oracle = reference_fold(&net, &faults, &probs);
            let last = faults.len() - 1;
            let mut det = ExactDetector::new(&net, &faults);
            for range in [last..last + 1, 0..2, 0..faults.len()] {
                for threads in 1..=4 {
                    det.set_parallelism(Parallelism::Fixed(threads));
                    for budget in &budgets {
                        let got = det.walk(range.clone(), &probs, budget).expect("completes");
                        let ctx = format!("n={n} faults={range:?} threads={threads} {budget:?}");
                        for (k, value) in got.iter().enumerate() {
                            let i = range.start + k;
                            assert_eq!(value.to_bits(), oracle[i].to_bits(), "{ctx} fault {i}");
                            for &(_, _, golden) in GOLDEN.iter().filter(|g| (g.0, g.1) == (bits, i))
                            {
                                assert_eq!(value.to_bits(), golden, "{ctx} fault {i} golden");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "fault-shard worker panicked twice")]
    fn twice_failing_enumeration_shard_panics_with_shard_error() {
        let net = single_cell_network(domino_wide_and(13));
        let list = network_fault_list(&net);
        let mut det = ExactDetector::new(&net, &list);
        det.set_parallelism(Parallelism::Fixed(2));
        let plan =
            std::sync::Arc::new(crate::chaos::FaultPlan::new(3).worker_panic_persistent(1.0));
        crate::chaos::scoped(plan, || det.probabilities(&[0.5; 13]));
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn too_many_inputs_panics() {
        let net = and_or_tree(5); // 32 inputs
        let list = network_fault_list(&net);
        exact_detection_probability(&net, &list[0].fault, &vec![0.5; 32]);
    }

    #[test]
    fn budgeted_enumeration_matches_unbudgeted() {
        // A live deadline forces the chunked walk; a completed budgeted
        // run must be bit-identical to the single-pass enumeration at
        // any thread count.
        let net = single_cell_network(domino_wide_and(13));
        let list = network_fault_list(&net);
        let probs: Vec<f64> = (0..13).map(|i| 0.25 + 0.05 * (i % 10) as f64).collect();
        let mut det = ExactDetector::new(&net, &list);
        det.set_parallelism(Parallelism::Serial);
        let reference = det.probabilities(&probs);
        let far = RunBudget::deadline_in(std::time::Duration::from_secs(3600));
        for threads in [1usize, 2, 4] {
            det.set_parallelism(Parallelism::Fixed(threads));
            let got = det.try_probabilities(&probs, &far).expect("completes");
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn over_cap_refuses_up_front() {
        let net = single_cell_network(domino_wide_and(13)); // 8192 rows
        let list = network_fault_list(&net);
        let mut det = ExactDetector::new(&net, &list);
        let tight = RunBudget::unlimited().with_max_exact_rows(1 << 10);
        assert_eq!(
            det.try_probabilities(&[0.5; 13], &tight),
            Err(StopReason::RowCap)
        );
    }

    #[test]
    fn cancelled_enumeration_reports_interrupt() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        // A 19-input adder: 2^19 rows = 128 blocks = 8 chunks. The
        // pre-raised flag is honored at the first chunk boundary,
        // after forward progress.
        let net = dynmos_netlist::generate::ripple_adder(9);
        let n = net.primary_inputs().len();
        assert!(n > 16, "need a multi-chunk row space, got {n} inputs");
        let list: Vec<_> = network_fault_list(&net).into_iter().take(2).collect();
        let flag = Arc::new(AtomicBool::new(true));
        let mut det = ExactDetector::new(&net, &list);
        let cancelled = RunBudget::unlimited().with_cancel(flag);
        assert_eq!(
            det.try_probabilities(&vec![0.5; n], &cancelled),
            Err(StopReason::Cancelled)
        );
    }

    #[test]
    fn estimates_are_exact_within_cap() {
        let net = single_cell_network(domino_wide_and(8));
        let list = network_fault_list(&net);
        let probs = vec![0.5; 8];
        let exact = detection_probabilities(&net, &list, &probs);
        // Pinned Auto config: the test asserts the exact tier even when
        // the suite runs under a DYNMOS_TESTABILITY override.
        let est = DetectionEngine::new(&net, &list, TestabilityConfig::new(TierMode::Auto))
            .with_parallelism(Parallelism::Serial)
            .estimates(&probs, &RunBudget::unlimited())
            .expect("completes");
        assert_eq!(est.len(), exact.len());
        for (e, x) in est.iter().zip(&exact) {
            assert_eq!(e.method, EstimateMethod::Exact);
            assert_eq!(e.std_error, 0.0);
            assert_eq!(e.value, *x);
        }
    }

    #[test]
    fn estimates_go_symbolic_over_cap() {
        // 32 inputs: 2^32 rows exceed any cap — the historic path
        // panicked ("infeasible"), then degraded to Monte Carlo; the
        // tiered engine now serves these faults exactly from the BDD
        // tier (the tree's BDD is linear in its width).
        let net = and_or_tree(5);
        let list: Vec<_> = network_fault_list(&net).into_iter().take(4).collect();
        let probs = vec![0.5; 32];
        let est = DetectionEngine::new(&net, &list, TestabilityConfig::new(TierMode::Auto))
            .with_parallelism(Parallelism::Serial)
            .estimates(&probs, &RunBudget::unlimited().with_max_exact_rows(1 << 12))
            .expect("completes");
        let bounds = DetectionEngine::new(
            &net,
            &list,
            TestabilityConfig::new(TierMode::Cutting).with_mc_tighten_samples(0),
        )
        .estimates(&probs, &RunBudget::unlimited())
        .expect("completes");
        assert_eq!(est.len(), list.len());
        for ((e, cut), entry) in est.iter().zip(&bounds).zip(&list) {
            assert_eq!(e.method, EstimateMethod::Bdd, "{}", entry.label);
            assert_eq!(e.std_error, 0.0);
            // Reference: the fault alone in a forced-BDD engine gives the
            // same value, and that value lies in the certified bounds.
            let alone = DetectionEngine::new(
                &net,
                std::slice::from_ref(entry),
                TestabilityConfig::new(TierMode::Bdd),
            )
            .estimates(&probs, &RunBudget::unlimited())
            .expect("completes");
            assert_eq!(e.value, alone[0].value, "{}", entry.label);
            let (lo, hi) = cut.bounds.expect("cutting reports bounds");
            assert!(
                lo - 1e-12 <= e.value && e.value <= hi + 1e-12,
                "{}: {} outside [{lo}, {hi}]",
                entry.label,
                e.value
            );
        }
    }

    #[test]
    fn method_tokens_round_trip() {
        for m in [
            EstimateMethod::Exact,
            EstimateMethod::MonteCarlo,
            EstimateMethod::Bdd,
            EstimateMethod::Cutting,
        ] {
            assert_eq!(EstimateMethod::from_token(m.token()), Ok(m));
        }
        assert!(EstimateMethod::from_token("fast").is_err());
    }
}
