//! Random test length for a demanded confidence.
//!
//! PROTEST's third stage: "The user wants to know how many random patterns
//! he has to apply in order to detect all faults. He specifies the input
//! signal probabilities and the demanded confidence of the random test,
//! and PROTEST computes the necessary test length."
//!
//! With per-fault detection probabilities `p_i`, the probability that all
//! `m` faults are detected within `N` independent patterns is
//! `Π_i (1 - (1-p_i)^N)`. [`test_length`] finds the smallest `N` reaching
//! the demanded confidence.
//!
//! The joint product is evaluated in **fixed-size blocks** folded in
//! ascending order — the same partial-aggregation discipline the rest of
//! [`crate::parallel`] uses — so [`test_length_budgeted`] can shard the
//! fault axis over worker threads (ISCAS-scale lists evaluate the
//! product a hundred-plus times during the search) while staying
//! bit-identical to the serial estimator at any thread count.

use crate::budget::{RunBudget, StopReason};
use crate::parallel::{plan_shards, run_sharded, Parallelism, ShardPlan};

/// Faults per partial-product block: the fixed summation-tree unit that
/// makes serial and sharded products associate identically.
const PROB_BLOCK: usize = 1024;

/// Why a test-length query could not produce a length. Degenerate
/// inputs (NaN included — every comparison with NaN fails, so NaN can
/// never satisfy a range check) are reported instead of propagating
/// NaN/inf into pattern budgets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LengthError {
    /// `probs` was empty: a joint confidence over zero faults is
    /// meaningless.
    EmptyFaultList,
    /// A detection probability (the payload) was outside `[0, 1]` or
    /// NaN.
    BadProbability(f64),
    /// The demanded confidence (the payload) was outside the open
    /// interval `(0, 1)` or NaN.
    BadConfidence(f64),
    /// A [`RunBudget`] stopped the search between evaluations of the
    /// joint product.
    Interrupted(StopReason),
}

impl std::fmt::Display for LengthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LengthError::EmptyFaultList => write!(f, "need at least one fault"),
            LengthError::BadProbability(p) => write!(f, "probability {p} outside [0,1]"),
            LengthError::BadConfidence(c) => {
                write!(f, "confidence must be in (0,1), got {c}")
            }
            LengthError::Interrupted(reason) => {
                write!(f, "test-length search interrupted: {reason}")
            }
        }
    }
}

impl std::error::Error for LengthError {}

/// Probability that at least one of `n` patterns detects a fault with
/// per-pattern detection probability `p`: the complement of the escape
/// probability `(1-p)^n`.
pub fn escape_probability(p: f64, n: u64) -> f64 {
    (1.0 - p).powf(n as f64)
}

/// The smallest `N` such that a fault with detection probability `p` is
/// detected with probability at least `confidence` — the per-fault length
/// `N ≥ ln(1-confidence) / ln(1-p)`.
///
/// Returns `u64::MAX` for `p == 0` (redundant fault, never detected).
///
/// # Panics
///
/// Panics unless `0 < confidence < 1` and `0 <= p <= 1`.
pub fn test_length_per_fault(p: f64, confidence: f64) -> u64 {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1)"
    );
    assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
    if p == 0.0 {
        return u64::MAX;
    }
    if p == 1.0 {
        return 1;
    }
    let n = (1.0 - confidence).ln() / (1.0 - p).ln();
    n.ceil() as u64
}

/// The smallest `N` such that *all* faults (detection probabilities
/// `probs`) are detected with joint probability at least `confidence`,
/// assuming independent detections: `Π_i (1 - (1-p_i)^N) ≥ confidence`.
///
/// Returns `u64::MAX` if any fault has zero detection probability.
///
/// # Panics
///
/// Panics unless `0 < confidence < 1`, all probabilities are in `[0, 1]`,
/// and `probs` is non-empty.
///
/// # Example
///
/// ```
/// use dynmos_protest::test_length;
/// // One easy fault and one needing p=2^-8.
/// let n = test_length(&[0.5, 1.0 / 256.0], 0.999);
/// assert!(n > 1500 && n < 2500);
/// ```
pub fn test_length(probs: &[f64], confidence: f64) -> u64 {
    try_test_length(probs, confidence).unwrap_or_else(|e| panic!("{e}"))
}

/// The joint detection confidence `Π_i (1 - (1-p_i)^N)` over one block of
/// faults, folded left-to-right.
fn block_confidence(probs: &[f64], n: u64) -> f64 {
    probs
        .iter()
        .map(|&p| 1.0 - escape_probability(p, n))
        .product()
}

/// [`test_length`] returning degenerate inputs as [`LengthError`]
/// instead of panicking: NaN or out-of-range probabilities/confidence
/// are reported, never propagated into pattern budgets.
pub fn try_test_length(probs: &[f64], confidence: f64) -> Result<u64, LengthError> {
    test_length_budgeted(
        probs,
        confidence,
        Parallelism::default(),
        &RunBudget::unlimited(),
    )
}

/// [`try_test_length`] with an explicit thread policy and under a
/// [`RunBudget`].
///
/// The fault axis (in `PROB_BLOCK`-sized blocks) is the only axis here,
/// so the planner shards it whenever the list can feed every worker a
/// block; block products merge by an ascending-order fold, making the
/// result bit-identical at any thread count.
///
/// The budget is checked between evaluations of the joint product
/// (each evaluation scans the whole fault list), after at least one
/// has run. The search keeps no checkpoint — an interrupted search
/// returns [`LengthError::Interrupted`] and discards its bounds; a
/// completed budgeted search equals the unbudgeted result
/// bit-identically.
pub fn test_length_budgeted(
    probs: &[f64],
    confidence: f64,
    parallelism: Parallelism,
    run_budget: &RunBudget,
) -> Result<u64, LengthError> {
    if probs.is_empty() {
        return Err(LengthError::EmptyFaultList);
    }
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(LengthError::BadConfidence(confidence));
    }
    for &p in probs {
        if !(0.0..=1.0).contains(&p) {
            return Err(LengthError::BadProbability(p));
        }
    }
    if probs.contains(&0.0) {
        return Ok(u64::MAX);
    }
    let blocks = probs.len().div_ceil(PROB_BLOCK);
    let workers = match plan_shards(blocks, 1, parallelism.resolve()) {
        // The degenerate pattern axis never engages: with one block the
        // planner falls back to Faults(1), the inline serial fold.
        // Threads are spawned per `achieved` evaluation of the search,
        // so demand several blocks of work per worker before paying the
        // spawn — below that the inline fold wins.
        ShardPlan::Faults(w) | ShardPlan::Patterns(w) if blocks >= w * 4 => w,
        _ => 1,
    };
    let achieved = |n: u64| -> f64 {
        if workers <= 1 {
            let mut total = 1.0f64;
            for chunk in probs.chunks(PROB_BLOCK) {
                total *= block_confidence(chunk, n);
            }
            return total;
        }
        // Per-block partials from the workers, folded in ascending block
        // order — the identical summation tree to the serial loop above.
        run_sharded(blocks, workers, |block_range| {
            block_range
                .map(|b| {
                    let lo = b * PROB_BLOCK;
                    block_confidence(&probs[lo..(lo + PROB_BLOCK).min(probs.len())], n)
                })
                .collect::<Vec<f64>>()
        })
        .into_iter()
        .flatten()
        .fold(1.0f64, |acc, block| acc * block)
    };
    // Budget checks live between `achieved` evaluations (each one
    // scans the whole fault list), after at least one has run —
    // forward progress, like every other budgeted kernel.
    let mut evals = 0u64;
    let mut achieved_checked = |n: u64| -> Result<f64, LengthError> {
        if evals > 0 {
            if let Some(reason) = run_budget.stop_requested() {
                return Err(LengthError::Interrupted(reason));
            }
        }
        evals += 1;
        Ok(achieved(n))
    };
    // Exponential search then binary search on the monotone predicate.
    let mut hi = 1u64;
    while achieved_checked(hi)? < confidence {
        hi = hi.saturating_mul(2);
        if hi == u64::MAX {
            return Ok(u64::MAX);
        }
    }
    let mut lo = hi / 2;
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if achieved_checked(mid)? >= confidence {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    if achieved_checked(lo.max(1))? >= confidence {
        Ok(lo.max(1))
    } else {
        Ok(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_probability_shrinks_geometrically() {
        let p = 0.25;
        assert_eq!(escape_probability(p, 0), 1.0);
        assert!((escape_probability(p, 1) - 0.75).abs() < 1e-12);
        assert!((escape_probability(p, 2) - 0.5625).abs() < 1e-12);
    }

    #[test]
    fn per_fault_length_closed_form() {
        // p=0.5, c=0.999: N = ln(0.001)/ln(0.5) ≈ 9.97 -> 10.
        assert_eq!(test_length_per_fault(0.5, 0.999), 10);
        assert_eq!(test_length_per_fault(1.0, 0.9), 1);
        assert_eq!(test_length_per_fault(0.0, 0.9), u64::MAX);
    }

    #[test]
    fn single_fault_joint_equals_per_fault() {
        for p in [0.5, 0.1, 0.01] {
            for c in [0.9, 0.99, 0.999] {
                assert_eq!(
                    test_length(&[p], c),
                    test_length_per_fault(p, c),
                    "p={p} c={c}"
                );
            }
        }
    }

    #[test]
    fn joint_length_at_least_per_fault_max() {
        let probs = [0.5, 0.03, 0.2];
        let joint = test_length(&probs, 0.99);
        let worst = probs
            .iter()
            .map(|&p| test_length_per_fault(p, 0.99))
            .max()
            .unwrap();
        assert!(joint >= worst);
        // ... and not absurdly larger (many faults only add ln m).
        assert!(joint < worst * 3);
    }

    #[test]
    fn length_grows_with_confidence() {
        let probs = [0.01, 0.2];
        let n90 = test_length(&probs, 0.90);
        let n999 = test_length(&probs, 0.999);
        assert!(n999 > n90);
    }

    #[test]
    fn length_is_tight() {
        // N-1 must miss the confidence, N must reach it.
        let probs = [0.07, 0.3, 0.004];
        let c = 0.995;
        let n = test_length(&probs, c);
        let achieved = |n: u64| -> f64 {
            probs
                .iter()
                .map(|&p| 1.0 - escape_probability(p, n))
                .product()
        };
        assert!(achieved(n) >= c);
        assert!(achieved(n - 1) < c);
    }

    #[test]
    fn redundant_fault_gives_infinite_length() {
        assert_eq!(test_length(&[0.5, 0.0], 0.9), u64::MAX);
    }

    #[test]
    fn parallel_length_is_bit_identical_to_serial() {
        // Large enough that every tested thread count clears the
        // blocks-per-worker engagement threshold; the blocked product
        // must make thread count invisible.
        let probs: Vec<f64> = (0..40_000)
            .map(|i| 0.001 + 0.9 * ((i * 37 % 101) as f64 / 101.0))
            .collect();
        let length = |parallelism| {
            test_length_budgeted(&probs, 0.999, parallelism, &RunBudget::unlimited()).unwrap()
        };
        let serial = length(Parallelism::Serial);
        for threads in [2usize, 3, 4, 8] {
            assert_eq!(
                length(Parallelism::Fixed(threads)),
                serial,
                "threads={threads}"
            );
        }
        assert!(serial > 1);
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn bad_confidence_panics() {
        test_length(&[0.5], 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one fault")]
    fn empty_fault_list_panics() {
        test_length(&[], 0.9);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn nan_probability_panics_in_legacy_api() {
        test_length(&[f64::NAN], 0.9);
    }

    #[test]
    fn degenerate_inputs_are_reported_not_propagated() {
        assert_eq!(try_test_length(&[], 0.9), Err(LengthError::EmptyFaultList));
        for c in [0.0, 1.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let got = try_test_length(&[0.5], c);
            assert!(
                matches!(got, Err(LengthError::BadConfidence(_))),
                "confidence={c} got={got:?}"
            );
        }
        for p in [-0.1, 1.0001, f64::NAN, f64::NEG_INFINITY] {
            let got = try_test_length(&[0.5, p], 0.9);
            assert!(
                matches!(got, Err(LengthError::BadProbability(_))),
                "p={p} got={got:?}"
            );
        }
        // The error text carries the same phrasing the panicking API
        // uses, so should_panic substring tests and log greps agree.
        assert_eq!(
            LengthError::EmptyFaultList.to_string(),
            "need at least one fault"
        );
        assert!(LengthError::BadProbability(2.0)
            .to_string()
            .contains("outside [0,1]"));
        assert!(LengthError::BadConfidence(1.0)
            .to_string()
            .contains("confidence must be in (0,1)"));
    }

    #[test]
    fn valid_inputs_round_trip_through_try_api() {
        let probs = [0.07, 0.3, 0.004];
        assert_eq!(
            try_test_length(&probs, 0.995),
            Ok(test_length(&probs, 0.995))
        );
        assert_eq!(try_test_length(&[0.5, 0.0], 0.9), Ok(u64::MAX));
    }

    #[test]
    fn budgeted_search_completes_and_matches() {
        let probs: Vec<f64> = (0..500).map(|i| 0.01 + 0.001 * (i % 37) as f64).collect();
        let far = RunBudget::deadline_in(std::time::Duration::from_secs(3600));
        assert_eq!(
            test_length_budgeted(&probs, 0.999, Parallelism::Serial, &far),
            Ok(test_length(&probs, 0.999))
        );
    }

    #[test]
    fn cancelled_search_interrupts_after_forward_progress() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(true));
        let cancelled = RunBudget::unlimited().with_cancel(flag);
        // p=0.01 needs hundreds of patterns: the search cannot finish
        // in its one guaranteed evaluation.
        assert_eq!(
            test_length_budgeted(&[0.01], 0.999, Parallelism::Serial, &cancelled),
            Err(LengthError::Interrupted(StopReason::Cancelled))
        );
    }
}
