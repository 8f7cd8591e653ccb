//! Weighted random pattern generation.
//!
//! "Random patterns with distributions proposed by PROTEST are created."
//! [`PatternSource`] produces packed 64-lane pattern words, one per primary
//! input, where input `i` is 1 with its configured probability — the
//! driver for the pattern-parallel fault simulator.
//!
//! # Counter-based stream
//!
//! The source is *splittable*: batch `b` of the stream is a pure function
//! of `(seed, b)` ([`PatternSource::batch_at`]), so any number of threads
//! can regenerate any slice of the stream independently and the parallel
//! fault simulator ([`crate::parallel`]) stays bit-identical to the
//! serial one at every thread count. `next_batch` simply advances a
//! cursor over the same stream.
//!
//! # Bit-sliced weighting
//!
//! Each probability is lowered once, at construction, to a fixed-point
//! [`PackedWeight`]; a weighted 64-lane word then costs
//! [`PackedWeight::depth`] uniform RNG words (the AND/OR threshold
//! cascade — exact for dyadic probabilities `m/2^k`, threshold comparison
//! at 64-bit resolution otherwise) instead of 64 per-bit Bernoulli draws.
//! Scalar draws ([`PatternSource::next_pattern`]) route through the same
//! lowered thresholds, so scalar and packed streams realize identical
//! probabilities.

use dynmos_logic::PackedWeight;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::ops::Range;

/// SplitMix64 finalizer: decorrelates batch indices before seeding.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain separator so the scalar stream never aliases a batch stream.
const SCALAR_STREAM: u64 = 0x5CA1_AB1E_0000_0001;

/// A seeded source of weighted random pattern batches.
///
/// # Example
///
/// ```
/// use dynmos_protest::PatternSource;
/// let mut src = PatternSource::new(42, vec![0.5, 0.875]);
/// let batch = src.next_batch();
/// assert_eq!(batch.len(), 2);
/// // Lane k of batch[i] is pattern k's value for input i.
/// // The stream is position-addressable: batch 0 is reproducible.
/// assert_eq!(batch, src.batch_at(0));
/// ```
#[derive(Debug, Clone)]
pub struct PatternSource {
    seed: u64,
    probs: Vec<f64>,
    weights: Vec<PackedWeight>,
    /// Cursor: index of the next batch `next_batch` returns.
    position: u64,
    /// Dedicated stream for scalar `next_pattern` draws.
    scalar_rng: StdRng,
}

impl PatternSource {
    /// Creates a source for the given per-input probabilities. Each
    /// probability is lowered once to a fixed-point threshold
    /// ([`PackedWeight::lower`]).
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or `probs` is empty.
    pub fn new(seed: u64, probs: Vec<f64>) -> Self {
        assert!(!probs.is_empty(), "need at least one input");
        let weights = probs.iter().map(|&p| PackedWeight::lower(p)).collect();
        Self {
            seed,
            weights,
            probs,
            position: 0,
            scalar_rng: StdRng::seed_from_u64(seed ^ SCALAR_STREAM),
        }
    }

    /// A uniform (p = 0.5 everywhere) source.
    pub fn uniform(seed: u64, inputs: usize) -> Self {
        Self::new(seed, vec![0.5; inputs])
    }

    /// Number of inputs per pattern.
    pub(crate) fn input_count(&self) -> usize {
        self.probs.len()
    }

    /// The lowered fixed-point weights, in input order.
    pub fn weights(&self) -> &[PackedWeight] {
        &self.weights
    }

    /// The stream cursor: index of the next batch [`Self::next_batch`]
    /// will return.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Moves the stream cursor (64 patterns per batch index).
    pub(crate) fn set_position(&mut self, batch_index: u64) {
        self.position = batch_index;
    }

    /// The RNG of batch `index` — a pure function of `(seed, index)`.
    fn batch_rng(&self, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ mix64(index))
    }

    /// Batch `index` of the stream, independent of the cursor: element
    /// `i` holds input `i`'s values across the 64 lanes.
    pub fn batch_at(&self, index: u64) -> Vec<u64> {
        let mut out = vec![0u64; self.probs.len()];
        self.fill_batch_at(index, &mut out);
        out
    }

    /// [`Self::batch_at`] into a caller-owned buffer (one word per input)
    /// — the allocation-free form the simulation hot loops use.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != input_count()`.
    pub fn fill_batch_at(&self, index: u64, out: &mut [u64]) {
        assert_eq!(out.len(), self.probs.len(), "one word per input");
        let mut rng = self.batch_rng(index);
        for (o, w) in out.iter_mut().zip(&self.weights) {
            *o = w.weighted_word(|| rng.next_u64());
        }
    }

    /// Generates the next 64 patterns, packed: element `i` of the result
    /// holds input `i`'s values across the 64 lanes.
    pub fn next_batch(&mut self) -> Vec<u64> {
        let b = self.batch_at(self.position);
        self.position += 1;
        b
    }

    /// Writes batches `first_index .. first_index + width` in the wide
    /// layout, independent of the cursor.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `out.len() != input_count() * width`.
    pub(crate) fn fill_batch_wide_at(&self, first_index: u64, width: usize, out: &mut [u64]) {
        assert!(width > 0, "need at least one lane word");
        assert_eq!(
            out.len(),
            self.probs.len() * width,
            "need {width} packed words per primary input"
        );
        for w in 0..width {
            let mut rng = self.batch_rng(first_index + w as u64);
            for (i, wt) in self.weights.iter().enumerate() {
                out[i * width + w] = wt.weighted_word(|| rng.next_u64());
            }
        }
    }

    /// Generates one scalar pattern as a `Vec<bool>`, via the same
    /// lowered thresholds as the packed path (one uniform word per
    /// input, compared against the input's fixed-point threshold).
    pub fn next_pattern(&mut self) -> Vec<bool> {
        self.weights
            .iter()
            .map(|w| w.scalar_draw(self.scalar_rng.next_u64()))
            .collect()
    }

    /// A borrowed view of the contiguous batch range
    /// `batches.start .. batches.end` of the stream — the unit of work a
    /// pattern-axis shard owns ([`crate::parallel::plan_shards`]). Spans
    /// are independent of the cursor and of each other, so any number of
    /// workers can walk disjoint spans concurrently and reproduce exactly
    /// the patterns the serial cursor would have produced.
    pub(crate) fn span(&self, batches: Range<u64>) -> StreamSpan<'_> {
        StreamSpan {
            source: self,
            batches,
        }
    }
}

/// A range-addressable slice of a [`PatternSource`] stream: batches
/// `batches.start .. batches.end`, shared immutably so pattern-axis
/// workers can regenerate their range without touching the cursor.
#[derive(Debug, Clone)]
pub struct StreamSpan<'s> {
    source: &'s PatternSource,
    batches: Range<u64>,
}

impl StreamSpan<'_> {
    /// Number of 64-pattern batches in the span.
    pub(crate) fn len(&self) -> u64 {
        self.batches.end.saturating_sub(self.batches.start)
    }

    /// Fills `out` with the `k`-th batch of the span (absolute stream
    /// batch `batches.start + k`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside the span or `out` has the wrong arity.
    pub(crate) fn fill_batch(&self, k: u64, out: &mut [u64]) {
        assert!(k < self.len(), "batch {k} outside span of {}", self.len());
        self.source.fill_batch_at(self.batches.start + k, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = PatternSource::new(7, vec![0.5, 0.25, 0.875]);
        let mut b = PatternSource::new(7, vec![0.5, 0.25, 0.875]);
        for _ in 0..10 {
            assert_eq!(a.next_batch(), b.next_batch());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = PatternSource::uniform(1, 4);
        let mut b = PatternSource::uniform(2, 4);
        let batches_equal = (0..4).all(|_| a.next_batch() == b.next_batch());
        assert!(!batches_equal);
    }

    #[test]
    fn stream_is_position_addressable() {
        let mut seq = PatternSource::new(11, vec![0.5, 0.75]);
        let by_cursor: Vec<Vec<u64>> = (0..8).map(|_| seq.next_batch()).collect();
        let random_access = PatternSource::new(11, vec![0.5, 0.75]);
        for (i, batch) in by_cursor.iter().enumerate() {
            assert_eq!(*batch, random_access.batch_at(i as u64), "batch {i}");
        }
        // Rewinding replays.
        seq.set_position(3);
        assert_eq!(seq.next_batch(), by_cursor[3]);
        assert_eq!(seq.position(), 4);
    }

    #[test]
    fn empirical_frequency_tracks_probability() {
        let probs = vec![0.125, 0.5, 0.9];
        let mut src = PatternSource::new(99, probs.clone());
        let mut ones = [0u64; 3];
        let batches = 1024; // 65,536 samples per input (>= 2^16)
        for _ in 0..batches {
            for (i, w) in src.next_batch().iter().enumerate() {
                ones[i] += w.count_ones() as u64;
            }
        }
        let total = (batches * 64) as f64;
        for (i, &p) in probs.iter().enumerate() {
            let freq = ones[i] as f64 / total;
            let tol = (4.0 * (p * (1.0 - p) / total).sqrt()).max(1e-3);
            assert!(
                (freq - p).abs() < tol,
                "input {i}: frequency {freq} vs probability {p} (tol {tol})"
            );
        }
    }

    #[test]
    fn dyadic_probabilities_lower_exactly() {
        let probs = vec![0.5, 0.25, 0.9375, 0.015625];
        let src = PatternSource::new(1, probs.clone());
        for (w, &p) in src.weights().iter().zip(&probs) {
            assert_eq!(w.probability(), p, "dyadic {p} must be exact");
        }
        // 0.5 is a one-word weight — the fast path is now an exact
        // threshold property, not an epsilon comparison.
        assert_eq!(src.weights()[0].depth(), 1);
        assert_eq!(src.weights()[2].depth(), 4); // 0.9375 = 15/16
    }

    #[test]
    fn scalar_pattern_frequency_tracks_probability() {
        let probs = vec![0.125, 0.875];
        let mut src = PatternSource::new(13, probs.clone());
        let n = 1u64 << 16;
        let mut ones = [0u64; 2];
        for _ in 0..n {
            for (i, b) in src.next_pattern().into_iter().enumerate() {
                ones[i] += u64::from(b);
            }
        }
        for (i, &p) in probs.iter().enumerate() {
            let freq = ones[i] as f64 / n as f64;
            let tol = 4.0 * (p * (1.0 - p) / n as f64).sqrt();
            assert!((freq - p).abs() < tol, "input {i}: {freq} vs {p}");
        }
    }

    #[test]
    fn extreme_probabilities() {
        let mut src = PatternSource::new(5, vec![0.0, 1.0]);
        let batch = src.next_batch();
        assert_eq!(batch[0], 0);
        assert_eq!(batch[1], u64::MAX);
        let pat = src.next_pattern();
        assert_eq!(pat, vec![false, true]);
    }

    #[test]
    fn near_boundary_probabilities_stay_non_constant() {
        // Regression: p within 2^-65 of a boundary must not lower to a
        // constant stream — a stuck input makes every fault needing the
        // rare value undetectable.
        let tiny = (2.0f64).powi(-70);
        let below_one = f64::from_bits(1.0f64.to_bits() - 1); // largest interior f64
        let src = PatternSource::new(5, vec![tiny, below_one]);
        assert_eq!(src.weights()[0], PackedWeight::Threshold(1));
        assert_ne!(src.weights()[1], PackedWeight::One);
        for w in src.weights() {
            assert!(w.probability() > 0.0 && w.probability() < 1.0);
        }
    }

    #[test]
    fn spans_tile_the_stream() {
        let mut seq = PatternSource::new(17, vec![0.5, 0.875, 0.25]);
        let by_cursor: Vec<Vec<u64>> = (0..12).map(|_| seq.next_batch()).collect();
        let src = PatternSource::new(17, vec![0.5, 0.875, 0.25]);
        // Two disjoint spans reproduce exactly the cursor's batches.
        let mut out = vec![0u64; 3];
        for (range, offset) in [(0u64..5, 0usize), (5..12, 5)] {
            let span = src.span(range.clone());
            assert_eq!(span.len(), (range.end - range.start));
            for k in 0..span.len() {
                span.fill_batch(k, &mut out);
                assert_eq!(out, by_cursor[offset + k as usize], "batch {k}");
            }
        }
        assert_eq!(src.span(4..4).len(), 0);
    }

    #[test]
    #[should_panic(expected = "outside span")]
    fn span_rejects_out_of_range_batch() {
        let src = PatternSource::uniform(1, 2);
        let mut out = vec![0u64; 2];
        src.span(3..5).fill_batch(2, &mut out);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn invalid_probability_panics() {
        PatternSource::new(0, vec![1.2]);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn empty_probs_panics() {
        PatternSource::new(0, vec![]);
    }
}
