//! Weighted pattern generation from LFSR stages.
//!
//! PROTEST computes optimized per-input signal probabilities; on-chip, a
//! plain LFSR only produces p = 0.5 bits. The fix (Kunzmann & Wunderlich
//! \[11\]) is a non-linear stage: AND-ing `k` register bits yields
//! probability `2^-k`, OR-ing yields `1 - 2^-k`. [`WeightSpec::nearest`]
//! picks the realizable weight closest to a requested probability, and
//! [`WeightedGenerator`] drives one such tree per circuit input.

use crate::lfsr::Lfsr;

/// A realizable input weight: `k` LFSR bits combined by AND (probability
/// `2^-k`) or OR (probability `1 - 2^-k`); `k = 1` gives the plain 0.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WeightSpec {
    /// Number of LFSR bits combined (1..=6 supported).
    pub k: u32,
    /// `true`: OR combination (high probability); `false`: AND (low).
    pub or: bool,
}

impl WeightSpec {
    /// The exact probability this weight realizes.
    pub fn probability(self) -> f64 {
        let p = 0.5f64.powi(self.k as i32);
        if self.or {
            1.0 - p
        } else {
            p
        }
    }

    /// The realizable weight closest to `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is outside `(0, 1)` exclusive.
    pub fn nearest(target: f64) -> Self {
        assert!(
            target > 0.0 && target < 1.0,
            "target probability must be in (0,1), got {target}"
        );
        let mut best = WeightSpec { k: 1, or: false };
        let mut best_err = (best.probability() - target).abs();
        for k in 1..=6u32 {
            for or in [false, true] {
                let w = WeightSpec { k, or };
                let err = (w.probability() - target).abs();
                if err < best_err {
                    best = w;
                    best_err = err;
                }
            }
        }
        best
    }
}

/// A weighted pattern generator: one LFSR feeding per-input AND/OR trees.
///
/// # Example
///
/// ```
/// use dynmos_selftest::{WeightedGenerator, WeightSpec};
/// // Two inputs: p≈0.875 and p≈0.125.
/// let specs = vec![WeightSpec::nearest(0.9), WeightSpec::nearest(0.1)];
/// let mut gen = WeightedGenerator::new(16, 0xACE1, specs);
/// let pattern = gen.next_pattern();
/// assert_eq!(pattern.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct WeightedGenerator {
    lfsr: Lfsr,
    specs: Vec<WeightSpec>,
}

impl WeightedGenerator {
    /// Creates a generator with an LFSR of `degree` bits seeded by `seed`
    /// and one [`WeightSpec`] per circuit input.
    ///
    /// # Panics
    ///
    /// Panics on invalid LFSR parameters, empty `specs`, or `k` outside
    /// `1..=6`.
    pub fn new(degree: u32, seed: u64, specs: Vec<WeightSpec>) -> Self {
        assert!(!specs.is_empty(), "need at least one input weight");
        for s in &specs {
            assert!(
                (1..=6).contains(&s.k),
                "weight stage k={} out of 1..=6",
                s.k
            );
        }
        Self {
            lfsr: Lfsr::new(degree, seed),
            specs,
        }
    }

    /// Produces the next pattern: for each input, `k` fresh LFSR bits are
    /// combined by its AND/OR tree.
    pub fn next_pattern(&mut self) -> Vec<bool> {
        self.specs
            .iter()
            .map(|s| {
                let mut acc = !s.or; // AND starts true, OR starts false
                for _ in 0..s.k {
                    let bit = self.lfsr.step();
                    acc = if s.or { acc || bit } else { acc && bit };
                }
                acc
            })
            .collect()
    }

    /// Produces a 64-pattern packed batch (element `i` holds input `i`'s
    /// 64 lane values), matching the `dynmos-protest` simulator interface.
    /// Bit-for-bit the transpose of 64 [`Self::next_pattern`] calls.
    pub fn next_batch(&mut self) -> Vec<u64> {
        let mut batch = vec![0u64; self.specs.len()];
        for lane in 0..64 {
            let pat = self.next_pattern();
            for (i, &b) in pat.iter().enumerate() {
                if b {
                    batch[i] |= 1 << lane;
                }
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_probabilities() {
        assert_eq!(WeightSpec { k: 1, or: false }.probability(), 0.5);
        assert_eq!(WeightSpec { k: 3, or: false }.probability(), 0.125);
        assert_eq!(WeightSpec { k: 3, or: true }.probability(), 0.875);
    }

    #[test]
    fn nearest_picks_closest_realizable() {
        assert_eq!(WeightSpec::nearest(0.5), WeightSpec { k: 1, or: false });
        assert_eq!(WeightSpec::nearest(0.12), WeightSpec { k: 3, or: false });
        assert_eq!(WeightSpec::nearest(0.9), WeightSpec { k: 3, or: true });
        assert_eq!(WeightSpec::nearest(0.97), WeightSpec { k: 5, or: true });
    }

    #[test]
    fn empirical_frequencies_track_weights() {
        let specs = vec![
            WeightSpec { k: 3, or: false }, // 0.125
            WeightSpec { k: 1, or: false }, // 0.5
            WeightSpec { k: 3, or: true },  // 0.875
        ];
        let mut gen = WeightedGenerator::new(20, 0xDEAD, specs.clone());
        let n = 20_000;
        let mut ones = vec![0u32; specs.len()];
        for _ in 0..n {
            for (i, b) in gen.next_pattern().into_iter().enumerate() {
                ones[i] += u32::from(b);
            }
        }
        for (i, s) in specs.iter().enumerate() {
            let freq = ones[i] as f64 / n as f64;
            assert!(
                (freq - s.probability()).abs() < 0.02,
                "input {i}: {freq} vs {}",
                s.probability()
            );
        }
    }

    #[test]
    fn batch_matches_pattern_semantics() {
        let specs = vec![WeightSpec { k: 2, or: false }; 3];
        let mut a = WeightedGenerator::new(16, 0x1234, specs.clone());
        let mut b = WeightedGenerator::new(16, 0x1234, specs);
        let batch = a.next_batch();
        for lane in 0..64 {
            let pat = b.next_pattern();
            for (i, &bit) in pat.iter().enumerate() {
                assert_eq!((batch[i] >> lane) & 1 == 1, bit, "lane {lane} input {i}");
            }
        }
    }

    #[test]
    fn deterministic_generation() {
        let specs = vec![WeightSpec { k: 2, or: true }; 2];
        let mut a = WeightedGenerator::new(16, 7, specs.clone());
        let mut b = WeightedGenerator::new(16, 7, specs);
        for _ in 0..50 {
            assert_eq!(a.next_pattern(), b.next_pattern());
        }
    }

    #[test]
    #[should_panic(expected = "target probability")]
    fn nearest_rejects_degenerate_targets() {
        WeightSpec::nearest(0.0);
    }

    #[test]
    #[should_panic(expected = "out of 1..=6")]
    fn generator_rejects_oversized_stage() {
        WeightedGenerator::new(16, 1, vec![WeightSpec { k: 9, or: false }]);
    }
}
