//! Order statistics for reported timings.

/// The median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail latency: the highest nearest-rank percentile that still has
/// at least [`TAIL_BEYOND`] samples strictly beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// Samples that must rank beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// The tail of `xs`, or `None` with fewer than `TAIL_BEYOND + 1`
/// samples. Nearest rank: the `p`-th percentile of `n` sorted samples is
/// the one at rank `ceil(p·n)`, so the highest percentile with ten
/// samples beyond is rank `n − 10`, i.e. `p = (n − 10) / n`.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        beyond: n - rank,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(tail(&[1.0; 10]), None);
        for n in [11usize, 12, 57, 100, 1000, 4321] {
            let xs: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let t = tail(&xs).expect("enough samples");
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n={n}");
            assert_eq!(t.beyond, TAIL_BEYOND);
            assert_eq!(t.samples, n);
            // One more sample beyond would need a lower percentile: the
            // next rank up leaves only nine.
            let next = xs.iter().filter(|&&x| x > t.value + 1.0).count();
            assert_eq!(next, TAIL_BEYOND - 1, "n={n}");
        }
        let t = tail(&(1..=100).map(f64::from).collect::<Vec<_>>()).expect("100 samples");
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        let t = tail(&(1..=11).map(f64::from).collect::<Vec<_>>()).expect("11 samples");
        assert_eq!(t.value, 1.0);
    }
}
