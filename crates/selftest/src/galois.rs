//! Galois-form LFSR.
//!
//! The Fibonacci form ([`crate::Lfsr`]) XORs several taps into one
//! feedback bit; the Galois (internal-XOR) form XORs the output bit into
//! several stages instead. Both generate maximal-length sequences from
//! primitive polynomials, but the Galois form has a single XOR per stage
//! on the critical path — the variant actually laid out in BILBO hardware
//! running "by maximum speed of operation".

use crate::lfsr::Lfsr;

/// A Galois (internal-XOR) maximal-length LFSR.
///
/// Uses the same primitive polynomial table as [`Lfsr`]; the two forms
/// generate the same cycle structure (period `2^degree - 1`) though not
/// the same state sequence.
///
/// # Example
///
/// ```
/// use dynmos_selftest::GaloisLfsr;
/// let mut g = GaloisLfsr::new(4, 0b1001);
/// let start = g.state();
/// let mut period = 0;
/// loop {
///     g.step();
///     period += 1;
///     if g.state() == start { break; }
/// }
/// assert_eq!(period, 15);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaloisLfsr {
    degree: u32,
    state: u64,
    /// Stage positions receiving the fed-back output bit.
    feedback_mask: u64,
}

impl GaloisLfsr {
    /// Creates a Galois LFSR of `degree` bits seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is outside `2..=32` or `seed` is zero in the
    /// low `degree` bits.
    pub fn new(degree: u32, seed: u64) -> Self {
        // Derive the feedback mask from the shared primitive table via a
        // probe Fibonacci register: its tap mask *is* the polynomial.
        let probe = Lfsr::new(degree, 1);
        let _ = probe;
        let mask = (1u64 << degree) - 1;
        let state = seed & mask;
        assert!(
            state != 0,
            "LFSR seed must be nonzero in the low {degree} bits"
        );
        Self {
            degree,
            state,
            feedback_mask: Self::polynomial_mask(degree),
        }
    }

    /// The polynomial mask (taps below the top bit) for `degree`.
    fn polynomial_mask(degree: u32) -> u64 {
        // The same table as lfsr.rs, expressed as a bit mask of tap
        // positions 1..degree (the implicit x^degree term is the shifted
        // output bit itself).
        const TABLE: [&[u32]; 31] = [
            &[2, 1],
            &[3, 2],
            &[4, 3],
            &[5, 3],
            &[6, 5],
            &[7, 6],
            &[8, 6, 5, 4],
            &[9, 5],
            &[10, 7],
            &[11, 9],
            &[12, 6, 4, 1],
            &[13, 4, 3, 1],
            &[14, 5, 3, 1],
            &[15, 14],
            &[16, 15, 13, 4],
            &[17, 14],
            &[18, 11],
            &[19, 6, 2, 1],
            &[20, 17],
            &[21, 19],
            &[22, 21],
            &[23, 18],
            &[24, 23, 22, 17],
            &[25, 22],
            &[26, 6, 2, 1],
            &[27, 5, 2, 1],
            &[28, 25],
            &[29, 27],
            &[30, 6, 4, 1],
            &[31, 28],
            &[32, 22, 2, 1],
        ];
        assert!((2..=32).contains(&degree), "degree must be in 2..=32");
        // Polynomial term x^t XORs into bit t on overflow (the x^degree
        // term is the overflow itself; x^0 is added by the caller).
        let mut mask = 0u64;
        for &t in TABLE[(degree - 2) as usize] {
            if t < degree {
                mask |= 1 << t;
            }
        }
        mask
    }

    /// Current register contents.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Advances one clock; returns the output bit (the old MSB).
    pub fn step(&mut self) -> bool {
        let out = (self.state >> (self.degree - 1)) & 1 == 1;
        let mask = (1u64 << self.degree) - 1;
        self.state = (self.state << 1) & mask;
        if out {
            self.state ^= self.feedback_mask | 1;
        }
        out
    }

    /// The full period of a maximal-length register of this degree.
    pub fn period(&self) -> u64 {
        (1u64 << self.degree) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maximal_period_small_degrees() {
        for degree in 2..=12u32 {
            let mut g = GaloisLfsr::new(degree, 1);
            let start = g.state();
            let mut period = 0u64;
            loop {
                g.step();
                period += 1;
                assert!(period <= g.period(), "degree {degree} over-cycled");
                if g.state() == start {
                    break;
                }
            }
            assert_eq!(period, (1 << degree) - 1, "degree {degree}");
        }
    }

    #[test]
    fn never_zero() {
        let mut g = GaloisLfsr::new(16, 0xBEEF);
        for _ in 0..70_000 {
            g.step();
            assert_ne!(g.state(), 0);
        }
    }

    #[test]
    fn galois_and_fibonacci_share_cycle_length() {
        // Same polynomial, same period, different state order.
        for degree in [4u32, 7, 9] {
            let mut f = Lfsr::new(degree, 1);
            let mut g = GaloisLfsr::new(degree, 1);
            let mut f_states = std::collections::HashSet::new();
            let mut g_states = std::collections::HashSet::new();
            for _ in 0..f.period() {
                f_states.insert(f.state());
                g_states.insert(g.state());
                f.step();
                g.step();
            }
            assert_eq!(f_states.len(), g_states.len());
            assert_eq!(f_states, g_states, "both visit all nonzero states");
        }
    }

    #[test]
    fn output_density_balanced() {
        let mut g = GaloisLfsr::new(16, 1);
        let n = 16_384;
        let ones: u32 = (0..n).map(|_| u32::from(g.step())).sum();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "density {frac}");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_seed_panics() {
        GaloisLfsr::new(8, 0);
    }
}
