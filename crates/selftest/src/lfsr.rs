//! Maximal-length linear feedback shift registers.

/// Tap positions (1-based) of a primitive polynomial per degree 2..=32;
/// an LFSR with these taps cycles through all `2^n - 1` nonzero states.
const PRIMITIVE_TAPS: [&[u32]; 31] = [
    &[2, 1],           // 2
    &[3, 2],           // 3
    &[4, 3],           // 4
    &[5, 3],           // 5
    &[6, 5],           // 6
    &[7, 6],           // 7
    &[8, 6, 5, 4],     // 8
    &[9, 5],           // 9
    &[10, 7],          // 10
    &[11, 9],          // 11
    &[12, 6, 4, 1],    // 12
    &[13, 4, 3, 1],    // 13
    &[14, 5, 3, 1],    // 14
    &[15, 14],         // 15
    &[16, 15, 13, 4],  // 16
    &[17, 14],         // 17
    &[18, 11],         // 18
    &[19, 6, 2, 1],    // 19
    &[20, 17],         // 20
    &[21, 19],         // 21
    &[22, 21],         // 22
    &[23, 18],         // 23
    &[24, 23, 22, 17], // 24
    &[25, 22],         // 25
    &[26, 6, 2, 1],    // 26
    &[27, 5, 2, 1],    // 27
    &[28, 25],         // 28
    &[29, 27],         // 29
    &[30, 6, 4, 1],    // 30
    &[31, 28],         // 31
    &[32, 22, 2, 1],   // 32
];

/// A Fibonacci-style maximal-length LFSR.
///
/// The feedback bit is the XOR of the tap stages; each step shifts the
/// register left by one, inserting the feedback at stage 1. Seeded with
/// any nonzero state it visits all `2^degree - 1` nonzero states — the
/// pattern generator of a [`crate::Bilbo`] in pattern-generation mode.
///
/// # Example
///
/// ```
/// use dynmos_selftest::Lfsr;
/// let mut l = Lfsr::new(4, 0b1001);
/// // Period of a maximal-length 4-bit LFSR is 15.
/// let start = l.state();
/// let mut period = 0;
/// loop {
///     l.step();
///     period += 1;
///     if l.state() == start { break; }
/// }
/// assert_eq!(period, 15);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    degree: u32,
    state: u64,
    tap_mask: u64,
}

impl Lfsr {
    /// Creates an LFSR of `degree` bits with the built-in primitive
    /// polynomial, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is outside `2..=32` or `seed` is zero modulo
    /// the register width (the all-zero state is a fixpoint).
    pub fn new(degree: u32, seed: u64) -> Self {
        assert!((2..=32).contains(&degree), "degree must be in 2..=32");
        let mask = (1u64 << degree) - 1;
        let state = seed & mask;
        assert!(
            state != 0,
            "LFSR seed must be nonzero in the low {degree} bits"
        );
        let mut tap_mask = 0u64;
        for &t in PRIMITIVE_TAPS[(degree - 2) as usize] {
            tap_mask |= 1 << (t - 1);
        }
        Self {
            degree,
            state,
            tap_mask,
        }
    }

    /// Current register contents (low `degree` bits).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Advances one clock; returns the bit shifted out (the old MSB).
    pub fn step(&mut self) -> bool {
        let out = (self.state >> (self.degree - 1)) & 1 == 1;
        let feedback = ((self.state & self.tap_mask).count_ones() & 1) as u64;
        self.state = ((self.state << 1) | feedback) & ((1u64 << self.degree) - 1);
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
    fn maximal_period_for_small_degrees() {
        for degree in 2..=12u32 {
            let mut l = Lfsr::new(degree, 1);
            let start = l.state();
            let mut period = 0u64;
            loop {
                l.step();
                period += 1;
                assert!(period <= l.period(), "degree {degree} period too long");
                if l.state() == start {
                    break;
                }
            }
            assert_eq!(period, (1 << degree) - 1, "degree {degree}");
        }
    }

    #[test]
    fn never_reaches_zero_state() {
        let mut l = Lfsr::new(8, 0xAB);
        for _ in 0..600 {
            l.step();
            assert_ne!(l.state(), 0);
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Lfsr::new(16, 0xBEEF);
        let mut b = Lfsr::new(16, 0xBEEF);
        for _ in 0..100 {
            assert_eq!(a.step(), b.step());
        }
    }

    #[test]
    fn output_bit_density_is_balanced() {
        let mut l = Lfsr::new(16, 1);
        let n = 16_384;
        let ones: u32 = (0..n).map(|_| u32::from(l.step())).sum();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "bit density {frac}");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_seed_panics() {
        Lfsr::new(8, 0x100); // nonzero u64 but zero in the low 8 bits
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn degree_out_of_range_panics() {
        Lfsr::new(33, 1);
    }
}
