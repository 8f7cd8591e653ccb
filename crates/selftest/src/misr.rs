//! Multiple-input signature register.

/// A multiple-input signature register (MISR): the response-compaction
/// half of a BILBO. Each clock shifts the register (with primitive-
/// polynomial feedback) and XORs one parallel response word into it; after
/// `N` cycles the register holds a signature that differs from the golden
/// one for any single fault with probability `1 - 2^-width`.
///
/// # Example
///
/// ```
/// use dynmos_selftest::Misr;
/// let mut golden = Misr::new(16);
/// let mut faulty = Misr::new(16);
/// for i in 0..100u64 {
///     golden.absorb(i % 3);
///     faulty.absorb(if i == 57 { 2 } else { i % 3 }); // one flipped response
/// }
/// assert_ne!(golden.signature(), faulty.signature());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Misr {
    width: u32,
    state: u64,
    tap_mask: u64,
}

impl Misr {
    /// Creates a zeroed MISR of `width` bits (primitive feedback taken
    /// from the [`crate::Lfsr`] table).
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `2..=32`.
    pub fn new(width: u32) -> Self {
        Self {
            width,
            state: 0,
            tap_mask: probe_taps(width),
        }
    }

    /// Absorbs one parallel response word (low `width` bits used).
    pub fn absorb(&mut self, response: u64) {
        let mask = (1u64 << self.width) - 1;
        let feedback = ((self.state & self.tap_mask).count_ones() & 1) as u64;
        self.state = (((self.state << 1) | feedback) ^ response) & mask;
    }

    /// The current signature.
    pub fn signature(&self) -> u64 {
        self.state
    }

    /// Resets to the all-zero state.
    pub(crate) fn reset(&mut self) {
        self.state = 0;
    }
}

/// Tap mask for `width` from the primitive polynomial table.
fn probe_taps(width: u32) -> u64 {
    // The LFSR constructor validates the degree; replicate its table
    // access through a tiny shim: build an LFSR at state 1, step once and
    // reverse-engineer nothing — instead expose the table directly here.
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
    assert!((2..=32).contains(&width), "width must be in 2..=32");
    let mut mask = 0u64;
    for &t in TABLE[(width - 2) as usize] {
        mask |= 1 << (t - 1);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_streams_give_identical_signatures() {
        let mut a = Misr::new(16);
        let mut b = Misr::new(16);
        for i in 0..1000u64 {
            a.absorb(i.wrapping_mul(0x9E37) & 0xFFFF);
            b.absorb(i.wrapping_mul(0x9E37) & 0xFFFF);
        }
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn single_bit_error_changes_signature() {
        // Every single-bit stream error must change the signature (linear
        // compaction: a single error cannot cancel itself).
        for err_pos in [0u64, 13, 99, 500] {
            let mut good = Misr::new(16);
            let mut bad = Misr::new(16);
            for i in 0..501u64 {
                let r = i & 0xFFFF;
                good.absorb(r);
                bad.absorb(if i == err_pos { r ^ 1 } else { r });
            }
            assert_ne!(good.signature(), bad.signature(), "error at {err_pos}");
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut m = Misr::new(8);
        m.absorb(0xAB);
        assert_ne!(m.signature(), 0);
        m.reset();
        assert_eq!(m.signature(), 0);
    }

    #[test]
    fn signature_stays_within_width() {
        let mut m = Misr::new(8);
        for i in 0..10_000u64 {
            m.absorb(i);
            assert!(m.signature() < 256);
        }
    }

    #[test]
    fn different_widths_allowed() {
        for w in [2u32, 8, 16, 32] {
            let mut m = Misr::new(w);
            m.absorb(1);
            assert!(m.signature() < (1u64 << w));
        }
    }

    #[test]
    #[should_panic(expected = "width")]
    fn width_out_of_range_panics() {
        Misr::new(40);
    }
}
