//! The Built-In Logic Block Observer (BILBO).
//!
//! Könemann, Mucha & Zwiehoff \[10\]: one register that, depending on two
//! control bits, acts as a normal parallel latch, a serial scan register,
//! a maximal-length LFSR pattern generator, or a MISR signature analyzer.
//! The paper integrates BILBOs so test patterns can be created and
//! evaluated "by maximum speed of operation".

use crate::lfsr::Lfsr;
use crate::misr::Misr;

/// BILBO operating mode (the two control inputs B1/B2 of \[10\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BilboMode {
    /// B1=1, B2=1: transparent parallel register (system mode).
    Normal,
    /// B1=0, B2=0: serial scan shift register.
    Scan,
    /// B1=1, B2=0: autonomous LFSR pattern generation.
    PatternGen,
    /// B1=0(feedback), B2=1: multiple-input signature analysis.
    Signature,
}

/// A BILBO register of `width` bits.
///
/// # Example
///
/// ```
/// use dynmos_selftest::{Bilbo, BilboMode};
/// let mut reg = Bilbo::new(8, 0x3C);
/// reg.set_mode(BilboMode::PatternGen);
/// let p1 = reg.clock(0);
/// let p2 = reg.clock(0);
/// assert_ne!(p1, p2); // autonomous pattern sequence
/// reg.set_mode(BilboMode::Signature);
/// reg.clock(0xAB); // absorbs the response word
/// ```
#[derive(Debug, Clone)]
pub struct Bilbo {
    width: u32,
    mode: BilboMode,
    lfsr: Lfsr,
    misr: Misr,
    parallel: u64,
    scan_in: bool,
}

impl Bilbo {
    /// Creates a BILBO of `width` bits in [`BilboMode::Normal`], with the
    /// LFSR half seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `2..=32` or the seed is zero in the
    /// low `width` bits.
    pub fn new(width: u32, seed: u64) -> Self {
        Self {
            width,
            mode: BilboMode::Normal,
            lfsr: Lfsr::new(width, seed),
            misr: Misr::new(width),
            parallel: 0,
            scan_in: false,
        }
    }

    /// Switches mode. Entering [`BilboMode::Signature`] resets the MISR.
    pub fn set_mode(&mut self, mode: BilboMode) {
        if mode == BilboMode::Signature && self.mode != BilboMode::Signature {
            self.misr.reset();
        }
        self.mode = mode;
    }

    /// Sets the serial scan input used in [`BilboMode::Scan`].
    pub fn set_scan_in(&mut self, bit: bool) {
        self.scan_in = bit;
    }

    /// Clocks the register once with `parallel_in` on the parallel port;
    /// returns the register contents after the clock.
    pub fn clock(&mut self, parallel_in: u64) -> u64 {
        let mask = (1u64 << self.width) - 1;
        match self.mode {
            BilboMode::Normal => {
                self.parallel = parallel_in & mask;
                self.parallel
            }
            BilboMode::Scan => {
                self.parallel = ((self.parallel << 1) | u64::from(self.scan_in)) & mask;
                self.parallel
            }
            BilboMode::PatternGen => {
                self.lfsr.step();
                self.parallel = self.lfsr.state();
                self.parallel
            }
            BilboMode::Signature => {
                self.misr.absorb(parallel_in & mask);
                self.parallel = self.misr.signature();
                self.parallel
            }
        }
    }

    /// Current register contents.
    pub fn contents(&self) -> u64 {
        self.parallel
    }

    /// The accumulated signature (meaningful in [`BilboMode::Signature`]).
    pub fn signature(&self) -> u64 {
        self.misr.signature()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_mode_is_transparent() {
        let mut b = Bilbo::new(8, 1);
        assert_eq!(b.clock(0x5A), 0x5A);
        assert_eq!(b.clock(0xFF), 0xFF);
        assert_eq!(b.contents(), 0xFF);
    }

    #[test]
    fn scan_mode_shifts_serially() {
        let mut b = Bilbo::new(4, 1);
        b.set_mode(BilboMode::Scan);
        for bit in [true, false, true, true] {
            b.set_scan_in(bit);
            b.clock(0);
        }
        assert_eq!(b.contents(), 0b1011);
    }

    #[test]
    fn pattern_gen_cycles_through_lfsr_states() {
        let mut b = Bilbo::new(4, 0b1000);
        b.set_mode(BilboMode::PatternGen);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..15 {
            seen.insert(b.clock(0));
        }
        assert_eq!(seen.len(), 15, "maximal-length sequence");
        assert!(!seen.contains(&0));
    }

    #[test]
    fn signature_mode_accumulates_and_detects_errors() {
        let mut good = Bilbo::new(16, 1);
        let mut bad = Bilbo::new(16, 1);
        good.set_mode(BilboMode::Signature);
        bad.set_mode(BilboMode::Signature);
        for i in 0..64u64 {
            good.clock(i);
            bad.clock(if i == 31 { i ^ 0x8 } else { i });
        }
        assert_ne!(good.signature(), bad.signature());
    }

    #[test]
    fn entering_signature_mode_resets_misr() {
        let mut b = Bilbo::new(8, 1);
        b.set_mode(BilboMode::Signature);
        b.clock(0xAA);
        let s1 = b.signature();
        assert_ne!(s1, 0);
        b.set_mode(BilboMode::Normal);
        b.set_mode(BilboMode::Signature);
        assert_eq!(b.signature(), 0);
    }

    #[test]
    fn mode_transitions_preserve_width_invariant() {
        let mut b = Bilbo::new(8, 0x80);
        for mode in [
            BilboMode::Normal,
            BilboMode::Scan,
            BilboMode::PatternGen,
            BilboMode::Signature,
        ] {
            b.set_mode(mode);
            for i in 0..20u64 {
                let v = b.clock(i * 37);
                assert!(v < 256, "{mode:?} leaked beyond width: {v:#x}");
            }
        }
    }
}
