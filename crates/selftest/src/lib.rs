#![forbid(unsafe_code)]
//! Built-in self-test substrate.
//!
//! The paper's section 4: timing faults (fault class `CMOS-3` case b and
//! the output-inverter shorts) "must be tested with high clock rates,
//! preferably by self test techniques", and instead of leakage measurement
//! "we integrate self test features into our design like BILBOs \[9, 10\]
//! and non-linear feedback shift registers \[11\], which can create and
//! evaluate test patterns by maximum speed of operation."
//!
//! This crate provides those blocks:
//!
//! * [`Lfsr`] — maximal-length linear feedback shift registers (primitive
//!   polynomials for degrees 2–32),
//! * [`Misr`] — multiple-input signature register for response compaction,
//! * [`Bilbo`] — the Könemann/Mucha/Zwiehoff Built-In Logic Block
//!   Observer with its four operating modes,
//! * [`WeightedGenerator`] — weighted pattern generation from LFSR bits
//!   (the non-linear-feedback idea of \[11\]: AND/OR trees over register
//!   stages realize probabilities `2^-k` and `1 - 2^-k`),
//! * [`SelfTestSession`] — an at-speed self-test run over a network:
//!   LFSR patterns in, MISR signature out, with clock-rate-dependent
//!   behaviour of at-speed-only faults.

pub mod bilbo;
pub mod galois;
pub mod lfsr;
pub mod misr;
pub mod session;
pub mod weighted;

pub use bilbo::{Bilbo, BilboMode};
pub use galois::GaloisLfsr;
pub use lfsr::Lfsr;
pub use misr::Misr;
pub use session::SelfTestSession;
pub use weighted::{WeightSpec, WeightedGenerator};
