#![forbid(unsafe_code)]
//! Deterministic test pattern generation for dynamic MOS networks.
//!
//! The paper's point (section 3/4): because every fault of the physical
//! fault model stays *combinational* in dynamic MOS, "the classical test
//! tools … which work for ordinary pull down nMOS" apply — in particular
//! deterministic TPG à la PODEM \[13\]. And (section 4): "If a deterministic
//! test set is generated e.g. by PODEM, then these assumptions [A1, A2]
//! can be fulfilled by applying the test set exactly twice."
//!
//! * [`Tri`] — Kleene three-valued logic for partial-assignment
//!   simulation,
//! * [`generate_test`] — PODEM-style branch-and-bound over primary-input
//!   assignments with X-path pruning, for arbitrary faulty-function
//!   faults (our fault model is richer than plain stuck-at),
//! * [`generate_test_set`] — full test set with fault dropping via the
//!   `dynmos-protest` fault simulator; proves redundancy exactly for
//!   in-budget searches,
//! * [`apply_twice`] — the paper's A1/A2 strategy.

pub mod podem;
pub mod service;
pub mod tri;

pub use podem::{
    apply_twice, generate_test, generate_test_set, generate_test_set_budgeted,
    generate_test_set_par, AtpgCheckpoint, AtpgOutcome,
};
pub use service::{register_atpg, AtpgJob};
pub use tri::Tri;
