#![forbid(unsafe_code)]
//! The paper's primary contribution: a logical fault model for dynamic MOS.
//!
//! Wunderlich & Rosenstiel (DAC 1986) show that for dynamic nMOS and domino
//! CMOS gates, *every* fault of the common physical fault model (open
//! connection, transistor stuck-open, transistor stuck-closed) leaves the
//! gate **combinational** — in sharp contrast to static CMOS, where
//! stuck-open faults create sequential behaviour. Each fault maps to
//!
//! * a stuck-at on an input or the output,
//! * a different combinational function, or
//! * a pure performance degradation (same logic, slower — needing at-speed
//!   detection),
//!
//! under two assumptions: **A1** (open gates read low) and **A2** (every
//! node has been charged and discharged at least once).
//!
//! This crate implements that model end to end:
//!
//! * [`PhysicalFault`] — the paper's fault universe per technology, with
//!   the paper's own names (`nMOS-1…2n+2`, `CMOS-1…4`),
//! * [`classify()`](classify()) — the section-3 theorems mapping each physical fault to
//!   its [`FaultEffect`](crate::classify::FaultEffect),
//! * [`FaultLibrary`] — automatic generation of all faulty functions with
//!   fault-equivalence collapsing and minimal-DNF output, reproducing the
//!   paper's section-5 table exactly,
//! * [`theorems`] — machine-checked validation of the classification
//!   against exhaustive switch-level simulation.
//!
//! # Example: the paper's Fig. 9 gate
//!
//! ```
//! use dynmos_core::FaultLibrary;
//! use dynmos_netlist::generate::fig9_cell;
//!
//! let lib = FaultLibrary::generate(&fig9_cell());
//! assert_eq!(lib.classes().len(), 10); // the paper's 10 fault classes
//! assert_eq!(lib.classes()[7].function_string(), "a*b+a*c+d"); // class 8
//! ```

pub mod classify;
pub mod fault;
pub mod library;
pub mod theorems;

pub use classify::{classify, DetectionRequirement, StuckAt};
pub use fault::{enumerate_faults, substitute_site, FaultUniverse, PhysicalFault};
pub use library::FaultLibrary;
pub use theorems::validate_cell;
