//! The dynmos benchmark: `faultlib serve` sessions and fault-library
//! generation measured end to end from outside the program, plus an
//! in-process traced replay that splits the time by layer.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run it.

pub mod client;
pub mod e2e;
pub mod expect;
pub mod gen;
pub mod host;
pub mod replay;
pub mod stats;
pub mod trace;
