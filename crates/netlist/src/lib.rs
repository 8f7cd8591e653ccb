#![forbid(unsafe_code)]
//! Gate-level substrate: technology-tagged cells and networks.
//!
//! The paper's PROTEST tool consumes "a circuit description and a
//! functional description of the used cells" (Fig. 8). A cell description
//! looks like (Fig. 9):
//!
//! ```text
//! TECHNOLOGY domino-CMOS;
//! INPUT a,b,c,d,e;
//! OUTPUT u;
//! x1 := a*(b+c);
//! x2 := d*e;
//! u  := x1+x2;
//! ```
//!
//! This crate provides:
//!
//! * [`Technology`] — the five technology-dependent parameters of the
//!   paper's cell description (nMOS pull-down, static CMOS, bipolar,
//!   dynamic nMOS, domino CMOS),
//! * [`CellDescription`](crate::cell::CellDescription) / [`parse_cell`] —
//!   the description language,
//! * [`Cell`] — a compiled cell: flattened transmission function plus the
//!   technology-determined logic function of the output,
//! * [`Network`] — combinational networks of cell instances with
//!   single-clock (domino) or two-phase (dynamic nMOS) clocking
//!   discipline checks and packed 64-lane evaluation,
//! * [`compile`] — the compiled evaluation subsystem: per-network
//!   instruction tapes, reusable [`PackedEvaluator`] buffers (up to
//!   `width × 64` patterns per pass) and fault-cone incremental faulty
//!   simulation,
//! * [`generate`] — a seeded circuit corpus (adders, multipliers, trees,
//!   comparators, random cells) from paper scale up to ISCAS-85-class
//!   sizes, standing in for the unspecified 1986 benchmark set,
//! * [`bench_format`] — a parser for the ISCAS `.bench` netlist text
//!   format, so real benchmark circuits can be loaded directly.

pub mod bench_format;
pub mod cell;
pub mod compile;
pub mod generate;
pub mod network;
pub mod parse;
pub mod tech;
pub mod to_switch;

pub use bench_format::{parse_bench, C17_BENCH};
pub use cell::Cell;
pub use compile::{PackedEvaluator, PreparedFault};
pub use network::{GateRef, NetId, Network, NetworkBuilder, NetworkFault, Phase};
pub use parse::parse_cell;
pub use tech::Technology;
