#![forbid(unsafe_code)]
//! Switch-level simulation substrate for `dynmos`.
//!
//! The paper's entire argument lives at the *switch level*: transistors are
//! voltage-controlled switches, nodes carry charge between clock phases, and
//! faults (stuck-open / stuck-closed transistors, open connections) change
//! the conduction graph. This crate implements that model:
//!
//! * [`Logic`] / [`Signal`] — three-valued node states with driven/charged
//!   strength, the charge memory being exactly what makes faulty *static*
//!   CMOS sequential (Fig. 1 of the paper),
//! * [`Circuit`] / [`CircuitBuilder`] — transistor netlists,
//! * [`FaultSet`] — switch-level fault injection for the paper's physical
//!   fault model (transistor open, transistor closed, gate line open with
//!   assumption A1),
//! * [`Sim`] — a relaxation (MOSSIM-style) simulator with per-step charge
//!   retention and short/oscillation reporting,
//! * [`sn`] — series-parallel switch networks built from transmission
//!   functions (the paper's `SN` with terminals `S`/`D`),
//! * [`gates`] — ready-made static CMOS, domino CMOS (Fig. 4) and dynamic
//!   nMOS (Fig. 6) gates,
//! * [`timing`] — the lumped-RC contention model behind Fig. 2 and fault
//!   class CMOS-3.
//!
//! # Example: the paper's Fig. 1 in a few lines
//!
//! ```
//! use dynmos_switch::{gates::static_nor2, FaultSet, Logic, Sim};
//!
//! let nor = static_nor2();
//! let mut faults = FaultSet::new();
//! faults.stuck_open(nor.pulldown_a); // the marked open connection
//! let mut sim = Sim::with_faults(&nor.circuit, faults);
//! // A=1,B=1 drives Z low; then A=1,B=0 leaves Z floating: it REMEMBERS 0.
//! sim.set_input(nor.a, Logic::One);
//! sim.set_input(nor.b, Logic::One);
//! sim.settle();
//! assert_eq!(sim.level(nor.z), Logic::Zero);
//! sim.set_input(nor.b, Logic::Zero);
//! sim.settle();
//! assert_eq!(sim.level(nor.z), Logic::Zero); // sequential behaviour!
//! ```

pub mod circuit;
pub mod fault;
pub mod gates;
pub mod level;
pub mod scvs;
pub mod sim;
pub mod sn;
pub mod timing;

pub use circuit::{Circuit, CircuitBuilder, FetKind, NodeId, TransistorId};
pub use fault::{FaultSet, SwitchFault};
pub use level::{Logic, Signal, Strength};
pub use sim::Sim;
pub use sn::build_sn;
pub use timing::{contention, ContentionOutcome, RcParams};
