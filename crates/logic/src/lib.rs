#![forbid(unsafe_code)]
//! Boolean substrate for the `dynmos` workspace.
//!
//! This crate provides everything the fault-modeling layers need to talk
//! about combinational functions the way the paper does:
//!
//! * [`Bexpr`] — Boolean expressions in the paper's cell-description syntax
//!   (`*` conjunction, `+` disjunction, `/` complement),
//! * [`VarTable`] — an interner mapping variable names to dense [`VarId`]s,
//! * [`TruthTable`] — bit-packed truth tables (the canonical function
//!   representation used for equivalence-class collapsing),
//! * [`Cube`] / [`Cover`] and [`min_dnf`] — prime implicants (by
//!   recursive cofactoring) and minimal disjunctive forms, because the
//!   paper emits every faulty function "in the minimum disjunctive form",
//! * [`signal_probability`] — exact signal probabilities under independent
//!   input-signal probabilities, the primitive PROTEST is built on.
//!
//! # Example
//!
//! ```
//! use dynmos_logic::{parse_expr, VarTable, TruthTable};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut vars = VarTable::new();
//! // The gate of the paper's Fig. 9: u = a*(b+c) + d*e
//! let u = parse_expr("a*(b+c)+d*e", &mut vars)?;
//! let tt = TruthTable::from_expr(&u, vars.len());
//! assert_eq!(tt.count_ones(), 17); // 17 of 32 input combinations set u
//! # Ok(())
//! # }
//! ```

pub mod bdd;
pub mod cube;
pub mod error;
pub mod expr;
pub mod mindnf;
pub mod packed;
pub mod parser;
pub mod prob;
pub mod table;
pub mod vars;

pub use bdd::{Bdd, BddOverflow, BddRef};
pub use cube::{Cover, Cube};
pub use error::ParseExprError;
pub use expr::Bexpr;
pub use mindnf::{min_dnf, min_dnf_string, prime_implicants};
pub use packed::PackedWeight;
pub use parser::parse_expr;
pub use prob::{signal_probability, signal_probability_expr};
pub use table::TruthTable;
pub use vars::{VarId, VarTable};
