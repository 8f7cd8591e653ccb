//! Golden output: the full-universe fault library of a 10-input domino
//! cell, compared byte for byte against a fixture captured before the
//! prime-implicant generator was rewritten. The minimizer may pick any
//! of several minimum forms; this pins the ones the library prints.

use dynmos_core::{FaultLibrary, FaultUniverse};
use dynmos_netlist::parse_cell;

const CELL: &str = "TECHNOLOGY domino-CMOS;
INPUT i0,i1,i2,i3,i4,i5,i6,i7,i8,i9;
OUTPUT z;
z := (i0+i4)*(i7+i2*i9*i5)*(i1+i3+i8*i6);
";

#[test]
fn ten_input_domino_library_matches_fixture() {
    let cell = parse_cell("cell", CELL).expect("cell parses");
    let lib = FaultLibrary::generate_with(&cell, FaultUniverse::full());
    assert_eq!(
        lib.to_string(),
        include_str!("fixtures/domino10_full_library.txt")
    );
}
