//! Golden output: fault libraries compared byte for byte against
//! fixtures captured from the Quine–McCluskey prime generator, which
//! recursive cofactoring has since replaced. The minimizer may pick any
//! of several minimum forms; these pin the ones the library prints.

mod cells;

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

/// The libraries of every golden cell (see `cells`), under the full
/// fault universe and the paper's table universe, each after a `==`
/// header line naming the cell and universe.
fn shape_libraries() -> String {
    let mut out = String::new();
    for cell in cells::golden_cells() {
        for (universe_name, universe) in [
            ("full", FaultUniverse::full()),
            ("paper", FaultUniverse::paper_table()),
        ] {
            out.push_str(&format!("== {} {universe_name}\n", cell.name()));
            out.push_str(&FaultLibrary::generate_with(&cell, universe).to_string());
        }
    }
    out
}

#[test]
fn shape_libraries_match_fixture() {
    let actual = shape_libraries();
    let expected = include_str!("fixtures/shape_libraries.txt");
    // Name the first differing line rather than dumping both texts.
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "fixture line {} differs", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "fixture length differs"
    );
    assert_eq!(actual, expected);
}
