//! `FaultLibrary::restrict` against generating the smaller universe
//! outright: a full-universe library restricted to a sub-universe must be
//! the library `generate_with` builds over that universe, class for class.

mod cells;

use dynmos_core::{enumerate_faults, FaultLibrary, FaultUniverse};
use dynmos_netlist::generate::fig9_cell;
use dynmos_netlist::{parse_cell, Cell};

/// The golden cells, the paper's Fig. 9 cell, and one cell of each other
/// technology.
fn cells() -> Vec<Cell> {
    let mut out = cells::golden_cells();
    out.push(fig9_cell());
    for (name, tech) in [
        ("nand2", "static-CMOS"),
        ("nor2", "nMOS-pull-down"),
        ("or2", "bipolar"),
    ] {
        let text = format!("TECHNOLOGY {tech}; INPUT a,b; OUTPUT z; z := a*b;");
        out.push(parse_cell(name, &text).expect("cell parses"));
    }
    out
}

/// Every fault universe.
fn universes() -> Vec<FaultUniverse> {
    let mut out = Vec::new();
    for include_line_opens in [false, true] {
        for include_inverter in [false, true] {
            out.push(FaultUniverse {
                include_line_opens,
                include_inverter,
            });
        }
    }
    out
}

/// Asserts that `restricted` and `generated` are the same library.
fn assert_same(restricted: &FaultLibrary, generated: &FaultLibrary, what: &str) {
    assert_eq!(
        restricted.render_table(),
        generated.render_table(),
        "{what}"
    );
    assert_eq!(
        restricted.total_faults(),
        generated.total_faults(),
        "{what}"
    );
    assert_eq!(restricted.timing_only(), generated.timing_only(), "{what}");
    assert_eq!(restricted.universe(), generated.universe(), "{what}");
    assert_eq!(
        restricted.classes().len(),
        generated.classes().len(),
        "{what}"
    );
    for (r, g) in restricted.classes().iter().zip(generated.classes()) {
        assert_eq!(r.id, g.id, "{what}");
        assert_eq!(r.faults, g.faults, "{what} class {}", g.id);
        assert_eq!(r.function, g.function, "{what} class {}", g.id);
        assert_eq!(r.table, g.table, "{what} class {}", g.id);
        assert_eq!(r.at_speed_only, g.at_speed_only, "{what} class {}", g.id);
        assert_eq!(
            r.function_string(),
            g.function_string(),
            "{what} class {}",
            g.id
        );
    }
}

#[test]
fn full_library_restricted_to_paper_table_is_the_paper_library() {
    for cell in cells() {
        let full = FaultLibrary::generate_with(&cell, FaultUniverse::full());
        let paper = FaultLibrary::generate_with(&cell, FaultUniverse::paper_table());
        assert_same(
            &full.restrict(FaultUniverse::paper_table()),
            &paper,
            cell.name(),
        );
        // The paper classes are the full library's first ones, ids kept.
        for (r, f) in paper.classes().iter().zip(full.classes()) {
            assert_eq!((r.id, &r.table), (f.id, &f.table), "{}", cell.name());
        }
    }
}

#[test]
fn restriction_to_every_sub_universe_matches_generation() {
    for cell in cells() {
        for from in universes() {
            let lib = FaultLibrary::generate_with(&cell, from);
            for to in universes().into_iter().filter(|&to| from.includes(to)) {
                let what = format!("{} {from:?} -> {to:?}", cell.name());
                let generated = FaultLibrary::generate_with(&cell, to);
                assert_same(&lib.restrict(to), &generated, &what);
                assert_same(&lib.restrict(to).restrict(to), &generated, &what);
            }
        }
    }
}

#[test]
fn a_universe_enumerates_the_full_faults_it_contains() {
    for cell in cells() {
        let full = enumerate_faults(&cell, FaultUniverse::full());
        for universe in universes() {
            let kept: Vec<_> = full
                .iter()
                .copied()
                .filter(|f| universe.contains(f))
                .collect();
            assert_eq!(enumerate_faults(&cell, universe), kept, "{}", cell.name());
        }
    }
}

#[test]
#[should_panic(expected = "cannot restrict")]
fn restriction_cannot_widen_the_universe() {
    let lib = FaultLibrary::generate(&fig9_cell());
    let _ = lib.restrict(FaultUniverse::full());
}
