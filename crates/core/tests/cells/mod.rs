//! The cells behind the fault-library golden fixture: the six domino
//! shapes of the `library_cells` benchmark workload (widths 4 and 6–10),
//! each under two fixed input permutations, in both dynamic technologies.
//!
//! `dynmos-logic`'s property tests include this file too, to check the
//! prime-implicant generator and the minimizer on every class table of
//! these cells, and the `faultlib` golden test runs the binary on their
//! texts.

use dynmos_netlist::{parse_cell, Cell};

/// `(width, shape)`: placeholder `vK` stands for the input that the
/// permutation assigns to position `K`.
const SHAPES: [(usize, &str); 6] = [
    (4, "(v0+v1)*(v2+v3)"),
    (6, "(v0+v1*v2)*(v3+v4*v5)"),
    (7, "v0*(v1+v2)+(v3+v4)*(v5+v6)"),
    (8, "(v0*v1+v2)*(v3+v4*v5)+v6*v7"),
    (9, "((v0+v1)*v2+v3*v4)*(v5+v6*(v7+v8))"),
    (10, "(v0+v4)*(v7+v2*v9*v5)*(v1+v3+v8*v6)"),
];

const TECHNOLOGIES: [&str; 2] = ["domino-CMOS", "dynamic-nMOS"];

/// Every golden cell, in fixture order: shape, then permutation (`id`:
/// `vK` is `iK`; `rev`: `vK` is `i(width-1-K)`), then technology.
pub fn golden_cells() -> Vec<Cell> {
    golden_cell_texts()
        .iter()
        .map(|(name, text)| parse_cell(name, text).expect("golden cell parses"))
        .collect()
}

/// The `(name, text)` of every golden cell, in the order of
/// [`golden_cells`], in the paper's cell syntax.
pub fn golden_cell_texts() -> Vec<(String, String)> {
    let mut cells = Vec::new();
    for (width, shape) in SHAPES {
        for (perm, reversed) in [("id", false), ("rev", true)] {
            let mut expr = shape.to_owned();
            // Highest placeholder first, so `v1` never rewrites part of `v10`.
            for k in (0..width).rev() {
                let input = if reversed { width - 1 - k } else { k };
                expr = expr.replace(&format!("v{k}"), &format!("i{input}"));
            }
            let inputs: Vec<String> = (0..width).map(|i| format!("i{i}")).collect();
            for tech in TECHNOLOGIES {
                let text = format!(
                    "TECHNOLOGY {tech};\nINPUT {};\nOUTPUT z;\nz := {expr};\n",
                    inputs.join(",")
                );
                cells.push((format!("w{width}_{perm}_{tech}"), text));
            }
        }
    }
    cells
}
