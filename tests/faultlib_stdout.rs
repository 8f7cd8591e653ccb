//! Golden output of the classic `faultlib` run: the printed fault
//! library, the PROTEST summary and the optimizer lines, compared byte
//! for byte against a committed fixture. The cells are the paper's
//! Fig. 9 and the golden cells of the fault-library fixture (the six
//! benchmark shapes of widths 4 and 6–10, each under two input orders),
//! each as domino-CMOS and as dynamic-nMOS, run with no flag, with
//! `--full` and with `--optimize`.

#[allow(dead_code)]
#[path = "../crates/core/tests/cells/mod.rs"]
mod cells;

use std::io::Write;
use std::process::{Command, Stdio};

const FIG9: &str = "TECHNOLOGY domino-CMOS;
INPUT a,b,c,d,e;
OUTPUT u;
x1 := a*(b+c);
x2 := d*e;
u := x1+x2;
";

/// The classic run's stdout for `text` on stdin with `flags`.
fn faultlib_stdout(flags: &[&str], text: &str) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_faultlib"));
    cmd.args(flags);
    // A hermetic environment: no knob may change the printed numbers.
    for var in [
        "DYNMOS_BUDGET_MS",
        "DYNMOS_TESTABILITY",
        "DYNMOS_FAULT_PLAN",
    ] {
        cmd.env_remove(var);
    }
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn faultlib");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(text.as_bytes())
        .expect("write cell");
    let out = child.wait_with_output().expect("collect output");
    assert!(
        out.status.success(),
        "faultlib {flags:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout utf8")
}

/// Every run's stdout, each after a `==` header line naming the cell and
/// the flag.
fn golden_runs() -> String {
    let mut cells = vec![
        ("fig9_domino-CMOS".to_owned(), FIG9.to_owned()),
        (
            "fig9_dynamic-nMOS".to_owned(),
            FIG9.replace("domino-CMOS", "dynamic-nMOS"),
        ),
    ];
    cells.extend(cells::golden_cell_texts());
    let mut out = String::new();
    for (name, text) in &cells {
        for flags in [&[][..], &["--full"], &["--optimize"]] {
            out.push_str(&format!("== {name} {}\n", flags.join(" ")));
            out.push_str(&faultlib_stdout(flags, text));
        }
    }
    out
}

#[test]
fn classic_stdout_matches_fixture() {
    let actual = golden_runs();
    let expected = include_str!("fixtures/faultlib_stdout.txt");
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
