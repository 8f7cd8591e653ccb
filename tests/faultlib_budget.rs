//! The classic `faultlib` run under `--budget-ms`: an expired budget
//! cuts the PROTEST statistics short, never the fault library.

use dynmos::model::{FaultLibrary, FaultUniverse};
use dynmos::netlist::parse_cell;
use std::io::Write;
use std::process::{Command, Stdio};

const FIG9: &str = "TECHNOLOGY domino-CMOS;
INPUT a,b,c,d,e;
OUTPUT u;
x1 := a*(b+c);
x2 := d*e;
u := x1+x2;
";

#[test]
fn zero_budget_prints_the_library_and_exits_interrupted() {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_faultlib"));
    cmd.args(["--budget-ms", "0"]);
    // A hermetic environment: only the flag sets the budget.
    for var in [
        "DYNMOS_BUDGET_MS",
        "DYNMOS_TESTABILITY",
        "DYNMOS_FAULT_PLAN",
        "DYNMOS_THREADS",
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
        .write_all(FIG9.as_bytes())
        .expect("write cell");
    let out = child.wait_with_output().expect("collect output");
    let stdout = String::from_utf8(out.stdout).expect("stdout utf8");
    let stderr = String::from_utf8(out.stderr).expect("stderr utf8");

    assert_eq!(out.status.code(), Some(3), "stderr: {stderr}");
    let cell = parse_cell("cell", FIG9).expect("Fig. 9 parses");
    let library = FaultLibrary::generate_with(&cell, FaultUniverse::paper_table());
    assert_eq!(stdout, library.to_string());
    let last = stderr.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("status=interrupted reason=deadline tiers="),
        "stderr: {stderr}"
    );
}
