//! Golden transcript of `faultlib serve`: the full stdout bytes of a
//! journaled session on a 3-bit ripple adder, plus a restart against the
//! same journal, compared byte for byte against a committed fixture.
//!
//! The session submits every built-in job kind (`fsim`, `mc-detect`,
//! `mc-signal`, `detect`, `length`, `optimize`, `testability` in `bdd`
//! mode at a node budget where BDD and cutting both serve, and in
//! `cutting` mode) plus `atpg`, one refused submit, one malformed line,
//! `stats` before and after the run, and `results`. The restart answers
//! `results` from the journal alone; its line must equal the first
//! session's. Non-dyadic input probabilities put non-integer floats
//! with long shortest-roundtrip spellings on the wire.

use dynmos::netlist::generate::ripple_adder_bench_text;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

/// Runs `faultlib serve --journal DIR --leg-patterns 256` on `input`
/// and returns its stdout.
fn serve(journal: &Path, input: &str) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_faultlib"));
    cmd.arg("serve")
        .arg("--journal")
        .arg(journal)
        .args(["--leg-patterns", "256"]);
    // A hermetic environment: no knob may change the printed bytes.
    for var in [
        "DYNMOS_FAULT_PLAN",
        "DYNMOS_BUDGET_MS",
        "DYNMOS_TESTABILITY",
    ] {
        cmd.env_remove(var);
    }
    cmd.env("DYNMOS_THREADS", "2");
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn faultlib serve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("collect output");
    assert!(
        out.status.success(),
        "faultlib serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout utf8")
}

/// A submit line for `kind` on the adder, with `extra` request members.
fn submit(netlist: &str, kind: &str, extra: &str) -> String {
    let escaped = netlist
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!(r#"{{"op":"submit","kind":"{kind}","format":"bench","netlist":"{escaped}"{extra}}}"#)
}

/// The first session's requests.
fn session() -> String {
    let net = ripple_adder_bench_text(3);
    let probs = r#","probs":[0.3,0.5,0.7,0.1,0.9,0.6,0.45]"#;
    let lines = [
        r#"{"op":"stats"}"#.to_owned(),
        submit(&net, "fsim", &format!(r#","patterns":600,"seed":7{probs}"#)),
        submit(&net, "mc-detect", r#","samples":700,"seed":7"#),
        submit(&net, "mc-signal", r#","samples":500,"seed":3,"output":3"#),
        submit(&net, "detect", probs),
        submit(&net, "length", r#","confidence":0.99"#),
        submit(&net, "optimize", r#","max_sweeps":1"#),
        submit(
            &net,
            "testability",
            r#","mode":"bdd","node_budget":200,"seed":5,"tighten_samples":64"#,
        ),
        submit(
            &net,
            "testability",
            &format!(r#","mode":"cutting","seed":5,"tighten_samples":64{probs}"#),
        ),
        submit(&net, "atpg", r#","max_backtracks":20"#),
        submit(&net, "frobnicate", ""),
        r#"{"op":"submit","kind":"fsim""#.to_owned(),
        r#"{"op":"run"}"#.to_owned(),
        r#"{"op":"stats"}"#.to_owned(),
        r#"{"op":"results"}"#.to_owned(),
        r#"{"op":"quit"}"#.to_owned(),
    ];
    lines.join("\n") + "\n"
}

/// The final `results` line of a transcript.
fn results_line(stdout: &str) -> &str {
    stdout
        .lines()
        .rev()
        .find(|l| l.starts_with(r#"{"ok":true,"op":"results""#))
        .expect("session printed a results line")
}

#[test]
fn serve_transcript_matches_fixture() {
    let dir = std::env::temp_dir().join(format!("dynmos-serve-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let first = serve(&dir, &session());
    let restart = serve(&dir, "{\"op\":\"results\"}\n{\"op\":\"quit\"}\n");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        results_line(&restart),
        results_line(&first),
        "the restart's results differ from the session's"
    );

    let actual = first + &restart;
    let expected = include_str!("fixtures/serve_transcript.jsonl");
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
