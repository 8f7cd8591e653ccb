//! `faultlib` — the paper's library-generation workflow as a CLI, plus
//! `faultlib serve`, a JSON-lines front end to the supervised job
//! engine (`dynmos_protest::service`).
//!
//! Classic mode reads a cell description in the paper's syntax (Fig. 9)
//! from a file or stdin and prints the generated fault library: all
//! distinguishable faulty functions in minimum disjunctive form, with
//! fault-equivalence classes collapsed, plus PROTEST-style detection
//! statistics.
//!
//! ```sh
//! # From a file:
//! cargo run --bin faultlib -- cell.txt
//!
//! # From stdin:
//! echo 'TECHNOLOGY domino-CMOS; INPUT a,b; OUTPUT z; z := a*b;' \
//!     | cargo run --bin faultlib
//!
//! # With the extended fault universe (line opens + inverter faults):
//! cargo run --bin faultlib -- --full cell.txt
//!
//! # Bounded: stop the PROTEST statistics at a wall-clock budget
//! # (exit code 3 marks a partial result; the library itself is
//! # always complete):
//! cargo run --bin faultlib -- --budget-ms 50 cell.txt
//!
//! # Job service: one JSON request/response per line on stdin/stdout.
//! printf '%s\n%s\n' \
//!     '{"op":"submit","kind":"fsim","format":"bench","netlist":"...","patterns":4096}' \
//!     '{"op":"run"}' | cargo run --bin faultlib -- serve
//! ```
//!
//! Every exit path prints one machine-readable status line to stderr:
//! `status=completed`, `status=interrupted reason=<token>`, or
//! `status=failed reason=<token>` — so harnesses (and the CI
//! fault-injection leg) can classify outcomes without parsing prose.

use dynmos::atpg::register_atpg;
use dynmos::model::{FaultLibrary, FaultUniverse};
use dynmos::netlist::generate::single_cell_network;
use dynmos::netlist::parse_cell;
use dynmos::protest::{
    env_budget_ms, network_fault_list, optimize_input_probabilities_budgeted, tier_census,
    try_test_length, DetectionEngine, DetectionEstimate, EngineConfig, EstimateMethod, JobEngine,
    Json, LengthError, Parallelism, RunBudget, RunStatus, StopReason, TestabilityConfig,
};
use std::io::{BufRead, Read, Write};
use std::panic::catch_unwind;
use std::path::Path;
use std::process::ExitCode;

/// Exit code for a run whose PROTEST statistics were cut short by the
/// budget: the printed output is a valid partial result, not an error.
const EXIT_PARTIAL: u8 = 3;

/// Seed of the cutting tier's Monte Carlo tightening, used only for
/// faults whose BDD overflows the node budget.
const MC_SEED: u64 = 0x00DA_C086;

/// The machine-readable token for an interruption reason.
fn stop_token(reason: StopReason) -> &'static str {
    match reason {
        StopReason::Deadline => "deadline",
        StopReason::Cancelled => "cancelled",
        StopReason::PatternCap => "pattern-cap",
        StopReason::RowCap => "row-cap",
        StopReason::WorkerFailed => "worker-failed",
    }
}

/// Tier strength order for summarizing a run: exact < BDD <
/// Monte-Carlo < cutting; the weakest tier present names the run.
fn tier_rank(m: &EstimateMethod) -> u8 {
    match m {
        EstimateMethod::Exact => 0,
        EstimateMethod::Bdd => 1,
        EstimateMethod::MonteCarlo => 2,
        EstimateMethod::Cutting => 3,
    }
}

/// The one-line machine-readable exit status (stderr, every exit path).
fn status_line(line: &str) {
    eprintln!("status={line}");
}

fn fail(reason: &str, msg: &str) -> ExitCode {
    eprintln!("faultlib: {msg}");
    status_line(&format!("failed reason={reason}"));
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    // Validate every DYNMOS_* knob in one shared startup pass: a typo
    // in any of them exits cleanly with a uniform `reason=env:<VAR>`
    // status instead of a panic backtrace from deep inside the first
    // code path that lazily consults it.
    if let Err(e) = dynmos::protest::env_contract::validate_all() {
        return fail(&format!("env:{}", e.var), &e.message);
    }
    // The engine catches and retries leg panics itself; anything that
    // unwinds out to here is unhandled, and must still produce the
    // machine-readable status line (the default hook has already
    // printed the panic message).
    match catch_unwind(real_main) {
        Ok(code) => code,
        Err(_) => {
            status_line("failed reason=panic");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return serve(&args[1..]);
    }
    classic(&args)
}

/// The original library-generation workflow.
fn classic(args: &[String]) -> ExitCode {
    let mut full = false;
    let mut optimize = false;
    let mut path: Option<String> = None;
    let mut budget_ms: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => full = true,
            "--optimize" => optimize = true,
            "--budget-ms" => {
                i += 1;
                match args.get(i).map(|v| v.parse::<u64>()) {
                    Some(Ok(ms)) => budget_ms = Some(ms),
                    _ => return fail("args", "--budget-ms needs a millisecond count"),
                }
            }
            "--help" | "-h" => {
                eprintln!("usage: faultlib [--full] [--optimize] [--budget-ms MS] [CELL_FILE]");
                eprintln!("       faultlib serve [--queue N] [--retries N] [--leg-ms MS]");
                eprintln!("                      [--leg-patterns N] [--journal DIR]");
                eprintln!("  reads a cell description (paper syntax) from CELL_FILE or stdin");
                eprintln!("  --full       include line opens and inverter faults");
                eprintln!("  --optimize   also optimize per-input signal probabilities");
                eprintln!("               (reports the engine tier census per fault)");
                eprintln!("  --budget-ms  wall-clock budget for the PROTEST statistics;");
                eprintln!("               a partial result exits with code {EXIT_PARTIAL}");
                eprintln!("               (DYNMOS_BUDGET_MS is the env fallback)");
                eprintln!("  serve        JSON-lines job service on stdin/stdout");
                eprintln!("  --journal    write-ahead journal directory: every admission,");
                eprintln!("               checkpointed leg, and result is committed before");
                eprintln!("               the client sees it, and a restarted serve against");
                eprintln!("               the same DIR resumes interrupted jobs and replays");
                eprintln!("               finished ones (op \"results\") byte-identically");
                status_line("completed");
                return ExitCode::SUCCESS;
            }
            other => path = Some(other.to_owned()),
        }
        i += 1;
    }
    let budget_ms = budget_ms.or_else(env_budget_ms);

    let text = match &path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => return fail("io", &format!("cannot read {p}: {e}")),
        },
        None => {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                return fail("io", &format!("cannot read stdin: {e}"));
            }
            buf
        }
    };

    let name = path
        .as_deref()
        .and_then(|p| p.rsplit('/').next())
        .and_then(|f| f.split('.').next())
        .unwrap_or("cell");

    let cell = match parse_cell(name, &text) {
        Ok(c) => c,
        Err(e) => return fail("parse", &e.to_string()),
    };

    let universe = if full {
        FaultUniverse::full()
    } else {
        FaultUniverse::paper_table()
    };
    let lib = FaultLibrary::generate_with(&cell, universe);
    print!("{lib}");

    // PROTEST summary: the tiered engine — exact enumeration up to
    // 2^20 rows, BDD beyond, certified cutting bounds past the node
    // budget (`DYNMOS_TESTABILITY` overrides the policy).
    let mut run_budget = RunBudget::unlimited().with_max_exact_rows(1 << 20);
    if let Some(ms) = budget_ms {
        run_budget.deadline =
            Some(std::time::Instant::now() + std::time::Duration::from_millis(ms));
    }
    let net = single_cell_network(cell);
    let faults = network_fault_list(&net);
    let probs = vec![0.5; net.primary_inputs().len()];
    let config = TestabilityConfig::from_env().with_seed(MC_SEED);
    let mut engine =
        DetectionEngine::new(&net, &faults, config).with_parallelism(Parallelism::default());
    // Streamed so an interrupt still knows which tier served each
    // finished fault — the census lands in the status line.
    let mut est: Vec<DetectionEstimate> = Vec::new();
    let status = engine.estimates_from(0, &probs, &run_budget, &mut |_, e| est.push(e));
    let census = tier_census(est.iter().map(|e| &e.method));
    if let RunStatus::Interrupted(reason) = status {
        eprintln!(
            "faultlib: PROTEST statistics interrupted ({reason}) after {}/{} faults; \
             the fault library above is complete",
            est.len(),
            faults.len()
        );
        status_line(&format!(
            "interrupted reason={} tiers={census}",
            stop_token(reason)
        ));
        return ExitCode::from(EXIT_PARTIAL);
    }
    let values: Vec<f64> = est.iter().map(|e| e.value).collect();
    let hardest = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let method = match est.iter().map(|e| e.method).max_by_key(tier_rank) {
        None | Some(EstimateMethod::Exact) => "exact".to_owned(),
        Some(_) => format!("tiers {census}"),
    };
    println!();
    match try_test_length(&values, 0.999) {
        Ok(u64::MAX) => {
            println!(
                "random test (uniform inputs, {method}): hardest detection probability \
                 {hardest:.6}, length for 99.9% confidence: unbounded \
                 (some fault was never detected)"
            );
        }
        Ok(n) => {
            println!(
                "random test (uniform inputs, {method}): hardest detection probability \
                 {hardest:.6}, length for 99.9% confidence: {n}"
            );
        }
        Err(LengthError::Interrupted(reason)) => {
            eprintln!(
                "faultlib: test-length search interrupted ({reason}); \
                 detection statistics above are complete"
            );
            status_line(&format!(
                "interrupted reason={} tiers={census}",
                stop_token(reason)
            ));
            return ExitCode::from(EXIT_PARTIAL);
        }
        Err(e) => return fail("length", &format!("test-length: {e}")),
    }
    if optimize {
        let run = optimize_input_probabilities_budgeted(
            &net,
            &faults,
            0.999,
            4,
            Parallelism::default(),
            &run_budget,
        );
        let census = tier_census(&run.methods);
        let fmt_len = |n: u64| {
            if n == u64::MAX {
                "unbounded".to_owned()
            } else {
                n.to_string()
            }
        };
        let r = &run.report;
        let shown: Vec<String> = r.probabilities.iter().map(|p| format!("{p:.4}")).collect();
        println!("optimized input probabilities (tiers {census}):");
        println!("  [{}]", shown.join(", "));
        println!(
            "  test length {} -> {} ({} sweep{})",
            fmt_len(r.uniform_length),
            fmt_len(r.optimized_length),
            r.sweeps,
            if r.sweeps == 1 { "" } else { "s" }
        );
        if let RunStatus::Interrupted(reason) = run.status {
            eprintln!(
                "faultlib: optimization interrupted ({reason}); \
                 the probabilities above are the best candidate seen"
            );
            status_line(&format!(
                "interrupted reason={} tiers={census}",
                stop_token(reason)
            ));
            return ExitCode::from(EXIT_PARTIAL);
        }
    }
    status_line("completed");
    ExitCode::SUCCESS
}

/// `faultlib serve` — a JSON-lines session against the job engine.
///
/// One request object per input line; one response object per line on
/// stdout (a `run` additionally prints one record line per job it
/// drains). Supported ops: `submit`, `run`, `results`, `stats`,
/// `quit`. Malformed lines answer `{"ok":false,"error":...}` and the
/// session continues.
///
/// With `--journal DIR` the engine write-ahead-journals every
/// admission, checkpointed leg, and terminal record to
/// `DIR/journal.jsonl` before acknowledging it, and replays the
/// journal at startup: a serve killed at any instant (`kill -9`
/// included) restarts against the same directory with its finished
/// records intact (`results` returns them byte-identically) and its
/// interrupted jobs requeued from their last committed checkpoint.
fn serve(args: &[String]) -> ExitCode {
    let mut config = EngineConfig::from_env();
    let mut journal_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: usize| -> Option<&String> { args.get(i + 1) };
        match flag {
            "--queue" | "--retries" | "--leg-ms" | "--leg-patterns" => {
                let Some(raw) = value(i) else {
                    return fail("args", &format!("{flag} needs a value"));
                };
                let Ok(n) = raw.parse::<u64>() else {
                    return fail("args", &format!("{flag} needs an integer, got {raw:?}"));
                };
                match flag {
                    "--queue" => config.queue_capacity = n as usize,
                    "--retries" => config.max_retries = n as u32,
                    "--leg-ms" => config.leg_ms = Some(n),
                    "--leg-patterns" => config.leg_patterns = Some(n),
                    _ => unreachable!(),
                }
                i += 1;
            }
            "--journal" => {
                let Some(dir) = value(i) else {
                    return fail("args", "--journal needs a directory");
                };
                journal_dir = Some(dir.clone());
                i += 1;
            }
            other => return fail("args", &format!("unknown serve flag {other:?}")),
        }
        i += 1;
    }

    let mut engine = JobEngine::new(config);
    register_atpg(&mut engine);
    if let Some(dir) = &journal_dir {
        // Attach after kind registration: recovery rebuilds kernels
        // through the same factories as live submissions.
        match engine.attach_journal(Path::new(dir)) {
            // The summary goes to stderr: stdout stays strictly
            // request/response so sessions are byte-comparable.
            Ok(summary) => eprintln!("faultlib: journal {summary}"),
            Err(e) => return fail("journal", &format!("cannot attach journal {dir}: {e}")),
        }
    }

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut emit = |line: &Json| {
        // A broken pipe just ends the session; the status line still
        // goes to stderr.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    };
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("faultlib: cannot read stdin: {e}");
                status_line("failed reason=io");
                return ExitCode::FAILURE;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Json::parse(&line) {
            Ok(v) => v,
            Err(e) => {
                emit(&Json::Obj(vec![
                    ("ok".into(), Json::Bool(false)),
                    ("error".into(), Json::str(format!("bad request: {e}"))),
                ]));
                continue;
            }
        };
        match request.get("op").and_then(Json::as_str) {
            Some("submit") => {
                let verdict = engine.submit_json(&request);
                emit(&verdict);
            }
            Some("run") => {
                let records = engine.drain();
                for record in &records {
                    emit(&record.to_json());
                }
                emit(&Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("op".into(), Json::str("run")),
                    ("completed".into(), Json::num(records.len() as u64)),
                ]));
            }
            Some("results") => emit(&engine.results_json()),
            Some("stats") => emit(&engine.stats_json()),
            Some("quit") => {
                emit(&Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("op".into(), Json::str("quit")),
                ]));
                status_line("completed");
                return ExitCode::SUCCESS;
            }
            other => {
                let msg = match other {
                    Some(op) => format!("unknown op {op:?} (submit|run|results|stats|quit)"),
                    None => "missing \"op\"".to_owned(),
                };
                emit(&Json::Obj(vec![
                    ("ok".into(), Json::Bool(false)),
                    ("error".into(), Json::str(msg)),
                ]));
            }
        }
    }
    status_line("completed");
    ExitCode::SUCCESS
}
