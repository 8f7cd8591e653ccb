//! Job-engine integration tests: supervised runs under deterministic
//! fault injection must complete bit-identical to uninterrupted runs,
//! the admission queue must shed with structured rejections, deadlines
//! must surface partial results, and the cache's validation-on-hit
//! must catch poisoned entries.

use dynmos_netlist::generate::ripple_adder_bench_text;
use dynmos_protest::{BackoffPolicy, EngineConfig, FaultPlan, JobStatus, Json, Parallelism};
use dynmos_protest::{JobEngine, StopReason};
use std::sync::Arc;
use std::time::Duration;

/// A config with no sleeps and no wall-clock leg slicing: tests use
/// deterministic pattern-count legs only.
fn test_config() -> EngineConfig {
    EngineConfig {
        backoff: BackoffPolicy {
            base_ms: 0,
            cap_ms: 0,
            seed: 0,
        },
        parallelism: Parallelism::Fixed(2),
        ..EngineConfig::default()
    }
}

fn submit_ok(engine: &mut JobEngine, request: &str) -> u64 {
    let verdict = engine.submit_json(&Json::parse(request).unwrap());
    assert_eq!(
        verdict.get("ok").and_then(Json::as_bool),
        Some(true),
        "submit rejected: {verdict}"
    );
    verdict.get("id").and_then(Json::as_u64).unwrap()
}

fn fsim_request(bench: &str, patterns: u64) -> String {
    let req = Json::Obj(vec![
        ("kind".into(), Json::str("fsim")),
        ("format".into(), Json::str("bench")),
        ("netlist".into(), Json::str(bench.to_owned())),
        ("patterns".into(), Json::num(patterns)),
        ("fault_limit".into(), Json::num(64)),
    ]);
    req.to_string()
}

/// An fsim request with extremely biased input weights (p = 2^-16 per
/// input): the covered fault slice is dominated by primary-input
/// stuck-ats, whose stuck-at-0 half then has detection probability
/// 2^-16 — they outlive every pattern budget used here, so early
/// coverage exit can never collapse a run into a single leg.
fn hard_fsim_request(bench: &str, inputs: usize, patterns: u64) -> Json {
    Json::Obj(vec![
        ("kind".into(), Json::str("fsim")),
        ("format".into(), Json::str("bench")),
        ("netlist".into(), Json::str(bench.to_owned())),
        ("patterns".into(), Json::num(patterns)),
        ("fault_limit".into(), Json::num(200)),
        (
            "probs".into(),
            Json::Arr(vec![Json::Num(1.0 / 65536.0); inputs]),
        ),
    ])
}

/// The tentpole acceptance criterion: a job killed by injected faults
/// several times completes via checkpointed retries with a result
/// bit-identical to an undisturbed run — at 1, 2, and 4 threads.
#[test]
fn killed_job_completes_bit_identical_to_undisturbed_run() {
    let bench = ripple_adder_bench_text(80);
    let request = hard_fsim_request(&bench, 161, 5000);
    let reference = {
        let mut engine = JobEngine::new(EngineConfig {
            leg_patterns: Some(1024),
            parallelism: Parallelism::Serial,
            ..test_config()
        });
        let verdict = engine.submit_json(&request);
        assert_eq!(verdict.get("ok").and_then(Json::as_bool), Some(true));
        let record = engine.run_next().expect("queued");
        assert_eq!(record.status, JobStatus::Completed);
        assert_eq!(record.retries, 0);
        assert!(record.legs >= 5, "5000 patterns over 1024-pattern legs");
        record.result.to_string()
    };
    for threads in [1usize, 2, 4] {
        // Kill legs 1 and 3 (0-based) of job 1: two mid-run deaths,
        // both after real progress. `kill_at` is thread-count
        // independent, unlike rate-based injection.
        let plan = Arc::new(FaultPlan::new(11).kill_at(&[1, 3]));
        let mut engine = JobEngine::new(EngineConfig {
            leg_patterns: Some(1024),
            parallelism: Parallelism::Fixed(threads),
            fault_plan: Some(plan),
            ..test_config()
        });
        let verdict = engine.submit_json(&request);
        assert_eq!(verdict.get("ok").and_then(Json::as_bool), Some(true));
        let record = engine.run_next().expect("queued");
        assert_eq!(record.status, JobStatus::Completed, "threads={threads}");
        assert_eq!(record.retries, 2, "threads={threads}: both kills retried");
        assert!(record.legs > 5, "threads={threads}: {} legs", record.legs);
        assert_eq!(
            record.result.to_string(),
            reference,
            "threads={threads}: result differs from undisturbed run"
        );
    }
}

/// Retry is bounded by *consecutive* failures: a plan that kills every
/// leg exhausts the budget and fails the job, with the injected panic
/// message preserved.
#[test]
fn unrelenting_kills_exhaust_the_retry_budget() {
    let bench = ripple_adder_bench_text(8);
    let plan = Arc::new(FaultPlan::new(5).leg_kill(1.0));
    let mut engine = JobEngine::new(EngineConfig {
        max_retries: 3,
        fault_plan: Some(plan),
        ..test_config()
    });
    submit_ok(&mut engine, &fsim_request(&bench, 2000));
    let record = engine.run_next().expect("queued");
    assert_eq!(record.status, JobStatus::Failed);
    assert_eq!(record.legs, 4, "initial attempt + 3 retries");
    assert_eq!(record.retries, 4);
    assert!(
        record
            .error
            .as_deref()
            .unwrap_or("")
            .contains("injected job kill"),
        "error lost: {:?}",
        record.error
    );
}

/// Injected deadline expiry is absorbed: every leg sees an already-
/// expired budget, checkpoints at its first chunk boundary, and the
/// forward-progress guarantee still drives the job to completion with
/// a result identical to the undisturbed run.
#[test]
fn expire_injection_degrades_to_many_legs_not_failure() {
    let bench = ripple_adder_bench_text(24);
    // 40 000 patterns span three 16 384-pattern fsim chunks, and the
    // biased weights keep hard-fault tails live past the first chunk,
    // so an always-expired budget (which stops at every chunk
    // boundary) must produce several legs.
    let request = hard_fsim_request(&bench, 49, 40_000);
    let reference = {
        let mut engine = JobEngine::new(test_config());
        let verdict = engine.submit_json(&request);
        assert_eq!(verdict.get("ok").and_then(Json::as_bool), Some(true));
        engine.run_next().expect("queued").result.to_string()
    };
    let plan = Arc::new(FaultPlan::new(9).leg_expire(1.0));
    let mut engine = JobEngine::new(EngineConfig {
        fault_plan: Some(plan),
        ..test_config()
    });
    let verdict = engine.submit_json(&request);
    assert_eq!(verdict.get("ok").and_then(Json::as_bool), Some(true));
    let record = engine.run_next().expect("queued");
    assert_eq!(record.status, JobStatus::Completed);
    assert_eq!(record.retries, 0, "expiry is not a failure");
    assert!(record.legs > 1, "expiry must slice the run into legs");
    assert_eq!(
        record.stop,
        Some(StopReason::Deadline),
        "the injected expiry is the recorded stop"
    );
    assert_eq!(record.result.to_string(), reference);
}

/// A full queue sheds new submissions with a structured rejection
/// naming the reason, the capacity, and the pending count.
#[test]
fn full_queue_sheds_with_structured_rejection() {
    let bench = ripple_adder_bench_text(4);
    let mut engine = JobEngine::new(EngineConfig {
        queue_capacity: 2,
        ..test_config()
    });
    submit_ok(&mut engine, &fsim_request(&bench, 100));
    submit_ok(&mut engine, &fsim_request(&bench, 100));
    let verdict = engine.submit_json(&Json::parse(&fsim_request(&bench, 100)).unwrap());
    assert_eq!(verdict.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(verdict.get("shed").and_then(Json::as_bool), Some(true));
    assert_eq!(
        verdict.get("reason").and_then(Json::as_str),
        Some("queue full")
    );
    assert_eq!(verdict.get("capacity").and_then(Json::as_u64), Some(2));
    assert_eq!(verdict.get("pending").and_then(Json::as_u64), Some(2));
    // The queue drains normally afterwards; service resumes.
    assert_eq!(engine.drain().len(), 2);
    submit_ok(&mut engine, &fsim_request(&bench, 100));
    assert_eq!(engine.pending(), 1);
}

/// A job timeout surfaces `DeadlineExceeded` with the partial result of
/// the last committed checkpoint, not a failure and not a hang.
#[test]
fn job_timeout_reports_partial_result() {
    let bench = ripple_adder_bench_text(64);
    let mut engine = JobEngine::new(EngineConfig {
        leg_patterns: Some(1024),
        ..test_config()
    });
    let mut request = hard_fsim_request(&bench, 129, 1 << 40);
    let Json::Obj(members) = &mut request else {
        unreachable!()
    };
    members.push(("timeout_ms".into(), Json::num(50)));
    let verdict = engine.submit_json(&request);
    assert_eq!(verdict.get("ok").and_then(Json::as_bool), Some(true));
    let record = engine.run_next().expect("queued");
    assert_eq!(record.status, JobStatus::DeadlineExceeded);
    // The last leg stopped either on the job deadline or on its own
    // pattern slice right as the deadline passed — both are clean
    // checkpoint boundaries, never a failure.
    assert!(record.stop.is_some());
    assert_eq!(record.retries, 0);
    let patterns = record
        .result
        .get("patterns")
        .and_then(Json::as_u64)
        .expect("partial result carries progress");
    assert!(patterns > 0, "at least one leg of work committed");
    assert_eq!(
        record.result.get("complete").and_then(Json::as_bool),
        Some(false)
    );
    assert!(record.elapsed >= Duration::from_millis(50));
}

/// Cache poisoning injected at insert time is caught by validation-on-
/// hit: repeated submissions of the same netlist trigger a validation
/// that evicts the poisoned entry, visible in the engine stats.
#[test]
fn poisoned_cache_entry_is_evicted_by_validation() {
    let bench = ripple_adder_bench_text(6);
    let plan = Arc::new(FaultPlan::new(2).cache_poison(1.0));
    let mut engine = JobEngine::new(EngineConfig {
        validate_every: 2,
        queue_capacity: 16,
        fault_plan: Some(plan),
        ..test_config()
    });
    for _ in 0..4 {
        submit_ok(&mut engine, &fsim_request(&bench, 64));
    }
    let stats = engine.stats_json();
    let cache = stats.get("cache").expect("cache stats");
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(3));
    assert!(cache.get("validations").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(
        cache.get("evictions").and_then(Json::as_u64),
        Some(1),
        "poisoned fingerprint must be caught exactly once: {stats}"
    );
    // The jobs themselves are unharmed — the poison corrupts integrity
    // metadata, not the compiled network.
    for record in engine.drain() {
        assert_eq!(record.status, JobStatus::Completed);
    }
}

/// Malformed submissions get structured errors, not panics; the engine
/// keeps serving afterwards.
#[test]
fn bad_requests_are_rejected_with_reasons() {
    let mut engine = JobEngine::new(test_config());
    let cases = [
        (r#"{"netlist":"x"}"#, "missing \"kind\""),
        (r#"{"kind":"fsim"}"#, "missing \"netlist\""),
        (r#"{"kind":5,"netlist":"x"}"#, "\"kind\" must be a string"),
        (
            r#"{"kind":"fsim","netlist":7}"#,
            "\"netlist\" must be a string",
        ),
        (r#"{"kind":"nope","netlist":"a"}"#, "does not compile"),
    ];
    for (request, needle) in cases {
        let verdict = engine.submit_json(&Json::parse(request).unwrap());
        assert_eq!(verdict.get("ok").and_then(Json::as_bool), Some(false));
        let error = verdict.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(needle), "error {error:?} lacks {needle:?}");
    }
    let bench = ripple_adder_bench_text(2);
    let verdict = engine.submit_json(
        &Json::parse(&format!(
            r#"{{"kind":"warp","netlist":{}}}"#,
            Json::str(bench.clone())
        ))
        .unwrap(),
    );
    let error = verdict.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("unknown job kind"), "{error}");
    // Still serving.
    submit_ok(&mut engine, &fsim_request(&bench, 16));
}

/// A present but mistyped `timeout_ms` or `fault_limit` is refused: it
/// must not silently run the job with no deadline or the full fault
/// list.
#[test]
fn mistyped_timeout_and_fault_limit_are_rejected() {
    let mut engine = JobEngine::new(test_config());
    let bench = Json::str(ripple_adder_bench_text(2));
    for key in ["timeout_ms", "fault_limit"] {
        for bad in [r#""500""#, "-1", "1.5", "null", "true", "[5]"] {
            let request = format!(r#"{{"kind":"fsim","netlist":{bench},"{key}":{bad}}}"#);
            let verdict = engine.submit_json(&Json::parse(&request).unwrap());
            assert_eq!(
                verdict.get("ok").and_then(Json::as_bool),
                Some(false),
                "{key}={bad} admitted: {verdict}"
            );
            let error = verdict.get("error").and_then(Json::as_str).unwrap();
            assert!(error.contains(key), "error {error:?} does not name {key}");
        }
        let good = format!(r#"{{"kind":"fsim","netlist":{bench},"{key}":5000}}"#);
        submit_ok(&mut engine, &good);
    }
    assert_eq!(engine.pending(), 2, "only the well-typed requests queue");
}

/// A present but mistyped kernel parameter is refused with an error that
/// names it: a string, fraction, negative or `null` must not silently run
/// the kernel with its default.
#[test]
fn mistyped_kernel_parameters_are_rejected() {
    let mut engine = JobEngine::new(test_config());
    let bench = Json::str(ripple_adder_bench_text(2));
    let integer_bad = [r#""64""#, "64.5", "-1", "null", "true", "[64]"];
    let number_bad = [r#""0.5""#, "null", "true", "[0.5]"];
    let string_bad = ["5", "null", "true", r#"["bdd"]"#];
    let params: [(&str, &str, &[&str], &str); 16] = [
        ("fsim", "patterns", &integer_bad, "64"),
        ("fsim", "seed", &integer_bad, "7"),
        ("mc-detect", "samples", &integer_bad, "256"),
        ("mc-detect", "seed", &integer_bad, "7"),
        ("mc-signal", "output", &integer_bad, "2"),
        ("mc-signal", "samples", &integer_bad, "256"),
        ("mc-signal", "seed", &integer_bad, "7"),
        ("detect", "seed", &integer_bad, "7"),
        ("length", "seed", &integer_bad, "7"),
        ("length", "confidence", &number_bad, "0.5"),
        ("optimize", "confidence", &number_bad, "0.5"),
        ("optimize", "max_sweeps", &integer_bad, "1"),
        ("testability", "seed", &integer_bad, "7"),
        ("testability", "node_budget", &integer_bad, "2000"),
        ("testability", "tighten_samples", &integer_bad, "64"),
        ("testability", "mode", &string_bad, r#""bdd""#),
    ];
    for (kind, key, bad_values, good) in params {
        let request = |v: &str| format!(r#"{{"kind":"{kind}","netlist":{bench},"{key}":{v}}}"#);
        for bad in bad_values {
            let verdict = engine.submit_json(&Json::parse(&request(bad)).unwrap());
            assert_eq!(
                verdict.get("ok").and_then(Json::as_bool),
                Some(false),
                "{kind} {key}={bad} admitted: {verdict}"
            );
            let error = verdict.get("error").and_then(Json::as_str).unwrap();
            assert!(error.contains(key), "error {error:?} does not name {key}");
        }
        submit_ok(&mut engine, &request(good));
    }
    assert_eq!(
        engine.pending(),
        params.len(),
        "only the well-typed requests queue"
    );
}

/// A `detect` request's `max_exact_rows` must be an integer no larger
/// than the documented feasibility limit: a mistyped value would be
/// silently ignored, and a huge one would let the exact tier's
/// unbudgeted first fault outrun `timeout_ms`.
#[test]
fn mistyped_or_oversized_max_exact_rows_is_rejected() {
    assert_only_valid_values_queue(
        "detect",
        "max_exact_rows",
        &[
            r#""4096""#,
            "1e15",
            "1099511627776",
            "16777217",
            "-1",
            "1.5",
            "null",
        ],
        &["0", "4096", "16777216"],
    );
}

/// A present `format` must be a string: a mistyped one must not fall
/// back to `.bench` parsing.
#[test]
fn mistyped_format_is_rejected() {
    assert_only_valid_values_queue(
        "fsim",
        "format",
        &["7", "null", "true", r#"["bench"]"#],
        &[r#""bench""#],
    );
}

/// An `optimize` confidence outside (0, 1) is refused at admission: the
/// optimizer's test-length objective is undefined there.
#[test]
fn out_of_range_optimize_confidence_is_rejected() {
    assert_only_valid_values_queue(
        "optimize",
        "confidence",
        &["0", "1", "1.5", "-0.5"],
        &["0.5", "0.999"],
    );
}

/// An `optimize` request whose fault list is empty is refused at
/// admission instead of failing every leg.
#[test]
fn optimize_with_an_empty_fault_list_is_rejected() {
    let mut engine = JobEngine::new(test_config());
    let bench = Json::str(ripple_adder_bench_text(2));
    let request =
        |limit: u64| format!(r#"{{"kind":"optimize","netlist":{bench},"fault_limit":{limit}}}"#);
    let verdict = engine.submit_json(&Json::parse(&request(0)).unwrap());
    assert_eq!(
        verdict.get("ok").and_then(Json::as_bool),
        Some(false),
        "empty fault list admitted: {verdict}"
    );
    let error = verdict.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("fault list is empty"), "error {error:?}");
    submit_ok(&mut engine, &request(1));
    assert_eq!(engine.pending(), 1, "only the non-empty request queues");
}

/// `tighten_samples` is capped at 2^16: the cutting tier's sample bank
/// is drawn outside the leg budget.
#[test]
fn mistyped_or_oversized_tighten_samples_is_rejected() {
    assert_only_valid_values_queue(
        "testability",
        "tighten_samples",
        &[r#""4096""#, "1e15", "65537", "-1", "1.5", "null"],
        &["0", "4096", "65536"],
    );
}

/// Submits a `kind` job on a small adder once per value of `key`: every
/// `bad` value is refused at admission with an error naming the key,
/// every `good` one queues.
fn assert_only_valid_values_queue(kind: &str, key: &str, bad: &[&str], good: &[&str]) {
    let mut engine = JobEngine::new(test_config());
    let bench = Json::str(ripple_adder_bench_text(2));
    let request = |v: &str| format!(r#"{{"kind":"{kind}","netlist":{bench},"{key}":{v}}}"#);
    for v in bad {
        let verdict = engine.submit_json(&Json::parse(&request(v)).unwrap());
        assert_eq!(
            verdict.get("ok").and_then(Json::as_bool),
            Some(false),
            "{key}={v} admitted: {verdict}"
        );
        let error = verdict.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(key), "error {error:?} does not name the key");
    }
    for v in good {
        submit_ok(&mut engine, &request(v));
    }
    assert_eq!(engine.pending(), good.len(), "only the valid values queue");
}

/// Backoff delays are deterministic, exponential up to the cap, and
/// jittered within [0.5, 1.5) of the nominal delay.
#[test]
fn backoff_policy_is_bounded_and_deterministic() {
    let policy = BackoffPolicy {
        base_ms: 25,
        cap_ms: 2000,
        seed: 42,
    };
    for job in 1..=5u64 {
        for retry in 1..=10u32 {
            let d = policy.delay(job, retry);
            let nominal = 25u64.saturating_mul(1 << (retry - 1)).min(2000);
            let lo = Duration::from_millis(nominal / 2);
            let hi = Duration::from_millis(nominal + nominal / 2 + 1);
            assert!(
                d >= lo && d < hi,
                "job {job} retry {retry}: {d:?} outside [{lo:?}, {hi:?})"
            );
            assert_eq!(d, policy.delay(job, retry), "jitter must be deterministic");
        }
    }
    // Different jobs decorrelate.
    assert_ne!(policy.delay(1, 3), policy.delay(2, 3));
    // base 0 disables sleeping.
    let off = BackoffPolicy {
        base_ms: 0,
        cap_ms: 0,
        seed: 0,
    };
    assert_eq!(off.delay(7, 4), Duration::ZERO);
}

/// Every built-in kernel kind completes through the engine and reports
/// a `complete: true` result under injected kills.
#[test]
fn all_builtin_kinds_survive_kill_injection() {
    let bench = ripple_adder_bench_text(3);
    let cell = "TECHNOLOGY domino-CMOS; INPUT a,b,c; OUTPUT z; z := a*b + c;";
    let kinds: [(&str, &str, &str); 7] = [
        ("fsim", "bench", &bench),
        ("mc-detect", "bench", &bench),
        ("mc-signal", "bench", &bench),
        ("detect", "cell", cell),
        ("length", "cell", cell),
        ("optimize", "cell", cell),
        ("testability", "bench", &bench),
    ];
    let plan = Arc::new(FaultPlan::new(21).kill_at(&[0]));
    let mut engine = JobEngine::new(EngineConfig {
        queue_capacity: 16,
        leg_patterns: Some(1024),
        fault_plan: Some(plan),
        ..test_config()
    });
    for (kind, format, netlist) in kinds {
        let request = Json::Obj(vec![
            ("kind".into(), Json::str(kind)),
            ("format".into(), Json::str(format)),
            ("netlist".into(), Json::str(netlist.to_owned())),
            ("patterns".into(), Json::num(2000)),
            ("samples".into(), Json::num(2000)),
            ("fault_limit".into(), Json::num(16)),
        ]);
        let verdict = engine.submit_json(&request);
        assert_eq!(
            verdict.get("ok").and_then(Json::as_bool),
            Some(true),
            "{kind}: {verdict}"
        );
    }
    let records = engine.drain();
    assert_eq!(records.len(), 7);
    for record in records {
        assert_eq!(record.status, JobStatus::Completed, "kind {}", record.kind);
        assert_eq!(record.retries, 1, "kind {}: leg 0 was killed", record.kind);
        assert_eq!(
            record.result.get("complete").and_then(Json::as_bool),
            Some(true),
            "kind {}: {}",
            record.kind,
            record.result
        );
    }
}

/// The 5-input domino cell `a*b*c + d*e`: 19 faults.
const CELL: &str = "TECHNOLOGY domino-CMOS; INPUT a,b,c,d,e; OUTPUT z; z := a*b*c + d*e;";

fn job_request(kind: &str, format: &str, netlist: &str) -> Json {
    Json::Obj(vec![
        ("kind".into(), Json::str(kind)),
        ("format".into(), Json::str(format)),
        ("netlist".into(), Json::str(netlist.to_owned())),
        ("seed".into(), Json::num(7u64)),
    ])
}

/// `detect`, `length` and `testability` finish under an already-expired
/// leg slice: every leg commits at least one fault (and a `length` leg
/// that starts at the search finishes it), and the result is
/// byte-identical to an unsliced engine's.
#[test]
fn estimate_jobs_finish_under_an_expired_leg_slice() {
    let bench = ripple_adder_bench_text(3);
    for (format, netlist) in [("cell", CELL), ("bench", bench.as_str())] {
        for kind in ["detect", "length", "testability"] {
            let request = job_request(kind, format, netlist);
            let run = |leg_ms: Option<u64>| {
                let mut engine = JobEngine::new(EngineConfig {
                    leg_ms,
                    max_legs: 1_000,
                    ..test_config()
                });
                submit_ok(&mut engine, &request.to_string());
                engine.run_next().expect("queued")
            };
            let unsliced = run(None);
            let sliced = run(Some(0));
            assert_eq!(
                sliced.status,
                JobStatus::Completed,
                "{kind} on {format}: {:?}",
                sliced.error
            );
            assert!(sliced.legs > 1, "{kind} on {format}: one leg");
            assert_eq!(
                sliced.result.to_string(),
                unsliced.result.to_string(),
                "{kind} on {format}: sliced result differs"
            );
        }
    }
}

/// An `optimize` record cut before its first objective evaluation has
/// no lengths yet: they read null, never the `u64::MAX` sentinel.
#[test]
fn interrupted_optimize_writes_unknown_lengths_as_null() {
    let mut engine = JobEngine::new(EngineConfig {
        leg_ms: Some(0),
        max_legs: 3,
        ..test_config()
    });
    submit_ok(
        &mut engine,
        &job_request("optimize", "cell", CELL).to_string(),
    );
    let record = engine.run_next().expect("queued");
    assert_eq!(record.status, JobStatus::Failed, "{}", record.line);
    for key in ["uniform_length", "optimized_length"] {
        assert_eq!(record.result.get(key), Some(&Json::Null), "{}", record.line);
    }
    // The sentinel as the JSON writer prints it.
    assert!(
        !record.line.contains("18446744073709552000"),
        "{}",
        record.line
    );
}
