//! Crash-durability tests: checkpoint serialization round-trips
//! (property-based), journal fixture recovery (torn tails, truncation
//! at every byte, interior corruption), engine-level recovery replay,
//! and the backoff-vs-deadline clamp.
//!
//! The full kill-the-process story (chaos-crash aborts and `SIGKILL`
//! mid-job, restart, byte-identical results) lives in the workspace
//! `tests/serve.rs` — it needs a child process to murder.

use dynmos_atpg::AtpgCheckpoint;
use dynmos_netlist::generate::ripple_adder_bench_text;
use dynmos_protest::service::{
    build_builtin, JobContext, JobKernel, Journal, NetlistFormat, NetworkCache, JOURNAL_FILE,
};
use dynmos_protest::{
    BackoffPolicy, EngineConfig, FaultPlan, FsimCheckpoint, JobEngine, JobStatus, Json,
    McCheckpoint, Parallelism, RunBudget, RunStatus,
};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fresh scratch directory under the system temp dir, unique per
/// test (the suite runs tests concurrently).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dynmos-jtest-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

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

fn fsim_request(patterns: u64) -> Json {
    Json::Obj(vec![
        ("kind".into(), Json::str("fsim")),
        ("format".into(), Json::str("bench")),
        ("netlist".into(), Json::str(ripple_adder_bench_text(3))),
        ("patterns".into(), Json::num(patterns)),
        ("fault_limit".into(), Json::num(64)),
        ("seed".into(), Json::num(11u64)),
    ])
}

/// Like [`fsim_request`] but with extremely biased input weights
/// (p = 2^-16 per input, 7 inputs in the 3-bit adder): the
/// stuck-at-0 slice stays undetected past any pattern budget used
/// here, so runs always exhaust their full budget over many legs
/// instead of early-exiting on full coverage.
fn hard_fsim_request(patterns: u64) -> Json {
    let mut request = fsim_request(patterns);
    if let Json::Obj(members) = &mut request {
        members.push(("probs".into(), Json::Arr(vec![Json::Num(1.0 / 65536.0); 7])));
    }
    request
}

// ---------------------------------------------------------------------
// Checkpoint serialization round-trips (property-based).
//
// The fields of the checkpoint types are deliberately private, so the
// properties drive both directions through the canonical JSON form:
// `to_json(from_json(j)) == j` on a canonically constructed `j`, plus
// a text round-trip through the emitter/parser — exactly the path a
// journal line takes.
// ---------------------------------------------------------------------

/// Asserts `from_json` → `to_json` is the identity on `j`, and that
/// the emitted text reparses to the same value.
fn assert_json_roundtrip<T>(
    j: &Json,
    from: impl Fn(&Json) -> Result<T, String>,
    to: impl Fn(&T) -> Json,
) -> Result<(), String> {
    let value = from(j).map_err(|e| format!("from_json failed: {e} on {j}"))?;
    let back = to(&value);
    if &back != j {
        return Err(format!("to_json mismatch: {back} vs {j}"));
    }
    let reparsed = Json::parse(&back.to_string()).map_err(|e| format!("reparse failed: {e}"))?;
    if reparsed != back {
        return Err(format!("text round-trip mismatch: {reparsed} vs {back}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `FsimCheckpoint`: integers plus a detection vector mixing
    /// `Some(pattern_index)` and `None`.
    #[test]
    fn fsim_checkpoint_roundtrips(
        start in 0u64..1 << 40,
        batches in 0u64..1 << 20,
        maxp in 0u64..1 << 40,
        values in prop::collection::vec(0u64..1 << 30, 0..24),
        mask in 0u64..u64::MAX,
    ) {
        let detected: Vec<Json> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| if (mask >> (i % 64)) & 1 == 1 { Json::num(v) } else { Json::Null })
            .collect();
        let j = Json::Obj(vec![
            ("kind".into(), Json::str("fsim")),
            ("start".into(), Json::num(start)),
            ("batches_done".into(), Json::num(batches)),
            ("max_patterns".into(), Json::num(maxp)),
            ("detected_at".into(), Json::Arr(detected)),
        ]);
        assert_json_roundtrip(&j, FsimCheckpoint::from_json, FsimCheckpoint::to_json)
            .map_err(|e| e.to_string())?;
    }

    /// `McCheckpoint`: pass counter, sample budget, per-fault hits.
    #[test]
    fn mc_checkpoint_roundtrips(
        passes in 0u64..1 << 30,
        samples in 0u64..1 << 40,
        hits in prop::collection::vec(0u64..1 << 40, 0..24),
    ) {
        let j = Json::Obj(vec![
            ("kind".into(), Json::str("mc")),
            ("passes_done".into(), Json::num(passes)),
            ("samples".into(), Json::num(samples)),
            ("hits".into(), Json::Arr(hits.iter().map(|&h| Json::num(h)).collect())),
        ]);
        assert_json_roundtrip(&j, McCheckpoint::from_json, McCheckpoint::to_json)
            .map_err(|e| e.to_string())?;
    }

    /// `AtpgCheckpoint`: fault cursor, coverage booleans, tests as
    /// '0'/'1' bit strings, redundant/aborted label lists.
    #[test]
    fn atpg_checkpoint_roundtrips(
        next in 0u64..1 << 20,
        cover_mask in 0u64..u64::MAX,
        cover_len in 0usize..24,
        tests in prop::collection::vec(0u64..256, 0..8),
        labels in prop::collection::vec(0u64..1000, 0..6),
    ) {
        let covered: Vec<Json> = (0..cover_len)
            .map(|i| Json::Bool((cover_mask >> (i % 64)) & 1 == 1))
            .collect();
        let bits = |v: u64| Json::str((0..8).map(|b| if (v >> b) & 1 == 1 { '1' } else { '0' }).collect::<String>());
        let label_arr = |off: u64| {
            Json::Arr(labels.iter().map(|&l| Json::str(format!("f{}", l + off))).collect())
        };
        let j = Json::Obj(vec![
            ("kind".into(), Json::str("atpg")),
            ("next_fault".into(), Json::num(next)),
            ("covered".into(), Json::Arr(covered)),
            ("tests".into(), Json::Arr(tests.iter().map(|&t| bits(t)).collect())),
            ("redundant".into(), label_arr(0)),
            ("aborted".into(), label_arr(7)),
        ]);
        assert_json_roundtrip(&j, AtpgCheckpoint::from_json, AtpgCheckpoint::to_json)
            .map_err(|e| e.to_string())?;
    }

    /// A live kernel snapshot survives the full wire path: snapshot →
    /// text → parse → restore on a fresh kernel, which then finishes
    /// bit-identical to an undisturbed kernel.
    #[test]
    fn fsim_snapshot_restore_is_bit_identical(legs_before in 1u64..4, leg_patterns in 64u64..512) {
        let params = hard_fsim_request(4096);
        let mut cache = NetworkCache::new(0);
        let bench = ripple_adder_bench_text(3);
        let net = cache.get_or_compile(NetlistFormat::Bench, &bench, None).unwrap();
        let mut faults = dynmos_protest::stuck_fault_list(&net);
        faults.truncate(64);
        let ctx = || JobContext {
            net: net.clone(),
            faults: faults.clone(),
            parallelism: Parallelism::Fixed(2),
            params: &params,
        };
        let leg = RunBudget::unlimited().with_max_patterns(leg_patterns);
        let run_to_end = |k: &mut Box<dyn JobKernel>| {
            for _ in 0..10_000 {
                if matches!(k.run_leg(&leg), RunStatus::Completed) {
                    return;
                }
            }
            panic!("kernel did not complete");
        };

        // Interrupt a kernel after a few legs and ship its snapshot
        // through the journal's text encoding; the biased weights
        // guarantee the kernel is still mid-run when snapshotted.
        let mut k1 = build_builtin("fsim", ctx()).unwrap().unwrap();
        for _ in 0..legs_before {
            let status = k1.run_leg(&leg);
            prop_assert!(
                !matches!(status, RunStatus::Completed),
                "hard request completed early"
            );
        }
        let snapshot = Json::parse(&k1.snapshot().to_string()).unwrap();

        let mut resumed = build_builtin("fsim", ctx()).unwrap().unwrap();
        resumed.restore(&snapshot).map_err(|e| e.to_string())?;
        run_to_end(&mut resumed);

        let mut reference = build_builtin("fsim", ctx()).unwrap().unwrap();
        run_to_end(&mut reference);

        prop_assert_eq!(resumed.output().to_string(), reference.output().to_string());
    }
}

// ---------------------------------------------------------------------
// Journal fixtures: truncation and corruption.
// ---------------------------------------------------------------------

const FIXTURE: &str = concat!(
    "{\"t\":\"open\",\"gen\":1}\n",
    "{\"t\":\"admit\",\"id\":1,\"request\":{\"kind\":\"fsim\",\"patterns\":64}}\n",
    "{\"t\":\"leg\",\"id\":1,\"legs\":1,\"retries\":0,\"snapshot\":{\"started\":true,\"checkpoint\":null}}\n",
    "{\"t\":\"admit\",\"id\":2,\"request\":{\"kind\":\"mc_detect\"}}\n",
    "{\"t\":\"done\",\"id\":1,\"record\":{\"ok\":true,\"id\":1}}\n",
);

/// Cutting the journal at *every* byte boundary — the space of states a
/// crash mid-append can leave behind — must never panic and never lose
/// a committed (newline-terminated) record.
#[test]
fn truncation_at_every_byte_recovers_committed_prefix() {
    let dir = scratch("truncate");
    fs::create_dir_all(&dir).unwrap();
    let bytes = FIXTURE.as_bytes();
    for cut in 0..=bytes.len() {
        fs::write(dir.join(JOURNAL_FILE), &bytes[..cut]).unwrap();
        let (journal, recovery) =
            Journal::open(&dir, None).unwrap_or_else(|e| panic!("cut at {cut} refused: {e}"));
        drop(journal);
        let committed = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
        // Committed lines must all have been applied: spot-check the
        // milestones of the fixture.
        if committed >= 2 {
            assert!(
                recovery.max_id >= 1,
                "cut {cut}: admit 1 lost ({committed} lines committed)"
            );
        }
        if committed >= 5 {
            assert_eq!(recovery.terminal.len(), 1, "cut {cut}: done record lost");
            assert_eq!(recovery.jobs.len(), 1, "cut {cut}");
            assert_eq!(recovery.jobs[0].id, 2, "cut {cut}");
        }
        // A torn tail can only come from a cut strictly inside a line
        // (a cut that lands exactly at end-of-content parses whole and
        // is legitimately accepted).
        if recovery.torn_tail {
            assert!(cut > 0 && bytes[cut - 1] != b'\n', "cut {cut}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Corrupting any *interior* byte of a committed record must be refused
/// loudly (never a panic, never silent data loss).
#[test]
fn interior_corruption_is_refused_loudly() {
    let dir = scratch("corrupt");
    fs::create_dir_all(&dir).unwrap();
    // Smash each line in turn (except the final one, whose corruption
    // is indistinguishable from a torn tail and is dropped instead).
    let lines: Vec<&str> = FIXTURE.lines().collect();
    for smash in 0..lines.len() - 1 {
        let mut text = String::new();
        for (i, line) in lines.iter().enumerate() {
            if i == smash {
                text.push_str("{\"t\":\"admit\",\"id\":GARBAGE}\n");
            } else {
                text.push_str(line);
                text.push('\n');
            }
        }
        fs::write(dir.join(JOURNAL_FILE), &text).unwrap();
        let err = match Journal::open(&dir, None) {
            Err(e) => e,
            Ok(_) => panic!("corrupt line {smash} accepted"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "line {smash}");
    }
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Engine-level recovery.
// ---------------------------------------------------------------------

/// Finished records reload from the journal and replay byte-identical
/// through the `results` op, across any number of reopens.
#[test]
fn finished_records_replay_byte_identically() {
    let dir = scratch("replay");
    let mut engine = JobEngine::new(test_config());
    engine.attach_journal(&dir).unwrap();
    let v = engine.submit_json(&fsim_request(512));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
    let v = engine.submit_json(&fsim_request(2048));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
    let records = engine.drain();
    assert_eq!(records.len(), 2);
    assert!(records.iter().all(|r| r.status == JobStatus::Completed));
    let reference = engine.results_json().to_string();
    drop(engine);

    for generation in 2..4 {
        let mut engine = JobEngine::new(test_config());
        let summary = engine.attach_journal(&dir).unwrap();
        assert_eq!(
            summary.get("generation").and_then(Json::as_u64),
            Some(generation)
        );
        assert_eq!(summary.get("finished").and_then(Json::as_u64), Some(2));
        assert_eq!(summary.get("resumed").and_then(Json::as_u64), Some(0));
        assert_eq!(engine.pending(), 0, "finished jobs must not requeue");
        assert_eq!(engine.results_json().to_string(), reference);
        drop(engine);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A job admitted but never run survives the restart: the new session
/// requeues it under its original id and produces the same record an
/// undisturbed engine would have.
#[test]
fn admitted_jobs_requeue_and_match_undisturbed_run() {
    let dir = scratch("requeue");
    let mut journaled = JobEngine::new(test_config());
    journaled.attach_journal(&dir).unwrap();
    journaled.submit_json(&fsim_request(1024));
    drop(journaled); // killed before ever running the job

    let mut recovered = JobEngine::new(test_config());
    let summary = recovered.attach_journal(&dir).unwrap();
    assert_eq!(summary.get("resumed").and_then(Json::as_u64), Some(1));
    assert_eq!(recovered.pending(), 1);
    let record = recovered.run_next().expect("requeued job runs");

    let mut undisturbed = JobEngine::new(test_config());
    undisturbed.submit_json(&fsim_request(1024));
    let reference = undisturbed.run_next().expect("reference runs");

    assert_eq!(
        record.to_json().to_string(),
        reference.to_json().to_string()
    );
    let _ = fs::remove_dir_all(&dir);
}

/// An interrupted job resumes from its journaled leg snapshot: a
/// leg-sliced engine whose journal is handed (mid-flight) to a second
/// engine finishes with the result an undisturbed run produces.
#[test]
fn leg_snapshots_resume_mid_job() {
    // Same leg slicing as the journaled session: the record's legs
    // counter is part of the byte-compared payload.
    let undisturbed = {
        let mut engine = JobEngine::new(EngineConfig {
            leg_patterns: Some(256),
            ..test_config()
        });
        engine.submit_json(&hard_fsim_request(4096));
        engine.run_next().expect("reference").to_json().to_string()
    };

    // Run the journaled session with deterministic leg slicing, then
    // snapshot the journal file right after a mid-job leg record by
    // replaying a truncated copy into a second engine — equivalent to
    // the process dying between two legs.
    let dir = scratch("resume");
    let mut engine = JobEngine::new(EngineConfig {
        leg_patterns: Some(256),
        ..test_config()
    });
    engine.attach_journal(&dir).unwrap();
    engine.submit_json(&hard_fsim_request(4096));
    let full_record = engine.run_next().expect("journaled run");
    assert!(full_record.legs > 2, "leg slicing produced one leg");
    drop(engine);

    let text = fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
    let mid: Vec<&str> = text
        .lines()
        .take_while(|l| !l.contains("\"t\":\"done\""))
        .collect();
    assert!(
        mid.iter().any(|l| l.contains("\"t\":\"leg\"")),
        "no leg records journaled: {text}"
    );
    let crash_dir = scratch("resume-crash");
    fs::create_dir_all(&crash_dir).unwrap();
    fs::write(
        crash_dir.join(JOURNAL_FILE),
        format!("{}\n", mid.join("\n")),
    )
    .unwrap();

    let mut resumed = JobEngine::new(EngineConfig {
        leg_patterns: Some(256),
        ..test_config()
    });
    let summary = resumed.attach_journal(&crash_dir).unwrap();
    assert_eq!(summary.get("resumed").and_then(Json::as_u64), Some(1));
    let record = resumed.run_next().expect("resumed job runs");
    assert_eq!(record.to_json().to_string(), undisturbed);
    // And the resumed session's journal now carries the terminal
    // record: one more reopen replays it without rerunning anything.
    drop(resumed);
    let mut replay = JobEngine::new(test_config());
    replay.attach_journal(&crash_dir).unwrap();
    assert_eq!(replay.pending(), 0);

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&crash_dir);
}

// ---------------------------------------------------------------------
// Backoff-vs-deadline clamp.
// ---------------------------------------------------------------------

/// A failing job whose retry backoff would overshoot its deadline must
/// come back as a clean `DeadlineExceeded` at the deadline — not sleep
/// the full backoff first.
#[test]
fn backoff_is_clamped_to_the_deadline() {
    let mut engine = JobEngine::new(EngineConfig {
        backoff: BackoffPolicy {
            base_ms: 60_000,
            cap_ms: 60_000,
            seed: 0,
        },
        max_retries: 10,
        // Every leg dies: only backoff stands between retry attempts.
        fault_plan: Some(Arc::new(FaultPlan::new(7).leg_kill(1.0))),
        parallelism: Parallelism::Fixed(2),
        ..EngineConfig::default()
    });
    let mut request = fsim_request(512);
    if let Json::Obj(members) = &mut request {
        members.push(("timeout_ms".into(), Json::num(150u64)));
    }
    let v = engine.submit_json(&request);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
    let started = Instant::now();
    let record = engine.run_next().expect("job runs");
    let elapsed = started.elapsed();
    assert_eq!(
        record.status,
        JobStatus::DeadlineExceeded,
        "{:?}",
        record.status
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "backoff not clamped: slept {elapsed:?} against a 150ms deadline"
    );
}

/// A journal written by an earlier build still recovers: the fixture
/// holds one mid-job leg record for each checkpointed kind (`fsim`,
/// `mc-detect`, `mc-signal`, `atpg`, `testability`), captured from a
/// `faultlib serve --leg-ms 0 --leg-patterns 256` session on a 5-input
/// domino cell with its `done` records cut off. Resuming must finish
/// with the `results` payload that session printed uninterrupted.
#[test]
fn journal_from_earlier_build_resumes_byte_identically() {
    let dir = scratch("earlier-build");
    fs::create_dir_all(&dir).unwrap();
    fs::write(
        dir.join(JOURNAL_FILE),
        include_str!("fixtures/journal_mid_jobs.jsonl"),
    )
    .unwrap();
    // The capture session's engine: every leg runs one chunk (or one
    // target fault) under an already-expired slice, on two threads.
    let mut engine = JobEngine::new(EngineConfig {
        leg_ms: Some(0),
        leg_patterns: Some(256),
        ..test_config()
    });
    dynmos_atpg::register_atpg(&mut engine);
    let summary = engine.attach_journal(&dir).unwrap();
    assert_eq!(summary.get("resumed").and_then(Json::as_u64), Some(5));
    let records = engine.drain();
    assert!(records.iter().all(|r| r.status == JobStatus::Completed));
    assert_eq!(
        engine.results_json().to_string(),
        include_str!("fixtures/journal_mid_jobs.results.json").trim_end()
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A journaled checkpoint that parses but does not fit the job (a Monte
/// Carlo hit vector for 1 fault on a 64-fault list) makes every resumed
/// leg panic. The job must keep its checkpoint across those deaths and
/// end `failed`, never report a `completed` record it did not compute.
#[test]
fn mismatched_checkpoint_fails_instead_of_completing() {
    let mut request = fsim_request(0);
    if let Json::Obj(members) = &mut request {
        members.retain(|(k, _)| k != "kind" && k != "patterns");
        members.push(("kind".into(), Json::str("mc-detect")));
        members.push(("samples".into(), Json::num(4096u64)));
    }
    let journal = format!(
        "{{\"t\":\"open\",\"gen\":1}}\n\
         {{\"t\":\"admit\",\"id\":1,\"request\":{request}}}\n\
         {{\"t\":\"leg\",\"id\":1,\"legs\":1,\"retries\":0,\"snapshot\":\
         {{\"started\":true,\"checkpoint\":\
         {{\"kind\":\"mc\",\"passes_done\":1,\"samples\":4096,\"hits\":[1]}}}}}}\n"
    );
    let dir = scratch("mismatched-checkpoint");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(JOURNAL_FILE), journal).unwrap();
    let mut engine = JobEngine::new(test_config());
    engine.attach_journal(&dir).unwrap();
    let record = engine.run_next().expect("requeued job runs");
    assert_eq!(record.status, JobStatus::Failed, "{}", record.to_json());
    assert_eq!(
        record.result.get("complete").and_then(Json::as_bool),
        Some(false)
    );
    let _ = fs::remove_dir_all(&dir);
}
