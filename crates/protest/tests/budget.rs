//! Budget/checkpoint differential tests: a kernel run interrupted by a
//! [`RunBudget`] and resumed from its checkpoint must be bit-identical
//! to the uninterrupted serial run — per-fault detection indices,
//! pattern counts, coverage curves, stream cursors, and Monte-Carlo
//! estimates — at every tested thread count and on both shard axes
//! (fault-sharded many-fault runs and pattern-sharded few-fault runs).

use dynmos_netlist::generate::ripple_adder;
use dynmos_protest::{
    chaos, mc_detection_probabilities, mc_detection_probabilities_budgeted, mc_detection_resume,
    mc_signal_probability, mc_signal_probability_budgeted, mc_signal_resume, stuck_fault_list,
    BudgetedEstimates, DetectionEngine, Estimate, EstimateMethod, FaultEntry, FaultPlan,
    FaultSimulator, McCheckpoint, Parallelism, PatternSource, RunBudget, RunStatus, StopReason,
    TestabilityConfig, TierMode,
};
use std::sync::Arc;
use std::time::Duration;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const SEED: u64 = 0xFACE;
const PATTERN_BUDGET: u64 = 5000;

/// Budget-interrupted-then-resumed fault simulation on the ISCAS-scale
/// adder, across both shard axes (1 fault = pattern axis, 500 faults =
/// fault axis) — the acceptance criterion of the budget subsystem.
#[test]
fn interrupted_fsim_resumes_bit_identical_to_serial() {
    let net = ripple_adder(80); // 400 gates
    let all = stuck_fault_list(&net);
    let n = net.primary_inputs().len();
    // Heavily biased weights keep hard-fault tails live deep into the
    // budget, so resumed legs do real work over their whole ranges.
    let probs = vec![0.0625f64; n];
    // Fault 180 survives all 5000 patterns under these weights, so the
    // single-fault (pattern-axis) run cannot finish by early coverage
    // exit before the per-leg cap interrupts it.
    let cases: [Vec<FaultEntry>; 2] = [
        vec![all[180].clone()],
        all.iter().take(500).cloned().collect(),
    ];
    for faults in cases {
        let fault_count = faults.len();
        let mut serial_src = PatternSource::new(SEED, probs.clone());
        let serial = FaultSimulator::with_parallelism(&net, Parallelism::Serial).run_random(
            &faults,
            &mut serial_src,
            PATTERN_BUDGET,
        );
        for threads in THREAD_COUNTS {
            // Each leg is capped at 1024 patterns, forcing repeated
            // PatternCap interrupts before the 5000-pattern run ends.
            let leg = || RunBudget::unlimited().with_max_patterns(1024);
            let mut src = PatternSource::new(SEED, probs.clone());
            let sim = FaultSimulator::with_parallelism(&net, Parallelism::Fixed(threads));
            let mut run = sim.run_random_budgeted(&faults, &mut src, PATTERN_BUDGET, &leg());
            let mut legs = 1usize;
            while let Some(cp) = run.checkpoint.take() {
                assert_eq!(
                    run.status,
                    RunStatus::Interrupted(StopReason::PatternCap),
                    "{fault_count} faults, {threads} threads, leg {legs}"
                );
                // Partial outcomes are valid: never more patterns than
                // the cap allows, detections a prefix of the final set.
                assert!(run.outcome.patterns_applied <= legs as u64 * 1024);
                run = sim.resume_random(&faults, &mut src, cp, &leg());
                legs += 1;
            }
            assert!(
                legs > 1,
                "{fault_count} faults, {threads} threads: expected interrupts"
            );
            assert!(run.status.is_complete());
            assert_eq!(
                run.outcome.detected_at, serial.detected_at,
                "{fault_count} faults: detection indices differ at {threads} threads"
            );
            assert_eq!(
                run.outcome.patterns_applied, serial.patterns_applied,
                "{fault_count} faults: pattern counts differ at {threads} threads"
            );
            assert_eq!(
                run.outcome.coverage_curve, serial.coverage_curve,
                "{fault_count} faults: coverage curves differ at {threads} threads"
            );
            assert_eq!(
                src.position(),
                serial_src.position(),
                "{fault_count} faults: stream cursors differ at {threads} threads"
            );
        }
    }
}

/// The always-expired deadline is the adversarial resume loop: every
/// leg stops at its first chunk boundary, and forward progress is the
/// only thing driving the run to completion.
#[test]
fn expired_deadline_legs_still_complete_and_match_serial() {
    let net = ripple_adder(24);
    let faults = stuck_fault_list(&net);
    let n = net.primary_inputs().len();
    let probs = vec![0.25f64; n];
    let mut serial_src = PatternSource::new(7, probs.clone());
    let serial = FaultSimulator::with_parallelism(&net, Parallelism::Serial).run_random(
        &faults,
        &mut serial_src,
        4096,
    );
    let leg = || RunBudget::deadline_in(Duration::ZERO);
    let mut src = PatternSource::new(7, probs.clone());
    let sim = FaultSimulator::with_parallelism(&net, Parallelism::Fixed(2));
    let mut run = sim.run_random_budgeted(&faults, &mut src, 4096, &leg());
    let mut legs = 1usize;
    while let Some(cp) = run.checkpoint.take() {
        run = sim.resume_random(&faults, &mut src, cp, &leg());
        legs += 1;
        assert!(legs < 10_000, "no forward progress under expired deadline");
    }
    assert!(run.status.is_complete());
    assert_eq!(run.outcome.detected_at, serial.detected_at);
    assert_eq!(run.outcome.patterns_applied, serial.patterns_applied);
    assert_eq!(run.outcome.coverage_curve, serial.coverage_curve);
    assert_eq!(src.position(), serial_src.position());
}

/// Budget-interrupted-then-resumed Monte-Carlo detection estimation,
/// across both shard axes (1 fault = pass axis, 24 faults = fault
/// axis).
#[test]
fn interrupted_mc_detection_resumes_bit_identical() {
    let net = ripple_adder(24);
    let all = stuck_fault_list(&net);
    let n = net.primary_inputs().len();
    let probs: Vec<f64> = (0..n).map(|i| [0.9375, 0.5, 0.25][i % 3]).collect();
    let samples = 9_999u64;
    for fault_count in [1usize, 24] {
        let faults: Vec<FaultEntry> = all.iter().take(fault_count).cloned().collect();
        let serial = mc_detection_probabilities(&net, &faults, &probs, 42, samples);
        for threads in THREAD_COUNTS {
            let par = Parallelism::Fixed(threads);
            // 2048 samples per leg: five legs to finish 9 999.
            let leg = || RunBudget::unlimited().with_max_patterns(2048);
            let mut run = mc_detection_probabilities_budgeted(
                &net,
                &faults,
                &probs,
                42,
                samples,
                par,
                &leg(),
            );
            let mut legs = 1usize;
            while let Some(cp) = run.checkpoint.take() {
                assert_eq!(run.status, RunStatus::Interrupted(StopReason::PatternCap));
                run = mc_detection_resume(&net, &faults, &probs, 42, par, &leg(), cp);
                legs += 1;
            }
            assert!(legs > 1, "{fault_count} faults at {threads} threads");
            assert!(run.status.is_complete());
            assert_eq!(
                run.estimates, serial,
                "{fault_count} faults: estimates differ at {threads} threads"
            );
        }
    }
}

/// Budget-interrupted-then-resumed Monte-Carlo signal estimation.
#[test]
fn interrupted_mc_signal_resumes_bit_identical() {
    let net = ripple_adder(24);
    let n = net.primary_inputs().len();
    let probs: Vec<f64> = (0..n).map(|i| [0.75, 0.5][i % 2]).collect();
    let po = net.primary_outputs()[0];
    let serial = mc_signal_probability(&net, po, &probs, 99, 7_777);
    for threads in THREAD_COUNTS {
        let par = Parallelism::Fixed(threads);
        let leg = || RunBudget::unlimited().with_max_patterns(2048);
        let mut run = mc_signal_probability_budgeted(&net, po, &probs, 99, 7_777, par, &leg());
        let mut legs = 1usize;
        while let Some(cp) = run.checkpoint.take() {
            run = mc_signal_resume(&net, po, &probs, 99, par, &leg(), cp);
            legs += 1;
        }
        assert!(legs > 1, "threads={threads}");
        assert!(run.status.is_complete());
        assert_eq!(run.estimates, [serial], "threads={threads}");
    }
}

/// The Monte Carlo half of the worker-failure test: `leg(None)` starts
/// a run capped at 2048 samples per leg, `leg(Some(cp))` resumes one.
/// Leg 1 merges cleanly; leg 2 runs under persistently panicking
/// workers and must stop with `WorkerFailed` at the leg-1 boundary; a
/// healthy resume loop from there must equal `serial` bit for bit.
fn mc_worker_failure_keeps_merged_hits(
    what: &str,
    leg: impl Fn(Option<McCheckpoint>) -> BudgetedEstimates,
    serial: &[Estimate],
) {
    let inert = Arc::new(FaultPlan::new(0));
    let run = chaos::scoped(inert.clone(), || leg(None));
    assert_eq!(
        run.status,
        RunStatus::Interrupted(StopReason::PatternCap),
        "{what}"
    );
    assert!(run.worker_error.is_none(), "{what}");
    let cp = run.checkpoint.expect("leg 1 checkpoint");
    assert_eq!(cp.samples_done(), 2048, "{what}");
    let merged = cp.to_json();

    let hostile = Arc::new(FaultPlan::new(3).worker_panic_persistent(1.0));
    let run = chaos::scoped(hostile, || leg(Some(cp)));
    assert_eq!(
        run.status,
        RunStatus::Interrupted(StopReason::WorkerFailed),
        "{what}"
    );
    let err = run.worker_error.expect("shard error travels with the stop");
    assert!(
        err.to_string().contains("injected persistent worker panic"),
        "{what}: unexpected shard error: {err}"
    );
    let cp = run.checkpoint.expect("checkpoint survives the failure");
    assert_eq!(
        cp.samples_done(),
        2048,
        "{what}: failed chunk must not advance the checkpoint"
    );
    assert_eq!(cp.to_json(), merged, "{what}: failed chunk merged hits");

    let run = chaos::scoped(inert, || {
        let mut run = leg(Some(cp));
        while let Some(cp) = run.checkpoint.take() {
            run = leg(Some(cp));
        }
        run
    });
    assert!(run.status.is_complete(), "{what}");
    assert!(run.worker_error.is_none(), "{what}");
    assert_eq!(run.estimates, serial, "{what}");
}

/// A worker that panics on both the sharded attempt and the serial
/// retry must surface as `Interrupted(WorkerFailed)` with the
/// [`dynmos_protest::ShardError`] attached — without losing coverage
/// already merged from earlier chunks: the checkpoint stays at the last
/// merged boundary, and a healthy resume from it finishes bit-identical
/// to the uninterrupted serial run. Covered for fault simulation, Monte
/// Carlo detection (fault axis) and Monte Carlo signal estimation
/// (pattern axis).
#[test]
fn double_panicking_worker_surfaces_error_and_keeps_merged_coverage() {
    let net = ripple_adder(80);
    let faults: Vec<FaultEntry> = stuck_fault_list(&net).into_iter().take(500).collect();
    let n = net.primary_inputs().len();
    let probs = vec![0.0625f64; n];
    let mut serial_src = PatternSource::new(SEED, probs.clone());
    let serial = FaultSimulator::with_parallelism(&net, Parallelism::Serial).run_random(
        &faults,
        &mut serial_src,
        PATTERN_BUDGET,
    );
    let sim = FaultSimulator::with_parallelism(&net, Parallelism::Fixed(2));
    let leg = || RunBudget::unlimited().with_max_patterns(1024);

    // Leg 1 under an inert plan: a clean 1024-pattern chunk merges.
    let inert = Arc::new(FaultPlan::new(0));
    let mut src = PatternSource::new(SEED, probs.clone());
    let run = chaos::scoped(inert.clone(), || {
        sim.run_random_budgeted(&faults, &mut src, PATTERN_BUDGET, &leg())
    });
    assert_eq!(run.status, RunStatus::Interrupted(StopReason::PatternCap));
    assert!(run.worker_error.is_none());
    let cp = run.checkpoint.expect("leg 1 checkpoint");
    let merged_patterns = cp.patterns_done();
    let merged_detected = cp.detected_count();
    assert_eq!(merged_patterns, 1024);

    // Leg 2 under a plan whose workers panic on the sharded attempt
    // AND the serial retry: the leg must stop with WorkerFailed, keep
    // the error, and keep the checkpoint at the leg-1 boundary (the
    // failed chunk is not merged).
    let hostile = Arc::new(FaultPlan::new(3).worker_panic_persistent(1.0));
    let run = chaos::scoped(hostile, || sim.resume_random(&faults, &mut src, cp, &leg()));
    assert_eq!(run.status, RunStatus::Interrupted(StopReason::WorkerFailed));
    let err = run.worker_error.expect("shard error travels with the stop");
    assert!(
        err.to_string().contains("injected persistent worker panic"),
        "unexpected shard error: {err}"
    );
    let cp = run.checkpoint.expect("checkpoint survives the failure");
    assert_eq!(
        cp.patterns_done(),
        merged_patterns,
        "failed chunk must not advance the checkpoint"
    );
    assert_eq!(
        cp.detected_count(),
        merged_detected,
        "already-merged coverage lost by the failed leg"
    );

    // Healthy resume loop from that same checkpoint: bit-identical to
    // the uninterrupted serial run. The stream is rebuilt because the
    // failed leg consumed source batches for the unmerged chunk;
    // checkpoint batch addressing is absolute, so only seed and
    // weights matter.
    let mut src = PatternSource::new(SEED, probs.clone());
    let run = chaos::scoped(inert, || {
        let mut run = sim.resume_random(&faults, &mut src, cp, &leg());
        while let Some(cp) = run.checkpoint.take() {
            run = sim.resume_random(&faults, &mut src, cp, &leg());
        }
        run
    });
    assert!(run.status.is_complete());
    assert!(run.worker_error.is_none());
    assert_eq!(run.outcome.detected_at, serial.detected_at);
    assert_eq!(run.outcome.patterns_applied, serial.patterns_applied);
    assert_eq!(run.outcome.coverage_curve, serial.coverage_curve);

    // Monte Carlo on a smaller adder, two threads, 2048 samples per leg.
    let net = ripple_adder(24);
    let n = net.primary_inputs().len();
    let probs: Vec<f64> = (0..n).map(|i| [0.9375, 0.5, 0.25][i % 3]).collect();
    let par = Parallelism::Fixed(2);
    let cap = || RunBudget::unlimited().with_max_patterns(2048);
    let unlimited = RunBudget::unlimited();

    // mc-detect: 24 faults feed both workers, so the fault axis is cut.
    let faults: Vec<FaultEntry> = stuck_fault_list(&net).into_iter().take(24).collect();
    let serial = mc_detection_probabilities_budgeted(
        &net,
        &faults,
        &probs,
        42,
        9_999,
        Parallelism::Serial,
        &unlimited,
    );
    mc_worker_failure_keeps_merged_hits(
        "mc-detect",
        |from| match from {
            None => {
                mc_detection_probabilities_budgeted(&net, &faults, &probs, 42, 9_999, par, &cap())
            }
            Some(cp) => mc_detection_resume(&net, &faults, &probs, 42, par, &cap(), cp),
        },
        &serial.estimates,
    );

    // mc-signal: one target, so the pass axis is cut.
    let po = net.primary_outputs()[0];
    let serial = mc_signal_probability_budgeted(
        &net,
        po,
        &probs,
        99,
        9_999,
        Parallelism::Serial,
        &unlimited,
    );
    mc_worker_failure_keeps_merged_hits(
        "mc-signal",
        |from| match from {
            None => mc_signal_probability_budgeted(&net, po, &probs, 99, 9_999, par, &cap()),
            Some(cp) => mc_signal_resume(&net, po, &probs, 99, par, &cap(), cp),
        },
        &serial.estimates,
    );
}

/// The over-cap degradation rule through the public estimator: within
/// the row cap the values are the exact enumeration's; over it the
/// tiered engine drops to the symbolic BDD tier — still exact, zero
/// standard error — instead of refusing (the adder has 49 inputs — the
/// old exact path would have asserted).
#[test]
fn estimator_degrades_exactly_at_the_row_cap() {
    let net = ripple_adder(24); // 49 inputs: over any exact cap
    let faults: Vec<FaultEntry> = stuck_fault_list(&net).into_iter().take(8).collect();
    let n = net.primary_inputs().len();
    let probs = vec![0.5f64; n];
    let est = DetectionEngine::new(
        &net,
        &faults,
        TestabilityConfig::new(TierMode::Auto).with_seed(0xBEEF),
    )
    .with_parallelism(Parallelism::Fixed(2))
    .estimates(&probs, &RunBudget::unlimited().with_max_exact_rows(1 << 12))
    .expect("completes");
    assert!(est.iter().all(|e| e.method == EstimateMethod::Bdd));
    assert!(est.iter().all(|e| e.std_error == 0.0));
    assert!(est.iter().any(|e| e.value > 0.0));
}
