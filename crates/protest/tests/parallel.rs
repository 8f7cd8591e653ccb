//! Differential tests: every thread-sharded PROTEST path must be
//! bit-identical to its serial form for the same seed, at every tested
//! thread count, from paper-scale networks up to the ISCAS-class
//! generated circuits.

use dynmos_netlist::generate::{array_multiplier, random_domino_network, ripple_adder};
use dynmos_netlist::Network;
use dynmos_protest::{
    mc_detection_probabilities, mc_detection_probabilities_budgeted, mc_signal_probability,
    mc_signal_probability_budgeted, network_fault_list, stuck_fault_list, BudgetedEstimates,
    Estimate, FaultEntry, FaultSimulator, Parallelism, PatternSource, RunBudget,
};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The estimates of a budgeted Monte Carlo run that must have completed
/// (it ran under an unlimited budget).
fn completed(run: BudgetedEstimates) -> Vec<Estimate> {
    assert!(run.status.is_complete());
    run.estimates
}

/// The circuits under differential test: random multi-level domino
/// networks plus the large structured bipolar circuits.
fn corpus() -> Vec<(String, Network, Vec<FaultEntry>)> {
    let mut out = Vec::new();
    for seed in [3u64, 11, 29] {
        let net = random_domino_network(seed, 8, 30);
        let faults = network_fault_list(&net);
        out.push((format!("random{seed}"), net, faults));
    }
    let adder = ripple_adder(48); // 240 gates
    let faults = stuck_fault_list(&adder);
    out.push(("ripple_adder_48".into(), adder, faults));
    let mult = array_multiplier(6); // 164 gates
    let faults = stuck_fault_list(&mult);
    out.push(("array_mult_6".into(), mult, faults));
    out
}

#[test]
fn parallel_fsim_is_bit_identical_to_serial() {
    for (name, net, faults) in corpus() {
        let n = net.primary_inputs().len();
        let probs: Vec<f64> = (0..n).map(|i| [0.5, 0.25, 0.9375, 0.75][i % 4]).collect();
        let mut serial_src = PatternSource::new(0xDAC0 + n as u64, probs.clone());
        let serial = FaultSimulator::with_parallelism(&net, Parallelism::Serial).run_random(
            &faults,
            &mut serial_src,
            5000, // non-multiple of 64: exercises the tail mask
        );
        for threads in THREAD_COUNTS {
            let mut src = PatternSource::new(0xDAC0 + n as u64, probs.clone());
            let sim = FaultSimulator::with_parallelism(&net, Parallelism::Fixed(threads));
            let out = sim.run_random(&faults, &mut src, 5000);
            assert_eq!(
                out.detected_at, serial.detected_at,
                "{name}: detection indices differ at {threads} threads"
            );
            assert_eq!(
                out.patterns_applied, serial.patterns_applied,
                "{name}: pattern counts differ at {threads} threads"
            );
            assert_eq!(
                out.coverage_curve, serial.coverage_curve,
                "{name}: coverage curves differ at {threads} threads"
            );
            assert_eq!(
                out.escapes(),
                serial.escapes(),
                "{name}: escape sets differ at {threads} threads"
            );
            assert_eq!(
                src.position(),
                serial_src.position(),
                "{name}: stream cursors differ at {threads} threads"
            );
        }
    }
}

/// The two-axis planner satellite: fault-sharded (500 faults), the
/// boundary (3 faults), and pattern-sharded (1 fault) runs on the
/// ISCAS-scale adder must all be bit-identical to serial at every thread
/// count — whichever axis the planner cuts for each (fault count,
/// thread count) pair.
#[test]
fn few_fault_pattern_axis_is_bit_identical_to_serial() {
    let net = ripple_adder(80); // 400 gates
    let all = stuck_fault_list(&net);
    let n = net.primary_inputs().len();
    // Heavily biased weights keep hard-fault tails live deep into the
    // budget, so pattern shards do real work over their whole ranges.
    let probs = vec![0.0625f64; n];
    for fault_count in [1usize, 3, 500] {
        let faults: Vec<FaultEntry> = all.iter().take(fault_count).cloned().collect();
        let mut serial_src = PatternSource::new(0xFACE, probs.clone());
        let serial = FaultSimulator::with_parallelism(&net, Parallelism::Serial).run_random(
            &faults,
            &mut serial_src,
            5000, // non-multiple of 64: the final-batch lane mask crosses axes
        );
        for threads in THREAD_COUNTS {
            let mut src = PatternSource::new(0xFACE, probs.clone());
            let sim = FaultSimulator::with_parallelism(&net, Parallelism::Fixed(threads));
            let out = sim.run_random(&faults, &mut src, 5000);
            assert_eq!(
                out.detected_at, serial.detected_at,
                "{fault_count} faults: detection indices differ at {threads} threads"
            );
            assert_eq!(
                out.patterns_applied, serial.patterns_applied,
                "{fault_count} faults: pattern counts differ at {threads} threads"
            );
            assert_eq!(
                out.coverage_curve, serial.coverage_curve,
                "{fault_count} faults: coverage curves differ at {threads} threads"
            );
            assert_eq!(
                out.escapes(),
                serial.escapes(),
                "{fault_count} faults: escape sets differ at {threads} threads"
            );
            assert_eq!(
                src.position(),
                serial_src.position(),
                "{fault_count} faults: stream cursors differ at {threads} threads"
            );
        }
    }
}

/// A single hard fault — the exact workload the pattern axis exists for:
/// test-length validation of one optimized-weight fault. Pick the last
/// detected fault under the biased stream and rerun it alone.
#[test]
fn few_fault_single_hard_fault_detection_index_is_stable() {
    let net = ripple_adder(80);
    let all = stuck_fault_list(&net);
    let n = net.primary_inputs().len();
    let probs = vec![0.0625f64; n];
    let mut probe_src = PatternSource::new(0xBEEF, probs.clone());
    let probe = FaultSimulator::with_parallelism(&net, Parallelism::Serial).run_random(
        &all,
        &mut probe_src,
        5000,
    );
    // Hardest = latest first detection (escapes would be even harder but
    // give no index to compare shard merges against).
    let (hardest, _) = probe
        .detected_at
        .iter()
        .enumerate()
        .filter_map(|(i, d)| d.map(|d| (i, d)))
        .max_by_key(|&(_, d)| d)
        .expect("some fault detected");
    let lone = vec![all[hardest].clone()];
    let mut serial_src = PatternSource::new(0xBEEF, probs.clone());
    let serial = FaultSimulator::with_parallelism(&net, Parallelism::Serial).run_random(
        &lone,
        &mut serial_src,
        5000,
    );
    assert!(serial.detected_at[0].is_some());
    for threads in THREAD_COUNTS {
        let mut src = PatternSource::new(0xBEEF, probs.clone());
        let out = FaultSimulator::with_parallelism(&net, Parallelism::Fixed(threads))
            .run_random(&lone, &mut src, 5000);
        assert_eq!(out.detected_at, serial.detected_at, "threads={threads}");
        assert_eq!(out.patterns_applied, serial.patterns_applied);
        assert_eq!(src.position(), serial_src.position());
    }
}

/// Few-fault Monte Carlo detection estimates cross the same planner:
/// pass-axis hit counts must add back exactly to the estimates of the
/// plain entry point (which still honours `DYNMOS_BUDGET_MS`).
#[test]
fn few_fault_monte_carlo_is_bit_identical_to_serial() {
    let net = ripple_adder(24);
    let all = stuck_fault_list(&net);
    let n = net.primary_inputs().len();
    let probs: Vec<f64> = (0..n).map(|i| [0.9375, 0.5, 0.25][i % 3]).collect();
    for fault_count in [1usize, 2] {
        let faults: Vec<FaultEntry> = all.iter().take(fault_count).cloned().collect();
        let plain = mc_detection_probabilities(&net, &faults, &probs, 42, 9_999);
        for threads in THREAD_COUNTS {
            let est = completed(mc_detection_probabilities_budgeted(
                &net,
                &faults,
                &probs,
                42,
                9_999,
                Parallelism::Fixed(threads),
                &RunBudget::unlimited(),
            ));
            assert_eq!(est, plain, "{fault_count} faults at {threads} threads");
        }
    }
}

#[test]
fn parallel_fsim_covers_large_circuits() {
    // Sanity beyond equality: the sharded simulator actually detects
    // faults on the ISCAS-scale circuits.
    let net = ripple_adder(80); // 400 gates
    let faults = stuck_fault_list(&net);
    let mut src = PatternSource::uniform(7, net.primary_inputs().len());
    let sim = FaultSimulator::with_parallelism(&net, Parallelism::Fixed(4));
    let out = sim.run_random(&faults, &mut src, 20_000);
    assert!(
        out.coverage() > 0.95,
        "coverage {} suspiciously low",
        out.coverage()
    );
}

#[test]
fn parallel_monte_carlo_is_bit_identical_to_serial() {
    for (name, net, faults) in corpus() {
        let n = net.primary_inputs().len();
        let probs: Vec<f64> = (0..n).map(|i| [0.9375, 0.5, 0.25][i % 3]).collect();
        // Keep the fault list small enough for quick estimation.
        let subset: Vec<FaultEntry> = faults.into_iter().take(24).collect();
        let plain = mc_detection_probabilities(&net, &subset, &probs, 99, 7_777);
        let po = net.primary_outputs()[0];
        let sig_plain = mc_signal_probability(&net, po, &probs, 99, 7_777);
        let unlimited = RunBudget::unlimited();
        for threads in THREAD_COUNTS {
            let par = Parallelism::Fixed(threads);
            let est = completed(mc_detection_probabilities_budgeted(
                &net, &subset, &probs, 99, 7_777, par, &unlimited,
            ));
            assert_eq!(
                est, plain,
                "{name}: detection estimates at {threads} threads"
            );
            let sig = completed(mc_signal_probability_budgeted(
                &net, po, &probs, 99, 7_777, par, &unlimited,
            ));
            assert_eq!(
                sig,
                [sig_plain],
                "{name}: signal estimate at {threads} threads"
            );
        }
    }
}

#[test]
fn auto_parallelism_matches_serial_on_default_entry_points() {
    // The public defaults (Parallelism::Auto) must agree with the forced
    // serial path — this is what guarantees user-visible determinism no
    // matter the machine (or the DYNMOS_THREADS override CI sets).
    let net = ripple_adder(24);
    let faults = stuck_fault_list(&net);
    let mut auto_src = PatternSource::uniform(5, net.primary_inputs().len());
    let auto = FaultSimulator::new(&net).run_random(&faults, &mut auto_src, 4096);
    let mut serial_src = PatternSource::uniform(5, net.primary_inputs().len());
    let serial = FaultSimulator::with_parallelism(&net, Parallelism::Serial).run_random(
        &faults,
        &mut serial_src,
        4096,
    );
    assert_eq!(auto.detected_at, serial.detected_at);
    assert_eq!(auto.coverage_curve, serial.coverage_curve);
}
