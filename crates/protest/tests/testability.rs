//! Integration tests of the tiered testability engine: differential
//! properties against the exact detector, a cross-tier oracle above the
//! row cap (BDD values inside the cutting bounds and the Monte Carlo
//! intervals), BDD test patterns against PODEM and the fault simulator,
//! the paper-scale optimizer acceptance run on `ripple_adder(80)`, and
//! the `testability` service kernel's snapshot/restore durability
//! contract.

use dynmos_atpg::{generate_test, AtpgOutcome};
use dynmos_netlist::generate::{
    and_or_tree, carry_chain, random_domino_network, ripple_adder, ripple_adder_bench_text,
};
use dynmos_netlist::{parse_bench, Network};
use dynmos_protest::service::build_builtin;
use dynmos_protest::{
    mc_detection_probabilities, network_fault_list, optimize_input_probabilities_with,
    stuck_fault_list, DetectionEngine, DetectionEstimate, EstimateMethod, ExactDetector,
    FaultEntry, FaultSimulator, JobContext, Json, Parallelism, RunBudget, RunStatus, TestPattern,
    TestabilityConfig, TierMode, DEFAULT_NODE_BUDGET,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Mildly skewed but valid per-input probabilities.
fn skewed_probs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.2 + 0.03 * (i % 16) as f64).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The BDD tier is exact: on random networks (well under 16
    /// inputs) its detection probabilities match the enumeration-based
    /// [`ExactDetector`] within 1e-12.
    #[test]
    fn bdd_tier_matches_exact_detector(seed in 0u64..10_000) {
        let net = random_domino_network(seed, 6, 9);
        let n = net.primary_inputs().len();
        prop_assume!((1..=16).contains(&n));
        let faults = network_fault_list(&net);
        let probs = skewed_probs(n);
        let exact = ExactDetector::new(&net, &faults).probabilities(&probs);
        let mut engine =
            DetectionEngine::new(&net, &faults, TestabilityConfig::new(TierMode::Bdd));
        let est = engine
            .estimates(&probs, &RunBudget::unlimited())
            .expect("unlimited budget cannot interrupt");
        for ((e, &x), f) in est.iter().zip(&exact).zip(&faults) {
            prop_assert_eq!(e.method, EstimateMethod::Bdd, "{}", f.label);
            prop_assert!(
                (e.value - x).abs() <= 1e-12,
                "{}: bdd {} vs exact {}",
                f.label, e.value, x
            );
        }
    }

    /// The cutting tier is sound: its certified interval always
    /// contains the exact detection probability, and the reported
    /// value stays inside the interval.
    #[test]
    fn cutting_bounds_contain_exact_value(seed in 0u64..10_000) {
        let net = random_domino_network(seed, 6, 9);
        let n = net.primary_inputs().len();
        prop_assume!((1..=16).contains(&n));
        let faults = network_fault_list(&net);
        let probs = skewed_probs(n);
        let exact = ExactDetector::new(&net, &faults).probabilities(&probs);
        // No tightening: the raw interval propagation must already be
        // sound on its own.
        let config = TestabilityConfig::new(TierMode::Cutting).with_mc_tighten_samples(0);
        let mut engine = DetectionEngine::new(&net, &faults, config);
        let est = engine
            .estimates(&probs, &RunBudget::unlimited())
            .expect("unlimited budget cannot interrupt");
        for ((e, &x), f) in est.iter().zip(&exact).zip(&faults) {
            prop_assert_eq!(e.method, EstimateMethod::Cutting, "{}", f.label);
            let (lo, hi) = e.bounds.expect("cutting reports bounds");
            prop_assert!(
                lo - 1e-12 <= x && x <= hi + 1e-12,
                "{}: exact {} outside [{lo}, {hi}]",
                f.label, x
            );
            prop_assert!(lo - 1e-12 <= e.value && e.value <= hi + 1e-12, "{}", f.label);
        }
    }
}

/// The bench-form 16-bit adder (the shape the service parses) and a few
/// random domino networks, each with the fault list its format gets and
/// a node budget at which `Auto` serves faults from both BDD and cutting.
fn cutting_corpus() -> Vec<(Network, Vec<FaultEntry>, usize)> {
    let adder = parse_bench(&ripple_adder_bench_text(16)).expect("generated bench parses");
    let adder_faults = stuck_fault_list(&adder);
    let mut corpus = vec![(adder, adder_faults, 20_000)];
    for seed in [3, 11, 29] {
        let net = random_domino_network(seed, 6, 9);
        let faults = network_fault_list(&net);
        corpus.push((net, faults, 60));
    }
    corpus
}

/// Cutting-tier tightening draws one shared sample bank per query: every
/// cutting estimate with a non-point interval equals, bit for bit, its
/// fault's entry of `mc_detection_probabilities` at the engine seed,
/// clamped into the certified bounds. Sample counts around one lane word
/// cover the bank's tail masks; `Auto` at a tight node budget mixes the
/// BDD tier in, so the bank cannot depend on which faults it served.
#[test]
fn cutting_tightening_matches_shared_stream_oracle() {
    const SEED: u64 = 0x5EED;
    // No exact tier: `Auto` must go symbolic even on the small networks.
    let budget = RunBudget::unlimited().with_max_exact_rows(1);
    for (net, faults, tight) in cutting_corpus() {
        let probs = skewed_probs(net.primary_inputs().len());
        for (mode, nodes) in [(TierMode::Cutting, 1 << 20), (TierMode::Auto, tight)] {
            let (mut tiers, mut tightened) = ([0usize; 2], 0);
            for samples in [1, 63, 64, 65, 4096] {
                let config = TestabilityConfig::new(mode)
                    .with_node_budget(nodes)
                    .with_mc_tighten_samples(samples)
                    .with_seed(SEED);
                let est = DetectionEngine::new(&net, &faults, config)
                    .estimates(&probs, &budget)
                    .expect("unlimited budget cannot interrupt");
                let oracle = mc_detection_probabilities(&net, &faults, &probs, SEED, samples);
                tiers = [0, 0];
                for (i, (e, mc)) in est.iter().zip(&oracle).enumerate() {
                    let Some((lo, hi)) = e.bounds else {
                        assert_eq!(e.method, EstimateMethod::Bdd);
                        tiers[0] += 1;
                        continue;
                    };
                    tiers[1] += 1;
                    if hi - lo < 1e-12 {
                        continue;
                    }
                    let ctx = format!("{mode:?} S={samples} fault {i} ({})", faults[i].label);
                    assert_eq!(e.value.to_bits(), mc.value.clamp(lo, hi).to_bits(), "{ctx}");
                    let std_error = mc.std_error().min(0.5 * (hi - lo));
                    assert_eq!(e.std_error.to_bits(), std_error.to_bits(), "{ctx}");
                    tightened += 1;
                }
            }
            assert!(
                tiers[1] > 0 && tightened > 0,
                "{mode:?}: no cutting fault checked"
            );
            if mode == TierMode::Auto {
                assert!(tiers[0] > 0, "node budget {nodes} left no BDD fault");
            }
        }
    }
}

/// Resuming a tightened cutting run at any fault boundary, in a fresh
/// engine, reproduces the full run bit for bit: the shared sample bank
/// does not depend on which faults were estimated before it.
#[test]
fn tightened_cutting_resumes_bit_identical_at_every_fault() {
    let bits = |e: &DetectionEstimate| {
        let (lo, hi) = e.bounds.expect("cutting reports bounds");
        [e.value, e.std_error, lo, hi].map(f64::to_bits)
    };
    for (net, faults, _) in cutting_corpus() {
        let probs = skewed_probs(net.primary_inputs().len());
        let config = TestabilityConfig::new(TierMode::Cutting).with_seed(7);
        let full = DetectionEngine::new(&net, &faults, config.clone())
            .estimates(&probs, &RunBudget::unlimited())
            .expect("unlimited budget cannot interrupt");
        for start in 0..faults.len() {
            let mut engine = DetectionEngine::new(&net, &faults, config.clone());
            let mut next = start;
            let status =
                engine.estimates_from(start, &probs, &RunBudget::unlimited(), &mut |i, e| {
                    assert_eq!(i, next);
                    assert_eq!(bits(&e), bits(&full[i]), "resumed at {start}: fault {i}");
                    next += 1;
                });
            assert!(status.is_complete());
            assert_eq!(next, faults.len());
        }
    }
}

/// Above the row cap no enumeration can serve as the oracle, so the
/// tiers check each other: every BDD-tier value lies inside the cutting
/// tier's certified bounds and within three half-widths of the Monte
/// Carlo estimate at a fixed seed. The node budget is raised so that
/// every fault of the 61-input chain is served exactly (at the default
/// budget the shared store fills and late faults fall to cutting).
#[test]
fn bdd_tier_agrees_with_cutting_bounds_and_monte_carlo_above_row_cap() {
    for net in [and_or_tree(5), carry_chain(30)] {
        let n = net.primary_inputs().len();
        assert!(n > 24, "{n} inputs fit exact enumeration");
        let faults = network_fault_list(&net);
        let probs = skewed_probs(n);
        let estimates = |config: TestabilityConfig| {
            DetectionEngine::new(&net, &faults, config)
                .estimates(&probs, &RunBudget::unlimited())
                .expect("unlimited budget cannot interrupt")
        };
        let bdd = estimates(
            TestabilityConfig::new(TierMode::Bdd).with_node_budget(4 * DEFAULT_NODE_BUDGET),
        );
        let cut = estimates(TestabilityConfig::new(TierMode::Cutting).with_mc_tighten_samples(0));
        let mc = mc_detection_probabilities(&net, &faults, &probs, 0x0AC1E, 20_000);
        for (i, entry) in faults.iter().enumerate() {
            let ctx = format!("{n} inputs, {}", entry.label);
            assert_eq!(bdd[i].method, EstimateMethod::Bdd, "{ctx}: not BDD-served");
            let value = bdd[i].value;
            let (lo, hi) = cut[i].bounds.expect("cutting reports bounds");
            assert!(
                lo - 1e-12 <= value && value <= hi + 1e-12,
                "{ctx}: {value} outside [{lo}, {hi}]"
            );
            assert!(
                (value - mc[i].value).abs() <= 3.0 * mc[i].half_width.max(1e-3),
                "{ctx}: {value} vs Monte Carlo {:?}",
                mc[i]
            );
        }
    }
}

/// Checks every fault's BDD test pattern: a pattern must detect its
/// fault under the fault simulator, and the engine reports a fault
/// redundant exactly when PODEM proves it so. PODEM runs with
/// `max_backtracks` (0 = unlimited); when capped, an aborted search is
/// accepted beside a pattern the simulator confirms.
fn assert_patterns_agree_with_podem(net: &Network, max_backtracks: u64) {
    let faults = network_fault_list(net);
    let mut engine = DetectionEngine::new(net, &faults, TestabilityConfig::new(TierMode::Bdd));
    let sim = FaultSimulator::new(net);
    for (i, entry) in faults.iter().enumerate() {
        match (
            engine.test_pattern(i),
            generate_test(net, &entry.fault, max_backtracks),
        ) {
            (TestPattern::Pattern(pattern), podem)
                if matches!(podem, AtpgOutcome::Test(_))
                    || (max_backtracks > 0 && podem == AtpgOutcome::Aborted) =>
            {
                let out = sim.run_patterns(std::slice::from_ref(entry), &[pattern]);
                assert_eq!(out.coverage(), 1.0, "{}: BDD pattern misses", entry.label);
            }
            (TestPattern::Redundant, AtpgOutcome::Redundant) => {}
            (bdd, podem) => panic!("{}: engines disagree: {bdd:?} vs {podem:?}", entry.label),
        }
    }
}

/// BDD test patterns on random domino networks agree with an unbounded
/// PODEM: every fault gets a test from both engines or is redundant in
/// both.
#[test]
fn bdd_atpg_agrees_with_podem() {
    for seed in 0..4 {
        assert_patterns_agree_with_podem(&random_domino_network(seed, 3, 4), 0);
    }
}

/// Patterns stay correct past 64 inputs: `ripple_adder(40)` has 81, so
/// BDD variables beyond one machine word carry pattern bits. PODEM is
/// capped at 100 backtracks (ripple carries make some searches
/// exponential).
#[test]
fn engine_patterns_detect_every_ripple_adder_40_fault() {
    let net = ripple_adder(40);
    assert_eq!(net.primary_inputs().len(), 81);
    assert_patterns_agree_with_podem(&net, 100);
}

/// The paper-scale acceptance run: weight optimization on
/// `ripple_adder(80)` — 161 inputs, far beyond any exact enumeration —
/// completes under a finite `RunBudget` on the symbolic tiers, with a
/// per-fault method tag recorded for every fault.
#[test]
fn optimizer_completes_on_ripple_adder_80_with_method_tags() {
    let net = ripple_adder(80);
    assert_eq!(net.primary_inputs().len(), 161);
    let faults = stuck_fault_list(&net);
    let budget = RunBudget::deadline_in(Duration::from_secs(600));
    let run = optimize_input_probabilities_with(
        &net,
        &faults,
        0.999,
        0, // the uniform + grid scan alone is the acceptance bar here
        Parallelism::default(),
        &budget,
        &TestabilityConfig::new(TierMode::Auto),
    );
    assert!(run.status.is_complete(), "status {:?}", run.status);
    assert_eq!(run.methods.len(), faults.len());
    assert!(
        run.methods
            .iter()
            .all(|&m| m == EstimateMethod::Bdd || m == EstimateMethod::Cutting),
        "161 inputs must resolve to the symbolic tiers"
    );
    assert!(
        run.methods.contains(&EstimateMethod::Bdd),
        "the adder's cones fit the default node budget"
    );
    assert!(run.report.optimized_length <= run.report.uniform_length);
    assert_eq!(run.report.probabilities.len(), 161);
}

/// The `testability` kernel's durability contract: a run sliced into
/// expired-budget legs, with the kernel torn down and rebuilt from a
/// JSON-serialized snapshot between every leg, produces output
/// byte-identical to a single uninterrupted run.
#[test]
fn testability_kernel_resumes_bit_identical_from_snapshots() {
    let net = Arc::new(carry_chain(20)); // 41 inputs: symbolic tiers
    let faults = stuck_fault_list(&net);
    // A small node budget plus tightening samples exercises all of
    // bdd, cutting, and the shared tightening sample bank across resumes.
    let params =
        Json::parse(r#"{"seed":7,"mode":"auto","node_budget":600,"tighten_samples":128}"#).unwrap();
    let make = || {
        build_builtin(
            "testability",
            JobContext {
                net: net.clone(),
                faults: faults.clone(),
                parallelism: Parallelism::Serial,
                params: &params,
            },
        )
        .expect("testability is built in")
        .expect("request is valid")
    };

    let mut reference = make();
    assert!(matches!(
        reference.run_leg(&RunBudget::unlimited()),
        RunStatus::Completed
    ));
    let expected = reference.output().to_string();

    // Every leg runs on an already-expired deadline: forward progress
    // guarantees exactly the minimum per-leg commit, maximizing the
    // number of snapshot boundaries crossed.
    let expired = RunBudget::deadline_in(Duration::ZERO);
    let mut snapshot = Json::Null;
    let mut legs = 0;
    let final_output = loop {
        let mut kernel = make();
        kernel.restore(&snapshot).expect("snapshot round-trips");
        let status = kernel.run_leg(&expired);
        // Through the wire format, as the write-ahead journal would.
        snapshot = Json::parse(&kernel.snapshot().to_string()).unwrap();
        legs += 1;
        assert!(legs <= 10 * faults.len(), "no forward progress");
        if matches!(status, RunStatus::Completed) {
            break kernel.output().to_string();
        }
    };
    assert!(legs > 2, "budget never interrupted the run — vacuous test");
    assert_eq!(
        final_output, expected,
        "resumed run diverged after {legs} legs"
    );
}

/// A corrupt snapshot is refused with a message, not trusted.
#[test]
fn testability_kernel_rejects_corrupt_snapshots() {
    let net = Arc::new(carry_chain(4));
    let faults = stuck_fault_list(&net);
    let params = Json::parse(r#"{"seed":1}"#).unwrap();
    let mut kernel = build_builtin(
        "testability",
        JobContext {
            net: net.clone(),
            faults: faults.clone(),
            parallelism: Parallelism::Serial,
            params: &params,
        },
    )
    .unwrap()
    .unwrap();
    for bad in [
        r#"{"next":1,"estimates":[]}"#,
        r#"{"next":0}"#,
        r#"{"next":1,"estimates":[{"value":0.5}]}"#,
        r#"{"next":1,"estimates":[{"value":0.5,"std_error":0,"method":"warp"}]}"#,
        r#"{"next":1,"estimates":[{"value":0.5,"std_error":0,"method":"cutting","low":0.1}]}"#,
    ] {
        let snap = Json::parse(bad).unwrap();
        assert!(kernel.restore(&snap).is_err(), "snapshot accepted: {bad}");
    }
}
