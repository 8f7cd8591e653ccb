//! PROTEST at production scale: exact-by-BDD and Monte Carlo beyond the
//! enumeration limit.
//!
//! The paper's enumerative analysis is fine for cells; "large scaled
//! integrated circuits" need either symbolic functions or sampling. This
//! example analyzes a 61-input carry chain (impossible to enumerate:
//! 2^61 rows) three ways and shows they agree where they overlap:
//!
//! * exact detection probabilities from the tiered `DetectionEngine`
//!   forced to its BDD tier (linear in BDD size here), each labelled by
//!   the tier that served it,
//! * Monte Carlo estimates with confidence intervals,
//! * deterministic test patterns read off the same engine's difference
//!   BDDs, cross-checked against the PODEM engine.
//!
//! Run with: `cargo run --release --example large_scale_protest`

use dynmos::atpg::{generate_test, AtpgOutcome};
use dynmos::netlist::generate::carry_chain;
use dynmos::protest::{
    mc_detection_probability, network_fault_list, test_length, tier_census, DetectionEngine,
    EstimateMethod, FaultSimulator, RunBudget, TestPattern, TestabilityConfig, TierMode,
    DEFAULT_NODE_BUDGET,
};

fn main() {
    let bits = 30;
    let net = carry_chain(bits);
    let n = net.primary_inputs().len();
    let faults = network_fault_list(&net);
    println!(
        "carry chain: {bits} majority gates, {n} primary inputs (2^{n} rows — enumeration impossible), {} faults",
        faults.len()
    );

    // Detection probabilities for the whole list from one engine: the
    // good machine is built once, each fault rebuilds only its cone.
    // All faults share one node store; four times the default budget
    // holds every difference BDD of this chain, so all values are exact.
    let probs = vec![0.5f64; n];
    let config = TestabilityConfig::new(TierMode::Bdd).with_node_budget(4 * DEFAULT_NODE_BUDGET);
    let mut engine = DetectionEngine::new(&net, &faults, config);
    let all = engine
        .estimates(&probs, &RunBudget::unlimited())
        .expect("an unlimited budget cannot interrupt");
    println!("tiers: {}", tier_census(all.iter().map(|e| &e.method)));
    assert!(
        all.iter().all(|e| e.method == EstimateMethod::Bdd),
        "every fault of the chain fits the node budget"
    );

    // A sample of faults along the chain (deep faults are harder: their
    // effect must propagate), against Monte Carlo.
    println!("\nfault                          P(detect) [tier]        MC estimate (100k)");
    let sample: Vec<usize> = vec![0, 1, faults.len() / 2, faults.len() - 1];
    for &i in &sample {
        let (e, est) = (&faults[i], &all[i]);
        let mc = mc_detection_probability(&net, &e.fault, &probs, 0xACE1, 100_000);
        println!(
            " {:<28}  {:>10.6} [{:<7}]   {:.6} ± {:.6}",
            e.label,
            est.value,
            est.method.token(),
            mc.value,
            mc.half_width
        );
    }

    // Full-list probabilities -> test length at scale.
    let values: Vec<f64> = all.iter().map(|e| e.value).collect();
    let hardest = all
        .iter()
        .min_by(|a, b| a.value.total_cmp(&b.value))
        .expect("the chain has faults");
    let n_patterns = test_length(&values, 0.999);
    println!(
        "\nhardest fault detection probability: {:.6} [{}]; \
         random test length for 99.9% confidence: {n_patterns}",
        hardest.value,
        hardest.method.token()
    );

    // BDD-extracted deterministic patterns, validated by simulation and
    // cross-checked against PODEM on a sample.
    let sim = FaultSimulator::new(&net);
    let mut checked = 0;
    for &i in &sample {
        let e = &faults[i];
        let TestPattern::Pattern(bdd_pat) = engine.test_pattern(i) else {
            panic!(
                "{}: the chain has no redundancy and fits the node budget",
                e.label
            );
        };
        let out = sim.run_patterns(std::slice::from_ref(e), std::slice::from_ref(&bdd_pat));
        assert_eq!(out.coverage(), 1.0, "{} BDD pattern invalid", e.label);
        let podem = generate_test(&net, &e.fault, 0);
        assert!(
            matches!(podem, AtpgOutcome::Test(_)),
            "{} PODEM disagrees",
            e.label
        );
        checked += 1;
    }
    println!(
        "BDD and PODEM test engines agree on {checked}/{} sampled faults",
        sample.len()
    );
}
