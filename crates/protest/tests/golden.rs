//! Kernel outputs pinned to literal bits.
//!
//! The differential tests compare one code path with another of the same
//! build, so a faulty-machine replay that changes results in every path
//! at once passes them. These golden values were captured before fault
//! replay became event-driven: fsim first-detection indices and Monte
//! Carlo detection estimates (`f64::to_bits`) over the full network fault
//! list of two generated circuits, at input weights 1/16 and 1/2.
//!
//! `fixtures/kernel_golden.txt` holds one record per line:
//! `<kernel> <circuit> <bits> <weight> <value per fault>`, where a value
//! is a 1-based detection index or `-` (escaped) for `fsim`, and the hex
//! bits of the estimate for `mc`.
//!
//! `fixtures/cutting_golden.txt` pins the cutting tier's certified
//! bounds, captured before its interval propagation moved to dense
//! per-net scratch buffers: one record per line,
//! `<circuit> <bits> <list> skewed <low>:<high per fault>` in hex bits,
//! untightened, at the per-input weights of [`skewed_probs`].
//!
//! `fixtures/bdd_golden.txt` pins the BDD tier, captured before the BDD
//! store moved to a flat unique table and a lossy computed table: which
//! faults overflow the node budget, and so which tier serves them,
//! depends on exactly which nodes the store creates. One record per line:
//! - `estimates <circuit> <bits> <mode> <node budget> <census>
//!   <method>:<value>:<std_error>[:<low>:<high>] per fault`, values in hex
//!   bits, at [`skewed_probs`] with Monte Carlo tightening at [`SEED`];
//! - `patterns <circuit> <bits> <pattern per fault>` in `bdd` mode, a
//!   pattern being the primary-input bits in input order, `R` for
//!   redundant or `N` for no difference BDD.

use dynmos_netlist::generate::{array_multiplier, ripple_adder, ripple_adder_bench_text};
use dynmos_netlist::parse_bench;
use dynmos_protest::{
    mc_detection_probabilities_budgeted, network_fault_list, stuck_fault_list, tier_census,
    DetectionEngine, FaultSimulator, Parallelism, PatternSource, RunBudget, TestPattern,
    TestabilityConfig, TierMode,
};

const GOLDEN: &str = include_str!("fixtures/kernel_golden.txt");
const CUTTING_GOLDEN: &str = include_str!("fixtures/cutting_golden.txt");
const BDD_GOLDEN: &str = include_str!("fixtures/bdd_golden.txt");
const SEED: u64 = 0xDAC0;
/// Patterns per fsim run and samples per Monte Carlo run; not a multiple
/// of 64, so the tail lane mask is exercised.
const WORK: u64 = 5000;

#[test]
fn fsim_and_mc_outputs_match_golden_bits() {
    let mut records = 0;
    for line in GOLDEN.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [kernel, circuit, bits, weight, expect @ ..] = &fields[..] else {
            panic!("malformed golden record {line:?}");
        };
        let bits: usize = bits.parse().expect("circuit size");
        let net = match *circuit {
            "ripple_adder" => ripple_adder(bits),
            "array_multiplier" => array_multiplier(bits),
            other => panic!("unknown circuit {other}"),
        };
        let faults = network_fault_list(&net);
        let probs = vec![weight.parse::<f64>().expect("weight"); net.primary_inputs().len()];
        for threads in [1, 2] {
            let parallelism = Parallelism::Fixed(threads);
            let got: Vec<String> = match *kernel {
                "fsim" => {
                    let mut src = PatternSource::new(SEED, probs.clone());
                    FaultSimulator::with_parallelism(&net, parallelism)
                        .run_random(&faults, &mut src, WORK)
                        .detected_at
                        .iter()
                        .map(|d| d.map_or("-".into(), |i| i.to_string()))
                        .collect()
                }
                "mc" => mc_detection_probabilities_budgeted(
                    &net,
                    &faults,
                    &probs,
                    SEED,
                    WORK,
                    parallelism,
                    &RunBudget::unlimited(),
                )
                .estimates
                .iter()
                .map(|e| format!("{:016x}", e.value.to_bits()))
                .collect(),
                other => panic!("unknown kernel {other}"),
            };
            let ctx = format!("{kernel} {circuit}({bits}) weight {weight} on {threads} threads");
            assert_eq!(got.len(), expect.len(), "{ctx}: fault count");
            for (i, (g, e)) in got.iter().zip(expect).enumerate() {
                assert_eq!(g, e, "{ctx}: fault {i} ({:?})", faults[i].fault);
            }
        }
        records += 1;
    }
    assert_eq!(records, 8, "two kernels x two circuits x two weights");
}

/// Non-dyadic per-input weights, so the interval arithmetic rounds.
fn skewed_probs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.2 + 0.03 * (i % 16) as f64).collect()
}

#[test]
fn cutting_bounds_match_golden_bits() {
    let mut records = 0;
    for line in CUTTING_GOLDEN.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [circuit, bits, list, "skewed", expect @ ..] = &fields[..] else {
            panic!("malformed golden record {line:?}");
        };
        let bits: usize = bits.parse().expect("circuit size");
        let net = match *circuit {
            "ripple_adder" => ripple_adder(bits),
            "array_multiplier" => array_multiplier(bits),
            other => panic!("unknown circuit {other}"),
        };
        let faults = match *list {
            "network" => network_fault_list(&net),
            "stuck" => stuck_fault_list(&net),
            other => panic!("unknown fault list {other}"),
        };
        let probs = skewed_probs(net.primary_inputs().len());
        let config = TestabilityConfig::new(TierMode::Cutting).with_mc_tighten_samples(0);
        let got = DetectionEngine::new(&net, &faults, config)
            .estimates(&probs, &RunBudget::unlimited())
            .expect("unlimited budget cannot interrupt");
        let ctx = format!("{circuit}({bits}) {list} faults");
        assert_eq!(got.len(), expect.len(), "{ctx}: fault count");
        for (i, (e, want)) in got.iter().zip(expect).enumerate() {
            let (lo, hi) = e.bounds.expect("cutting reports bounds");
            let bits = format!("{:016x}:{:016x}", lo.to_bits(), hi.to_bits());
            assert_eq!(bits, *want, "{ctx}: fault {i} ({:?})", faults[i].fault);
        }
        records += 1;
    }
    assert_eq!(records, 4, "two circuits x two fault lists");
}

/// Every fault's test pattern in the `bdd_golden.txt` record form.
fn pattern_record(engine: &mut DetectionEngine<'_>) -> Vec<String> {
    (0..engine.fault_count())
        .map(|i| match engine.test_pattern(i) {
            TestPattern::Pattern(bits) => bits.iter().map(|&b| if b { '1' } else { '0' }).collect(),
            TestPattern::Redundant => "R".into(),
            TestPattern::NoBdd => "N".into(),
        })
        .collect()
}

#[test]
fn bdd_tier_matches_golden_bits() {
    let mut records = 0;
    for line in BDD_GOLDEN.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (kind, circuit, bits, rest) = match &fields[..] {
            [kind, circuit, bits, rest @ ..] => (*kind, *circuit, *bits, rest),
            _ => panic!("malformed golden record {line:?}"),
        };
        // The `.bench` form perfbench serves: its gates differ from the
        // generated netlist's, and so do its BDD sizes.
        assert_eq!(circuit, "ripple_adder_bench", "unknown circuit {circuit}");
        let bits: usize = bits.parse().expect("circuit size");
        let net = parse_bench(&ripple_adder_bench_text(bits)).expect("generated text parses");
        let faults = stuck_fault_list(&net);
        let probs = skewed_probs(net.primary_inputs().len());
        match (kind, rest) {
            ("estimates", [mode, nodes, census, expect @ ..]) => {
                let config = TestabilityConfig::new(TierMode::parse(mode).expect("mode"))
                    .with_node_budget(nodes.parse().expect("node budget"))
                    .with_seed(SEED);
                let got = DetectionEngine::new(&net, &faults, config)
                    .estimates(&probs, &RunBudget::unlimited())
                    .expect("unlimited budget cannot interrupt");
                let ctx = format!("{circuit}({bits}) {mode} at {nodes} nodes");
                assert_eq!(
                    tier_census(got.iter().map(|e| &e.method)),
                    *census,
                    "{ctx}: census"
                );
                assert_eq!(got.len(), expect.len(), "{ctx}: fault count");
                for (i, (e, want)) in got.iter().zip(expect).enumerate() {
                    let mut record = format!(
                        "{}:{:016x}:{:016x}",
                        e.method.token(),
                        e.value.to_bits(),
                        e.std_error.to_bits()
                    );
                    if let Some((lo, hi)) = e.bounds {
                        record += &format!(":{:016x}:{:016x}", lo.to_bits(), hi.to_bits());
                    }
                    assert_eq!(record, *want, "{ctx}: fault {i} ({:?})", faults[i].fault);
                }
            }
            ("patterns", expect) => {
                // A fresh engine rebuilds and rolls back every fault's
                // difference; after a query it reads the stored ones.
                let config = TestabilityConfig::new(TierMode::Bdd).with_seed(SEED);
                let mut engine = DetectionEngine::new(&net, &faults, config);
                let rebuilt = pattern_record(&mut engine);
                engine
                    .estimates(&probs, &RunBudget::unlimited())
                    .expect("unlimited budget cannot interrupt");
                let stored = pattern_record(&mut engine);
                assert_eq!(
                    rebuilt.len(),
                    expect.len(),
                    "{circuit}({bits}): fault count"
                );
                for (i, want) in expect.iter().enumerate() {
                    let fault = &faults[i].fault;
                    assert_eq!(rebuilt[i], *want, "rebuilt pattern {i} ({fault:?})");
                    assert_eq!(stored[i], *want, "stored pattern {i} ({fault:?})");
                }
            }
            _ => panic!("malformed golden record {line:?}"),
        }
        records += 1;
    }
    assert_eq!(records, 5, "four estimate records and one pattern record");
}
