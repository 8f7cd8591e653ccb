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

use dynmos_netlist::generate::{array_multiplier, ripple_adder};
use dynmos_protest::{
    mc_detection_probabilities_budgeted, network_fault_list, stuck_fault_list, DetectionEngine,
    FaultSimulator, Parallelism, PatternSource, RunBudget, TestabilityConfig, TierMode,
};

const GOLDEN: &str = include_str!("fixtures/kernel_golden.txt");
const CUTTING_GOLDEN: &str = include_str!("fixtures/cutting_golden.txt");
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
