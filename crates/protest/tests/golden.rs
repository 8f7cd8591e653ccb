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

use dynmos_netlist::generate::{array_multiplier, ripple_adder};
use dynmos_protest::{
    mc_detection_probabilities_budgeted, network_fault_list, FaultSimulator, Parallelism,
    PatternSource, RunBudget,
};

const GOLDEN: &str = include_str!("fixtures/kernel_golden.txt");
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
