//! E3 — the paper's Figs. 3–5: domino CMOS gates and networks.
//!
//! Verifies the two structural claims of section 2:
//!
//! * "The logical function of a domino gate is exactly the transmission
//!   function of the involved switching network" — checked exhaustively
//!   at switch level for a gate corpus.
//! * "At Φ̄ the output nodes of all gates are low and thus at Φ each node
//!   either can be pulled up and remain stable or doesn't change at all
//!   … races and spikes cannot occur" — checked by monotone-rise
//!   monitoring through the evaluation phase of the Fig. 5 two-gate
//!   network.

use dynmos_logic::{parse_expr, VarTable};
use dynmos_switch::gates::domino_gate;
use dynmos_switch::{Logic, Sim};

/// The corpus of transmission functions exercised.
pub(crate) const CORPUS: [&str; 6] = ["a", "a*b", "a+b", "a*(b+c)", "a*(b+c)+d*e", "a*(b+c*(d+e))"];

/// Checks `z == T` exhaustively for one transmission function; returns
/// the number of mismatching input words (0 expected).
pub(crate) fn check_function(src: &str) -> usize {
    let mut vars = VarTable::new();
    let t = parse_expr(src, &mut vars).expect("corpus is valid");
    let n = vars.len();
    let gate = domino_gate(&t, n).expect("corpus is positive SP");
    (0..(1u64 << n))
        .filter(|&w| {
            let mut sim = Sim::new(&gate.circuit);
            gate.evaluate(&mut sim, w) != Logic::from_bool(t.eval_word(w))
        })
        .count()
}

/// Monitors the Fig. 5 network (`z1 = i1*i2`, `z2 = z1+i3` in domino)
/// through one precharge/evaluate cycle and reports whether any output
/// glitched (fell after rising) during evaluation.
///
/// Returns `(z1_transitions, z2_transitions)` — each must be
/// monotone 0→…→0/1 with at most one rise.
pub(crate) fn fig5_monotone_rise(word: u64) -> (Vec<Logic>, Vec<Logic>) {
    // Build the two-gate net as one switch circuit: z1 feeds the second
    // gate's input externally (we step the two gates in sequence through
    // shared evaluation, sampling between relaxation steps). For glitch
    // detection we exploit that our relaxation is monotone within a
    // settle; sampling across *input arrival orders* is the race check.
    let mut vars1 = VarTable::new();
    let t1 = parse_expr("a*b", &mut vars1).expect("valid");
    let gate1 = domino_gate(&t1, 2).expect("positive SP");
    let mut vars2 = VarTable::new();
    let t2 = parse_expr("a+b", &mut vars2).expect("valid");
    let gate2 = domino_gate(&t2, 2).expect("positive SP");

    let i1 = word & 1 == 1;
    let i2 = (word >> 1) & 1 == 1;
    let i3 = (word >> 2) & 1 == 1;

    let mut sim1 = Sim::new(&gate1.circuit);
    let mut sim2 = Sim::new(&gate2.circuit);
    let mut z1_seq = Vec::new();
    let mut z2_seq = Vec::new();

    // Precharge both.
    sim1.set_input(gate1.clock, Logic::Zero);
    sim2.set_input(gate2.clock, Logic::Zero);
    for &i in &gate1.inputs {
        sim1.set_input(i, Logic::Zero);
    }
    for &i in &gate2.inputs {
        sim2.set_input(i, Logic::Zero);
    }
    sim1.settle();
    sim2.settle();
    z1_seq.push(sim1.level(gate1.z));
    z2_seq.push(sim2.level(gate2.z));

    // Evaluate: clock rises everywhere; primary inputs rise; z1's rise
    // arrives at gate2 only after gate1 settles (the domino ripple).
    sim1.set_input(gate1.clock, Logic::One);
    sim2.set_input(gate2.clock, Logic::One);
    sim1.set_input(gate1.inputs[0], Logic::from_bool(i1));
    sim1.set_input(gate1.inputs[1], Logic::from_bool(i2));
    sim2.set_input(gate2.inputs[1], Logic::from_bool(i3));
    // gate2 sees z1 still low (not yet rippled).
    sim2.set_input(gate2.inputs[0], Logic::Zero);
    sim1.settle();
    sim2.settle();
    z1_seq.push(sim1.level(gate1.z));
    z2_seq.push(sim2.level(gate2.z));
    // The ripple: z1's final value reaches gate2.
    sim2.set_input(gate2.inputs[0], sim1.level(gate1.z));
    sim2.settle();
    z1_seq.push(sim1.level(gate1.z));
    z2_seq.push(sim2.level(gate2.z));

    (z1_seq, z2_seq)
}

/// `true` if a sampled output sequence is a monotone rise: once high it
/// never falls back during evaluation.
pub(crate) fn is_monotone_rise(seq: &[Logic]) -> bool {
    let mut seen_one = false;
    for &l in seq {
        match l {
            Logic::One => seen_one = true,
            Logic::Zero if seen_one => return false,
            _ => {}
        }
    }
    true
}

/// Renders the experiment.
pub(crate) fn run() -> String {
    let mut out = String::new();
    out.push_str("Figs. 3-5: domino gates compute their transmission functions\n");
    for src in CORPUS {
        let mism = check_function(src);
        out.push_str(&format!("  T = {src:<18} mismatches: {mism}\n"));
    }
    out.push_str("\nFig. 5 network, monotone-rise (no races/spikes) during evaluation:\n");
    let mut all_monotone = true;
    for word in 0..8u64 {
        let (z1, z2) = fig5_monotone_rise(word);
        let ok = is_monotone_rise(&z1) && is_monotone_rise(&z2);
        all_monotone &= ok;
        out.push_str(&format!(
            "  i={:03b}: z1 {:?} z2 {:?} monotone={}\n",
            word,
            z1.iter().map(|l| l.to_string()).collect::<Vec<_>>(),
            z2.iter().map(|l| l.to_string()).collect::<Vec<_>>(),
            ok
        ));
    }
    out.push_str(&format!("all outputs rise monotonically: {all_monotone}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_gates_compute_transmission_functions() {
        for src in CORPUS {
            assert_eq!(check_function(src), 0, "{src}");
        }
    }

    #[test]
    fn fig5_outputs_rise_monotonically() {
        for word in 0..8u64 {
            let (z1, z2) = fig5_monotone_rise(word);
            assert!(is_monotone_rise(&z1), "z1 glitched at {word:03b}: {z1:?}");
            assert!(is_monotone_rise(&z2), "z2 glitched at {word:03b}: {z2:?}");
        }
    }

    #[test]
    fn fig5_final_values_are_correct() {
        for word in 0..8u64 {
            let (z1, z2) = fig5_monotone_rise(word);
            let i1 = word & 1 == 1;
            let i2 = (word >> 1) & 1 == 1;
            let i3 = (word >> 2) & 1 == 1;
            assert_eq!(*z1.last().expect("sampled"), Logic::from_bool(i1 && i2));
            assert_eq!(
                *z2.last().expect("sampled"),
                Logic::from_bool((i1 && i2) || i3)
            );
        }
    }

    #[test]
    fn monotone_rise_detector() {
        use Logic::*;
        assert!(is_monotone_rise(&[Zero, Zero, One, One]));
        assert!(is_monotone_rise(&[Zero, Zero, Zero]));
        assert!(!is_monotone_rise(&[Zero, One, Zero]));
    }
}
