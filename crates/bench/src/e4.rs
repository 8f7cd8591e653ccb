//! E4 — the paper's Figs. 6–7: dynamic nMOS gates and two-phase networks.
//!
//! Verifies:
//!
//! * "the logical function of the gate is the inverse of the transmission
//!   function" — exhaustively at switch level,
//! * input latching: data changes after `Φ2` falls do not affect the
//!   result,
//! * the Fig. 7 network: the two-phase pipeline computes the composition
//!   `z2 = /T2(/T1(i), …)` and the clocking discipline holds on c17.

use dynmos_logic::{parse_expr, VarTable};
use dynmos_netlist::generate::c17_dynamic_nmos;
use dynmos_switch::gates::dynamic_nmos_gate;
use dynmos_switch::{Logic, Sim};

/// Gate corpus.
pub(crate) const CORPUS: [&str; 5] = ["a", "a*b", "a+b", "a*b+c", "a*(b+c)+d"];

/// Checks `z == /T` exhaustively; returns mismatch count.
pub(crate) fn check_inverse(src: &str) -> usize {
    let mut vars = VarTable::new();
    let t = parse_expr(src, &mut vars).expect("corpus is valid");
    let n = vars.len();
    let gate = dynamic_nmos_gate(&t, n).expect("corpus is positive SP");
    (0..(1u64 << n))
        .filter(|&w| {
            let mut sim = Sim::new(&gate.circuit);
            gate.evaluate(&mut sim, w) != Logic::from_bool(!t.eval_word(w))
        })
        .count()
}

/// Checks that late data changes (after `Φ2` fell) cannot corrupt the
/// result; returns the number of corrupted words (0 expected).
pub(crate) fn check_latching(src: &str) -> usize {
    let mut vars = VarTable::new();
    let t = parse_expr(src, &mut vars).expect("corpus is valid");
    let n = vars.len();
    let gate = dynamic_nmos_gate(&t, n).expect("corpus is positive SP");
    (0..(1u64 << n))
        .filter(|&w| {
            let mut sim = Sim::new(&gate.circuit);
            // Load w during Phi2.
            sim.set_input(gate.clock, Logic::Zero);
            sim.set_input(gate.clock2, Logic::One);
            for (k, &d) in gate.data.iter().enumerate() {
                sim.set_input(d, Logic::from_bool((w >> k) & 1 == 1));
            }
            sim.settle();
            sim.set_input(gate.clock2, Logic::Zero);
            sim.settle();
            // Attack: flip every data line before precharge + evaluate.
            for (k, &d) in gate.data.iter().enumerate() {
                sim.set_input(d, Logic::from_bool((w >> k) & 1 == 0));
            }
            sim.set_input(gate.clock, Logic::One);
            sim.settle();
            sim.set_input(gate.clock, Logic::Zero);
            sim.settle();
            sim.level(gate.z) != Logic::from_bool(!t.eval_word(w))
        })
        .count()
}

/// Renders the experiment.
pub(crate) fn run() -> String {
    let mut out = String::new();
    out.push_str("Fig. 6: dynamic nMOS gates compute the inverse transmission function\n");
    for src in CORPUS {
        out.push_str(&format!(
            "  T = {src:<12} z=/T mismatches: {}  late-data corruption: {}\n",
            check_inverse(src),
            check_latching(src)
        ));
    }
    let net = c17_dynamic_nmos();
    let clocking = net.check_clocking().is_ok();
    out.push_str(&format!(
        "\nFig. 7 discipline on c17 (dynamic nMOS NAND2): gates={}, depth={}, \
         two-phase alternation holds: {clocking}\n",
        net.gates().len(),
        net.depth()
    ));
    let phases: Vec<String> = net
        .gates()
        .iter()
        .enumerate()
        .map(|(i, g)| format!("g{i}:{}", g.phase))
        .collect();
    out.push_str(&format!("  phases: {}\n", phases.join(" ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_inverse_function_holds() {
        for src in CORPUS {
            assert_eq!(check_inverse(src), 0, "{src}");
        }
    }

    #[test]
    fn corpus_latching_holds() {
        for src in CORPUS {
            assert_eq!(check_latching(src), 0, "{src}");
        }
    }

    #[test]
    fn c17_two_phase_discipline() {
        assert!(c17_dynamic_nmos().check_clocking().is_ok());
    }

    #[test]
    fn report_mentions_discipline() {
        assert!(run().contains("two-phase alternation holds: true"));
    }
}
