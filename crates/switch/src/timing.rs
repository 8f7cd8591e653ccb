//! Lumped-RC timing: the model behind Fig. 2 and fault class CMOS-3.
//!
//! The paper's timing arguments are all *ratio* arguments:
//!
//! * Fig. 2: a permanently closed pull-up `T1` turns a CMOS inverter into a
//!   ratioed pull-down inverter — the output still reaches a logic low "if
//!   the resistance of T1 is larger than the resistance of T2", but the
//!   high→low transition "would take more time corresponding to the
//!   resistance ratio".
//! * CMOS-3: a permanently closed precharge transistor is an `s0-z` when
//!   `R(T1) ≪ R(T2) + R(SN)` — wait, the paper states it the other way
//!   around: when the *precharge* resistance is much smaller the node can
//!   never be pulled down (case a); otherwise the pull-down merely becomes
//!   slow, "perhaps infinite", and only maximum-speed testing sees it
//!   (case b).
//!
//! We model a contended output node as a resistive divider between `Vdd`
//! (total pull-up path resistance `r_up`) and `Vss` (total pull-down
//! resistance `r_down`) charging a lumped capacitance `c`: the node settles
//! exponentially toward `v_final = r_down / (r_up + r_down)` (in Vdd units)
//! with time constant `tau = (r_up ∥ r_down) · c`. [`contention`] reports
//! the final logic level against configurable thresholds and the time at
//! which the node crosses the relevant threshold — possibly never.

use crate::level::Logic;

/// Electrical parameters for the contention model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcParams {
    /// Node capacitance in farads.
    pub capacitance: f64,
    /// Input-low threshold as a fraction of Vdd: levels below read `0`.
    pub vil: f64,
    /// Input-high threshold as a fraction of Vdd: levels above read `1`.
    pub vih: f64,
}

impl RcParams {
    /// Typical values: 50 fF node, 0.3/0.7 thresholds.
    pub fn typical() -> Self {
        Self {
            capacitance: 50e-15,
            vil: 0.3,
            vih: 0.7,
        }
    }
}

impl Default for RcParams {
    fn default() -> Self {
        Self::typical()
    }
}

/// Result of a contention analysis on one output node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionOutcome {
    /// Steady-state voltage as a fraction of Vdd.
    pub v_final: f64,
    /// Logic level the steady state reads as.
    pub final_level: Logic,
    /// Seconds until the node first crosses the threshold corresponding to
    /// `final_level` starting from `v_start`; `f64::INFINITY` if the
    /// steady state never crosses it (the paper's "perhaps infinite").
    pub settle_time: f64,
    /// The exponential time constant `(r_up ∥ r_down) · c` in seconds.
    pub tau: f64,
}

impl ContentionOutcome {
    /// `true` if the node reaches a *valid* logic level at all.
    pub fn settles(&self) -> bool {
        self.settle_time.is_finite()
    }

    /// `true` if the transition completes within a clock period of
    /// `period` seconds — the at-speed detection criterion of section 4:
    /// a fault whose `settle_time` exceeds the period is caught by
    /// "maximum speed testing" as a stuck value.
    pub fn meets_period(&self, period: f64) -> bool {
        self.settle_time <= period
    }
}

/// Analyzes a contended (or single-sided) output node.
///
/// `r_up` / `r_down` are the total conducting path resistances to `Vdd` /
/// `Vss`; pass `f64::INFINITY` for a non-conducting side. `v_start` is the
/// initial node voltage as a fraction of Vdd.
///
/// # Panics
///
/// Panics if both sides are non-conducting (the node floats; there is no
/// RC story to tell — handle charge retention at the switch level), if any
/// resistance is not positive, or if thresholds are not `0 < vil < vih < 1`.
///
/// # Example
///
/// Fig. 2: pull-up stuck closed with `R(T1) = 3 R(T2)` still yields a
/// (slow, degraded) low:
///
/// ```
/// use dynmos_switch::{contention, Logic, RcParams};
/// let p = RcParams::typical();
/// let out = contention(3.0 * 10_000.0, 10_000.0, 1.0, p);
/// assert_eq!(out.final_level, Logic::Zero);
/// assert!(out.settles());
/// // Fault-free pull-down for comparison: much faster.
/// let good = contention(f64::INFINITY, 10_000.0, 1.0, p);
/// assert!(out.settle_time > good.settle_time);
/// ```
pub fn contention(r_up: f64, r_down: f64, v_start: f64, params: RcParams) -> ContentionOutcome {
    assert!(
        r_up > 0.0 && r_down > 0.0,
        "resistances must be positive (use INFINITY for open)"
    );
    assert!(
        r_up.is_finite() || r_down.is_finite(),
        "floating node: no conducting path on either side"
    );
    assert!(
        0.0 < params.vil && params.vil < params.vih && params.vih < 1.0,
        "thresholds must satisfy 0 < vil < vih < 1"
    );

    let (v_final, r_eff) = if !r_up.is_finite() {
        (0.0, r_down)
    } else if !r_down.is_finite() {
        (1.0, r_up)
    } else {
        (r_down / (r_up + r_down), r_up * r_down / (r_up + r_down))
    };
    let tau = r_eff * params.capacitance;

    let final_level = if v_final < params.vil {
        Logic::Zero
    } else if v_final > params.vih {
        Logic::One
    } else {
        Logic::X
    };

    // Threshold the trajectory must cross to *become* final_level.
    let threshold = match final_level {
        Logic::Zero => params.vil,
        Logic::One => params.vih,
        Logic::X => {
            // Never reads as a valid level: infinite settle time.
            return ContentionOutcome {
                v_final,
                final_level,
                settle_time: f64::INFINITY,
                tau,
            };
        }
    };

    // v(t) = v_final + (v_start - v_final) * exp(-t/tau); solve v(t*) = thr.
    let settle_time = if (final_level == Logic::Zero && v_start <= threshold)
        || (final_level == Logic::One && v_start >= threshold)
    {
        0.0
    } else {
        let num = (v_start - v_final).abs();
        let den = (threshold - v_final).abs();
        if den <= 0.0 {
            f64::INFINITY
        } else {
            tau * (num / den).ln()
        }
    };

    ContentionOutcome {
        v_final,
        final_level,
        settle_time,
        tau,
    }
}

/// Minimum conducting path resistance between two nodes of a circuit,
/// walking only transistors that `conducts` reports on and scaling each
/// on-resistance by the fault set's resistive factors.
///
/// Series devices add; parallel branches are approximated by the best
/// single path (an upper bound on the true parallel resistance —
/// conservative for the "is this fault visible at speed" question).
/// Returns `f64::INFINITY` when no conducting path exists.
///
/// This is the consumer of [`crate::SwitchFault::Resistive`]: a resistive
/// precharge short (`CMOS-3` case b) shows up here as a scaled `r_up`,
/// which [`contention`] then turns into a settle time and an at-speed
/// detectability verdict.
pub fn path_resistance(
    circuit: &crate::Circuit,
    faults: &crate::FaultSet,
    from: crate::NodeId,
    to: crate::NodeId,
    conducts: &dyn Fn(crate::TransistorId) -> bool,
) -> f64 {
    // Dijkstra over nodes; edge weight = scaled on-resistance.
    let n = circuit.node_count();
    let mut best = vec![f64::INFINITY; n];
    best[from.index()] = 0.0;
    // Simple O(V^2) scan — circuits here are cell-sized.
    let mut done = vec![false; n];
    loop {
        let mut u = None;
        let mut ud = f64::INFINITY;
        for (i, &d) in best.iter().enumerate() {
            if !done[i] && d < ud {
                ud = d;
                u = Some(i);
            }
        }
        let Some(u) = u else { break };
        if u == to.index() {
            return ud;
        }
        done[u] = true;
        for t in circuit.transistor_ids() {
            if !conducts(t) {
                continue;
            }
            let tr = circuit.transistor(t);
            let r = tr.resistance * faults.resistance_scale(t);
            for (a, b) in [(tr.source, tr.drain), (tr.drain, tr.source)] {
                if a.index() == u && ud + r < best[b.index()] {
                    best[b.index()] = ud + r;
                }
            }
        }
    }
    best[to.index()]
}

/// Contention analysis of a domino gate's precharged node `y` under a
/// stuck-closed or resistive precharge transistor (`CMOS-3`), for one
/// input word during evaluation.
///
/// Returns `None` when the switch network does not conduct at `word`
/// (no fight: the node stays high, which is functionally correct).
/// Otherwise returns the [`ContentionOutcome`] of the divider between the
/// (possibly fault-scaled) precharge pull-up and the SN+foot pull-down.
pub fn domino_precharge_contention(
    gate: &crate::gates::DominoGate,
    faults: &crate::FaultSet,
    word: u64,
    params: RcParams,
) -> Option<ContentionOutcome> {
    let circuit = &gate.circuit;
    // Conduction of SN transistors from the input word; clocked devices on.
    let conducts = |t: crate::TransistorId| -> bool {
        if faults.is_open(t) {
            return false;
        }
        if t == gate.t1 || t == gate.t2 {
            return true; // evaluation phase: foot on; pull-up per fault below
        }
        if let Some(pos) = gate.sn.transistors.iter().position(|&x| x == t) {
            let (var, _) = gate.sn.literal_sites[pos];
            return (word >> var.index()) & 1 == 1;
        }
        false
    };
    // Pull-down: y -> foot through SN, plus the foot transistor itself.
    let foot_node = circuit.transistor(gate.t2).source;
    let sn_r = path_resistance(circuit, faults, gate.y, foot_node, &|t| {
        t != gate.t1 && t != gate.t2 && conducts(t)
    });
    if !sn_r.is_finite() {
        return None;
    }
    let r_down = sn_r + circuit.transistor(gate.t2).resistance * faults.resistance_scale(gate.t2);
    let r_up = circuit.transistor(gate.t1).resistance * faults.resistance_scale(gate.t1);
    Some(contention(r_up, r_down, 1.0, params))
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: f64 = 10_000.0;

    #[test]
    fn clean_pulldown_settles_to_zero() {
        let out = contention(f64::INFINITY, R, 1.0, RcParams::typical());
        assert_eq!(out.final_level, Logic::Zero);
        assert_eq!(out.v_final, 0.0);
        assert!(out.settles());
        // t = tau * ln(1/0.3) ≈ 1.204 tau
        let expect = out.tau * (1.0f64 / 0.3).ln();
        assert!((out.settle_time - expect).abs() < 1e-18);
    }

    #[test]
    fn clean_pullup_settles_to_one() {
        let out = contention(R, f64::INFINITY, 0.0, RcParams::typical());
        assert_eq!(out.final_level, Logic::One);
        assert_eq!(out.v_final, 1.0);
        assert!(out.settles());
    }

    #[test]
    fn fig2_ratio_determines_level() {
        let p = RcParams::typical();
        // Strong pull-down vs weak stuck-closed pull-up: degraded but low.
        let weak_up = contention(10.0 * R, R, 1.0, p);
        assert_eq!(weak_up.final_level, Logic::Zero);
        // Comparable resistances: X — not a valid logic level.
        let balanced = contention(R, R, 1.0, p);
        assert_eq!(balanced.final_level, Logic::X);
        assert!(!balanced.settles());
        // Strong pull-up vs weak pull-down: output stuck high.
        let weak_down = contention(R, 10.0 * R, 1.0, p);
        assert_eq!(weak_down.final_level, Logic::One);
    }

    #[test]
    fn fig2_contention_is_slower_than_fault_free() {
        let p = RcParams::typical();
        let good = contention(f64::INFINITY, R, 1.0, p);
        let faulty = contention(4.0 * R, R, 1.0, p);
        assert_eq!(faulty.final_level, Logic::Zero);
        assert!(
            faulty.settle_time > good.settle_time,
            "fault must degrade performance: {} !> {}",
            faulty.settle_time,
            good.settle_time
        );
    }

    #[test]
    fn degradation_grows_as_ratio_shrinks() {
        // As R(T1)/R(T2) decreases toward the threshold, settle time grows
        // monotonically — the Fig. 2 curve.
        let p = RcParams::typical();
        let mut last = 0.0;
        for ratio in [10.0, 6.0, 4.0, 3.0, 2.5] {
            let out = contention(ratio * R, R, 1.0, p);
            assert_eq!(out.final_level, Logic::Zero, "ratio {ratio}");
            assert!(out.settle_time > last, "ratio {ratio}");
            last = out.settle_time;
        }
    }

    #[test]
    fn meets_period_models_at_speed_detection() {
        let p = RcParams::typical();
        let slow = contention(3.0 * R, R, 1.0, p);
        let fast = contention(f64::INFINITY, R, 1.0, p);
        // Pick a period between the two settle times: at-speed test sees
        // the slow gate as stuck, a slow external test does not.
        let period = (slow.settle_time + fast.settle_time) / 2.0;
        assert!(fast.meets_period(period));
        assert!(!slow.meets_period(period));
        assert!(slow.meets_period(10.0 * slow.settle_time));
    }

    #[test]
    fn already_past_threshold_is_instant() {
        let p = RcParams::typical();
        let out = contention(f64::INFINITY, R, 0.1, p);
        assert_eq!(out.settle_time, 0.0);
    }

    mod path_tests {
        use super::*;
        use crate::fault::{ResistanceScale, SwitchFault};
        use crate::gates::domino_gate;
        use crate::FaultSet;
        use dynmos_logic::{parse_expr, VarTable};

        fn fig9_gate() -> crate::gates::DominoGate {
            let mut vars = VarTable::new();
            let t = parse_expr("a*(b+c)+d*e", &mut vars).unwrap();
            domino_gate(&t, 5).unwrap()
        }

        #[test]
        fn no_conduction_means_no_contention() {
            let gate = fig9_gate();
            // word 0: T = 0, SN blocks, no fight.
            let out = domino_precharge_contention(&gate, &FaultSet::new(), 0, RcParams::typical());
            assert!(out.is_none());
        }

        #[test]
        fn series_paths_are_more_resistive_than_short_ones() {
            let gate = fig9_gate();
            let p = RcParams::typical();
            // word a=1,b=1: two series SN transistors; word d=1,e=1: also
            // two. Both conduct -> same depth. Compare against a 1-deep
            // gate instead:
            let mut vars = VarTable::new();
            let t1 = parse_expr("a", &mut vars).unwrap();
            let shallow = domino_gate(&t1, 1).unwrap();
            let deep = domino_precharge_contention(&gate, &FaultSet::new(), 0b00011, p)
                .expect("SN conducts");
            let short =
                domino_precharge_contention(&shallow, &FaultSet::new(), 1, p).expect("SN conducts");
            // Deeper pull-down path -> higher r_down -> higher v_final.
            assert!(deep.v_final > short.v_final);
        }

        #[test]
        fn resistive_fault_slows_the_pulldown() {
            // Scale the first SN transistor 8x resistive: the pull-down
            // weakens, so the divider's final voltage rises.
            let gate = fig9_gate();
            let p = RcParams::typical();
            let mut faults = FaultSet::new();
            faults.inject(SwitchFault::Resistive(
                gate.sn.transistors[0],
                ResistanceScale(8.0),
            ));
            let base =
                domino_precharge_contention(&gate, &FaultSet::new(), 0b00011, p).expect("conducts");
            let slowed = domino_precharge_contention(&gate, &faults, 0b00011, p).expect("conducts");
            assert!(slowed.v_final > base.v_final);
        }

        #[test]
        fn open_fault_blocks_the_path() {
            let gate = fig9_gate();
            let mut faults = FaultSet::new();
            faults.stuck_open(gate.sn.transistors[0]); // kill the a-branch
                                                       // a=1,b=1 now has no conducting path (d*e off).
            let out = domino_precharge_contention(&gate, &faults, 0b00011, RcParams::typical());
            assert!(out.is_none());
        }

        #[test]
        fn parallel_branch_picks_cheapest_path() {
            let gate = fig9_gate();
            // all-ones: both branches conduct; resistance must be at most
            // the cheaper (2-transistor) branch.
            let out =
                domino_precharge_contention(&gate, &FaultSet::new(), 0b11111, RcParams::typical())
                    .expect("conducts");
            let single_branch =
                domino_precharge_contention(&gate, &FaultSet::new(), 0b00011, RcParams::typical())
                    .expect("conducts");
            assert!(out.v_final <= single_branch.v_final + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "floating node")]
    fn both_open_panics() {
        contention(f64::INFINITY, f64::INFINITY, 0.5, RcParams::typical());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn negative_resistance_panics() {
        contention(-1.0, R, 0.5, RcParams::typical());
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn bad_thresholds_panic() {
        let p = RcParams {
            capacitance: 1e-15,
            vil: 0.8,
            vih: 0.2,
        };
        contention(R, R, 0.5, p);
    }
}
