//! E2 — the paper's Fig. 2: performance degradation by a faulty
//! (stuck-closed) transistor.
//!
//! A permanently closed pull-up `T1` turns the CMOS inverter into a
//! ratioed pull-down inverter: "if the resistance of T1 is larger than the
//! resistance of T2 … the delay for the high to low transition of the
//! output of the faulty circuit would take more time corresponding to the
//! resistance ratio." The series sweeps R(T1)/R(T2) and reports final
//! level and delay.

use dynmos_switch::{contention, ContentionOutcome, RcParams};

/// One point of the Fig. 2 series.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// R(T1)/R(T2).
    pub ratio: f64,
    /// The contention outcome at this ratio.
    pub outcome: ContentionOutcome,
    /// Slowdown vs. the fault-free high→low delay (`inf` if it never
    /// settles).
    pub slowdown: f64,
}

/// The ratio sweep (descending: healthy ratios first).
pub(crate) const RATIOS: [f64; 8] = [10.0, 6.0, 4.0, 3.0, 2.5, 2.0, 1.5, 1.0];

/// Sweeps the resistance ratio with the default RC parameters.
pub(crate) fn series() -> Vec<Point> {
    let params = RcParams::typical();
    let r2 = 10_000.0;
    let good = contention(f64::INFINITY, r2, 1.0, params);
    RATIOS
        .iter()
        .map(|&ratio| {
            let outcome = contention(ratio * r2, r2, 1.0, params);
            Point {
                ratio,
                outcome,
                slowdown: outcome.settle_time / good.settle_time,
            }
        })
        .collect()
}

/// Renders the sweep.
pub(crate) fn run() -> String {
    let pts = series();
    let mut out = String::new();
    out.push_str("Fig. 2: inverter with T1 stuck-closed, R(T1)/R(T2) sweep\n");
    out.push_str(" ratio | V_final | level | slowdown\n");
    for p in &pts {
        let slow = if p.slowdown.is_finite() {
            format!("{:6.1}x", p.slowdown)
        } else {
            "  never".to_owned()
        };
        out.push_str(&format!(
            " {:5.1} |  {:.3}  |   {}   | {}\n",
            p.ratio, p.outcome.v_final, p.outcome.final_level, slow
        ));
    }
    out.push_str(
        "shape: logic value correct only above the ratio threshold, delay grows \
         monotonically as the ratio shrinks (the paper's performance degradation)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmos_switch::Logic;

    #[test]
    fn healthy_ratios_stay_logically_correct_but_slower() {
        for p in series().iter().filter(|p| p.ratio >= 2.5) {
            assert_eq!(p.outcome.final_level, Logic::Zero, "ratio {}", p.ratio);
            assert!(p.slowdown > 1.0, "ratio {}", p.ratio);
        }
    }

    #[test]
    fn degradation_grows_monotonically() {
        let pts = series();
        let finite: Vec<&Point> = pts.iter().filter(|p| p.slowdown.is_finite()).collect();
        for w in finite.windows(2) {
            assert!(
                w[1].slowdown > w[0].slowdown,
                "slowdown must grow as ratio shrinks"
            );
        }
    }

    #[test]
    fn low_ratios_never_reach_a_valid_level() {
        for p in series().iter().filter(|p| p.ratio <= 2.0) {
            assert_eq!(p.outcome.final_level, Logic::X, "ratio {}", p.ratio);
            assert!(!p.outcome.settles());
        }
    }

    #[test]
    fn report_contains_the_sweep() {
        let r = run();
        assert!(r.contains("10.0"));
        assert!(r.contains("never"));
    }
}
