//! E11 — CMOS-3 case b: detection only at maximum speed (sections 3–4).
//!
//! A resistive precharge short slows the pull-down of the internal node;
//! "applying maximum speed testing may detect this fault as an s0-z". The
//! experiment sweeps the clock period against the resistance ratio: a
//! fast (at-speed) clock observes the contended node before it settles
//! (reads the stuck value -> detected); a slow external tester gives it
//! time to settle (fault escapes). The crossover line is the paper's
//! detectability boundary.

use dynmos_switch::{contention, Logic, RcParams};

/// One cell of the period × ratio detection matrix.
#[derive(Debug, Clone, Copy)]
pub struct CellResult {
    /// R(T1)/R(pulldown path) ratio.
    pub ratio: f64,
    /// Clock period in seconds.
    pub period: f64,
    /// `true` when a tester at this period sees the stuck value.
    pub detected: bool,
}

/// Ratios swept (only ratios whose steady state is still logically
/// correct — case b; smaller ratios are case a, stuck for any period).
pub(crate) const RATIOS: [f64; 4] = [10.0, 6.0, 4.0, 3.0];

/// Periods swept, as multiples of the fault-free high→low delay.
pub(crate) const PERIOD_FACTORS: [f64; 6] = [1.0, 1.5, 2.0, 4.0, 8.0, 16.0];

/// Builds the detection matrix.
pub fn matrix() -> Vec<CellResult> {
    let params = RcParams::typical();
    let r2 = 10_000.0;
    let fault_free = contention(f64::INFINITY, r2, 1.0, params);
    let mut out = Vec::new();
    for &ratio in &RATIOS {
        let faulty = contention(ratio * r2, r2, 1.0, params);
        assert_eq!(faulty.final_level, Logic::Zero, "case-b ratios settle");
        for &f in &PERIOD_FACTORS {
            let period = f * fault_free.settle_time;
            // Detected iff the faulty transition has NOT completed within
            // the period while the good one has.
            let detected = fault_free.meets_period(period) && !faulty.meets_period(period);
            out.push(CellResult {
                ratio,
                period,
                detected,
            });
        }
    }
    out
}

/// Renders the detection matrix.
pub(crate) fn run() -> String {
    let cells = matrix();
    let mut out = String::new();
    out.push_str("CMOS-3 case b: at-speed detectability (D = detected as s0-z, . = escapes)\n");
    out.push_str(" period/t_good: ");
    for &f in &PERIOD_FACTORS {
        out.push_str(&format!("{f:>6.1}"));
    }
    out.push('\n');
    for &ratio in &RATIOS {
        out.push_str(&format!(" ratio {ratio:>5.1}:   "));
        for &f in &PERIOD_FACTORS {
            let c = cells
                .iter()
                .find(|c| {
                    c.ratio == ratio && (c.period / f).is_finite() && {
                        let params = RcParams::typical();
                        let good = contention(f64::INFINITY, 10_000.0, 1.0, params);
                        (c.period - f * good.settle_time).abs() < 1e-15
                    }
                })
                .expect("matrix cell");
            out.push_str(&format!("{:>6}", if c.detected { "D" } else { "." }));
        }
        out.push('\n');
    }
    out.push_str(
        "shape: every ratio has a crossover period below which the fault is seen \
         (at-speed testing) and above which it escapes (slow external tester)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tightest_period_detects_everything() {
        for c in matrix().iter().filter(|c| {
            let params = RcParams::typical();
            let good = contention(f64::INFINITY, 10_000.0, 1.0, params);
            (c.period - good.settle_time).abs() < 1e-15
        }) {
            assert!(c.detected, "ratio {} escaped at speed", c.ratio);
        }
    }

    #[test]
    fn slow_enough_period_always_escapes() {
        // At 16x the fault-free delay every case-b ratio has settled.
        let params = RcParams::typical();
        let good = contention(f64::INFINITY, 10_000.0, 1.0, params);
        for c in matrix()
            .iter()
            .filter(|c| (c.period - 16.0 * good.settle_time).abs() < 1e-15)
        {
            assert!(!c.detected, "ratio {} still detected at 16x", c.ratio);
        }
    }

    #[test]
    fn detection_is_monotone_in_period() {
        // For a fixed ratio, once the period is long enough to escape,
        // longer periods must also escape.
        for &ratio in &RATIOS {
            let mut cells: Vec<&CellResult> = Vec::new();
            let m = matrix();
            for c in &m {
                if c.ratio == ratio {
                    cells.push(c);
                }
            }
            let mut escaped = false;
            for c in cells {
                if !c.detected {
                    escaped = true;
                } else {
                    assert!(!escaped, "ratio {ratio}: detection after escape");
                }
            }
        }
    }

    #[test]
    fn report_shows_crossover() {
        let r = run();
        assert!(r.contains("D"));
        assert!(r.contains("."));
    }
}
