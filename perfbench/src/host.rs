//! Host-speed correction for the end-to-end timings.
//!
//! The benchmark runs on a few vCPUs of a shared host. Their speed
//! changes with the neighbours' load: for seconds to minutes at a time
//! every job runs about 1.5x slower, and two ten-run sets taken minutes
//! apart can differ by that much in their medians. No statistic over
//! the program's own timings can tell such a phase from a slower
//! program, so the client times a fixed reference computation of its
//! own right before each timed operation, and every reported time is
//! scaled to a host that runs the reference in [`REFERENCE_S`]:
//! `corrected = measured × REFERENCE_S / reference`. The reference
//! shares no code with the program, so a change to the program moves the
//! corrected figures exactly as it moves the measured ones; the measured
//! figures go to stderr.

use crate::stats::median;
use std::time::Instant;

/// Keys sorted by one reference run.
const KEYS: usize = 8192;

/// The reference run's time on an idle 2-vCPU Intel Xeon virtual
/// machine (the fast end of its range there): the unit of the corrected
/// figures.
pub const REFERENCE_S: f64 = 1.2e-4;

/// Times one reference run: fill [`KEYS`] fixed pseudo-random keys and
/// sort them. Branchy, cache-resident integer work, like the program's
/// symbolic and table-driven code.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    let mut z: u64 = 0x2545_F491_4F6C_DD1D;
    let mut keys: Vec<u32> = (0..KEYS)
        .map(|_| {
            z = z
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (z >> 33) as u32
        })
        .collect();
    keys.sort_unstable();
    std::hint::black_box(&keys);
    t.elapsed().as_secs_f64()
}

/// `measured` seconds scaled to the reference host, given the reference
/// runs timed around it (their median is the host's speed then).
pub fn corrected(measured: f64, references: &[f64]) -> f64 {
    measured * REFERENCE_S / median(references)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_at_reference_speed_leaves_times_alone() {
        assert_eq!(corrected(0.25, &[REFERENCE_S]), 0.25);
        // A host running everything 1.5x slower: the job took 0.375 s and
        // the reference 1.5 × REFERENCE_S; the correction undoes both.
        let slow = 1.5 * REFERENCE_S;
        assert!((corrected(0.375, &[slow, slow, 9.0 * slow]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn the_reference_run_takes_measurable_time() {
        let t = reference_s();
        assert!(t > 0.0 && t < 1.0, "{t}");
    }
}
