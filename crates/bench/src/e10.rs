//! E10 — fault library generation cost (section 5).
//!
//! "The creation of the fault library needs only a few seconds for a
//! normal sized gate (less than 12 transistors of the switching net)" —
//! on 1986 hardware. The experiment measures generation time against the
//! switch-transistor count on seeded random domino cells. We do not match
//! the absolute number (our hardware is ~40 years newer); the *shape*
//! claim is that generation stays trivially cheap for normal-sized gates
//! and grows smoothly with size.

use dynmos_core::FaultLibrary;
use dynmos_netlist::generate::random_domino_cell;
use std::time::Instant;

/// One measurement point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Switch transistors in `SN`.
    pub switches: usize,
    /// Classes produced (averaged over seeds, rounded).
    pub classes: usize,
    /// Mean generation time in microseconds.
    pub micros: f64,
}

/// Sweeps the switch count. Each point averages `seeds` random cells of
/// ~`switches` literals over `max(switches/2, 3)`-ish inputs.
pub(crate) fn sweep(seeds: u64) -> Vec<Point> {
    (2..=14)
        .map(|switches| {
            let nvars = (switches / 2).clamp(2, 6);
            let mut total = 0.0;
            let mut classes = 0usize;
            for seed in 0..seeds {
                let cell = random_domino_cell(1000 + seed, nvars, switches);
                let t0 = Instant::now();
                let lib = FaultLibrary::generate(&cell);
                total += t0.elapsed().as_secs_f64() * 1e6;
                classes += lib.classes().len();
            }
            Point {
                switches,
                classes: classes / seeds as usize,
                micros: total / seeds as f64,
            }
        })
        .collect()
}

/// Renders the experiment.
pub(crate) fn run() -> String {
    let pts = sweep(5);
    let mut out = String::new();
    out.push_str("fault library generation cost vs switch-transistor count\n");
    out.push_str(" switches | classes (avg) | time (us, avg of 5 cells)\n");
    for p in &pts {
        out.push_str(&format!(
            "    {:>2}    |      {:>3}      | {:>10.1}\n",
            p.switches, p.classes, p.micros
        ));
    }
    out.push_str(
        "paper: \"a few seconds\" per <12-transistor gate on 1986 hardware; \
         measured: microseconds on modern hardware — the shape (cheap, smooth growth) holds\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_fast_for_paper_sized_gates() {
        for p in sweep(3) {
            if p.switches < 12 {
                assert!(
                    p.micros < 1_000_000.0,
                    "{} switches took {} us",
                    p.switches,
                    p.micros
                );
            }
        }
    }

    #[test]
    fn class_count_grows_with_gate_size() {
        let pts = sweep(3);
        let small = pts.first().expect("nonempty").classes;
        let large = pts.last().expect("nonempty").classes;
        assert!(large > small);
    }

    #[test]
    fn report_has_all_rows() {
        let r = run();
        for s in 2..=14 {
            assert!(r.contains(&format!("    {s:>2}    |")), "row {s} missing");
        }
    }
}
