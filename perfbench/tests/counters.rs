//! Two short back-to-back replays of every workload must count exactly
//! the same deterministic work: patterns, gate-word evaluations, the
//! testability tier census, journal appends and bytes, library classes.

use dynmos_perfbench::gen::{Scale, Workload};
use dynmos_perfbench::replay::{replay, DETERMINISTIC_COUNTERS};
use std::path::{Path, PathBuf};

fn counters(workload: Workload, seed: u64, work: &Path) -> Vec<(&'static str, f64)> {
    let r = replay(workload, seed, Scale::Small, true, work).expect("replay runs");
    assert_eq!(
        r.failed,
        0,
        "{}: replayed outputs disagree",
        workload.name()
    );
    assert!(r.attempted > 0);
    DETERMINISTIC_COUNTERS
        .iter()
        .map(|&name| (name, r.tracer.counter(name)))
        .collect()
}

#[test]
fn back_to_back_runs_repeat_the_deterministic_counters() {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-counters");
    std::fs::create_dir_all(&work).expect("scratch dir");
    for workload in Workload::ALL {
        let first = counters(workload, 7, &work);
        let second = counters(workload, 7, &work);
        assert_eq!(first, second, "{}", workload.name());
        let get = |name: &str| first.iter().find(|(n, _)| *n == name).map_or(0.0, |c| c.1);
        match workload {
            Workload::FsimWeighted => {
                assert!(get("fsim.patterns") > 0.0 && get("eval.gate_word_evals") > 0.0);
            }
            // The replay fails a roomy `auto` job whose own census lacks
            // BDD or cutting faults, so `failed == 0` above covers it.
            Workload::TestabilityTiers => {
                assert!(get("testability.faults.bdd") > 0.0);
                assert!(get("testability.faults.cutting") > 0.0);
            }
            Workload::JournalSmallJobs => {
                assert!(get("journal.appends") > 0.0 && get("journal.bytes") > 0.0);
            }
            Workload::LibraryCells => assert!(get("library.classes") > 0.0),
        }
    }
}
