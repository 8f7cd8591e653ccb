//! Static fault simulation, 64-way pattern-parallel and fault-sharded
//! across threads.
//!
//! "Since we are only dealing with combinational networks, a static fault
//! simulation is sufficient, if the user wants to validate the predictions
//! of PROTEST." — and the paper's dynamic fault model is exactly what
//! makes this legal: every fault stays combinational, so the classic
//! inject-and-compare simulation works (unlike for static CMOS stuck-opens,
//! where "the fault injection algorithms … don't work any more").
//!
//! The simulator is serial-fault, parallel-pattern: each 64-pattern batch
//! is evaluated once for the fault-free machine on the network's compiled
//! instruction tape, and each live fault is then replayed *event-driven*
//! ([`dynmos_netlist::PackedEvaluator`]): only the gates its effect
//! reaches on the batch at hand, a subset of its static fanout cone that
//! under weighted patterns is usually a few gates, comparing only the
//! primary outputs that came to differ. Fault dropping removes detected
//! faults from the live list.
//!
//! On top of that, [`FaultSimulator::run_random`] shards work over
//! threads along whichever axis the two-axis planner
//! ([`crate::parallel::plan_shards`]) picks: the **fault axis** (each
//! worker owns an evaluator and replays the whole counter-based stream
//! for its fault slice) when the list can feed every worker, or the
//! **pattern axis** (each worker simulates every fault over a contiguous
//! batch range of the stream, [`crate::random::StreamSpan`]) in the
//! few-fault regime. Pattern shards merge by the minimum detection index
//! per fault — a fault's first detection over the whole stream is the
//! earliest of its per-range first detections — so either axis is
//! **bit-identical to the serial run at any thread count** (see the
//! determinism contract in [`crate::parallel`]).

use crate::budget::{self, RunBudget, RunStatus};
use crate::list::FaultEntry;
use crate::parallel::{Parallelism, ShardError, StreamWalk, WalkEnd};
use crate::random::PatternSource;
use crate::service::json::Json;
use dynmos_netlist::{Network, PackedEvaluator};
use std::time::Duration;

/// Stream batches per budgeted chunk (256 batches = 16384 patterns):
/// the granularity at which budgets are checked and checkpoints land.
/// A property of the workload, never of the thread count — chunking is
/// invisible to the merged result (see [`crate::parallel`]).
const CHUNK_BATCHES: u64 = 256;

/// Result of a fault-simulation run.
#[derive(Debug, Clone)]
pub struct FsimOutcome {
    /// For each fault (by list index): the 1-based pattern number at which
    /// it was first detected, or `None` if it escaped.
    pub detected_at: Vec<Option<u64>>,
    /// Total patterns applied.
    pub patterns_applied: u64,
    /// Coverage curve: `(patterns, detected count)` sampled after each
    /// 64-pattern batch.
    pub coverage_curve: Vec<(u64, usize)>,
}

impl FsimOutcome {
    /// Fraction of faults detected. An empty fault list is vacuously
    /// fully covered (`1.0`): every fault in it — all zero of them — was
    /// detected, and "0% coverage" would read as a failed run.
    pub fn coverage(&self) -> f64 {
        if self.detected_at.is_empty() {
            return 1.0;
        }
        let detected = self.detected_at.iter().filter(|d| d.is_some()).count();
        detected as f64 / self.detected_at.len() as f64
    }

    /// Indices of undetected faults.
    pub fn escapes(&self) -> Vec<usize> {
        self.detected_at
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.is_none().then_some(i))
            .collect()
    }
}

/// Reconstructs the per-batch coverage curve from detection indices: the
/// count at pattern budget `t` is exactly the number of faults with
/// `detected_at <= t`, which is what the serial loop accumulates batch by
/// batch.
fn curve_from(detected_at: &[Option<u64>], patterns_applied: u64) -> Vec<(u64, usize)> {
    let mut sorted: Vec<u64> = detected_at.iter().flatten().copied().collect();
    sorted.sort_unstable();
    let mut curve = Vec::with_capacity(patterns_applied.div_ceil(64) as usize);
    let mut applied = 0u64;
    while applied < patterns_applied {
        applied += (patterns_applied - applied).min(64);
        let detected = sorted.partition_point(|&d| d <= applied);
        curve.push((applied, detected));
    }
    curve
}

/// Merges a chunk's detection index into a fault's slot: a fault's
/// first detection over the whole stream is the **minimum** of its first
/// detections over any disjoint cover of the stream (absent in a range
/// ⇒ `None` there). The merge is order-independent, so the result cannot
/// depend on how the pattern axis was cut.
fn merge_min_detection(merged: &mut Option<u64>, d: Option<u64>) {
    *merged = match (*merged, d) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
}

/// Resumable state of an interrupted [`FaultSimulator::run_random`]:
/// the stream position the run started at, how many batches are fully
/// simulated, and the per-fault detection state so far. Feeding it to
/// [`FaultSimulator::resume_random`] continues the identical walk — the
/// completed result is bit-identical to an uninterrupted serial run.
#[derive(Debug, Clone)]
pub struct FsimCheckpoint {
    /// Stream position at the original run's start (batch addressing is
    /// absolute, so resuming does not depend on the source's cursor).
    start: u64,
    /// Batches fully simulated so far.
    batches_done: u64,
    /// The original run's pattern budget.
    max_patterns: u64,
    /// Detection state so far (1-based absolute pattern indices).
    detected_at: Vec<Option<u64>>,
}

impl FsimCheckpoint {
    /// The checkpoint as a JSON object — every field is exact (counts
    /// stay within `2^53`, where JSON numbers are integers), so
    /// [`FsimCheckpoint::from_json`] round-trips bit-identically and a
    /// resume from the deserialized checkpoint equals a resume from the
    /// original.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::str("fsim")),
            ("start".into(), Json::num(self.start)),
            ("batches_done".into(), Json::num(self.batches_done)),
            ("max_patterns".into(), Json::num(self.max_patterns)),
            (
                "detected_at".into(),
                Json::Arr(
                    self.detected_at
                        .iter()
                        .map(|d| d.map_or(Json::Null, Json::num))
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuilds a checkpoint from [`FsimCheckpoint::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message for missing/mistyped fields, a wrong `kind`,
    /// more batches than the pattern budget needs, or a detection index
    /// of `0` or past the patterns simulated — states no run can reach.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        if v.get("kind").and_then(Json::as_str) != Some("fsim") {
            return Err("not an fsim checkpoint".into());
        }
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("fsim checkpoint: bad or missing {k:?}"))
        };
        let detected_at = v
            .get("detected_at")
            .and_then(Json::as_arr)
            .ok_or("fsim checkpoint: bad or missing \"detected_at\"")?
            .iter()
            .map(|d| match d {
                Json::Null => Ok(None),
                other => other
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("fsim checkpoint: bad detection index {other}")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let cp = Self {
            start: field("start")?,
            batches_done: field("batches_done")?,
            max_patterns: field("max_patterns")?,
            detected_at,
        };
        if cp.batches_done > cp.max_patterns.div_ceil(64) {
            return Err(format!(
                "fsim checkpoint: {} batches done exceed the {} needed for {} patterns",
                cp.batches_done,
                cp.max_patterns.div_ceil(64),
                cp.max_patterns
            ));
        }
        let patterns_done = cp.patterns_done();
        if let Some(d) = cp
            .detected_at
            .iter()
            .flatten()
            .find(|&&d| d == 0 || d > patterns_done)
        {
            return Err(format!(
                "fsim checkpoint: detection index {d} outside 1..={patterns_done}"
            ));
        }
        Ok(cp)
    }

    /// Patterns fully simulated so far.
    pub fn patterns_done(&self) -> u64 {
        self.batches_done.saturating_mul(64).min(self.max_patterns)
    }

    /// Faults detected so far.
    pub fn detected_count(&self) -> usize {
        self.detected_at.iter().filter(|d| d.is_some()).count()
    }
}

/// Result of a budgeted fault-simulation call: the outcome over the
/// patterns actually applied, whether the run completed, and — when
/// interrupted — the checkpoint to resume from.
#[derive(Debug, Clone)]
pub struct BudgetedFsim {
    /// Detection state over the patterns applied so far (a completed
    /// run's outcome equals the unbudgeted run's exactly).
    pub outcome: FsimOutcome,
    /// Completed, or interrupted at a chunk boundary.
    pub status: RunStatus,
    /// `Some` exactly when interrupted: resume with
    /// [`FaultSimulator::resume_random`].
    pub checkpoint: Option<FsimCheckpoint>,
    /// `Some` exactly when the status is
    /// [`RunStatus::Interrupted`]`(`[`crate::StopReason::WorkerFailed`]`)`:
    /// the shard whose worker panicked twice. The failed chunk was **not**
    /// merged — outcome and checkpoint hold the state at the last
    /// completed chunk boundary, so resuming retries the failed chunk.
    pub worker_error: Option<ShardError>,
}

/// Serial-fault, pattern-parallel fault simulator with fault dropping and
/// optional two-axis (fault- or pattern-sharded) multithreading.
#[derive(Debug, Clone)]
pub struct FaultSimulator<'n> {
    net: &'n Network,
    parallelism: Parallelism,
}

impl<'n> FaultSimulator<'n> {
    /// Creates a simulator for `net` with the default parallelism
    /// ([`Parallelism::Auto`]: all available cores — safe, because the
    /// parallel path is bit-identical to the serial one).
    pub fn new(net: &'n Network) -> Self {
        Self::with_parallelism(net, Parallelism::default())
    }

    /// Creates a simulator with an explicit thread policy.
    pub fn with_parallelism(net: &'n Network, parallelism: Parallelism) -> Self {
        Self { net, parallelism }
    }

    /// Runs random patterns from `source` until all faults are detected or
    /// `max_patterns` have been applied. The final batch is lane-masked,
    /// so `patterns_applied` and detection indices never exceed
    /// `max_patterns` even when it is not a multiple of 64.
    ///
    /// Work is sharded over worker threads along the axis
    /// [`crate::parallel::plan_shards`] picks: fault slices replaying
    /// the whole stream, or — when the fault list cannot feed every
    /// worker — contiguous batch ranges of the stream covering the whole
    /// list, merged by the minimum detection index per fault. The result (and the source's
    /// final cursor) is bit-identical at any thread count on either axis.
    ///
    /// When `DYNMOS_BUDGET_MS` is set, the run is executed as an
    /// interrupt/resume loop with that per-leg deadline — exercising
    /// every checkpoint path while returning the identical result.
    ///
    /// # Panics
    ///
    /// Panics if the source arity does not match the network.
    pub fn run_random(
        &self,
        faults: &[FaultEntry],
        source: &mut PatternSource,
        max_patterns: u64,
    ) -> FsimOutcome {
        let ms = budget::env_budget_ms();
        let leg = || {
            ms.map_or_else(RunBudget::unlimited, |ms| {
                RunBudget::deadline_in(Duration::from_millis(ms))
            })
        };
        let mut run = self.run_random_budgeted(faults, source, max_patterns, &leg());
        loop {
            // A worker that failed even its serial retry keeps the
            // historical panicking contract on this entry point.
            if let Some(e) = &run.worker_error {
                panic!("{e}");
            }
            let Some(cp) = run.checkpoint.take() else {
                return run.outcome;
            };
            run = self.resume_random(faults, source, cp, &leg());
        }
    }

    /// [`Self::run_random`] under a [`RunBudget`]: stops at the first
    /// chunk boundary past the deadline, cancellation, or per-call
    /// pattern cap, returning the partial outcome plus a checkpoint to
    /// [`Self::resume_random`] from. At least one chunk of work is done
    /// per call (forward progress), and a run completed across any
    /// number of interruptions is bit-identical to an uninterrupted
    /// serial run — detection indices, `patterns_applied`, coverage
    /// curve, and the source's final cursor.
    ///
    /// # Panics
    ///
    /// Panics if the source arity does not match the network.
    pub fn run_random_budgeted(
        &self,
        faults: &[FaultEntry],
        source: &mut PatternSource,
        max_patterns: u64,
        run_budget: &RunBudget,
    ) -> BudgetedFsim {
        assert_eq!(
            source.input_count(),
            self.net.primary_inputs().len(),
            "pattern source arity mismatch"
        );
        if faults.is_empty() {
            return BudgetedFsim {
                outcome: FsimOutcome {
                    detected_at: Vec::new(),
                    patterns_applied: 0,
                    coverage_curve: Vec::new(),
                },
                status: RunStatus::Completed,
                checkpoint: None,
                worker_error: None,
            };
        }
        let checkpoint = FsimCheckpoint {
            start: source.position(),
            batches_done: 0,
            max_patterns,
            detected_at: vec![None; faults.len()],
        };
        self.advance(faults, source, checkpoint, run_budget)
    }

    /// Continues an interrupted [`Self::run_random_budgeted`] run from
    /// its checkpoint under a fresh budget. The fault list must be the
    /// one the checkpoint was taken with; batch addressing is absolute,
    /// so the source need only be the same stream (same seed and
    /// weights) — its cursor is ignored and rewritten.
    ///
    /// # Panics
    ///
    /// Panics on source arity mismatch or if the checkpoint's fault
    /// count differs from `faults`.
    pub fn resume_random(
        &self,
        faults: &[FaultEntry],
        source: &mut PatternSource,
        checkpoint: FsimCheckpoint,
        run_budget: &RunBudget,
    ) -> BudgetedFsim {
        assert_eq!(
            source.input_count(),
            self.net.primary_inputs().len(),
            "pattern source arity mismatch"
        );
        assert_eq!(
            checkpoint.detected_at.len(),
            faults.len(),
            "checkpoint fault count mismatch"
        );
        self.advance(faults, source, checkpoint, run_budget)
    }

    /// The chunked walk both entry points share
    /// ([`StreamWalk`]): each chunk simulates only the still-live faults
    /// over a fixed batch range and merges by the minimum detection
    /// index, so chunk boundaries are invisible to the final state.
    fn advance(
        &self,
        faults: &[FaultEntry],
        source: &mut PatternSource,
        checkpoint: FsimCheckpoint,
        run_budget: &RunBudget,
    ) -> BudgetedFsim {
        let FsimCheckpoint {
            start,
            batches_done,
            max_patterns,
            mut detected_at,
        } = checkpoint;
        let total_batches = max_patterns.div_ceil(64);
        let src: &PatternSource = source;
        let WalkEnd {
            done: batches_done,
            stop,
            error: worker_error,
        } = StreamWalk {
            done: batches_done,
            total: total_batches,
            chunk: CHUNK_BATCHES,
            unit_patterns: 64,
            threads: self.parallelism.resolve(),
            budget: run_budget,
        }
        .run(
            &mut detected_at,
            |detected_at| {
                detected_at
                    .iter()
                    .enumerate()
                    .filter_map(|(i, d)| d.is_none().then_some(i))
                    .collect()
            },
            |subset, span| self.random_span(faults, subset, src, start, span, max_patterns),
            merge_min_detection,
        );
        if let Some(reason) = stop {
            let patterns_applied = (batches_done * 64).min(max_patterns);
            source.set_position(start + batches_done);
            return BudgetedFsim {
                outcome: FsimOutcome {
                    coverage_curve: curve_from(&detected_at, patterns_applied),
                    detected_at: detected_at.clone(),
                    patterns_applied,
                },
                status: RunStatus::Interrupted(reason),
                checkpoint: Some(FsimCheckpoint {
                    start,
                    batches_done,
                    max_patterns,
                    detected_at,
                }),
                worker_error,
            };
        }
        // Reconstruct the serial stopping point from the merged indices:
        // the serial loop consumes batches until its live list empties
        // (the batch holding the last first-detection) or the budget runs
        // out — identical on both axes and at any chunking, because the
        // merged indices are.
        let batches = if detected_at.iter().all(Option::is_some) {
            detected_at
                .iter()
                .flatten()
                .max()
                .map_or(0, |d| d.div_ceil(64))
        } else {
            total_batches
        };
        let patterns_applied = (batches * 64).min(max_patterns);
        source.set_position(start + batches);
        BudgetedFsim {
            outcome: FsimOutcome {
                coverage_curve: curve_from(&detected_at, patterns_applied),
                detected_at,
                patterns_applied,
            },
            status: RunStatus::Completed,
            checkpoint: None,
            worker_error: None,
        }
    }

    /// The kernel both axes share: simulates the fault-list `subset`
    /// (indices into `faults`) over the stream batches `span` (relative
    /// to the stream offset `start`), recording absolute 1-based
    /// first-detection indices in subset order and dropping each fault
    /// at its first detection within the span. The fault axis calls it
    /// with the full span and a subset slice; the pattern axis with a
    /// span slice and the full subset.
    fn random_span(
        &self,
        faults: &[FaultEntry],
        subset: &[usize],
        source: &PatternSource,
        start: u64,
        span: std::ops::Range<u64>,
        max_patterns: u64,
    ) -> Vec<Option<u64>> {
        let mut ev = PackedEvaluator::new(self.net);
        let prepared: Vec<_> = subset
            .iter()
            .map(|&fi| self.net.prepare_fault(&faults[fi].fault))
            .collect();
        let stream = source.span(start + span.start..start + span.end);
        let mut detected_at: Vec<Option<u64>> = vec![None; subset.len()];
        let mut live: Vec<usize> = (0..subset.len()).collect();
        let mut batch = vec![0u64; source.input_count()];
        for k in 0..stream.len() {
            if live.is_empty() {
                break;
            }
            stream.fill_batch(k, &mut batch);
            ev.eval(&batch);
            let applied = (span.start + k) * 64;
            let lanes = (max_patterns - applied).min(64);
            let lanes_mask = if lanes == 64 {
                u64::MAX
            } else {
                (1u64 << lanes) - 1
            };
            live.retain(|&fi| {
                let differ = ev.fault_diff64(&prepared[fi]) & lanes_mask;
                if differ != 0 {
                    let first_lane = differ.trailing_zeros() as u64;
                    detected_at[fi] = Some(applied + first_lane + 1);
                    false // drop
                } else {
                    true
                }
            });
        }
        detected_at
    }

    /// Applies an explicit deterministic pattern set (each pattern a PI
    /// assignment); useful for validating ATPG test sets.
    pub fn run_patterns(&self, faults: &[FaultEntry], patterns: &[Vec<bool>]) -> FsimOutcome {
        let n = self.net.primary_inputs().len();
        let mut ev = PackedEvaluator::new(self.net);
        let prepared: Vec<_> = faults
            .iter()
            .map(|e| self.net.prepare_fault(&e.fault))
            .collect();
        let mut detected_at: Vec<Option<u64>> = vec![None; faults.len()];
        let mut live: Vec<usize> = (0..faults.len()).collect();
        let mut detected = 0usize;
        let mut applied = 0u64;
        let mut curve = Vec::new();
        let mut batch = vec![0u64; n];
        for chunk in patterns.chunks(64) {
            batch.fill(0);
            for (lane, pat) in chunk.iter().enumerate() {
                assert_eq!(pat.len(), n, "pattern arity mismatch");
                for (i, &b) in pat.iter().enumerate() {
                    if b {
                        batch[i] |= 1 << lane;
                    }
                }
            }
            let lanes_mask = if chunk.len() == 64 {
                u64::MAX
            } else {
                (1u64 << chunk.len()) - 1
            };
            ev.eval(&batch);
            live.retain(|&fi| {
                let differ = ev.fault_diff64(&prepared[fi]) & lanes_mask;
                if differ != 0 {
                    let first_lane = differ.trailing_zeros() as u64;
                    detected_at[fi] = Some(applied + first_lane + 1);
                    detected += 1;
                    false
                } else {
                    true
                }
            });
            applied += chunk.len() as u64;
            curve.push((applied, detected));
        }
        FsimOutcome {
            detected_at,
            patterns_applied: applied,
            coverage_curve: curve,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::StopReason;
    use crate::list::network_fault_list;
    use dynmos_netlist::generate::{
        and_or_tree, c17_dynamic_nmos, domino_wide_and, fig9_cell, single_cell_network,
    };

    /// Index of the constant-0 gate-function class (the s0-z fault).
    fn s0z_index(list: &[FaultEntry]) -> usize {
        list.iter()
            .position(|e| {
                matches!(&e.fault,
                    dynmos_netlist::NetworkFault::GateFunction(_, f)
                        if *f == dynmos_logic::Bexpr::FALSE)
            })
            .expect("s0-z class exists")
    }

    #[test]
    fn random_simulation_reaches_full_coverage_on_fig9() {
        let net = single_cell_network(fig9_cell());
        let faults = network_fault_list(&net);
        let mut src = PatternSource::uniform(11, 5);
        let out = FaultSimulator::new(&net).run_random(&faults, &mut src, 10_000);
        assert_eq!(out.coverage(), 1.0, "escapes: {:?}", out.escapes());
    }

    #[test]
    fn coverage_curve_is_monotone() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let mut src = PatternSource::uniform(3, 5);
        let out = FaultSimulator::new(&net).run_random(&faults, &mut src, 1024);
        for w in out.coverage_curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    fn hard_fault_detected_late_under_uniform() {
        let n = 10;
        let net = single_cell_network(domino_wide_and(n));
        let faults = network_fault_list(&net);
        let mut src = PatternSource::uniform(19, n);
        let out = FaultSimulator::new(&net).run_random(&faults, &mut src, 200_000);
        let hard = s0z_index(&faults);
        let t = out.detected_at[hard].expect("should eventually hit all-ones");
        // Expected detection time ~2^10 = 1024; allow wide slack but
        // require it to be non-trivial.
        assert!(t > 64, "detected suspiciously early: {t}");
    }

    #[test]
    fn weighted_patterns_detect_hard_fault_much_faster() {
        let n = 10;
        let net = single_cell_network(domino_wide_and(n));
        let faults = network_fault_list(&net);
        let hard = s0z_index(&faults);
        let mut uni = PatternSource::uniform(19, n);
        let mut opt = PatternSource::new(19, vec![0.9375; n]);
        let sim = FaultSimulator::new(&net);
        let t_uni = sim.run_random(&faults, &mut uni, 500_000).detected_at[hard].unwrap();
        let t_opt = sim.run_random(&faults, &mut opt, 500_000).detected_at[hard].unwrap();
        assert!(
            t_uni > 10 * t_opt,
            "weighted {t_opt} should be >10x faster than uniform {t_uni}"
        );
    }

    #[test]
    fn deterministic_pattern_set_detection() {
        let net = single_cell_network(fig9_cell());
        let faults = network_fault_list(&net);
        // Exhaustive 32-pattern set must catch everything.
        let patterns: Vec<Vec<bool>> = (0..32u64)
            .map(|w| (0..5).map(|i| (w >> i) & 1 == 1).collect())
            .collect();
        let out = FaultSimulator::new(&net).run_patterns(&faults, &patterns);
        assert_eq!(out.coverage(), 1.0);
        assert_eq!(out.patterns_applied, 32);
    }

    #[test]
    fn partial_pattern_set_leaves_escapes() {
        let net = single_cell_network(domino_wide_and(8));
        let faults = network_fault_list(&net);
        // All-zeros only: detects s1-z-ish faults, misses s0-z.
        let out = FaultSimulator::new(&net).run_patterns(&faults, &[vec![false; 8]]);
        assert!(out.coverage() < 1.0);
        assert!(!out.escapes().is_empty());
    }

    #[test]
    fn run_random_respects_non_multiple_of_64_budget() {
        let net = single_cell_network(domino_wide_and(10));
        let faults = network_fault_list(&net);
        let mut src = PatternSource::uniform(19, 10);
        let out = FaultSimulator::new(&net).run_random(&faults, &mut src, 100);
        assert!(out.patterns_applied <= 100, "{}", out.patterns_applied);
        for d in out.detected_at.iter().flatten() {
            assert!(*d <= 100, "detection index {d} exceeds budget");
        }
        assert!(out.coverage_curve.iter().all(|&(p, _)| p <= 100));
    }

    #[test]
    fn coverage_curve_counts_match_detected_at() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let mut src = PatternSource::uniform(7, 5);
        let out = FaultSimulator::new(&net).run_random(&faults, &mut src, 512);
        let (_, final_count) = *out.coverage_curve.last().unwrap();
        assert_eq!(
            final_count,
            out.detected_at.iter().filter(|d| d.is_some()).count()
        );
    }

    #[test]
    fn detection_times_are_one_based_and_bounded() {
        let net = and_or_tree(2);
        let faults = network_fault_list(&net);
        let mut src = PatternSource::uniform(5, 4);
        let out = FaultSimulator::new(&net).run_random(&faults, &mut src, 2048);
        for d in out.detected_at.iter().flatten() {
            assert!(*d >= 1 && *d <= out.patterns_applied);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let mut serial_src = PatternSource::uniform(23, 5);
        let serial = FaultSimulator::with_parallelism(&net, Parallelism::Serial).run_random(
            &faults,
            &mut serial_src,
            4096,
        );
        for threads in [2usize, 3, 8] {
            let mut src = PatternSource::uniform(23, 5);
            let sim = FaultSimulator::with_parallelism(&net, Parallelism::Fixed(threads));
            let out = sim.run_random(&faults, &mut src, 4096);
            assert_eq!(out.detected_at, serial.detected_at, "threads={threads}");
            assert_eq!(out.patterns_applied, serial.patterns_applied);
            assert_eq!(out.coverage_curve, serial.coverage_curve);
            assert_eq!(src.position(), serial_src.position());
        }
    }

    #[test]
    fn empty_fault_list_is_vacuously_covered() {
        // Convention: zero faults to find means nothing escaped — full
        // coverage, not the alarming 0.0 this used to report.
        let net = c17_dynamic_nmos();
        let mut src = PatternSource::uniform(1, 5);
        let out = FaultSimulator::new(&net).run_random(&[], &mut src, 128);
        assert_eq!(out.coverage(), 1.0);
        assert_eq!(out.patterns_applied, 0);
        assert!(out.escapes().is_empty());
        let from_patterns = FaultSimulator::new(&net).run_patterns(&[], &[vec![false; 5]]);
        assert_eq!(from_patterns.coverage(), 1.0);
    }

    #[test]
    fn few_fault_pattern_axis_matches_serial() {
        // 2 live faults < threads forces the pattern-axis plan; the
        // min-detection-index merge must reproduce the serial run.
        let net = single_cell_network(domino_wide_and(10));
        let faults = network_fault_list(&net);
        let hard = s0z_index(&faults);
        let few = vec![faults[0].clone(), faults[hard].clone()];
        let mut serial_src = PatternSource::uniform(19, 10);
        let serial = FaultSimulator::with_parallelism(&net, Parallelism::Serial).run_random(
            &few,
            &mut serial_src,
            100_000,
        );
        for threads in [4usize, 8, 16] {
            let mut src = PatternSource::uniform(19, 10);
            let sim = FaultSimulator::with_parallelism(&net, Parallelism::Fixed(threads));
            let out = sim.run_random(&few, &mut src, 100_000);
            assert_eq!(out.detected_at, serial.detected_at, "threads={threads}");
            assert_eq!(out.patterns_applied, serial.patterns_applied);
            assert_eq!(out.coverage_curve, serial.coverage_curve);
            assert_eq!(src.position(), serial_src.position());
        }
    }

    #[test]
    fn pattern_cap_interrupts_and_resume_matches_uninterrupted() {
        let net = single_cell_network(domino_wide_and(10));
        let faults = network_fault_list(&net);
        let sim = FaultSimulator::with_parallelism(&net, Parallelism::Serial);
        let mut full_src = PatternSource::uniform(19, 10);
        let full = sim.run_random(&faults, &mut full_src, 100_000);
        // 256 patterns per call: far below the hard fault's detection
        // time, so the cap interrupts repeatedly before completion.
        let cap = RunBudget::unlimited().with_max_patterns(256);
        let mut src = PatternSource::uniform(19, 10);
        let mut run = sim.run_random_budgeted(&faults, &mut src, 100_000, &cap);
        let mut legs = 0usize;
        while let Some(cp) = run.checkpoint.take() {
            assert_eq!(run.status, RunStatus::Interrupted(StopReason::PatternCap));
            assert_eq!(run.outcome.patterns_applied, cp.patterns_done());
            legs += 1;
            assert!(legs < 10_000, "resume loop failed to make progress");
            run = sim.resume_random(&faults, &mut src, cp, &cap);
        }
        assert!(legs > 0, "cap never interrupted");
        assert_eq!(run.status, RunStatus::Completed);
        assert_eq!(run.outcome.detected_at, full.detected_at);
        assert_eq!(run.outcome.patterns_applied, full.patterns_applied);
        assert_eq!(run.outcome.coverage_curve, full.coverage_curve);
        assert_eq!(src.position(), full_src.position());
    }

    #[test]
    fn cancel_interrupts_after_one_chunk_of_forward_progress() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let net = single_cell_network(domino_wide_and(10));
        let faults = network_fault_list(&net);
        // Heavily biased-low inputs: the all-ones fault never fires, so
        // the run cannot complete early and the cancel must be honored.
        let mut src = PatternSource::new(19, vec![0.0625; 10]);
        let pre_cancelled = Arc::new(AtomicBool::new(true));
        let b = RunBudget::unlimited().with_cancel(pre_cancelled);
        let sim = FaultSimulator::with_parallelism(&net, Parallelism::Serial);
        let run = sim.run_random_budgeted(&faults, &mut src, 1_000_000, &b);
        assert_eq!(run.status, RunStatus::Interrupted(StopReason::Cancelled));
        // Forward progress: exactly one chunk ran before the (already
        // raised) flag was checked.
        assert_eq!(run.outcome.patterns_applied, CHUNK_BATCHES * 64);
        let cp = run
            .checkpoint
            .expect("interrupted run carries a checkpoint");
        assert_eq!(cp.patterns_done(), CHUNK_BATCHES * 64);
        assert_eq!(src.position(), CHUNK_BATCHES);
    }

    #[test]
    fn interrupted_outcome_is_a_valid_partial_result() {
        let net = single_cell_network(domino_wide_and(10));
        let faults = network_fault_list(&net);
        let sim = FaultSimulator::with_parallelism(&net, Parallelism::Serial);
        let mut src = PatternSource::uniform(19, 10);
        let cap = RunBudget::unlimited().with_max_patterns(256);
        let run = sim.run_random_budgeted(&faults, &mut src, 100_000, &cap);
        // The partial outcome must agree with an unbudgeted run whose
        // whole budget is the patterns applied so far.
        let mut trunc_src = PatternSource::uniform(19, 10);
        let trunc = sim.run_random(&faults, &mut trunc_src, run.outcome.patterns_applied);
        assert_eq!(run.outcome.detected_at, trunc.detected_at);
        assert_eq!(run.outcome.coverage_curve, trunc.coverage_curve);
    }

    #[test]
    fn checkpoint_with_impossible_counts_is_refused() {
        let parse = |text: &str| FsimCheckpoint::from_json(&Json::parse(text).expect("valid JSON"));
        // 128 patterns take 2 batches; after 1 batch 64 patterns are done.
        for good in [
            r#"{"kind":"fsim","start":0,"batches_done":1,"max_patterns":128,"detected_at":[64,null]}"#,
            r#"{"kind":"fsim","start":5,"batches_done":2,"max_patterns":100,"detected_at":[100,1]}"#,
        ] {
            assert!(parse(good).is_ok(), "{good}");
        }
        for bad in [
            r#"{"kind":"fsim","start":0,"batches_done":2,"max_patterns":128,"detected_at":[999999,null]}"#,
            r#"{"kind":"fsim","start":0,"batches_done":1,"max_patterns":128,"detected_at":[65]}"#,
            r#"{"kind":"fsim","start":0,"batches_done":1,"max_patterns":128,"detected_at":[0]}"#,
            r#"{"kind":"fsim","start":0,"batches_done":3,"max_patterns":128,"detected_at":[]}"#,
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.starts_with("fsim checkpoint:"), "{bad}: {err}");
        }
    }

    #[test]
    fn run_random_advances_source_cursor() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let mut src = PatternSource::uniform(2, 5);
        let sim = FaultSimulator::new(&net);
        let first = sim.run_random(&faults, &mut src, 256);
        // The cursor moved past the consumed batches, so a second run
        // sees fresh patterns.
        assert_eq!(src.position(), first.patterns_applied.div_ceil(64));
    }
}
