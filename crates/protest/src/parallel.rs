//! Thread-sharded execution of the PROTEST kernels.
//!
//! The PR-1 compiled kernel split network evaluation into a shared
//! immutable [`CompiledNetwork`](dynmos_netlist::compile::CompiledNetwork) and per-caller
//! [`dynmos_netlist::PackedEvaluator`] buffers, which makes fault-level
//! parallelism embarrassingly simple: give every worker its own evaluator
//! over a **disjoint slice of the fault list** and let it replay the same
//! pattern stream. No locks, no shared mutable state — the only
//! synchronization is the final merge of per-shard counters.
//!
//! # Two work axes
//!
//! Every PROTEST kernel walks a (faults × patterns) work grid, and
//! [`plan_shards`] picks which axis to cut:
//!
//! - **fault axis** (preferred): disjoint fault slices, each worker
//!   replaying the whole pattern stream — the cheapest merge
//!   (concatenation), chosen whenever the fault list can feed every
//!   worker; or
//! - **pattern axis**: when `faults < threads` (the few-fault regime —
//!   single-hard-fault test-length runs, late-stage PODEM dropping),
//!   disjoint **contiguous batch ranges of the counter-based stream**,
//!   each worker simulating every fault over its range.
//!
//! # Determinism contract
//!
//! Every parallel entry point in this crate is **bit-identical to its
//! serial form at any thread count**: same seed ⇒ same detection
//! indices, same coverage curve, same escape set, same Monte Carlo
//! estimates. Three design rules make this hold:
//!
//! 1. the pattern stream is counter-based ([`crate::PatternSource`]:
//!    batch `b` is a pure function of `(seed, b)`), so workers regenerate
//!    identical patterns instead of racing over one RNG;
//! 2. on the fault axis, every per-fault quantity (detection index, hit
//!    count, exact probability sum) is computed start-to-finish by one
//!    worker in the same order the serial loop uses, so even
//!    floating-point sums associate identically; and
//! 3. on the pattern axis, per-range results merge by an
//!    order-independent rule — the **minimum detection index per fault**
//!    across pattern shards (a fault's first detection over the whole
//!    stream is the earliest of its first detections over any disjoint
//!    cover of the stream; the coverage curve then reconstructs
//!    order-independently from the merged indices), exact integer sums
//!    for Monte Carlo hit counts, and ascending-order folds of
//!    **fixed-size block partials** for floating-point sums (the block
//!    boundaries are a property of the workload, never of the thread
//!    count, so serial and sharded runs add the same partials in the
//!    same order).
//!
//! # Budget, cancellation, and checkpoint contract
//!
//! Every long-running kernel has a budgeted form taking a
//! [`crate::RunBudget`] (deadline, cancellation flag, per-call pattern
//! cap, exact-row cap). Three rules keep budgets compatible with the
//! determinism contract above:
//!
//! 1. **Chunk-boundary checks only.** Budgets are consulted between
//!    fixed-size work chunks (stream-batch blocks, Monte Carlo pass
//!    groups, enumeration row-block groups, per-fault ATPG steps) —
//!    never inside one — so an interrupted run always stops at a state
//!    the serial loop also passes through. Chunk sizes are properties
//!    of the workload, never of the thread count or the budget.
//! 2. **Checkpoints restart the same walk.** An interrupted fault-sim
//!    or Monte Carlo run returns its merged per-fault state (detection
//!    indices, hit counts) plus the stream position of the next chunk.
//!    Because every merge rule above is order-independent and
//!    chunk-invisible, a resumed run is **bit-identical to an
//!    uninterrupted serial run** — the differential tests interrupt,
//!    resume, and compare against serial at several thread counts.
//! 3. **Forward progress.** Each budgeted call completes at least one
//!    chunk before honoring a deadline or cancellation, so a resume
//!    loop under an always-expired budget (`DYNMOS_BUDGET_MS=0`) still
//!    terminates.
//!
//! These rules run in one place: the crate-private `StreamWalk`, behind
//! fault simulation, both Monte Carlo estimators and exact enumeration.
//! It cuts the unit axis (stream batches, wide passes, row blocks) into
//! chunks (one chunk under an unlimited budget), asks the kernel for the
//! targets still live, shards each chunk with [`plan_shards`] and
//! [`try_run_sharded`], merges the shard results into the per-target
//! state, and checks the pattern cap and the budget between chunks only.
//! Shards merge in shard order and chunks in walk order, so even the
//! enumeration's f64 block fold is a property of the workload: each span
//! reports its row blocks' partials in ascending order, and the merge
//! adds them to the running total one by one. A span whose range starts
//! at block 0 may pre-fold its partials into one, because the total it
//! merges into is still +0.0 and `0.0 + x == x` exactly; that keeps the
//! unlimited fault axis at one partial per fault. Only PODEM keeps its
//! own loop: its unit of work is a fault, not a stream chunk.
//!
//! **Exact → symbolic degradation rule:** exact enumeration refuses a
//! row space larger than `crate::RunBudget::effective_exact_rows` up
//! front ([`crate::StopReason::RowCap`]) instead of hanging;
//! [`crate::detection_probability_estimates`] then falls back to the
//! symbolic tiers of [`crate::DetectionEngine`] — the BDD tier, then
//! certified cutting bounds per fault on node overflow — and labels
//! each result with the method that produced it
//! ([`crate::EstimateMethod`]), so callers — including the optimizer —
//! always know which path ran.
//!
//! # Panic isolation
//!
//! [`try_run_sharded`] confines a panicking worker to its shard: the
//! shard is retried **serially, once** (shards are deterministic pure
//! functions of their range, so the retry result — and therefore the
//! merge — is bit-identical to an all-healthy run). A shard that
//! panics twice surfaces a structured [`ShardError`] instead of
//! tearing down the process. [`run_sharded`] keeps its panicking
//! signature on top of the same machinery.
//!
//! # Service & robustness contract
//!
//! The [`crate::service`] job engine supervises the budgeted kernels on
//! top of the guarantees above. The contract it upholds (and that the
//! fault-injection harness in [`crate::chaos`] proves in CI):
//!
//! - **Failure surfacing.** A shard that panics twice becomes
//!   [`crate::StopReason::WorkerFailed`] on the budgeted kernels: the
//!   run stops at the **last merged chunk boundary**, keeps every
//!   already-merged detection/coverage result, and returns a resumable
//!   checkpoint plus the [`ShardError`] — never a torn-down process,
//!   never a half-merged chunk.
//! - **Retry semantics.** The supervisor retries a job leg that died
//!   (worker failure, injected kill) from its last checkpoint. The
//!   retry bound applies to **consecutive** failed legs; any leg that
//!   completes a chunk resets it. Exhausting the bound fails the job
//!   with its partial result attached.
//! - **Backoff bounds.** Delay before retry `k` is
//!   `base · 2^(k-1)` capped at `cap`, scaled by a deterministic jitter
//!   in `[0.5, 1.5)` — so the delay lies in `[base/2, 1.5·cap)` and the
//!   schedule is a pure function of `(seed, job, k)`.
//! - **Shed conditions.** The admission queue is bounded; a submit to a
//!   full queue is rejected immediately with a structured reason
//!   (capacity and pending count), never blocked or buffered
//!   unboundedly.
//! - **Determinism under retries.** Because checkpoints restart the
//!   same chunk walk and merges are chunk-invisible, a job killed and
//!   retried any number of times, at any thread count, produces results
//!   **bit-identical** to one uninterrupted serial run — the
//!   differential tests kill jobs on fixed and randomized schedules and
//!   compare exact output bytes.
//!
//! # `Send`/`Sync` requirements
//!
//! Workers share `&Network` and `&PreparedFault` across
//! [`std::thread::scope`] spawns, which requires the compiled network
//! types to be `Sync`. They are: a finished [`dynmos_netlist::Network`]
//! (cells, instruction tape, fanout cones) is immutable owned data with
//! no interior mutability — `crates/netlist/src/compile.rs` carries
//! compile-time assertions pinning `Network`, `CompiledNetwork` and
//! `PreparedFault` to `Send + Sync` so a regression fails the build, not
//! a run.

use crate::budget::{RunBudget, StopReason};
use std::ops::Range;

/// How many worker threads a PROTEST kernel may use.
///
/// The default is [`Parallelism::Auto`]: all available cores, overridable
/// with the `DYNMOS_THREADS` environment variable (the knob CI uses to
/// force the parallel path on small runners).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded, in the calling thread.
    Serial,
    /// Exactly this many workers (clamped to at least 1).
    Fixed(usize),
    /// `DYNMOS_THREADS` if set, otherwise every available core.
    #[default]
    Auto,
}

impl Parallelism {
    /// Resolves to a concrete worker count (always at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `DYNMOS_THREADS` is set to a non-numeric value (see
    /// `parse_thread_override`).
    pub fn resolve(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => {
                parse_thread_override(crate::env_contract::raw("DYNMOS_THREADS").as_deref())
                    .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            }
        }
    }
}

/// Interprets a raw `DYNMOS_THREADS` value. Unset, empty, or
/// whitespace-only means "no override" (`None`); `0` clamps to 1 — a user
/// setting `DYNMOS_THREADS=0` is throttling, and silently handing them
/// *all cores* is the opposite of what they asked for.
///
/// # Panics
///
/// Panics on any other unparsable value: a typo in a CI throttle must
/// fail loudly, not fan out onto every core of the runner.
fn parse_thread_override(raw: Option<&str>) -> Option<usize> {
    let trimmed = raw?.trim();
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.parse::<usize>() {
        Ok(n) => Some(n.max(1)),
        Err(_) => panic!(
            "DYNMOS_THREADS must be a non-negative integer (unset or empty for all cores), \
             got {trimmed:?}"
        ),
    }
}

/// Which axis of the (faults × patterns) work grid a kernel shards, and
/// over how many workers — the output of [`plan_shards`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPlan {
    /// Cut the fault list into contiguous slices, one per worker, each
    /// replaying the whole pattern stream.
    Faults(usize),
    /// Cut the pattern axis (stream batches, Monte Carlo passes,
    /// enumeration row blocks) into contiguous ranges, one per worker,
    /// each covering the whole fault list.
    Patterns(usize),
}

impl ShardPlan {
    /// The planned worker count (at least 1 on either axis).
    pub fn workers(self) -> usize {
        match self {
            ShardPlan::Faults(w) | ShardPlan::Patterns(w) => w.max(1),
        }
    }

    /// `true` when the plan degenerates to the inline serial path.
    pub fn is_serial(self) -> bool {
        self.workers() <= 1
    }
}

/// The two-axis planner: decides which axis of a (faults ×
/// `pattern_units`) work grid to shard over up to `threads` workers.
///
/// The fault axis is preferred — its merge is a concatenation and every
/// per-fault accumulator stays with one worker. The pattern axis takes
/// over exactly in the **few-fault regime** (`faults < threads`), where
/// fault sharding would idle most workers; `pattern_units` is whatever
/// the kernel's pattern axis is made of (64-pattern stream batches,
/// Monte Carlo wide passes, exact-enumeration row blocks), and workers
/// never outnumber units. A kernel with no pattern axis to speak of
/// passes `pattern_units = 1` and gets the fault axis (over at most
/// `faults` workers) back.
pub fn plan_shards(faults: usize, pattern_units: u64, threads: usize) -> ShardPlan {
    let threads = threads.max(1);
    if faults >= threads {
        return ShardPlan::Faults(threads);
    }
    let pattern_workers = threads.min(usize::try_from(pattern_units).unwrap_or(usize::MAX));
    if pattern_workers > 1 {
        ShardPlan::Patterns(pattern_workers)
    } else {
        // Degenerate pattern axis: fall back to however many workers the
        // fault list itself can feed.
        ShardPlan::Faults(faults.min(threads).max(1))
    }
}

/// Splits `0..n` into `parts` contiguous, balanced, non-empty ranges
/// (fewer than `parts` when `n < parts`; empty when `n == 0`).
pub fn shard_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(n);
    if parts == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(parts);
    let base = n / parts;
    let extra = n % parts;
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// A worker shard that panicked even after its serial retry.
#[derive(Debug, Clone)]
pub struct ShardError {
    /// The item range the failing worker owned.
    pub shard: Range<usize>,
    /// The panic payload, rendered (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fault-shard worker panicked twice (shard {}..{}): {}",
            self.shard.start, self.shard.end, self.message
        )
    }
}

impl std::error::Error for ShardError {}

/// Renders a panic payload for [`ShardError::message`].
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `worker` over the shards of `0..n` on up to `threads` scoped
/// threads and returns the per-shard results in shard (= item) order.
/// With one shard the worker runs inline — the serial path and the
/// 1-thread parallel path are literally the same code (and a panic
/// there propagates untouched, exactly like any serial call).
///
/// A worker thread that panics does not tear down the run: its shard
/// is retried serially, once. Shards are deterministic pure functions
/// of their range, so the retried result — and the merged whole — is
/// bit-identical to an all-healthy run. Only a shard that fails twice
/// yields an [`Err`].
///
/// # Errors
///
/// Returns a [`ShardError`] naming the shard whose worker panicked on
/// both the threaded attempt and the serial retry.
pub fn try_run_sharded<R, F>(n: usize, threads: usize, worker: F) -> Result<Vec<R>, ShardError>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let ranges = shard_ranges(n, threads);
    if ranges.len() <= 1 {
        // The inline path keeps serial semantics: no catch, no retry,
        // and no fault injection — a single-shard run *is* the serial
        // reference the harness compares against.
        return Ok(ranges.into_iter().map(worker).collect());
    }
    // Fault-injection probes run here, on the planning thread, so a
    // thread-local `chaos::scoped` plan covers the kernels it calls.
    let plan = crate::chaos::current();
    std::thread::scope(|s| {
        let worker = &worker;
        let handles: Vec<_> = ranges
            .into_iter()
            .enumerate()
            .map(|(idx, r)| {
                // One probe per spawn, on this thread, in shard order —
                // the decision is reused by the retry below so the
                // probe sequence stays independent of panic outcomes.
                let injected = plan.as_deref().and_then(|p| p.worker_fault(idx));
                let handle = s.spawn(move || {
                    if injected.is_some() {
                        panic!("injected worker panic (DYNMOS_FAULT_PLAN)");
                    }
                    worker(r)
                });
                (idx, injected, handle)
            })
            .collect();
        // Join every handle before judging any shard: an early return
        // with panicked threads still unjoined would make the scope's
        // implicit join re-raise their payloads.
        let joined: Vec<_> = handles
            .into_iter()
            .map(|(idx, injected, h)| (idx, injected, h.join()))
            .collect();
        let mut out = Vec::with_capacity(joined.len());
        for (idx, injected, join_result) in joined {
            match join_result {
                Ok(v) => out.push(v),
                // The worker panicked: retry its shard serially, once.
                // AssertUnwindSafe is sound here because `worker` is
                // `Fn` over shared state — a panic cannot have left
                // exclusive state half-mutated.
                Err(_) => {
                    let range = shard_ranges(n, threads)[idx].clone();
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if injected == Some(crate::chaos::WorkerFault::PanicPersistent) {
                            panic!("injected persistent worker panic (DYNMOS_FAULT_PLAN)");
                        }
                        worker(range.clone())
                    })) {
                        Ok(v) => out.push(v),
                        Err(payload) => {
                            return Err(ShardError {
                                shard: range,
                                message: panic_message(payload.as_ref()),
                            })
                        }
                    }
                }
            }
        }
        Ok(out)
    })
}

/// [`try_run_sharded`] with the historical panicking signature: a shard
/// failing twice panics with the [`ShardError`] rendering.
///
/// # Panics
///
/// Propagates a worker panic only after the shard's serial retry also
/// panicked.
pub fn run_sharded<R, F>(n: usize, threads: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    try_run_sharded(n, threads, worker).unwrap_or_else(|e| panic!("{e}"))
}

/// The position and limits of one call's walk over a unit axis: units
/// (fsim stream batches, Monte Carlo wide passes, enumeration row
/// blocks) `done..total`, cut into `chunk`-unit chunks under a limited
/// budget.
pub(crate) struct StreamWalk<'b> {
    /// Units already merged (the checkpoint position).
    pub(crate) done: u64,
    /// Units in the whole run.
    pub(crate) total: u64,
    /// Units per chunk when the budget is limited; an unlimited budget
    /// runs the whole remaining stream as one chunk.
    pub(crate) chunk: u64,
    /// Patterns per unit, converting the budget's per-call pattern cap
    /// into units.
    pub(crate) unit_patterns: u64,
    /// Worker threads for [`plan_shards`].
    pub(crate) threads: usize,
    /// Deadline, cancellation and pattern cap, checked between chunks.
    pub(crate) budget: &'b RunBudget,
}

/// Where a [`StreamWalk`] stopped: the units merged so far, why it
/// stopped early (`None` = completed), and the error of a shard that
/// failed twice.
pub(crate) struct WalkEnd {
    pub(crate) done: u64,
    pub(crate) stop: Option<StopReason>,
    pub(crate) error: Option<ShardError>,
}

impl StreamWalk<'_> {
    /// Walks the stream chunk by chunk, merging each chunk into the
    /// per-target accumulator `acc` — the one place the budget,
    /// cancellation and checkpoint contract of this module runs.
    ///
    /// Per chunk: `live(acc)` lists the targets still to simulate (an
    /// empty list completes the walk, checked before the cap and the
    /// budget); [`plan_shards`] cuts (targets × units) along one axis;
    /// `span(targets, units)` returns one value per listed target over
    /// a unit range; and `merge` folds each value into its target's
    /// slot. Shards merge in shard order and chunks in walk order, so
    /// every target sees its unit ranges merged in ascending order on
    /// either axis and at any thread count or chunking: an
    /// order-independent `merge` (minimum, integer add) or an ordered
    /// fold of per-unit partials (f64 block sums) leaves the same `acc`.
    /// The per-call pattern cap and the budget are checked only
    /// between chunks and only after one has merged (forward progress).
    /// A shard that fails twice discards its chunk whole and stops the
    /// walk with [`StopReason::WorkerFailed`] at the last merged
    /// boundary.
    pub(crate) fn run<T, S: Send>(
        self,
        acc: &mut [T],
        live: impl Fn(&[T]) -> Vec<usize>,
        span: impl Fn(&[usize], Range<u64>) -> Vec<S> + Sync,
        merge: impl Fn(&mut T, S),
    ) -> WalkEnd {
        let chunk = if self.budget.is_unlimited() {
            self.total.max(1)
        } else {
            self.chunk
        };
        let call_start = self.done;
        let cap = self
            .budget
            .max_patterns
            .map(|p| p.div_ceil(self.unit_patterns).max(1));
        let mut done = self.done;
        let end = |done, stop, error| WalkEnd { done, stop, error };
        while done < self.total {
            let targets = live(acc);
            if targets.is_empty() {
                break;
            }
            if done > call_start {
                if cap.is_some_and(|cap| done - call_start >= cap) {
                    return end(done, Some(StopReason::PatternCap), None);
                }
                if let Some(reason) = self.budget.stop_requested() {
                    return end(done, Some(reason), None);
                }
            }
            let mut units_end = (done + chunk).min(self.total);
            if let Some(cap) = cap {
                units_end = units_end.min(call_start + cap);
            }
            let units = done..units_end;
            // Each shard returns the target slice it covered with its
            // values, so both axes merge by the same element-wise rule.
            let sharded = match plan_shards(targets.len(), units_end - done, self.threads) {
                ShardPlan::Faults(workers) => try_run_sharded(targets.len(), workers, |r| {
                    let values = span(&targets[r.clone()], units.clone());
                    (r, values)
                }),
                ShardPlan::Patterns(workers) => {
                    try_run_sharded((units_end - done) as usize, workers, |r| {
                        let shard = done + r.start as u64..done + r.end as u64;
                        (0..targets.len(), span(&targets, shard))
                    })
                }
            };
            match sharded {
                Ok(parts) => {
                    for (r, values) in parts {
                        for (&t, v) in targets[r].iter().zip(values) {
                            merge(&mut acc[t], v);
                        }
                    }
                }
                Err(e) => return end(done, Some(StopReason::WorkerFailed), Some(e)),
            }
            done = units_end;
        }
        end(done, None, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_exactly() {
        for n in [0usize, 1, 5, 64, 1000] {
            for parts in [1usize, 2, 3, 7, 16] {
                let ranges = shard_ranges(n, parts);
                // Contiguous cover of 0..n, no shard empty.
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "n={n} parts={parts}");
                    assert!(!r.is_empty() || n == 0);
                    next = r.end;
                }
                assert_eq!(next, n);
                assert!(ranges.len() <= parts.max(1));
                // Balanced: sizes differ by at most one.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1, "n={n} parts={parts}");
                }
            }
        }
    }

    #[test]
    fn run_sharded_preserves_item_order() {
        let squares = run_sharded(100, 7, |r| r.map(|i| i * i).collect::<Vec<_>>());
        let flat: Vec<usize> = squares.into_iter().flatten().collect();
        assert_eq!(flat, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_sharded_single_thread_runs_inline() {
        let id = std::thread::current().id();
        let ran_on = run_sharded(10, 1, |_| std::thread::current().id());
        assert_eq!(ran_on, vec![id]);
    }

    #[test]
    fn parallelism_resolves() {
        assert_eq!(Parallelism::Serial.resolve(), 1);
        assert_eq!(Parallelism::Fixed(4).resolve(), 4);
        assert_eq!(Parallelism::Fixed(0).resolve(), 1);
        assert!(Parallelism::Auto.resolve() >= 1);
    }

    // The override parser is tested as a pure function: mutating the
    // process-global DYNMOS_THREADS here would race every concurrently
    // running test that resolves Parallelism::Auto.
    #[test]
    fn thread_override_parses_values() {
        assert_eq!(parse_thread_override(None), None);
        assert_eq!(parse_thread_override(Some("")), None);
        assert_eq!(parse_thread_override(Some("   ")), None);
        assert_eq!(parse_thread_override(Some("3")), Some(3));
        assert_eq!(parse_thread_override(Some(" 16 ")), Some(16));
    }

    #[test]
    fn thread_override_zero_means_one() {
        // 0 is a throttle, not "all cores".
        assert_eq!(parse_thread_override(Some("0")), Some(1));
    }

    #[test]
    #[should_panic(expected = "DYNMOS_THREADS must be a non-negative integer")]
    fn thread_override_garbage_panics() {
        parse_thread_override(Some("lots"));
    }

    #[test]
    #[should_panic(expected = "DYNMOS_THREADS must be a non-negative integer")]
    fn thread_override_negative_panics() {
        parse_thread_override(Some("-2"));
    }

    /// Runs `f` with fault injection locally disabled: these tests
    /// count panics and blame specific shards, so an ambient
    /// `DYNMOS_FAULT_PLAN` (the CI chaos leg) must not add its own.
    fn without_injection<R>(f: impl FnOnce() -> R) -> R {
        crate::chaos::scoped(std::sync::Arc::new(crate::chaos::FaultPlan::new(0)), f)
    }

    #[test]
    fn once_panicking_shard_is_retried_and_merges_identically() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let serial: Vec<usize> = run_sharded(100, 1, |r| r.map(|i| i * 3).collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .collect();
        let trips = AtomicUsize::new(0);
        let healed: Vec<usize> = without_injection(|| {
            try_run_sharded(100, 4, |r| {
                // Exactly one worker trips, on its threaded attempt only;
                // the serial retry of the same shard succeeds.
                if r.contains(&50) && trips.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("injected shard panic");
                }
                r.map(|i| i * 3).collect::<Vec<_>>()
            })
        })
        .expect("retried shard heals the run")
        .into_iter()
        .flatten()
        .collect();
        assert_eq!(healed, serial);
        assert_eq!(trips.load(Ordering::SeqCst), 2, "one retry, not more");
    }

    #[test]
    fn twice_panicking_shard_surfaces_shard_error() {
        let err = without_injection(|| {
            try_run_sharded(100, 4, |r| {
                if r.contains(&50) {
                    panic!("injected persistent panic");
                }
                r.len()
            })
        })
        .expect_err("persistently failing shard must error");
        assert!(err.shard.contains(&50), "wrong shard blamed: {err}");
        assert!(err.message.contains("injected persistent panic"));
        assert!(err.to_string().contains("fault-shard worker panicked"));
    }

    #[test]
    #[should_panic(expected = "fault-shard worker panicked twice")]
    fn run_sharded_panics_only_after_retry_fails() {
        without_injection(|| {
            run_sharded(100, 4, |r| {
                if r.contains(&50) {
                    panic!("always");
                }
                r.len()
            })
        });
    }

    #[test]
    fn transient_injected_panics_heal_bit_identically() {
        let serial: Vec<usize> = (0..100).map(|i| i * 7).collect();
        let plan = std::sync::Arc::new(crate::chaos::FaultPlan::new(11).worker_panic(1.0));
        let healed: Vec<usize> = crate::chaos::scoped(plan, || {
            try_run_sharded(100, 4, |r| r.map(|i| i * 7).collect::<Vec<_>>())
        })
        .expect("every injected panic is transient, every retry heals")
        .into_iter()
        .flatten()
        .collect();
        assert_eq!(healed, serial);
    }

    #[test]
    fn persistent_injected_panics_surface_shard_error() {
        let plan =
            std::sync::Arc::new(crate::chaos::FaultPlan::new(11).worker_panic_persistent(1.0));
        let err = crate::chaos::scoped(plan, || try_run_sharded(100, 4, |r| r.len()))
            .expect_err("persistent injection must error");
        assert!(err.message.contains("injected persistent worker panic"));
    }

    #[test]
    fn single_shard_panic_propagates_serially() {
        // The inline path keeps serial semantics: no catch, no retry.
        let caught = std::panic::catch_unwind(|| {
            run_sharded(10, 1, |_| -> usize { panic!("inline") });
        });
        assert!(caught.is_err());
    }

    #[test]
    fn planner_prefers_fault_axis_when_fed() {
        assert_eq!(plan_shards(100, 1000, 4), ShardPlan::Faults(4));
        assert_eq!(plan_shards(4, 1000, 4), ShardPlan::Faults(4));
        assert_eq!(plan_shards(100, 0, 4), ShardPlan::Faults(4));
    }

    #[test]
    fn planner_switches_to_pattern_axis_for_few_faults() {
        assert_eq!(plan_shards(1, 1000, 8), ShardPlan::Patterns(8));
        assert_eq!(plan_shards(3, 1000, 8), ShardPlan::Patterns(8));
        // Workers never outnumber pattern units.
        assert_eq!(plan_shards(1, 2, 8), ShardPlan::Patterns(2));
    }

    #[test]
    fn planner_degenerate_axes_fall_back() {
        // No pattern axis to cut: fault axis over what the list can feed.
        assert_eq!(plan_shards(3, 1, 8), ShardPlan::Faults(3));
        assert_eq!(plan_shards(0, 1, 8), ShardPlan::Faults(1));
        assert_eq!(plan_shards(0, 1000, 8), ShardPlan::Patterns(8));
        // Single thread: always the inline serial path.
        assert!(plan_shards(10, 1000, 1).is_serial());
        assert!(plan_shards(1, 1000, 1).is_serial());
        assert!(plan_shards(0, 0, 0).is_serial());
    }
}
