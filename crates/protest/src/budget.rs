//! Execution budgets for the long-running PROTEST kernels.
//!
//! Every kernel in this crate — fault simulation, Monte Carlo
//! estimation, exact enumeration, test-length search, probability
//! optimization, PODEM set generation — walks a work grid that can be
//! arbitrarily large. A [`RunBudget`] bounds such a walk with any
//! combination of a wall-clock deadline, a cooperative cancellation
//! flag, a per-call pattern cap, and an exact-enumeration row cap, and
//! the kernels check it at **batch granularity** (between fixed-size
//! work chunks, never inside one), so:
//!
//! - an interrupted run stops at a chunk boundary and reports
//!   [`RunStatus::Interrupted`] with the [`StopReason`], usually next
//!   to a resumable checkpoint;
//! - a resumed run continues from that boundary and — because every
//!   merge rule in [`crate::parallel`] is chunk-invisible — produces
//!   results **bit-identical** to an uninterrupted serial run;
//! - exact enumeration whose row space exceeds
//!   `RunBudget::effective_exact_rows` refuses up front
//!   ([`StopReason::RowCap`]) so callers can degrade to the symbolic
//!   tiers of [`crate::DetectionEngine`] (BDD, then cutting bounds)
//!   instead of hanging.
//!
//! Kernels guarantee **forward progress**: at least one chunk of work
//! is done per call before a deadline or cancellation is honored, so a
//! resume loop under an always-expired budget still terminates.
//!
//! The `DYNMOS_BUDGET_MS` environment variable (read by the
//! budget-less entry points like [`crate::FaultSimulator::run_random`])
//! forces an interrupt/resume loop with that per-leg deadline — the CI
//! knob that exercises every checkpoint path while keeping results
//! bit-identical.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default exact-enumeration row cap: `2^24` rows, the historical
/// 24-input feasibility limit of [`crate::ExactDetector`].
pub const DEFAULT_EXACT_ROWS: u64 = 1 << 24;

/// Why a kernel stopped before finishing its work grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The cancellation flag was raised.
    Cancelled,
    /// The per-call pattern cap was reached.
    PatternCap,
    /// The exact-enumeration row space exceeds the row cap (refused up
    /// front — no work was done).
    RowCap,
    /// A sharded worker panicked twice (threaded attempt and serial
    /// retry): the run stopped at the last merged chunk boundary with a
    /// valid checkpoint, and the [`ShardError`](crate::parallel::ShardError) travels next to
    /// this reason so a supervisor can retry from the checkpoint.
    WorkerFailed,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::Deadline => write!(f, "deadline expired"),
            StopReason::Cancelled => write!(f, "cancelled"),
            StopReason::PatternCap => write!(f, "pattern cap reached"),
            StopReason::RowCap => write!(f, "row space exceeds exact-enumeration cap"),
            StopReason::WorkerFailed => write!(f, "worker failed after retry"),
        }
    }
}

/// Whether a budgeted run finished its work or stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// All work completed; the result equals the unbudgeted run's.
    Completed,
    /// The run stopped at a chunk boundary for this reason; partial
    /// results (and, where applicable, a checkpoint) are valid.
    Interrupted(StopReason),
}

impl RunStatus {
    /// `true` when the run finished all its work.
    pub fn is_complete(self) -> bool {
        matches!(self, RunStatus::Completed)
    }
}

/// A bound on one kernel call: any combination of deadline, pattern
/// cap, exact-row cap and cancellation flag. [`RunBudget::default`]
/// (== [`RunBudget::unlimited`]) bounds nothing except the exact-row
/// cap, which always defaults to [`DEFAULT_EXACT_ROWS`].
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Stop (at the next chunk boundary) once this instant passes.
    pub deadline: Option<Instant>,
    /// Stop after at most this many patterns/samples in one call —
    /// kernels without a pattern axis ignore it.
    pub max_patterns: Option<u64>,
    /// Refuse exact enumeration over more rows than this
    /// (`None` = [`DEFAULT_EXACT_ROWS`]).
    pub max_exact_rows: Option<u64>,
    /// Cooperative cancellation: raise the flag from any thread and
    /// the kernel stops at the next chunk boundary.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl RunBudget {
    /// No deadline, no caps beyond the default exact-row cap.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget whose deadline is `dur` from now.
    pub fn deadline_in(dur: Duration) -> Self {
        Self {
            deadline: Some(Instant::now() + dur),
            ..Self::default()
        }
    }

    /// Replaces the exact-enumeration row cap.
    pub fn with_max_exact_rows(mut self, rows: u64) -> Self {
        self.max_exact_rows = Some(rows);
        self
    }

    /// Replaces the per-call pattern cap.
    pub fn with_max_patterns(mut self, patterns: u64) -> Self {
        self.max_patterns = Some(patterns);
        self
    }

    /// Attaches a cancellation flag.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// `true` when no deadline, pattern cap, or cancellation flag is
    /// set — kernels then skip chunking entirely and run their
    /// single-pass fast path (the row cap needs no chunking: it is
    /// checked once, up front).
    pub(crate) fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_patterns.is_none() && self.cancel.is_none()
    }

    /// The exact-enumeration row cap in force.
    pub(crate) fn effective_exact_rows(&self) -> u64 {
        self.max_exact_rows.unwrap_or(DEFAULT_EXACT_ROWS)
    }

    /// Checks the cancellation flag and the deadline (in that order:
    /// an explicit cancel beats a timeout in the report). The pattern
    /// cap is positional, so kernels account for it themselves.
    pub fn stop_requested(&self) -> Option<StopReason> {
        if let Some(c) = &self.cancel {
            if c.load(Ordering::Relaxed) {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(StopReason::Deadline);
            }
        }
        None
    }
}

/// Interprets a raw `DYNMOS_BUDGET_MS` value. Unset, empty, or
/// whitespace-only means "no budget" (`None`); `0` is honored as an
/// immediately-expired deadline (forward progress still guarantees one
/// chunk per call, so resume loops terminate).
///
/// # Panics
///
/// Panics on any other unparsable value: a typo in a CI budget must
/// fail loudly, not silently run unbudgeted.
pub(crate) fn parse_budget_ms_override(raw: Option<&str>) -> Option<u64> {
    let trimmed = raw?.trim();
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.parse::<u64>() {
        Ok(ms) => Some(ms),
        Err(_) => panic!(
            "DYNMOS_BUDGET_MS must be a non-negative integer number of milliseconds \
             (unset or empty for no budget), got {trimmed:?}"
        ),
    }
}

/// The `DYNMOS_BUDGET_MS` override, if set: the per-leg deadline (in
/// milliseconds) the budget-less kernel entry points apply in an
/// interrupt/resume loop.
///
/// # Panics
///
/// Panics when the variable is set but not a non-negative integer.
pub fn env_budget_ms() -> Option<u64> {
    parse_budget_ms_override(crate::env_contract::raw("DYNMOS_BUDGET_MS").as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_stops() {
        let b = RunBudget::unlimited();
        assert!(b.is_unlimited());
        assert_eq!(b.stop_requested(), None);
        assert_eq!(b.effective_exact_rows(), DEFAULT_EXACT_ROWS);
    }

    #[test]
    fn expired_deadline_stops() {
        let b = RunBudget::deadline_in(Duration::ZERO);
        assert!(!b.is_unlimited());
        assert_eq!(b.stop_requested(), Some(StopReason::Deadline));
    }

    #[test]
    fn cancel_flag_stops_and_beats_deadline() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = RunBudget::deadline_in(Duration::ZERO).with_cancel(flag.clone());
        // Deadline already expired, but cancel is reported first once
        // raised.
        assert_eq!(b.stop_requested(), Some(StopReason::Deadline));
        flag.store(true, Ordering::Relaxed);
        assert_eq!(b.stop_requested(), Some(StopReason::Cancelled));
    }

    #[test]
    fn row_cap_override_applies() {
        let b = RunBudget::unlimited().with_max_exact_rows(1 << 10);
        assert_eq!(b.effective_exact_rows(), 1 << 10);
        // The row cap alone does not force the chunked path.
        assert!(b.is_unlimited());
    }

    #[test]
    fn pattern_cap_marks_budget_limited() {
        assert!(!RunBudget::unlimited().with_max_patterns(100).is_unlimited());
    }

    #[test]
    fn status_completeness() {
        assert!(RunStatus::Completed.is_complete());
        assert!(!RunStatus::Interrupted(StopReason::Deadline).is_complete());
    }

    // Pure-function tests: mutating the process-global DYNMOS_BUDGET_MS
    // here would race concurrently running budgeted tests.
    #[test]
    fn budget_override_parses_values() {
        assert_eq!(parse_budget_ms_override(None), None);
        assert_eq!(parse_budget_ms_override(Some("")), None);
        assert_eq!(parse_budget_ms_override(Some("  ")), None);
        assert_eq!(parse_budget_ms_override(Some("5")), Some(5));
        assert_eq!(parse_budget_ms_override(Some(" 250 ")), Some(250));
        assert_eq!(parse_budget_ms_override(Some("0")), Some(0));
    }

    #[test]
    #[should_panic(expected = "DYNMOS_BUDGET_MS must be a non-negative integer")]
    fn budget_override_garbage_panics() {
        parse_budget_ms_override(Some("fast"));
    }

    #[test]
    fn stop_reasons_display() {
        assert_eq!(StopReason::Deadline.to_string(), "deadline expired");
        assert_eq!(StopReason::Cancelled.to_string(), "cancelled");
        assert_eq!(StopReason::PatternCap.to_string(), "pattern cap reached");
        assert!(StopReason::RowCap.to_string().contains("cap"));
        assert_eq!(
            StopReason::WorkerFailed.to_string(),
            "worker failed after retry"
        );
    }
}
