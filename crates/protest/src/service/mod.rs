//! `dynmos_protest::service` — a supervised job engine over the
//! budgeted PROTEST kernels.
//!
//! Every budgeted kernel in this crate (weighted-random fault
//! simulation, both Monte Carlo estimators, the exact/MC detection
//! estimator, test length, input-probability optimization — plus ATPG
//! via `dynmos_atpg::service`) is wrapped behind the
//! [`JobKernel`] abstraction and run by [`JobEngine`], a supervisor
//! loop providing:
//!
//! - **deadline/timeout** per job, derived from [`crate::RunBudget`]
//!   (the job's `timeout_ms` becomes the budget deadline of every leg);
//! - **bounded retry with exponential backoff + jitter**
//!   ([`BackoffPolicy`]) for legs that die by panic or surface
//!   [`crate::StopReason::WorkerFailed`] — the retry bound counts
//!   *consecutive* failures, so a long job interleaving progress with
//!   occasional faults is not starved;
//! - **checkpoint-carrying requeue**: a retried job resumes from its
//!   kernel's last committed checkpoint, and for the checkpointed
//!   kernels the final result is bit-identical to an uninterrupted
//!   run (the determinism contract in [`crate::parallel`]);
//! - **bounded admission with load shedding**: the queue refuses
//!   submissions past [`EngineConfig::queue_capacity`] with a
//!   structured [`Rejection`];
//! - **compiled-network cache** ([`NetworkCache`]) keyed by netlist
//!   hash, with recompile-and-compare validation on a sampled fraction
//!   of hits and eviction on mismatch;
//! - **crash durability** (opt-in via [`JobEngine::attach_journal`],
//!   `faultlib serve --journal DIR`): a write-ahead [`Journal`] commits
//!   every admission, checkpointed leg, and terminal record before the
//!   client sees it, so a process killed at any instant — `kill -9`
//!   included — restarts against the same directory, requeues
//!   interrupted jobs from their last committed kernel snapshot, and
//!   reproduces result payloads byte-for-byte.
//!
//! The deterministic fault-injection harness lives in
//! [`crate::chaos`]: a seeded [`crate::FaultPlan`] (or the
//! `DYNMOS_FAULT_PLAN` environment knob) injects worker panics,
//! supervised-leg kills, artificial deadline expiry, worker delays,
//! and poisoned cache entries at seed-addressable points — CI runs the
//! whole suite under such a plan.
//!
//! The wire format is hand-rolled JSON ([`Json`]) — the crate has no
//! serialization dependency — spoken over stdin/stdout by
//! `faultlib serve`.

pub mod cache;
pub mod engine;
pub mod jobs;
pub mod journal;
pub mod json;

pub use cache::{network_fingerprint, CacheStats, NetlistFormat, NetworkCache};
pub use engine::{BackoffPolicy, EngineConfig, Job, JobEngine, JobRecord, JobStatus, Rejection};
pub use jobs::{build_builtin, Checkpointed, JobContext, JobKernel, Leg, Resumable};
pub use journal::{Journal, RecoveredJob, Recovery, JOURNAL_FILE};
pub use json::{Json, JsonError};
