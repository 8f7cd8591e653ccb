//! The supervised job engine: a bounded admission queue, a compiled-
//! network cache, and a supervisor loop that runs each job in budgeted
//! legs with deadline enforcement, bounded retry with exponential
//! backoff + jitter, and checkpoint-carrying requeue.
//!
//! The engine is deliberately single-threaded at the supervisor level
//! (the kernels shard internally via [`Parallelism`]); that keeps
//! admission, cache access, and retry accounting trivially serialized
//! and the whole service deterministic under a seeded
//! [`FaultPlan`].

#![deny(clippy::unwrap_used)]
// Durable path (dynlint zone: durable): a panic mid-append can
// fabricate a torn record the recovery logic then trusts, so even
// "impossible" unwraps are compiler-rejected in this module.
use crate::budget::{RunBudget, RunStatus, StopReason};
use crate::chaos::{self, mix64, FaultPlan, LegFault};
use crate::list::{network_fault_list, stuck_fault_list};
use crate::parallel::{panic_message, Parallelism};
use crate::service::cache::{NetlistFormat, NetworkCache};
use crate::service::jobs::{
    build_builtin, optional_str, optional_u64, required_str, JobContext, JobKernel,
};
use crate::service::journal::Journal;
use crate::service::json::{write_object, Json};
use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything needed to enqueue a job built from a request: its kind
/// name, the optional per-job deadline, and the kernel itself.
type BuiltJob = (String, Option<Duration>, Box<dyn JobKernel>);

/// Exponential backoff with deterministic jitter: retry `k` sleeps
/// `base·2^(k-1)` ms (capped at `cap_ms`), scaled by a jitter factor in
/// `[0.5, 1.5)` drawn from a hash of `(seed, job, k)` — deterministic
/// for a given policy, decorrelated across jobs and retries.
#[derive(Debug, Clone, Copy)]
pub struct BackoffPolicy {
    /// First-retry delay in milliseconds. `0` disables sleeping
    /// entirely (used by tests).
    pub base_ms: u64,
    /// Upper bound on the pre-jitter delay.
    pub cap_ms: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self {
            base_ms: 25,
            cap_ms: 2000,
            seed: 0,
        }
    }
}

impl BackoffPolicy {
    /// The delay before retry number `retry` (1-based) of job `job`.
    pub fn delay(&self, job: u64, retry: u32) -> Duration {
        if self.base_ms == 0 || retry == 0 {
            return Duration::ZERO;
        }
        let exp = self
            .base_ms
            .saturating_mul(1u64 << (retry - 1).min(20))
            .min(self.cap_ms);
        let h = mix64(self.seed ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(retry));
        let frac = 0.5 + (h >> 11) as f64 / (1u64 << 53) as f64;
        Duration::from_millis((exp as f64 * frac) as u64)
    }
}

/// Engine tuning knobs. [`EngineConfig::from_env`] additionally honors
/// `DYNMOS_THREADS` and `DYNMOS_FAULT_PLAN`.
#[derive(Clone)]
pub struct EngineConfig {
    /// Admission bound: submissions beyond this many pending jobs are
    /// shed with a structured [`Rejection`].
    pub queue_capacity: usize,
    /// Maximum *consecutive* failed legs (panic or
    /// [`StopReason::WorkerFailed`]) before the job is marked
    /// [`JobStatus::Failed`]. Any successful leg resets the count.
    pub max_retries: u32,
    /// Hard valve on total legs per job, against non-progressing
    /// kernels.
    pub max_legs: u32,
    /// Per-leg wall-clock slice in milliseconds (`None` = the job's
    /// deadline is the only timer).
    pub leg_ms: Option<u64>,
    /// Per-leg pattern/sample cap (`None` = unbounded legs). Tests use
    /// this for deterministic leg boundaries — wall-clock slicing is
    /// too coarse to be reproducible.
    pub leg_patterns: Option<u64>,
    /// Retry backoff policy.
    pub backoff: BackoffPolicy,
    /// Cache validation sampling: validate every n-th hit (0 = never).
    pub validate_every: u64,
    /// Thread policy handed to every kernel.
    pub parallelism: Parallelism,
    /// Fault-injection plan applied to supervised legs, worker shards,
    /// and cache inserts (`None` = no injection).
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            max_retries: 3,
            max_legs: 100_000,
            leg_ms: None,
            leg_patterns: None,
            backoff: BackoffPolicy::default(),
            validate_every: 16,
            parallelism: Parallelism::default(),
            fault_plan: None,
        }
    }
}

impl EngineConfig {
    /// The default config with `DYNMOS_THREADS` and `DYNMOS_FAULT_PLAN`
    /// applied.
    ///
    /// # Panics
    ///
    /// Panics when `DYNMOS_FAULT_PLAN` is set but unparseable (same
    /// fail-fast contract as the other `DYNMOS_*` knobs).
    pub fn from_env() -> Self {
        Self {
            // `Parallelism::Auto` (the default) already honors
            // `DYNMOS_THREADS` at resolve time.
            fault_plan: chaos::env_fault_plan(),
            ..Self::default()
        }
    }
}

/// A structured load-shedding verdict: why the submission was refused
/// and how full the queue was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Human-readable reason (`"queue full"`).
    pub reason: String,
    /// The configured admission bound.
    pub capacity: usize,
    /// Jobs pending when the submission arrived.
    pub pending: usize,
}

/// Terminal state of a supervised job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The kernel finished all its work; the result is bit-identical
    /// to an uninterrupted run.
    Completed,
    /// The job's deadline passed; the result is the last checkpoint's
    /// partial output.
    DeadlineExceeded,
    /// More than [`EngineConfig::max_retries`] consecutive legs died.
    Failed,
}

impl JobStatus {
    /// The wire token (`completed` | `deadline-exceeded` | `failed`).
    pub fn token(self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::DeadlineExceeded => "deadline-exceeded",
            JobStatus::Failed => "failed",
        }
    }
}

/// An admitted, not-yet-run job.
pub struct Job {
    /// Engine-assigned id (monotonic from 1).
    pub id: u64,
    /// The job-kind token.
    pub kind: String,
    /// Wall-clock allowance measured from the moment the supervisor
    /// picks the job up (`None` = no deadline).
    pub timeout: Option<Duration>,
    /// The kernel carrying all job state between legs.
    pub kernel: Box<dyn JobKernel>,
    /// Legs already run before this admission — nonzero only for jobs
    /// recovered from a [`Journal`], so the terminal record's counters
    /// span the whole job, not just the final process.
    pub legs: u32,
    /// Retries already consumed before this admission (journal
    /// recovery only).
    pub retries: u32,
}

/// The supervisor's account of one finished job.
///
/// [`line`](Self::line) is the record encoded once, when the job
/// finishes: `faultlib serve` prints those bytes, the journal's `done`
/// record wraps them, and [`JobEngine::results_line`] joins them.
pub struct JobRecord {
    /// Engine-assigned id.
    pub id: u64,
    /// The job-kind token.
    pub kind: String,
    /// Terminal state.
    pub status: JobStatus,
    /// Legs run (including failed ones).
    pub legs: u32,
    /// Legs that died (panic or worker failure) and were retried.
    pub retries: u32,
    /// The last interruption reason observed, if any.
    pub stop: Option<StopReason>,
    /// The last failure message, if any leg died.
    pub error: Option<String>,
    /// The kernel's output (partial for non-completed jobs).
    pub result: Json,
    /// The record as one JSON line without its newline: the bytes of
    /// `to_json().to_string()`, encoded from borrowed data.
    pub line: String,
    /// Wall-clock from pickup to terminal state.
    pub elapsed: Duration,
}

impl JobRecord {
    /// The members every record starts with, in wire order; `result`
    /// follows them. The one definition behind both
    /// [`to_json`](Self::to_json) and [`line`](Self::line).
    fn header(&self) -> Vec<(&'static str, Json)> {
        let mut members = vec![
            ("ok", Json::Bool(true)),
            ("id", Json::num(self.id)),
            ("kind", Json::str(self.kind.clone())),
            ("status", Json::str(self.status.token())),
            ("legs", Json::num(u64::from(self.legs))),
            ("retries", Json::num(u64::from(self.retries))),
        ];
        if let Some(e) = &self.error {
            members.push(("error", Json::str(e.clone())));
        }
        members
    }

    /// The record as a deterministic JSON object (elapsed time is
    /// excluded — it is not reproducible). Clones the result tree; the
    /// service itself only ever uses [`line`](Self::line).
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = self
            .header()
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        members.push(("result".into(), self.result.clone()));
        Json::Obj(members)
    }

    /// Encodes the record line, writing the result tree in place.
    fn encode_line(&self) -> String {
        let header = self.header();
        let mut line = String::new();
        write_object(
            &mut line,
            header
                .iter()
                .map(|(k, v)| (*k, v))
                .chain([("result", &self.result)]),
        );
        line
    }
}

type KernelFactory = Box<dyn Fn(JobContext<'_>) -> Result<Box<dyn JobKernel>, String>>;

/// The job engine: admission queue + cache + supervisor loop.
pub struct JobEngine {
    config: EngineConfig,
    cache: NetworkCache,
    queue: VecDeque<Job>,
    next_id: u64,
    shed: u64,
    kinds: Vec<(String, KernelFactory)>,
    journal: Option<Journal>,
    /// Every terminal record line `(id, line)`, in finishing order.
    results: Vec<(u64, String)>,
}

impl JobEngine {
    /// An engine with the given config and an empty queue.
    pub fn new(config: EngineConfig) -> Self {
        let cache = NetworkCache::new(config.validate_every);
        Self {
            config,
            cache,
            queue: VecDeque::new(),
            next_id: 0,
            shed: 0,
            kinds: Vec::new(),
            journal: None,
            results: Vec::new(),
        }
    }

    /// Attaches a write-ahead [`Journal`] in `dir`, replaying any
    /// existing records: finished jobs reload into the
    /// [`results_line`](Self::results_line) set, interrupted jobs are
    /// rebuilt from their journaled request, restored from their last
    /// committed kernel snapshot, and requeued under their original
    /// ids. Returns a summary object
    /// (`{"ok":true,"op":"journal","generation":g,"resumed":n,
    /// "finished":n,"torn":bool}`).
    ///
    /// Call this **after** [`register_kind`](Self::register_kind) —
    /// recovery rebuilds kernels through the same factories as live
    /// submission.
    ///
    /// # Errors
    ///
    /// I/O failures, a corrupt journal (see [`Journal::open`]), or a
    /// journaled job that no longer rebuilds or restores — all fatal:
    /// silently dropping durable jobs would be worse than refusing to
    /// start.
    pub fn attach_journal(&mut self, dir: &Path) -> io::Result<Json> {
        let (journal, recovery) = Journal::open(dir, self.config.fault_plan.clone())?;
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        self.next_id = self.next_id.max(recovery.max_id);
        for job in &recovery.jobs {
            let (kind, timeout, mut kernel) = self
                .build_job(&job.request)
                .map_err(|e| bad(format!("journal: job {} does not rebuild: {e}", job.id)))?;
            if let Some(snapshot) = &job.snapshot {
                kernel.restore(snapshot).map_err(|e| {
                    bad(format!(
                        "journal: job {} snapshot does not restore: {e}",
                        job.id
                    ))
                })?;
            }
            self.queue.push_back(Job {
                id: job.id,
                kind,
                timeout,
                kernel,
                legs: job.legs,
                retries: job.retries,
            });
        }
        let summary = Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("op".into(), Json::str("journal")),
            ("generation".into(), Json::num(recovery.generation)),
            ("resumed".into(), Json::num(recovery.jobs.len() as u64)),
            ("finished".into(), Json::num(recovery.terminal.len() as u64)),
            ("torn".into(), Json::Bool(recovery.torn_tail)),
        ]);
        // The journal replay encoded each finished record's line once.
        self.results.extend(recovery.terminal);
        self.journal = Some(journal);
        Ok(summary)
    }

    /// Every terminal record this engine has produced (or recovered
    /// from its journal), as the line `{"ok":true,"op":"results",
    /// "records":[...]}` with records in job-id order — the
    /// deterministic order that makes a recovered session
    /// byte-comparable to an uninterrupted one. The records are the
    /// stored [`JobRecord::line`]s, joined as they are: the bytes
    /// stdout printed and the journal committed.
    pub fn results_line(&self) -> String {
        let mut records: Vec<&(u64, String)> = self.results.iter().collect();
        records.sort_by_key(|(id, _)| *id);
        let len: usize = records.iter().map(|(_, line)| line.len() + 1).sum();
        let mut out = String::with_capacity(len + 40);
        out.push_str(r#"{"ok":true,"op":"results","records":["#);
        for (i, (_, line)) in records.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(line);
        }
        out.push_str("]}");
        out
    }

    /// Registers an external kernel factory for `kind`. Registered
    /// kinds take precedence over the built-ins.
    pub fn register_kind(
        &mut self,
        kind: impl Into<String>,
        factory: impl Fn(JobContext<'_>) -> Result<Box<dyn JobKernel>, String> + 'static,
    ) {
        self.kinds.push((kind.into(), Box::new(factory)));
    }

    /// Jobs waiting in the admission queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Engine counters as a JSON object.
    pub fn stats_json(&self) -> Json {
        let c = self.cache.stats();
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("op".into(), Json::str("stats")),
            ("pending".into(), Json::num(self.pending() as u64)),
            ("shed".into(), Json::num(self.shed)),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("entries".into(), Json::num(self.cache.len() as u64)),
                    ("hits".into(), Json::num(c.hits)),
                    ("misses".into(), Json::num(c.misses)),
                    ("validations".into(), Json::num(c.validations)),
                    ("evictions".into(), Json::num(c.evictions)),
                ]),
            ),
        ])
    }

    fn reject(&mut self, reason: &str) -> Json {
        Json::Obj(vec![
            ("ok".into(), Json::Bool(false)),
            ("error".into(), Json::str(reason.to_owned())),
        ])
    }

    /// Admits a job described by a JSON request object
    /// (`{"kind": ..., "format": "bench"|"cell", "netlist": ...,
    /// kernel params...}`) and returns the admission verdict:
    /// `{"ok":true,"id":n,"pending":n}` on admit,
    /// `{"ok":false,"shed":true,...}` when the queue is full, or
    /// `{"ok":false,"error":...}` for malformed requests.
    pub fn submit_json(&mut self, request: &Json) -> Json {
        if let Err(e) = required_str(request, "kind") {
            return self.reject(&e);
        }
        // Shed before compiling anything: an overloaded service must
        // refuse cheaply.
        if self.queue.len() >= self.config.queue_capacity {
            self.shed += 1;
            return Json::Obj(vec![
                ("ok".into(), Json::Bool(false)),
                ("shed".into(), Json::Bool(true)),
                ("reason".into(), Json::str("queue full")),
                (
                    "capacity".into(),
                    Json::num(self.config.queue_capacity as u64),
                ),
                ("pending".into(), Json::num(self.queue.len() as u64)),
            ]);
        }
        let (kind, timeout, kernel) = match self.build_job(request) {
            Ok(built) => built,
            Err(e) => return self.reject(&e),
        };
        self.next_id += 1;
        let id = self.next_id;
        // Write-ahead: journal the admission before acking it, so an
        // acked job is always durable. A journal that cannot commit
        // refuses the submission rather than admitting volatile work.
        if let Some(journal) = &mut self.journal {
            if let Err(e) = journal.record_admit(id, request) {
                self.next_id -= 1;
                return self.reject(&format!("journal write failed: {e}"));
            }
        }
        self.queue.push_back(Job {
            id,
            kind,
            timeout,
            kernel,
            legs: 0,
            retries: 0,
        });
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("id".into(), Json::num(id)),
            ("pending".into(), Json::num(self.queue.len() as u64)),
        ])
    }

    /// Builds the kernel (plus kind/timeout) for a request object —
    /// shared by live admission ([`submit_json`](Self::submit_json))
    /// and journal recovery, so a recovered job recompiles through the
    /// exact same cache path as its original submission.
    fn build_job(&mut self, request: &Json) -> Result<BuiltJob, String> {
        let kind = required_str(request, "kind")?.to_owned();
        let source = required_str(request, "netlist")?.to_owned();
        let format = match optional_str(request, "format")? {
            None => NetlistFormat::Bench,
            Some(s) => NetlistFormat::parse(s)?,
        };
        let timeout = optional_u64(request, "timeout_ms")?.map(Duration::from_millis);
        let fault_limit = optional_u64(request, "fault_limit")?;
        let net = self
            .cache
            .get_or_compile(format, &source, self.config.fault_plan.as_deref())
            .map_err(|e| format!("netlist does not compile: {e}"))?;
        let mut faults = match format {
            NetlistFormat::Bench => stuck_fault_list(&net),
            NetlistFormat::Cell => network_fault_list(&net),
        };
        if let Some(limit) = fault_limit {
            faults.truncate(limit as usize);
        }
        let ctx = JobContext {
            net,
            faults,
            parallelism: self.config.parallelism,
            params: request,
        };
        let built = match self.kinds.iter().find(|(k, _)| *k == kind) {
            Some((_, factory)) => Some(factory(ctx)),
            None => build_builtin(&kind, ctx),
        };
        let kernel = match built {
            Some(Ok(k)) => k,
            Some(Err(e)) => return Err(format!("bad {kind} request: {e}")),
            None => return Err(format!("unknown job kind {kind:?}")),
        };
        Ok((kind, timeout, kernel))
    }

    /// Runs the oldest pending job to a terminal state and returns its
    /// record (`None` when the queue is empty).
    ///
    /// The supervisor loop: each iteration probes the fault plan for
    /// an injected leg fault, builds a [`RunBudget`] from the job
    /// deadline and the per-leg slice, runs one kernel leg under
    /// `catch_unwind`, and then either completes, retries with
    /// backoff (bounded by consecutive failures), requeues the next
    /// leg from the kernel's checkpoint, or gives up.
    pub fn run_next(&mut self) -> Option<JobRecord> {
        let mut job = self.queue.pop_front()?;
        let started = Instant::now();
        let job_deadline = job.timeout.map(|t| started + t);
        let plan = self.config.fault_plan.clone();
        // Journal-recovered jobs resume their counters, so the terminal
        // record accounts for the whole job across process lifetimes.
        let mut legs: u32 = job.legs;
        let mut retries: u32 = job.retries;
        let mut consecutive: u32 = 0;
        let mut stop: Option<StopReason> = None;
        let mut error: Option<String> = None;
        let status = loop {
            if legs >= self.config.max_legs {
                error = Some(format!(
                    "kernel made no progress within {} legs",
                    self.config.max_legs
                ));
                break JobStatus::Failed;
            }
            let leg_idx = legs;
            legs += 1;
            // One leg-fault probe per leg, on this thread, in leg
            // order — like the worker probes, the schedule depends
            // only on the plan seed, never on prior outcomes.
            let injected = plan.as_deref().and_then(|p| p.leg_fault(job.id, leg_idx));
            let mut kill = false;
            let mut expire = false;
            match injected {
                Some(LegFault::Kill) => kill = true,
                Some(LegFault::Expire) => expire = true,
                Some(LegFault::Delay(d)) => std::thread::sleep(d),
                None => {}
            }
            let mut budget = RunBudget {
                deadline: job_deadline,
                max_patterns: self.config.leg_patterns,
                max_exact_rows: None,
                cancel: None,
            };
            if let Some(ms) = self.config.leg_ms {
                let slice = Instant::now() + Duration::from_millis(ms);
                budget.deadline = Some(budget.deadline.map_or(slice, |d| d.min(slice)));
            }
            if expire {
                // Artificial deadline expiry: the leg sees an already-
                // expired budget and must checkpoint immediately.
                budget.deadline = Some(Instant::now());
            }
            let kernel = &mut job.kernel;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if kill {
                    panic!("injected job kill (fault plan)"); // dynlint: allow(no-panic-in-durable-paths) -- deliberate chaos injection, confined to catch_unwind directly above
                }
                match &plan {
                    Some(p) => chaos::scoped(p.clone(), || kernel.run_leg(&budget)),
                    None => kernel.run_leg(&budget),
                }
            }));
            match outcome {
                Err(payload) => {
                    consecutive += 1;
                    retries += 1;
                    error = Some(panic_message(payload.as_ref()));
                    if consecutive > self.config.max_retries {
                        break JobStatus::Failed;
                    }
                    if self.backoff_or_deadline(job.id, consecutive, job_deadline) {
                        break JobStatus::DeadlineExceeded;
                    }
                }
                Ok(RunStatus::Interrupted(StopReason::WorkerFailed)) => {
                    stop = Some(StopReason::WorkerFailed);
                    consecutive += 1;
                    retries += 1;
                    error = job
                        .kernel
                        .last_error()
                        .or(Some("worker failed after retry".into()));
                    if consecutive > self.config.max_retries {
                        break JobStatus::Failed;
                    }
                    if self.backoff_or_deadline(job.id, consecutive, job_deadline) {
                        break JobStatus::DeadlineExceeded;
                    }
                }
                Ok(RunStatus::Completed) => break JobStatus::Completed,
                Ok(RunStatus::Interrupted(reason)) => {
                    // A clean checkpoint boundary: not a failure. The
                    // kernel just committed its checkpoint, so this is
                    // also the one durable point — journal the snapshot
                    // before running further legs.
                    stop = Some(reason);
                    consecutive = 0;
                    error = None;
                    if let Some(journal) = &mut self.journal {
                        if let Err(e) =
                            journal.record_leg(job.id, legs, retries, job.kernel.snapshot())
                        {
                            error = Some(format!("journal write failed: {e}"));
                            break JobStatus::Failed;
                        }
                    }
                    if job_deadline.is_some_and(|d| Instant::now() >= d) {
                        break JobStatus::DeadlineExceeded;
                    }
                }
            }
        };
        let mut record = JobRecord {
            id: job.id,
            kind: job.kind,
            status,
            legs,
            retries,
            stop,
            error,
            result: job.kernel.output(),
            line: String::new(),
            elapsed: started.elapsed(),
        };
        record.line = record.encode_line();
        // Write-ahead: the terminal record is durable before the client
        // sees it, and is what a restarted session replays verbatim.
        if let Some(journal) = &mut self.journal {
            if let Err(e) = journal.record_done_line(record.id, &record.line) {
                // The record is not durable; say so in the line that
                // stdout and `results` carry.
                if record.error.is_none() {
                    record.error = Some(format!("journal write failed: {e}"));
                    record.line = record.encode_line();
                }
            }
        }
        self.results.push((record.id, record.line.clone()));
        Some(record)
    }

    /// Sleeps the retry backoff for `retry`, clamped to the job's
    /// remaining deadline. Returns `true` when the deadline was reached
    /// — the overshoot becomes a clean [`JobStatus::DeadlineExceeded`]
    /// instead of a full backoff sleep followed by a doomed extra leg.
    fn backoff_or_deadline(&self, job: u64, retry: u32, deadline: Option<Instant>) -> bool {
        let delay = self.config.backoff.delay(job, retry);
        let Some(deadline) = deadline else {
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            return false;
        };
        let remaining = deadline.saturating_duration_since(Instant::now());
        if delay < remaining {
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            return false;
        }
        if !remaining.is_zero() {
            std::thread::sleep(remaining);
        }
        true
    }

    /// Runs every pending job to a terminal state.
    pub fn drain(&mut self) -> Vec<JobRecord> {
        let mut records = Vec::new();
        while let Some(record) = self.run_next() {
            records.push(record);
        }
        records
    }
}
