//! The [`JobKernel`] abstraction and the built-in kernels wrapping
//! every budgeted PROTEST kernel in this crate.
//!
//! A kernel runs in supervisor-scheduled **legs**: each
//! [`JobKernel::run_leg`] call advances the job under one
//! [`RunBudget`] and returns whether the job completed or stopped at a
//! checkpointable boundary. Kernels commit state **only on return** —
//! a leg that dies mid-flight (injected kill, worker panic) leaves the
//! kernel exactly at its previous checkpoint, which is what makes
//! supervisor retries bit-identical to an uninterrupted run. Fault
//! simulation, both Monte Carlo estimators and PODEM run through
//! [`Checkpointed`]. One streamed estimate job serves `detect`,
//! `testability` and `length`: it commits per fault, and `length`
//! then searches the test length over the committed estimates.
//! `optimize` keeps its last report but restarts an interrupted
//! descent.

use crate::budget::{RunBudget, RunStatus, DEFAULT_EXACT_ROWS};
use crate::detect::{DetectionEstimate, EstimateMethod};
use crate::fsim::{FaultSimulator, FsimCheckpoint, FsimOutcome};
use crate::length::{test_length_budgeted, LengthError};
use crate::list::FaultEntry;
use crate::montecarlo::{
    mc_detection_probabilities_budgeted, mc_detection_resume, mc_signal_probability_budgeted,
    mc_signal_resume, Estimate, McCheckpoint,
};
use crate::optimize::{optimize_input_probabilities_budgeted, OptimizeReport};
use crate::parallel::Parallelism;
use crate::random::PatternSource;
use crate::service::json::Json;
use crate::testability::{
    tier_census, DetectionEngine, TestabilityConfig, TierMode, MAX_TIGHTEN_SAMPLES,
};
use dynmos_netlist::Network;
use std::sync::Arc;

/// Default seed for kernels whose request omits one (shared with the
/// `faultlib` CLI).
pub const DEFAULT_SEED: u64 = 0x00DA_C086;

/// Default pattern/sample budget for fsim and Monte Carlo jobs.
const DEFAULT_WORK: u64 = 10_000;

/// Default confidence for length/optimize jobs.
const DEFAULT_CONFIDENCE: f64 = 0.999;

/// Everything a kernel factory gets to build a job from a request.
pub struct JobContext<'a> {
    /// The compiled network (shared with the cache).
    pub net: Arc<Network>,
    /// The fault list derived from the request.
    pub faults: Vec<FaultEntry>,
    /// The engine's thread policy.
    pub parallelism: Parallelism,
    /// The raw request object — kernels read their parameters from it
    /// (see [`optional_u64`] and friends).
    pub params: &'a Json,
}

/// One supervised job kernel: a budgeted PROTEST kernel plus enough
/// state to resume across legs. Kernels whose state is a kernel
/// checkpoint implement [`Resumable`] and run as [`Checkpointed`].
pub trait JobKernel: Send {
    /// Advances the job under `budget`. Must commit state only on
    /// return, and must make forward progress on every call with a
    /// non-degenerate budget (the underlying kernels guarantee one
    /// chunk per call).
    fn run_leg(&mut self, budget: &RunBudget) -> RunStatus;

    /// The job's result so far — a deterministic JSON value (partial
    /// results are valid for interrupted jobs; completed jobs report
    /// results bit-identical to an uninterrupted run).
    fn output(&self) -> Json;

    /// The last worker failure this kernel observed, if any.
    fn last_error(&self) -> Option<String> {
        None
    }

    /// The kernel's serializable resume state — everything committed at
    /// the last returned leg, as JSON the write-ahead journal can
    /// persist. A kernel with no cross-leg state returns `Json::Null`:
    /// restoring it restarts the (deterministic) computation.
    ///
    /// Snapshots carry *resume* state only, never terminal output; a
    /// completed job is journaled via its terminal record instead.
    fn snapshot(&self) -> Json;

    /// Restores a kernel freshly built from its original request to a
    /// prior [`JobKernel::snapshot`]. Resuming from the restored state
    /// completes bit-identical to the uninterrupted run (the service
    /// determinism contract, now across process boundaries).
    ///
    /// # Errors
    ///
    /// Returns a message when the snapshot does not round-trip (wrong
    /// kind, mistyped fields) — the journal is then treated as corrupt.
    fn restore(&mut self, snapshot: &Json) -> Result<(), String>;
}

/// What one [`Resumable::leg`] returns.
pub struct Leg<C, R> {
    /// Completed, or why the leg stopped.
    pub status: RunStatus,
    /// Where the next leg resumes; `Some` exactly when interrupted.
    pub checkpoint: Option<C>,
    /// The kernel's outcome so far (partial when interrupted).
    pub outcome: R,
    /// The worker failure behind a
    /// [`StopReason::WorkerFailed`](crate::budget::StopReason::WorkerFailed)
    /// stop, if any.
    pub error: Option<String>,
}

/// A budgeted kernel that stops at chunk boundaries with a serializable
/// checkpoint. [`Checkpointed`] turns it into a [`JobKernel`] and owns
/// all progress bookkeeping; the kernel itself holds only its request.
pub trait Resumable: Send + Sized {
    /// The kernel's resume state between legs.
    type Checkpoint: Clone + Send;
    /// What a leg reports (partial when interrupted).
    type Outcome: Send;

    /// The checkpoint's exact JSON encoding.
    const TO_JSON: fn(&Self::Checkpoint) -> Json;

    /// Inverse of [`Resumable::TO_JSON`]; a malformed checkpoint is an
    /// error message.
    const FROM_JSON: fn(&Json) -> Result<Self::Checkpoint, String>;

    /// Builds the kernel from a request.
    ///
    /// # Errors
    ///
    /// Returns a message for invalid request parameters.
    fn from_request(ctx: JobContext<'_>) -> Result<Self, String>;

    /// Runs one leg: the kernel's start function when `from` is `None`,
    /// else its resume function on the checkpoint.
    fn leg(
        &self,
        from: Option<Self::Checkpoint>,
        budget: &RunBudget,
    ) -> Leg<Self::Checkpoint, Self::Outcome>;

    /// The job output for the last leg's outcome (`None` before any leg
    /// returned).
    fn output(&self, outcome: Option<&Self::Outcome>, complete: bool) -> Json;
}

/// Where a [`Checkpointed`] job stands between legs.
enum Progress<C> {
    /// No leg has returned yet.
    Fresh,
    /// Interrupted; the next leg resumes here.
    At(C),
    /// Completed.
    Done,
}

/// The [`JobKernel`] for every [`Resumable`] kernel. Its snapshot is
/// `{"started":bool,"checkpoint":object|null}`.
pub struct Checkpointed<K: Resumable> {
    kernel: K,
    progress: Progress<K::Checkpoint>,
    outcome: Option<K::Outcome>,
    error: Option<String>,
}

impl<K: Resumable> Checkpointed<K> {
    /// Builds the job from a request (see [`Resumable::from_request`]).
    ///
    /// # Errors
    ///
    /// Returns the kernel's message for invalid request parameters.
    pub fn from_request(ctx: JobContext<'_>) -> Result<Self, String> {
        Ok(Self {
            kernel: K::from_request(ctx)?,
            progress: Progress::Fresh,
            outcome: None,
            error: None,
        })
    }
}

impl<K: Resumable> JobKernel for Checkpointed<K> {
    fn run_leg(&mut self, budget: &RunBudget) -> RunStatus {
        // The checkpoint is cloned, not taken: a leg that dies leaves
        // the job at its previous checkpoint.
        let from = match &self.progress {
            Progress::Fresh => None,
            Progress::At(cp) => Some(cp.clone()),
            // Completed earlier and re-run: re-report the same result.
            Progress::Done => return RunStatus::Completed,
        };
        let leg = self.kernel.leg(from, budget);
        self.progress = leg.checkpoint.map_or(Progress::Done, Progress::At);
        self.outcome = Some(leg.outcome);
        self.error = leg.error;
        leg.status
    }

    fn output(&self) -> Json {
        let complete = matches!(self.progress, Progress::Done);
        self.kernel.output(self.outcome.as_ref(), complete)
    }

    fn last_error(&self) -> Option<String> {
        self.error.clone()
    }

    fn snapshot(&self) -> Json {
        let (started, checkpoint) = match &self.progress {
            Progress::Fresh => (false, Json::Null),
            Progress::At(cp) => (true, (K::TO_JSON)(cp)),
            Progress::Done => (true, Json::Null),
        };
        Json::Obj(vec![
            ("started".into(), Json::Bool(started)),
            ("checkpoint".into(), checkpoint),
        ])
    }

    fn restore(&mut self, snapshot: &Json) -> Result<(), String> {
        let started = snapshot
            .get("started")
            .and_then(Json::as_bool)
            .ok_or("snapshot: bad or missing \"started\"")?;
        self.progress = match snapshot.get("checkpoint") {
            Some(cp) if !matches!(cp, Json::Null) => Progress::At((K::FROM_JSON)(cp)?),
            _ if started => Progress::Done,
            _ => Progress::Fresh,
        };
        Ok(())
    }
}

/// Reads an unsigned-integer parameter with a default, treating a
/// mistyped value as absent. Kernels refuse mistyped values instead,
/// through [`optional_u64`].
/// Only perfbench calls this, to rebuild a request's expected result.
pub fn param_u64(params: &Json, key: &str, default: u64) -> u64 {
    params.get(key).and_then(Json::as_u64).unwrap_or(default)
}

/// Reads an optional parameter that must be a non-negative integer when
/// present — a mistyped value is refused, never ignored.
///
/// # Errors
///
/// Returns a message naming `key` when the value is present but not a
/// non-negative integer.
pub fn optional_u64(params: &Json, key: &str) -> Result<Option<u64>, String> {
    params
        .get(key)
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("{key:?} must be a non-negative integer, got {v}"))
        })
        .transpose()
}

/// [`optional_u64`] for a parameter that must be a string.
///
/// # Errors
///
/// Returns a message naming `key` when the value is present but not a
/// string.
pub(crate) fn optional_str<'a>(params: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    params
        .get(key)
        .map(|v| {
            v.as_str()
                .ok_or_else(|| format!("{key:?} must be a string, got {v}"))
        })
        .transpose()
}

/// [`optional_str`] for a key the request must carry.
///
/// # Errors
///
/// Returns a message naming `key` when it is absent or not a string.
pub(crate) fn required_str<'a>(params: &'a Json, key: &str) -> Result<&'a str, String> {
    optional_str(params, key)?.ok_or_else(|| format!("missing {key:?}"))
}

/// [`optional_u64`] for a parameter that must be a number.
///
/// # Errors
///
/// Returns a message naming `key` when the value is present but not a
/// number.
pub(crate) fn optional_f64(params: &Json, key: &str) -> Result<Option<f64>, String> {
    params
        .get(key)
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| format!("{key:?} must be a number, got {v}"))
        })
        .transpose()
}

/// Reads a per-input probability vector: the request's `probs` array
/// when present (validated for arity and range), else `default` for
/// every input.
///
/// # Errors
///
/// Returns a message on arity mismatch, non-numbers, or values outside
/// `[0, 1]`.
pub fn param_probs(params: &Json, n: usize, default: f64) -> Result<Vec<f64>, String> {
    match params.get("probs") {
        None => Ok(vec![default; n]),
        Some(Json::Arr(items)) => {
            if items.len() != n {
                return Err(format!(
                    "probs has {} entries, network has {n} inputs",
                    items.len()
                ));
            }
            items
                .iter()
                .map(|v| {
                    probability(v).ok_or_else(|| format!("probs entry {v} is not a probability"))
                })
                .collect()
        }
        Some(other) => Err(format!("probs must be an array, got {other}")),
    }
}

/// A JSON number in `[0, 1]`.
fn probability(v: &Json) -> Option<f64> {
    v.as_f64().filter(|p| (0.0..=1.0).contains(p))
}

fn estimate_fields(e: &Estimate) -> [(String, Json); 3] {
    [
        ("value".into(), Json::Num(e.value)),
        ("half_width".into(), Json::Num(e.half_width)),
        ("samples".into(), Json::num(e.samples)),
    ]
}

/// Weighted-random fault simulation ([`FaultSimulator`]).
struct Fsim {
    net: Arc<Network>,
    faults: Vec<FaultEntry>,
    parallelism: Parallelism,
    seed: u64,
    probs: Vec<f64>,
    max_patterns: u64,
}

impl Resumable for Fsim {
    type Checkpoint = FsimCheckpoint;
    type Outcome = FsimOutcome;
    const TO_JSON: fn(&FsimCheckpoint) -> Json = FsimCheckpoint::to_json;
    const FROM_JSON: fn(&Json) -> Result<FsimCheckpoint, String> = FsimCheckpoint::from_json;

    /// Request: `patterns`, `seed`, `probs`.
    fn from_request(ctx: JobContext<'_>) -> Result<Self, String> {
        let n = ctx.net.primary_inputs().len();
        Ok(Self {
            probs: param_probs(ctx.params, n, 0.5)?,
            seed: optional_u64(ctx.params, "seed")?.unwrap_or(DEFAULT_SEED),
            max_patterns: optional_u64(ctx.params, "patterns")?.unwrap_or(DEFAULT_WORK),
            net: ctx.net,
            faults: ctx.faults,
            parallelism: ctx.parallelism,
        })
    }

    fn leg(
        &self,
        from: Option<FsimCheckpoint>,
        budget: &RunBudget,
    ) -> Leg<FsimCheckpoint, FsimOutcome> {
        // The source is rebuilt per leg: batch addressing in the
        // checkpoint is absolute, so only the stream (seed + weights)
        // matters, not a cursor surviving between legs.
        let mut src = PatternSource::new(self.seed, self.probs.clone());
        let sim = FaultSimulator::with_parallelism(&self.net, self.parallelism);
        let run = match from {
            Some(cp) => sim.resume_random(&self.faults, &mut src, cp, budget),
            None => sim.run_random_budgeted(&self.faults, &mut src, self.max_patterns, budget),
        };
        Leg {
            status: run.status,
            checkpoint: run.checkpoint,
            outcome: run.outcome,
            error: run.worker_error.map(|e| e.to_string()),
        }
    }

    fn output(&self, outcome: Option<&FsimOutcome>, complete: bool) -> Json {
        let Some(out) = outcome else {
            return Json::Obj(vec![("kind".into(), Json::str("fsim"))]);
        };
        Json::Obj(vec![
            ("kind".into(), Json::str("fsim")),
            ("patterns".into(), Json::num(out.patterns_applied)),
            ("coverage".into(), Json::Num(out.coverage())),
            (
                "detected_at".into(),
                Json::Arr(
                    out.detected_at
                        .iter()
                        .map(|d| d.map_or(Json::Null, Json::num))
                        .collect(),
                ),
            ),
            ("complete".into(), Json::Bool(complete)),
        ])
    }
}

/// Monte Carlo detection-probability estimation.
struct McDetect {
    net: Arc<Network>,
    faults: Vec<FaultEntry>,
    parallelism: Parallelism,
    seed: u64,
    probs: Vec<f64>,
    samples: u64,
}

impl Resumable for McDetect {
    type Checkpoint = McCheckpoint;
    type Outcome = Vec<Estimate>;
    const TO_JSON: fn(&McCheckpoint) -> Json = McCheckpoint::to_json;
    const FROM_JSON: fn(&Json) -> Result<McCheckpoint, String> = McCheckpoint::from_json;

    /// Request: `samples`, `seed`, `probs`.
    fn from_request(ctx: JobContext<'_>) -> Result<Self, String> {
        let n = ctx.net.primary_inputs().len();
        Ok(Self {
            probs: param_probs(ctx.params, n, 0.5)?,
            seed: optional_u64(ctx.params, "seed")?.unwrap_or(DEFAULT_SEED),
            samples: optional_u64(ctx.params, "samples")?
                .unwrap_or(DEFAULT_WORK)
                .max(1),
            net: ctx.net,
            faults: ctx.faults,
            parallelism: ctx.parallelism,
        })
    }

    fn leg(
        &self,
        from: Option<McCheckpoint>,
        budget: &RunBudget,
    ) -> Leg<McCheckpoint, Vec<Estimate>> {
        let (net, faults, probs) = (&self.net, &self.faults, &self.probs);
        let run = match from {
            Some(cp) => {
                mc_detection_resume(net, faults, probs, self.seed, self.parallelism, budget, cp)
            }
            None => mc_detection_probabilities_budgeted(
                net,
                faults,
                probs,
                self.seed,
                self.samples,
                self.parallelism,
                budget,
            ),
        };
        Leg {
            status: run.status,
            checkpoint: run.checkpoint,
            outcome: run.estimates,
            error: run.worker_error.map(|e| e.to_string()),
        }
    }

    fn output(&self, estimates: Option<&Vec<Estimate>>, complete: bool) -> Json {
        let estimates = estimates.map_or(&[][..], Vec::as_slice);
        Json::Obj(vec![
            ("kind".into(), Json::str("mc-detect")),
            (
                "estimates".into(),
                Json::Arr(
                    estimates
                        .iter()
                        .map(|e| Json::Obj(estimate_fields(e).into()))
                        .collect(),
                ),
            ),
            ("complete".into(), Json::Bool(complete)),
        ])
    }
}

/// Monte Carlo signal-probability estimation for one primary output.
struct McSignal {
    net: Arc<Network>,
    parallelism: Parallelism,
    output_index: usize,
    seed: u64,
    probs: Vec<f64>,
    samples: u64,
}

impl Resumable for McSignal {
    type Checkpoint = McCheckpoint;
    type Outcome = Estimate;
    const TO_JSON: fn(&McCheckpoint) -> Json = McCheckpoint::to_json;
    const FROM_JSON: fn(&Json) -> Result<McCheckpoint, String> = McCheckpoint::from_json;

    /// Request: `output` index, `samples`, `seed`, `probs`; an
    /// out-of-range `output` is an error.
    fn from_request(ctx: JobContext<'_>) -> Result<Self, String> {
        let n = ctx.net.primary_inputs().len();
        let outputs = ctx.net.primary_outputs().len();
        let output_index = optional_u64(ctx.params, "output")?.unwrap_or(0) as usize;
        if output_index >= outputs {
            return Err(format!(
                "output index {output_index} out of range (network has {outputs} outputs)"
            ));
        }
        Ok(Self {
            probs: param_probs(ctx.params, n, 0.5)?,
            seed: optional_u64(ctx.params, "seed")?.unwrap_or(DEFAULT_SEED),
            samples: optional_u64(ctx.params, "samples")?
                .unwrap_or(DEFAULT_WORK)
                .max(1),
            output_index,
            net: ctx.net,
            parallelism: ctx.parallelism,
        })
    }

    fn leg(&self, from: Option<McCheckpoint>, budget: &RunBudget) -> Leg<McCheckpoint, Estimate> {
        let (net, probs) = (&self.net, &self.probs);
        let target = net.primary_outputs()[self.output_index];
        let run = match from {
            Some(cp) => {
                mc_signal_resume(net, target, probs, self.seed, self.parallelism, budget, cp)
            }
            None => mc_signal_probability_budgeted(
                net,
                target,
                probs,
                self.seed,
                self.samples,
                self.parallelism,
                budget,
            ),
        };
        Leg {
            status: run.status,
            checkpoint: run.checkpoint,
            outcome: run.estimates[0],
            error: run.worker_error.map(|e| e.to_string()),
        }
    }

    fn output(&self, estimate: Option<&Estimate>, complete: bool) -> Json {
        let mut members = vec![
            ("kind".into(), Json::str("mc-signal")),
            ("output".into(), Json::num(self.output_index as u64)),
        ];
        members.extend(estimate.into_iter().flat_map(estimate_fields));
        members.push(("complete".into(), Json::Bool(complete)));
        Json::Obj(members)
    }
}

/// Shared payload shape for a [`DetectionEstimate`]: value, standard
/// error, engine-tier token, and — for the cutting tier — certified
/// bounds.
fn estimate_json(e: &DetectionEstimate) -> Json {
    let mut fields = vec![
        ("value".into(), Json::Num(e.value)),
        ("std_error".into(), Json::Num(e.std_error)),
        ("method".into(), Json::str(e.method.token())),
    ];
    if let Some((lo, hi)) = e.bounds {
        fields.push(("low".into(), Json::Num(lo)));
        fields.push(("high".into(), Json::Num(hi)));
    }
    Json::Obj(fields)
}

/// A test length as JSON. The kernels' `u64::MAX` = "some fault is
/// never detected" sentinel exceeds 2^53 and cannot ride a JSON number
/// exactly, so it is written as null.
fn length_json(n: u64) -> Json {
    match n {
        u64::MAX => Json::Null,
        n => Json::num(n),
    }
}

/// Input-probability optimization ([`optimize_input_probabilities_budgeted`]).
/// The optimizer keeps best-so-far state internally per call but has no
/// cross-call checkpoint, so an interrupted leg restarts the descent;
/// the snapshot keeps the last returned report, so a crash-recovered
/// job does not forget a finished one.
struct OptimizeJob {
    net: Arc<Network>,
    faults: Vec<FaultEntry>,
    parallelism: Parallelism,
    confidence: f64,
    max_sweeps: usize,
    report: Option<OptimizeReport>,
    methods: Vec<EstimateMethod>,
    complete: bool,
}

impl OptimizeJob {
    /// Builds the job from a request (`confidence`, `max_sweeps`).
    ///
    /// # Errors
    ///
    /// Returns a message for a mistyped `confidence` or `max_sweeps`, a
    /// `confidence` outside `(0, 1)`, or an empty fault list: the
    /// optimizer's test-length objective is undefined for both.
    fn from_request(ctx: JobContext<'_>) -> Result<Self, String> {
        let confidence = optional_f64(ctx.params, "confidence")?.unwrap_or(DEFAULT_CONFIDENCE);
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(format!(
                "\"confidence\" must be in (0, 1), got {confidence}"
            ));
        }
        if ctx.faults.is_empty() {
            return Err("the fault list is empty: nothing to optimize".into());
        }
        Ok(Self {
            confidence,
            max_sweeps: optional_u64(ctx.params, "max_sweeps")?.unwrap_or(2) as usize,
            net: ctx.net,
            faults: ctx.faults,
            parallelism: ctx.parallelism,
            report: None,
            methods: Vec::new(),
            complete: false,
        })
    }
}

impl JobKernel for OptimizeJob {
    fn run_leg(&mut self, budget: &RunBudget) -> RunStatus {
        if self.complete {
            return RunStatus::Completed;
        }
        let run = optimize_input_probabilities_budgeted(
            &self.net,
            &self.faults,
            self.confidence,
            self.max_sweeps,
            self.parallelism,
            budget,
        );
        self.complete = run.status.is_complete();
        self.report = Some(run.report);
        self.methods = run.methods;
        run.status
    }

    fn output(&self) -> Json {
        let mut members = vec![("kind".into(), Json::str("optimize"))];
        if let Some(r) = &self.report {
            members.push((
                "probabilities".into(),
                Json::Arr(r.probabilities.iter().map(|&p| Json::Num(p)).collect()),
            ));
            members.push(("uniform_length".into(), length_json(r.uniform_length)));
            members.push(("optimized_length".into(), length_json(r.optimized_length)));
            members.push(("sweeps".into(), Json::num(r.sweeps as u64)));
            members.push(("tiers".into(), Json::str(tier_census(&self.methods))));
        }
        members.push(("complete".into(), Json::Bool(self.complete)));
        Json::Obj(members)
    }

    fn snapshot(&self) -> Json {
        // The best-so-far report is the job's cross-leg state: a
        // crash between legs must not forget a finished descent (the
        // engine would otherwise re-run it and, worse, report
        // `complete: false` forever if the budget shrank).
        let Some(r) = &self.report else {
            return Json::Null;
        };
        Json::Obj(vec![
            (
                "probabilities".into(),
                Json::Arr(r.probabilities.iter().map(|&p| Json::Num(p)).collect()),
            ),
            ("uniform_length".into(), length_json(r.uniform_length)),
            ("optimized_length".into(), length_json(r.optimized_length)),
            ("sweeps".into(), Json::num(r.sweeps as u64)),
            (
                "methods".into(),
                Json::Arr(self.methods.iter().map(|m| Json::str(m.token())).collect()),
            ),
            ("complete".into(), Json::Bool(self.complete)),
        ])
    }

    fn restore(&mut self, snapshot: &Json) -> Result<(), String> {
        if matches!(snapshot, Json::Null) {
            return Ok(());
        }
        let inputs = self.net.primary_inputs().len();
        let probabilities = match snapshot.get("probabilities") {
            Some(Json::Arr(items)) if items.len() == inputs => items
                .iter()
                .map(|v| {
                    probability(v).ok_or_else(|| format!("optimize snapshot: bad probability {v}"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            other => {
                return Err(format!(
                    "optimize snapshot: probabilities must hold one per input ({inputs}), \
                     got {other:?}"
                ))
            }
        };
        let length = |key: &str| -> Result<u64, String> {
            match snapshot.get(key) {
                None | Some(Json::Null) => Ok(u64::MAX),
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| format!("optimize snapshot: bad {key} {v}")),
            }
        };
        let sweeps = snapshot
            .get("sweeps")
            .and_then(Json::as_u64)
            .ok_or_else(|| "optimize snapshot: missing sweeps".to_owned())?;
        if sweeps > self.max_sweeps as u64 {
            return Err(format!(
                "optimize snapshot: {sweeps} sweeps exceed max_sweeps {}",
                self.max_sweeps
            ));
        }
        let methods = match snapshot.get("methods") {
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Arr(items)) => items
                .iter()
                .map(|v| {
                    v.as_str()
                        .ok_or_else(|| format!("optimize snapshot: bad method {v}"))
                        .and_then(EstimateMethod::from_token)
                })
                .collect::<Result<Vec<_>, _>>()?,
            Some(other) => return Err(format!("optimize snapshot: bad methods {other}")),
        };
        if !methods.is_empty() && methods.len() != self.faults.len() {
            return Err(format!(
                "optimize snapshot: {} methods for {} faults",
                methods.len(),
                self.faults.len()
            ));
        }
        self.methods = methods;
        self.report = Some(OptimizeReport {
            probabilities,
            uniform_length: length("uniform_length")?,
            optimized_length: length("optimized_length")?,
            sweeps: sweeps as usize,
        });
        self.complete = snapshot
            .get("complete")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        Ok(())
    }
}

/// What an [`EstimateJob`] derives from its estimates: the per-kind tag
/// of the three job kinds it serves.
enum EstimateKind {
    /// `detect`: the estimates alone.
    Detect,
    /// `testability`: the estimates and their tier census.
    Testability,
    /// `length`: the joint-confidence test length over the estimates'
    /// values, searched once every estimate is committed.
    Length { confidence: f64 },
}

/// The streamed detection-estimate job behind `detect`, `testability`
/// and `length`: detection probabilities for the whole fault list via
/// the [`DetectionEngine`], committed one fault at a time. The snapshot
/// carries every committed estimate, and the engine's per-fault values
/// are batch-independent, so a crash-recovered job resumes at the last
/// journaled fault boundary and still completes bit-identical to an
/// uninterrupted run. A `length` job then runs the length search, which
/// keeps no checkpoint: an interrupted search re-runs from the committed
/// estimates.
struct EstimateJob {
    kind: EstimateKind,
    net: Arc<Network>,
    faults: Vec<FaultEntry>,
    parallelism: Parallelism,
    probs: Vec<f64>,
    config: TestabilityConfig,
    /// `detect` only: the request's cap on the exact tier's row space,
    /// applied to every leg's budget.
    max_exact_rows: Option<u64>,
    /// Committed estimates for faults `0..done.len()`, in list order.
    done: Vec<DetectionEstimate>,
    /// `length` only: the searched length, or the search's permanent
    /// failure (bad inputs), once the search has finished.
    length: Option<Result<u64, String>>,
}

impl EstimateJob {
    /// Builds a `detect`, `length` or `testability` job from a request.
    /// Each kind reads its own keys, in its own order:
    /// - `detect`: `max_exact_rows`, `probs`, `seed`;
    /// - `length`: `probs`, `seed`, `confidence`;
    /// - `testability`: `seed`, `mode`, `node_budget`,
    ///   `tighten_samples`, `probs`. An absent `mode` follows the
    ///   process-wide `DYNMOS_TESTABILITY` policy, as it does for the
    ///   other two kinds.
    ///
    /// # Errors
    ///
    /// Returns a message for invalid `probs`; a mistyped key; a
    /// `max_exact_rows` above [`DEFAULT_EXACT_ROWS`], which would let the
    /// unbudgeted first fault of the exact tier outrun the job's
    /// deadline; an unknown `mode`; or a `tighten_samples` above
    /// [`MAX_TIGHTEN_SAMPLES`]: the sample bank is drawn outside the leg
    /// budget, so a larger count would let a leg ignore its deadline.
    fn from_request(kind: &str, ctx: JobContext<'_>) -> Result<Self, String> {
        let params = ctx.params;
        let n = ctx.net.primary_inputs().len();
        let seeded = || {
            Ok::<_, String>(
                TestabilityConfig::from_env()
                    .with_seed(optional_u64(params, "seed")?.unwrap_or(DEFAULT_SEED)),
            )
        };
        let probs = || param_probs(params, n, 0.5);
        let (kind, probs, config, max_exact_rows) = match kind {
            "detect" => {
                let rows = optional_u64(params, "max_exact_rows")?;
                if let Some(rows) = rows.filter(|&rows| rows > DEFAULT_EXACT_ROWS) {
                    return Err(format!(
                        "\"max_exact_rows\" must be at most {DEFAULT_EXACT_ROWS}, got {rows}"
                    ));
                }
                let probs = probs()?;
                (EstimateKind::Detect, probs, seeded()?, rows)
            }
            "length" => {
                let probs = probs()?;
                let config = seeded()?;
                let confidence = optional_f64(params, "confidence")?.unwrap_or(DEFAULT_CONFIDENCE);
                (EstimateKind::Length { confidence }, probs, config, None)
            }
            _ => {
                let mut config = seeded()?;
                if let Some(token) = optional_str(params, "mode")? {
                    config = config.with_mode(TierMode::parse(token)?);
                }
                if let Some(nodes) = optional_u64(params, "node_budget")? {
                    config = config.with_node_budget(nodes as usize);
                }
                if let Some(samples) = optional_u64(params, "tighten_samples")? {
                    if samples > MAX_TIGHTEN_SAMPLES {
                        return Err(format!(
                            "\"tighten_samples\" must be at most {MAX_TIGHTEN_SAMPLES}, got {samples}"
                        ));
                    }
                    config = config.with_mc_tighten_samples(samples);
                }
                (EstimateKind::Testability, probs()?, config, None)
            }
        };
        Ok(Self {
            kind,
            probs,
            config,
            max_exact_rows,
            net: ctx.net,
            faults: ctx.faults,
            parallelism: ctx.parallelism,
            done: Vec::new(),
            length: None,
        })
    }

    fn estimated(&self) -> bool {
        self.done.len() >= self.faults.len()
    }

    fn complete(&self) -> bool {
        match self.kind {
            EstimateKind::Length { .. } => self.length.is_some(),
            _ => self.estimated(),
        }
    }

    fn estimates_json(&self) -> Json {
        Json::Arr(self.done.iter().map(estimate_json).collect())
    }
}

impl JobKernel for EstimateJob {
    fn run_leg(&mut self, budget: &RunBudget) -> RunStatus {
        let streamed = !self.estimated();
        if streamed {
            let mut budget = budget.clone();
            budget.max_exact_rows = self.max_exact_rows.or(budget.max_exact_rows);
            // The engine borrows the network, so each leg builds a fresh
            // one; per-fault values are engine-instance-independent (the
            // streaming contract of `estimates_from`), so legs compose
            // bit-identically.
            let mut engine = DetectionEngine::new(&self.net, &self.faults, self.config.clone())
                .with_parallelism(self.parallelism);
            let start = self.done.len();
            let done = &mut self.done;
            let status = engine.estimates_from(start, &self.probs, &budget, &mut |i, est| {
                debug_assert_eq!(i, done.len());
                done.push(est);
            });
            if !status.is_complete() {
                return status;
            }
        }
        let EstimateKind::Length { confidence } = self.kind else {
            return RunStatus::Completed;
        };
        if self.length.is_some() {
            return RunStatus::Completed;
        }
        // A leg that starts at the search runs it without a deadline:
        // the search is the job's last unit of work, so this is its
        // forward progress under any leg slice.
        let search_budget = if streamed {
            budget.clone()
        } else {
            RunBudget {
                deadline: None,
                ..budget.clone()
            }
        };
        let values: Vec<f64> = self.done.iter().map(|e| e.value).collect();
        self.length =
            match test_length_budgeted(&values, confidence, self.parallelism, &search_budget) {
                Ok(n) => Some(Ok(n)),
                Err(LengthError::Interrupted(reason)) => return RunStatus::Interrupted(reason),
                // Bad inputs are permanent, not retryable: report the
                // failure in the output and complete the job.
                Err(e) => Some(Err(e.to_string())),
            };
        RunStatus::Completed
    }

    fn output(&self) -> Json {
        let mut members: Vec<(String, Json)> = match self.kind {
            EstimateKind::Detect => vec![
                ("kind".into(), Json::str("detect")),
                ("estimates".into(), self.estimates_json()),
            ],
            EstimateKind::Testability => vec![
                ("kind".into(), Json::str("testability")),
                ("estimates".into(), self.estimates_json()),
                (
                    "tiers".into(),
                    Json::str(tier_census(self.done.iter().map(|e| &e.method))),
                ),
            ],
            EstimateKind::Length { confidence } => {
                let found = self.length.as_ref().and_then(|r| r.as_ref().ok());
                let mut members = vec![
                    ("kind".into(), Json::str("length")),
                    ("confidence".into(), Json::Num(confidence)),
                    (
                        "length".into(),
                        found.map_or(Json::Null, |&n| length_json(n)),
                    ),
                ];
                // JSON readers get an explicit flag beside the null.
                if found == Some(&u64::MAX) {
                    members.push(("unbounded".into(), Json::Bool(true)));
                }
                if let Some(Err(e)) = &self.length {
                    members.push(("error".into(), Json::str(e.clone())));
                }
                members
            }
        };
        members.push(("complete".into(), Json::Bool(self.complete())));
        Json::Obj(members)
    }

    fn snapshot(&self) -> Json {
        Json::Obj(vec![
            ("next".into(), Json::num(self.done.len() as u64)),
            ("estimates".into(), self.estimates_json()),
        ])
    }

    fn restore(&mut self, snapshot: &Json) -> Result<(), String> {
        if matches!(snapshot, Json::Null) {
            return Ok(());
        }
        let next = snapshot
            .get("next")
            .and_then(Json::as_u64)
            .ok_or("estimate snapshot: bad or missing \"next\"")? as usize;
        let items = match snapshot.get("estimates") {
            Some(Json::Arr(items)) => items,
            _ => return Err("estimate snapshot: bad or missing \"estimates\"".into()),
        };
        if next != items.len() || next > self.faults.len() {
            return Err(format!(
                "estimate snapshot: next={next} disagrees with {} estimates over {} faults",
                items.len(),
                self.faults.len()
            ));
        }
        self.done = items
            .iter()
            .map(estimate_from_json)
            .collect::<Result<_, _>>()?;
        Ok(())
    }
}

/// Inverse of [`estimate_json`], for snapshot restore. The JSON writer
/// prints floats in Rust's shortest round-trip form, so the restored
/// values are bit-identical to the committed ones. An estimate no tier
/// can produce is refused: a value outside `[0, 1]`, a negative
/// standard error, bounds on any tier but cutting or none on cutting,
/// `low > high`, or a value outside `[low, high]`.
fn estimate_from_json(item: &Json) -> Result<DetectionEstimate, String> {
    let value = item
        .get("value")
        .and_then(probability)
        .ok_or("estimate: bad or missing \"value\"")?;
    let std_error = item
        .get("std_error")
        .and_then(Json::as_f64)
        .filter(|&e| e >= 0.0)
        .ok_or("estimate: bad or missing \"std_error\"")?;
    let token = item
        .get("method")
        .and_then(Json::as_str)
        .ok_or("estimate: bad or missing \"method\"")?;
    let method = EstimateMethod::from_token(token)?;
    let bounds = match (
        item.get("low").and_then(Json::as_f64),
        item.get("high").and_then(Json::as_f64),
    ) {
        (Some(lo), Some(hi)) => Some((lo, hi)),
        (None, None) => None,
        _ => return Err("estimate: bounds need both \"low\" and \"high\"".into()),
    };
    match (method, bounds) {
        (EstimateMethod::Cutting, None) => {
            return Err("estimate: a cutting estimate needs \"low\" and \"high\"".into())
        }
        (EstimateMethod::Cutting, Some((lo, hi))) if !(lo <= value && value <= hi) => {
            return Err(format!(
                "estimate: value {value} lies outside its bounds [{lo}, {hi}]"
            ))
        }
        (EstimateMethod::Cutting, _) | (_, None) => {}
        (_, Some(_)) => return Err(format!("estimate: a {token} estimate has no bounds")),
    }
    Ok(DetectionEstimate {
        value,
        std_error,
        method,
        bounds,
    })
}

/// Builds a built-in kernel for `kind`, or `None` when the kind is not
/// built in (the engine then consults its registered factories).
///
/// Built-in kinds: `fsim`, `mc-detect`, `mc-signal`, `detect`,
/// `length`, `optimize`, `testability`.
pub fn build_builtin(
    kind: &str,
    ctx: JobContext<'_>,
) -> Option<Result<Box<dyn JobKernel>, String>> {
    fn boxed<K: JobKernel + 'static>(r: Result<K, String>) -> Result<Box<dyn JobKernel>, String> {
        r.map(|k| Box::new(k) as Box<dyn JobKernel>)
    }
    Some(match kind {
        "fsim" => boxed(Checkpointed::<Fsim>::from_request(ctx)),
        "mc-detect" => boxed(Checkpointed::<McDetect>::from_request(ctx)),
        "mc-signal" => boxed(Checkpointed::<McSignal>::from_request(ctx)),
        "detect" | "length" | "testability" => boxed(EstimateJob::from_request(kind, ctx)),
        "optimize" => boxed(OptimizeJob::from_request(ctx)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::network_fault_list;
    use dynmos_netlist::generate::single_cell_network;
    use dynmos_netlist::parse_cell;

    /// A Fig.-9-style domino cell, `a*b*c + d*e`: 5 inputs, 19 faults.
    fn kernel(kind: &str, params: &str) -> Box<dyn JobKernel> {
        let cell = parse_cell(
            "abc_de",
            "TECHNOLOGY domino-CMOS; INPUT a,b,c,d,e; OUTPUT u; u := a*b*c + d*e;",
        )
        .expect("cell parses");
        let net = Arc::new(single_cell_network(cell));
        let faults = network_fault_list(&net);
        assert_eq!(faults.len(), 19);
        let params = Json::parse(params).expect("params parse");
        build_builtin(
            kind,
            JobContext {
                net,
                faults,
                parallelism: Parallelism::Serial,
                params: &params,
            },
        )
        .expect("built in")
        .expect("request is valid")
    }

    fn restores(kernel: &mut dyn JobKernel, snapshot: &str) -> bool {
        kernel
            .restore(&Json::parse(snapshot).expect("snapshot parses"))
            .is_ok()
    }

    #[test]
    fn length_restore_refuses_impossible_values() {
        let mut k = kernel("length", "{}");
        let exact = |v: &str| format!(r#"{{"value":{v},"std_error":0,"method":"exact"}}"#);
        let cutting = |v: &str, e: &str, bounds: &str| {
            format!(r#"{{"value":{v},"std_error":{e},"method":"cutting"{bounds}}}"#)
        };
        // A snapshot at `next` whose estimates are 18 halves and `last`.
        let snap = |next: usize, last: &str| {
            let mut items = vec![exact("0.5"); 18];
            items.push(last.to_owned());
            format!(r#"{{"next":{next},"estimates":[{}]}}"#, items.join(","))
        };
        assert!(restores(k.as_mut(), "null"));
        assert!(restores(k.as_mut(), r#"{"next":0,"estimates":[]}"#));
        assert!(restores(k.as_mut(), &snap(19, &exact("0.25"))));
        let bounded = cutting("0.25", "0.01", r#","low":0.2,"high":0.3"#);
        assert!(restores(k.as_mut(), &snap(19, &bounded)));
        for bad in [
            r#"{"next":1,"estimates":[]}"#.to_owned(),
            r#"{"values":null}"#.to_owned(),
            snap(18, &exact("0.25")),
            snap(20, &format!("{},{}", exact("0.5"), exact("0.5"))),
            snap(19, &exact("1.5")),
            snap(19, &exact("-0.1")),
            snap(19, r#"{"value":0.25,"std_error":-0.1,"method":"exact"}"#),
            snap(
                19,
                r#"{"value":0.25,"std_error":0,"method":"bdd","low":0.2,"high":0.3}"#,
            ),
            snap(19, &cutting("0.25", "0.01", "")),
            snap(19, &cutting("0.25", "0.01", r#","low":0.2"#)),
            snap(19, &cutting("0.25", "0.01", r#","low":0.3,"high":0.2"#)),
            snap(19, &cutting("0.35", "0.01", r#","low":0.2,"high":0.3"#)),
        ] {
            assert!(!restores(k.as_mut(), &bad), "accepted {bad}");
        }
    }

    #[test]
    fn length_job_completes_from_a_restored_full_snapshot() {
        let mut clean = kernel("length", "{}");
        assert!(clean.run_leg(&RunBudget::unlimited()).is_complete());
        let mut restored = kernel("length", "{}");
        let snapshot = Json::parse(&clean.snapshot().to_string()).expect("round trip");
        assert_eq!(snapshot.get("next").and_then(Json::as_u64), Some(19));
        restored.restore(&snapshot).expect("own snapshot restores");
        assert!(restored.run_leg(&RunBudget::unlimited()).is_complete());
        assert_eq!(restored.output().to_string(), clean.output().to_string());
    }

    #[test]
    fn optimize_restore_refuses_impossible_shapes() {
        let mut k = kernel("optimize", r#"{"max_sweeps":2}"#);
        let snap = |probs: &str, methods: &str, sweeps: u64| {
            format!(
                r#"{{"probabilities":[{probs}],"uniform_length":94,"optimized_length":40,"sweeps":{sweeps},"methods":[{methods}],"complete":true}}"#
            )
        };
        let five = "0.5,0.5,0.5,0.5,0.5";
        let all_exact = vec![r#""exact""#; 19].join(",");
        assert!(restores(k.as_mut(), &snap(five, &all_exact, 2)));
        assert!(restores(k.as_mut(), &snap(five, "", 0)));
        for bad in [
            snap("7.0", &all_exact, 1),
            snap("0.5,0.5,0.5,0.5,7.0", &all_exact, 1),
            snap("0.5,0.5,0.5,0.5", &all_exact, 1),
            snap(five, r#""exact""#, 1),
            snap(five, &all_exact, 3),
        ] {
            assert!(!restores(k.as_mut(), &bad), "accepted {bad}");
        }
    }
}
