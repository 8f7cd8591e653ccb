//! Monte Carlo estimation for circuits beyond exact enumeration.
//!
//! The exact routines in [`crate::detect`] and [`crate::estimate`]
//! enumerate the primary-input space and stop being feasible around 24
//! inputs. Production-sized circuits (the paper's "large scaled
//! integrated circuit") need sampling: these estimators draw weighted
//! random patterns with the pattern-parallel evaluator and report the
//! observed frequency together with a normal-approximation confidence
//! half-width, so PROTEST's test-length stage can keep working at scale.
//!
//! Both estimators run one walk over the counter-based pattern stream,
//! sharded along the axis the two-axis planner
//! ([`crate::parallel::plan_shards`]) picks: detection estimation shards
//! the *fault list* when it can feed every worker (each worker owns an
//! evaluator and replays the whole stream for its shard) and falls back
//! to the *sample-pass axis* in the few-fault regime; signal estimation
//! is the walk's one-target case, so the planner always hands it the
//! pass axis. Hit counts over disjoint pass ranges add exactly (integer
//! sums), so either way the estimates are bit-identical to the serial
//! path at any thread count.

use crate::budget::{self, RunBudget, RunStatus};
use crate::list::FaultEntry;
use crate::parallel::{Parallelism, ShardError, StreamWalk, WalkEnd};
use crate::random::PatternSource;
use crate::service::json::Json;
use dynmos_netlist::{NetId, Network, NetworkFault, PackedEvaluator, PreparedFault};
use std::ops::Range;
use std::time::Duration;

/// Lane words per evaluator pass: 4 × 64 = 256 patterns per tape walk.
const WIDTH: usize = 4;

/// Samples per evaluator pass.
const PASS_SAMPLES: u64 = WIDTH as u64 * 64;

/// Evaluator passes per budgeted chunk (16 passes = 4096 samples): the
/// granularity of budget checks and checkpoints. Hit counts are exact
/// integer sums, so chunking is invisible to the final estimates.
const CHUNK_PASSES: u64 = 16;

/// A Monte Carlo estimate: frequency plus a 95% confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Observed frequency.
    pub value: f64,
    /// 95% normal-approximation half-width (`1.96 * sqrt(p(1-p)/n)`).
    pub half_width: f64,
    /// Samples drawn.
    pub samples: u64,
}

impl Estimate {
    /// The standard error of the estimate (`sqrt(p(1-p)/n)`; the
    /// half-width is 1.96 standard errors).
    pub fn std_error(&self) -> f64 {
        self.half_width / 1.96
    }
}

/// Resumable state of an interrupted Monte Carlo estimation: the exact
/// integer hit counts over the sample passes drawn so far. Resuming
/// and completing produces estimates bit-identical to an uninterrupted
/// run — integer hit counts over disjoint pass ranges add exactly.
#[derive(Debug, Clone)]
pub struct McCheckpoint {
    /// Wide evaluator passes fully drawn so far.
    passes_done: u64,
    /// The run's total sample budget.
    samples: u64,
    /// Per-target hit counts so far (one entry per fault; length 1 for
    /// signal estimation).
    hits: Vec<u64>,
}

impl McCheckpoint {
    /// The start of a run: nothing drawn, no hits.
    fn fresh(samples: u64, targets: Targets<'_>) -> Self {
        assert!(samples > 0, "need at least one sample");
        Self {
            passes_done: 0,
            samples,
            hits: vec![0; targets.len()],
        }
    }

    /// The checkpoint as a JSON object — integer pass and hit counts
    /// serialize exactly, so [`McCheckpoint::from_json`] round-trips
    /// bit-identically and resumed estimates are unchanged.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::str("mc")),
            ("passes_done".into(), Json::num(self.passes_done)),
            ("samples".into(), Json::num(self.samples)),
            (
                "hits".into(),
                Json::Arr(self.hits.iter().map(|&h| Json::num(h)).collect()),
            ),
        ])
    }

    /// Rebuilds a checkpoint from [`McCheckpoint::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message for missing/mistyped fields, a wrong `kind`,
    /// more passes than the sample budget needs, or a hit count above
    /// the samples drawn — counts no run can reach.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        if v.get("kind").and_then(Json::as_str) != Some("mc") {
            return Err("not a Monte Carlo checkpoint".into());
        }
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("mc checkpoint: bad or missing {k:?}"))
        };
        let hits = v
            .get("hits")
            .and_then(Json::as_arr)
            .ok_or("mc checkpoint: bad or missing \"hits\"")?
            .iter()
            .map(|h| {
                h.as_u64()
                    .ok_or_else(|| format!("mc checkpoint: bad hit count {h}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let cp = Self {
            passes_done: field("passes_done")?,
            samples: field("samples")?,
            hits,
        };
        if cp.passes_done > cp.samples.div_ceil(PASS_SAMPLES) {
            return Err(format!(
                "mc checkpoint: {} passes done exceed the {} needed for {} samples",
                cp.passes_done,
                cp.samples.div_ceil(PASS_SAMPLES),
                cp.samples
            ));
        }
        if let Some(&h) = cp.hits.iter().find(|&&h| h > cp.samples_done()) {
            return Err(format!(
                "mc checkpoint: hit count {h} exceeds the {} samples drawn",
                cp.samples_done()
            ));
        }
        Ok(cp)
    }

    /// Samples fully drawn so far.
    pub fn samples_done(&self) -> u64 {
        self.passes_done
            .saturating_mul(PASS_SAMPLES)
            .min(self.samples)
    }
}

/// Result of a budgeted Monte Carlo estimation: estimates over the
/// samples drawn so far, completion status, and — when interrupted —
/// the checkpoint to resume from.
#[derive(Debug, Clone)]
pub struct BudgetedEstimates {
    /// One estimate per fault (one entry for signal estimation) over the
    /// samples drawn so far (a completed run's estimates equal the
    /// unbudgeted run's exactly).
    pub estimates: Vec<Estimate>,
    /// Completed, or interrupted at a chunk boundary.
    pub status: RunStatus,
    /// `Some` exactly when interrupted: resume with
    /// [`mc_detection_resume`] or [`mc_signal_resume`].
    pub checkpoint: Option<McCheckpoint>,
    /// `Some` exactly when the status is
    /// [`RunStatus::Interrupted`]`(`[`crate::StopReason::WorkerFailed`]`)`:
    /// the shard whose worker panicked twice. The failed chunk was not
    /// merged; resuming retries it.
    pub worker_error: Option<ShardError>,
}

fn estimate_from_counts(hits: u64, samples: u64) -> Estimate {
    let p = hits as f64 / samples as f64;
    Estimate {
        value: p,
        half_width: 1.96 * (p * (1.0 - p) / samples as f64).sqrt(),
        samples,
    }
}

/// Lane mask for the samples still owed after `drawn` of `samples`.
fn tail_mask(drawn: u64, samples: u64) -> u64 {
    match samples.saturating_sub(drawn).min(64) {
        64 => u64::MAX,
        0 => 0,
        l => (1u64 << l) - 1,
    }
}

/// What a Monte Carlo walk counts hits for.
#[derive(Clone, Copy)]
enum Targets<'a> {
    /// Samples on which one net is 1: a single target.
    Signal(NetId),
    /// Samples on which each fault is detected: one target per fault.
    Faults(&'a [FaultEntry]),
}

impl Targets<'_> {
    fn len(self) -> usize {
        match self {
            Targets::Signal(_) => 1,
            Targets::Faults(faults) => faults.len(),
        }
    }
}

/// Monte Carlo signal probability of one net under weighted inputs, with
/// the default thread policy ([`Parallelism::Auto`]). The estimate is
/// identical at any thread count. When `DYNMOS_BUDGET_MS` is set, the
/// estimation runs as an interrupt/resume loop with that per-leg
/// deadline — producing the identical estimate.
///
/// # Panics
///
/// Panics if `samples == 0` or the probability arity mismatches.
///
/// # Example
///
/// ```
/// use dynmos_netlist::generate::and_or_tree;
/// use dynmos_protest::montecarlo::mc_signal_probability;
///
/// let net = and_or_tree(4); // 16 inputs
/// let po = net.primary_outputs()[0];
/// let est = mc_signal_probability(&net, po, &vec![0.5; 16], 7, 50_000);
/// assert!(est.half_width < 0.01);
/// ```
pub fn mc_signal_probability(
    net: &Network,
    target: NetId,
    pi_probs: &[f64],
    seed: u64,
    samples: u64,
) -> Estimate {
    mc_estimate(net, Targets::Signal(target), pi_probs, seed, samples)[0]
}

/// [`mc_signal_probability`] under a thread policy and a [`RunBudget`]:
/// stops at the first chunk boundary past the deadline, cancellation,
/// or per-call sample cap, returning the partial one-entry estimate plus
/// a checkpoint for [`mc_signal_resume`]. A run completed across any
/// number of interruptions yields the identical estimate.
///
/// # Panics
///
/// Panics if `samples == 0` or the probability arity mismatches.
pub fn mc_signal_probability_budgeted(
    net: &Network,
    target: NetId,
    pi_probs: &[f64],
    seed: u64,
    samples: u64,
    parallelism: Parallelism,
    run_budget: &RunBudget,
) -> BudgetedEstimates {
    let targets = Targets::Signal(target);
    let fresh = McCheckpoint::fresh(samples, targets);
    mc_walk(net, targets, pi_probs, seed, parallelism, run_budget, fresh)
}

/// Continues an interrupted [`mc_signal_probability_budgeted`] run.
/// The network, target, probabilities and seed must match the original
/// call.
///
/// # Panics
///
/// Panics if the checkpoint is not a one-target (signal) checkpoint.
pub fn mc_signal_resume(
    net: &Network,
    target: NetId,
    pi_probs: &[f64],
    seed: u64,
    parallelism: Parallelism,
    run_budget: &RunBudget,
    checkpoint: McCheckpoint,
) -> BudgetedEstimates {
    assert_eq!(checkpoint.hits.len(), 1, "not a signal checkpoint");
    let targets = Targets::Signal(target);
    mc_walk(
        net,
        targets,
        pi_probs,
        seed,
        parallelism,
        run_budget,
        checkpoint,
    )
}

/// Monte Carlo detection probability of one fault.
///
/// # Panics
///
/// Panics if `samples == 0` or the probability arity mismatches.
pub fn mc_detection_probability(
    net: &Network,
    fault: &NetworkFault,
    pi_probs: &[f64],
    seed: u64,
    samples: u64,
) -> Estimate {
    let entry = FaultEntry {
        label: String::new(),
        fault: fault.clone(),
        at_speed_only: false,
    };
    mc_detection_probabilities(net, std::slice::from_ref(&entry), pi_probs, seed, samples)[0]
}

/// Monte Carlo detection probabilities for a whole list (one estimate per
/// entry), sharing one pattern stream across faults so estimates are
/// comparable — and sharing each batch's good-machine evaluation, so the
/// marginal cost per fault is its fanout cone, not the network. Uses the
/// default thread policy ([`Parallelism::Auto`]); work is sharded along
/// the planner's axis — fault slices replaying the same counter-based
/// stream, or disjoint pass ranges covering every fault in the few-fault
/// regime (hit counts add exactly) — so the estimates are identical at
/// any thread count. When `DYNMOS_BUDGET_MS` is set, the estimation runs
/// as an interrupt/resume loop with that per-leg deadline — producing
/// the identical estimates.
///
/// # Panics
///
/// Panics if `samples == 0` or the probability arity mismatches.
pub fn mc_detection_probabilities(
    net: &Network,
    faults: &[FaultEntry],
    pi_probs: &[f64],
    seed: u64,
    samples: u64,
) -> Vec<Estimate> {
    mc_estimate(net, Targets::Faults(faults), pi_probs, seed, samples)
}

/// [`mc_detection_probabilities`] under a thread policy and a
/// [`RunBudget`]: stops at the first chunk boundary past the deadline,
/// cancellation, or per-call sample cap, returning partial estimates
/// plus a checkpoint for [`mc_detection_resume`]. A run completed
/// across any number of interruptions yields estimates bit-identical to
/// an uninterrupted run at any thread count.
///
/// # Panics
///
/// Panics if `samples == 0` or the probability arity mismatches.
pub fn mc_detection_probabilities_budgeted(
    net: &Network,
    faults: &[FaultEntry],
    pi_probs: &[f64],
    seed: u64,
    samples: u64,
    parallelism: Parallelism,
    run_budget: &RunBudget,
) -> BudgetedEstimates {
    let targets = Targets::Faults(faults);
    let fresh = McCheckpoint::fresh(samples, targets);
    mc_walk(net, targets, pi_probs, seed, parallelism, run_budget, fresh)
}

/// Continues an interrupted [`mc_detection_probabilities_budgeted`]
/// run. The network, fault list, probabilities and seed must match the
/// original call.
///
/// # Panics
///
/// Panics if the checkpoint's fault count differs from `faults`.
pub fn mc_detection_resume(
    net: &Network,
    faults: &[FaultEntry],
    pi_probs: &[f64],
    seed: u64,
    parallelism: Parallelism,
    run_budget: &RunBudget,
    checkpoint: McCheckpoint,
) -> BudgetedEstimates {
    assert_eq!(
        checkpoint.hits.len(),
        faults.len(),
        "checkpoint fault count mismatch"
    );
    let targets = Targets::Faults(faults);
    mc_walk(
        net,
        targets,
        pi_probs,
        seed,
        parallelism,
        run_budget,
        checkpoint,
    )
}

/// The budget-less estimators' run: one unlimited walk, or — when
/// `DYNMOS_BUDGET_MS` is set — an interrupt/resume loop with that
/// per-leg deadline. A worker that failed even its serial retry keeps
/// the historical panicking contract here.
fn mc_estimate(
    net: &Network,
    targets: Targets<'_>,
    pi_probs: &[f64],
    seed: u64,
    samples: u64,
) -> Vec<Estimate> {
    let ms = budget::env_budget_ms();
    let leg = || {
        ms.map_or_else(RunBudget::unlimited, |ms| {
            RunBudget::deadline_in(Duration::from_millis(ms))
        })
    };
    let parallelism = Parallelism::default();
    let fresh = McCheckpoint::fresh(samples, targets);
    let mut run = mc_walk(net, targets, pi_probs, seed, parallelism, &leg(), fresh);
    loop {
        if let Some(e) = &run.worker_error {
            panic!("{e}");
        }
        let Some(cp) = run.checkpoint.take() else {
            return run.estimates;
        };
        run = mc_walk(net, targets, pi_probs, seed, parallelism, &leg(), cp);
    }
}

/// The Monte Carlo walk every estimator shares ([`StreamWalk`] over
/// wide evaluator passes): per-target hit counts over disjoint pass
/// ranges add exactly, so neither chunking nor sharding is visible in
/// the estimates.
fn mc_walk(
    net: &Network,
    targets: Targets<'_>,
    pi_probs: &[f64],
    seed: u64,
    parallelism: Parallelism,
    run_budget: &RunBudget,
    checkpoint: McCheckpoint,
) -> BudgetedEstimates {
    let McCheckpoint {
        passes_done,
        samples,
        mut hits,
    } = checkpoint;
    let src = PatternSource::new(seed, pi_probs.to_vec());
    let WalkEnd {
        done: passes_done,
        stop,
        error,
    } = StreamWalk {
        done: passes_done,
        total: samples.div_ceil(PASS_SAMPLES),
        chunk: CHUNK_PASSES,
        unit_patterns: PASS_SAMPLES,
        threads: parallelism.resolve(),
        budget: run_budget,
    }
    .run(
        &mut hits,
        |hits| (0..hits.len()).collect(),
        |subset, passes| mc_span(net, targets, subset, &src, passes, samples),
        |h, c| *h += c,
    );
    let drawn = (passes_done * PASS_SAMPLES).min(samples).max(1);
    let estimates = hits
        .iter()
        .map(|&h| estimate_from_counts(h, drawn))
        .collect();
    BudgetedEstimates {
        estimates,
        status: stop.map_or(RunStatus::Completed, RunStatus::Interrupted),
        checkpoint: stop.map(|_| McCheckpoint {
            passes_done,
            samples,
            hits,
        }),
        worker_error: error,
    }
}

/// The kernel both axes share: per-target hit counts for the targets
/// `subset` over the wide evaluator passes `passes` of the stream (pass
/// `p` covers samples `p * WIDTH * 64 ..`, tail-masked against
/// `samples`). The fault axis calls it with the full pass range and a
/// target slice; the pattern axis with a pass slice and every target.
fn mc_span(
    net: &Network,
    targets: Targets<'_>,
    subset: &[usize],
    src: &PatternSource,
    passes: Range<u64>,
    samples: u64,
) -> Vec<u64> {
    let prepared: Vec<_> = match targets {
        Targets::Signal(_) => Vec::new(),
        Targets::Faults(faults) => subset
            .iter()
            .map(|&i| net.prepare_fault(&faults[i].fault))
            .collect(),
    };
    let mut ev = PackedEvaluator::with_width(net, WIDTH);
    let mut batch = vec![0u64; src.input_count() * WIDTH];
    let mut hits = vec![0u64; subset.len()];
    let mut diff = [0u64; WIDTH];
    let mut masks = [0u64; WIDTH];
    for pass in passes {
        let first_batch = pass * WIDTH as u64;
        if first_batch * 64 >= samples {
            break;
        }
        src.fill_batch_wide_at(first_batch, WIDTH, &mut batch);
        let values = ev.eval(&batch);
        for (w, mask) in masks.iter_mut().enumerate() {
            *mask = tail_mask((first_batch + w as u64) * 64, samples);
        }
        match targets {
            Targets::Signal(net_id) => {
                let words = &values[net_id.index() * WIDTH..][..WIDTH];
                for (v, m) in words.iter().zip(&masks) {
                    hits[0] += (v & m).count_ones() as u64;
                }
            }
            Targets::Faults(_) => {
                for (h, p) in hits.iter_mut().zip(&prepared) {
                    ev.fault_diff(p, &mut diff);
                    for (d, m) in diff.iter().zip(&masks) {
                        *h += (d & m).count_ones() as u64;
                    }
                }
            }
        }
    }
    hits
}

/// The first `samples` patterns of one weighted stream, evaluated once
/// through the good machine at full width (one lane word per 64
/// samples), so any number of faults can be scored against them by one
/// event-driven replay each. A fault's estimate is bit-identical to its
/// entry of [`mc_detection_probabilities`] at the same seed and sample
/// count: the same stream batches, the same tail masks and the same
/// integer hit count.
pub(crate) struct SampleBank<'n> {
    ev: PackedEvaluator<'n>,
    masks: Vec<u64>,
    diff: Vec<u64>,
    samples: u64,
}

impl<'n> SampleBank<'n> {
    /// Draws samples `0..samples` of `PatternSource::new(seed, pi_probs)`
    /// and evaluates the good machine on them.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0` or the probability arity mismatches.
    pub(crate) fn new(net: &'n Network, pi_probs: &[f64], seed: u64, samples: u64) -> Self {
        assert!(samples > 0, "need at least one sample");
        let width = samples.div_ceil(64) as usize;
        let src = PatternSource::new(seed, pi_probs.to_vec());
        let mut batch = vec![0u64; src.input_count() * width];
        src.fill_batch_wide_at(0, width, &mut batch);
        let mut ev = PackedEvaluator::with_width(net, width);
        ev.eval(&batch);
        Self {
            ev,
            masks: (0..width as u64)
                .map(|w| tail_mask(w * 64, samples))
                .collect(),
            diff: vec![0; width],
            samples,
        }
    }

    /// The Monte Carlo detection estimate of `fault` over the bank.
    pub(crate) fn estimate(&mut self, fault: &PreparedFault<'_>) -> Estimate {
        self.ev.fault_diff(fault, &mut self.diff);
        let hits = self
            .diff
            .iter()
            .zip(&self.masks)
            .map(|(d, m)| u64::from((d & m).count_ones()))
            .sum();
        estimate_from_counts(hits, self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::exact_detection_probability;
    use crate::estimate::exact_signal_probability;
    use crate::list::network_fault_list;
    use dynmos_netlist::generate::{and_or_tree, c17_dynamic_nmos, random_domino_network};

    /// Tests compare at 3 half-widths (~99.7%) so seed luck does not
    /// flake CI; `covers` itself documents the 95% interval.
    fn close(est: &Estimate, truth: f64) -> bool {
        (est.value - truth).abs() <= (3.0 / 1.96) * est.half_width.max(1e-3)
    }

    #[test]
    fn mc_signal_probability_matches_exact_small() {
        let net = c17_dynamic_nmos();
        let probs = vec![0.5; 5];
        for &po in net.primary_outputs() {
            let exact = exact_signal_probability(&net, po, &probs);
            let est = mc_signal_probability(&net, po, &probs, 11, 100_000);
            assert!(close(&est, exact), "exact {exact} vs {est:?}");
        }
    }

    #[test]
    fn mc_detection_matches_exact_small() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let probs = vec![0.5; 5];
        for e in faults.iter().take(8) {
            let exact = exact_detection_probability(&net, &e.fault, &probs);
            let est = mc_detection_probability(&net, &e.fault, &probs, 23, 100_000);
            assert!(close(&est, exact), "{}: exact {exact} vs {est:?}", e.label);
        }
    }

    #[test]
    fn mc_works_beyond_exact_limit() {
        // 32 primary inputs: exact enumeration is impossible; MC is fine.
        let net = and_or_tree(5);
        assert!(net.primary_inputs().len() > 24);
        let probs = vec![0.5; 32];
        let po = net.primary_outputs()[0];
        let est = mc_signal_probability(&net, po, &probs, 3, 200_000);
        // Analytic value for the alternating tree of depth 5:
        // AND: p^2, OR: 1-(1-p)^2 alternating from leaves.
        let mut p = 0.5f64;
        for level in 1..=5 {
            p = if level % 2 == 1 {
                p * p
            } else {
                1.0 - (1.0 - p) * (1.0 - p)
            };
        }
        assert!(close(&est, p), "analytic {p} vs {est:?}");
    }

    #[test]
    fn half_width_shrinks_with_samples() {
        let net = c17_dynamic_nmos();
        let po = net.primary_outputs()[0];
        let probs = vec![0.5; 5];
        let small = mc_signal_probability(&net, po, &probs, 1, 1_000);
        let large = mc_signal_probability(&net, po, &probs, 1, 100_000);
        assert!(large.half_width < small.half_width);
    }

    #[test]
    fn weighted_sampling_respects_weights() {
        let net = random_domino_network(5, 4, 6);
        let n = net.primary_inputs().len();
        let po = net.primary_outputs()[0];
        if n <= 12 {
            let probs = vec![0.875; n];
            let exact = exact_signal_probability(&net, po, &probs);
            let est = mc_signal_probability(&net, po, &probs, 9, 150_000);
            assert!(close(&est, exact), "exact {exact} vs {est:?}");
        }
    }

    #[test]
    fn estimates_count_samples_exactly() {
        let net = c17_dynamic_nmos();
        let po = net.primary_outputs()[0];
        // Non-multiple of 64 exercises the tail mask.
        let est = mc_signal_probability(&net, po, &[0.5; 5], 1, 1_000);
        assert_eq!(est.samples, 1_000);
        assert!(est.value >= 0.0 && est.value <= 1.0);
    }

    /// Estimates of a budgeted run at an explicit thread count under an
    /// unlimited budget.
    fn at_threads(run: BudgetedEstimates) -> Vec<Estimate> {
        assert!(run.status.is_complete());
        run.estimates
    }

    #[test]
    fn thread_count_does_not_change_estimates() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let probs = vec![0.25, 0.5, 0.9375, 0.5, 0.75];
        let plain = mc_detection_probabilities(&net, &faults, &probs, 7, 10_123);
        let po = net.primary_outputs()[0];
        let sig_plain = mc_signal_probability(&net, po, &probs, 7, 10_123);
        let unlimited = RunBudget::unlimited();
        for threads in [1usize, 2, 4, 8] {
            let par = Parallelism::Fixed(threads);
            let est = at_threads(mc_detection_probabilities_budgeted(
                &net, &faults, &probs, 7, 10_123, par, &unlimited,
            ));
            assert_eq!(est, plain, "threads={threads}");
            let sig = at_threads(mc_signal_probability_budgeted(
                &net, po, &probs, 7, 10_123, par, &unlimited,
            ));
            assert_eq!(sig, [sig_plain], "threads={threads}");
        }
    }

    #[test]
    fn few_fault_pattern_axis_estimates_match_serial() {
        // 2 faults < threads: the planner shards the pass axis; exact
        // integer hit sums keep the estimates bit-identical.
        let net = c17_dynamic_nmos();
        let faults: Vec<FaultEntry> = network_fault_list(&net).into_iter().take(2).collect();
        let probs = vec![0.25, 0.5, 0.9375, 0.5, 0.75];
        let plain = mc_detection_probabilities(&net, &faults, &probs, 7, 50_123);
        for threads in [1usize, 4, 8, 16] {
            let est = at_threads(mc_detection_probabilities_budgeted(
                &net,
                &faults,
                &probs,
                7,
                50_123,
                Parallelism::Fixed(threads),
                &RunBudget::unlimited(),
            ));
            assert_eq!(est, plain, "threads={threads}");
        }
    }

    #[test]
    fn checkpoint_with_impossible_counts_is_refused() {
        let parse = |text: &str| McCheckpoint::from_json(&Json::parse(text).expect("valid JSON"));
        // 1024 samples take 4 passes of 256; after 2 passes 512 are drawn.
        assert!(parse(r#"{"kind":"mc","passes_done":2,"samples":1024,"hits":[512,0]}"#).is_ok());
        assert!(parse(r#"{"kind":"mc","passes_done":4,"samples":1000,"hits":[1000]}"#).is_ok());
        for bad in [
            r#"{"kind":"mc","passes_done":0,"samples":1024,"hits":[5000,0]}"#,
            r#"{"kind":"mc","passes_done":2,"samples":1024,"hits":[513,0]}"#,
            r#"{"kind":"mc","passes_done":5,"samples":1024,"hits":[0]}"#,
            r#"{"kind":"mc","passes_done":5,"samples":1000,"hits":[0]}"#,
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.starts_with("mc checkpoint:"), "{bad}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let net = c17_dynamic_nmos();
        let po = net.primary_outputs()[0];
        mc_signal_probability(&net, po, &[0.5; 5], 1, 0);
    }
}
