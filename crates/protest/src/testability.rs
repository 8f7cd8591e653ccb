//! Tiered detection-probability engine — testability analysis past the
//! enumeration wall.
//!
//! The exact enumerator walks all `2^n` input rows and therefore caps
//! every optimal-weights experiment at toy input counts. This module
//! lowers the detectability function onto [`dynmos_logic::bdd`] instead
//! and arranges three tiers behind one interface:
//!
//! 1. **Exact enumeration** ([`ExactDetector`]) when the row space fits
//!    `RunBudget::effective_exact_rows` — bit-identical to the historic
//!    path, still the small-circuit oracle.
//! 2. **BDD**: the good machine is built once over a fanin-driven
//!    variable order (DFS from the primary outputs through the drivers,
//!    which interleaves related inputs — linear-sized BDDs for
//!    ripple/chain structures); per fault only the fanout cone is rebuilt
//!    with the fault injected, XORed at the observable outputs, and the
//!    detection probability is one linear bottom-up pass
//!    ([`Bdd::probability`]). A hard node budget turns pathological
//!    growth into a graceful [`BddOverflow`](dynmos_logic::BddOverflow)
//!    instead of unbounded memory use.
//! 3. **Cutting**: for over-budget cones, a cutting-style interval
//!    propagation in the spirit of the cutting algorithm — reconvergent
//!    fanout is "cut" by falling back to Fréchet bounds whenever two
//!    operand supports overlap, while provably independent operands
//!    (disjoint primary-input support) keep the exact product rules. The
//!    result is a certified `[low, high]` enclosure of the true
//!    detection probability for *any* reconvergence pattern, optionally
//!    tightened by Monte Carlo: each query draws one bank of weighted
//!    samples, evaluates the good machine on it once, and replays every
//!    cutting fault against it (the reported value is the fault's sample
//!    mean clamped into the certified interval).
//!
//! Tier selection per (circuit, fault) is automatic and every estimate
//! carries its provenance in [`DetectionEstimate::method`]. The BDD tier
//! also yields deterministic **test patterns**: any satisfying assignment
//! of a fault's difference BDD detects it, and a `FALSE` difference
//! proves it redundant ([`DetectionEngine::test_pattern`]) — a second
//! ATPG engine beside the PODEM search. The
//! `DYNMOS_TESTABILITY` environment variable (`auto`, `exact`, `bdd`,
//! `cutting`) forces a tier for the whole process — CI runs one leg with
//! `DYNMOS_TESTABILITY=bdd` to drive the symbolic tier over the entire
//! suite. A forced `bdd` still degrades per fault to `cutting` on node
//! overflow, and a forced `exact` falls back to the symbolic tiers when
//! the row space does not fit the budget (refusing outright would make
//! the knob unusable on exactly the circuits this engine exists for).

use crate::budget::{RunBudget, RunStatus, StopReason};
use crate::detect::{row_space, DetectionEstimate, EstimateMethod, ExactDetector};
use crate::list::FaultEntry;
use crate::montecarlo::{Estimate, SampleBank};
use crate::parallel::Parallelism;
use dynmos_logic::{Bdd, BddRef, Bexpr, VarId};
use dynmos_netlist::{Network, NetworkFault, PreparedFault};
use std::collections::HashMap;

/// Default node budget for the per-circuit BDD manager.
pub const DEFAULT_NODE_BUDGET: usize = 1 << 20;

/// Default Monte Carlo sample count used to tighten cutting bounds
/// (`0` disables tightening; the midpoint of the interval is reported).
pub const DEFAULT_TIGHTEN_SAMPLES: u64 = 1 << 12;

/// Largest accepted tightening sample count. The sample bank holds one
/// lane word per 64 samples for every net, and it is drawn outside the
/// caller's budget, so an unbounded count would let one query outrun
/// any deadline and memory cap.
pub const MAX_TIGHTEN_SAMPLES: u64 = 1 << 16;

/// Which engine tier(s) a [`DetectionEngine`] may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierMode {
    /// Pick per circuit and fault: exact when the row space fits the
    /// budget, else BDD, degrading per fault to cutting on overflow.
    #[default]
    Auto,
    /// Prefer exact enumeration. Falls back to the symbolic tiers when
    /// the row space exceeds the budget (exact is impossible there).
    Exact,
    /// Skip exact enumeration: BDD with per-fault cutting fallback.
    Bdd,
    /// Certified bounds only: no BDD construction at all.
    Cutting,
}

impl TierMode {
    /// Parses the `DYNMOS_TESTABILITY` value.
    pub fn parse(s: &str) -> Result<TierMode, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(TierMode::Auto),
            "exact" => Ok(TierMode::Exact),
            "bdd" => Ok(TierMode::Bdd),
            "cutting" => Ok(TierMode::Cutting),
            other => Err(format!(
                "unknown tier {other:?} (expected auto, exact, bdd or cutting)"
            )),
        }
    }

    /// The machine-readable token (`auto`, `exact`, `bdd`, `cutting`).
    pub fn token(self) -> &'static str {
        match self {
            TierMode::Auto => "auto",
            TierMode::Exact => "exact",
            TierMode::Bdd => "bdd",
            TierMode::Cutting => "cutting",
        }
    }
}

/// Pure parse of a `DYNMOS_TESTABILITY` override: `None` when unset or
/// empty, the mode when valid.
///
/// # Panics
///
/// Panics on garbage — a mistyped tier must fail loudly, not silently
/// run a different engine (same contract as `DYNMOS_BUDGET_MS` and
/// `DYNMOS_THREADS`).
pub(crate) fn parse_testability_override(raw: Option<&str>) -> Option<TierMode> {
    let raw = raw?.trim();
    if raw.is_empty() {
        return None;
    }
    match TierMode::parse(raw) {
        Ok(mode) => Some(mode),
        Err(e) => panic!("invalid DYNMOS_TESTABILITY: {e}"),
    }
}

/// Reads the `DYNMOS_TESTABILITY` tier override from the environment.
///
/// # Panics
///
/// Panics if the variable is set to an unknown tier.
pub fn env_testability() -> Option<TierMode> {
    parse_testability_override(crate::env_contract::raw("DYNMOS_TESTABILITY").as_deref())
}

/// Configuration of a [`DetectionEngine`].
#[derive(Debug, Clone)]
pub struct TestabilityConfig {
    /// Tier selection policy.
    pub mode: TierMode,
    /// Hard cap on the BDD manager's node store.
    pub node_budget: usize,
    /// Monte Carlo samples for tightening cutting bounds (0 = off; at
    /// most [`MAX_TIGHTEN_SAMPLES`]).
    pub mc_tighten_samples: u64,
    /// Seed of the tightening sampler. Every query draws one bank of
    /// samples from this seed's stream and scores each cutting fault
    /// against it, so a fault's value depends only on the seed, the
    /// input probabilities, the fault and the sample count: resuming a
    /// run at any fault boundary reproduces identical values.
    pub seed: u64,
}

impl TestabilityConfig {
    /// A configuration with the given tier policy and default budgets.
    pub fn new(mode: TierMode) -> Self {
        Self {
            mode,
            node_budget: DEFAULT_NODE_BUDGET,
            mc_tighten_samples: DEFAULT_TIGHTEN_SAMPLES,
            seed: 0,
        }
    }

    /// The process-wide configuration: tier from `DYNMOS_TESTABILITY`
    /// (default [`TierMode::Auto`]), default budgets.
    pub fn from_env() -> Self {
        Self::new(env_testability().unwrap_or_default())
    }

    /// Replaces the tier policy.
    pub fn with_mode(mut self, mode: TierMode) -> Self {
        self.mode = mode;
        self
    }

    /// Replaces the BDD node budget.
    pub fn with_node_budget(mut self, nodes: usize) -> Self {
        self.node_budget = nodes;
        self
    }

    /// Replaces the bound-tightening sample count (0 disables).
    ///
    /// # Panics
    ///
    /// Panics if `samples` exceeds [`MAX_TIGHTEN_SAMPLES`].
    pub fn with_mc_tighten_samples(mut self, samples: u64) -> Self {
        assert!(
            samples <= MAX_TIGHTEN_SAMPLES,
            "tightening samples {samples} exceed the cap of {MAX_TIGHTEN_SAMPLES}"
        );
        self.mc_tighten_samples = samples;
        self
    }

    /// Replaces the tightening seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for TestabilityConfig {
    fn default() -> Self {
        Self::new(TierMode::Auto)
    }
}

/// Formats per-fault methods as the machine-readable tier census used in
/// the CLI's `status=` stderr lines: `exact:N,bdd:N,cutting:N,mc:N`.
pub fn tier_census<'a>(methods: impl IntoIterator<Item = &'a EstimateMethod>) -> String {
    let (mut exact, mut bdd, mut cutting, mut mc) = (0usize, 0usize, 0usize, 0usize);
    for m in methods {
        match m {
            EstimateMethod::Exact => exact += 1,
            EstimateMethod::Bdd => bdd += 1,
            EstimateMethod::Cutting => cutting += 1,
            EstimateMethod::MonteCarlo => mc += 1,
        }
    }
    format!("exact:{exact},bdd:{bdd},cutting:{cutting},mc:{mc}")
}

/// What [`DetectionEngine::test_pattern`] found for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestPattern {
    /// Primary-input values, in primary-input order, that detect the
    /// fault.
    Pattern(Vec<bool>),
    /// The difference BDD is `FALSE`: no input pattern detects the fault.
    Redundant,
    /// The fault has no difference BDD: the engine's plan is exact, its
    /// mode is cutting, or the fault overflowed the node budget.
    NoBdd,
}

/// How many faults the exact tier enumerates between budget checks.
const EXACT_BLOCK: usize = 64;

/// Per-fault tier resolution inside the symbolic state.
#[derive(Debug, Clone, Copy)]
enum FaultTier {
    Unresolved,
    Bdd(BddRef),
    Cutting,
}

/// The shared symbolic state: one budgeted BDD manager, the good machine
/// built once, per-fault difference roots resolved lazily.
struct SymbolicState {
    bdd: Bdd,
    /// `var_of_pi[i]` = BDD variable of the i-th primary input under the
    /// fanin-driven order.
    var_of_pi: Vec<u32>,
    /// Per-gate logic function, lowered once from the gate's cell.
    functions: Vec<Bexpr>,
    /// Per-net good-machine function; only valid when `good_ok`.
    good: Vec<BddRef>,
    /// `false` when the good machine itself overflowed the node budget
    /// (or the mode is cutting-only): every fault resolves to the
    /// cutting tier.
    good_ok: bool,
    tiers: Vec<FaultTier>,
    /// The current fault's cone functions while its difference is built.
    faulty: Overlay<BddRef>,
    /// Built at the first cutting fault.
    cut: Option<CutTier>,
}

enum Resolved<'n> {
    /// One detector for the engine's whole fault list, walked in fault
    /// blocks by every query.
    Exact(ExactDetector<'n>),
    Symbolic(Box<SymbolicState>),
}

/// The tiered detection-probability engine.
///
/// Build one per (network, fault list); it owns the tier plan, the
/// shared BDD manager and the per-fault difference functions, so
/// repeated probability queries (the inner loop of weight optimization)
/// cost one linear BDD pass per query instead of a rebuild.
pub struct DetectionEngine<'n> {
    net: &'n Network,
    faults: Vec<FaultEntry>,
    config: TestabilityConfig,
    parallelism: Parallelism,
    resolved: Option<Resolved<'n>>,
}

impl<'n> DetectionEngine<'n> {
    /// Creates an engine over `faults` with the given configuration.
    pub fn new(net: &'n Network, faults: &[FaultEntry], config: TestabilityConfig) -> Self {
        Self {
            net,
            faults: faults.to_vec(),
            config,
            parallelism: Parallelism::default(),
            resolved: None,
        }
    }

    /// Sets the worker policy for the exact tier.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Number of faults this engine serves.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// Computes estimates for the whole fault list under `budget`.
    ///
    /// # Panics
    ///
    /// Panics if `pi_probs` has the wrong arity or invalid values.
    pub fn estimates(
        &mut self,
        pi_probs: &[f64],
        budget: &RunBudget,
    ) -> Result<Vec<DetectionEstimate>, StopReason> {
        let mut out = Vec::with_capacity(self.faults.len());
        let status = self.estimates_from(0, pi_probs, budget, &mut |_, est| out.push(est));
        match status {
            RunStatus::Completed => Ok(out),
            RunStatus::Interrupted(reason) => Err(reason),
        }
    }

    /// Streams estimates for faults `start..` in index order, calling
    /// `sink(index, estimate)` for each finished fault. Budget checks run
    /// at per-fault granularity; estimates already emitted when the run
    /// is interrupted are final and **batch-independent**: resuming at
    /// any fault boundary (even in a fresh process) reproduces
    /// bit-identical values, which is what the durability contract of
    /// the service's estimate job (`detect`, `testability`, `length`)
    /// relies on.
    ///
    /// At least one fault makes progress per call even on an expired
    /// budget (the forward-progress contract of [`RunBudget`]).
    pub fn estimates_from(
        &mut self,
        start: usize,
        pi_probs: &[f64],
        budget: &RunBudget,
        sink: &mut dyn FnMut(usize, DetectionEstimate),
    ) -> RunStatus {
        let n = self.net.primary_inputs().len();
        assert_eq!(pi_probs.len(), n, "need one probability per primary input");
        if start >= self.faults.len() {
            return RunStatus::Completed;
        }
        self.ensure_resolved(budget);
        if let Some(Resolved::Symbolic(state)) = self.resolved.as_mut() {
            return state.run(
                self.net,
                &self.faults,
                &self.config,
                start,
                pi_probs,
                budget,
                sink,
            );
        }
        let Some(Resolved::Exact(det)) = self.resolved.as_ref() else {
            unreachable!("resolved above")
        };
        self.run_exact(det, start, pi_probs, budget, sink)
    }

    /// A deterministic test pattern for fault `index` of the engine's
    /// list, read off the fault's difference BDD: one satisfying
    /// assignment, mapped from BDD variable order back to primary-input
    /// order. Build the engine with [`TierMode::Bdd`] to get patterns on
    /// circuits that `Auto` would enumerate; the tier plan is frozen by
    /// the first call to this method or to [`estimates`](Self::estimates).
    ///
    /// A fault with no stored difference (not yet estimated, or demoted
    /// to cutting) gets one built on top of the store and rolled back
    /// afterwards, so asking for patterns does not use up the node
    /// budget. A found pattern depends only on the fault and the
    /// variable order (reduced ordered BDDs are canonical), not on which
    /// faults the engine served before it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn test_pattern(&mut self, index: usize) -> TestPattern {
        assert!(
            index < self.faults.len(),
            "fault index {index} out of range for {} faults",
            self.faults.len()
        );
        self.ensure_resolved(&RunBudget::unlimited());
        let Some(Resolved::Symbolic(state)) = self.resolved.as_mut() else {
            return TestPattern::NoBdd;
        };
        if !state.good_ok {
            return TestPattern::NoBdd;
        }
        let mark = state.bdd.mark();
        let root = match state.tiers[index] {
            FaultTier::Bdd(root) => Ok(root),
            _ => {
                let fault = &self.faults[index].fault;
                state.build_diff(self.net, fault, &self.net.prepare_fault(fault))
            }
        };
        let var_of_pi = &state.var_of_pi;
        let pattern = match root.map(|r| state.bdd.any_sat(r, var_of_pi.len())) {
            Ok(Some(by_var)) => {
                TestPattern::Pattern(var_of_pi.iter().map(|&v| by_var[v as usize]).collect())
            }
            Ok(None) => TestPattern::Redundant,
            Err(_) => TestPattern::NoBdd,
        };
        state.bdd.truncate(mark);
        pattern
    }

    /// Decides the exact-vs-symbolic split once and freezes it, so tier
    /// tags stay stable across repeated queries on one engine.
    fn ensure_resolved(&mut self, budget: &RunBudget) {
        if self.resolved.is_some() {
            return;
        }
        let n = self.net.primary_inputs().len();
        let rows_fit = row_space(n).is_some_and(|rows| rows <= budget.effective_exact_rows());
        let use_exact = match self.config.mode {
            TierMode::Auto | TierMode::Exact => rows_fit,
            TierMode::Bdd | TierMode::Cutting => false,
        };
        if use_exact {
            let mut det = ExactDetector::new(self.net, &self.faults);
            det.set_parallelism(self.parallelism);
            self.resolved = Some(Resolved::Exact(det));
            return;
        }
        self.resolved = Some(Resolved::Symbolic(Box::new(self.build_symbolic())));
    }

    /// Builds the shared symbolic state: fanin-driven variable order and
    /// the good machine under the node budget.
    fn build_symbolic(&self) -> SymbolicState {
        let net = self.net;
        let order = fanin_dfs_order(net);
        let n = net.primary_inputs().len();
        let mut var_of_pi = vec![0u32; n];
        for (var, &pi) in order.iter().enumerate() {
            var_of_pi[pi] = var as u32;
        }
        let mut functions = vec![Bexpr::Const(false); net.gates().len()];
        for &g in net.topo_order() {
            functions[g.index()] = net.cell_of(g).logic_function();
        }
        let mut bdd = Bdd::with_node_limit(self.config.node_budget);
        let mut good = vec![BddRef::FALSE; net.net_count()];
        let mut good_ok = self.config.mode != TierMode::Cutting;
        if good_ok {
            for (i, &pi) in net.primary_inputs().iter().enumerate() {
                match bdd.try_var(VarId(var_of_pi[i])) {
                    Ok(r) => good[pi.index()] = r,
                    Err(_) => {
                        good_ok = false;
                        break;
                    }
                }
            }
        }
        if good_ok {
            'gates: for &g in net.topo_order() {
                let inst = &net.gates()[g.index()];
                let inputs = &inst.inputs;
                match bdd
                    .try_eval_expr_over(&functions[g.index()], &|v| good[inputs[v.index()].index()])
                {
                    Ok(r) => good[inst.output.index()] = r,
                    Err(_) => {
                        // The circuit itself is over budget: every fault
                        // goes to the cutting tier.
                        good_ok = false;
                        break 'gates;
                    }
                }
            }
        }
        SymbolicState {
            bdd,
            var_of_pi,
            functions,
            good,
            good_ok,
            tiers: vec![FaultTier::Unresolved; self.faults.len()],
            faulty: Overlay::new(net.net_count()),
            cut: None,
        }
    }

    /// Exact tier: the engine's one detector walks fault blocks so
    /// interrupts land on fault boundaries. The first fault of every call
    /// runs without a deadline — the forward-progress guarantee.
    fn run_exact(
        &self,
        det: &ExactDetector<'_>,
        start: usize,
        pi_probs: &[f64],
        budget: &RunBudget,
        sink: &mut dyn FnMut(usize, DetectionEstimate),
    ) -> RunStatus {
        let total = self.faults.len();
        let progress_budget =
            RunBudget::unlimited().with_max_exact_rows(budget.effective_exact_rows());
        let mut i = start;
        while i < total {
            let first = i == start;
            if !first {
                if let Some(reason) = budget.stop_requested() {
                    return RunStatus::Interrupted(reason);
                }
            }
            let block = if first { 1 } else { EXACT_BLOCK.min(total - i) };
            let leg_budget = if first { &progress_budget } else { budget };
            match det.walk(i..i + block, pi_probs, leg_budget) {
                Ok(values) => {
                    for (k, value) in values.into_iter().enumerate() {
                        sink(
                            i + k,
                            DetectionEstimate {
                                value,
                                std_error: 0.0,
                                method: EstimateMethod::Exact,
                                bounds: None,
                            },
                        );
                    }
                }
                Err(reason) => return RunStatus::Interrupted(reason),
            }
            i += block;
        }
        RunStatus::Completed
    }
}

impl SymbolicState {
    /// BDD/cutting tiers: strictly per-fault streaming.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        net: &Network,
        faults: &[FaultEntry],
        config: &TestabilityConfig,
        start: usize,
        pi_probs: &[f64],
        budget: &RunBudget,
        sink: &mut dyn FnMut(usize, DetectionEstimate),
    ) -> RunStatus {
        // Probabilities permuted from PI order into BDD variable order.
        let mut ordered = vec![0.0; pi_probs.len()];
        for (i, &p) in pi_probs.iter().enumerate() {
            ordered[self.var_of_pi[i] as usize] = p;
        }
        // The cutting tier's good-machine intervals and Monte Carlo bank
        // depend on pi_probs: each is built at most once per call.
        let mut good_iv: Option<Vec<Interval>> = None;
        let mut bank: Option<SampleBank<'_>> = None;
        // One probability memo per query, indexed by node. A rollback in
        // this loop is `resolve` demoting a fault on overflow: it frees
        // only nodes built since its own mark, above every node a kept
        // root (and so the memo) reaches, so no memoised index is reused.
        let mut prob_memo: Vec<f64> = Vec::new();
        let mut emitted = false;
        for (i, entry) in faults.iter().enumerate().skip(start) {
            if emitted {
                if let Some(reason) = budget.stop_requested() {
                    return RunStatus::Interrupted(reason);
                }
            }
            let fault = &entry.fault;
            // Prepared once per estimate, only for the faults whose cone
            // is walked: an unresolved fault's, or a cutting fault's.
            let prepared = match self.tiers[i] {
                FaultTier::Bdd(_) => None,
                _ => Some(net.prepare_fault(fault)),
            };
            if let (FaultTier::Unresolved, Some(prepared)) = (self.tiers[i], &prepared) {
                let top = self.bdd.node_count();
                self.tiers[i] = self.resolve(net, fault, prepared);
                debug_assert!(
                    prob_memo.iter().skip(top).all(|p| p.is_nan()),
                    "a rollback freed a memoised node"
                );
            }
            let est = match self.tiers[i] {
                FaultTier::Unresolved => unreachable!("resolved above"),
                FaultTier::Bdd(root) => DetectionEstimate {
                    value: self.bdd.probability_memo(root, &ordered, &mut prob_memo),
                    std_error: 0.0,
                    method: EstimateMethod::Bdd,
                    bounds: None,
                },
                FaultTier::Cutting => {
                    let prepared = prepared.as_ref().expect("prepared above");
                    let functions = &self.functions;
                    let cut = self.cut.get_or_insert_with(|| CutTier::new(net, functions));
                    let iv =
                        good_iv.get_or_insert_with(|| cut.good_intervals(net, functions, pi_probs));
                    let (lo, hi) = cut.fault_bounds(net, functions, fault, prepared, iv);
                    let samples = config.mc_tighten_samples;
                    let mc = (samples > 0 && hi - lo >= 1e-12).then(|| {
                        bank.get_or_insert_with(|| {
                            SampleBank::new(net, pi_probs, config.seed, samples)
                        })
                        .estimate(prepared)
                    });
                    tightened_estimate(lo, hi, mc)
                }
            };
            sink(i, est);
            emitted = true;
        }
        RunStatus::Completed
    }

    /// Resolves a fault's tier: build its difference BDD, rolling the
    /// node store back and demoting to cutting on overflow (or at once,
    /// without a good machine).
    fn resolve(
        &mut self,
        net: &Network,
        fault: &NetworkFault,
        prepared: &PreparedFault<'_>,
    ) -> FaultTier {
        if !self.good_ok {
            return FaultTier::Cutting;
        }
        let mark = self.bdd.mark();
        match self.build_diff(net, fault, prepared) {
            Ok(root) => FaultTier::Bdd(root),
            Err(_) => {
                self.bdd.truncate(mark);
                FaultTier::Cutting
            }
        }
    }

    /// Rebuilds only the fault's fanout cone with the fault injected and
    /// returns the Boolean difference (OR of XORs at the observable
    /// outputs). `FALSE` proves the fault undetectable. The cone's
    /// functions live in the `faulty` overlay while the difference is
    /// built.
    fn build_diff(
        &mut self,
        net: &Network,
        fault: &NetworkFault,
        prepared: &PreparedFault<'_>,
    ) -> Result<BddRef, dynmos_logic::BddOverflow> {
        let (bdd, good, faulty) = (&mut self.bdd, &self.good, &mut self.faulty);
        faulty.clear();
        if let NetworkFault::NetStuck(netid, v) = fault {
            faulty.set(netid.index(), if *v { BddRef::TRUE } else { BddRef::FALSE });
        }
        for &pos in prepared.cone_positions() {
            let g = net.topo_order()[pos as usize];
            let inst = &net.gates()[g.index()];
            let function = match fault {
                NetworkFault::GateFunction(fg, f) if *fg == g => f,
                _ => &self.functions[g.index()],
            };
            let inputs = &inst.inputs;
            let out = bdd.try_eval_expr_over(function, &|v| {
                let nid = inputs[v.index()].index();
                faulty.get(nid).unwrap_or(good[nid])
            })?;
            let out_idx = inst.output.index();
            // A stuck net stays stuck regardless of what its readers see
            // upstream; never overwrite the forced constant.
            let stuck_here =
                matches!(fault, NetworkFault::NetStuck(nid, _) if nid.index() == out_idx);
            if !stuck_here {
                faulty.set(out_idx, out);
            }
        }
        let mut diff = BddRef::FALSE;
        for &po_idx in prepared.observable_outputs() {
            let po = net.primary_outputs()[po_idx as usize].index();
            let bad = faulty.get(po).unwrap_or(good[po]);
            let x = bdd.try_xor(good[po], bad)?;
            diff = bdd.try_or(diff, x)?;
        }
        Ok(diff)
    }
}

/// The cutting-tier estimate for certified bounds `[lo, hi]`. With a
/// Monte Carlo estimate `mc` (drawn from the query's shared
/// [`SampleBank`], so fault `i`'s value is the `i`-th entry of
/// `mc_detection_probabilities` at the engine seed, whichever faults ran
/// before it), the value is that estimate clamped into the interval;
/// without one (tightening off, or a point interval), the midpoint. The
/// bank is deliberately not built under the caller's budget: its sample
/// count is capped and an always-complete bank keeps committed values
/// independent of leg timing.
fn tightened_estimate(lo: f64, hi: f64, mc: Option<Estimate>) -> DetectionEstimate {
    let (value, std_error) = match mc {
        Some(e) => (e.value.clamp(lo, hi), e.std_error().min(0.5 * (hi - lo))),
        None => (0.5 * (lo + hi), 0.5 * (hi - lo)),
    };
    DetectionEstimate {
        value,
        std_error,
        method: EstimateMethod::Cutting,
        bounds: Some((lo, hi)),
    }
}

/// Per-net values of one faulty machine laid over the good machine: a
/// net holds a value only once the current fault has written it, and
/// [`Overlay::clear`] forgets exactly the nets written.
struct Overlay<T> {
    value: Vec<Option<T>>,
    written: Vec<usize>,
}

impl<T: Copy> Overlay<T> {
    fn new(nets: usize) -> Self {
        Self {
            value: vec![None; nets],
            written: Vec::new(),
        }
    }

    fn get(&self, net: usize) -> Option<T> {
        self.value[net]
    }

    fn set(&mut self, net: usize, v: T) {
        if self.value[net].replace(v).is_none() {
            self.written.push(net);
        }
    }

    fn clear(&mut self) {
        for net in self.written.drain(..) {
            self.value[net] = None;
        }
    }
}

/// Fanin-driven variable order: DFS from each primary output through the
/// gate drivers, appending primary inputs at first visit. Inputs feeding
/// the same output cone land next to each other — the interleaving that
/// keeps ripple/chain BDDs linear. Returns PI *indices* in variable
/// order; unreachable inputs are appended at the end.
fn fanin_dfs_order(net: &Network) -> Vec<usize> {
    let n = net.primary_inputs().len();
    let mut pi_index_of_net: HashMap<usize, usize> = HashMap::with_capacity(n);
    for (i, &pi) in net.primary_inputs().iter().enumerate() {
        pi_index_of_net.insert(pi.index(), i);
    }
    let mut order = Vec::with_capacity(n);
    let mut seen_pi = vec![false; n];
    let mut seen_gate = vec![false; net.gates().len()];
    // Iterative DFS over nets (explicit stack: netlists can be deep).
    let mut stack: Vec<usize> = Vec::new();
    for &po in net.primary_outputs() {
        stack.push(po.index());
        while let Some(net_idx) = stack.pop() {
            if let Some(&i) = pi_index_of_net.get(&net_idx) {
                if !seen_pi[i] {
                    seen_pi[i] = true;
                    order.push(i);
                }
                continue;
            }
            let Some(g) = net.driver(dynmos_netlist::NetId(net_idx as u32)) else {
                continue;
            };
            if seen_gate[g.index()] {
                continue;
            }
            seen_gate[g.index()] = true;
            // Push in reverse so the first declared input is visited
            // first (deterministic order).
            for &input in net.gates()[g.index()].inputs.iter().rev() {
                stack.push(input.index());
            }
        }
    }
    for (i, &seen) in seen_pi.iter().enumerate().take(n) {
        if !seen {
            order.push(i);
        }
    }
    order
}

// ---------------------------------------------------------------------
// Cutting tier: certified interval propagation.
// ---------------------------------------------------------------------

/// A probability interval `(low, high)`.
type Interval = (f64, f64);

fn clamp_iv((lo, hi): Interval) -> Interval {
    let lo = lo.clamp(0.0, 1.0);
    (lo, hi.clamp(lo, 1.0))
}

/// AND of two events: exact product rule when the supports are provably
/// independent (disjoint), Fréchet bounds otherwise.
fn and_iv(a: Interval, b: Interval, disjoint: bool) -> Interval {
    clamp_iv(if disjoint {
        (a.0 * b.0, a.1 * b.1)
    } else {
        ((a.0 + b.0 - 1.0).max(0.0), a.1.min(b.1))
    })
}

/// OR of two events: independence rule on disjoint supports, Fréchet
/// bounds otherwise.
fn or_iv(a: Interval, b: Interval, disjoint: bool) -> Interval {
    clamp_iv(if disjoint {
        (a.0 + b.0 - a.0 * b.0, a.1 + b.1 - a.1 * b.1)
    } else {
        (a.0.max(b.0), (a.1 + b.1).min(1.0))
    })
}

fn not_iv(a: Interval) -> Interval {
    clamp_iv((1.0 - a.1, 1.0 - a.0))
}

/// XOR of two events. Disjoint supports: `pa + pb - 2 pa pb` is bilinear,
/// so the extremes sit at the interval corners. Overlapping supports:
/// `P(a xor b) >= |P(a)-P(b)|` and `P(a xor b) <= min(P(a)+P(b),
/// 2-P(a)-P(b))` hold for any joint distribution.
fn xor_iv(a: Interval, b: Interval, disjoint: bool) -> Interval {
    clamp_iv(if disjoint {
        let f = |pa: f64, pb: f64| pa + pb - 2.0 * pa * pb;
        let corners = [f(a.0, b.0), f(a.0, b.1), f(a.1, b.0), f(a.1, b.1)];
        (
            corners.iter().cloned().fold(f64::INFINITY, f64::min),
            corners.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        )
    } else {
        (
            (a.0 - b.1).max(b.0 - a.1).max(0.0),
            (a.1 + b.1).min(2.0 - a.0 - b.0).min(1.0),
        )
    })
}

/// Interval evaluation of gate functions without a per-operand
/// allocation: operand supports sit on one stack, `words` words each,
/// and every operation replaces its two operands by their union.
struct IntervalEval {
    /// Support words per event (one `u64` per 64 primary inputs).
    words: usize,
    stack: Vec<u64>,
}

impl IntervalEval {
    /// Evaluates a gate function over operand intervals, leaving the
    /// result's support on top of the stack. `leaf` gives an operand's
    /// interval and support.
    fn eval<'s>(
        &mut self,
        expr: &Bexpr,
        leaf: &impl Fn(VarId) -> (Interval, &'s [u64]),
    ) -> Interval {
        match expr {
            Bexpr::Const(b) => self.constant(*b),
            Bexpr::Var(v) => {
                let (iv, supp) = leaf(*v);
                self.stack.extend_from_slice(supp);
                iv
            }
            Bexpr::Not(e) => not_iv(self.eval(e, leaf)),
            Bexpr::And(ts) => {
                let mut acc = self.constant(true);
                for t in ts {
                    let b = self.eval(t, leaf);
                    acc = and_iv(acc, b, self.merge());
                }
                acc
            }
            Bexpr::Or(ts) => {
                let mut acc = self.constant(false);
                for t in ts {
                    let b = self.eval(t, leaf);
                    acc = or_iv(acc, b, self.merge());
                }
                acc
            }
        }
    }

    /// A constant event: a point interval with empty support.
    fn constant(&mut self, b: bool) -> Interval {
        self.stack.resize(self.stack.len() + self.words, 0);
        let p = if b { 1.0 } else { 0.0 };
        (p, p)
    }

    /// Replaces the two top supports by their union and reports whether
    /// they were disjoint.
    fn merge(&mut self) -> bool {
        let top = self.stack.len() - self.words;
        let (rest, b) = self.stack.split_at_mut(top);
        let a = &mut rest[top - self.words..];
        let mut disjoint = true;
        for (x, y) in a.iter_mut().zip(b.iter()) {
            disjoint &= *x & *y == 0;
            *x |= *y;
        }
        self.stack.truncate(top);
        disjoint
    }
}

/// The cutting tier's per-engine state, built at the first cutting
/// fault: per-net primary-input supports and the scratch every fault's
/// interval propagation reuses.
struct CutTier {
    /// Per-net primary-input support bitsets, `eval.words` per net.
    supports: Vec<u64>,
    /// The current fault's cone intervals, over the good machine's.
    faulty: Overlay<Interval>,
    /// Supports of the nets `faulty` holds, `eval.words` per net.
    faulty_supp: Vec<u64>,
    eval: IntervalEval,
}

impl CutTier {
    fn new(net: &Network, functions: &[Bexpr]) -> Self {
        let words = net.primary_inputs().len().div_ceil(64).max(1);
        let mut supports = vec![0u64; net.net_count() * words];
        for (i, &pi) in net.primary_inputs().iter().enumerate() {
            supports[pi.index() * words + i / 64] |= 1u64 << (i % 64);
        }
        for &g in net.topo_order() {
            let inst = &net.gates()[g.index()];
            let out = inst.output.index() * words;
            supports[out..out + words].fill(0);
            for v in functions[g.index()].support() {
                let src = inst.inputs[v.index()].index() * words;
                for k in 0..words {
                    supports[out + k] |= supports[src + k];
                }
            }
        }
        Self {
            supports,
            faulty: Overlay::new(net.net_count()),
            faulty_supp: vec![0; net.net_count() * words],
            eval: IntervalEval {
                words,
                stack: Vec::new(),
            },
        }
    }

    /// Good-machine probability intervals per net: point intervals at the
    /// primary inputs, widening only where reconvergence forces a cut.
    fn good_intervals(
        &mut self,
        net: &Network,
        functions: &[Bexpr],
        pi_probs: &[f64],
    ) -> Vec<Interval> {
        let (words, supports) = (self.eval.words, &self.supports);
        let mut iv = vec![(0.0, 0.0); net.net_count()];
        for (i, &pi) in net.primary_inputs().iter().enumerate() {
            iv[pi.index()] = (pi_probs[i], pi_probs[i]);
        }
        for &g in net.topo_order() {
            let inst = &net.gates()[g.index()];
            let inputs = &inst.inputs;
            let out = self.eval.eval(&functions[g.index()], &|v| {
                let nid = inputs[v.index()].index();
                (iv[nid], &supports[nid * words..][..words])
            });
            self.eval.stack.clear();
            iv[inst.output.index()] = out;
        }
        iv
    }

    /// Certified `[low, high]` detection-probability bounds for one fault:
    /// interval-propagates the faulty cone over the good-machine intervals
    /// and bounds the OR of per-output XOR events with Fréchet rules.
    fn fault_bounds(
        &mut self,
        net: &Network,
        functions: &[Bexpr],
        fault: &NetworkFault,
        prepared: &PreparedFault<'_>,
        good_iv: &[Interval],
    ) -> Interval {
        let Self {
            supports,
            faulty,
            faulty_supp,
            eval,
        } = self;
        let words = eval.words;
        faulty.clear();
        if let NetworkFault::NetStuck(netid, v) = fault {
            let p = if *v { 1.0 } else { 0.0 };
            faulty.set(netid.index(), (p, p));
            faulty_supp[netid.index() * words..][..words].fill(0);
        }
        for &pos in prepared.cone_positions() {
            let g = net.topo_order()[pos as usize];
            let inst = &net.gates()[g.index()];
            let function = match fault {
                NetworkFault::GateFunction(fg, f) if *fg == g => f,
                _ => &functions[g.index()],
            };
            let inputs = &inst.inputs;
            let out = eval.eval(function, &|v| {
                let nid = inputs[v.index()].index();
                match faulty.get(nid) {
                    Some(iv) => (iv, &faulty_supp[nid * words..][..words]),
                    None => (good_iv[nid], &supports[nid * words..][..words]),
                }
            });
            let out_idx = inst.output.index();
            let stuck_here =
                matches!(fault, NetworkFault::NetStuck(nid, _) if nid.index() == out_idx);
            if !stuck_here {
                faulty.set(out_idx, out);
                faulty_supp[out_idx * words..][..words].copy_from_slice(&eval.stack);
            }
            eval.stack.clear();
        }
        // Detection = OR over observable outputs of XOR(good, faulty).
        let mut det = eval.constant(false);
        for &po_idx in prepared.observable_outputs() {
            let po = net.primary_outputs()[po_idx as usize].index();
            // The faulty machine equals the good machine where the fault
            // never wrote: the XOR is identically false there.
            let Some(bad) = faulty.get(po) else {
                continue;
            };
            eval.stack
                .extend_from_slice(&supports[po * words..][..words]);
            eval.stack
                .extend_from_slice(&faulty_supp[po * words..][..words]);
            let x = xor_iv(good_iv[po], bad, eval.merge());
            det = or_iv(det, x, eval.merge());
        }
        eval.stack.clear();
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detection_probabilities;
    use crate::list::network_fault_list;
    use dynmos_netlist::generate::{c17_dynamic_nmos, carry_chain, random_domino_network};

    fn probs_for(n: usize) -> Vec<f64> {
        (0..n).map(|i| 0.25 + 0.4 * (i as f64 % 2.0)).collect()
    }

    #[test]
    fn bdd_tier_matches_enumeration_on_c17() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let probs = probs_for(net.primary_inputs().len());
        let exact = detection_probabilities(&net, &faults, &probs);
        let mut engine = DetectionEngine::new(&net, &faults, TestabilityConfig::new(TierMode::Bdd));
        let got = engine
            .estimates(&probs, &RunBudget::unlimited())
            .expect("unlimited");
        for ((e, g), entry) in exact.iter().zip(&got).zip(&faults) {
            assert_eq!(g.method, EstimateMethod::Bdd, "{}", entry.label);
            assert!(
                (e - g.value).abs() < 1e-12,
                "{}: {e} vs {}",
                entry.label,
                g.value
            );
        }
    }

    #[test]
    fn cutting_bounds_contain_exact_on_random_networks() {
        for seed in 0..30 {
            let net = random_domino_network(seed, 4, 6);
            if net.primary_inputs().len() > 16 {
                continue;
            }
            let faults = network_fault_list(&net);
            let probs = probs_for(net.primary_inputs().len());
            let exact = detection_probabilities(&net, &faults, &probs);
            let mut engine = DetectionEngine::new(
                &net,
                &faults,
                TestabilityConfig::new(TierMode::Cutting).with_mc_tighten_samples(0),
            );
            let got = engine
                .estimates(&probs, &RunBudget::unlimited())
                .expect("unlimited");
            for ((e, g), entry) in exact.iter().zip(&got).zip(&faults) {
                assert_eq!(g.method, EstimateMethod::Cutting);
                let (lo, hi) = g.bounds.expect("cutting reports bounds");
                assert!(
                    lo - 1e-12 <= *e && *e <= hi + 1e-12,
                    "seed {seed} {}: exact {e} outside [{lo}, {hi}]",
                    entry.label
                );
            }
        }
    }

    #[test]
    fn auto_tier_uses_exact_within_cap() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let probs = probs_for(net.primary_inputs().len());
        let mut engine =
            DetectionEngine::new(&net, &faults, TestabilityConfig::new(TierMode::Auto));
        let got = engine
            .estimates(&probs, &RunBudget::unlimited())
            .expect("unlimited");
        assert!(got.iter().all(|e| e.method == EstimateMethod::Exact));
        let exact = detection_probabilities(&net, &faults, &probs);
        for (e, g) in exact.iter().zip(&got) {
            assert_eq!(*e, g.value, "exact tier must be bit-identical");
        }
    }

    #[test]
    fn auto_tier_goes_symbolic_over_cap() {
        // carry_chain(30): 61 inputs, far beyond any enumeration cap.
        let net = carry_chain(30);
        let faults = network_fault_list(&net);
        let probs = vec![0.5; net.primary_inputs().len()];
        let mut engine =
            DetectionEngine::new(&net, &faults, TestabilityConfig::new(TierMode::Auto));
        let got = engine
            .estimates(&probs, &RunBudget::unlimited())
            .expect("unlimited");
        assert!(got
            .iter()
            .all(|e| matches!(e.method, EstimateMethod::Bdd | EstimateMethod::Cutting)));
        assert!(
            got.iter().any(|e| e.method == EstimateMethod::Bdd),
            "chain BDDs fit comfortably in the default budget"
        );
        for e in &got {
            assert!((0.0..=1.0).contains(&e.value));
        }
    }

    #[test]
    fn tiny_node_budget_degrades_to_cutting_with_sound_bounds() {
        let net = c17_dynamic_nmos();
        let faults = network_fault_list(&net);
        let probs = probs_for(net.primary_inputs().len());
        let exact = detection_probabilities(&net, &faults, &probs);
        // A 4-node budget cannot even hold the good machine.
        let mut engine = DetectionEngine::new(
            &net,
            &faults,
            TestabilityConfig::new(TierMode::Bdd)
                .with_node_budget(4)
                .with_mc_tighten_samples(256),
        );
        let got = engine
            .estimates(&probs, &RunBudget::unlimited())
            .expect("unlimited");
        for ((e, g), entry) in exact.iter().zip(&got).zip(&faults) {
            assert_eq!(g.method, EstimateMethod::Cutting, "{}", entry.label);
            let (lo, hi) = g.bounds.expect("bounds");
            assert!(lo - 1e-12 <= *e && *e <= hi + 1e-12, "{}", entry.label);
            assert!(lo <= g.value && g.value <= hi, "{}", entry.label);
        }
    }

    #[test]
    fn streaming_resume_is_bit_identical() {
        let net = carry_chain(12);
        let faults = network_fault_list(&net);
        let probs = vec![0.4; net.primary_inputs().len()];
        let config = TestabilityConfig::new(TierMode::Bdd).with_node_budget(200);
        let mut whole = DetectionEngine::new(&net, &faults, config.clone());
        let all = whole
            .estimates(&probs, &RunBudget::unlimited())
            .expect("unlimited");
        // Restart at every third boundary with a fresh engine; values
        // must match bit for bit.
        let mut resumed: Vec<DetectionEstimate> = Vec::new();
        let mut next = 0usize;
        while next < faults.len() {
            let stop_at = (next + 3).min(faults.len());
            let mut engine = DetectionEngine::new(&net, &faults, config.clone());
            let mut batch = Vec::new();
            let status =
                engine.estimates_from(next, &probs, &RunBudget::unlimited(), &mut |i, est| {
                    if i < stop_at {
                        batch.push((i, est));
                    }
                });
            assert!(status.is_complete());
            for (i, est) in batch {
                if i < stop_at {
                    resumed.push(est);
                    next = i + 1;
                }
            }
        }
        assert_eq!(all.len(), resumed.len());
        for (a, b) in all.iter().zip(&resumed) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
            assert_eq!(a.method, b.method);
        }
    }

    #[test]
    fn env_override_parses_and_rejects_garbage() {
        assert_eq!(parse_testability_override(None), None);
        assert_eq!(parse_testability_override(Some("")), None);
        assert_eq!(
            parse_testability_override(Some(" bdd ")),
            Some(TierMode::Bdd)
        );
        assert_eq!(
            parse_testability_override(Some("CUTTING")),
            Some(TierMode::Cutting)
        );
        assert!(std::panic::catch_unwind(|| parse_testability_override(Some("fast"))).is_err());
    }

    #[test]
    #[should_panic(expected = "exceed the cap")]
    fn oversized_tighten_samples_panic() {
        let _ = TestabilityConfig::default().with_mc_tighten_samples(MAX_TIGHTEN_SAMPLES + 1);
    }

    #[test]
    fn tier_census_formats_counts() {
        let methods = [
            EstimateMethod::Exact,
            EstimateMethod::Bdd,
            EstimateMethod::Bdd,
            EstimateMethod::Cutting,
        ];
        assert_eq!(tier_census(methods.iter()), "exact:1,bdd:2,cutting:1,mc:0");
    }
}
