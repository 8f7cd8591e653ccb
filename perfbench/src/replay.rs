//! The traced run: replays a workload's call sequence in process through
//! the public functions of each layer, with spans recorded around every
//! call (in this crate only — the program itself carries no tracing).

use crate::client::THREADS;
use crate::expect::{
    compile, estimate_json, expected_result, faults_for, raw_result, serves_bdd_and_cutting,
    testability_config, testability_result,
};
use crate::gen::{self, Scale, Session, Workload};
use crate::trace::Tracer;
use dynmos::atpg::{generate_test_set_budgeted, register_atpg, AtpgJob};
use dynmos::logic::{min_dnf, Bdd, BddRef, TruthTable, VarId};
use dynmos::model::{classify, enumerate_faults, FaultLibrary, FaultUniverse};
use dynmos::netlist::generate::single_cell_network;
use dynmos::netlist::{parse_bench, parse_cell, Network, NetworkBuilder, PackedEvaluator};
use dynmos::protest::service::jobs::{build_builtin, param_probs, param_u64, DEFAULT_SEED};
use dynmos::protest::service::{Journal, JOURNAL_FILE};
use dynmos::protest::{
    network_fault_list, run_sharded, BackoffPolicy, DetectionEngine, EngineConfig, EstimateMethod,
    FaultEntry, JobContext, JobEngine, JobKernel, Json, NetlistFormat, NetworkCache, Parallelism,
    PatternSource, RunBudget, RunStatus, TestabilityConfig, TierMode,
};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The 16 layers, named after the repository's modules.
const LAYERS: [&str; 16] = [
    "netlist.parse",
    "netlist.compile",
    "netlist.eval",
    "protest.random",
    "protest.fsim",
    "protest.parallel",
    "protest.montecarlo",
    "protest.testability",
    "logic.bdd",
    "logic.mindnf",
    "core.library",
    "atpg.podem",
    "service.engine",
    "service.cache",
    "service.journal",
    "service.json",
];

/// `run_sharded` calls timed by the spawn probe.
const SPAWN_PROBES: usize = 200;

/// Validation rate of the engine's network cache (its default).
const VALIDATE_EVERY: u64 = 16;

/// Seed of the classic CLI's Monte-Carlo fallback.
const CLASSIC_MC_SEED: u64 = 0x00DA_C086;

/// A finished replay.
pub struct Replay {
    /// Spans and counters.
    pub tracer: Tracer,
    /// Replayed operations.
    pub attempted: u64,
    /// Operations whose outputs disagreed.
    pub failed: u64,
    /// Wall time of the whole replay.
    pub wall_s: f64,
}

/// Replays `workload` once; `traced = false` records no spans.
///
/// # Errors
///
/// Journal I/O failures.
pub fn replay(
    workload: Workload,
    seed: u64,
    scale: Scale,
    traced: bool,
    work: &Path,
) -> io::Result<Replay> {
    let mut r = Replay {
        tracer: Tracer::new(traced),
        attempted: 0,
        failed: 0,
        wall_s: 0.0,
    };
    let t = Instant::now();
    match gen::session(workload, seed, scale) {
        Some(session) => {
            let jobs = match workload {
                Workload::TestabilityTiers => 3,
                Workload::JournalSmallJobs => 2 * session.jobs.len(),
                _ => session.jobs.len(),
            };
            replay_session(&mut r, &session, jobs, work)?;
            match workload {
                Workload::TestabilityTiers => bdd_probe(&mut r.tracer, &session.netlists[1]),
                _ => spawn_probe(&mut r.tracer),
            }
        }
        None => {
            for cell in gen::library_cells(seed, scale) {
                replay_cell(&mut r, &cell);
            }
        }
    }
    r.wall_s = t.elapsed().as_secs_f64();
    Ok(r)
}

/// The layer that runs a job kind's kernel.
fn kernel_layer(kind: &str) -> &'static str {
    match kind {
        "fsim" => "protest.fsim",
        "mc-detect" => "protest.montecarlo",
        "atpg" => "atpg.podem",
        _ => "protest.testability",
    }
}

/// Rebuilds `net` through the public builder, so that `finish` — the
/// compile step — can be timed on its own.
fn builder_for(net: &Network) -> NetworkBuilder {
    let mut b = NetworkBuilder::new();
    for cell in net.cells() {
        b.add_cell(cell.clone());
    }
    for &pi in net.primary_inputs() {
        b.input(net.net_name(pi));
    }
    for g in net.gates() {
        let inputs: Vec<_> = g.inputs.iter().map(|&n| b.net(net.net_name(n))).collect();
        b.gate(g.cell, &inputs, net.net_name(g.output), g.phase);
    }
    for &po in net.primary_outputs() {
        let id = b.net(net.net_name(po));
        b.mark_output(id);
    }
    b
}

fn replay_session(r: &mut Replay, session: &Session, jobs: usize, work: &Path) -> io::Result<()> {
    let t = &mut r.tracer;
    let mut cache = NetworkCache::new(VALIDATE_EVERY);
    let mut engine = JobEngine::new(EngineConfig {
        parallelism: Parallelism::Fixed(THREADS),
        leg_patterns: session.leg_patterns,
        backoff: BackoffPolicy {
            base_ms: 0,
            ..BackoffPolicy::default()
        },
        ..EngineConfig::default()
    });
    register_atpg(&mut engine);
    let dir = work.join("replay-journal");
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    let mut journal = match session.journal {
        true => Some(Journal::open(&dir, None)?.0),
        false => None,
    };
    let mut parsed = vec![false; session.netlists.len()];
    for k in 0..jobs {
        let i = k % session.jobs.len();
        let id = k as u64 + 1;
        t.set_job(id);
        let job = &session.jobs[i];
        let line = session.request(i).to_string();
        let ok = t.span("job", "job", |t| -> io::Result<bool> {
            let request = t.span("service.json", "parse", |_| Json::parse(&line));
            t.count("json.bytes", line.len() as f64);
            let Ok(request) = request else {
                return Ok(false);
            };
            let format = NetlistFormat::parse(job.format).map_err(io::Error::other)?;
            let source = &session.netlists[job.netlist];
            let net = t.span("service.cache", "hit", |t| {
                let misses = cache.stats().misses;
                let net = cache.get_or_compile(format, source, None);
                if cache.stats().misses > misses {
                    t.set_op("miss");
                }
                net
            });
            let Ok(net) = net else { return Ok(false) };
            if !parsed[job.netlist] {
                parsed[job.netlist] = true;
                let again = t.span("netlist.parse", "parse", |_| compile(job.format, source));
                if let Ok(again) = again {
                    let builder = builder_for(&again);
                    let built = t.span("netlist.compile", "finish", |_| builder.finish());
                    black_box(built.is_ok());
                }
            }
            let faults = faults_for(job.format, &net);
            let expected = reference(t, job.kind, &net, &faults, &request);
            let mixed = !session.mixed_tiers.contains(&i)
                || expected.as_ref().is_some_and(serves_bdd_and_cutting);

            // The kernel's legs, run directly at the engine's thread
            // count and leg size, journaled the way the engine does.
            let mut kernel =
                build_kernel(job.kind, &net, &faults, &request).map_err(io::Error::other)?;
            if let Some(j) = journal.as_mut() {
                t.span("service.journal", "append", |_| {
                    j.record_admit(id, &request)
                })?;
                t.count("journal.appends", 1.0);
            }
            let budget = RunBudget {
                max_patterns: session.leg_patterns,
                ..RunBudget::unlimited()
            };
            let layer = kernel_layer(job.kind);
            let mut legs = 0u32;
            loop {
                legs += 1;
                match t.span(layer, "legs", |_| kernel.run_leg(&budget)) {
                    RunStatus::Completed => break,
                    RunStatus::Interrupted(_) => {
                        if let Some(j) = journal.as_mut() {
                            let snapshot = kernel.snapshot();
                            t.span("service.journal", "append", |_| {
                                j.record_leg(id, legs, 0, snapshot)
                            })?;
                            t.count("journal.appends", 1.0);
                        }
                    }
                }
            }
            let direct = kernel.output();
            if let Some(j) = journal.as_mut() {
                let record = Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("id".into(), Json::num(id)),
                    ("kind".into(), Json::str(job.kind)),
                    ("status".into(), Json::str("completed")),
                    ("legs".into(), Json::num(u64::from(legs))),
                    ("retries".into(), Json::num(0)),
                    ("result".into(), direct.clone()),
                ]);
                t.span("service.journal", "append", |_| j.record_done(id, &record))?;
                t.count("journal.appends", 1.0);
            }

            // The same job through the supervised engine.
            let ack = t.span("service.engine", "submit", |_| engine.submit_json(&request));
            if ack.get("ok").and_then(Json::as_bool) != Some(true) {
                return Ok(false);
            }
            let Some(record) = t.span("service.engine", "run_next", |_| engine.run_next()) else {
                return Ok(false);
            };
            t.count("engine.legs", f64::from(record.legs));
            t.count("engine.retries", f64::from(record.retries));
            let encoded = t.span("service.json", "encode", |_| record.to_json().to_string());
            t.count("json.bytes", encoded.len() as f64);
            let raw = raw_result(&encoded).unwrap_or("");
            let direct = direct.to_string();
            Ok(record.status.token() == "completed"
                && mixed
                && raw == direct
                && expected.is_none_or(|e| e.to_string() == direct))
        })?;
        r.attempted += 1;
        if !ok {
            r.failed += 1;
        }
    }
    let stats = cache.stats();
    t.count("cache.hits", stats.hits as f64);
    t.count("cache.misses", stats.misses as f64);
    t.count("cache.validations", stats.validations as f64);
    if let Some(j) = journal.take() {
        drop(j);
        let bytes = std::fs::metadata(dir.join(JOURNAL_FILE))?.len();
        t.count("journal.bytes", bytes as f64);
        let (_, recovery) = t.span("service.journal", "open", |_| Journal::open(&dir, None))?;
        r.attempted += 1;
        if recovery.terminal.len() != jobs || !recovery.jobs.is_empty() {
            r.failed += 1;
        }
        std::fs::remove_dir_all(&dir)?;
    }
    Ok(())
}

fn build_kernel(
    kind: &str,
    net: &Arc<Network>,
    faults: &[FaultEntry],
    request: &Json,
) -> Result<Box<dyn JobKernel>, String> {
    let ctx = JobContext {
        net: net.clone(),
        faults: faults.to_vec(),
        parallelism: Parallelism::Fixed(THREADS),
        params: request,
    };
    if kind == "atpg" {
        return AtpgJob::from_request(ctx).map(|k| Box::new(k) as Box<dyn JobKernel>);
    }
    build_builtin(kind, ctx).ok_or_else(|| format!("unknown kind {kind}"))?
}

/// The serial in-process reference for a job, with the layer probes
/// that belong to its kind; returns the expected `result` when the kind
/// has one.
fn reference(
    t: &mut Tracer,
    kind: &str,
    net: &Network,
    faults: &[FaultEntry],
    request: &Json,
) -> Option<Json> {
    let n = net.primary_inputs().len();
    let probs = param_probs(request, n, 0.5).ok()?;
    let seed = param_u64(request, "seed", DEFAULT_SEED);
    match kind {
        "fsim" => {
            let patterns = param_u64(request, "patterns", 10_000);
            eval_probes(t, net, faults, &PatternSource::new(seed, probs), patterns);
            let expected = t.span("protest.fsim", "serial", |_| {
                expected_result(net, faults, request)
            });
            let expected = expected.ok().flatten()?;
            t.count(
                "fsim.patterns",
                expected
                    .get("patterns")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            );
            let dropped = expected
                .get("detected_at")
                .and_then(Json::as_arr)
                .map_or(0, |d| d.iter().filter(|x| **x != Json::Null).count());
            t.count("fsim.faults_dropped", dropped as f64);
            Some(expected)
        }
        "mc-detect" => {
            t.count("mc.samples", param_u64(request, "samples", 10_000) as f64);
            t.span("protest.montecarlo", "serial", |_| {
                expected_result(net, faults, request)
            })
            .ok()
            .flatten()
        }
        "testability" => {
            let config = testability_config(request).ok()?;
            let mut engine =
                DetectionEngine::new(net, faults, config).with_parallelism(Parallelism::Serial);
            let mut est = Vec::with_capacity(faults.len());
            let budget = RunBudget::unlimited();
            t.span("protest.testability", "resolve", |t| {
                let mut last = Instant::now();
                let mut per_tier = [0.0f64; 4];
                engine.estimates_from(0, &probs, &budget, &mut |_, e| {
                    let now = Instant::now();
                    per_tier[tier_index(e.method)] += (now - last).as_secs_f64();
                    last = now;
                    est.push(e);
                });
                for (name, secs) in TIER_RESOLVE.into_iter().zip(per_tier) {
                    t.count(name, secs);
                }
            });
            for e in &est {
                let name = TIER_FAULTS[tier_index(e.method)];
                t.count(name, 1.0);
            }
            let again = t
                .span("protest.testability", "query", |_| {
                    engine.estimates(&probs, &budget)
                })
                .ok()?;
            let same = again
                .iter()
                .map(estimate_json)
                .eq(est.iter().map(estimate_json));
            same.then(|| testability_result(&est, true))
        }
        "detect" => t
            .span("protest.testability", "detect", |_| {
                expected_result(net, faults, request)
            })
            .ok()
            .flatten(),
        "atpg" => {
            let backtracks = param_u64(request, "max_backtracks", 50);
            let run = t.span("atpg.podem", "serial", |_| {
                generate_test_set_budgeted(
                    net,
                    faults,
                    backtracks,
                    Parallelism::Serial,
                    &RunBudget::unlimited(),
                    None,
                )
            });
            black_box(run.report.tests.len());
            None
        }
        _ => None,
    }
}

/// Per-tier fault-count and resolve-time counters, in [`tier_index`]
/// order.
const TIER_FAULTS: [&str; 4] = [
    "testability.faults.exact",
    "testability.faults.bdd",
    "testability.faults.cutting",
    "testability.faults.mc",
];
const TIER_RESOLVE: [&str; 4] = [
    "testability.resolve_s.exact",
    "testability.resolve_s.bdd",
    "testability.resolve_s.cutting",
    "testability.resolve_s.mc",
];

fn tier_index(m: EstimateMethod) -> usize {
    match m {
        EstimateMethod::Exact => 0,
        EstimateMethod::Bdd => 1,
        EstimateMethod::Cutting => 2,
        EstimateMethod::MonteCarlo => 3,
    }
}

/// Weighted pattern generation and compiled evaluation over the batches
/// an fsim job of `patterns` draws: every batch through the good machine
/// and every fault's cone (no fault dropping).
fn eval_probes(
    t: &mut Tracer,
    net: &Network,
    faults: &[FaultEntry],
    src: &PatternSource,
    patterns: u64,
) {
    let inputs = net.primary_inputs().len();
    let batches = patterns.div_ceil(64);
    let words = t.span("protest.random", "fill_batch_at", |_| {
        let mut words = vec![0u64; inputs * batches as usize];
        for (b, chunk) in words.chunks_mut(inputs).enumerate() {
            src.fill_batch_at(b as u64, chunk);
        }
        words
    });
    t.count("random.words", words.len() as f64);
    let prepared: Vec<_> = faults.iter().map(|f| net.prepare_fault(&f.fault)).collect();
    let instructions = net.compiled().instruction_count() as f64;
    let cone: f64 = prepared.iter().map(|p| p.cone_size() as f64).sum();
    t.span("netlist.eval", "eval+fault_diff64", |_| {
        let mut ev = PackedEvaluator::new(net);
        let mut any = 0u64;
        for chunk in words.chunks(inputs) {
            ev.eval(chunk);
            for p in &prepared {
                any |= ev.fault_diff64(p);
            }
        }
        black_box(any);
    });
    t.count(
        "eval.gate_word_evals",
        batches as f64 * (instructions + cone),
    );
}

/// Thread spawn cost of `run_sharded` on two workers with a trivial
/// closure.
fn spawn_probe(t: &mut Tracer) {
    for _ in 0..SPAWN_PROBES {
        let parts = t.span("protest.parallel", "spawn", |_| {
            run_sharded(THREADS, THREADS, |r| r.len())
        });
        black_box(parts);
    }
}

/// Builds the good machine of `bench` in a `Bdd`, then for each gate:
/// mark, build the stuck-at-0 difference over the fanout, truncate —
/// the per-fault rollback the tiered engine would pay.
fn bdd_probe(t: &mut Tracer, bench: &str) {
    let Ok(net) = parse_bench(bench) else { return };
    let mut bdd = Bdd::new();
    let mut good = vec![BddRef::FALSE; net.net_count()];
    t.span("logic.bdd", "build", |t| {
        for (i, &pi) in net.primary_inputs().iter().enumerate() {
            good[pi.index()] = bdd.var(VarId(i as u32));
        }
        for &g in net.topo_order() {
            let inst = &net.gates()[g.index()];
            let f = net.cell_of(g).logic_function();
            let r = bdd.eval_expr_over(&f, &|v| good[inst.inputs[v.index()].index()]);
            good[inst.output.index()] = r;
            t.count("bdd.ops", 1.0);
        }
    });
    t.count("bdd.nodes", bdd.node_count() as f64);
    for &g in net.topo_order() {
        let mark = bdd.mark();
        t.span("logic.bdd", "diff", |t| {
            let mut faulty = good.clone();
            faulty[net.gates()[g.index()].output.index()] = BddRef::FALSE;
            let mut ops = 0.0;
            for &h in net.topo_order().iter().skip_while(|&&h| h != g).skip(1) {
                let inst = &net.gates()[h.index()];
                if inst
                    .inputs
                    .iter()
                    .all(|n| faulty[n.index()] == good[n.index()])
                {
                    continue;
                }
                let f = net.cell_of(h).logic_function();
                let r = bdd.eval_expr_over(&f, &|v| faulty[inst.inputs[v.index()].index()]);
                faulty[inst.output.index()] = r;
                ops += 1.0;
            }
            let mut diff = BddRef::FALSE;
            for &po in net.primary_outputs() {
                let x = bdd.xor(good[po.index()], faulty[po.index()]);
                diff = bdd.or(diff, x);
                ops += 2.0;
            }
            black_box(diff);
            t.count("bdd.ops", ops);
        });
        t.span("logic.bdd", "truncate", |_| bdd.truncate(mark));
    }
}

/// One classic library run, layer by layer: parse, generate, classify
/// every fault, minimize every class, and the PROTEST statistics.
fn replay_cell(r: &mut Replay, text: &str) {
    let t = &mut r.tracer;
    r.attempted += 1;
    t.set_job(r.attempted);
    let ok = t.span("job", "cell", |t| {
        let Ok(cell) = t.span("netlist.parse", "parse_cell", |_| parse_cell("cell", text)) else {
            return false;
        };
        let universe = FaultUniverse::full();
        let lib = t.span("core.library", "generate", |_| {
            FaultLibrary::generate_with(&cell, universe)
        });
        t.count("library.classes", lib.classes().len() as f64);
        let nvars = cell.input_count();
        let mut tables: Vec<TruthTable> = Vec::new();
        t.span("core.library", "classify", |_| {
            for fault in enumerate_faults(&cell, universe) {
                let effect = classify(&cell, fault);
                let table = TruthTable::from_expr(&effect.function, nvars);
                if table != *lib.fault_free_table() && !tables.contains(&table) {
                    tables.push(table);
                }
            }
        });
        t.span("logic.mindnf", "min_dnf", |_| {
            for class in lib.classes() {
                black_box(min_dnf(&class.table));
            }
        });
        let net = single_cell_network(cell);
        let faults = network_fault_list(&net);
        let probs = vec![0.5; net.primary_inputs().len()];
        let config = TestabilityConfig::new(TierMode::Auto).with_seed(CLASSIC_MC_SEED);
        let est = t.span("protest.testability", "classic", |_| {
            DetectionEngine::new(&net, &faults, config)
                .with_parallelism(Parallelism::Fixed(THREADS))
                .estimates(&probs, &RunBudget::unlimited().with_max_exact_rows(1 << 20))
        });
        for e in est.iter().flatten() {
            let name = TIER_FAULTS[tier_index(e.method)];
            t.count(name, 1.0);
        }
        est.is_ok() && tables.len() == lib.classes().len()
    });
    if !ok {
        r.failed += 1;
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced replay, as `(name, value, unit)`;
/// `untraced_s` is the wall time of the same replay without spans.
pub fn per_layer(r: &Replay, untraced_s: f64) -> Vec<(String, f64, &'static str)> {
    let t = &r.tracer;
    let c = |name: &str| t.counter(name);
    let busy = |layer: &str, op: &str| t.busy(layer, Some(op));
    let fsim_patterns = c("fsim.patterns");
    let legs_total: f64 = [
        "protest.fsim",
        "protest.montecarlo",
        "protest.testability",
        "atpg.podem",
    ]
    .iter()
    .map(|l| busy(l, "legs"))
    .sum();
    let mut m: Vec<(String, f64, &'static str)> = vec![
        ("random.words".into(), c("random.words"), "count"),
        (
            "random.ns_per_word".into(),
            1e9 * ratio(t.busy("protest.random", None), c("random.words")),
            "ns",
        ),
        (
            "eval.gate_word_evals".into(),
            c("eval.gate_word_evals"),
            "count",
        ),
        (
            "eval.ns_per_gate_word".into(),
            1e9 * ratio(t.busy("netlist.eval", None), c("eval.gate_word_evals")),
            "ns",
        ),
        ("fsim.busy_s".into(), busy("protest.fsim", "serial"), "s"),
        ("fsim.patterns".into(), fsim_patterns, "count"),
        (
            "fsim.faults_dropped".into(),
            c("fsim.faults_dropped"),
            "count",
        ),
        (
            "fsim.patterns_per_s.t1".into(),
            ratio(fsim_patterns, busy("protest.fsim", "serial")),
            "1/s",
        ),
        (
            "fsim.patterns_per_s.t2".into(),
            ratio(fsim_patterns, busy("protest.fsim", "legs")),
            "1/s",
        ),
        (
            "parallel.spawn_s".into(),
            ratio(
                busy("protest.parallel", "spawn"),
                t.calls("protest.parallel", "spawn") as f64,
            ),
            "s",
        ),
        (
            "mc.samples_per_s".into(),
            ratio(c("mc.samples"), busy("protest.montecarlo", "serial")),
            "1/s",
        ),
        (
            "testability.resolve_s.bdd".into(),
            c("testability.resolve_s.bdd"),
            "s",
        ),
        (
            "testability.resolve_s.cutting".into(),
            c("testability.resolve_s.cutting"),
            "s",
        ),
        (
            "testability.query_s".into(),
            busy("protest.testability", "query"),
            "s",
        ),
        (
            "testability.faults.exact".into(),
            c("testability.faults.exact"),
            "count",
        ),
        (
            "testability.faults.bdd".into(),
            c("testability.faults.bdd"),
            "count",
        ),
        (
            "testability.faults.cutting".into(),
            c("testability.faults.cutting"),
            "count",
        ),
        (
            "testability.faults.mc".into(),
            c("testability.faults.mc"),
            "count",
        ),
        ("bdd.nodes".into(), c("bdd.nodes"), "count"),
        (
            "bdd.ops_per_s".into(),
            ratio(
                c("bdd.ops"),
                busy("logic.bdd", "build") + busy("logic.bdd", "diff"),
            ),
            "1/s",
        ),
        (
            "bdd.truncate_ns".into(),
            1e9 * ratio(
                busy("logic.bdd", "truncate"),
                t.calls("logic.bdd", "truncate") as f64,
            ),
            "ns",
        ),
        ("cache.hits".into(), c("cache.hits"), "count"),
        ("cache.misses".into(), c("cache.misses"), "count"),
        ("cache.validations".into(), c("cache.validations"), "count"),
        ("compile.busy_s".into(), busy("service.cache", "miss"), "s"),
        ("journal.appends".into(), c("journal.appends"), "count"),
        ("journal.bytes".into(), c("journal.bytes"), "bytes"),
        (
            "journal.append_s".into(),
            busy("service.journal", "append"),
            "s",
        ),
        (
            "journal.open_s".into(),
            busy("service.journal", "open"),
            "s",
        ),
        ("json.parse_s".into(), busy("service.json", "parse"), "s"),
        ("json.encode_s".into(), busy("service.json", "encode"), "s"),
        ("json.bytes".into(), c("json.bytes"), "bytes"),
        ("engine.legs".into(), c("engine.legs"), "count"),
        ("engine.retries".into(), c("engine.retries"), "count"),
        (
            "engine.overhead_s".into(),
            busy("service.engine", "run_next") - legs_total,
            "s",
        ),
        (
            "library.generate_s".into(),
            busy("core.library", "generate"),
            "s",
        ),
        ("library.classes".into(), c("library.classes"), "count"),
        (
            "classify.busy_s".into(),
            busy("core.library", "classify"),
            "s",
        ),
        ("mindnf.busy_s".into(), busy("logic.mindnf", "min_dnf"), "s"),
        ("atpg.busy_s".into(), busy("atpg.podem", "serial"), "s"),
    ];
    let selfs = t.self_times();
    for layer in LAYERS {
        m.push((
            format!("self_s.{layer}"),
            selfs.get(layer).copied().unwrap_or(0.0),
            "s",
        ));
    }
    m.push(("trace.replay_s".into(), r.wall_s, "s"));
    m.push(("trace.untraced_replay_s".into(), untraced_s, "s"));
    m.push((
        "trace.overhead_ratio".into(),
        ratio(r.wall_s - untraced_s, untraced_s),
        "ratio",
    ));
    m.push(("trace.spans".into(), t.spans().len() as f64, "count"));
    m
}

/// The counters that must repeat exactly between runs of one seed.
pub const DETERMINISTIC_COUNTERS: [&str; 9] = [
    "fsim.patterns",
    "eval.gate_word_evals",
    "testability.faults.exact",
    "testability.faults.bdd",
    "testability.faults.cutting",
    "testability.faults.mc",
    "journal.appends",
    "journal.bytes",
    "library.classes",
];
