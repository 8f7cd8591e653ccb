//! The end-to-end runs: a single closed-loop client with one job in
//! flight, driving the release `faultlib` from outside, plus the output
//! checks on everything it returned.

use crate::client::{self, time_to_first_answer, Exit, Serve};
use crate::expect::{compile, expected_result, faults_for, raw_result, serves_bdd_and_cutting};
use crate::gen::{self, Scale, Session, Workload};
use crate::host::{self, corrected};
use crate::stats::{median, tail, Tail};
use dynmos::model::{FaultLibrary, FaultUniverse};
use dynmos::netlist::parse_cell;
use dynmos::protest::Json;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up samples per run; the median is reported.
const SETUP_REPEATS: usize = 31;

/// What one end-to-end run measured. Timings are host-speed corrected
/// (see [`crate::host`]) unless their name says `measured`.
#[derive(Debug, Default)]
pub struct E2e {
    /// Operations attempted: jobs, plus one per restart comparison.
    pub attempted: u64,
    /// Operations that failed, were refused, did not complete, or
    /// failed an output check.
    pub failed: u64,
    /// Median set-up time.
    pub setup_s: f64,
    /// Completed jobs per second of session wall time after set-up.
    pub jobs_per_s: f64,
    /// Median closed-loop latency.
    pub p50_s: f64,
    /// Tail closed-loop latency (see [`tail`]).
    pub tail: Option<Tail>,
    /// Measured closed-loop latency of every job.
    pub latencies: Vec<f64>,
    /// The reference run timed right before each job.
    pub references: Vec<f64>,
    /// Uncorrected `jobs_per_s`, `p50_s` and tail value.
    pub measured: [f64; 3],
    /// Journal workloads: median time for a program restarted on a
    /// finished session's journal to answer its first request.
    pub recovery_s: Option<f64>,
    /// Peak RSS of the measured `faultlib` processes.
    pub peak_rss_mb: f64,
}

/// Per-distinct-job bookkeeping for the repetition and reference
/// checks.
#[derive(Default, Clone)]
struct Seen {
    runs: u64,
    first: Option<String>,
}

/// Runs `workload` for about `seconds` and checks its outputs.
///
/// # Errors
///
/// Process or pipe failures (a program that dies mid-session).
pub fn run(
    bin: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> io::Result<E2e> {
    if workload.single_threaded() {
        let cpu = client::pin_to_one_cpu()?;
        eprintln!("perfbench: {} runs on CPU {cpu} only", workload.name());
    }
    match gen::session(workload, seed, Scale::Full) {
        Some(session) => run_serve(bin, &session, workload, seconds, work),
        None => run_library(bin, &gen::library_cells(seed, Scale::Full), seconds),
    }
}

fn journal_args(session: &Session, dir: Option<&PathBuf>) -> Vec<String> {
    let mut args = session.serve_args();
    if let Some(d) = dir {
        args.extend(["--journal".to_owned(), d.display().to_string()]);
    }
    args
}

/// A fresh, empty directory under `work`.
fn fresh_dir(work: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = work.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One closed-loop job: submit, wait for the ack, `run`, wait for the
/// record and the run summary. Returns the record line.
fn one_job(serve: &mut Serve, request: &str) -> io::Result<Option<String>> {
    let ack = serve.ask(request)?;
    if !ack.starts_with("{\"ok\":true,\"id\":") {
        return Ok(None);
    }
    let record = serve.ask("{\"op\":\"run\"}")?;
    let summary = serve.recv()?;
    if summary != "{\"ok\":true,\"op\":\"run\",\"completed\":1}" {
        return Ok(None);
    }
    Ok(Some(record))
}

fn run_serve(
    bin: &Path,
    session: &Session,
    workload: Workload,
    seconds: f64,
    work: &Path,
) -> io::Result<E2e> {
    let requests: Vec<String> = (0..session.jobs.len())
        .map(|i| session.request(i).to_string())
        .collect();
    let mut out = E2e::default();

    let mut setups = Vec::new();
    for k in 0..SETUP_REPEATS {
        let dir = session
            .journal
            .then(|| fresh_dir(work, &format!("setup-{k}")))
            .transpose()?;
        let reference = host::reference_s();
        let secs = time_to_first_answer(bin, &journal_args(session, dir.as_ref()))?.0;
        setups.push(corrected(secs, &[reference]));
    }
    out.setup_s = median(&setups);

    let mut seen = vec![Seen::default(); requests.len()];
    let mut recoveries = Vec::new();
    let mut windows = Windows::new(requests.len());
    let mut next = 0usize;
    let start = Instant::now();
    let mut epoch = 0;
    // Whole sessions of `jobs_per_session` jobs, each in a fresh process
    // (and, for journal workloads, on a fresh journal).
    while start.elapsed().as_secs_f64() < seconds {
        let dir = session
            .journal
            .then(|| fresh_dir(work, &format!("journal-{epoch}")))
            .transpose()?;
        epoch += 1;
        let args = journal_args(session, dir.as_ref());
        let mut serve = Serve::spawn(bin, &args)?;
        serve.ask("{\"op\":\"stats\"}")?;
        let mut done = 0usize;
        while done < session.jobs_per_session {
            let i = next % requests.len();
            next += 1;
            done += 1;
            out.references.push(host::reference_s());
            let t = Instant::now();
            let record = one_job(&mut serve, &requests[i])?;
            out.latencies.push(t.elapsed().as_secs_f64());
            out.attempted += 1;
            let s = &mut seen[i];
            s.runs += 1;
            let raw = record
                .as_deref()
                .filter(|r| r.contains("\"status\":\"completed\""))
                .and_then(raw_result);
            match (raw, &s.first) {
                (None, _) => {
                    out.failed += 1;
                }
                (Some(r), Some(first)) if r != first => {
                    out.failed += 1;
                }
                (Some(r), None) => s.first = Some(r.to_owned()),
                (Some(_), Some(_)) => {}
            }
        }
        let from = out.latencies.len() - done;
        for (lats, refs) in out.latencies[from..]
            .chunks(session.window)
            .zip(out.references[from..].chunks(session.window))
        {
            windows.add(lats, refs);
        }
        let results = match &dir {
            Some(_) => Some(serve.ask("{\"op\":\"results\"}")?),
            None => None,
        };
        let exit = serve.finish()?;
        note_exit(&mut out, exit);
        if let (Some(dir), Some(before)) = (&dir, results) {
            // Restart on the finished journal: time to the first answer,
            // then its replayed results must equal the first process's.
            let t = Instant::now();
            let mut again = Serve::spawn(bin, &args)?;
            again.ask("{\"op\":\"stats\"}")?;
            recoveries.push(t.elapsed().as_secs_f64());
            let after = again.ask("{\"op\":\"results\"}")?;
            again.finish()?;
            out.attempted += 1;
            if after != before {
                out.failed += 1;
            }
            std::fs::remove_dir_all(dir)?;
        }
    }
    windows.finish(&mut out);
    out.recovery_s = (!recoveries.is_empty()).then(|| median(&recoveries));
    report_kernels(session, &seen, &out.latencies);
    out.failed += check_serve(session, workload, &seen);
    Ok(out)
}

/// Kernel-level figures for humans, on stderr: per-class median
/// latency, fsim patterns and testability estimates per second of their
/// jobs' wall time, and the share of estimates from a degraded tier.
/// They are not metrics because not every workload has them.
fn report_kernels(session: &Session, seen: &[Seen], latencies: &[f64]) {
    let mut classes: Vec<((&str, usize), Vec<f64>)> = Vec::new();
    let (mut patterns, mut fsim_s, mut estimates, mut degraded, mut tst_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for (k, &lat) in latencies.iter().enumerate() {
        let i = k % session.jobs.len();
        let job = &session.jobs[i];
        match classes
            .iter_mut()
            .find(|(c, _)| *c == (job.kind, job.netlist))
        {
            Some((_, v)) => v.push(lat),
            None => classes.push(((job.kind, job.netlist), vec![lat])),
        }
        let raw = seen[i].first.as_deref().unwrap_or("");
        match job.kind {
            "fsim" => {
                patterns += raw_u64(raw, "\"patterns\":") as f64;
                fsim_s += lat;
            }
            "testability" => {
                estimates += raw.matches("\"method\":").count() as f64;
                degraded += (raw.matches("\"method\":\"cutting\"").count()
                    + raw.matches("\"method\":\"monte-carlo\"").count())
                    as f64;
                tst_s += lat;
            }
            _ => {}
        }
    }
    for ((kind, net), lats) in &classes {
        eprintln!(
            "perfbench: {kind} on netlist {net}: {} jobs, median {:.6}s",
            lats.len(),
            median(lats)
        );
    }
    if fsim_s > 0.0 {
        eprintln!("perfbench: fsim_patterns_per_s {:.1}", patterns / fsim_s);
    }
    if tst_s > 0.0 {
        eprintln!(
            "perfbench: testability_faults_per_s {:.1}, degraded_fault_share {:.4}",
            estimates / tst_s,
            degraded / estimates
        );
    }
}

/// The integer after the first `key` in `raw` (0 if absent).
fn raw_u64(raw: &str, key: &str) -> u64 {
    raw.find(key)
        .map(|at| &raw[at + key.len()..])
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

fn note_exit(out: &mut E2e, exit: Exit) {
    out.peak_rss_mb = out.peak_rss_mb.max(exit.peak_rss_mb);
    if !exit.success {
        out.failed += 1;
    }
}

/// Compares every distinct job's result with the serial in-process
/// reference, and checks that `fsim_weighted` jobs are budget-bound and
/// that the session's mixed-tier jobs are served by BDD and by cutting;
/// returns the number of failed operations (each run of a failing job
/// counts).
fn check_serve(session: &Session, workload: Workload, seen: &[Seen]) -> u64 {
    let mut failed = 0;
    for (i, s) in seen.iter().enumerate() {
        let Some(raw) = &s.first else { continue };
        let job = &session.jobs[i];
        let request = session.request(i);
        let net = match compile(job.format, &session.netlists[job.netlist]) {
            Ok(n) => n,
            Err(_) => {
                failed += s.runs;
                continue;
            }
        };
        let faults = faults_for(job.format, &net);
        let ok = match expected_result(&net, &faults, &request) {
            Ok(Some(expected)) => {
                let budget_bound = workload != Workload::FsimWeighted
                    || job.kind != "fsim"
                    || expected.get("patterns").and_then(Json::as_u64)
                        == request.get("patterns").and_then(Json::as_u64);
                let mixed = !session.mixed_tiers.contains(&i) || {
                    let census = expected.get("tiers").and_then(Json::as_str);
                    eprintln!("perfbench: job {i} tier census {}", census.unwrap_or("-"));
                    serves_bdd_and_cutting(&expected)
                };
                budget_bound && mixed && expected.to_string() == *raw
            }
            Ok(None) => true,
            Err(_) => false,
        };
        if !ok {
            failed += s.runs;
        }
    }
    failed
}

fn run_library(bin: &Path, cells: &[String], seconds: f64) -> io::Result<E2e> {
    let help = ["--help".to_owned()];
    let full = ["--full".to_owned()];
    let mut out = E2e::default();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        client::settle();
        let reference = host::reference_s();
        let secs = client::run_classic(bin, &help, "")?.0;
        setups.push(corrected(secs, &[reference]));
    }
    out.setup_s = median(&setups);

    let mut seen = vec![Seen::default(); cells.len()];
    let (mut rates, mut measured_rates, mut fixed) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    // Whole passes over the cell set only, so every run weighs the cells
    // alike. Throughput is the median over passes, each corrected by its
    // own reference runs; latencies are taken over the whole run.
    while start.elapsed().as_secs_f64() < seconds {
        for (cell, s) in cells.iter().zip(seen.iter_mut()) {
            out.references.push(host::reference_s());
            let (secs, stdout, exit) = client::run_classic(bin, &full, cell)?;
            out.latencies.push(secs);
            out.attempted += 1;
            s.runs += 1;
            note_exit(&mut out, exit);
            match &s.first {
                None => s.first = Some(stdout),
                Some(first) if *first != stdout => out.failed += 1,
                Some(_) => {}
            }
        }
        let from = out.latencies.len() - cells.len();
        let (lats, refs) = (&out.latencies[from..], &out.references[from..]);
        let pass: Vec<f64> = lats.iter().map(|&l| corrected(l, refs)).collect();
        rates.push(pass.len() as f64 / pass.iter().sum::<f64>());
        measured_rates.push(lats.len() as f64 / lats.iter().sum::<f64>());
        fixed.extend(pass);
    }
    out.jobs_per_s = median(&rates);
    out.p50_s = median(&fixed);
    out.tail = tail(&fixed);
    out.measured = [
        median(&measured_rates),
        median(&out.latencies),
        tail(&out.latencies).map_or(0.0, |t| t.value),
    ];
    for (cell, s) in cells.iter().zip(&seen) {
        let Some(stdout) = &s.first else { continue };
        let ok = parse_cell("cell", cell).is_ok_and(|c| {
            let lib = FaultLibrary::generate_with(&c, FaultUniverse::full());
            let header = format!("-> {} classes,", lib.classes().len());
            stdout.starts_with(&lib.render_table()) && stdout.contains(&header)
        });
        if !ok {
            out.failed += s.runs;
        }
    }
    Ok(out)
}

/// Per-window figures of a run, measured and host-speed corrected. A
/// window is a fixed number of whole passes over the distinct jobs, so
/// every window has the same job mix; each window is corrected by the
/// median of its own reference runs, which follows the host through its
/// phases.
struct Windows {
    /// Distinct jobs; job `k` of a window is distinct job `k % distinct`.
    distinct: usize,
    /// Corrected, then measured: jobs per second of busy time, median
    /// latency, tail latency.
    figures: [[Vec<f64>; 3]; 2],
    tail: Option<Tail>,
}

impl Windows {
    fn new(distinct: usize) -> Windows {
        Windows {
            distinct,
            figures: Default::default(),
            tail: None,
        }
    }

    fn add(&mut self, lats: &[f64], refs: &[f64]) {
        let fixed: Vec<f64> = lats.iter().map(|&l| corrected(l, refs)).collect();
        for (figures, lats) in self.figures.iter_mut().zip([&fixed[..], lats]) {
            // One job in flight, so throughput is the inverse of the mean
            // job time; each distinct job's time is its median over the
            // window, so one job stalled by the host does not count.
            let busy: f64 = (0..self.distinct)
                .map(|j| {
                    let runs: Vec<f64> = lats
                        .iter()
                        .skip(j)
                        .step_by(self.distinct)
                        .copied()
                        .collect();
                    median(&runs)
                })
                .sum();
            figures[0].push(self.distinct as f64 / busy);
            figures[1].push(median(lats));
            if let Some(t) = tail(lats) {
                figures[2].push(t.value);
                self.tail.get_or_insert(t);
            }
        }
    }

    /// Run-level figures: medians over windows, so a burst of host noise
    /// moves one window rather than the run.
    fn finish(self, out: &mut E2e) {
        let [fixed, measured] = self.figures.map(|f| f.map(|v| median(&v)));
        out.jobs_per_s = fixed[0];
        out.p50_s = fixed[1];
        out.tail = self.tail.map(|t| Tail {
            value: fixed[2],
            ..t
        });
        out.measured = measured;
    }
}
