//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds the release `faultlib` from the checkout in the working
//! directory, runs one workload, and prints one JSON object as the last
//! line of stdout: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced in-process replay with `--trace 1`. Human-readable detail
//! goes to stderr; spans go to `.bench_work/trace/`.

use dynmos::protest::Json;
use dynmos_perfbench::client::{build_faultlib, THREADS, UNSET_ENV};
use dynmos_perfbench::gen::{Scale, Workload};
use dynmos_perfbench::host::REFERENCE_S;
use dynmos_perfbench::stats::median;
use dynmos_perfbench::{e2e, replay};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let name = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
    })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Num(value)),
        ("unit".into(), Json::str(unit)),
    ])
}

fn result_line(attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::num(attempted)),
        ("failed".into(), Json::num(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string()
}

fn run(args: &Args) -> Result<String, String> {
    // In-process calls must see the same environment as the program.
    for var in UNSET_ENV {
        std::env::remove_var(var);
    }
    std::env::set_var("DYNMOS_THREADS", THREADS.to_string());
    let bin = build_faultlib().map_err(|e| e.to_string())?;
    let name = args.workload.name();
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{name}-{}-{}", args.seed, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let line = if args.trace {
        // Untraced replays fill the run; the tracing overhead is the one
        // traced replay against their median.
        let started = Instant::now();
        let (mut untraced, mut attempted, mut failed) = (Vec::new(), 0, 0);
        while untraced.is_empty() || started.elapsed().as_secs() < args.seconds {
            let r = replay::replay(args.workload, args.seed, Scale::Full, false, &work)
                .map_err(|e| e.to_string())?;
            untraced.push(r.wall_s);
            attempted += r.attempted;
            failed += r.failed;
        }
        let untraced_s = median(&untraced);
        let traced = replay::replay(args.workload, args.seed, Scale::Full, true, &work)
            .map_err(|e| e.to_string())?;
        let trace_dir = root.join("trace");
        std::fs::create_dir_all(&trace_dir).map_err(|e| e.to_string())?;
        let spans = trace_dir.join(format!("{name}-seed{}.jsonl", args.seed));
        traced
            .tracer
            .write_jsonl(&spans)
            .map_err(|e| e.to_string())?;
        eprintln!(
            "perfbench: {name} traced replay {:.3}s, untraced median {:.3}s of {}, {} spans in {}",
            traced.wall_s,
            untraced_s,
            untraced.len(),
            traced.tracer.spans().len(),
            spans.display()
        );
        let metrics = replay::per_layer(&traced, untraced_s)
            .into_iter()
            .map(|(n, v, u)| (n, metric(v, u)))
            .collect();
        result_line(
            attempted + traced.attempted,
            failed + traced.failed,
            metrics,
        )
    } else {
        let out = e2e::run(&bin, args.workload, args.seed, args.seconds as f64, &work)
            .map_err(|e| e.to_string())?;
        let t = out
            .tail
            .ok_or_else(|| format!("too few jobs ({}) for a tail", out.latencies.len()))?;
        eprintln!(
            "perfbench: {name} {} operations ({} failed); tail = p{:.2} over {} samples ({} beyond)",
            out.attempted, out.failed, t.percentile, t.samples, t.beyond
        );
        let [rate, p50, tail] = out.measured;
        eprintln!(
            "perfbench: measured, uncorrected: jobs_per_s {rate:.4}, job_latency_p50_s {p50:.6}, \
             job_latency_tail_s {tail:.6}; the reference run took {:.2}x REFERENCE_S (median)",
            median(&out.references) / REFERENCE_S
        );
        if let Some(r) = out.recovery_s {
            eprintln!("perfbench: recovery_s {r:.6} (restart on a finished session's journal)");
        }
        let metrics = vec![
            ("setup_s".into(), metric(out.setup_s, "s")),
            ("jobs_per_s".into(), metric(out.jobs_per_s, "1/s")),
            ("job_latency_p50_s".into(), metric(out.p50_s, "s")),
            ("job_latency_tail_s".into(), metric(t.value, "s")),
            ("peak_rss_mb".into(), metric(out.peak_rss_mb, "MiB")),
        ];
        result_line(out.attempted, out.failed, metrics)
    };
    std::fs::remove_dir_all(&work).map_err(|e| e.to_string())?;
    Ok(line)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
