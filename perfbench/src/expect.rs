//! The reference side of the output checks: each job's `result`,
//! recomputed by a direct, serial, in-process call of the kernel's
//! public function on the same generated inputs.

use dynmos::netlist::generate::single_cell_network;
use dynmos::netlist::{parse_bench, parse_cell, Network};
use dynmos::protest::service::jobs::{param_probs, param_u64, DEFAULT_SEED};
use dynmos::protest::{
    detection_probability_estimates, mc_detection_probabilities_budgeted, network_fault_list,
    stuck_fault_list, tier_census, DetectionEngine, DetectionEstimate, FaultEntry, FaultSimulator,
    Json, Parallelism, PatternSource, RunBudget, TestabilityConfig, TierMode,
};

/// Default pattern/sample count of `fsim` and `mc-detect` requests.
const DEFAULT_WORK: u64 = 10_000;

/// Parses a request's netlist the way the service does.
///
/// # Errors
///
/// Returns the parser's message.
pub(crate) fn compile(format: &str, source: &str) -> Result<Network, String> {
    match format {
        "bench" => parse_bench(source).map_err(|e| e.to_string()),
        "cell" => parse_cell("job", source)
            .map(single_cell_network)
            .map_err(|e| e.to_string()),
        other => Err(format!("unknown format {other:?}")),
    }
}

/// The fault list the service derives for a netlist format.
pub(crate) fn faults_for(format: &str, net: &Network) -> Vec<FaultEntry> {
    match format {
        "bench" => stuck_fault_list(net),
        _ => network_fault_list(net),
    }
}

/// The service's JSON shape of one detection estimate.
pub(crate) fn estimate_json(e: &DetectionEstimate) -> Json {
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

/// The testability configuration a request asks for.
///
/// # Errors
///
/// Returns a message for an unknown `mode`.
pub(crate) fn testability_config(params: &Json) -> Result<TestabilityConfig, String> {
    let mut config =
        TestabilityConfig::new(TierMode::Auto).with_seed(param_u64(params, "seed", DEFAULT_SEED));
    if let Some(token) = params.get("mode").and_then(Json::as_str) {
        config = config.with_mode(TierMode::parse(token)?);
    }
    if let Some(nodes) = params.get("node_budget").and_then(Json::as_u64) {
        config = config.with_node_budget(nodes as usize);
    }
    if let Some(samples) = params.get("tighten_samples").and_then(Json::as_u64) {
        config = config.with_mc_tighten_samples(samples);
    }
    Ok(config)
}

/// The `testability` result for finished estimates.
pub(crate) fn testability_result(estimates: &[DetectionEstimate], complete: bool) -> Json {
    Json::Obj(vec![
        ("kind".into(), Json::str("testability")),
        (
            "estimates".into(),
            Json::Arr(estimates.iter().map(estimate_json).collect()),
        ),
        (
            "tiers".into(),
            Json::str(tier_census(estimates.iter().map(|e| &e.method))),
        ),
        ("complete".into(), Json::Bool(complete)),
    ])
}

/// Whether a `testability` result's tier census (`exact:a,bdd:b,...`)
/// counts faults served by BDD and faults served by cutting.
pub(crate) fn serves_bdd_and_cutting(result: &Json) -> bool {
    let census = result.get("tiers").and_then(Json::as_str).unwrap_or("");
    let count = |tier: &str| {
        census
            .split(',')
            .find_map(|part| part.strip_prefix(tier)?.strip_prefix(':'))
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or(0)
    };
    count("bdd") > 0 && count("cutting") > 0
}

/// Recomputes the `result` of an `fsim`, `mc-detect`, `detect` or
/// `testability` request serially in process; `Ok(None)` for kinds
/// checked by repetition only.
///
/// # Errors
///
/// Returns a message when the request's parameters are invalid.
pub(crate) fn expected_result(
    net: &Network,
    faults: &[FaultEntry],
    request: &Json,
) -> Result<Option<Json>, String> {
    let kind = request.get("kind").and_then(Json::as_str).unwrap_or("");
    let n = net.primary_inputs().len();
    let seed = param_u64(request, "seed", DEFAULT_SEED);
    let unlimited = RunBudget::unlimited();
    let result = match kind {
        "fsim" => {
            let mut src = PatternSource::new(seed, param_probs(request, n, 0.5)?);
            let patterns = param_u64(request, "patterns", DEFAULT_WORK);
            let run = FaultSimulator::with_parallelism(net, Parallelism::Serial)
                .run_random_budgeted(faults, &mut src, patterns, &unlimited);
            fsim_result(&run.outcome, run.status.is_complete())
        }
        "mc-detect" => {
            let run = mc_detection_probabilities_budgeted(
                net,
                faults,
                &param_probs(request, n, 0.5)?,
                seed,
                param_u64(request, "samples", DEFAULT_WORK).max(1),
                Parallelism::Serial,
                &unlimited,
            );
            let estimates = run
                .estimates
                .iter()
                .map(|e| {
                    Json::Obj(vec![
                        ("value".into(), Json::Num(e.value)),
                        ("half_width".into(), Json::Num(e.half_width)),
                        ("samples".into(), Json::num(e.samples)),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("kind".into(), Json::str("mc-detect")),
                ("estimates".into(), Json::Arr(estimates)),
                ("complete".into(), Json::Bool(run.status.is_complete())),
            ])
        }
        "detect" => {
            let mut budget = RunBudget::unlimited();
            budget.max_exact_rows = request.get("max_exact_rows").and_then(Json::as_u64);
            let est = detection_probability_estimates(
                net,
                faults,
                &param_probs(request, n, 0.5)?,
                seed,
                Parallelism::Serial,
                &budget,
            )
            .map_err(|r| format!("detect interrupted: {r}"))?;
            Json::Obj(vec![
                ("kind".into(), Json::str("detect")),
                (
                    "estimates".into(),
                    Json::Arr(est.iter().map(estimate_json).collect()),
                ),
                ("complete".into(), Json::Bool(true)),
            ])
        }
        "testability" => {
            let mut engine = DetectionEngine::new(net, faults, testability_config(request)?)
                .with_parallelism(Parallelism::Serial);
            let est = engine
                .estimates(&param_probs(request, n, 0.5)?, &unlimited)
                .map_err(|r| format!("testability interrupted: {r}"))?;
            testability_result(&est, true)
        }
        _ => return Ok(None),
    };
    Ok(Some(result))
}

/// The service's `fsim` result shape.
fn fsim_result(out: &dynmos::protest::FsimOutcome, complete: bool) -> Json {
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

/// The raw `result` text of a serve record line: the record's last
/// member, so its bytes are exactly what the program printed.
pub(crate) fn raw_result(record_line: &str) -> Option<&str> {
    let at = record_line.find(",\"result\":")?;
    let body = &record_line[at + ",\"result\":".len()..];
    body.strip_suffix('}')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_tiers_need_bdd_and_cutting_faults() {
        let result = |census: &str| Json::Obj(vec![("tiers".into(), Json::str(census))]);
        assert!(serves_bdd_and_cutting(&result(
            "exact:0,bdd:64,cutting:162,mc:0"
        )));
        assert!(!serves_bdd_and_cutting(&result(
            "exact:0,bdd:0,cutting:226,mc:0"
        )));
        assert!(!serves_bdd_and_cutting(&result(
            "exact:0,bdd:226,cutting:0,mc:0"
        )));
        assert!(!serves_bdd_and_cutting(&Json::Obj(Vec::new())));
    }
}
