//! PODEM as a supervised job: adapts [`generate_test_set_budgeted`] to
//! the `dynmos_protest::service` [`JobKernel`] contract, so the job
//! engine supervises deterministic ATPG with the same
//! retry/timeout/checkpoint machinery as the probabilistic kernels.
//!
//! The kernel commits its [`AtpgCheckpoint`] only on leg return, and
//! the fault walk is deterministic, so a run killed and resumed any
//! number of times produces the same test set as an uninterrupted one.

use crate::podem::{generate_test_set_budgeted, AtpgCheckpoint, TestSetReport};
use dynmos_netlist::Network;
use dynmos_protest::budget::RunBudget;
use dynmos_protest::list::FaultEntry;
use dynmos_protest::parallel::Parallelism;
use dynmos_protest::service::jobs::param_u64;
use dynmos_protest::service::{
    Checkpointed, JobContext, JobEngine, JobKernel, Json, Leg, Resumable,
};
use std::sync::Arc;

/// Default PODEM backtrack budget when the request omits
/// `max_backtracks`.
const DEFAULT_BACKTRACKS: u64 = 50;

/// A PODEM whole-list run as a [`Resumable`] kernel.
pub struct Atpg {
    net: Arc<Network>,
    faults: Vec<FaultEntry>,
    parallelism: Parallelism,
    max_backtracks: u64,
}

/// A supervised PODEM whole-list run.
pub type AtpgJob = Checkpointed<Atpg>;

impl Resumable for Atpg {
    type Checkpoint = AtpgCheckpoint;
    type Outcome = TestSetReport;
    const TO_JSON: fn(&AtpgCheckpoint) -> Json = AtpgCheckpoint::to_json;
    const FROM_JSON: fn(&Json) -> Result<AtpgCheckpoint, String> = AtpgCheckpoint::from_json;

    /// Request: `max_backtracks`.
    fn from_request(ctx: JobContext<'_>) -> Result<Self, String> {
        Ok(Self {
            max_backtracks: param_u64(ctx.params, "max_backtracks", DEFAULT_BACKTRACKS),
            net: ctx.net,
            faults: ctx.faults,
            parallelism: ctx.parallelism,
        })
    }

    fn leg(
        &self,
        from: Option<AtpgCheckpoint>,
        budget: &RunBudget,
    ) -> Leg<AtpgCheckpoint, TestSetReport> {
        let run = generate_test_set_budgeted(
            &self.net,
            &self.faults,
            self.max_backtracks,
            self.parallelism,
            budget,
            from,
        );
        Leg {
            status: run.status,
            checkpoint: run.checkpoint,
            outcome: run.report,
            error: None,
        }
    }

    fn output(&self, report: Option<&TestSetReport>, complete: bool) -> Json {
        let mut members = vec![("kind".into(), Json::str("atpg"))];
        if let Some(r) = report {
            members.push((
                "tests".into(),
                Json::Arr(
                    r.tests
                        .iter()
                        .map(|t| {
                            Json::str(
                                t.iter()
                                    .map(|&b| if b { '1' } else { '0' })
                                    .collect::<String>(),
                            )
                        })
                        .collect(),
                ),
            ));
            members.push(("test_count".into(), Json::num(r.tests.len() as u64)));
            members.push((
                "redundant".into(),
                Json::Arr(r.redundant.iter().map(|s| Json::str(s.clone())).collect()),
            ));
            members.push((
                "aborted".into(),
                Json::Arr(r.aborted.iter().map(|s| Json::str(s.clone())).collect()),
            ));
        }
        members.push(("complete".into(), Json::Bool(complete)));
        Json::Obj(members)
    }
}

/// Registers the `atpg` job kind on an engine. The engine crate cannot
/// depend on this one (the dependency points the other way), so the
/// registration is explicit.
pub fn register_atpg(engine: &mut JobEngine) {
    engine.register_kind("atpg", |ctx| {
        AtpgJob::from_request(ctx).map(|k| Box::new(k) as Box<dyn JobKernel>)
    });
}
