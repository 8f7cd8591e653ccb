//! Deterministic fault injection for the job service and the sharded
//! kernels — the harness that proves the robustness layer instead of
//! trusting it.
//!
//! A [`FaultPlan`] describes *where* and *how often* artificial faults
//! fire. Every injection point ("site") draws a decision from a pure
//! hash of `(plan seed, site identity, probe counter)` — no RNG state,
//! no wall clock — so a plan replays the identical fault schedule on
//! every run with the same probe sequence. Sites:
//!
//! - **worker shards** (`FaultPlan::worker_fault`, probed by
//!   [`crate::parallel::try_run_sharded`] before spawning each shard):
//!   a transient panic dies on the threaded attempt only and is healed
//!   by the serial retry (bit-identical results — the whole test suite
//!   runs green under `DYNMOS_FAULT_PLAN=panic:0.05`), while a
//!   *persistent* panic also kills the retry and surfaces
//!   [`ShardError`](crate::parallel::ShardError) /
//!   [`crate::StopReason::WorkerFailed`];
//! - **service legs** (`FaultPlan::leg_fault`, probed by the
//!   [`crate::service`] supervisor before each leg): kill the leg
//!   (simulated worker death → retry with backoff from the last
//!   checkpoint), expire its deadline artificially, or delay it;
//! - **cache inserts** (`FaultPlan::poison_cache`): corrupt the
//!   compiled-network fingerprint so validation-on-hit must catch and
//!   evict the entry;
//! - **journal appends** (`FaultPlan::crash_fault`, probed by
//!   [`crate::service::Journal`] around each write-ahead record):
//!   abort the whole process — before the write, mid-write (leaving a
//!   torn final line the recovery path must tolerate), or after it —
//!   the `kill -9` simulation that proves crash-durable recovery.
//!
//! Plans come from three places, in precedence order: a thread-local
//! scope ([`scoped`], what deterministic tests use), the
//! `DYNMOS_FAULT_PLAN` environment variable (the CI knob — parsed once,
//! a typo panics loudly like the other `DYNMOS_*` knobs), or nothing.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// SplitMix64 finalizer: a high-quality 64-bit mixing function, used
/// here to turn `(seed, site, probe)` into injection decisions.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a shard-worker site was told to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Panic on the threaded attempt only; the serial retry runs the
    /// real worker. Always healed — results stay bit-identical.
    PanicOnce,
    /// Panic on the threaded attempt *and* the serial retry: surfaces
    /// [`ShardError`](crate::parallel::ShardError) through
    /// [`try_run_sharded`](crate::parallel::try_run_sharded).
    PanicPersistent,
}

/// Where, relative to one journal append, an injected process crash
/// fires. All three abort the process without unwinding (the moral
/// equivalent of `kill -9`), differing only in what the write-ahead
/// journal has durably committed when the process dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Abort before any byte of the record is written: the record is
    /// lost whole, the journal stays well-formed.
    BeforeWrite,
    /// Abort after writing (and syncing) a strict prefix of the record
    /// line: recovery must tolerate the torn final line.
    TornWrite,
    /// Abort after the record is fully written and synced: the record
    /// survives, everything in memory dies.
    AfterWrite,
}

/// What a service-leg site was told to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LegFault {
    /// Kill the leg before the kernel runs (a simulated worker death);
    /// the supervisor retries with backoff from the last checkpoint.
    Kill,
    /// Replace the leg's deadline with one that has already passed;
    /// forward progress still completes one chunk.
    Expire,
    /// Sleep this long before running the leg.
    Delay(Duration),
}

/// A deterministic fault-injection plan. All rates default to zero
/// ([`FaultPlan::new`] injects nothing); builders switch individual
/// faults on. Decisions are pure functions of the plan seed, the site
/// identity, and a global probe counter, so a plan's schedule is
/// reproducible probe-for-probe.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Probes before the plan arms (lets tests run a clean prefix).
    after: u64,
    worker_panic: f64,
    worker_panic_persistent: f64,
    leg_kill: f64,
    leg_expire: f64,
    leg_delay: f64,
    delay: Duration,
    cache_poison: f64,
    crash: f64,
    /// Deterministic leg-kill schedule: kill exactly these leg indices
    /// of every job (builder-only, for differential tests).
    kill_legs: Vec<u32>,
    probes: AtomicU64,
}

impl FaultPlan {
    /// An inert plan (all rates zero) with this decision seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            after: 0,
            worker_panic: 0.0,
            worker_panic_persistent: 0.0,
            leg_kill: 0.0,
            leg_expire: 0.0,
            leg_delay: 0.0,
            delay: Duration::from_millis(1),
            cache_poison: 0.0,
            crash: 0.0,
            kill_legs: Vec::new(),
            probes: AtomicU64::new(0),
        }
    }

    /// Transient worker panics (threaded attempt only) at this rate.
    pub fn worker_panic(mut self, rate: f64) -> Self {
        self.worker_panic = rate;
        self
    }

    /// Persistent worker panics (threaded attempt + serial retry) at
    /// this rate.
    pub fn worker_panic_persistent(mut self, rate: f64) -> Self {
        self.worker_panic_persistent = rate;
        self
    }

    /// Service-leg kills at this rate.
    pub fn leg_kill(mut self, rate: f64) -> Self {
        self.leg_kill = rate;
        self
    }

    /// Artificial leg-deadline expiry at this rate.
    pub fn leg_expire(mut self, rate: f64) -> Self {
        self.leg_expire = rate;
        self
    }

    /// Leg delays of `delay` at this rate.
    pub fn leg_delay(mut self, rate: f64, delay: Duration) -> Self {
        self.leg_delay = rate;
        self.delay = delay;
        self
    }

    /// Cache-fingerprint poisoning at insert time at this rate.
    pub fn cache_poison(mut self, rate: f64) -> Self {
        self.cache_poison = rate;
        self
    }

    /// Process crashes (`process::abort()`, no unwinding) at journal
    /// append sites at this rate. The firing draw also picks the
    /// [`CrashPoint`] — before, mid (torn line), or after the write —
    /// with equal weight.
    pub fn crash(mut self, rate: f64) -> Self {
        self.crash = rate;
        self
    }

    /// Kill exactly these leg indices of every job (deterministic,
    /// thread-count independent — the schedule differential tests use).
    pub fn kill_at(mut self, legs: &[u32]) -> Self {
        self.kill_legs = legs.to_vec();
        self
    }

    /// Ignore the first `n` probes (a clean warm-up prefix).
    pub fn armed_after(mut self, n: u64) -> Self {
        self.after = n;
        self
    }

    /// `true` when the plan can never inject anything.
    pub fn is_inert(&self) -> bool {
        self.worker_panic <= 0.0
            && self.worker_panic_persistent <= 0.0
            && self.leg_kill <= 0.0
            && self.leg_expire <= 0.0
            && self.leg_delay <= 0.0
            && self.cache_poison <= 0.0
            && self.crash <= 0.0
            && self.kill_legs.is_empty()
    }

    /// One uniform draw in `[0, 1)` for a site, advancing the probe
    /// counter; `None` while the plan is not yet armed.
    fn roll(&self, salt: u64, id: u64) -> Option<f64> {
        let nonce = self.probes.fetch_add(1, Ordering::Relaxed);
        if nonce < self.after {
            return None;
        }
        let h = mix64(self.seed ^ salt ^ mix64(nonce.wrapping_add(1)) ^ mix64(id));
        Some((h >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Decision for one shard-worker spawn. Persistent beats transient
    /// when both rates fire so the rarer fault is never masked.
    pub(crate) fn worker_fault(&self, shard: usize) -> Option<WorkerFault> {
        let u = self.roll(0x0057_4841_5244_u64, shard as u64)?;
        if u < self.worker_panic_persistent {
            Some(WorkerFault::PanicPersistent)
        } else if u < self.worker_panic_persistent + self.worker_panic {
            Some(WorkerFault::PanicOnce)
        } else {
            None
        }
    }

    /// Decision for one supervised service leg (`leg` is the job's
    /// 0-based leg index). Priority: deterministic kill schedule, then
    /// kill > expire > delay from one draw.
    pub(crate) fn leg_fault(&self, job: u64, leg: u32) -> Option<LegFault> {
        if self.kill_legs.contains(&leg) {
            return Some(LegFault::Kill);
        }
        let u = self.roll(
            0x004C_4547_u64,
            job.wrapping_mul(0x1_0000).wrapping_add(u64::from(leg)),
        )?;
        if u < self.leg_kill {
            Some(LegFault::Kill)
        } else if u < self.leg_kill + self.leg_expire {
            Some(LegFault::Expire)
        } else if u < self.leg_kill + self.leg_expire + self.leg_delay {
            Some(LegFault::Delay(self.delay))
        } else {
            None
        }
    }

    /// Decision for one cache insert keyed by the netlist hash.
    pub(crate) fn poison_cache(&self, key: u64) -> bool {
        self.roll(0x504F_4953_4F4Eu64, key)
            .is_some_and(|u| u < self.cache_poison)
    }

    /// Decision for one journal append. `site` is the append's identity
    /// — the journal mixes its recovery generation into it, so a
    /// restarted process replays a *different* crash schedule and a
    /// crash-at-every-append plan cannot livelock recovery. A firing
    /// draw is subdivided into thirds to pick the [`CrashPoint`].
    pub(crate) fn crash_fault(&self, site: u64) -> Option<CrashPoint> {
        let u = self.roll(0x0043_5241_5348_u64, site)?;
        if u >= self.crash {
            return None;
        }
        let third = self.crash / 3.0;
        Some(if u < third {
            CrashPoint::BeforeWrite
        } else if u < 2.0 * third {
            CrashPoint::TornWrite
        } else {
            CrashPoint::AfterWrite
        })
    }

    /// Parses a `DYNMOS_FAULT_PLAN` spec: comma-separated `key:value`
    /// pairs, e.g. `panic:0.05,expire:0.05,seed:7`. Keys: `panic`,
    /// `panic2` (persistent), `kill`, `expire`, `delay`, `poison`,
    /// `crash` (rates in `[0, 1]`); `delay_ms`, `seed`, `after`
    /// (integers).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending pair on unknown keys,
    /// unparsable values, or out-of-range rates.
    pub(crate) fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0x000C_4A05);
        for pair in spec.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once(':')
                .ok_or_else(|| format!("fault-plan entry {pair:?} is not key:value"))?;
            let rate = || -> Result<f64, String> {
                let r: f64 = value.trim().parse().map_err(|_| {
                    format!("fault-plan rate {value:?} for {key:?} is not a number")
                })?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("fault-plan rate {r} for {key:?} outside [0, 1]"));
                }
                Ok(r)
            };
            let int = || -> Result<u64, String> {
                value.trim().parse().map_err(|_| {
                    format!("fault-plan value {value:?} for {key:?} is not an integer")
                })
            };
            match key.trim() {
                "panic" => plan.worker_panic = rate()?,
                "panic2" => plan.worker_panic_persistent = rate()?,
                "kill" => plan.leg_kill = rate()?,
                "expire" => plan.leg_expire = rate()?,
                "delay" => plan.leg_delay = rate()?,
                "poison" => plan.cache_poison = rate()?,
                "crash" => plan.crash = rate()?,
                "delay_ms" => plan.delay = Duration::from_millis(int()?),
                "seed" => plan.seed = int()?,
                "after" => plan.after = int()?,
                other => return Err(format!("unknown fault-plan key {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// Interprets a raw `DYNMOS_FAULT_PLAN` value. Unset, empty, or
/// whitespace-only means "no plan" (`None`).
///
/// # Panics
///
/// Panics on an unparsable spec: a typo in the CI fault-injection knob
/// must fail loudly, not silently run without injection.
pub(crate) fn parse_fault_plan_override(raw: Option<&str>) -> Option<FaultPlan> {
    let trimmed = raw?.trim();
    if trimmed.is_empty() {
        return None;
    }
    match FaultPlan::parse(trimmed) {
        Ok(plan) => Some(plan),
        Err(e) => panic!("DYNMOS_FAULT_PLAN invalid: {e}"),
    }
}

/// The process-wide `DYNMOS_FAULT_PLAN` plan, parsed once.
///
/// # Panics
///
/// Panics (on first use) when the variable is set but unparsable.
pub fn env_fault_plan() -> Option<Arc<FaultPlan>> {
    static ENV_PLAN: OnceLock<Option<Arc<FaultPlan>>> = OnceLock::new();
    ENV_PLAN
        .get_or_init(|| {
            parse_fault_plan_override(crate::env_contract::raw("DYNMOS_FAULT_PLAN").as_deref())
                .map(Arc::new)
        })
        .clone()
}

thread_local! {
    static SCOPED: RefCell<Vec<Arc<FaultPlan>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `plan` as this thread's active fault plan, shadowing
/// the `DYNMOS_FAULT_PLAN` plan (pass an inert [`FaultPlan::new`] to
/// locally disable env injection, e.g. in tests that count panics).
/// Probes happen on the thread that *plans* work (the shard spawner,
/// the service supervisor), so a thread-local scope covers the sharded
/// kernels it calls.
pub fn scoped<R>(plan: Arc<FaultPlan>, f: impl FnOnce() -> R) -> R {
    SCOPED.with(|s| s.borrow_mut().push(plan));
    // Pop even on unwind so a panicking scope cannot leak its plan
    // into unrelated code on this thread.
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            SCOPED.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    let _pop = Pop;
    f()
}

/// The active fault plan for this thread: the innermost [`scoped`]
/// plan, else the `DYNMOS_FAULT_PLAN` plan, else `None`.
pub(crate) fn current() -> Option<Arc<FaultPlan>> {
    if let Some(p) = SCOPED.with(|s| s.borrow().last().cloned()) {
        return Some(p);
    }
    env_fault_plan()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires() {
        let p = FaultPlan::new(1);
        assert!(p.is_inert());
        for i in 0..100 {
            assert_eq!(p.worker_fault(i), None);
            assert_eq!(p.leg_fault(i as u64, 0), None);
            assert!(!p.poison_cache(i as u64));
        }
    }

    #[test]
    fn full_rate_always_fires() {
        let p = FaultPlan::new(2).worker_panic(1.0);
        for i in 0..50 {
            assert_eq!(p.worker_fault(i), Some(WorkerFault::PanicOnce));
        }
        let p = FaultPlan::new(2).worker_panic_persistent(1.0);
        assert_eq!(p.worker_fault(0), Some(WorkerFault::PanicPersistent));
        let p = FaultPlan::new(2).cache_poison(1.0);
        assert!(p.poison_cache(99));
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = FaultPlan::new(3).leg_kill(0.3);
        let fired = (0..10_000)
            .filter(|&i| p.leg_fault(i, 0) == Some(LegFault::Kill))
            .count();
        assert!((2_500..3_500).contains(&fired), "{fired} of 10000");
    }

    #[test]
    fn armed_after_skips_a_clean_prefix() {
        let p = FaultPlan::new(4).worker_panic(1.0).armed_after(10);
        let decisions: Vec<_> = (0..20).map(|i| p.worker_fault(i)).collect();
        assert!(decisions[..10].iter().all(Option::is_none));
        assert!(decisions[10..].iter().all(Option::is_some));
    }

    #[test]
    fn kill_schedule_is_deterministic() {
        let p = FaultPlan::new(5).kill_at(&[1, 3]);
        for job in [1u64, 7] {
            assert_eq!(p.leg_fault(job, 0), None);
            assert_eq!(p.leg_fault(job, 1), Some(LegFault::Kill));
            assert_eq!(p.leg_fault(job, 2), None);
            assert_eq!(p.leg_fault(job, 3), Some(LegFault::Kill));
        }
    }

    #[test]
    fn crash_decisions_cover_all_points_and_honor_rate() {
        let p = FaultPlan::new(6).crash(1.0);
        let mut seen = [false; 3];
        for site in 0..200 {
            match p.crash_fault(site) {
                Some(CrashPoint::BeforeWrite) => seen[0] = true,
                Some(CrashPoint::TornWrite) => seen[1] = true,
                Some(CrashPoint::AfterWrite) => seen[2] = true,
                None => panic!("rate 1.0 must always fire"),
            }
        }
        assert!(seen.iter().all(|&s| s), "all crash points drawn: {seen:?}");
        let p = FaultPlan::new(7).crash(0.3);
        let fired = (0..10_000).filter(|&s| p.crash_fault(s).is_some()).count();
        assert!((2_500..3_500).contains(&fired), "{fired} of 10000");
        assert!(FaultPlan::new(8).crash(0.0).crash_fault(0).is_none());
        assert!(!FaultPlan::new(9).crash(0.1).is_inert());
    }

    #[test]
    fn crash_schedule_varies_with_site_generation() {
        // Mixing a different generation into the site id must change
        // the schedule: recovery depends on this to escape a crash that
        // fires at the first append of a restarted process.
        let schedule = |generation: u64| -> Vec<bool> {
            let p = FaultPlan::new(10).crash(0.5);
            (0..64)
                .map(|i| p.crash_fault(generation << 32 | i).is_some())
                .collect()
        };
        assert_ne!(schedule(1), schedule(2));
    }

    #[test]
    fn spec_parses() {
        let p = FaultPlan::parse("panic:0.05, expire:0.1, crash:0.03, seed:42, after:3").unwrap();
        assert_eq!(p.worker_panic, 0.05);
        assert_eq!(p.leg_expire, 0.1);
        assert_eq!(p.crash, 0.03);
        assert_eq!(p.seed, 42);
        assert_eq!(p.after, 3);
        assert!(FaultPlan::parse("").unwrap().is_inert());
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("warp:0.5").is_err());
        assert!(FaultPlan::parse("panic:lots").is_err());
        assert!(FaultPlan::parse("panic:1.5").is_err());
        assert!(FaultPlan::parse("seed:abc").is_err());
    }

    // The env override is tested as a pure function: mutating the
    // process-global DYNMOS_FAULT_PLAN here would race other tests.
    #[test]
    fn env_override_parses_values() {
        assert!(parse_fault_plan_override(None).is_none());
        assert!(parse_fault_plan_override(Some("")).is_none());
        assert!(parse_fault_plan_override(Some("  ")).is_none());
        let p = parse_fault_plan_override(Some("panic:0.05")).unwrap();
        assert_eq!(p.worker_panic, 0.05);
    }

    #[test]
    #[should_panic(expected = "DYNMOS_FAULT_PLAN invalid")]
    fn env_override_garbage_panics() {
        parse_fault_plan_override(Some("panic=0.05"));
    }

    #[test]
    fn scoped_plan_shadows_and_restores() {
        let inert = Arc::new(FaultPlan::new(0));
        let hot = Arc::new(FaultPlan::new(1).worker_panic(1.0));
        scoped(inert.clone(), || {
            assert!(current().unwrap().is_inert());
            scoped(hot, || {
                assert!(!current().unwrap().is_inert());
            });
            assert!(current().unwrap().is_inert());
        });
    }

    #[test]
    fn scoped_plan_is_popped_on_unwind() {
        let hot = Arc::new(FaultPlan::new(1).worker_panic(1.0));
        let _ = std::panic::catch_unwind(|| {
            scoped(hot, || panic!("boom"));
        });
        assert!(SCOPED.with(|s| s.borrow().is_empty()));
    }
}
