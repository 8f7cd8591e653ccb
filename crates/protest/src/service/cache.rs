//! Compiled-network cache for the job service, keyed by netlist hash,
//! with **validation on hit**: every `validate_every`-th hit recompiles
//! the source and compares behavioral fingerprints, evicting (and
//! replacing) the entry on mismatch. The fault-injection harness
//! ([`crate::chaos::FaultPlan::cache_poison`]) corrupts fingerprints at
//! insert time to prove the validation path actually catches rot.

#![deny(clippy::unwrap_used)]
// Durable path (dynlint zone: durable): a panic mid-append can
// fabricate a torn record the recovery logic then trusts, so even
// "impossible" unwraps are compiler-rejected in this module.
use crate::chaos::{mix64, FaultPlan};
use dynmos_netlist::generate::single_cell_network;
use dynmos_netlist::{parse_bench, parse_cell, Network, PackedEvaluator};
use std::sync::Arc;

/// Cache entries kept before the oldest is dropped (FIFO): the service
/// must stay bounded everywhere, including here.
const MAX_ENTRIES: usize = 64;

/// How a job request's netlist source is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetlistFormat {
    /// ISCAS-style `.bench` text ([`parse_bench`]).
    Bench,
    /// The paper's cell syntax ([`parse_cell`] +
    /// [`single_cell_network`]).
    Cell,
}

impl NetlistFormat {
    /// Parses a request's `format` field.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted spellings.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "bench" => Ok(NetlistFormat::Bench),
            "cell" => Ok(NetlistFormat::Cell),
            other => Err(format!("unknown netlist format {other:?} (bench|cell)")),
        }
    }

    fn tag(self) -> u8 {
        match self {
            NetlistFormat::Bench => b'b',
            NetlistFormat::Cell => b'c',
        }
    }
}

/// Cache traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled fresh.
    pub misses: u64,
    /// Recompile-and-compare validations performed on hits.
    pub validations: u64,
    /// Entries evicted because validation caught a fingerprint
    /// mismatch.
    pub evictions: u64,
}

struct Entry {
    key: u64,
    format: NetlistFormat,
    source: String,
    net: Arc<Network>,
    fingerprint: u64,
    hits: u64,
}

/// The compiled-network cache. Not thread-safe by itself — the engine
/// owns one and serializes access through its supervisor loop.
pub struct NetworkCache {
    entries: Vec<Entry>,
    validate_every: u64,
    stats: CacheStats,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = FNV_OFFSET;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The cache key: FNV-1a over the format tag and the raw source text.
fn source_key(format: NetlistFormat, source: &str) -> u64 {
    fnv(std::iter::once(format.tag()).chain(source.bytes().map(|b| b ^ 0x5a)))
}

/// A behavioral fingerprint of a compiled network: structural counts
/// plus every net value over four deterministic pseudo-random input
/// batches. Two compilations of the same source agree; a corrupted
/// compilation (or a poisoned cache entry) does not.
pub fn network_fingerprint(net: &Network) -> u64 {
    let mut h = fnv([
        net.primary_inputs().len() as u8,
        net.primary_outputs().len() as u8,
        (net.net_count() & 0xff) as u8,
        (net.net_count() >> 8) as u8,
    ]);
    let inputs = net.primary_inputs().len();
    let mut ev = PackedEvaluator::new(net);
    let mut batch = vec![0u64; inputs];
    for pass in 0..4u64 {
        for (i, word) in batch.iter_mut().enumerate() {
            *word = mix64(pass.wrapping_mul(0x1_0001).wrapping_add(i as u64));
        }
        ev.eval(&batch);
        for &v in ev.net_values() {
            for byte in v.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            }
        }
    }
    h
}

fn compile(format: NetlistFormat, source: &str) -> Result<Network, String> {
    match format {
        NetlistFormat::Bench => parse_bench(source).map_err(|e| e.to_string()),
        NetlistFormat::Cell => parse_cell("job", source)
            .map(single_cell_network)
            .map_err(|e| e.to_string()),
    }
}

impl NetworkCache {
    /// A cache validating every `validate_every`-th hit (0 disables
    /// validation).
    pub fn new(validate_every: u64) -> Self {
        Self {
            entries: Vec::new(),
            validate_every,
            stats: CacheStats::default(),
        }
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Entries currently cached.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns the compiled network for `source`, from cache when
    /// possible. On a sampled fraction of hits the entry is
    /// re-validated by recompiling and comparing fingerprints; a
    /// mismatch (e.g. an injected poisoned entry) evicts the entry and
    /// serves the fresh compilation instead. `plan` is the
    /// fault-injection hook that may poison the stored fingerprint at
    /// insert time.
    ///
    /// # Errors
    ///
    /// Returns the parser's message when the source does not compile.
    pub fn get_or_compile(
        &mut self,
        format: NetlistFormat,
        source: &str,
        plan: Option<&FaultPlan>,
    ) -> Result<Arc<Network>, String> {
        let key = source_key(format, source);
        if let Some(idx) = self
            .entries
            .iter()
            .position(|e| e.key == key && e.format == format && e.source == source)
        {
            self.stats.hits += 1;
            self.entries[idx].hits += 1;
            let due = self.validate_every > 0
                && self.entries[idx].hits.is_multiple_of(self.validate_every);
            if due {
                self.stats.validations += 1;
                let fresh = Arc::new(compile(format, source)?);
                let fresh_fp = network_fingerprint(&fresh);
                if fresh_fp != self.entries[idx].fingerprint {
                    // The stored entry disagrees with a fresh compile:
                    // evict it and serve (and store) the fresh network,
                    // with an honest fingerprint this time.
                    self.stats.evictions += 1;
                    self.entries[idx].net = fresh.clone();
                    self.entries[idx].fingerprint = fresh_fp;
                    self.entries[idx].hits = 0;
                    return Ok(fresh);
                }
            }
            return Ok(self.entries[idx].net.clone());
        }
        self.stats.misses += 1;
        let net = Arc::new(compile(format, source)?);
        let mut fingerprint = network_fingerprint(&net);
        if plan.is_some_and(|p| p.poison_cache(key)) {
            // Injected rot: the stored fingerprint no longer matches
            // what a recompilation produces, so a later validation-on-
            // hit must catch and evict this entry. The *network* stays
            // correct — only the integrity metadata is corrupted —
            // so results remain right even before detection.
            fingerprint ^= 0xDEAD_BEEF;
        }
        if self.entries.len() >= MAX_ENTRIES {
            self.entries.remove(0);
        }
        self.entries.push(Entry {
            key,
            format,
            source: source.to_owned(),
            net: net.clone(),
            fingerprint,
            hits: 0,
        });
        Ok(net)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dynmos_netlist::generate::ripple_adder_bench_text;

    const CELL: &str = "TECHNOLOGY domino-CMOS; INPUT a,b; OUTPUT z; z := a*b;";

    #[test]
    fn hit_and_miss_counters_track() {
        let mut cache = NetworkCache::new(0);
        let bench = ripple_adder_bench_text(4);
        let first = cache
            .get_or_compile(NetlistFormat::Bench, &bench, None)
            .unwrap();
        let second = cache
            .get_or_compile(NetlistFormat::Bench, &bench, None)
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hit must reuse the entry");
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn formats_do_not_collide() {
        let mut cache = NetworkCache::new(0);
        cache
            .get_or_compile(NetlistFormat::Cell, CELL, None)
            .unwrap();
        assert!(
            cache
                .get_or_compile(NetlistFormat::Bench, CELL, None)
                .is_err(),
            "cell text is not bench text; a format-blind cache would have served it"
        );
    }

    #[test]
    fn compile_errors_surface() {
        let mut cache = NetworkCache::new(0);
        let err = cache
            .get_or_compile(NetlistFormat::Cell, "INPUT ;;;", None)
            .expect_err("garbage must not compile");
        assert!(!err.is_empty());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 0, "failed compiles are not cached");
    }

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        let a1 = Arc::new(compile(NetlistFormat::Cell, CELL).unwrap());
        let a2 = Arc::new(compile(NetlistFormat::Cell, CELL).unwrap());
        assert_eq!(network_fingerprint(&a1), network_fingerprint(&a2));
        let other = compile(
            NetlistFormat::Cell,
            "TECHNOLOGY domino-CMOS; INPUT a,b; OUTPUT z; z := a+b;",
        )
        .unwrap();
        assert_ne!(network_fingerprint(&a1), network_fingerprint(&other));
    }

    #[test]
    fn poisoned_entry_is_caught_and_evicted_by_validation() {
        let mut cache = NetworkCache::new(2); // validate every 2nd hit
        let plan = FaultPlan::new(1).cache_poison(1.0);
        cache
            .get_or_compile(NetlistFormat::Cell, CELL, Some(&plan))
            .unwrap();
        // Hit 1: not due. Hit 2: validation catches the poisoned
        // fingerprint and evicts.
        cache
            .get_or_compile(NetlistFormat::Cell, CELL, None)
            .unwrap();
        assert_eq!(cache.stats().evictions, 0);
        cache
            .get_or_compile(NetlistFormat::Cell, CELL, None)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.validations, 1);
        assert_eq!(stats.evictions, 1);
        // The replacement entry is honest: the next validation passes.
        cache
            .get_or_compile(NetlistFormat::Cell, CELL, None)
            .unwrap();
        cache
            .get_or_compile(NetlistFormat::Cell, CELL, None)
            .unwrap();
        assert_eq!(cache.stats().validations, 2);
        assert_eq!(cache.stats().evictions, 1, "honest entry survives");
    }

    #[test]
    fn clean_entries_pass_validation() {
        let mut cache = NetworkCache::new(1); // validate every hit
        let bench = ripple_adder_bench_text(2);
        cache
            .get_or_compile(NetlistFormat::Bench, &bench, None)
            .unwrap();
        for _ in 0..3 {
            cache
                .get_or_compile(NetlistFormat::Bench, &bench, None)
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.validations, 3);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn cache_is_bounded() {
        let mut cache = NetworkCache::new(0);
        for bits in 1..=(MAX_ENTRIES + 5) {
            let bench = ripple_adder_bench_text(bits);
            cache
                .get_or_compile(NetlistFormat::Bench, &bench, None)
                .unwrap();
        }
        assert_eq!(cache.len(), MAX_ENTRIES);
    }
}
