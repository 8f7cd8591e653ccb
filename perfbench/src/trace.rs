//! In-memory spans and counters for the traced replay.
//!
//! A span records a layer, an operation, its start and end, the span
//! that encloses it, and the job it serves. Spans stay in memory and are
//! written out once, when the run ends. A disabled tracer records no
//! spans, so the untraced replay runs the same code without the
//! bookkeeping; counters are recorded either way.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (a repository module, e.g. `protest.fsim`).
    pub layer: &'static str,
    /// Operation within the layer.
    pub op: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job the span serves (0 = none).
    pub job: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span and counter recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer; `enabled = false` records counters only.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the job id later spans carry.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Runs `f` inside a span of `layer`/`op`; nested calls become
    /// child spans.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        op: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            op,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Renames the operation of the innermost open span (for spans
    /// whose outcome, e.g. cache hit or miss, is known only at the end).
    pub fn set_op(&mut self, op: &'static str) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx].op = op;
        }
    }

    /// Adds `delta` to counter `name`.
    pub fn count(&mut self, name: &'static str, delta: f64) {
        *self.counters.entry(name).or_insert(0.0) += delta;
    }

    /// Counter `name` (0 if never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds in spans of `layer`/`op` (`op = None`: any op).
    pub fn busy(&self, layer: &str, op: Option<&str>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && op.is_none_or(|o| s.op == o))
            .map(Span::seconds)
            .sum()
    }

    /// Number of spans of `layer`/`op`.
    pub fn calls(&self, layer: &str, op: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.op == op)
            .count()
    }

    /// Self time per layer: each span's duration minus the part its
    /// child spans cover, summed by layer.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.seconds();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            *out.entry(s.layer).or_insert(0.0) += (s.seconds() - c).max(0.0);
        }
        out
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}/{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.layer, s.op, s.start_ns, s.end_ns, s.job
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", "a", |t| {
            t.span("inner", "b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let selfs = t.self_times();
        assert!(selfs["outer"] < spans[0].seconds() - spans[1].seconds() + 1e-9);
        assert!((selfs["inner"] - spans[1].seconds()).abs() < 1e-12);
        let mut off = Tracer::new(false);
        off.span("outer", "a", |t| t.count("n", 2.0));
        assert!(off.spans().is_empty());
        assert_eq!(off.counter("n"), 2.0);
    }
}
