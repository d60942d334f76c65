//! Benchmark-side spans around calls into the program's layers.
//!
//! The program's own recorder stays at `Recorder::off()` in every run;
//! layer attribution comes from these spans instead, recorded by the
//! benchmark around each public call it makes. A span has a name (the
//! layer, e.g. `serde_json.decode`), a start and end on one monotonic
//! clock, the span that caused it and the operation it belongs to. Spans
//! are kept in memory and written out once, when the run ends.
//!
//! A layer's self time is its spans' durations minus the parts covered by
//! their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or operation name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to (0 for set-up and probes).
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of self times (duration minus child spans), nanoseconds.
    pub self_ns: u64,
}

/// In-memory span recorder. A disabled tracer runs the wrapped calls and
/// records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tag the spans that follow with operation id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span called `name`. Spans opened by `f` through
    /// the tracer it receives become children of this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let start = self.now_ns();
        self.spans[idx].start_ns = start;
        let out = f(self);
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        self.open.pop();
        out
    }

    /// Add `n` to the counter `name` (recorded only when tracing).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// A counter's value (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        self.totals_where(|_| true)
    }

    /// [`Tracer::totals`] over the spans `keep` selects.
    pub fn totals_where(
        &self,
        keep: impl Fn(&Span) -> bool,
    ) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            if !keep(s) {
                continue;
            }
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child);
        }
        out
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    /// Filesystem failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut body = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                body,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        std::fs::write(path, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(micros: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        t.set_op(7);
        t.span("op", |t| {
            busy(200);
            t.span("child", |_| busy(300));
        });
        let tot = t.totals();
        let op = tot["op"];
        let child = tot["child"];
        assert_eq!(op.calls, 1);
        assert_eq!(op.total_ns, op.self_ns + child.total_ns);
        assert!(t.spans().iter().all(|s| s.op == 7));
        assert_eq!(t.spans()[1].parent, Some(0));
        let timed = t.totals_where(|s| s.op == 7);
        assert_eq!(timed, tot);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("op", |t| t.span("child", |_| 5));
        t.count("bytes", 3);
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("bytes"), 0);
    }
}
