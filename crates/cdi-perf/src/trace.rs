//! The harness's own span recorder.
//!
//! Spans are recorded from outside the system under test, around calls
//! into each layer's public functions; nothing in the measured crates is
//! instrumented. A span carries its name (`<layer>.<call>`), start, end,
//! the span that caused it, a request id (tick or repetition index), and
//! the allocations counted while it was open. Spans stay in memory until
//! [`Tracer::write`] dumps them when the run ends.
//!
//! A disabled tracer runs the closure and records nothing, so the same
//! staged code gives the untraced wall time that `trace_overhead_ratio`
//! is measured against.

use std::time::Instant;

use serde::Serialize;

use crate::alloc;

/// One recorded span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Tick or repetition index shared by the spans of one request.
    pub req: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Allocations the recording thread made while the span was open.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Spans a recording tracer has room for before it must grow (a full run
/// records under 100 000; untouched capacity costs no memory).
const SPAN_CAPACITY: usize = 1 << 18;

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or only forwards (`!on`).
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            // Room for every span of a run up front: growing the vector
            // inside an open span would count the tracer's own allocation
            // against it.
            spans: Vec::with_capacity(if on { SPAN_CAPACITY } else { 0 }),
            open: Vec::with_capacity(8),
        }
    }

    /// Run `f` inside a span named `name` for request `req`.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        if parent.is_none() {
            alloc::enter();
        }
        let (a0, b0) = alloc::counts();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns: start_ns,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let (a1, b1) = alloc::counts();
        if parent.is_none() {
            alloc::leave();
        }
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = a1 - a0;
        span.alloc_bytes = b1 - b0;
        out
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total seconds inside spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    /// Each `name` span's duration in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::secs).collect()
    }

    /// Self time of spans called `name`: their duration minus the part
    /// their direct children cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent.is_some_and(|p| self.spans[p].name == name))
            .map(Span::secs)
            .sum();
        self.total_s(name) - children
    }

    /// `(allocations, bytes)` summed over spans called `name`.
    pub fn allocs(&self, name: &str) -> (u64, u64) {
        self.named(name)
            .fold((0, 0), |(a, b), s| (a + s.allocs, b + s.alloc_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::new(true);
        t.span("outer.call", 7, |t| {
            t.span("inner.call", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 7);
        assert!(t.total_s("outer.call") >= t.total_s("inner.call"));
        assert!(t.self_s("outer.call") < t.total_s("inner.call"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a.b", 0, |_| 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn allocations_are_counted_only_inside_spans() {
        let mut t = Tracer::new(true);
        let v = t.span("a.alloc", 0, |_| vec![0u8; 4096]);
        let (allocs, bytes) = t.allocs("a.alloc");
        assert!(allocs >= 1 && bytes >= 4096, "{allocs} {bytes}");
        drop(v);
    }
}
