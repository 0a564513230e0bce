//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing here reaches into the program: a span is opened
//! before a public call and closed after it returns.
//!
//! A disabled tracer records nothing and reads no clock, so the untraced
//! legs measure the program alone; the traced legs pay one clock read
//! and one short mutex push per span, which the run reports as the
//! tracing overhead.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// Request id shared by the spans of one served request; 0 elsewhere.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Open span; closes (and records) on drop.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl Guard<'_> {
    /// Id to pass as the parent of spans this one causes (0 when off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.tracer
                .record(self.name, self.id, self.parent, 0, start, Instant::now());
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Fresh span id (also used as a request id).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Open a span under `parent` (0 = root).
    pub fn span(&self, name: &'static str, parent: u64) -> Guard<'_> {
        if !self.enabled() {
            return Guard {
                tracer: self,
                id: 0,
                parent,
                name,
                start: None,
            };
        }
        Guard {
            tracer: self,
            id: self.next_id(),
            parent,
            name,
            start: Some(Instant::now()),
        }
    }

    /// Record a span whose bounds were taken elsewhere (a served request
    /// timed by the load generator). A no-op when disabled.
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled() {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            req,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        };
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .clone()
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub calls: u64,
    /// Sum of span durations.
    pub total_s: f64,
    /// Sum of self times: duration minus the union of child spans.
    pub self_s: f64,
}

/// Self time per span name. A span's self time is its duration minus
/// the part of its interval that its children cover (children of one
/// parent may overlap when served requests run concurrently, so the
/// covered part is the union of their intervals, clipped to the parent).
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let (mut lo, mut hi) = (0u64, 0u64);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                if a > hi {
                    covered += hi - lo;
                    lo = a;
                    hi = b;
                } else {
                    hi = hi.max(b);
                }
            }
            covered += hi - lo;
        }
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_s += s.dur_s();
        e.self_s += (s.end_ns - s.start_ns - covered) as f64 / 1e9;
    }
    out
}

/// The spans as one JSON document (written when the run ends).
pub fn spans_json(spans: &[Span]) -> String {
    let mut o = String::with_capacity(64 + spans.len() * 96);
    o.push_str("{\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
        ));
    }
    o.push_str("]}\n");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 0,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60),
            span(4, 1, "c", 80, 90),
        ];
        let t = layer_times(&spans);
        // Children cover [10, 60) and [80, 90) of the root's 100 ns.
        assert!((t["root"].self_s * 1e9 - 40.0).abs() < 1e-6);
        let sum: f64 = t.values().map(|l| l.self_s).sum();
        // Overlapping children count once toward the parent's coverage
        // but keep their own self time each.
        assert!((sum * 1e9 - 40.0 - 30.0 - 30.0 - 10.0).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        drop(t.span("x", 0));
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let g = t.span("y", 0);
        drop(t.span("z", g.id()));
        drop(g);
        assert_eq!(t.spans().len(), 2);
    }
}
