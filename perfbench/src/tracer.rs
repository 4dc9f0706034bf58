//! Spans recorded from outside the program, around the benchmark's calls
//! into each layer's public functions.
//!
//! A span has a name, start, end, parent and the id of the top-level
//! operation (request) it belongs to. Spans stay in memory until the run
//! ends; [`Tracer::report`] writes them out. A disabled tracer runs the
//! same closures and records nothing, so traced and untraced runs execute
//! the same code.

use mds_harness::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Top-level operation this span belongs to.
    pub request: u64,
    /// Layer boundary name, e.g. `emu.capture`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// Where a new span hangs: its parent span and request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ctx {
    /// Parent span id (`None` at the top).
    pub parent: Option<u64>,
    /// Request id.
    pub request: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    next_request: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_request: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh top-level context with a new request id.
    pub fn request(&self) -> Ctx {
        Ctx {
            parent: None,
            request: self.next_request.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Runs `f` inside a span named `name` under `ctx`; `f` receives the
    /// context for child spans.
    pub fn span<T>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce(Ctx) -> T) -> T {
        if !self.enabled {
            return f(ctx);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Ctx {
            parent: Some(id),
            request: ctx.request,
        });
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent: ctx.parent,
            request: ctx.request,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// The spans and the self seconds per span name, as one document.
    pub fn report(&self) -> Json {
        let spans = self.spans();
        let self_time = self_times(&spans)
            .into_iter()
            .fold(Json::object(), |doc, (name, s)| doc.field(name, s));
        let list = spans
            .iter()
            .map(|s| {
                Json::object()
                    .field("id", s.id)
                    .field("parent", s.parent.map_or(Json::Null, Json::from))
                    .field("request", s.request)
                    .field("name", s.name)
                    .field("start_ns", s.start_ns)
                    .field("end_ns", s.end_ns)
            })
            .collect();
        Json::object()
            .field("self_time_s", self_time)
            .field("spans", Json::Array(list))
    }
}

/// Seconds of self time per span name: each span's duration minus the
/// part of it its children cover (children are merged first, so
/// overlapping children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(0, |c| covered_ns(c, s));
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_default() += own as f64 / 1e9;
    }
    out
}

/// Nanoseconds of `span` covered by the union of `intervals`.
fn covered_ns(intervals: &[(u64, u64)], span: &Span) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(span.start_ns), b.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = [
            span(1, None, "root", 0, 1_000),
            span(2, Some(1), "a", 100, 400),
            span(3, Some(1), "a", 300, 500),
            span(4, Some(1), "b", 800, 900),
            span(5, Some(2), "c", 150, 250),
        ];
        let t = self_times(&spans);
        // Root: 1000 minus the union [100,500) + [800,900) = 500.
        assert_eq!(t["root"], 500e-9);
        // "a": (300 - 100 of child c) + 200.
        assert_eq!(t["a"], 400e-9);
        assert_eq!(t["b"], 100e-9);
        assert_eq!(t["c"], 100e-9);
    }

    #[test]
    fn disabled_tracer_runs_closures_and_records_nothing() {
        let tracer = Tracer::new(false);
        let ctx = tracer.request();
        assert_eq!(tracer.span("x", ctx, |_| 7), 7);
        assert!(tracer.spans().is_empty());
        let on = Tracer::new(true);
        let root = on.request();
        on.span("outer", root, |inner| on.span("inner", inner, |_| ()));
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.request, outer.request);
    }
}
