//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer: name, start, end, parent span and (for served requests) the
//! request id. They stay in memory until the run ends, when
//! [`Tracer::to_json`] renders them for the span dump and
//! [`Tracer::self_times`] folds them into per-layer self time.

use aceso_util::json::{obj, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as a parent link.
pub type SpanId = usize;

/// One recorded span; times are microseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `perf.incr_eval`.
    pub name: String,
    /// Start, µs since the tracer's origin.
    pub start_us: f64,
    /// End, µs since the tracer's origin.
    pub end_us: f64,
    /// The span this one ran inside.
    pub parent: Option<SpanId>,
    /// Served request the span belongs to.
    pub request: Option<u64>,
}

/// Collects spans when enabled; a disabled tracer records nothing and
/// adds one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span; returns its id (`None` when disabled).
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name: name.to_string(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            request,
        };
        let mut spans = self.spans.lock().expect("span lock poisoned");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Opens a span whose end is filled in by [`Tracer::close`]; lets a
    /// span be the parent of spans recorded while it is still running.
    pub fn open(&self, name: &str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.us(Instant::now());
            self.spans.lock().expect("span lock poisoned")[id].end_us = end;
        }
    }

    /// Runs `f` inside a span named `name`, passing the span's id so `f`
    /// can parent further spans on it.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f(id);
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }

    /// Self time per span name, seconds: each span's duration minus the
    /// part of its interval covered by its direct children (overlapping
    /// children, such as concurrent requests, are counted once).
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        self_times(&self.spans())
    }

    /// The span dump: every span plus the run's context fields.
    pub fn to_json(&self, mut context: Vec<(String, Value)>) -> Value {
        let spans = self
            .spans()
            .iter()
            .map(|s| {
                obj([
                    ("name", Value::Str(s.name.clone())),
                    ("start_us", Value::Float(s.start_us)),
                    ("end_us", Value::Float(s.end_us)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("request", s.request.map_or(Value::Null, Value::UInt)),
                ])
            })
            .collect();
        context.push(("spans".to_string(), Value::Array(spans)));
        Value::Object(context)
    }
}

/// See [`Tracer::self_times`].
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = union_within(kids, s.start_us, s.end_us);
        *out.entry(s.name.clone()).or_default() += (s.end_us - s.start_us - covered) / 1e6;
    }
    out
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if b <= a {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("root", 0.0, 100.0, None),
            // Two overlapping children cover [10, 60] = 50 µs.
            span("serve.request", 10.0, 50.0, Some(0)),
            span("serve.request", 30.0, 60.0, Some(0)),
            // A grandchild is charged to its own parent only.
            span("serve.search", 12.0, 42.0, Some(1)),
        ];
        let t = self_times(&spans);
        assert!((t["root"] - 50e-6).abs() < 1e-12);
        assert!((t["serve.request"] - (10e-6 + 30e-6)).abs() < 1e-12);
        assert!((t["serve.search"] - 30e-6).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_parents() {
        let t = Tracer::new(true);
        t.span("outer", None, |outer| {
            t.span("inner", outer, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_us >= spans[1].end_us);
        let dump = t.to_json(vec![("workload".into(), Value::Str("w".into()))]);
        assert_eq!(
            dump.get("spans").map(|s| s.to_string_compact().len() > 10),
            Some(true)
        );
    }
}
