//! Bench-side spans around the product's public calls, per-layer self
//! time, and telemetry event counts.
//!
//! Spans are timed here, in the benchmark, around each call into a layer;
//! nothing inside the program is instrumented. They stay in memory and are
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use fedsched_core::json::{self, JsonValue};
use fedsched_telemetry::Event;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call belongs to (`fl.spec`, `core`, `serve`, ...).
    pub layer: &'static str,
    /// The call (`encode`, `step`, `advance`, ...).
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Zero while the span is open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Spans of one request (one round, one HTTP job) share this id.
    pub request_id: u64,
}

/// In-memory span store shared by every thread of a run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span and return its index.
    pub fn open(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        request_id: u64,
    ) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no span holder panics");
        spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: 0,
            parent,
            request_id,
        });
        spans.len() - 1
    }

    /// Close span `id`.
    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("no span holder panics")[id].end_ns = end_ns;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span holder panics").clone()
    }
}

/// Times calls, recording each as a span when a tracer is attached.
#[derive(Clone, Copy)]
pub struct Timer<'a> {
    tracer: Option<&'a Tracer>,
    parent: Option<usize>,
    request_id: u64,
}

impl<'a> Timer<'a> {
    /// Time without recording spans.
    pub fn off() -> Timer<'static> {
        Timer {
            tracer: None,
            parent: None,
            request_id: 0,
        }
    }

    /// Record spans into `tracer`.
    pub fn on(tracer: Option<&'a Tracer>) -> Self {
        Timer {
            tracer,
            parent: None,
            request_id: 0,
        }
    }

    /// This timer with spans parented to `parent` and tagged `request_id`.
    pub fn child(self, parent: Option<usize>, request_id: u64) -> Self {
        Timer {
            parent,
            request_id,
            ..self
        }
    }

    /// Run `f`, returning its result and wall time in seconds.
    pub fn timed<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self
            .tracer
            .map(|t| t.open(layer, name, self.parent, self.request_id));
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (self.tracer, span) {
            t.close(id);
        }
        (out, secs)
    }

    /// [`Timer::timed`] without the duration.
    pub fn time<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(layer, name, f).0
    }

    /// Open a span that later calls can parent to (`None` when off).
    pub fn open(&self, layer: &'static str, name: &'static str) -> Option<usize> {
        self.tracer
            .map(|t| t.open(layer, name, self.parent, self.request_id))
    }

    /// Close a span from [`Timer::open`].
    pub fn close(&self, span: Option<usize>) {
        if let (Some(t), Some(id)) = (self.tracer, span) {
            t.close(id);
        }
    }
}

/// Self time of each span: its duration minus the union of its children's
/// intervals, clipped to its own.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-layer self time in milliseconds, and the share of the root spans'
/// wall time that child spans cover.
pub fn layer_breakdown(spans: &[Span]) -> (BTreeMap<&'static str, f64>, f64) {
    let selfs = self_times_ns(spans);
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut root_wall, mut root_self) = (0u64, 0u64);
    for (s, &own) in spans.iter().zip(&selfs) {
        *layers.entry(s.layer).or_default() += own as f64 / 1e6;
        if s.parent.is_none() {
            root_wall += s.end_ns - s.start_ns;
            root_self += own;
        }
    }
    let coverage = if root_wall == 0 {
        0.0
    } else {
        1.0 - root_self as f64 / root_wall as f64
    };
    (layers, coverage)
}

/// Occurrences of each telemetry event kind.
pub fn event_counts(events: &[Event]) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for e in events {
        *counts.entry(e.kind()).or_default() += 1;
    }
    counts
}

/// The trace file body: every span plus the layer breakdown.
pub fn trace_json(spans: &[Span]) -> JsonValue {
    let (layers, coverage) = layer_breakdown(spans);
    let selfs = self_times_ns(spans);
    json::obj(vec![
        (
            "spans",
            JsonValue::Arr(
                spans
                    .iter()
                    .zip(selfs)
                    .map(|(s, own)| {
                        json::obj(vec![
                            ("layer", json::str(s.layer)),
                            ("name", json::str(s.name)),
                            ("start_ns", json::num(s.start_ns as f64)),
                            ("end_ns", json::num(s.end_ns as f64)),
                            ("self_ns", json::num(own as f64)),
                            (
                                "parent",
                                s.parent.map_or(JsonValue::Null, |p| json::num(p as f64)),
                            ),
                            ("request_id", json::num(s.request_id as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("layers_self_ms", layers_json(&layers)),
        ("coverage", json::num(coverage)),
    ])
}

/// `{layer: self_ms}` in layer order.
pub fn layers_json(layers: &BTreeMap<&'static str, f64>) -> JsonValue {
    JsonValue::Obj(
        layers
            .iter()
            .map(|(k, v)| (k.to_string(), json::num(*v)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "x",
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("fl", 10, 40, Some(0)),
            span("fl", 30, 60, Some(0)), // overlaps the first child
            span("core", 20, 25, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 25, 30, 5]);
        let (layers, coverage) = layer_breakdown(&spans);
        assert_eq!(layers["fl"], 55.0 / 1e6);
        assert!((coverage - 0.5).abs() < 1e-12);
    }
}
