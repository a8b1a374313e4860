//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time attribution computed from them.
//!
//! A span's layer is the part of its name before the first `.`
//! (`core.eval` → `core`). Root spans are named `bench.round`: their self
//! time is what no layer span covers, reported as the residual. Because
//! every instant of a root span is counted exactly once — as the self
//! time of the innermost span covering it — the layer self times plus the
//! residual sum to the traced wall time.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

/// One recorded span. Times are seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, seconds since the tracer origin.
    pub start: f64,
    /// End, seconds since the tracer origin.
    pub end: f64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Spans of one job (scenario, method, served job) share this id.
    pub job: u64,
}

/// Collects spans when enabled; every method is a no-op when disabled.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Name of the per-round root span.
pub const ROOT: &str = "bench.round";

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let start = self.secs(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.secs(Instant::now());
        out
    }

    /// Records an already-timed interval as a child of the open span —
    /// for intervals measured inside a call the benchmark cannot split
    /// (e.g. objective evaluations inside an engine run).
    pub fn record(&mut self, name: &'static str, job: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start: self.secs(start),
            end: self.secs(end),
            parent: self.stack.last().copied(),
            job,
        };
        self.spans.push(span);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array (written out when the run ends).
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    let mut v = Value::object();
                    v.insert("name", s.name);
                    v.insert("start_s", s.start);
                    v.insert("end_s", s.end);
                    match s.parent {
                        Some(p) => v.insert("parent", p),
                        None => v.insert("parent", Value::Null),
                    };
                    v.insert("job", s.job);
                    v
                })
                .collect(),
        )
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Each span's duration minus the part of it covered by its direct
/// children (clipped to the span, overlaps counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite span times"));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                }
                reach = reach.max(b);
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Self-time attribution of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Sum of root-span durations, seconds.
    pub traced_wall: f64,
    /// Self time per layer (the root layer excluded), seconds.
    pub layers: BTreeMap<String, f64>,
    /// Root self time: traced wall no layer span covers, seconds.
    pub residual: f64,
}

impl Attribution {
    /// Layer self times plus residual, minus the traced wall: zero up to
    /// rounding when the spans nest properly.
    pub fn closure_error(&self) -> f64 {
        self.layers.values().sum::<f64>() + self.residual - self.traced_wall
    }

    /// Each layer's share of the traced wall (residual under `residual`).
    pub fn shares(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = self
            .layers
            .iter()
            .map(|(k, v)| (k.clone(), v / self.traced_wall))
            .collect();
        out.insert("residual".into(), self.residual / self.traced_wall);
        out
    }
}

/// Attributes every span's self time to its layer.
pub fn attribute(spans: &[Span]) -> Attribution {
    let own = self_times(spans);
    let mut layers = BTreeMap::new();
    let mut residual = 0.0;
    let mut traced_wall = 0.0;
    for (s, t) in spans.iter().zip(own) {
        if s.parent.is_none() {
            traced_wall += s.end - s.start;
        }
        if s.name == ROOT {
            residual += t;
        } else {
            *layers.entry(layer_of(s.name).to_string()).or_insert(0.0) += t;
        }
    }
    Attribution {
        traced_wall,
        layers,
        residual,
    }
}

/// Total self time of spans with exactly this name, seconds.
pub fn self_time_of(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| t)
        .sum()
}

/// Total duration of spans with exactly this name, seconds.
pub fn duration_of(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(ROOT, 0.0, 10.0, None),
            span("scenarios.scenario", 1.0, 9.0, Some(0)),
            span("core.eval", 2.0, 4.0, Some(1)),
            // Overlaps the previous child: [3, 5] adds only [4, 5].
            span("core.eval", 3.0, 5.0, Some(1)),
            // Sticks out of its parent: clipped to [8, 9].
            span("core.eval", 8.0, 9.5, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 2.0);
        assert_eq!(own[1], 8.0 - 3.0 - 1.0);
        assert_eq!(own[2], 2.0);
        assert_eq!(own[4], 1.5);
    }

    #[test]
    fn layer_self_times_and_residual_sum_to_the_traced_wall() {
        let spans = vec![
            span(ROOT, 0.0, 4.0, None),
            span("scenarios.scenario", 0.5, 3.5, Some(0)),
            span("core.engine", 1.0, 3.0, Some(1)),
            span("core.eval", 1.5, 2.0, Some(2)),
            span(ROOT, 5.0, 6.0, None),
            span("serve.connect", 5.0, 5.25, Some(4)),
        ];
        let a = attribute(&spans);
        assert_eq!(a.traced_wall, 5.0);
        assert_eq!(a.layers["scenarios"], 1.0);
        assert_eq!(a.layers["core"], 2.0);
        assert_eq!(a.layers["serve"], 0.25);
        assert_eq!(a.residual, 1.75);
        assert!(a.closure_error().abs() < 1e-12);
        let total: f64 = a.shares().values().sum();
        assert!((total - 1.0).abs() < 1e-12, "shares sum to {total}");
    }

    #[test]
    fn tracer_nests_records_and_is_inert_when_off() {
        let mut t = Tracer::new(true);
        t.span(ROOT, 1, |t| {
            t.span("core.engine", 1, |t| {
                let now = Instant::now();
                t.record("core.eval", 1, now, now);
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.end >= s.start));
        let a = attribute(spans);
        assert!(a.closure_error().abs() < 1e-9);

        let mut off = Tracer::new(false);
        let v = off.span(ROOT, 0, |_| 7);
        assert_eq!(v, 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn layer_is_the_name_prefix() {
        assert_eq!(layer_of("core.eval"), "core");
        assert_eq!(layer_of("bench"), "bench");
    }
}
