//! In-memory spans for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public
//! functions: a span is (name, start, end, parent, lane), kept in
//! memory until the run ends and then written as Chrome trace-event
//! JSON (loadable in Perfetto) plus a per-layer self-time table. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LANE: Cell<u64> = const { Cell::new(0) };
}

/// A small per-thread number used as the trace's thread id.
pub fn lane() -> u64 {
    LANE.with(|lane| {
        if lane.get() == 0 {
            lane.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        }
        lane.get()
    })
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`array.shard_classes`, `serve.submit`, ...).
    pub name: String,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The thread it ran on.
    pub lane: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-layer aggregate of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans of this name.
    pub count: usize,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// The span store. Thread-safe; spans are appended in open order.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn spans_mut(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no span writer panics while holding the lock")
    }

    /// Records an already finished interval (for work whose start the
    /// benchmark only learns afterwards, such as an engine job).
    pub fn record(
        &self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        lane: u64,
    ) -> usize {
        let span = Span {
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            lane,
        };
        let mut spans = self.spans_mut();
        spans.push(span);
        spans.len() - 1
    }

    /// Runs `f` inside a span; `f` receives the span id so it can
    /// parent children under it.
    pub fn scope<R>(&self, name: &str, parent: Option<usize>, f: impl FnOnce(usize) -> R) -> R {
        let id = {
            let mut spans = self.spans_mut();
            spans.push(Span {
                name: name.to_owned(),
                start_ns: self.ns(Instant::now()),
                end_ns: 0,
                parent,
                lane: lane(),
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.ns(Instant::now());
        self.spans_mut()[id].end_ns = end;
        out
    }

    /// A copy of every span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans_mut().clone()
    }

    /// Self time of every span, by span id.
    pub fn self_ns(&self) -> Vec<u64> {
        let spans = self.spans();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (id, span) in spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| {
                let mut covered: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        (
                            spans[k].start_ns.max(span.start_ns),
                            spans[k].end_ns.min(span.end_ns),
                        )
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                covered.sort_unstable();
                let mut union = 0;
                let mut reach = span.start_ns;
                for (a, b) in covered {
                    let a = a.max(reach);
                    if b > a {
                        union += b - a;
                        reach = b;
                    }
                }
                span.duration_ns().saturating_sub(union)
            })
            .collect()
    }

    /// Per-name totals: count, summed duration, summed self time.
    pub fn layer_totals(&self) -> BTreeMap<String, LayerTotals> {
        let spans = self.spans();
        let mut out: BTreeMap<String, LayerTotals> = BTreeMap::new();
        for (span, self_ns) in spans.iter().zip(self.self_ns()) {
            let entry = out.entry(span.name.clone()).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += self_ns;
        }
        out
    }

    /// Share of the `root`-named spans' wall time that no child layer
    /// claims: Σ self ÷ Σ duration over those roots.
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let spans = self.spans();
        let (mut own, mut wall) = (0u64, 0u64);
        for (span, self_ns) in spans.iter().zip(self.self_ns()) {
            if span.name == root {
                own += self_ns;
                wall += span.duration_ns();
            }
        }
        own as f64 / wall.max(1) as f64
    }

    /// Chrome trace-event JSON: one complete (`X`) event per span, one
    /// thread per lane, the parent id in `args`.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans();
        let mut lanes: Vec<u64> = spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        let mut events: Vec<String> = lanes
            .iter()
            .map(|lane| {
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"args\":{{\"name\":\"lane {lane}\"}}}}"
                )
            })
            .collect();
        for (id, span) in spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                span.name,
                span.lane,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
            events.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tracer = Tracer::new();
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let root = tracer.record("op", None, ms(0), ms(10), 1);
        // Two overlapping children cover 2..7, one more covers 8..9.
        tracer.record("a", Some(root), ms(2), ms(6), 1);
        tracer.record("b", Some(root), ms(4), ms(7), 2);
        tracer.record("c", Some(root), ms(8), ms(9), 1);
        let totals = tracer.layer_totals();
        let own = totals["op"].self_ns as f64 * 1e-6;
        assert!((own - 4.0).abs() < 0.01, "{own}");
        assert!((tracer.unattributed_frac("op") - 0.4).abs() < 0.01);
        let json = tracer.chrome_json();
        assert!(json.starts_with('{') && json.ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(mramsim_telemetry::Json::parse(&json).is_some());
    }
}
