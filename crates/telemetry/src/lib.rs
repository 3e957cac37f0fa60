//! # mramsim-telemetry
//!
//! Dependency-free observability for the `mramsim` workspace: a
//! [`Recorder`] sink trait, a lock-cheap sharded [`MetricsRecorder`]
//! (counters, gauges, fixed-bucket latency histograms), a swappable
//! [`Clock`] with a deterministic test double, a streaming
//! [`JsonlRecorder`] run log, and the [`report`] renderer behind
//! `mramsim stats`.
//!
//! ## The process-wide recorder
//!
//! Instrumented hot paths — the worker pool, the result cache tiers,
//! the sweep executor, the LLGS solver — emit through the free
//! functions here ([`counter_add`], [`gauge_set`], [`observe`],
//! [`event`], [`span`]). All of them check one relaxed atomic flag
//! first and return immediately when no recorder is installed, so
//! instrumentation costs roughly one predictable branch when telemetry
//! is off (the `telemetry` bench group proves the warm-sweep overhead
//! stays under the noise floor).
//!
//! Telemetry is strictly *write-only* with respect to results: nothing
//! in any result path reads a metric, so cache keys, CSVs, and golden
//! figures are byte-identical with telemetry on or off.
//!
//! ```
//! use mramsim_telemetry as telemetry;
//! use std::sync::Arc;
//!
//! // Disabled: every emit is a cheap no-op.
//! telemetry::counter_add("jobs", 1);
//!
//! // Enabled: emits flow into the installed recorder until the guard
//! // drops.
//! let metrics = Arc::new(telemetry::MetricsRecorder::new());
//! let guard = telemetry::install(metrics.clone());
//! telemetry::counter_add("jobs", 2);
//! {
//!     let _span = telemetry::span("phase_s");
//! } // records the elapsed time into histogram "phase_s"
//! drop(guard);
//! assert_eq!(metrics.snapshot().counter("jobs"), 2);
//! assert_eq!(metrics.snapshot().histograms["phase_s"].count, 1);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod clock;
pub mod diff;
mod json;
mod jsonl;
mod metrics;
mod recorder;
pub mod report;
pub mod trace;

pub use clock::{Clock, TestClock};
pub use json::Json;
pub use jsonl::{JsonlRecorder, SpanNode, SpanTree, TelemetryEvent, TelemetryLog};
pub use metrics::{HistogramSnapshot, HistogramSpec, MetricsRecorder, MetricsSnapshot, SHARDS};
pub use recorder::{Fanout, Field, Recorder, Value};

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Fast-path gate: `true` only while a recorder is installed. Relaxed
/// is enough — a racing emit at install/uninstall time may be dropped
/// or delivered late, which telemetry tolerates by design.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed recorder. Only read when [`ENABLED`] says so, so the
/// read-lock cost is paid exclusively by instrumented runs.
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Whether a recorder is currently installed. Hot paths use this to
/// skip building event fields entirely when telemetry is off.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Uninstalls the recorder (and restores the previous one, if any)
/// when dropped — scope telemetry to a run without global teardown
/// order problems.
#[must_use = "dropping the guard immediately uninstalls the recorder"]
pub struct InstallGuard {
    previous: Option<Arc<dyn Recorder>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let mut slot = RECORDER.write().expect("telemetry recorder poisoned");
        *slot = self.previous.take();
        ENABLED.store(slot.is_some(), Ordering::Relaxed);
    }
}

impl std::fmt::Debug for InstallGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstallGuard").finish_non_exhaustive()
    }
}

/// Installs `recorder` as the process-wide sink and enables emission.
/// The returned guard restores the previously installed recorder on
/// drop. Installations nest (inner guard restores the outer recorder)
/// but are process-global: concurrent *tests* that install must
/// serialize themselves.
pub fn install(recorder: Arc<dyn Recorder>) -> InstallGuard {
    let mut slot = RECORDER.write().expect("telemetry recorder poisoned");
    let previous = slot.replace(recorder);
    ENABLED.store(true, Ordering::Relaxed);
    InstallGuard { previous }
}

/// Runs `f` against the installed recorder, if any.
#[inline]
fn dispatch(f: impl FnOnce(&dyn Recorder)) {
    if let Ok(slot) = RECORDER.read() {
        if let Some(recorder) = slot.as_ref() {
            f(recorder.as_ref());
        }
    }
}

/// Adds `delta` to counter `name` on the installed recorder (no-op
/// when telemetry is off).
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if enabled() {
        dispatch(|r| r.counter_add(name, delta));
    }
}

/// Sets gauge `name` (no-op when telemetry is off).
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if enabled() {
        dispatch(|r| r.gauge_set(name, value));
    }
}

/// Records one histogram observation — typically a duration in
/// seconds, by the `*_s` naming convention (no-op when telemetry is
/// off).
#[inline]
pub fn observe(name: &'static str, value: f64) {
    if enabled() {
        dispatch(|r| r.observe(name, value));
    }
}

/// Emits one structured event (no-op when telemetry is off). Callers
/// that allocate field values should guard on [`enabled`] first so the
/// allocations are skipped too.
#[inline]
pub fn event(name: &'static str, fields: &[Field]) {
    if enabled() {
        dispatch(|r| r.event(name, fields));
    }
}

/// A scope timer: records the elapsed wall time into histogram `name`
/// when dropped. Created disabled (no clock read at all) when
/// telemetry is off.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}

    /// The elapsed time so far (`None` when telemetry was off at
    /// creation).
    #[must_use]
    pub fn elapsed(&self) -> Option<std::time::Duration> {
        self.start.map(|s| s.elapsed())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            observe(self.name, start.elapsed().as_secs_f64());
        }
    }
}

/// Starts a [`Span`] feeding histogram `name`.
///
/// Spans time real execution (worker busy time, flush latency), so
/// they read the monotonic system clock directly; run-scoped
/// *reported* durations go through the swappable [`Clock`] instead.
#[inline]
#[must_use]
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: enabled().then(Instant::now),
    }
}

// ---------------------------------------------------------------------------
// Hierarchical spans (trace trees)
// ---------------------------------------------------------------------------

/// Allocator for process-unique span ids. Starts at 1 so id 0 can mean
/// "no span" everywhere.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocator for process-unique lane ids (one per OS thread that ever
/// emits while telemetry is on). Starts at 1; lane 0 means "unknown"
/// in parsed logs.
static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's lane id, assigned lazily on first use.
    static LANE: Cell<u64> = const { Cell::new(0) };
    /// Id of the innermost open tree span on this thread (0 = none).
    /// New tree spans parent under it; [`SpanCtx::enter`] seeds it on
    /// pool worker threads so stolen jobs still nest under their sweep.
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

/// This thread's lane id — a small process-unique integer identifying
/// the OS thread in trace output (Chrome trace `tid`). Assigned on
/// first call, stable for the thread's lifetime.
#[must_use]
pub fn lane() -> u64 {
    LANE.with(|l| {
        let id = l.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
        l.set(id);
        id
    })
}

/// Labels this thread's lane in the run log (e.g. `"worker 3"`), so
/// trace viewers can name the row. Emits a `lane.label` event; no-op
/// when telemetry is off.
pub fn set_lane_label(label: &str) {
    if enabled() {
        event("lane.label", &[("label", Value::Text(label.to_owned()))]);
    }
}

/// A capturable handle to the current span context. `Copy + Send`, so
/// dispatchers (the worker pool) can capture it on the submitting
/// thread and [`enter`](SpanCtx::enter) it on each worker thread —
/// tree spans opened there then parent under the captured span even
/// though they run on a different OS thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx(u64);

impl SpanCtx {
    /// The empty context: entering it makes new spans roots.
    #[must_use]
    pub const fn none() -> Self {
        SpanCtx(0)
    }

    /// Captures the innermost open tree span on this thread.
    #[must_use]
    pub fn current() -> Self {
        SpanCtx(CURRENT_SPAN.with(Cell::get))
    }

    /// Makes this context the parent for tree spans opened on this
    /// thread until the returned guard drops (which restores the
    /// previous context).
    #[must_use = "dropping the guard immediately restores the previous context"]
    pub fn enter(self) -> CtxGuard {
        let prev = CURRENT_SPAN.with(|c| c.replace(self.0));
        CtxGuard {
            prev,
            _not_send: PhantomData,
        }
    }
}

/// Restores the span context replaced by [`SpanCtx::enter`] on drop.
#[derive(Debug)]
pub struct CtxGuard {
    prev: u64,
    /// Guards manipulate thread-local state: keep them on the thread
    /// that created them.
    _not_send: PhantomData<*const ()>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT_SPAN.with(|c| c.set(self.prev));
    }
}

/// A hierarchical span: emits a `span.begin` event on creation and a
/// matching `span.end` on drop, carrying a process-unique `id`, the
/// `parent` id captured from the thread's span context, and (via the
/// JSONL recorder) the emitting thread's lane. While open it is the
/// parent of any tree span opened on this thread.
///
/// Tree spans are events only — they do not feed histograms (the flat
/// [`span`] timers keep doing that), so enabling tracing never changes
/// metric counts.
#[derive(Debug)]
#[must_use = "dropping the span immediately ends it"]
pub struct TreeSpan {
    name: &'static str,
    id: u64,
    prev: u64,
    /// Ends must restore this thread's context: keep the span here.
    _not_send: PhantomData<*const ()>,
}

impl TreeSpan {
    /// The span's process-unique id (`None` when telemetry was off at
    /// creation, in which case the span is fully inert).
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for TreeSpan {
    fn drop(&mut self) {
        // No clock read here: begin/end timestamps come from the
        // recorder's own `t_ns` stamps, which is also what
        // `SpanTree` reconstructs durations from.
        if self.id != 0 {
            CURRENT_SPAN.with(|c| c.set(self.prev));
            event(
                "span.end",
                &[
                    ("id", Value::U64(self.id)),
                    ("span", Value::Text(self.name.to_owned())),
                ],
            );
        }
    }
}

/// Opens a hierarchical [`TreeSpan`] named `name`, parented under this
/// thread's current span context. Inert (no events, no clock reads)
/// when telemetry is off.
#[inline]
pub fn span_tree(name: &'static str) -> TreeSpan {
    span_tree_with(name, &[])
}

/// [`span_tree`] with extra fields attached to the `span.begin` event
/// (e.g. the job index or shard id). Callers that allocate field
/// values should guard on [`enabled`] first.
pub fn span_tree_with(name: &'static str, extra: &[Field]) -> TreeSpan {
    if !enabled() {
        return TreeSpan {
            name,
            id: 0,
            prev: 0,
            _not_send: PhantomData,
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT_SPAN.with(|c| c.replace(id));
    let id_field = ("id", Value::U64(id));
    let name_field = ("span", Value::Text(name.to_owned()));
    // Fixed-size field arrays for the hot shapes (at most one extra,
    // sweep-rate call sites): no Vec allocation per span.
    match (prev, extra) {
        (0, []) => event("span.begin", &[id_field, name_field]),
        (_, []) => event(
            "span.begin",
            &[id_field, ("parent", Value::U64(prev)), name_field],
        ),
        (0, [one]) => event("span.begin", &[id_field, name_field, one.clone()]),
        (_, [one]) => event(
            "span.begin",
            &[
                id_field,
                ("parent", Value::U64(prev)),
                name_field,
                one.clone(),
            ],
        ),
        _ => {
            let mut fields = Vec::with_capacity(3 + extra.len());
            fields.push(id_field);
            if prev != 0 {
                fields.push(("parent", Value::U64(prev)));
            }
            fields.push(name_field);
            fields.extend_from_slice(extra);
            event("span.begin", &fields);
        }
    }
    TreeSpan {
        name,
        id,
        prev,
        _not_send: PhantomData,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Installation is process-global; tests touching it serialize.
    static INSTALL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_emits_are_dropped_and_guard_restores() {
        let _serial = INSTALL_LOCK.lock().unwrap();
        assert!(!enabled());
        counter_add("x", 1); // dropped silently

        let outer = Arc::new(MetricsRecorder::new());
        let outer_guard = install(outer.clone());
        assert!(enabled());
        counter_add("x", 2);
        {
            let inner = Arc::new(MetricsRecorder::new());
            let _inner_guard = install(inner.clone());
            counter_add("x", 10);
            assert_eq!(inner.snapshot().counter("x"), 10);
        }
        // Inner guard dropped: the outer recorder is back.
        counter_add("x", 3);
        drop(outer_guard);
        assert!(!enabled());
        counter_add("x", 100); // dropped again
        assert_eq!(outer.snapshot().counter("x"), 5);
    }

    #[test]
    fn spans_record_into_histograms() {
        let _serial = INSTALL_LOCK.lock().unwrap();
        let metrics = Arc::new(MetricsRecorder::new());
        let guard = install(metrics.clone());
        {
            let _span = span("unit_span_s");
        }
        span("unit_span_s").finish();
        drop(guard);
        // Spans created while disabled never record.
        span("unit_span_s").finish();
        assert_eq!(metrics.snapshot().histograms["unit_span_s"].count, 2);
    }

    #[test]
    fn events_flow_through_fanout() {
        let _serial = INSTALL_LOCK.lock().unwrap();
        let a = Arc::new(MetricsRecorder::new());
        let b = Arc::new(MetricsRecorder::new());
        let guard = install(Arc::new(Fanout(vec![a.clone(), b.clone()])));
        gauge_set("g", 4.5);
        observe("h", 0.25);
        event("e", &[("k", Value::U64(1))]);
        drop(guard);
        for m in [&a, &b] {
            let snap = m.snapshot();
            assert_eq!(snap.gauges["g"], 4.5);
            assert_eq!(snap.histograms["h"].count, 1);
        }
    }

    type CapturedEvent = (String, Vec<(String, Value)>);

    /// Captures raw events for span-tree assertions (the metrics
    /// recorder intentionally drops the event channel).
    #[derive(Default)]
    struct CaptureRecorder {
        events: Mutex<Vec<CapturedEvent>>,
    }

    impl Recorder for CaptureRecorder {
        fn event(&self, name: &'static str, fields: &[Field]) {
            let fields = fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect();
            self.events.lock().unwrap().push((name.to_owned(), fields));
        }
    }

    fn field_u64(fields: &[(String, Value)], key: &str) -> Option<u64> {
        fields.iter().find_map(|(k, v)| match v {
            Value::U64(n) if k == key => Some(*n),
            _ => None,
        })
    }

    #[test]
    fn tree_spans_nest_and_cross_threads_via_ctx() {
        let _serial = INSTALL_LOCK.lock().unwrap();
        let capture = Arc::new(CaptureRecorder::default());
        let guard = install(capture.clone());

        let root = span_tree("root");
        let root_id = root.id().unwrap();
        let child = span_tree("child");
        let child_id = child.id().unwrap();
        drop(child);

        // A thread entering the captured context parents under root
        // even though it is a different OS thread.
        let ctx = SpanCtx::current();
        let stolen_id = std::thread::scope(|s| {
            s.spawn(move || {
                let _ctx = ctx.enter();
                let stolen = span_tree("stolen");
                stolen.id().unwrap()
            })
            .join()
            .unwrap()
        });
        drop(root);

        // After the root ends, a new span is a root again.
        let orphan = span_tree("after");
        let orphan_fields = {
            let events = capture.events.lock().unwrap();
            events
                .iter()
                .filter(|(n, f)| n == "span.begin" && field_u64(f, "id") == orphan.id())
                .map(|(_, f)| f.clone())
                .next()
                .unwrap()
        };
        assert_eq!(field_u64(&orphan_fields, "parent"), None);
        drop(orphan);
        drop(guard);

        let events = capture.events.lock().unwrap();
        let begin = |id: u64| {
            events
                .iter()
                .find(|(n, f)| n == "span.begin" && field_u64(f, "id") == Some(id))
                .map(|(_, f)| f.clone())
                .unwrap()
        };
        assert_eq!(field_u64(&begin(child_id), "parent"), Some(root_id));
        assert_eq!(field_u64(&begin(stolen_id), "parent"), Some(root_id));
        assert_eq!(field_u64(&begin(root_id), "parent"), None);
        let ends = events.iter().filter(|(n, _)| n == "span.end").count();
        let begins = events.iter().filter(|(n, _)| n == "span.begin").count();
        assert_eq!(ends, begins);
    }

    #[test]
    fn disabled_tree_spans_are_inert_and_lanes_are_stable() {
        let _serial = INSTALL_LOCK.lock().unwrap();
        let inert = span_tree("off");
        assert_eq!(inert.id(), None);
        drop(inert);

        let first = lane();
        assert_ne!(first, 0);
        assert_eq!(lane(), first);
        let other = std::thread::spawn(lane).join().unwrap();
        assert_ne!(other, first);
    }
}
