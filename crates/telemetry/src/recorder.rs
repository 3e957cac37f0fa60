//! The [`Recorder`] sink interface and [`Fanout`].
//!
//! Everything the instrumented hot paths emit — counter increments,
//! gauge updates, histogram observations, structured events — flows
//! into a `Recorder`. The crate root keeps one process-wide recorder
//! behind an atomic enabled flag ([`crate::install`]); [`Fanout`] tees
//! to several sinks, e.g. an aggregating [`crate::MetricsRecorder`]
//! plus a streaming [`crate::JsonlRecorder`].

/// One dynamically typed event field value.
///
/// Events are rare (per job, not per step), so owned strings are fine;
/// the numeric variants exist so counters and durations round-trip
/// through JSON without quoting.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer (counts, indices, nanosecond durations).
    U64(u64),
    /// A float (rates, seconds).
    F64(f64),
    /// A string (scenario ids, source labels, hex keys).
    Text(String),
    /// A boolean flag.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Self::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Self::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Self::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}

/// One named event field.
pub type Field = (&'static str, Value);

/// A metrics/event sink.
///
/// All methods default to no-ops so a sink implements only what it
/// cares about: an aggregator keeps counters and histograms but
/// ignores events, a streaming log keeps events and ignores the rest.
///
/// Implementations must be cheap and non-blocking-ish: they are called
/// from worker threads in the middle of sweeps. They must never panic.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the counter `name`.
    fn counter_add(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets the gauge `name` to `value` (last write wins).
    fn gauge_set(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Records one observation (typically a duration in seconds) into
    /// the fixed-bucket histogram `name`.
    fn observe(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Records one structured event.
    fn event(&self, name: &'static str, fields: &[Field]) {
        let _ = (name, fields);
    }
}

/// Tees every call to several sinks, in order.
///
/// # Examples
///
/// ```
/// use mramsim_telemetry::{Fanout, MetricsRecorder, Recorder};
/// use std::sync::Arc;
///
/// let a = Arc::new(MetricsRecorder::new());
/// let b = Arc::new(MetricsRecorder::new());
/// let tee = Fanout(vec![a.clone(), b.clone()]);
/// tee.counter_add("jobs", 2);
/// assert_eq!(a.snapshot().counters["jobs"], 2);
/// assert_eq!(b.snapshot().counters["jobs"], 2);
/// ```
pub struct Fanout(pub Vec<std::sync::Arc<dyn Recorder>>);

impl Recorder for Fanout {
    fn counter_add(&self, name: &'static str, delta: u64) {
        for r in &self.0 {
            r.counter_add(name, delta);
        }
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        for r in &self.0 {
            r.gauge_set(name, value);
        }
    }

    fn observe(&self, name: &'static str, value: f64) {
        for r in &self.0 {
            r.observe(name, value);
        }
    }

    fn event(&self, name: &'static str, fields: &[Field]) {
        for r in &self.0 {
            r.event(name, fields);
        }
    }
}

impl std::fmt::Debug for Fanout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Fanout").field(&self.0.len()).finish()
    }
}
