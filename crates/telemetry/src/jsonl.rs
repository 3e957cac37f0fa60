//! The on-disk telemetry format: JSONL, one self-describing object per
//! line, written next to the sweep journal as
//! `<cache-dir>/runs/<run-id>.telemetry`.
//!
//! Two line kinds:
//!
//! * `{"kind":"event","t_ns":…,"name":…,"fields":{…}}` — streamed as
//!   instrumented code emits them (job completions, sweep start/end,
//!   checkpoints), flushed per line so a killed process keeps
//!   everything it logged;
//! * `{"kind":"metrics","t_ns":…,"counters":{…},"gauges":{…},
//!   "histograms":{…}}` — a full [`MetricsSnapshot`], written once at
//!   the end of the run (or whenever the caller asks).
//!
//! Telemetry output is strictly write-only with respect to results: no
//! cache key, CSV cell, or scenario output ever reads from here, so
//! enabling or disabling it cannot move any golden number.

use crate::json::Json;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::recorder::{Field, Recorder, Value};
use crate::Clock;
use std::collections::BTreeMap;
use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// A streaming JSONL event sink.
///
/// Implements [`Recorder`] for the `event` channel only; counters,
/// gauges, and histograms are aggregated in-process by a
/// [`crate::MetricsRecorder`] (fan both out with [`crate::Fanout`])
/// and land here as one snapshot line via
/// [`JsonlRecorder::write_snapshot`].
///
/// Write failures are swallowed after the file is created: a full disk
/// costs telemetry, never the run. A panic while a line is being
/// written does not stop the log either: later lines recover the lock
/// and keep appending.
#[derive(Debug)]
pub struct JsonlRecorder {
    path: PathBuf,
    file: Mutex<BufWriter<fs::File>>,
    clock: Clock,
}

impl JsonlRecorder {
    /// Creates (truncating) the log at `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// The underlying I/O error when the file cannot be created.
    pub fn create(path: impl Into<PathBuf>, clock: Clock) -> std::io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let file = fs::File::create(&path)?;
        Ok(Self {
            path,
            file: Mutex::new(BufWriter::new(file)),
            clock,
        })
    }

    /// Where the log is being written.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The conventional log location for a run id, next to its journal.
    #[must_use]
    pub fn path_for(cache_dir: &Path, run_id: &str) -> PathBuf {
        cache_dir.join("runs").join(format!("{run_id}.telemetry"))
    }

    fn write_line(&self, line: &str) {
        // A panic while appending (a dying job's last event) poisons
        // this mutex, but the buffered writer is still structurally
        // sound — at worst one torn line, which the parser already
        // tolerates at the tail. Recover and keep logging: losing the
        // whole telemetry stream to one bad job would be the bug.
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        // Flushed per line: a killed process keeps everything logged.
        let _ = file
            .write_all(line.as_bytes())
            .and_then(|()| file.write_all(b"\n"))
            .and_then(|()| file.flush());
    }

    /// Appends one full metrics snapshot line.
    pub fn write_snapshot(&self, snapshot: &MetricsSnapshot) {
        let Json::Obj(mut obj) = snapshot.to_json() else {
            unreachable!("MetricsSnapshot::to_json always renders an object")
        };
        obj.insert("kind".to_owned(), Json::Str("metrics".to_owned()));
        obj.insert("t_ns".to_owned(), Json::Num(self.clock.now_nanos() as f64));
        self.write_line(&Json::Obj(obj).render());
    }
}

impl Recorder for JsonlRecorder {
    fn event(&self, name: &'static str, fields: &[Field]) {
        let mut map = BTreeMap::new();
        for (key, value) in fields {
            map.insert(
                (*key).to_owned(),
                match value {
                    Value::U64(v) => Json::Num(*v as f64),
                    Value::F64(v) => Json::Num(*v),
                    Value::Text(v) => Json::Str(v.clone()),
                    Value::Bool(v) => Json::Bool(*v),
                },
            );
        }
        let mut obj = BTreeMap::new();
        obj.insert("kind".to_owned(), Json::Str("event".to_owned()));
        obj.insert("t_ns".to_owned(), Json::Num(self.clock.now_nanos() as f64));
        // The emitting thread's lane: the row (`tid`) the event lands
        // on in trace exports.
        obj.insert("lane".to_owned(), Json::Num(crate::lane() as f64));
        obj.insert("name".to_owned(), Json::Str(name.to_owned()));
        obj.insert("fields".to_owned(), Json::Obj(map));
        self.write_line(&Json::Obj(obj).render());
    }
}

/// One parsed event line.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEvent {
    /// Clock reading when the event was written, in nanoseconds.
    pub t_ns: u64,
    /// Lane (OS-thread) id the event was emitted from; 0 for logs
    /// written before lanes existed.
    pub lane: u64,
    /// The event name (e.g. `job.done`, `sweep.start`).
    pub name: String,
    /// The structured fields, as parsed JSON.
    pub fields: Json,
}

impl TelemetryEvent {
    /// Field `key` as a string.
    #[must_use]
    pub fn text(&self, key: &str) -> Option<&str> {
        self.fields.get(key).and_then(Json::as_str)
    }

    /// Field `key` as an exact unsigned integer.
    #[must_use]
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.fields.get(key).and_then(Json::as_u64)
    }
}

/// A fully parsed telemetry log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryLog {
    /// Every event line, in file order.
    pub events: Vec<TelemetryEvent>,
    /// The last metrics snapshot line, when one was written.
    pub metrics: Option<MetricsSnapshot>,
    /// Whether the final line was truncated mid-write (killed process)
    /// and discarded.
    pub truncated_tail: bool,
}

impl TelemetryLog {
    /// Parses a whole log.
    ///
    /// A malformed *final* line is tolerated (a killed process may
    /// have died mid-append) and flagged in
    /// [`TelemetryLog::truncated_tail`]; a malformed line anywhere
    /// else is an error — silent partial parses would make
    /// `mramsim stats` lie.
    ///
    /// # Errors
    ///
    /// A description naming the first malformed interior line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut log = TelemetryLog::default();
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let Some(json) = Json::parse(line) else {
                if i + 1 == lines.len() {
                    log.truncated_tail = true;
                    continue;
                }
                return Err(format!("malformed telemetry line {}", i + 1));
            };
            let t_ns = json.get("t_ns").and_then(Json::as_u64).unwrap_or(0);
            match json.get("kind").and_then(Json::as_str) {
                Some("event") => {
                    let name = json
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("event without a name on line {}", i + 1))?
                        .to_owned();
                    let lane = json.get("lane").and_then(Json::as_u64).unwrap_or(0);
                    let fields = json.get("fields").cloned().unwrap_or(Json::Null);
                    log.events.push(TelemetryEvent {
                        t_ns,
                        lane,
                        name,
                        fields,
                    });
                }
                Some("metrics") => {
                    let mut snapshot = MetricsSnapshot::default();
                    if let Some(counters) = json.get("counters").and_then(Json::as_obj) {
                        for (name, v) in counters {
                            snapshot
                                .counters
                                .insert(name.clone(), v.as_u64().unwrap_or(0));
                        }
                    }
                    if let Some(gauges) = json.get("gauges").and_then(Json::as_obj) {
                        for (name, v) in gauges {
                            if let Some(v) = v.as_f64() {
                                snapshot.gauges.insert(name.clone(), v);
                            }
                        }
                    }
                    if let Some(histograms) = json.get("histograms").and_then(Json::as_obj) {
                        for (name, h) in histograms {
                            if let Some(h) = HistogramSnapshot::from_json(h) {
                                snapshot.histograms.insert(name.clone(), h);
                            }
                        }
                    }
                    log.metrics = Some(snapshot);
                }
                _ => return Err(format!("unknown telemetry line kind on line {}", i + 1)),
            }
        }
        Ok(log)
    }

    /// Reads and parses the log at `path`.
    ///
    /// # Errors
    ///
    /// I/O failures and interior malformed lines, rendered as text.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = fs::read_to_string(path)
            .map_err(|e| format!("cannot read telemetry log {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Reconstructs the hierarchical span tree from the paired
    /// `span.begin` / `span.end` events in this log.
    #[must_use]
    pub fn span_tree(&self) -> SpanTree {
        SpanTree::build(self)
    }

    /// The largest `t_ns` on any line — the log's time horizon, used
    /// to close out unfinished spans in exports.
    #[must_use]
    pub fn horizon_ns(&self) -> u64 {
        self.events.iter().map(|e| e.t_ns).max().unwrap_or(0)
    }
}

/// One reconstructed hierarchical span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Process-unique span id from the run.
    pub id: u64,
    /// Parent span id (0 = a root span).
    pub parent: u64,
    /// Lane (thread) the span began on.
    pub lane: u64,
    /// Span name (`sweep`, `job`, `compute`, …).
    pub name: String,
    /// `t_ns` of the `span.begin` line.
    pub begin_ns: u64,
    /// `t_ns` of the `span.end` line; `None` when the run died with
    /// the span still open.
    pub end_ns: Option<u64>,
    /// Extra fields attached to the `span.begin` event (minus the
    /// structural `id`/`parent`/`span` keys).
    pub fields: Json,
    /// Indices into [`SpanTree::spans`] of this span's children, in
    /// begin order.
    pub children: Vec<usize>,
}

impl SpanNode {
    /// The span's duration against `horizon_ns` for unfinished spans.
    #[must_use]
    pub fn duration_ns(&self, horizon_ns: u64) -> u64 {
        self.end_ns
            .unwrap_or(horizon_ns)
            .saturating_sub(self.begin_ns)
    }
}

/// The reconstructed span forest of one run log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTree {
    /// Every span, in `span.begin` order.
    pub spans: Vec<SpanNode>,
    /// Indices of parentless spans, in begin order.
    pub roots: Vec<usize>,
    /// Lane id → label, from `lane.label` events.
    pub lane_labels: BTreeMap<u64, String>,
    /// Ids named by a `span.end` with no matching `span.begin` —
    /// always a corruption sign, surfaced by [`SpanTree::check`].
    pub orphan_ends: Vec<u64>,
}

impl SpanTree {
    /// Builds the tree from `log`'s events.
    #[must_use]
    pub fn build(log: &TelemetryLog) -> Self {
        let mut tree = SpanTree::default();
        let mut index_of: BTreeMap<u64, usize> = BTreeMap::new();
        for event in &log.events {
            match event.name.as_str() {
                "span.begin" => {
                    let Some(id) = event.u64("id") else { continue };
                    let parent = event.u64("parent").unwrap_or(0);
                    let mut fields = match &event.fields {
                        Json::Obj(map) => map.clone(),
                        _ => BTreeMap::new(),
                    };
                    let name = fields
                        .remove("span")
                        .and_then(|j| j.as_str().map(str::to_owned))
                        .unwrap_or_else(|| "?".to_owned());
                    fields.remove("id");
                    fields.remove("parent");
                    index_of.insert(id, tree.spans.len());
                    tree.spans.push(SpanNode {
                        id,
                        parent,
                        lane: event.lane,
                        name,
                        begin_ns: event.t_ns,
                        end_ns: None,
                        fields: Json::Obj(fields),
                        children: Vec::new(),
                    });
                }
                "span.end" => {
                    let Some(id) = event.u64("id") else { continue };
                    match index_of.get(&id) {
                        Some(&i) => tree.spans[i].end_ns = Some(event.t_ns),
                        None => tree.orphan_ends.push(id),
                    }
                }
                "lane.label" => {
                    if let Some(label) = event.text("label") {
                        tree.lane_labels.insert(event.lane, label.to_owned());
                    }
                }
                _ => {}
            }
        }
        for i in 0..tree.spans.len() {
            let parent = tree.spans[i].parent;
            match (parent != 0).then(|| index_of.get(&parent)).flatten() {
                Some(&p) => tree.spans[p].children.push(i),
                // Parentless, or the parent began before the log
                // started: treat as a root.
                None => tree.roots.push(i),
            }
        }
        tree
    }

    /// The span with id `id`.
    #[must_use]
    pub fn by_id(&self, id: u64) -> Option<&SpanNode> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Validates structural integrity: every `span.end` matched a
    /// begin, every span closed, and every child's interval nests
    /// inside its parent's.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn check(&self) -> Result<(), String> {
        if let Some(id) = self.orphan_ends.first() {
            return Err(format!("span.end for id {id} has no matching span.begin"));
        }
        for span in &self.spans {
            let Some(end) = span.end_ns else {
                return Err(format!("span {} `{}` never ended", span.id, span.name));
            };
            if span.parent != 0 {
                let parent = self.by_id(span.parent).ok_or_else(|| {
                    format!("span {} has unknown parent {}", span.id, span.parent)
                })?;
                let parent_end = parent.end_ns.unwrap_or(u64::MAX);
                if span.begin_ns < parent.begin_ns || end > parent_end {
                    return Err(format!(
                        "span {} `{}` [{}, {}] escapes parent {} `{}` [{}, {}]",
                        span.id,
                        span.name,
                        span.begin_ns,
                        end,
                        parent.id,
                        parent.name,
                        parent.begin_ns,
                        parent_end,
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRecorder;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "mramsim-telemetry-{tag}-{}.telemetry",
            std::process::id()
        ))
    }

    #[test]
    fn events_and_snapshot_round_trip_through_the_file() {
        let path = temp_path("roundtrip");
        let (clock, handle) = Clock::test();
        let log = JsonlRecorder::create(&path, clock).unwrap();
        handle.set_nanos(42);
        log.event(
            "job.done",
            &[
                ("index", Value::U64(3)),
                ("source", Value::Text("computed".into())),
                ("duration_ns", Value::U64(1_234_567)),
                ("ok", Value::Bool(true)),
            ],
        );
        let metrics = MetricsRecorder::new();
        metrics.counter_add("engine.jobs", 9);
        metrics.gauge_set("pool.queue_depth", 4.0);
        metrics.observe("engine.compute_s", 0.25);
        log.write_snapshot(&metrics.snapshot());

        let parsed = TelemetryLog::load(&path).unwrap();
        assert!(!parsed.truncated_tail);
        assert_eq!(parsed.events.len(), 1);
        let event = &parsed.events[0];
        assert_eq!((event.name.as_str(), event.t_ns), ("job.done", 42));
        assert_eq!(event.u64("index"), Some(3));
        assert_eq!(event.text("source"), Some("computed"));
        assert_eq!(event.u64("duration_ns"), Some(1_234_567));
        let snap = parsed.metrics.unwrap();
        assert_eq!(snap.counter("engine.jobs"), 9);
        assert_eq!(snap.gauges["pool.queue_depth"], 4.0);
        assert_eq!(snap.histograms["engine.compute_s"].count, 1);
        assert_eq!(snap, metrics.snapshot(), "snapshot must round-trip exactly");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn logging_continues_after_a_panic_poisons_the_lock() {
        let path = temp_path("poisoned");
        let (clock, handle) = Clock::test();
        let log = JsonlRecorder::create(&path, clock).unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = log.file.lock().unwrap();
            panic!("a job dies while holding the log lock");
        }));
        assert!(panicked.is_err() && log.file.is_poisoned());
        handle.set_nanos(7);
        log.event("job.done", &[("index", Value::U64(1))]);
        let metrics = MetricsRecorder::new();
        metrics.counter_add("engine.jobs", 1);
        log.write_snapshot(&metrics.snapshot());

        let parsed = TelemetryLog::load(&path).unwrap();
        assert!(!parsed.truncated_tail);
        assert_eq!(parsed.events.len(), 1);
        assert_eq!(parsed.events[0].name, "job.done");
        assert_eq!(parsed.events[0].u64("index"), Some(1));
        assert_eq!(parsed.metrics.unwrap().counter("engine.jobs"), 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_is_tolerated_interior_garbage_is_not() {
        let good = r#"{"kind":"event","t_ns":1,"name":"a","fields":{}}"#;
        let tail_cut = format!("{good}\n{{\"kind\":\"ev");
        let parsed = TelemetryLog::parse(&tail_cut).unwrap();
        assert_eq!(parsed.events.len(), 1);
        assert!(parsed.truncated_tail);

        let interior = format!("{{broken}}\n{good}");
        assert!(TelemetryLog::parse(&interior).is_err());
        let unknown_kind = r#"{"kind":"mystery","t_ns":1}"#;
        assert!(TelemetryLog::parse(&format!("{unknown_kind}\n{good}")).is_err());
    }

    #[test]
    fn empty_log_parses_to_empty() {
        let log = TelemetryLog::parse("").unwrap();
        assert!(log.events.is_empty());
        assert!(log.metrics.is_none());
    }

    fn span_line(t: u64, lane: u64, name: &str, fields: &str) -> String {
        format!(r#"{{"kind":"event","t_ns":{t},"lane":{lane},"name":"{name}","fields":{fields}}}"#)
    }

    #[test]
    fn span_tree_rebuilds_nesting_lanes_and_labels() {
        let text = [
            span_line(0, 1, "lane.label", r#"{"label":"main"}"#),
            span_line(10, 1, "span.begin", r#"{"id":1,"span":"sweep"}"#),
            span_line(
                20,
                2,
                "span.begin",
                r#"{"id":2,"parent":1,"span":"job","index":0}"#,
            ),
            span_line(30, 2, "span.end", r#"{"id":2,"span":"job"}"#),
            span_line(
                35,
                3,
                "span.begin",
                r#"{"id":3,"parent":1,"span":"job","index":1}"#,
            ),
            span_line(50, 3, "span.end", r#"{"id":3,"span":"job"}"#),
            span_line(60, 1, "span.end", r#"{"id":1,"span":"sweep"}"#),
        ]
        .join("\n");
        let log = TelemetryLog::parse(&text).unwrap();
        let tree = log.span_tree();
        tree.check().unwrap();
        assert_eq!(tree.roots, vec![0]);
        let root = &tree.spans[0];
        assert_eq!((root.name.as_str(), root.lane), ("sweep", 1));
        assert_eq!(root.children, vec![1, 2]);
        assert_eq!(root.duration_ns(log.horizon_ns()), 50);
        let job = &tree.spans[1];
        assert_eq!((job.parent, job.lane, job.end_ns), (1, 2, Some(30)));
        assert_eq!(job.fields.get("index").and_then(Json::as_u64), Some(0));
        assert_eq!(tree.lane_labels.get(&1).map(String::as_str), Some("main"));
    }

    #[test]
    fn span_tree_check_flags_orphans_unclosed_and_escapes() {
        let orphan = span_line(5, 1, "span.end", r#"{"id":9,"span":"ghost"}"#);
        let tree = TelemetryLog::parse(&orphan).unwrap().span_tree();
        assert!(tree.check().unwrap_err().contains("no matching"));

        let unclosed = span_line(5, 1, "span.begin", r#"{"id":1,"span":"open"}"#);
        let tree = TelemetryLog::parse(&unclosed).unwrap().span_tree();
        assert!(tree.check().unwrap_err().contains("never ended"));

        let escape = [
            span_line(10, 1, "span.begin", r#"{"id":1,"span":"outer"}"#),
            span_line(20, 1, "span.begin", r#"{"id":2,"parent":1,"span":"inner"}"#),
            span_line(30, 1, "span.end", r#"{"id":1,"span":"outer"}"#),
            span_line(40, 1, "span.end", r#"{"id":2,"span":"inner"}"#),
        ]
        .join("\n");
        let tree = TelemetryLog::parse(&escape).unwrap().span_tree();
        assert!(tree.check().unwrap_err().contains("escapes parent"));
    }
}
