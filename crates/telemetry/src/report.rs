//! Post-run rendering of a telemetry log: the engine behind
//! `mramsim stats <run-id>`.
//!
//! Everything here is best-effort over whatever the log actually
//! contains — a partial log from a killed run still renders, with the
//! missing sections simply absent.

use crate::jsonl::{SpanTree, TelemetryLog};
use crate::metrics::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders a human-readable duration with a stable width-ish format.
#[must_use]
pub fn format_secs(seconds: f64) -> String {
    if !seconds.is_finite() {
        return "-".to_owned();
    }
    if seconds < 1e-3 {
        format!("{:.1}µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.1}ms", seconds * 1e3)
    } else if seconds < 120.0 {
        format!("{seconds:.2}s")
    } else {
        format!("{:.1}min", seconds / 60.0)
    }
}

fn format_count(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// The wall-clock span of the run, in seconds: the `sweep.end`
/// duration when present, else the spread of event timestamps.
#[must_use]
pub fn wall_seconds(log: &TelemetryLog) -> f64 {
    if let Some(end) = log.events.iter().rev().find(|e| e.name == "sweep.end") {
        if let Some(ns) = end.u64("duration_ns") {
            return ns as f64 / 1e9;
        }
    }
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for event in &log.events {
        lo = lo.min(event.t_ns);
        hi = hi.max(event.t_ns);
    }
    if hi > lo {
        (hi - lo) as f64 / 1e9
    } else {
        0.0
    }
}

/// The per-job phases the engine times, in display order: histogram
/// name and human label. The sums of these are disjoint per job, so
/// together they are the attributable busy time (the run comparison
/// in [`crate::diff`] walks the same list).
pub const PHASES: [(&str, &str); 4] = [
    ("engine.compute_s", "compute"),
    ("engine.disk_load_s", "disk load"),
    ("engine.warm_lookup_s", "warm lookup"),
    ("journal.flush_s", "journal flush"),
];

fn phase_breakdown(out: &mut String, snapshot: &MetricsSnapshot) {
    let rows: Vec<(&str, f64, u64)> = PHASES
        .iter()
        .filter_map(|(name, label)| {
            snapshot
                .histograms
                .get(*name)
                .map(|h| (*label, h.sum, h.count))
        })
        .filter(|(_, _, count)| *count > 0)
        .collect();
    if rows.is_empty() {
        return;
    }
    let total: f64 = rows.iter().map(|(_, sum, _)| sum).sum();
    out.push_str("phase breakdown (attributed busy time):\n");
    for (label, sum, count) in rows {
        let _ = writeln!(
            out,
            "  {label:<14} {:>9}  {:>5.1}%  ({count} obs)",
            format_secs(sum),
            if total > 0.0 {
                100.0 * sum / total
            } else {
                0.0
            },
        );
    }
    out.push('\n');
}

fn histogram_table(out: &mut String, snapshot: &MetricsSnapshot) {
    if snapshot.histograms.is_empty() {
        return;
    }
    out.push_str("latency histograms:\n");
    let _ = writeln!(
        out,
        "  {:<24} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "name", "count", "mean", "p50", "p90", "max"
    );
    for (name, h) in &snapshot.histograms {
        let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), format_secs);
        let _ = writeln!(
            out,
            "  {name:<24} {:>7} {:>9} {:>9} {:>9} {:>9}",
            h.count,
            fmt(h.mean()),
            fmt(h.quantile(0.5)),
            fmt(h.quantile(0.9)),
            fmt(h.max),
        );
    }
    out.push('\n');
}

fn counters_block(out: &mut String, snapshot: &MetricsSnapshot) {
    if snapshot.counters.is_empty() {
        return;
    }
    out.push_str("counters:\n");
    for (name, value) in &snapshot.counters {
        let _ = writeln!(out, "  {name:<28} {}", format_count(*value));
    }
    out.push('\n');
}

fn gauges_block(out: &mut String, snapshot: &MetricsSnapshot) {
    if snapshot.gauges.is_empty() {
        return;
    }
    out.push_str("gauges:\n");
    for (name, value) in &snapshot.gauges {
        let text = if value.fract() == 0.0 && value.abs() < 1e15 {
            format!("{value:.0}")
        } else {
            format!("{value:.3}")
        };
        let _ = writeln!(out, "  {name:<28} {text}");
    }
    out.push('\n');
}

fn slowest_jobs(out: &mut String, log: &TelemetryLog) {
    let mut jobs: Vec<(u64, u64, String)> = log
        .events
        .iter()
        .filter(|e| e.name == "job.done")
        .filter_map(|e| {
            Some((
                e.u64("duration_ns")?,
                e.u64("index")?,
                e.text("source").unwrap_or("?").to_owned(),
            ))
        })
        .collect();
    if jobs.is_empty() {
        return;
    }
    jobs.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    out.push_str("slowest jobs:\n");
    for (duration_ns, index, source) in jobs.iter().take(8) {
        let _ = writeln!(
            out,
            "  #{index:<5} {source:<9} {}",
            format_secs(*duration_ns as f64 / 1e9)
        );
    }
    out.push('\n');
}

/// Per-lane busy intervals: every span interval on the lane, merged.
fn lane_intervals(tree: &SpanTree, lane: u64, horizon: u64) -> Vec<(u64, u64)> {
    let mut intervals: Vec<(u64, u64)> = tree
        .spans
        .iter()
        .filter(|s| s.lane == lane)
        .map(|s| (s.begin_ns, s.end_ns.unwrap_or(horizon).max(s.begin_ns)))
        .collect();
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (lo, hi) in intervals {
        match merged.last_mut() {
            Some((_, last_hi)) if lo <= *last_hi => *last_hi = (*last_hi).max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    merged
}

/// The per-worker utilization timeline: one row per lane, busy time
/// bucketed over the run window and rendered as a density bar.
fn lane_timeline(out: &mut String, log: &TelemetryLog, tree: &SpanTree) {
    const WIDTH: usize = 40;
    if tree.spans.is_empty() {
        return;
    }
    let horizon = log.horizon_ns();
    let window_lo = tree.spans.iter().map(|s| s.begin_ns).min().unwrap_or(0);
    let window_hi = tree
        .spans
        .iter()
        .map(|s| s.end_ns.unwrap_or(horizon))
        .max()
        .unwrap_or(window_lo);
    if window_hi <= window_lo {
        return;
    }
    let window = (window_hi - window_lo) as f64;
    let mut lanes: Vec<u64> = tree.spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let _ = writeln!(
        out,
        "worker timeline ({WIDTH} buckets over {}):",
        format_secs(window / 1e9)
    );
    for lane in lanes {
        let merged = lane_intervals(tree, lane, horizon);
        let busy_ns: u64 = merged.iter().map(|(lo, hi)| hi - lo).sum();
        let mut bar = String::with_capacity(WIDTH * 3);
        for bucket in 0..WIDTH {
            let b_lo = window_lo as f64 + window * bucket as f64 / WIDTH as f64;
            let b_hi = window_lo as f64 + window * (bucket + 1) as f64 / WIDTH as f64;
            let overlap: f64 = merged
                .iter()
                .map(|&(lo, hi)| (hi as f64).min(b_hi) - (lo as f64).max(b_lo))
                .filter(|d| *d > 0.0)
                .sum();
            let fill = overlap / (b_hi - b_lo);
            bar.push(if fill <= 0.0 {
                '·'
            } else if fill <= 0.25 {
                '░'
            } else if fill <= 0.75 {
                '▒'
            } else {
                '█'
            });
        }
        let label = tree
            .lane_labels
            .get(&lane)
            .cloned()
            .unwrap_or_else(|| format!("lane {lane}"));
        let _ = writeln!(
            out,
            "  {label:<12} {bar}  {:>5.1}% busy",
            100.0 * busy_ns as f64 / window,
        );
    }
    out.push('\n');
}

/// One human label for a span on the critical path, folding in the
/// most useful begin fields (job index, shard, scenario).
fn span_label(span: &crate::jsonl::SpanNode) -> String {
    let mut label = span.name.clone();
    if let Some(index) = span.fields.get("index").and_then(crate::Json::as_u64) {
        let _ = write!(label, " #{index}");
    }
    if let Some(shard) = span.fields.get("shard").and_then(crate::Json::as_u64) {
        let _ = write!(label, " shard {shard}");
    }
    label
}

/// Renders the `--critical-path` analysis: the chain of spans ending
/// at the last-finishing leaf, and its wall clock split by span name
/// (`job: compute`, `sweep: job`); time that no child of a link's
/// parent covers is `<parent>: unattributed`, outside the attributed
/// share.
#[must_use]
pub fn render_critical_path(log: &TelemetryLog) -> String {
    let tree = log.span_tree();
    let horizon = log.horizon_ns();
    let mut out = String::new();
    let Some(&root) = tree.roots.iter().max_by_key(|&&i| {
        // Prefer the sweep root; fall back to the longest root span.
        (
            tree.spans[i].name == "sweep",
            tree.spans[i].duration_ns(horizon),
        )
    }) else {
        out.push_str("no hierarchical spans in this log (recorded before trace trees?)\n");
        return out;
    };

    // Walk to the last-finishing child at every level: the chain whose
    // completion gated the run.
    let mut chain = vec![root];
    let mut at = root;
    while let Some(&next) = tree.spans[at]
        .children
        .iter()
        .max_by_key(|&&c| tree.spans[c].end_ns.unwrap_or(horizon))
    {
        chain.push(next);
        at = next;
    }

    let root_span = &tree.spans[root];
    let root_begin = root_span.begin_ns;
    let root_dur = root_span.duration_ns(horizon).max(1);
    let _ = writeln!(
        out,
        "critical path — chain to the last-finishing span ({} deep, {} wall clock):",
        chain.len(),
        format_secs(root_dur as f64 / 1e9),
    );
    for (depth, &i) in chain.iter().enumerate() {
        let span = &tree.spans[i];
        let _ = writeln!(
            out,
            "  {:indent$}{:<24} {:>9}  lane {:<4} starts +{}",
            "",
            span_label(span),
            format_secs(span.duration_ns(horizon) as f64 / 1e9),
            span.lane,
            format_secs(span.begin_ns.saturating_sub(root_begin) as f64 / 1e9),
            indent = depth * 2,
        );
    }
    out.push('\n');

    // Attribution: the leaf contributes its whole body; on every link
    // the parent's time before and after its chain child goes to the
    // parent's other children, each instant to the one that began
    // first, and the rest is the parent's unattributed share.
    let end = |i: usize| tree.spans[i].end_ns.unwrap_or(horizon);
    let leaf = &tree.spans[*chain.last().expect("chain is never empty")];
    let mut totals = BTreeMap::from([(span_label(leaf), leaf.duration_ns(horizon))]);
    let mut unattributed = 0u64;
    for pair in chain.windows(2) {
        let (parent, child) = (&tree.spans[pair[0]], pair[1]);
        let (p_begin, p_end) = (parent.begin_ns, end(pair[0]));
        let c_begin = tree.spans[child].begin_ns.clamp(p_begin, p_end);
        let mut gap = 0;
        for (mut at, hi) in [
            (p_begin, c_begin),
            (end(child).clamp(c_begin, p_end), p_end),
        ] {
            for &other in parent.children.iter().filter(|&&c| c != child) {
                let (b, e) = (tree.spans[other].begin_ns.max(at), end(other).min(hi));
                if e > b {
                    gap += b - at;
                    let label = format!("{}: {}", parent.name, tree.spans[other].name);
                    *totals.entry(label).or_default() += e - b;
                    at = e;
                }
            }
            gap += hi - at;
        }
        if gap > 0 {
            let label = format!("{}: unattributed", parent.name);
            *totals.entry(label).or_default() += gap;
            unattributed += gap;
        }
    }
    let mut segments: Vec<(String, u64)> = totals.into_iter().collect();
    segments.sort_by_key(|segment| std::cmp::Reverse(segment.1));

    out.push_str("wall-clock attribution along the critical path:\n");
    for (label, ns) in &segments {
        let _ = writeln!(
            out,
            "  {label:<36} {:>9}  {:>5.1}%",
            format_secs(*ns as f64 / 1e9),
            100.0 * *ns as f64 / root_dur as f64,
        );
    }
    let _ = writeln!(
        out,
        "attributed: {:.1}% of the {} critical-path wall clock",
        100.0 * root_dur.saturating_sub(unattributed) as f64 / root_dur as f64,
        format_secs(root_dur as f64 / 1e9),
    );
    out
}

/// Renders the full post-run report.
#[must_use]
pub fn render_stats(log: &TelemetryLog) -> String {
    let mut out = String::new();
    let start = log.events.iter().find(|e| e.name == "sweep.start");
    match start {
        Some(start) => {
            let _ = writeln!(
                out,
                "telemetry report — `{}`: {} job(s) on {} worker(s)",
                start.text("scenario").unwrap_or("?"),
                start.u64("jobs").map_or("?".into(), |n| n.to_string()),
                start.u64("workers").map_or("?".into(), |n| n.to_string()),
            );
        }
        None => out.push_str("telemetry report\n"),
    }
    let wall = wall_seconds(log);
    let _ = writeln!(
        out,
        "wall clock: {} · {} event(s){}",
        format_secs(wall),
        log.events.len(),
        if log.truncated_tail {
            " · tail truncated (killed run?)"
        } else {
            ""
        }
    );

    let tree = log.span_tree();
    let Some(snapshot) = &log.metrics else {
        out.push_str("no metrics snapshot in this log (run was interrupted?)\n");
        lane_timeline(&mut out, log, &tree);
        slowest_jobs(&mut out, log);
        return out;
    };
    // Throughput summary: jobs by source, pool utilization, solver
    // rates — each line only when its counters exist.
    let done = log.events.iter().filter(|e| e.name == "job.done").count();
    if done > 0 && wall > 0.0 {
        let _ = writeln!(out, "jobs/s: {:.2}", done as f64 / wall);
    }
    // A worker out of jobs that helps a running job's campaign batch is
    // busy outside every job's time: `pool.help_ns` adds it back.
    let busy_ns = snapshot.counter("engine.busy_ns") + snapshot.counter("pool.help_ns");
    if busy_ns > 0 && wall > 0.0 {
        if let Some(workers) = start.and_then(|s| s.u64("workers")) {
            let busy = busy_ns as f64 / 1e9;
            let _ = writeln!(
                out,
                "pool utilization: {:.1}% (busy {} over {workers} worker(s) × {})",
                100.0 * busy / (wall * workers as f64),
                format_secs(busy),
                format_secs(wall),
            );
        }
    }
    let trajectories = snapshot.counter("llgs.trajectories");
    if trajectories > 0 {
        let solver_s: f64 = snapshot
            .histograms
            .get("llgs.block_s")
            .map_or(0.0, |h| h.sum);
        let rate = if solver_s > 0.0 {
            format!(
                " ({} trajectories/s)",
                format_count((trajectories as f64 / solver_s) as u64)
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "solver: {} trajectories, {} steps, {} thermal draws{rate}",
            format_count(trajectories),
            format_count(snapshot.counter("llgs.steps")),
            format_count(snapshot.counter("llgs.thermal_draws")),
        );
    }
    out.push('\n');
    lane_timeline(&mut out, log, &tree);
    phase_breakdown(&mut out, snapshot);
    slowest_jobs(&mut out, log);
    histogram_table(&mut out, snapshot);
    counters_block(&mut out, snapshot);
    gauges_block(&mut out, snapshot);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::JsonlRecorder;
    use crate::metrics::MetricsRecorder;
    use crate::recorder::{Recorder, Value};
    use crate::Clock;

    #[test]
    fn report_covers_phases_jobs_and_histograms() {
        let path = std::env::temp_dir().join(format!(
            "mramsim-telemetry-report-{}.telemetry",
            std::process::id()
        ));
        let (clock, handle) = Clock::test();
        let sink = JsonlRecorder::create(&path, clock).unwrap();
        sink.event(
            "sweep.start",
            &[
                ("scenario", Value::Text("array-wer".into())),
                ("jobs", Value::U64(4)),
                ("workers", Value::U64(2)),
            ],
        );
        let metrics = MetricsRecorder::new();
        for (index, (duration_ns, source)) in [
            (2_000_000_000u64, "computed"),
            (1_000_000_000, "computed"),
            (1_000_000, "disk"),
            (5_000, "warm"),
        ]
        .iter()
        .enumerate()
        {
            handle.advance(std::time::Duration::from_nanos(*duration_ns));
            sink.event(
                "job.done",
                &[
                    ("index", Value::U64(index as u64)),
                    ("source", Value::Text((*source).into())),
                    ("duration_ns", Value::U64(*duration_ns)),
                ],
            );
            let secs = *duration_ns as f64 / 1e9;
            metrics.counter_add("engine.busy_ns", *duration_ns);
            match *source {
                "computed" => metrics.observe("engine.compute_s", secs),
                "disk" => metrics.observe("engine.disk_load_s", secs),
                _ => metrics.observe("engine.warm_lookup_s", secs),
            }
        }
        metrics.gauge_set("kernel_cache.hits", 12.0);
        metrics.gauge_set("kernel.tail_bound_oe", 22.378);
        sink.event("sweep.end", &[("duration_ns", Value::U64(3_100_000_000))]);
        sink.write_snapshot(&metrics.snapshot());

        let log = TelemetryLog::load(&path).unwrap();
        let report = render_stats(&log);
        assert!(report.contains("`array-wer`"), "{report}");
        assert!(report.contains("4 job(s) on 2 worker(s)"), "{report}");
        assert!(report.contains("compute"), "{report}");
        assert!(report.contains("disk load"), "{report}");
        assert!(report.contains("slowest jobs:"), "{report}");
        // The slowest job leads the list.
        let slow = report.split("slowest jobs:\n").nth(1).unwrap();
        assert!(slow.trim_start().starts_with("#0"), "{report}");
        assert!(report.contains("pool utilization"), "{report}");
        // Gauges render as a block: integral values without a point,
        // fractional ones to 3 places.
        assert!(report.contains("gauges:"), "{report}");
        assert!(report.contains("kernel_cache.hits"), "{report}");
        let gauges = report.split("gauges:\n").nth(1).unwrap();
        assert!(gauges.contains(" 12\n"), "{report}");
        assert!(gauges.contains("22.378"), "{report}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_log_renders_without_panicking() {
        let report = render_stats(&TelemetryLog::default());
        assert!(report.contains("telemetry report"));
        assert!(report.contains("no metrics snapshot"));
    }

    fn span_log() -> TelemetryLog {
        // sweep [0, 100ms] on lane 1; two jobs on lane 2: #0 [10, 30],
        // #1 [40, 90] with a compute child [45, 85] and a journal.flush
        // child [86, 89]. The critical path is sweep → job #1 →
        // journal.flush.
        let line = |t: u64, lane: u64, name: &str, fields: &str| {
            format!(
                r#"{{"kind":"event","t_ns":{t},"lane":{lane},"name":"{name}","fields":{fields}}}"#
            )
        };
        let ms = 1_000_000u64;
        let text = [
            line(0, 1, "lane.label", r#"{"label":"main"}"#),
            line(0, 1, "span.begin", r#"{"id":1,"span":"sweep"}"#),
            line(10 * ms, 2, "lane.label", r#"{"label":"worker 0"}"#),
            line(
                10 * ms,
                2,
                "span.begin",
                r#"{"id":2,"parent":1,"span":"job","index":0}"#,
            ),
            line(30 * ms, 2, "span.end", r#"{"id":2,"span":"job"}"#),
            line(
                40 * ms,
                2,
                "span.begin",
                r#"{"id":3,"parent":1,"span":"job","index":1}"#,
            ),
            line(
                45 * ms,
                2,
                "span.begin",
                r#"{"id":4,"parent":3,"span":"compute"}"#,
            ),
            line(85 * ms, 2, "span.end", r#"{"id":4,"span":"compute"}"#),
            line(
                86 * ms,
                2,
                "span.begin",
                r#"{"id":5,"parent":3,"span":"journal.flush"}"#,
            ),
            line(89 * ms, 2, "span.end", r#"{"id":5,"span":"journal.flush"}"#),
            line(90 * ms, 2, "span.end", r#"{"id":3,"span":"job"}"#),
            line(100 * ms, 1, "span.end", r#"{"id":1,"span":"sweep"}"#),
        ]
        .join("\n");
        TelemetryLog::parse(&text).unwrap()
    }

    #[test]
    fn critical_path_walks_to_the_last_finisher_and_attributes_everything() {
        let report = render_critical_path(&span_log());
        assert!(report.contains("3 deep"), "{report}");
        assert!(report.contains("job #1"), "{report}");
        assert!(!report.contains("job #0"), "job #0 is off-path: {report}");
        let row = |label: &str, ms: &str| {
            report
                .lines()
                .any(|l| l.trim_start().starts_with(label) && l.contains(ms))
        };
        // The compute sibling that ran before the last finisher is
        // compute, not waiting.
        assert!(!report.contains("wait before"), "{report}");
        assert!(row("job: compute ", "40.0ms"), "{report}");
        assert!(row("job: unattributed ", "7.0ms"), "{report}");
        assert!(row("sweep: job ", "20.0ms"), "{report}");
        assert!(row("sweep: unattributed ", "30.0ms"), "{report}");
        assert!(row("journal.flush ", "3.0ms"), "{report}");
        // Every segment is accounted for; only the named ones count as
        // attributed.
        assert!(
            report.contains("attributed: 63.0% of the 100.0ms"),
            "{report}"
        );
    }

    #[test]
    fn critical_path_without_spans_degrades_gracefully() {
        let report = render_critical_path(&TelemetryLog::default());
        assert!(report.contains("no hierarchical spans"), "{report}");
    }

    #[test]
    fn stats_include_a_worker_timeline_when_spans_exist() {
        let report = render_stats(&span_log());
        assert!(report.contains("worker timeline"), "{report}");
        assert!(report.contains("worker 0"), "{report}");
        assert!(report.contains("% busy"), "{report}");
    }

    #[test]
    fn pool_utilization_counts_help_as_busy_like_the_timeline() {
        // Two workers over 100 ms: worker 0 runs job #0 throughout;
        // worker 1 runs job #1 for 40 ms, then helps #0's batch outside
        // any job of its own. Both are busy the whole time.
        let line = |t: u64, lane: u64, name: &str, fields: &str| {
            format!(
                r#"{{"kind":"event","t_ns":{t},"lane":{lane},"name":"{name}","fields":{fields}}}"#
            )
        };
        let ms = 1_000_000u64;
        let text = [
            line(0, 1, "sweep.start", r#"{"jobs":2,"workers":2}"#),
            line(0, 2, "lane.label", r#"{"label":"worker 0"}"#),
            line(0, 2, "span.begin", r#"{"id":1,"span":"job","index":0}"#),
            line(0, 3, "lane.label", r#"{"label":"worker 1"}"#),
            line(0, 3, "span.begin", r#"{"id":2,"span":"job","index":1}"#),
            line(40 * ms, 3, "span.end", r#"{"id":2,"span":"job"}"#),
            line(
                40 * ms,
                3,
                "span.begin",
                r#"{"id":3,"parent":1,"span":"wer.help"}"#,
            ),
            line(100 * ms, 3, "span.end", r#"{"id":3,"span":"wer.help"}"#),
            line(100 * ms, 2, "span.end", r#"{"id":1,"span":"job"}"#),
            line(100 * ms, 1, "sweep.end", r#"{"duration_ns":100000000}"#),
            format!(
                r#"{{"kind":"metrics","t_ns":{},"counters":{{"engine.busy_ns":{},"pool.help_ns":{}}}}}"#,
                100 * ms,
                140 * ms,
                60 * ms
            ),
        ]
        .join("\n");
        let report = render_stats(&TelemetryLog::parse(&text).unwrap());
        assert_eq!(report.matches("100.0% busy").count(), 2, "{report}");
        assert!(report.contains("pool utilization: 100.0%"), "{report}");
    }

    #[test]
    fn durations_format_across_scales() {
        assert_eq!(format_secs(2.5e-6), "2.5µs");
        assert_eq!(format_secs(3.2e-3), "3.2ms");
        assert_eq!(format_secs(1.25), "1.25s");
        assert_eq!(format_secs(300.0), "5.0min");
        assert_eq!(format_secs(f64::NAN), "-");
    }
}
