//! Observability integration: the telemetry pipeline against *real*
//! sweeps. Two properties matter — the JSONL run log round-trips with
//! every line parseable and the per-job accounting consistent, and
//! telemetry is strictly write-only: enabling it must not move a single
//! byte of scientific output or a single cache key.

use mramsim_engine::cache::ResultCache;
use mramsim_engine::{Engine, ParamSet, SweepPlan};
use mramsim_telemetry as telemetry;
use mramsim_telemetry::{Clock, Fanout, Json, JsonlRecorder, MetricsRecorder, TelemetryLog};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Tests in this file install the process-global recorder; they must
/// not overlap with each other (the harness runs them on threads of
/// one process).
fn install_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn scratch_path(name: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    std::env::temp_dir().join(format!(
        "mramsim-telemetry-{name}-{}-{nanos}",
        std::process::id()
    ))
}

fn array_wer_plan() -> SweepPlan {
    SweepPlan::new("array-wer")
        .fix("rows", 4.0)
        .fix("cols", 4.0)
        .fix("trajectories", 16.0)
        .fix("pulse_ns", 3.0)
        .axis("seed", vec![1.0, 2.0, 3.0, 4.0])
}

/// The window-class ensembles a sweep ran: the sum of its jobs'
/// `classes` scalars.
fn total_classes(outcome: &mramsim_engine::SweepOutcome) -> u64 {
    outcome
        .jobs
        .iter()
        .map(|job| {
            let out = job.result.as_ref().expect("job succeeded");
            out.scalar("classes").expect("classes scalar") as u64
        })
        .sum()
}

#[test]
fn jsonl_log_of_a_real_array_wer_sweep_round_trips() {
    let _serial = install_lock();
    let path = scratch_path("roundtrip").with_extension("telemetry");
    let metrics = Arc::new(MetricsRecorder::new());
    let sink = Arc::new(JsonlRecorder::create(&path, Clock::system()).expect("create log"));
    let guard = telemetry::install(Arc::new(Fanout(vec![
        metrics.clone() as Arc<dyn telemetry::Recorder>,
        sink.clone(),
    ])));

    let engine = Engine::standard().with_workers(2);
    let plan = array_wer_plan();
    let outcome = engine.sweep(&plan).expect("sweep runs");
    sink.write_snapshot(&metrics.snapshot());
    drop(guard);
    assert_eq!(outcome.errors, 0, "array-wer jobs all succeed");

    // Every line of the file must parse — `load` is Err on any interior
    // malformation, so a successful load *is* the line-by-line check.
    let log = TelemetryLog::load(&path).expect("log parses");
    assert!(!log.truncated_tail, "file was closed cleanly");
    let metrics_snapshot = log.metrics.as_ref().expect("snapshot line present");

    let starts: Vec<_> = log
        .events
        .iter()
        .filter(|e| e.name == "sweep.start")
        .collect();
    let jobs: Vec<_> = log.events.iter().filter(|e| e.name == "job.done").collect();
    let ends: Vec<_> = log
        .events
        .iter()
        .filter(|e| e.name == "sweep.end")
        .collect();
    assert_eq!(starts.len(), 1);
    assert_eq!(ends.len(), 1);
    assert_eq!(jobs.len(), plan.len(), "one job.done event per grid point");
    assert_eq!(starts[0].text("scenario"), Some("array-wer"));
    assert_eq!(starts[0].u64("jobs"), Some(plan.len() as u64));

    // Per-job accounting: all four jobs computed fresh and their summed
    // durations can never exceed the workers' aggregate wall budget.
    let mut busy = Duration::ZERO;
    for job in &jobs {
        assert_eq!(job.text("source"), Some("computed"));
        let d = job.u64("duration_ns").expect("duration recorded");
        assert!(d > 0, "computed jobs take measurable time");
        busy += Duration::from_nanos(d);
    }
    let budget = outcome.duration * engine.workers() as u32;
    assert!(
        busy <= budget + budget / 10,
        "job durations {busy:?} exceed wall x workers {budget:?} by >10%"
    );
    // …and a compute-bound sweep keeps the pool meaningfully busy (a
    // deliberately loose floor so a loaded CI machine cannot flake it).
    assert!(
        busy * 2 >= outcome.duration,
        "jobs {busy:?} cover under half of one worker's wall {:?}",
        outcome.duration
    );

    // The snapshot agrees with the outputs: one WER estimate per window
    // class of each job (the jobs' `classes` scalars), 16 trajectories
    // behind each.
    let classes = total_classes(&outcome);
    assert!(classes < 16 * plan.len() as u64, "cells share ensembles");
    assert_eq!(metrics_snapshot.counter("llgs.wer_estimates"), classes);
    assert_eq!(metrics_snapshot.counter("llgs.trajectories"), 16 * classes);
    assert!(metrics_snapshot.counter("llgs.steps") > 0);
    assert_eq!(
        metrics_snapshot.counter("cache.memory_misses"),
        plan.len() as u64
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn campaign_counters_split_class_rows_into_runs_and_memo_hits() {
    // A seeded 2-shard campaign at 1, 2 and 4 workers: every class row
    // is either an ensemble run or a memo hit, and the ensembles run are
    // exactly the distinct windows, even when shards ask for the same
    // windows at once. Each engine starts from an empty memo and reports
    // the same split.
    let _serial = install_lock();
    let plan = SweepPlan::new("array-wer-shard")
        .fix("rows", 32.0)
        .fix("cols", 24.0)
        .fix("shard_rows", 16.0)
        .fix("trajectories", 8.0)
        .fix("pulse_ns", 2.0)
        .fix("max_radius", 2.0)
        .fix("field_tol", 60.0)
        .fix("seed", 5.0)
        .axis("shard", vec![0.0, 1.0]);
    for workers in [1, 2, 4] {
        let path = scratch_path("memo").with_extension("telemetry");
        let metrics = Arc::new(MetricsRecorder::new());
        let sink = Arc::new(JsonlRecorder::create(&path, Clock::system()).expect("create log"));
        let guard = telemetry::install(Arc::new(Fanout(vec![
            metrics.clone() as Arc<dyn telemetry::Recorder>,
            sink,
        ])));
        let outcome = Engine::standard()
            .with_workers(workers)
            .sweep(&plan)
            .expect("sweep runs");
        drop(guard);
        assert_eq!(outcome.errors, 0);
        let snapshot = metrics.snapshot();
        let log = TelemetryLog::load(&path).expect("log parses");
        let class_events: Vec<_> = log
            .events
            .iter()
            .filter(|e| e.name == "ensemble.health" && e.text("estimator") == Some("class_wer"))
            .collect();
        let windows: std::collections::BTreeSet<&str> = class_events
            .iter()
            .map(|e| e.text("window_key").expect("window key"))
            .collect();
        let ran = class_events
            .iter()
            .filter(|e| e.fields.get("ran") == Some(&Json::Bool(true)))
            .count();

        let rows = total_classes(&outcome);
        let distinct = windows.len() as u64;
        assert_eq!(snapshot.counter("campaign.classes"), rows, "{workers}");
        assert_eq!(class_events.len() as u64, rows);
        assert_eq!(
            snapshot.counter("llgs.wer_estimates"),
            distinct,
            "{workers}"
        );
        assert_eq!(ran as u64, distinct);
        assert_eq!(snapshot.counter("campaign.memo_hits"), rows - distinct);
        assert!(rows > distinct, "the shards share interior windows");
        assert_eq!(
            snapshot.gauges.get("campaign.memo_entries"),
            Some(&(distinct as f64))
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn span_tree_of_a_real_sweep_nests_every_job_under_the_root() {
    let _serial = install_lock();
    let path = scratch_path("spans").with_extension("telemetry");
    let sink = Arc::new(JsonlRecorder::create(&path, Clock::system()).expect("create log"));
    let guard = telemetry::install(sink as Arc<dyn telemetry::Recorder>);
    let engine = Engine::standard().with_workers(3);
    let plan = array_wer_plan();
    let outcome = engine.sweep(&plan).expect("sweep runs");
    drop(guard);
    assert_eq!(outcome.errors, 0);

    let log = TelemetryLog::load(&path).expect("log parses");
    let tree = log.span_tree();
    tree.check()
        .expect("begin/end pairing and parent/child nesting are sound");

    // Exactly one sweep root; everything hangs off it.
    let sweep_roots: Vec<_> = tree
        .roots
        .iter()
        .map(|&r| &tree.spans[r])
        .filter(|s| s.name == "sweep")
        .collect();
    assert_eq!(sweep_roots.len(), 1, "one sweep root span");
    let root = sweep_roots[0];
    assert!(root.end_ns.is_some(), "the sweep span closed");

    // One job span per grid point, each a direct child of the root,
    // each on a real (nonzero) worker lane.
    let jobs: Vec<_> = tree.spans.iter().filter(|s| s.name == "job").collect();
    assert_eq!(jobs.len(), plan.len(), "one job span per grid point");
    for job in &jobs {
        assert_eq!(
            job.parent, root.id,
            "job span {} must nest under the sweep root even when stolen across workers",
            job.id
        );
        assert!(job.lane > 0, "job spans carry their worker lane");
    }

    // Each fresh compute nests under a job, and the Monte-Carlo layers
    // below it (whole-array shard → campaign) are present and parented.
    let parent_name = |id: u64| {
        tree.by_id(id)
            .map(|s| s.name.as_str())
            .unwrap_or("<missing>")
    };
    for (name, parent) in [
        ("compute", "job"),
        ("campaign.shard", "compute"),
        ("wer.campaign", "campaign.shard"),
    ] {
        let spans: Vec<_> = tree.spans.iter().filter(|s| s.name == name).collect();
        assert_eq!(spans.len(), plan.len(), "one {name} span per job");
        for span in spans {
            assert_eq!(parent_name(span.parent), parent, "{name} span");
        }
    }
    // Estimator health rides along: one Wilson-interval event per
    // window class, and none per position.
    let health = |estimator: &str| {
        log.events
            .iter()
            .filter(|e| e.name == "ensemble.health" && e.text("estimator") == Some(estimator))
            .count() as u64
    };
    assert_eq!(
        health("class_wer"),
        total_classes(&outcome),
        "one health event per window class"
    );
    assert_eq!(health("cell_wer"), 0, "no positional duplicates");

    // The Chrome export of this real log is valid JSON with one
    // complete event per span.
    let rendered = telemetry::trace::chrome_trace(&log);
    let parsed = Json::parse(&rendered).expect("trace export is valid JSON");
    let complete = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .count();
    assert_eq!(complete, tree.spans.len());

    // A run diffed against itself can never trip the regression gate.
    let diff = telemetry::diff::RunDiff::compare(&log, &log);
    assert_eq!(diff.max_gated_regression_pct(), 0.0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn outputs_and_cache_keys_are_identical_with_telemetry_on_and_off() {
    // The determinism regression: for every worker count, the golden
    // CSV and the content addresses must be byte-identical whether the
    // run was profiled or not. Telemetry is write-only.
    let plan = SweepPlan::new("fig4b")
        .axis("pitch", vec![60.0, 90.0, 120.0])
        .axis("ecd", vec![25.0, 45.0]);

    let sweep_csv = |workers: usize, profiled: bool| {
        let _serial = install_lock();
        let guard = profiled.then(|| {
            telemetry::install(Arc::new(MetricsRecorder::new()) as Arc<dyn telemetry::Recorder>)
        });
        let outcome = Engine::standard()
            .with_workers(workers)
            .sweep(&plan)
            .expect("sweep runs");
        drop(guard);
        assert_eq!(outcome.errors, 0);
        outcome.summary_table().to_csv()
    };

    let golden = sweep_csv(1, false);
    for workers in [1, 3] {
        for profiled in [false, true] {
            assert_eq!(
                sweep_csv(workers, profiled),
                golden,
                "CSV moved at workers={workers} profiled={profiled}"
            );
        }
    }

    // Cache keys: resolve under an installed recorder and without one.
    let overrides = ParamSet::new().with("rows", 4.0).with("seed", 9.0);
    let bare = Engine::standard().resolve("array-wer", &overrides).unwrap();
    let profiled = {
        let _serial = install_lock();
        let _guard =
            telemetry::install(Arc::new(MetricsRecorder::new()) as Arc<dyn telemetry::Recorder>);
        Engine::standard().resolve("array-wer", &overrides).unwrap()
    };
    assert_eq!(bare.fingerprint(), profiled.fingerprint());
    assert_eq!(
        ResultCache::key("array-wer", &bare.fingerprint()),
        ResultCache::key("array-wer", &profiled.fingerprint()),
        "telemetry must never reach the content address"
    );
}

#[test]
fn disk_tier_metrics_follow_a_persisted_sweep() {
    let _serial = install_lock();
    let dir = scratch_path("disk");
    let plan = SweepPlan::new("fig4b").axis("pitch", vec![70.0, 110.0]);

    // First pass computes and persists; second (fresh engine, same
    // store) must serve every job from disk and say so in the metrics.
    let metrics = Arc::new(MetricsRecorder::new());
    let guard = telemetry::install(metrics.clone());
    Engine::standard()
        .with_disk_cache(&dir)
        .expect("store opens")
        .sweep(&plan)
        .expect("cold sweep");
    let cold = metrics.snapshot();
    assert_eq!(cold.counter("cache.disk_writes"), 2);
    assert!(cold.counter("cache.disk_bytes_written") > 0);

    let outcome = Engine::standard()
        .with_disk_cache(&dir)
        .expect("store reopens")
        .sweep(&plan)
        .expect("warm sweep");
    drop(guard);
    assert_eq!(outcome.disk_hits, 2);
    let warm = metrics.snapshot();
    assert_eq!(warm.counter("cache.disk_hits"), 2);
    assert_eq!(
        warm.counter("cache.disk_bytes_read"),
        warm.counter("cache.disk_bytes_written"),
        "round-trip reads exactly the bytes written"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
