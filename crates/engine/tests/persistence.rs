//! The persistence layer end to end: cross-process disk-cache serving,
//! corruption fallback, bounded-memory eviction backed by disk, and
//! interrupted-then-resumed sweeps whose output is byte-identical to
//! an uninterrupted run.

use mramsim_engine::store::SCHEMA_VERSION;
use mramsim_engine::{Engine, Run, SweepOptions, SweepPlan};
use mramsim_telemetry::{JsonlRecorder, TelemetryLog};
use std::fs;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};

/// A unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mramsim-persistence-{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The workhorse 9-point grid: Ψ point mode, cheap enough for debug
/// tests, expensive enough that a recompute would be detectable.
fn nine_point_plan() -> SweepPlan {
    SweepPlan::new("fig4b").fix("ecd", 35.0).axis(
        "pitch",
        (0..9).map(|i| 60.0 + 20.0 * f64::from(i)).collect(),
    )
}

fn sweep_csv(engine: &Engine, plan: &SweepPlan) -> String {
    engine.sweep(plan).unwrap().summary_table().to_csv()
}

#[test]
fn a_fresh_engine_is_served_entirely_from_disk() {
    let dir = TempDir::new("cross-engine");
    let plan = nine_point_plan();

    // "Process" A computes and persists.
    let a = Engine::standard().with_disk_cache(&dir.0).unwrap();
    let cold = a.sweep(&plan).unwrap();
    assert_eq!((cold.errors, cold.cache_hits), (0, 0));
    assert_eq!(a.disk_stats().unwrap().writes, 9);

    // "Process" B (a fresh engine: empty memory tier) is served with
    // zero recomputation, and byte-identically.
    let b = Engine::standard().with_disk_cache(&dir.0).unwrap();
    let warm = b.sweep(&plan).unwrap();
    assert_eq!(
        warm.cache_hits, 9,
        "every point must come from a cache tier"
    );
    assert_eq!(warm.disk_hits, 9, "every point must come from *disk*");
    assert_eq!(
        warm.summary_table().to_csv(),
        cold.summary_table().to_csv(),
        "disk round-trip must be byte-exact"
    );

    // Memory promotion: the same engine re-sweeping no longer touches
    // disk.
    let hot = b.sweep(&plan).unwrap();
    assert_eq!((hot.cache_hits, hot.disk_hits), (9, 0));
}

#[test]
fn corrupt_disk_entries_fall_back_to_recompute() {
    let dir = TempDir::new("corrupt");
    let plan = nine_point_plan();
    let reference = {
        let engine = Engine::standard().with_disk_cache(&dir.0).unwrap();
        sweep_csv(&engine, &plan)
    };

    // Vandalise two entries: one truncated, one pure garbage.
    let entries: Vec<PathBuf> = fs::read_dir(dir.0.join(format!("v{SCHEMA_VERSION}")))
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mse"))
        .collect();
    assert_eq!(entries.len(), 9);
    let text = fs::read_to_string(&entries[0]).unwrap();
    fs::write(&entries[0], &text[..text.len() / 2]).unwrap();
    fs::write(&entries[1], "total garbage\n").unwrap();

    let engine = Engine::standard().with_disk_cache(&dir.0).unwrap();
    let outcome = engine.sweep(&plan).unwrap();
    assert_eq!(
        outcome.errors, 0,
        "corruption must never surface as an error"
    );
    assert_eq!(outcome.disk_hits, 7, "intact entries still serve");
    let stats = engine.disk_stats().unwrap();
    assert_eq!(stats.corrupt, 2, "both vandalised entries detected");
    assert_eq!(stats.writes, 2, "recomputed results re-persisted");
    assert_eq!(
        outcome.summary_table().to_csv(),
        reference,
        "recomputed grid must match the original byte-for-byte"
    );

    // The store healed itself: a fresh engine now gets all 9 from disk.
    let healed = Engine::standard().with_disk_cache(&dir.0).unwrap();
    assert_eq!(healed.sweep(&plan).unwrap().disk_hits, 9);
}

#[test]
fn corrupt_entries_still_pay_the_job_budget() {
    // A corrupt disk entry falls through to recompute — that compute
    // must claim a budget slot like any other (regression: the
    // existence-only pre-check let it through unbudgeted).
    let dir = TempDir::new("budget-corrupt");
    let plan = nine_point_plan();
    Engine::standard()
        .with_disk_cache(&dir.0)
        .unwrap()
        .sweep(&plan)
        .unwrap();
    let entries: Vec<PathBuf> = fs::read_dir(dir.0.join(format!("v{SCHEMA_VERSION}")))
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    for path in entries.iter().take(3) {
        fs::write(path, "garbage\n").unwrap();
    }
    let engine = Engine::standard().with_disk_cache(&dir.0).unwrap();
    let outcome = engine
        .sweep_with(
            &plan,
            &SweepOptions {
                limit: Some(2),
                on_done: None,
                cancel: None,
            },
        )
        .unwrap();
    assert_eq!(outcome.disk_hits, 6, "intact entries are budget-free");
    assert_eq!(
        outcome.skipped, 1,
        "the third corrupt entry exceeds the budget"
    );
    assert_eq!(outcome.errors, 0);
    assert_eq!(
        engine.disk_stats().unwrap().writes,
        2,
        "exactly the budgeted recomputes were persisted"
    );
}

#[test]
fn bounded_memory_tier_reports_pressure_and_leans_on_disk() {
    let dir = TempDir::new("eviction");
    let plan = nine_point_plan();
    let engine = Engine::standard()
        .with_cache_capacity(3)
        .with_disk_cache(&dir.0)
        .unwrap();
    let cold = engine.sweep(&plan).unwrap();
    assert_eq!(cold.errors, 0);
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, 3, "memory tier stays within its bound");
    assert_eq!(stats.capacity, 3);
    assert!(
        stats.evictions >= 6,
        "9 inserts into 3 slots must evict: {stats:?}"
    );
    // Despite the evictions, the warm re-run recomputes nothing: the
    // evicted points come back from the disk tier.
    let warm = engine.sweep(&plan).unwrap();
    assert_eq!(warm.cache_hits, 9);
    assert!(warm.disk_hits >= 6, "evicted points served from disk");
}

#[test]
fn interrupted_sweep_resumes_to_a_byte_identical_csv() {
    let interrupted_dir = TempDir::new("resume");
    let plan = nine_point_plan();

    // "Process" A: journaled run killed after 4 of 9 jobs (the job
    // budget stands in for the kill — completed work is on disk and in
    // the journal, the rest never ran).
    let run_id = {
        let engine = Engine::standard()
            .with_disk_cache(&interrupted_dir.0)
            .unwrap();
        let valid = engine.validate(&plan).unwrap();
        let run = Run::open(&engine, valid, Some(&interrupted_dir.0)).unwrap();
        let run_id = run.run_id().to_owned();
        let partial = run.execute(&SweepOptions {
            limit: Some(4),
            ..SweepOptions::default()
        });
        assert_eq!(partial.skipped, 5, "the budget must stop the sweep");
        assert_eq!(partial.errors, 0);
        let table = partial.summary_table();
        assert!(
            table.to_csv().contains("skipped"),
            "partial output must mark unrun points"
        );
        run_id
    };

    // "Process" B: resume from the run id alone — plan reconstructed,
    // finished points served from disk, the rest computed now.
    let resumed_csv = {
        let engine = Engine::standard()
            .with_disk_cache(&interrupted_dir.0)
            .unwrap();
        let run = Run::resume(&engine, &interrupted_dir.0, &run_id).unwrap();
        assert_eq!(run.plan(), &plan, "journal must reconstruct the plan");
        assert_eq!(run.journaled(), 4);
        let outcome = run.execute(&SweepOptions::default());
        assert_eq!(outcome.errors + outcome.skipped, 0);
        assert_eq!(outcome.disk_hits, 4, "the interrupted work is reused");
        outcome.summary_table().to_csv()
    };

    // "Process" C: the same sweep, uninterrupted, in a pristine cache.
    let uninterrupted_dir = TempDir::new("uninterrupted");
    let uninterrupted_csv = {
        let engine = Engine::standard()
            .with_disk_cache(&uninterrupted_dir.0)
            .unwrap();
        sweep_csv(&engine, &plan)
    };

    assert_eq!(
        resumed_csv, uninterrupted_csv,
        "resumed sweep must be byte-identical to an uninterrupted run"
    );

    // The journal now logs all nine points.
    let engine = Engine::standard()
        .with_disk_cache(&interrupted_dir.0)
        .unwrap();
    let run = Run::resume(&engine, &interrupted_dir.0, &run_id).unwrap();
    assert_eq!(run.journaled(), 9);
}

/// Whether `<cache-dir>/runs/` holds no file at all.
fn no_runs(cache_dir: &std::path::Path) -> bool {
    let runs = cache_dir.join("runs");
    !runs.exists() || fs::read_dir(&runs).unwrap().next().is_none()
}

#[test]
fn a_rejected_plan_leaves_no_journal() {
    let dir = TempDir::new("rejected");
    let engine = Engine::standard().with_disk_cache(&dir.0).unwrap();
    let open = |plan: &SweepPlan| {
        let valid = engine.validate(plan)?;
        Run::open(&engine, valid, Some(&dir.0))
    };
    for plan in [
        nine_point_plan().fix("pitch", 100.0),
        nine_point_plan().axis("pitch", vec![90.0]),
        nine_point_plan().axis("psi_threshold", vec![]),
        nine_point_plan().fix("pitchx", 1.0),
    ] {
        assert!(open(&plan).is_err(), "{plan:?} must be rejected");
        assert!(no_runs(&dir.0), "{plan:?} left a journal behind");
    }
    // The valid plan journals as usual, so the check above is not
    // vacuous.
    let run = open(&nine_point_plan()).unwrap();
    assert!(run.journal_path().is_some_and(std::path::Path::is_file));
}

// ---------------------------------------------------------------------
// CLI-level: the same properties through the real binary, in genuinely
// separate processes.
// ---------------------------------------------------------------------

/// Runs the binary, asserting success; returns (stdout, stderr).
fn mramsim(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mramsim"))
        .args(args)
        .output()
        .expect("mramsim binary runs");
    assert!(
        out.status.success(),
        "mramsim {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    )
}

#[test]
fn cli_second_process_is_all_disk_hits() {
    let dir = TempDir::new("cli-disk");
    let dir_str = dir.0.to_str().unwrap();
    let args = [
        "sweep",
        "fig4b",
        "--ecd",
        "35",
        "--pitch",
        "60..220:20",
        "--format",
        "csv",
        "--cache-dir",
        dir_str,
    ];
    let (first_csv, first_err) = mramsim(&args);
    assert!(first_err.contains("9 point(s)"), "{first_err}");
    assert!(
        first_err.contains("0 cache hit(s) (0 warm, 0 from disk)"),
        "{first_err}"
    );
    let (second_csv, second_err) = mramsim(&args);
    assert!(
        second_err.contains("9 cache hit(s) (0 warm, 9 from disk)"),
        "second process must be 100% disk hits: {second_err}"
    );
    assert_eq!(
        first_csv, second_csv,
        "disk-served CSV must be byte-identical"
    );
}

#[test]
fn cli_interrupted_sweep_resumes_byte_identically() {
    let dir = TempDir::new("cli-resume");
    let dir_str = dir.0.to_str().unwrap();
    let sweep_args = [
        "sweep",
        "fig4b",
        "--ecd",
        "35",
        "--pitch",
        "60..220:20",
        "--format",
        "csv",
        "--cache-dir",
        dir_str,
    ];

    // Interrupted: only 4 of the 9 points run before the (simulated)
    // kill; the run id is announced on stderr.
    let limited: Vec<&str> = sweep_args.iter().copied().chain(["--limit", "4"]).collect();
    let (partial_csv, partial_err) = mramsim(&limited);
    assert!(partial_csv.contains("skipped"), "{partial_csv}");
    assert!(partial_err.contains("5 skipped"), "{partial_err}");
    let run_id = partial_err
        .lines()
        .find_map(|l| l.strip_prefix("run `"))
        .and_then(|l| l.split('`').next())
        .expect("stderr announces the run id")
        .to_owned();
    assert!(run_id.starts_with("fig4b-"), "{run_id}");

    // Resumed in a new process, from the run id alone.
    let (resumed_csv, resumed_err) = mramsim(&[
        "sweep",
        "--resume",
        &run_id,
        "--format",
        "csv",
        "--cache-dir",
        dir_str,
    ]);
    assert!(
        resumed_err.contains("resuming") && resumed_err.contains("4/9"),
        "{resumed_err}"
    );
    assert!(resumed_err.contains("4 from disk"), "{resumed_err}");

    // Each slice keeps its own run log (span ids restart in every
    // process): the interrupted slice's log still holds its 4 computed
    // points, and the resumed slice wrote `<run-id>.2.telemetry`.
    assert_eq!(slice_log(&dir, &run_id), (4, 0));
    assert_eq!(slice_log(&dir, &format!("{run_id}.2")), (5, 4));
    assert!(
        resumed_err.contains(&format!("`mramsim stats {run_id}.2`")),
        "{resumed_err}"
    );

    // Uninterrupted, in a pristine cache directory, separate process.
    let fresh = TempDir::new("cli-uninterrupted");
    let fresh_args: Vec<&str> = sweep_args[..sweep_args.len() - 1]
        .iter()
        .copied()
        .chain([fresh.0.to_str().unwrap()])
        .collect();
    let (uninterrupted_csv, _) = mramsim(&fresh_args);

    assert_eq!(
        resumed_csv, uninterrupted_csv,
        "resumed CSV must be byte-identical to an uninterrupted run"
    );

    // Resuming a finished run is a no-op served entirely from disk.
    let (rerun_csv, rerun_err) = mramsim(&[
        "sweep",
        "--resume",
        &run_id,
        "--format",
        "csv",
        "--cache-dir",
        dir_str,
    ]);
    assert!(
        rerun_err.contains("9 cache hit(s) (0 warm, 9 from disk)"),
        "{rerun_err}"
    );
    assert_eq!(rerun_csv, uninterrupted_csv);
    assert_eq!(slice_log(&dir, &format!("{run_id}.3")), (0, 9));
}

/// The `(computed, disk)` `job.done` counts of the run log `log_id`
/// under `dir`, whose span tree must pass `trace --check`'s test.
fn slice_log(dir: &TempDir, log_id: &str) -> (usize, usize) {
    let log = TelemetryLog::load(JsonlRecorder::path_for(&dir.0, log_id)).expect("log parses");
    log.span_tree().check().expect("spans pair and nest");
    let count = |source: &str| {
        log.events
            .iter()
            .filter(|e| e.name == "job.done" && e.text("source") == Some(source))
            .count()
    };
    (count("computed"), count("disk"))
}

#[test]
fn cli_interrupted_campaign_resumes_byte_identically() {
    // `campaign` shards a grid into journaled sweep points; a run
    // killed mid-campaign must resume at shard granularity to the
    // same bytes an uninterrupted campaign produces.
    let dir = TempDir::new("cli-campaign");
    let dir_str = dir.0.to_str().unwrap();
    let campaign_args = [
        "campaign",
        "--rows",
        "48",
        "--cols",
        "32",
        "--shard_rows",
        "16",
        "--trajectories",
        "12",
        "--pulse_ns",
        "4",
        "--max_radius",
        "2",
        "--field_tol",
        "60",
        "--format",
        "csv",
        "--cache-dir",
        dir_str,
    ];

    let limited: Vec<&str> = campaign_args
        .iter()
        .copied()
        .chain(["--limit", "1"])
        .collect();
    let (_, partial_err) = mramsim(&limited);
    assert!(
        partial_err.contains("3 shard(s) of 16 row(s)"),
        "{partial_err}"
    );
    assert!(partial_err.contains("2 skipped"), "{partial_err}");
    // The sweep trailer reports the process-wide kernel cache traffic.
    assert!(partial_err.contains("kernel cache"), "{partial_err}");
    let run_id = partial_err
        .lines()
        .find_map(|l| l.strip_prefix("run `"))
        .and_then(|l| l.split('`').next())
        .expect("stderr announces the run id")
        .to_owned();
    assert!(run_id.starts_with("array-wer-shard-"), "{run_id}");

    // Resumed through the ordinary sweep machinery.
    let (resumed_csv, resumed_err) = mramsim(&[
        "sweep",
        "--resume",
        &run_id,
        "--format",
        "csv",
        "--cache-dir",
        dir_str,
    ]);
    assert!(
        resumed_err.contains("resuming") && resumed_err.contains("1/3"),
        "{resumed_err}"
    );

    // Uninterrupted, pristine cache, separate process.
    let fresh = TempDir::new("cli-campaign-uninterrupted");
    let fresh_args: Vec<&str> = campaign_args[..campaign_args.len() - 1]
        .iter()
        .copied()
        .chain([fresh.0.to_str().unwrap()])
        .collect();
    let (uninterrupted_csv, _) = mramsim(&fresh_args);
    assert_eq!(
        resumed_csv, uninterrupted_csv,
        "resumed campaign CSV must be byte-identical to an uninterrupted run"
    );
    // Every shard row is present exactly once, in shard order.
    let shards: Vec<&str> = resumed_csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').next().unwrap())
        .collect();
    assert_eq!(shards, ["0", "1", "2"], "{resumed_csv}");
}

#[test]
fn cli_unseeded_campaign_shards_share_the_default_seed() {
    // An unseeded campaign runs every shard on the scenario's default
    // seed, so one shard run by hand with the same parameters is the
    // campaign's own stored point: served from disk, and identical to
    // computing it afresh.
    let dir = TempDir::new("cli-campaign-seed");
    let dir_str = dir.0.to_str().unwrap();
    let grid = [
        "--rows",
        "48",
        "--cols",
        "32",
        "--shard_rows",
        "16",
        "--trajectories",
        "12",
        "--pulse_ns",
        "4",
        "--max_radius",
        "2",
        "--field_tol",
        "60",
        "--format",
        "csv",
    ];
    let with = |head: &[&'static str], cache: &str| -> Vec<String> {
        head.iter()
            .chain(&grid)
            .copied()
            .chain(["--cache-dir", cache])
            .map(str::to_owned)
            .collect()
    };
    let run = |args: Vec<String>| mramsim(&args.iter().map(String::as_str).collect::<Vec<_>>());
    run(with(&["campaign"], dir_str));
    let shard = ["run", "array-wer-shard", "--shard", "1"];
    let (served, served_err) = run(with(&shard, dir_str));
    assert!(served_err.contains("(disk-cache hit)"), "{served_err}");
    let fresh = TempDir::new("cli-campaign-seed-fresh");
    let (computed, computed_err) = run(with(&shard, fresh.0.to_str().unwrap()));
    assert!(!computed_err.contains("cache hit"), "{computed_err}");
    assert_eq!(served, computed);
}

#[test]
fn cli_degrades_to_memory_only_when_the_default_cache_dir_is_unusable() {
    // An unusable *default* directory (read-only HOME, sandbox) must
    // not break `run`/`sweep` — persistence is an optimisation there.
    let dir = TempDir::new("cli-unusable");
    let blocker = dir.0.join("blocker");
    fs::write(&blocker, "a file, not a directory").unwrap();
    let bad_default = blocker.join("nested"); // create_dir_all must fail
    let out = Command::new(env!("CARGO_BIN_EXE_mramsim"))
        .env("MRAMSIM_CACHE_DIR", &bad_default)
        .args(["run", "fig4a", "--format", "csv"])
        .output()
        .expect("mramsim binary runs");
    assert!(
        out.status.success(),
        "run must degrade gracefully: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("persistent cache disabled"),
        "degradation must be announced: {stderr}"
    );
    // The same directory passed *explicitly* is a hard error.
    let out = Command::new(env!("CARGO_BIN_EXE_mramsim"))
        .args(["run", "fig4a", "--cache-dir", bad_default.to_str().unwrap()])
        .output()
        .expect("mramsim binary runs");
    assert!(
        !out.status.success(),
        "an explicit unusable --cache-dir must fail loudly"
    );
}

#[test]
fn cli_cache_dir_off_in_the_environment_persists_nothing() {
    let dir = TempDir::new("cli-env-off");
    let out = Command::new(env!("CARGO_BIN_EXE_mramsim"))
        .env("MRAMSIM_CACHE_DIR", "off")
        .env("HOME", &dir.0)
        .current_dir(&dir.0)
        .args(["sweep", "fig4b", "--pitch", "60,90", "--format", "csv"])
        .output()
        .expect("mramsim binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(!stderr.contains("journaled"), "{stderr}");
    // Neither `$HOME/.cache/mramsim` nor a directory named `off`.
    assert!(fs::read_dir(&dir.0).unwrap().next().is_none());
}

#[test]
fn cli_rejects_misuse_of_resume() {
    let dir = TempDir::new("cli-misuse");
    let dir_str = dir.0.to_str().unwrap().to_owned();
    for args in [
        // Unknown run id.
        vec!["sweep", "--resume", "no-such-run", "--cache-dir", &dir_str],
        // Scenario/params alongside --resume.
        vec!["sweep", "fig4b", "--resume", "x", "--cache-dir", &dir_str],
        // --resume without a disk cache.
        vec!["sweep", "--resume", "x", "--cache-dir", "off"],
        // --resume on `run`.
        vec!["run", "fig4a", "--resume", "x"],
        // --limit without a store would waste the computed slice.
        vec![
            "sweep",
            "fig4b",
            "--pitch",
            "60,90",
            "--limit",
            "1",
            "--cache-dir",
            "off",
        ],
        // Typo'd scenario and unknown parameter fail before journaling.
        vec![
            "sweep",
            "fig4x",
            "--pitch",
            "60,90",
            "--cache-dir",
            &dir_str,
        ],
        vec![
            "sweep",
            "fig4b",
            "--pitchx",
            "60,90",
            "--cache-dir",
            &dir_str,
        ],
        // So do plans that name a parameter twice (regression: these
        // passed the name check and journaled an unresumable plan).
        vec![
            "sweep",
            "fig4b",
            "--pitch",
            "90,120",
            "--pitch",
            "100",
            "--cache-dir",
            &dir_str,
        ],
        vec![
            "sweep",
            "fig4b",
            "--ecd",
            "35",
            "--ecd",
            "20,55",
            "--cache-dir",
            &dir_str,
        ],
        vec![
            "campaign",
            "--rows",
            "32",
            "--pitch",
            "60,70",
            "--pitch",
            "65",
            "--cache-dir",
            &dir_str,
        ],
        // A flag the command would ignore, and a repeated flag or
        // parameter, are errors too.
        vec!["list", "--bogus", "1"],
        vec!["run", "fig4a", "--workers", "2", "--cache-dir", &dir_str],
        vec![
            "run",
            "fig4a",
            "--telemetry",
            "off",
            "--cache-dir",
            &dir_str,
        ],
        vec![
            "run",
            "fig4b",
            "--pitch",
            "90",
            "--pitch",
            "120",
            "--cache-dir",
            &dir_str,
        ],
        vec![
            "sweep",
            "fig4b",
            "--pitch",
            "60,90",
            "--workers",
            "1",
            "--workers",
            "2",
            "--cache-dir",
            &dir_str,
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mramsim"))
            .args(&args)
            .output()
            .expect("mramsim binary runs");
        assert!(!out.status.success(), "{args:?} should have failed");
    }
    // The failed sweeps above must not leave resumable-looking journal
    // debris behind.
    assert!(no_runs(&dir.0), "invalid sweeps must not create journals");
    // `serve` has no output to format. The unparsable port keeps
    // anything from binding should the flag ever be accepted again.
    let out = Command::new(env!("CARGO_BIN_EXE_mramsim"))
        .args(["serve", "--format", "csv", "--addr", "127.0.0.1:notaport"])
        .args(["--cache-dir", &dir_str])
        .output()
        .expect("mramsim binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("`serve` does not take `--format`"),
        "{stderr}"
    );
}

/// Spawns the binary with stderr piped and drops the read end at once,
/// as `mramsim … 2>&1 >/dev/null | true` does; returns the output.
fn mramsim_with_closed_stderr(args: &[&str]) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mramsim"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mramsim binary runs");
    drop(child.stderr.take());
    child.wait_with_output().expect("mramsim exits")
}

#[test]
fn cli_survives_a_closed_stderr() {
    // Diagnostics nobody reads are dropped; they used to panic the
    // process (exit 101) after the work was done.
    let out =
        mramsim_with_closed_stderr(&["run", "fig4a", "--cache-dir", "off", "--format", "csv"]);
    assert_eq!(out.status.code(), Some(0));
    let csv = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(csv.lines().count() > 1 && csv.contains(','), "{csv}");
    // The progress line is written while the sweep runs: a closed
    // stderr must not stop it before every point is journaled.
    let dir = TempDir::new("cli-closed-stderr");
    let dir_str = dir.0.to_str().unwrap();
    let out = mramsim_with_closed_stderr(&[
        "sweep",
        "fig4b",
        "--pitch",
        "60..240:20",
        "--progress",
        "on",
        "--workers",
        "1",
        "--cache-dir",
        dir_str,
    ]);
    assert_eq!(out.status.code(), Some(0));
    let journals: Vec<PathBuf> = fs::read_dir(dir.0.join("runs"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "journal"))
        .collect();
    let [journal] = journals.as_slice() else {
        panic!("one journal expected, found {journals:?}");
    };
    let run_id = journal.file_stem().unwrap().to_str().unwrap();
    let engine = Engine::standard().with_disk_cache(&dir.0).unwrap();
    let run = Run::resume(&engine, &dir.0, run_id).unwrap();
    assert_eq!((run.journaled(), run.plan().len()), (10, 10));
}
