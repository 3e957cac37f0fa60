//! The `mramsim` CLI: list, run, sweep, and report over every
//! registered scenario.
//!
//! ```text
//! mramsim list
//! mramsim run fig4a --pitch 120 --format csv
//! mramsim sweep fig4b --pitch 60..240:20 --ecd 20,35,55 --workers 8
//! mramsim report fig4a explore
//! ```
//!
//! Any `--name value` pair maps onto a declared scenario parameter;
//! values may be numbers (`90`), lists (`20,35,55`), or stepped ranges
//! (`60..240:20`). In `sweep`, multi-valued parameters become grid
//! axes and scalars become fixed overrides.

#![deny(unsafe_code)]

use mramsim_engine::store::DiskStore;
use mramsim_engine::{
    parse_value, Engine, EngineError, JobEvent, ParamSet, ParamValue, Registry, Run, ServeConfig,
    Server, SweepOptions, SweepPlan, Tier,
};
use mramsim_telemetry as telemetry;
use mramsim_telemetry::{report, Clock, Fanout, JsonlRecorder, MetricsRecorder, TelemetryLog};
use std::io::IsTerminal as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const USAGE: &str = "\
mramsim — unified scenario-execution engine for the STT-MRAM
magnetic-coupling reproduction (Wu et al., DATE 2020)

USAGE:
    mramsim list                         show scenarios and parameters
    mramsim run <scenario> [OPTIONS]     run one scenario
    mramsim sweep <scenario> [OPTIONS]   run a parameter grid in parallel
    mramsim campaign [scenario] [OPTIONS] sharded grid campaign: sweeps
                                         an auto-generated `--shard`
                                         axis (default: array-wer-shard)
    mramsim serve [OPTIONS]              HTTP/JSON simulation service
                                         over one shared engine
    mramsim report [scenario...]         Markdown report (default: all)
    mramsim stats <run-id|path>          post-run telemetry report
    mramsim trace <run-id|path>          export a Chrome/Perfetto trace
    mramsim diff <run-a> <run-b>         compare two runs phase-by-phase
    mramsim help                         this text

OPTIONS:
    --<param> <value>    set a scenario parameter; value forms:
                             90           number
                             20,35,55     list
                             60..240:20   inclusive range with step
                         in `sweep`, lists/ranges become grid axes
    --format <md|csv|chart>   output format (default md)
    --workers <n>             sweep worker threads (default: all cores)
    --cache-dir <path|off>    persistent result cache directory
                              (default: $MRAMSIM_CACHE_DIR, else
                              ~/.cache/mramsim; `off` disables disk —
                              MRAMSIM_CACHE_DIR=off does too)
    --cache-cap <n>           in-memory cache capacity in entries
    --limit <n>               sweep: compute at most n new points,
                              journal them, and stop (resume later)
    --resume <run>            sweep: continue a journaled run; the plan
                              is reloaded from the journal, finished
                              points are served from the disk cache
    --telemetry <on|off>      sweep: record metrics/events to
                              <cache-dir>/runs/<run-id>.telemetry
                              (default on; results are byte-identical
                              either way)
    --progress <auto|on|off>  sweep: live progress line on stderr
                              (default auto: only when stderr is a
                              terminal)
    --addr <host:port>        serve: bind address (default
                              127.0.0.1:7878; port 0 picks a free
                              port — the bound address is printed)
    --max-inflight <n>        serve: max concurrently running jobs;
                              submissions beyond this get HTTP 429
                              (default 4)

PERSISTENT CACHE & RESUMABLE SWEEPS:
    Results are content-addressed by (scenario, full parameter
    fingerprint) plus a schema version and persisted under
    --cache-dir, so a re-run in a new process is served from disk
    with zero recomputation. Every sweep also writes a checkpoint
    journal named after its run id (printed on stderr); an
    interrupted campaign continues with

        mramsim sweep --resume <run-id>

    and produces output byte-identical to an uninterrupted run.

OBSERVABILITY:
    Every sweep (unless --telemetry off) streams a JSONL event log —
    job completions with durations and cache tiers, pool and solver
    counters, latency histograms, and a hierarchical span tree (every
    job, kernel build, cache/disk lookup, ensemble, shard, and
    journal flush nested under the sweep root, tagged with its worker
    lane) — to <cache-dir>/runs/<run-id>.telemetry, and

        mramsim stats <run-id>                post-run report +
                                              per-worker timeline
        mramsim stats <run-id> --critical-path  longest span chain with
                                              wall-clock attribution
        mramsim trace <run-id> -o trace.json  Chrome trace-event JSON;
                                              load in ui.perfetto.dev
                                              or chrome://tracing
                                              (--check validates span
                                              pairing/nesting first)
        mramsim diff <run-a> <run-b>          phase-by-phase A/B diff;
                                              --fail-above <pct> exits
                                              non-zero when any gated
                                              metric regresses past pct

    `stats`, `trace`, and `diff` accept a run id (resolved under
    <cache-dir>/runs/) or a direct path to a .telemetry file.
    Telemetry is write-only: cache keys and CSV output are
    byte-identical with it on or off.

SERVING:
    `mramsim serve` runs a concurrent HTTP/JSON service over one
    shared engine: every client shares the same warm cache, disk
    store, and worker pool. Submissions are validated up front,
    identical in-flight plans are joined instead of recomputed, and
    per-job progress streams as JSONL. POST /shutdown drains
    gracefully — running sweeps are cancelled cooperatively and their
    journals stay `sweep --resume`-able.

    mramsim serve --addr 127.0.0.1:7878 --max-inflight 4
    curl -s localhost:7878/healthz
    curl -s -XPOST localhost:7878/sweeps -d \
      '{\"scenario\":\"fig4b\",\"axes\":{\"pitch\":[90,120,200]}}'
    curl -sN localhost:7878/runs/j1          # streamed progress
    curl -s localhost:7878/results/<key>     # content-addressed fetch
    curl -s localhost:7878/metrics
    curl -s -XPOST localhost:7878/shutdown

EXAMPLES:
    mramsim run explore --ecd 35 --temperature_c 85
    mramsim sweep fig4b --pitch 60..240:20 --ecd 20,35,55
    mramsim sweep faults --pitch 55..90:5 --format csv

MONTE-CARLO DYNAMICS (s-LLGS trajectory ensembles):
    Seeded and deterministic: --trajectories/--seed/--dt_ps are part of
    the result's cache key, so repeats are served from the cache.

    mramsim run wer-mc --trajectories 4096 --seed 7
    mramsim sweep wer-mc --pulse_ns 0.8..2.0:0.2 --trajectories 2048
    mramsim run switch-traj --overdrive 3 --span_ns 15

ARRAY WRITE CAMPAIGNS (per-cell Monte-Carlo fault maps):
    array-wer writes every cell of an N x M array to the complement of
    its stored pattern bit, each cell under the stray field of its own
    3x3 neighbourhood; cells with the same window share one s-LLGS WER
    ensemble (14 for an 8x8 checkerboard). --rows/--cols/--pattern/
    --trajectories are cache-key parameters; sweep --pitch for
    WER-vs-density curves.

    mramsim run array-wer --rows 8 --cols 8 --pattern checkerboard
    mramsim sweep array-wer --pitch 60,70,90 --trajectories 256
    mramsim run array-wer --pitch 55 --voltage_v 0.8 --format chart

MEGABIT CAMPAIGNS (sparse sharded array-wer-shard):
    array-wer-shard evaluates one fixed-height row band of an
    arbitrarily large grid by collapsing cells with identical
    stored-state windows into equivalence classes — one ring-truncated
    stray field and one Monte-Carlo ensemble per class, from one
    kernel per design point shared by every shard — so memory is
    bounded by the class count, never the grid.
    --max_radius caps the kernel rings; --field_tol (Oe) grows rings
    until the a-priori dipole-tail bound meets it; --defects plants
    stuck cells (`row,col=P;row,col=AP`). `campaign` sweeps the
    `--shard` axis over the whole grid with journaling, so an
    interrupted megabit run resumes at shard granularity and the CSV
    is byte-identical to an uninterrupted one:

    mramsim campaign --rows 1024 --cols 1024 --shard_rows 64
    mramsim campaign --rows 1024 --cols 1024 --limit 4   # then:
    mramsim sweep --resume <run-id>
    mramsim run array-wer-shard --shard 3 --defects \"512,512=AP\"

ABLATIONS:
    Scenarios that build a device (fig4a, fig4b point mode, faults)
    accept the field-model knobs for accuracy/speed studies:
    --segments <n>   Biot-Savart segments per loop (default 256)
    --exact 1        exact elliptic-integral loops instead of polygons

    mramsim run fig4a --segments 64
    mramsim sweep fig4b --pitch 60..240:20 --segments 32,256 --exact 1
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run `mramsim help` for usage");
            ExitCode::FAILURE
        }
    }
}

/// Writes to stdout, exiting quietly when the reader has gone away
/// (e.g. `mramsim list | head`) — `println!` would panic on the
/// broken pipe instead.
fn emit(text: &str) {
    use std::io::Write;
    if std::io::stdout().write_all(text.as_bytes()).is_err() {
        std::process::exit(0);
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => {
            emit(USAGE);
            Ok(())
        }
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

/// Parsed `--name value` options, with the engine/runtime flags split
/// off from scenario parameters.
struct Options {
    scenario: Option<String>,
    params: Vec<(String, ParamValue)>,
    format: String,
    workers: Option<usize>,
    /// Raw `--cache-dir` value (`off` disables the disk tier).
    cache_dir: Option<String>,
    cache_cap: Option<usize>,
    limit: Option<usize>,
    resume: Option<String>,
    /// Whether sweeps record telemetry (default on).
    telemetry: bool,
    /// Live progress line: `auto` (TTY only), `on`, or `off`.
    progress: String,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let scenario = args.first().filter(|a| !a.starts_with("--")).cloned();
    let mut options = Options {
        scenario,
        params: Vec::new(),
        format: "md".to_owned(),
        workers: None,
        cache_dir: None,
        cache_cap: None,
        limit: None,
        resume: None,
        telemetry: true,
        progress: "auto".to_owned(),
    };
    let mut rest = &args[usize::from(options.scenario.is_some())..];
    let integer = |name: &str, value: &str| {
        value
            .parse::<usize>()
            .map_err(|_| format!("`--{name}` needs an integer, got `{value}`"))
    };
    while let Some(flag) = rest.first() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected `--option`, got `{flag}`"))?;
        let value = rest
            .get(1)
            .ok_or_else(|| format!("`--{name}` needs a value"))?;
        match name {
            "format" => {
                if !matches!(value.as_str(), "md" | "csv" | "chart") {
                    return Err(format!(
                        "`--format` must be md, csv, or chart, got `{value}`"
                    ));
                }
                value.clone_into(&mut options.format);
            }
            "workers" => options.workers = Some(integer(name, value)?),
            "cache-dir" => options.cache_dir = Some(value.clone()),
            "cache-cap" => options.cache_cap = Some(integer(name, value)?),
            "limit" => options.limit = Some(integer(name, value)?),
            "resume" => options.resume = Some(value.clone()),
            "telemetry" => {
                options.telemetry = match value.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("`--telemetry` must be on or off, got `{other}`")),
                };
            }
            "progress" => {
                if !matches!(value.as_str(), "auto" | "on" | "off") {
                    return Err(format!(
                        "`--progress` must be auto, on, or off, got `{value}`"
                    ));
                }
                value.clone_into(&mut options.progress);
            }
            _ => {
                let parsed = parse_value(name, value).map_err(|e| e.to_string())?;
                options.params.push((name.to_owned(), parsed));
            }
        }
        rest = &rest[2..];
    }
    Ok(options)
}

/// The default disk-cache location for commands that did not pass
/// `--cache-dir`. `MRAMSIM_CACHE_DIR=off` disables persistence
/// globally — the only opt-out `report` has, since it takes no flags.
fn default_cache_dir() -> Option<PathBuf> {
    match std::env::var("MRAMSIM_CACHE_DIR") {
        Ok(v) if v == "off" => None,
        _ => Some(DiskStore::default_dir()),
    }
}

/// The disk-cache directory to use: the `--cache-dir` value, `None`
/// for `off`, or the default location.
fn resolve_cache_dir(flag: Option<&str>) -> Option<PathBuf> {
    match flag {
        Some("off") => None,
        Some(dir) => Some(PathBuf::from(dir)),
        None => default_cache_dir(),
    }
}

fn base_engine(options: &Options) -> Engine {
    let mut engine = Engine::standard();
    if let Some(n) = options.workers {
        engine = engine.with_workers(n);
    }
    if let Some(cap) = options.cache_cap {
        engine = engine.with_cache_capacity(cap);
    }
    engine
}

/// The engine `options` ask for, with the cache directory it uses
/// (`None` when the disk tier is off).
fn build_engine(options: &Options) -> Result<(Engine, Option<PathBuf>), String> {
    let Some(dir) = resolve_cache_dir(options.cache_dir.as_deref()) else {
        return Ok((base_engine(options), None));
    };
    match base_engine(options).with_disk_cache(&dir) {
        Ok(engine) => Ok((engine, Some(dir))),
        // An unusable *default* directory (read-only $HOME, sandbox)
        // degrades to memory-only with a warning — persistence is an
        // optimisation there. An explicitly requested directory that
        // cannot be used is an error the user needs to hear about.
        Err(e) if options.cache_dir.is_none() => {
            eprintln!("warning: persistent cache disabled: {e}");
            Ok((base_engine(options), Some(dir)))
        }
        Err(e) => Err(e.to_string()),
    }
}

fn cmd_list() -> Result<(), String> {
    let registry = Registry::standard();
    let mut out = format!("{} registered scenario(s):\n\n", registry.len());
    for scenario in registry.iter() {
        out.push_str(&format!("  {:<8} {}\n", scenario.id(), scenario.summary()));
        for spec in scenario.params() {
            out.push_str(&format!(
                "           --{} <{}>  {}\n",
                spec.name,
                spec.default.display(),
                spec.doc
            ));
        }
        out.push('\n');
    }
    emit(&out);
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let options = parse_options(args)?;
    if options.resume.is_some() || options.limit.is_some() {
        return Err("`--resume`/`--limit` only apply to `sweep`".into());
    }
    let scenario = options
        .scenario
        .clone()
        .ok_or("`run` needs a scenario id")?;
    let (engine, _) = build_engine(&options)?;
    let mut overrides = ParamSet::new();
    for (name, value) in options.params {
        overrides.insert(&name, value);
    }
    let outcome = engine
        .run(&scenario, &overrides)
        .map_err(|e: EngineError| e.to_string())?;
    match options.format.as_str() {
        "csv" => emit(&outcome.output.to_csv()),
        "chart" => match &outcome.output.chart {
            Some(chart) => emit(chart),
            None => emit(&outcome.output.to_markdown()),
        },
        _ => emit(&outcome.output.to_markdown()),
    }
    eprintln!(
        "ran `{scenario}` in {:.1?}{}",
        outcome.duration,
        match outcome.tier {
            Tier::Disk => " (disk-cache hit)",
            Tier::Warm => " (cache hit)",
            _ => "",
        }
    );
    Ok(())
}

/// The throttled live progress line a sweep renders on stderr.
///
/// Fed from [`JobEvent`]s on the worker threads; never consulted by
/// anything that produces results, so it cannot move a golden number.
struct Progress {
    total: usize,
    workers: usize,
    start: Instant,
    done: AtomicUsize,
    hits: AtomicUsize,
    busy_ns: AtomicU64,
    last: Mutex<Instant>,
}

impl Progress {
    fn new(total: usize, workers: usize) -> Self {
        let now = Instant::now();
        Self {
            total,
            workers,
            start: now,
            done: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            busy_ns: AtomicU64::new(0),
            // Pre-aged so the very first job renders immediately.
            last: Mutex::new(now.checked_sub(Duration::from_secs(1)).unwrap_or(now)),
        }
    }

    fn on_job(&self, event: &JobEvent<'_>) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if event.tier.is_cache_hit() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        self.busy_ns
            .fetch_add(event.duration.as_nanos() as u64, Ordering::Relaxed);
        // Throttle to ~10 Hz, but always render the final job so the
        // line ends at 100%.
        {
            // Recover from poisoning: a panicking job must not take
            // the progress line (and with it the sweep) down.
            let mut last = self
                .last
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if done < self.total && last.elapsed() < Duration::from_millis(100) {
                return;
            }
            *last = Instant::now();
        }
        let elapsed = self.start.elapsed().as_secs_f64().max(1e-9);
        let rate = done as f64 / elapsed;
        let eta = (self.total.saturating_sub(done)) as f64 / rate.max(1e-9);
        let hit_pct = 100.0 * self.hits.load(Ordering::Relaxed) as f64 / done as f64;
        let busy = self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
        let util = 100.0 * busy / (elapsed * self.workers as f64);
        eprint!(
            "\r\x1b[K  {done}/{} jobs · {rate:.1} jobs/s · ETA {} · cache {hit_pct:.0}% · pool {util:.0}%",
            self.total,
            report::format_secs(eta),
        );
    }

    /// Erases the progress line so the summary starts on a clean line.
    fn clear(&self) {
        eprint!("\r\x1b[K");
    }
}

/// Resolves a run id (or a direct path) to its `.telemetry` log.
///
/// A readable path wins outright; otherwise the id is looked up under
/// `<cache-dir>/runs/`. An unknown id lists the run ids that *are*
/// recorded there, so a typo'd or evicted run is a one-step fix
/// instead of a scavenger hunt.
fn resolve_run_log(run: &str, cache_dir: Option<&str>) -> Result<PathBuf, String> {
    let direct = PathBuf::from(run);
    if direct.is_file() {
        return Ok(direct);
    }
    let dir = resolve_cache_dir(cache_dir)
        .ok_or("resolving a run id needs a cache directory (do not pass `--cache-dir off`)")?;
    let path = JsonlRecorder::path_for(&dir, run);
    if path.is_file() {
        return Ok(path);
    }
    let runs_dir = path
        .parent()
        .map_or_else(|| dir.join("runs"), Path::to_path_buf);
    let mut available: Vec<String> = std::fs::read_dir(&runs_dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let p = entry.path();
            if p.extension().and_then(|e| e.to_str()) != Some("telemetry") {
                return None;
            }
            Some(p.file_stem()?.to_str()?.to_owned())
        })
        .collect();
    available.sort();
    if available.is_empty() {
        Err(format!(
            "no telemetry log for `{run}` — nothing recorded under {} \
             (run a sweep first, or pass a path to a .telemetry file)",
            runs_dir.display()
        ))
    } else {
        Err(format!(
            "no telemetry log for `{run}` under {} — available run id(s):\n  {}",
            runs_dir.display(),
            available.join("\n  ")
        ))
    }
}

/// Hand-rolled flag parsing for the log-analysis commands: they take
/// positional run ids and valueless flags (`--check`,
/// `--critical-path`), which the `--name value` grammar of
/// [`parse_options`] cannot express.
struct LogArgs {
    positional: Vec<String>,
    cache_dir: Option<String>,
    out: Option<PathBuf>,
    check: bool,
    critical_path: bool,
    fail_above: Option<f64>,
}

fn parse_log_args(command: &str, args: &[String], allowed: &[&str]) -> Result<LogArgs, String> {
    let mut parsed = LogArgs {
        positional: Vec::new(),
        cache_dir: None,
        out: None,
        check: false,
        critical_path: false,
        fail_above: None,
    };
    let mut rest = args;
    while let Some(arg) = rest.first() {
        let flag = arg.as_str();
        if flag.starts_with('-') && !allowed.contains(&flag) {
            return Err(format!(
                "`{command}` does not take `{flag}` (flags: {})",
                allowed.join(", ")
            ));
        }
        let value = |name: &str| {
            rest.get(1)
                .cloned()
                .ok_or_else(|| format!("`{name}` needs a value"))
        };
        let consumed = match flag {
            "--check" => {
                parsed.check = true;
                1
            }
            "--critical-path" => {
                parsed.critical_path = true;
                1
            }
            "--cache-dir" => {
                parsed.cache_dir = Some(value("--cache-dir")?);
                2
            }
            "-o" | "--out" => {
                parsed.out = Some(PathBuf::from(value(flag)?));
                2
            }
            "--fail-above" => {
                let raw = value("--fail-above")?;
                let pct: f64 = raw
                    .parse()
                    .map_err(|_| format!("`--fail-above` needs a percentage, got `{raw}`"))?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err(format!(
                        "`--fail-above` needs a non-negative percentage, got `{raw}`"
                    ));
                }
                parsed.fail_above = Some(pct);
                2
            }
            positional => {
                parsed.positional.push(positional.to_owned());
                1
            }
        };
        rest = &rest[consumed..];
    }
    Ok(parsed)
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let parsed = parse_log_args("stats", args, &["--critical-path", "--cache-dir"])?;
    let [run] = parsed.positional.as_slice() else {
        return Err(
            "`stats` needs one run id (printed by `sweep`) or a path to a .telemetry file".into(),
        );
    };
    let path = resolve_run_log(run, parsed.cache_dir.as_deref())?;
    let log = TelemetryLog::load(path)?;
    if parsed.critical_path {
        emit(&report::render_critical_path(&log));
    } else {
        emit(&report::render_stats(&log));
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let parsed = parse_log_args("trace", args, &["-o", "--out", "--check", "--cache-dir"])?;
    let [run] = parsed.positional.as_slice() else {
        return Err("`trace` needs one run id or a path to a .telemetry file".into());
    };
    let path = resolve_run_log(run, parsed.cache_dir.as_deref())?;
    let log = TelemetryLog::load(path)?;
    let tree = log.span_tree();
    if parsed.check {
        tree.check()
            .map_err(|problem| format!("span tree check failed: {problem}"))?;
        eprintln!(
            "span tree ok: {} span(s), {} root(s), {} labelled lane(s)",
            tree.spans.len(),
            tree.roots.len(),
            tree.lane_labels.len(),
        );
    }
    let json = telemetry::trace::chrome_trace(&log);
    match &parsed.out {
        Some(out) => {
            std::fs::write(out, &json)
                .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
            eprintln!(
                "wrote {} ({} span(s)) — load in ui.perfetto.dev or chrome://tracing",
                out.display(),
                tree.spans.len(),
            );
        }
        None => emit(&json),
    }
    Ok(())
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let parsed = parse_log_args("diff", args, &["--fail-above", "--cache-dir"])?;
    let [run_a, run_b] = parsed.positional.as_slice() else {
        return Err("`diff` needs two run ids or .telemetry paths: `mramsim diff <a> <b>`".into());
    };
    let log_a = TelemetryLog::load(resolve_run_log(run_a, parsed.cache_dir.as_deref())?)?;
    let log_b = TelemetryLog::load(resolve_run_log(run_b, parsed.cache_dir.as_deref())?)?;
    let diff = telemetry::diff::RunDiff::compare(&log_a, &log_b);
    emit(&diff.render(run_a, run_b));
    if let Some(threshold) = parsed.fail_above {
        let worst = diff.max_gated_regression_pct();
        if worst > threshold {
            return Err(format!(
                "regression gate tripped: max gated regression {worst:.1}% \
                 exceeds --fail-above {threshold}%"
            ));
        }
        eprintln!("regression gate ok: max gated regression {worst:.1}% (limit {threshold}%)");
    }
    Ok(())
}

/// Folds `--name value` pairs onto a plan: multi-valued parameters
/// become grid axes, scalars fixed overrides.
fn plan_with_params(mut plan: SweepPlan, params: Vec<(String, ParamValue)>) -> SweepPlan {
    for (name, value) in params {
        plan = match value {
            ParamValue::List(values) if values.len() > 1 => plan.axis(&name, values),
            // A degenerate one-point range/list fixes a scalar; list
            // parameters coerce a Number back via `ParamSet::list`.
            ParamValue::List(values) if values.len() == 1 => plan.fix(&name, values[0]),
            other => plan.fix(&name, other),
        };
    }
    plan
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let options = parse_options(args)?;
    let (engine, cache_dir) = build_engine(&options)?;

    let run = if let Some(run_id) = &options.resume {
        if options.scenario.is_some() || !options.params.is_empty() {
            return Err(
                "`--resume` reloads the journaled plan; do not pass a scenario or parameters"
                    .into(),
            );
        }
        // `store()` is None for `--cache-dir off` *and* when the
        // default directory was unusable — resuming cannot work
        // without the persisted results either way.
        let (Some(dir), Some(_)) = (&cache_dir, engine.store()) else {
            return Err(
                "`--resume` needs a usable disk cache (do not pass `--cache-dir off`)".into(),
            );
        };
        let run = Run::resume(&engine, dir, run_id).map_err(|e| e.to_string())?;
        eprintln!(
            "resuming `{run_id}`: {}/{} point(s) already journaled",
            run.journaled(),
            run.plan().len(),
        );
        run
    } else {
        let scenario = options
            .scenario
            .clone()
            .ok_or("`sweep` needs a scenario id (or `--resume <run>`)")?;
        let plan = plan_with_params(SweepPlan::new(&scenario), options.params.clone());
        if plan.axes().is_empty() {
            return Err("`sweep` needs at least one multi-valued axis \
                        (e.g. `--pitch 60..240:20`)"
                .into());
        }
        let plan = engine.validate(&plan).map_err(|e| e.to_string())?;
        Run::open(&engine, plan, cache_dir.as_deref()).map_err(|e| e.to_string())?
    };
    execute_sweep(&options, &engine, cache_dir.as_deref(), run)
}

/// `mramsim campaign`: a sweep whose `--shard` axis is generated to
/// cover the scenario's whole grid, one journaled point per shard —
/// megabit campaigns inherit `--limit`, `--resume`, the disk cache,
/// and telemetry from the sweep machinery for free.
fn cmd_campaign(args: &[String]) -> Result<(), String> {
    let options = parse_options(args)?;
    if options.resume.is_some() {
        return Err("resume a campaign with `mramsim sweep --resume <run-id>`".into());
    }
    if options.params.iter().any(|(name, _)| name == "shard") {
        return Err(
            "`campaign` generates the `--shard` axis itself; use `sweep` for hand-picked shards"
                .into(),
        );
    }
    let scenario = options
        .scenario
        .clone()
        .unwrap_or_else(|| "array-wer-shard".to_owned());
    let (engine, cache_dir) = build_engine(&options)?;
    let specs = engine
        .registry()
        .get(&scenario)
        .map_err(|e| e.to_string())?
        .params();
    if !specs.iter().any(|s| s.name == "shard") {
        return Err(format!(
            "scenario `{scenario}` is not shardable (no `--shard` parameter)"
        ));
    }
    // The shard count comes from the grid geometry; both knobs must be
    // single values — a list would change the axis length per point.
    let numeric = |name: &str| -> Result<f64, String> {
        match options.params.iter().find(|(n, _)| n == name) {
            Some((_, ParamValue::Number(v))) => Ok(*v),
            Some(_) => Err(format!(
                "`campaign` needs a single `--{name}` value (a list would change the shard count)"
            )),
            None => match specs.iter().find(|s| s.name == name).map(|s| &s.default) {
                Some(ParamValue::Number(v)) => Ok(*v),
                _ => Err(format!(
                    "scenario `{scenario}` is not shardable (needs a numeric `--{name}` default)"
                )),
            },
        }
    };
    let rows = numeric("rows")?;
    let shard_rows = numeric("shard_rows")?;
    if rows < 1.0 || shard_rows < 1.0 || rows.fract() != 0.0 || shard_rows.fract() != 0.0 {
        return Err("`--rows` and `--shard_rows` must be positive integers".into());
    }
    let n_shards = (rows as usize).div_ceil(shard_rows as usize);
    // One campaign, one seed: the sweep would otherwise derive a seed
    // per shard from its fingerprint, and the same window would get a
    // different estimate in every shard. Unseeded, a campaign runs on
    // the scenario's default seed, as `run --shard k` does.
    let mut params = options.params.clone();
    if !params.iter().any(|(name, _)| name == "seed") {
        if let Some(spec) = specs.iter().find(|s| s.name == "seed") {
            params.push(("seed".to_owned(), spec.default.clone()));
        }
    }
    let plan = plan_with_params(SweepPlan::new(&scenario), params).axis(
        "shard",
        (0..n_shards).map(|shard| shard as f64).collect::<Vec<_>>(),
    );
    let plan = engine.validate(&plan).map_err(|e| e.to_string())?;
    let run = Run::open(&engine, plan, cache_dir.as_deref()).map_err(|e| e.to_string())?;
    eprintln!(
        "campaign `{scenario}`: {n_shards} shard(s) of {shard_rows} row(s) covering {rows} grid rows"
    );
    execute_sweep(&options, &engine, cache_dir.as_deref(), run)
}

/// Executes an opened run: telemetry install, progress line, the sweep
/// itself, output rendering, and the summary/journal/telemetry trailer.
fn execute_sweep(
    options: &Options,
    engine: &Engine,
    cache_dir: Option<&Path>,
    run: Run<'_>,
) -> Result<(), String> {
    // `--limit` exists to slice a resumable campaign; without a store
    // the computed slice would die with the process and the "resume to
    // continue" advice would be unfollowable.
    if options.limit.is_some() && engine.store().is_none() {
        return Err(
            "`--limit` slices a resumable campaign, which needs a usable disk cache \
             (do not pass `--cache-dir off`)"
                .into(),
        );
    }
    let run_id = run.run_id().to_owned();
    let journal = run.journal_path().map(Path::to_path_buf);
    // Telemetry: metrics aggregate in-process; events stream to the
    // run's JSONL log when a cache directory exists to hold it. All of
    // it is write-only with respect to results.
    let metrics = Arc::new(MetricsRecorder::new());
    let mut jsonl: Option<Arc<JsonlRecorder>> = None;
    let telemetry_guard = if options.telemetry {
        if let Some(dir) = &cache_dir {
            match JsonlRecorder::create(JsonlRecorder::path_for(dir, &run_id), Clock::system()) {
                Ok(sink) => jsonl = Some(Arc::new(sink)),
                Err(e) => eprintln!("warning: telemetry log disabled: {e}"),
            }
        }
        let mut sinks: Vec<Arc<dyn telemetry::Recorder>> = vec![metrics.clone()];
        if let Some(sink) = &jsonl {
            sinks.push(sink.clone());
        }
        Some(telemetry::install(Arc::new(Fanout(sinks))))
    } else {
        None
    };
    let show_progress = match options.progress.as_str() {
        "on" => true,
        "off" => false,
        _ => std::io::stderr().is_terminal(),
    };
    let progress = Progress::new(run.plan().len(), engine.workers());
    let on_job = |event: &JobEvent<'_>| {
        if show_progress {
            progress.on_job(event);
        }
    };
    let outcome = run.execute(&SweepOptions {
        limit: options.limit,
        on_done: Some(&on_job),
        cancel: None,
    });
    if show_progress {
        progress.clear();
    }
    // Process-wide stray-field kernel table traffic, gauged into the
    // sealed snapshot so `mramsim stats <run-id>` can render it.
    let kernel = mramsim_array::kernel_cache_stats();
    if options.telemetry && kernel.hits + kernel.misses > 0 {
        telemetry::gauge_set("kernel_cache.hits", kernel.hits as f64);
        telemetry::gauge_set("kernel_cache.misses", kernel.misses as f64);
        telemetry::gauge_set("kernel_cache.entries", kernel.entries as f64);
    }
    // Seal the log: one final metrics snapshot, then uninstall.
    if let Some(sink) = &jsonl {
        sink.write_snapshot(&metrics.snapshot());
    }
    drop(telemetry_guard);
    let summary = outcome.summary_table();
    match options.format.as_str() {
        "csv" => emit(&summary.to_csv()),
        _ => emit(&summary.to_markdown()),
    }
    let skipped = if outcome.skipped > 0 {
        format!(", {} skipped (job limit)", outcome.skipped)
    } else {
        String::new()
    };
    // Warm-hit and eviction counts come from the telemetry metrics
    // when they were recorded (the counters see exactly this sweep's
    // cache traffic); without telemetry they fall back to the sweep
    // outcome and the engine-lifetime cache stats.
    let snapshot = options.telemetry.then(|| metrics.snapshot());
    let (warm_hits, evictions) = match &snapshot {
        Some(snapshot) => (
            snapshot.counter("cache.memory_hits"),
            snapshot.counter("cache.evictions"),
        ),
        None => (
            outcome.cache_hits.saturating_sub(outcome.disk_hits) as u64,
            engine.cache_stats().evictions,
        ),
    };
    let pressure = if evictions > 0 {
        format!(", {evictions} memory eviction(s)")
    } else {
        String::new()
    };
    // Only scenarios that evaluate stray-field kernels touch this
    // cache; stay quiet for the rest.
    let kernels = if kernel.hits + kernel.misses > 0 {
        format!(
            ", kernel cache {}/{} hit(s) ({} kernel(s) held)",
            kernel.hits,
            kernel.hits + kernel.misses,
            kernel.entries,
        )
    } else {
        String::new()
    };
    // Window-class rows the computed points produced, and how many of
    // them the campaign memo served without running an ensemble (from
    // the telemetry counters; quiet for scenarios without classes).
    let memo = match &snapshot {
        Some(snapshot) if snapshot.counter("campaign.classes") > 0 => format!(
            ", class memo {}/{} hit(s)",
            snapshot.counter("campaign.memo_hits"),
            snapshot.counter("campaign.classes"),
        ),
        _ => String::new(),
    };
    eprintln!(
        "swept `{}`: {} point(s) on {} worker(s) in {:.1?} — {} cache hit(s) ({warm_hits} warm, {} from disk), {} error(s){skipped}{pressure}{kernels}{memo}",
        outcome.scenario,
        outcome.jobs.len(),
        engine.workers(),
        outcome.duration,
        outcome.cache_hits,
        outcome.disk_hits,
        outcome.errors,
    );
    if let Some(journal) = &journal {
        eprintln!(
            "run `{run_id}` journaled at {} — continue with `mramsim sweep --resume {run_id}`",
            journal.display()
        );
    }
    if let Some(sink) = &jsonl {
        eprintln!(
            "telemetry at {} — inspect with `mramsim stats {run_id}`",
            sink.path().display()
        );
    }
    Ok(())
}

/// `mramsim serve`: bind the HTTP service and block until a graceful
/// `POST /shutdown` drain completes.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut max_inflight = 4usize;
    let mut rest: Vec<String> = Vec::new();
    let mut remaining = args.iter();
    while let Some(flag) = remaining.next() {
        match flag.as_str() {
            "--addr" => {
                addr = remaining
                    .next()
                    .ok_or("`--addr` needs a host:port value")?
                    .clone();
            }
            "--max-inflight" => {
                let value = remaining.next().ok_or("`--max-inflight` needs a value")?;
                max_inflight = value
                    .parse()
                    .map_err(|_| format!("`--max-inflight` needs an integer, got `{value}`"))?;
                if max_inflight == 0 {
                    return Err("`--max-inflight` must be at least 1".to_owned());
                }
            }
            _ => rest.push(flag.clone()),
        }
    }
    let options = parse_options(&rest)?;
    if options.scenario.is_some() || !options.params.is_empty() {
        return Err(
            "`serve` takes no scenario or parameters; clients submit plans over HTTP".to_owned(),
        );
    }
    let (engine, cache_dir) = build_engine(&options)?;
    let engine = Arc::new(engine);
    let config = ServeConfig {
        addr,
        max_inflight,
        cache_dir,
    };
    let server = Server::bind(engine, &config).map_err(|e| e.to_string())?;
    // Scripts (and the CI smoke test) bind port 0 and read the real
    // address from this line, so it must land before the first request.
    emit(&format!("listening on http://{}\n", server.local_addr()));
    if std::io::Write::flush(&mut std::io::stdout()).is_err() {
        return Ok(());
    }
    eprintln!(
        "POST /runs | POST /sweeps | GET /runs/<job> | GET /results/<key> | \
         GET /healthz | GET /metrics | POST /shutdown"
    );
    server.run();
    eprintln!("drained; all journals flushed");
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("`report` takes scenario ids only, got `{flag}`"));
    }
    // Reports also read and feed the persistent cache (falling back
    // to memory-only, with a warning, when the default directory is
    // unusable — the same degradation run/sweep announce). An empty
    // argument list parses to the default options.
    let (engine, _) = build_engine(&parse_options(&[])?)?;
    let ids: Vec<&str> = args.iter().map(String::as_str).collect();
    for id in &ids {
        engine.registry().get(id).map_err(|e| e.to_string())?;
    }
    emit(&engine.report(&ids));
    Ok(())
}
