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
//! Each command declares its flags in [`COMMANDS`]; in `run`, `sweep`
//! and `campaign` other `--name value` pairs set scenario parameters:
//! numbers (`90`), lists (`20,35,55`), or stepped ranges (`60..240:20`).
//! In `sweep`, lists and ranges become grid axes.

#![deny(unsafe_code)]

use mramsim_engine::store::DiskStore;
use mramsim_engine::{
    note, parse_value, Engine, EngineError, JobEvent, ParamSet, ParamValue, Registry, Run,
    ServeConfig, Server, SweepOptions, SweepPlan, Tier,
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

OPTIONS (each names the commands that take it, `sweep` also meaning
`campaign` except for --resume; anything else is an error):
    --<param> <value>    run, sweep: set a scenario parameter; value forms:
                             90           number
                             20,35,55     list
                             60..240:20   inclusive range with step
                         in `sweep`, lists/ranges become grid axes
    --format <md|csv|chart>   run, sweep: output format (default md)
    --workers <n>             sweep, serve: worker threads (default: all cores)
    --cache-dir <path|off>    all but list and report: persistent result
                              cache directory (default: $MRAMSIM_CACHE_DIR,
                              else ~/.cache/mramsim; `off` disables disk —
                              MRAMSIM_CACHE_DIR=off does too)
    --cache-cap <n>           run, sweep, serve: in-memory cache capacity
                              in entries
    --limit <n>               sweep: compute at most n new points,
                              journal them, and stop (resume later)
    --resume <run>            sweep: continue a journaled run; the plan
                              is reloaded from the journal, finished
                              points are served from the disk cache
    --telemetry <on|off>      sweep: record metrics/events to
                              <cache-dir>/runs/<run-id>.telemetry
                              (each resumed slice to its own
                              <run-id>.<n>.telemetry, n >= 2; default
                              on; results are byte-identical either way)
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

/// A command: its name, the most positionals it takes (it reports a
/// missing one itself), the flags it takes, and its handler.
type Command = (&'static str, usize, &'static str, Handler);
type Handler = fn(&Args) -> Result<(), String>;

/// Every command's grammar. Anything else is an error: see [`parse`].
const COMMANDS: [Command; 9] = [
    ("list", 0, "", cmd_list),
    (
        "run",
        1,
        "--format --cache-dir --cache-cap --<param>",
        cmd_run,
    ),
    (
        "sweep",
        1,
        "--format --workers --cache-dir --cache-cap --limit --resume --telemetry --progress --<param>",
        cmd_sweep,
    ),
    // A campaign resumes through `sweep --resume <run-id>`.
    (
        "campaign",
        1,
        "--format --workers --cache-dir --cache-cap --limit --telemetry --progress --<param>",
        cmd_campaign,
    ),
    (
        "serve",
        0,
        "--addr --max-inflight --workers --cache-dir --cache-cap",
        cmd_serve,
    ),
    ("report", usize::MAX, "", cmd_report),
    ("stats", 1, "--critical-path --cache-dir", cmd_stats),
    ("trace", 1, "--out --check --cache-dir", cmd_trace),
    ("diff", 2, "--fail-above --cache-dir", cmd_diff),
];

/// Among a command's flags, lets any other `--name value` pair set a
/// scenario parameter.
const PARAMS: &str = "--<param>";

/// The flags that take no value. Every other flag takes the next
/// argument, whatever it looks like (`--hz_oe -50`).
const SWITCHES: [&str; 2] = ["--check", "--critical-path"];

/// A command line that passed its command's grammar.
#[derive(Default)]
struct Args {
    positional: Vec<String>,
    /// The flags given, with their checked values (empty for a switch).
    flags: Vec<(String, String)>,
    params: Vec<(String, ParamValue)>,
}

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().find(|(f, _)| f == flag)?;
        Some(value)
    }

    /// A count or percentage, which [`check_value`] parsed once already.
    fn number<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag)?.parse().ok()
    }
}

/// Parses a command's arguments. Anything its grammar does not declare
/// is one error that names the command and lists its flags: an
/// undeclared flag, a flag or parameter given twice, a flag without
/// its value, or one positional too many.
fn parse(&(name, positionals, flags, _): &Command, args: &[String]) -> Result<Args, String> {
    let misuse = |problem: String| match flags {
        "" => format!("`{name}` {problem} (it takes no flags)"),
        _ => format!("`{name}` {problem} (flags: {})", flags.replace(' ', ", ")),
    };
    let takes = |list: &str, flag: &str| flag != PARAMS && list.split(' ').any(|f| f == flag);
    let mut parsed = Args::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with('-') {
            if parsed.positional.len() == positionals {
                return Err(misuse(format!("got an extra argument `{arg}`")));
            }
            parsed.positional.push(arg.clone());
            continue;
        }
        // `-o` is the short form of `trace --out`.
        let flag = if arg == "-o" { "--out" } else { arg.as_str() };
        // Another command's flag is never a scenario parameter.
        let param = flag.strip_prefix("--").filter(|_| {
            flags.contains(PARAMS) && !COMMANDS.iter().any(|command| takes(command.2, flag))
        });
        if param.is_none() && !takes(flags, flag) {
            return Err(misuse(format!("does not take `{arg}`")));
        }
        if parsed.value(flag).is_some() || parsed.params.iter().any(|(p, _)| Some(&**p) == param) {
            return Err(misuse(format!("got `{arg}` twice")));
        }
        let value = if SWITCHES.contains(&flag) {
            ""
        } else {
            rest.next()
                .ok_or_else(|| misuse(format!("needs a value after `{arg}`")))?
        };
        match param {
            Some(param) => {
                let value = parse_value(param, value).map_err(|e| e.to_string())?;
                parsed.params.push((param.to_owned(), value));
            }
            None => {
                check_value(flag, value)?;
                parsed.flags.push((flag.to_owned(), value.to_owned()));
            }
        }
    }
    Ok(parsed)
}

/// Checks a flag's value where it enters, so a command reads back only
/// values it can use.
fn check_value(flag: &str, value: &str) -> Result<(), String> {
    let count = value.parse::<usize>().ok();
    let wanted = match flag {
        "--format" if !matches!(value, "md" | "csv" | "chart") => "must be md, csv, or chart",
        "--telemetry" if !matches!(value, "on" | "off") => "must be on or off",
        "--progress" if !matches!(value, "auto" | "on" | "off") => "must be auto, on, or off",
        "--workers" | "--cache-cap" | "--limit" if count.is_none() => "needs an integer",
        "--max-inflight" if count.is_none_or(|n| n == 0) => "needs an integer of at least 1",
        "--fail-above" if !value.parse().is_ok_and(|p: f64| p.is_finite() && p >= 0.0) => {
            "needs a non-negative percentage"
        }
        _ => return Ok(()),
    };
    Err(format!("`{flag}` {wanted}, got `{value}`"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            note!("error: {message}\nrun `mramsim help` for usage\n");
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
        Some(name) => {
            let command = COMMANDS
                .iter()
                .find(|command| command.0 == name)
                .ok_or_else(|| format!("unknown command `{name}`"))?;
            (command.3)(&parse(command, &args[1..])?)
        }
    }
}

/// The disk-cache directory to use: the `--cache-dir` value, `None`
/// for `off`, or the default location.
fn resolve_cache_dir(flag: Option<&str>) -> Option<PathBuf> {
    match flag {
        Some("off") => None,
        Some(dir) => Some(PathBuf::from(dir)),
        None => DiskStore::default_dir(),
    }
}

/// The engine `args` ask for, with the cache directory it uses (`None`
/// when the disk tier is off).
fn build_engine(args: &Args) -> Result<(Engine, Option<PathBuf>), String> {
    let base = || {
        let mut engine = Engine::standard();
        if let Some(n) = args.number("--workers") {
            engine = engine.with_workers(n);
        }
        if let Some(cap) = args.number("--cache-cap") {
            engine = engine.with_cache_capacity(cap);
        }
        engine
    };
    let flag = args.value("--cache-dir");
    let Some(dir) = resolve_cache_dir(flag) else {
        return Ok((base(), None));
    };
    match base().with_disk_cache(&dir) {
        Ok(engine) => Ok((engine, Some(dir))),
        // An unusable *default* directory (read-only $HOME, sandbox)
        // degrades to memory-only with a warning — persistence is an
        // optimisation there. An explicitly requested directory that
        // cannot be used is an error the user needs to hear about.
        Err(e) if flag.is_none() => {
            note!("warning: persistent cache disabled: {e}\n");
            Ok((base(), Some(dir)))
        }
        Err(e) => Err(e.to_string()),
    }
}

fn cmd_list(_: &Args) -> Result<(), String> {
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

fn cmd_run(args: &Args) -> Result<(), String> {
    let [scenario] = args.positional.as_slice() else {
        return Err("`run` needs a scenario id".into());
    };
    let (engine, _) = build_engine(args)?;
    let mut overrides = ParamSet::new();
    for (name, value) in &args.params {
        overrides.insert(name, value.clone());
    }
    let outcome = engine
        .run(scenario, &overrides)
        .map_err(|e: EngineError| e.to_string())?;
    match args.value("--format") {
        Some("csv") => emit(&outcome.output.to_csv()),
        Some("chart") => match &outcome.output.chart {
            Some(chart) => emit(chart),
            None => emit(&outcome.output.to_markdown()),
        },
        _ => emit(&outcome.output.to_markdown()),
    }
    note!(
        "ran `{scenario}` in {:.1?}{}\n",
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
        note!(
            "\r\x1b[K  {done}/{} jobs · {rate:.1} jobs/s · ETA {} · cache {hit_pct:.0}% · pool {util:.0}%",
            self.total,
            report::format_secs(eta),
        );
    }

    /// Erases the progress line so the summary starts on a clean line.
    fn clear(&self) {
        note!("\r\x1b[K");
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

fn cmd_stats(args: &Args) -> Result<(), String> {
    let [run] = args.positional.as_slice() else {
        return Err(
            "`stats` needs one run id (printed by `sweep`) or a path to a .telemetry file".into(),
        );
    };
    let path = resolve_run_log(run, args.value("--cache-dir"))?;
    let log = TelemetryLog::load(path)?;
    if args.value("--critical-path").is_some() {
        emit(&report::render_critical_path(&log));
    } else {
        emit(&report::render_stats(&log));
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let [run] = args.positional.as_slice() else {
        return Err("`trace` needs one run id or a path to a .telemetry file".into());
    };
    let path = resolve_run_log(run, args.value("--cache-dir"))?;
    let log = TelemetryLog::load(path)?;
    let tree = log.span_tree();
    if args.value("--check").is_some() {
        tree.check()
            .map_err(|problem| format!("span tree check failed: {problem}"))?;
        note!(
            "span tree ok: {} span(s), {} root(s), {} labelled lane(s)\n",
            tree.spans.len(),
            tree.roots.len(),
            tree.lane_labels.len(),
        );
    }
    let json = telemetry::trace::chrome_trace(&log);
    match args.value("--out") {
        Some(out) => {
            std::fs::write(out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
            note!(
                "wrote {out} ({} span(s)) — load in ui.perfetto.dev or chrome://tracing\n",
                tree.spans.len(),
            );
        }
        None => emit(&json),
    }
    Ok(())
}

fn cmd_diff(args: &Args) -> Result<(), String> {
    let [run_a, run_b] = args.positional.as_slice() else {
        return Err("`diff` needs two run ids or .telemetry paths: `mramsim diff <a> <b>`".into());
    };
    let cache_dir = args.value("--cache-dir");
    let log_a = TelemetryLog::load(resolve_run_log(run_a, cache_dir)?)?;
    let log_b = TelemetryLog::load(resolve_run_log(run_b, cache_dir)?)?;
    let diff = telemetry::diff::RunDiff::compare(&log_a, &log_b);
    emit(&diff.render(run_a, run_b));
    if let Some(threshold) = args.number::<f64>("--fail-above") {
        let worst = diff.max_gated_regression_pct();
        if worst > threshold {
            return Err(format!(
                "regression gate tripped: max gated regression {worst:.1}% \
                 exceeds --fail-above {threshold}%"
            ));
        }
        note!("regression gate ok: max gated regression {worst:.1}% (limit {threshold}%)\n");
    }
    Ok(())
}

/// Folds `--name value` pairs onto a plan: multi-valued parameters
/// become grid axes, scalars fixed overrides.
fn plan_with_params(mut plan: SweepPlan, params: &[(String, ParamValue)]) -> SweepPlan {
    for (name, value) in params {
        plan = match value {
            ParamValue::List(values) if values.len() > 1 => plan.axis(name, values.clone()),
            // A degenerate one-point range/list fixes a scalar; list
            // parameters coerce a Number back via `ParamSet::list`.
            ParamValue::List(values) if values.len() == 1 => plan.fix(name, values[0]),
            other => plan.fix(name, other.clone()),
        };
    }
    plan
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let (engine, cache_dir) = build_engine(args)?;

    let run = if let Some(run_id) = args.value("--resume") {
        if !args.positional.is_empty() || !args.params.is_empty() {
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
        note!(
            "resuming `{run_id}`: {}/{} point(s) already journaled\n",
            run.journaled(),
            run.plan().len(),
        );
        run
    } else {
        let [scenario] = args.positional.as_slice() else {
            return Err("`sweep` needs a scenario id (or `--resume <run>`)".into());
        };
        let plan = plan_with_params(SweepPlan::new(scenario), &args.params);
        if plan.axes().is_empty() {
            return Err("`sweep` needs at least one multi-valued axis \
                        (e.g. `--pitch 60..240:20`)"
                .into());
        }
        let plan = engine.validate(&plan).map_err(|e| e.to_string())?;
        Run::open(&engine, plan, cache_dir.as_deref()).map_err(|e| e.to_string())?
    };
    execute_sweep(args, &engine, cache_dir.as_deref(), run)
}

/// `mramsim campaign`: a sweep whose `--shard` axis is generated to
/// cover the scenario's whole grid, one journaled point per shard —
/// megabit campaigns inherit `--limit`, `--resume`, the disk cache,
/// and telemetry from the sweep machinery for free.
fn cmd_campaign(args: &Args) -> Result<(), String> {
    if args.params.iter().any(|(name, _)| name == "shard") {
        return Err(
            "`campaign` generates the `--shard` axis itself; use `sweep` for hand-picked shards"
                .into(),
        );
    }
    let scenario = args
        .positional
        .first()
        .map_or("array-wer-shard", String::as_str);
    let (engine, cache_dir) = build_engine(args)?;
    let specs = engine
        .registry()
        .get(scenario)
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
        match args.params.iter().find(|(n, _)| n == name) {
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
    let mut params = args.params.clone();
    if !params.iter().any(|(name, _)| name == "seed") {
        if let Some(spec) = specs.iter().find(|s| s.name == "seed") {
            params.push(("seed".to_owned(), spec.default.clone()));
        }
    }
    let plan = plan_with_params(SweepPlan::new(scenario), &params).axis(
        "shard",
        (0..n_shards).map(|shard| shard as f64).collect::<Vec<_>>(),
    );
    let plan = engine.validate(&plan).map_err(|e| e.to_string())?;
    let run = Run::open(&engine, plan, cache_dir.as_deref()).map_err(|e| e.to_string())?;
    note!(
        "campaign `{scenario}`: {n_shards} shard(s) of {shard_rows} row(s) covering {rows} grid rows\n"
    );
    execute_sweep(args, &engine, cache_dir.as_deref(), run)
}

/// Executes an opened run: telemetry install, progress line, the sweep
/// itself, output rendering, and the summary/journal/telemetry trailer.
fn execute_sweep(
    args: &Args,
    engine: &Engine,
    cache_dir: Option<&Path>,
    run: Run<'_>,
) -> Result<(), String> {
    // `--limit` exists to slice a resumable campaign; without a store
    // the computed slice would die with the process and the "resume to
    // continue" advice would be unfollowable.
    let limit = args.number("--limit");
    if limit.is_some() && engine.store().is_none() {
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
    let telemetry = args.value("--telemetry") != Some("off");
    // A resumed slice logs to the first free `<run-id>.<n>.telemetry`,
    // n ≥ 2, and leaves the earlier slices' logs as they are: span ids
    // and lanes restart in every process, so slices cannot share a log.
    let log_id = match (&cache_dir, args.value("--resume")) {
        (Some(dir), Some(_)) => (2..)
            .map(|n| format!("{run_id}.{n}"))
            .find(|id| !JsonlRecorder::path_for(dir, id).exists())
            .expect("an unbounded range has a free slice number"),
        _ => run_id.clone(),
    };
    let metrics = Arc::new(MetricsRecorder::new());
    let mut jsonl: Option<Arc<JsonlRecorder>> = None;
    let telemetry_guard = if telemetry {
        if let Some(dir) = &cache_dir {
            match JsonlRecorder::create(JsonlRecorder::path_for(dir, &log_id), Clock::system()) {
                Ok(sink) => jsonl = Some(Arc::new(sink)),
                Err(e) => note!("warning: telemetry log disabled: {e}\n"),
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
    let show_progress = match args.value("--progress") {
        Some("on") => true,
        Some("off") => false,
        _ => std::io::stderr().is_terminal(),
    };
    let progress = Progress::new(run.plan().len(), engine.workers());
    let on_job = |event: &JobEvent<'_>| {
        if show_progress {
            progress.on_job(event);
        }
    };
    let outcome = run.execute(&SweepOptions {
        limit,
        on_done: Some(&on_job),
        cancel: None,
    });
    if show_progress {
        progress.clear();
    }
    // Process-wide stray-field kernel table traffic, gauged into the
    // sealed snapshot so `mramsim stats <run-id>` can render it.
    let kernel = mramsim_array::kernel_cache_stats();
    if telemetry && kernel.hits + kernel.misses > 0 {
        telemetry::gauge_set("kernel_cache.hits", kernel.hits as f64);
        telemetry::gauge_set("kernel_cache.misses", kernel.misses as f64);
        telemetry::gauge_set("kernel_cache.entries", kernel.entries as f64);
    }
    // Seal the log: one final metrics snapshot, then uninstall.
    let snapshot = metrics.snapshot();
    if let Some(sink) = &jsonl {
        sink.write_snapshot(&snapshot);
    }
    drop(telemetry_guard);
    let summary = outcome.summary_table();
    match args.value("--format") {
        Some("csv") => emit(&summary.to_csv()),
        _ => emit(&summary.to_markdown()),
    }
    let skipped = if outcome.skipped > 0 {
        format!(", {} skipped (job limit)", outcome.skipped)
    } else {
        String::new()
    };
    // The process has one engine, so its lifetime evictions are this
    // sweep's.
    let evictions = engine.cache_stats().evictions;
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
    // the telemetry counters; quiet without telemetry and for
    // scenarios without classes).
    let memo = if snapshot.counter("campaign.classes") > 0 {
        format!(
            ", class memo {}/{} hit(s)",
            snapshot.counter("campaign.memo_hits"),
            snapshot.counter("campaign.classes"),
        )
    } else {
        String::new()
    };
    note!(
        "swept `{}`: {} point(s) on {} worker(s) in {:.1?} — {} cache hit(s) ({} warm, {} from disk), {} error(s){skipped}{pressure}{kernels}{memo}\n",
        outcome.scenario,
        outcome.jobs.len(),
        engine.workers(),
        outcome.duration,
        outcome.cache_hits,
        outcome.cache_hits.saturating_sub(outcome.disk_hits),
        outcome.disk_hits,
        outcome.errors,
    );
    if let Some(journal) = &journal {
        note!(
            "run `{run_id}` journaled at {} — continue with `mramsim sweep --resume {run_id}`\n",
            journal.display()
        );
    }
    if let Some(sink) = &jsonl {
        note!(
            "telemetry at {} — inspect with `mramsim stats {log_id}`\n",
            sink.path().display()
        );
    }
    Ok(())
}

/// `mramsim serve`: bind the HTTP service and block until a graceful
/// `POST /shutdown` drain completes.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let (engine, cache_dir) = build_engine(args)?;
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: args.value("--addr").map_or(defaults.addr, str::to_owned),
        max_inflight: args
            .number("--max-inflight")
            .unwrap_or(defaults.max_inflight),
        cache_dir,
    };
    let server = Server::bind(Arc::new(engine), &config).map_err(|e| e.to_string())?;
    // Scripts (and the CI smoke test) bind port 0 and read the real
    // address from this line, so it must land before the first request.
    emit(&format!("listening on http://{}\n", server.local_addr()));
    if std::io::Write::flush(&mut std::io::stdout()).is_err() {
        return Ok(());
    }
    note!(
        "POST /runs | POST /sweeps | GET /runs/<job> | GET /results/<key> | \
         GET /healthz | GET /metrics | POST /shutdown\n"
    );
    server.run();
    note!("drained; all journals flushed\n");
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), String> {
    // Reports also read and feed the persistent cache (falling back
    // to memory-only, with a warning, when the default directory is
    // unusable — the same degradation run/sweep announce).
    let (engine, _) = build_engine(args)?;
    let ids: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    for id in &ids {
        engine.registry().get(id).map_err(|e| e.to_string())?;
    }
    emit(&engine.report(&ids));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|command| command.0 == name).unwrap()
    }

    /// `line` parsed by its first word's grammar.
    fn parse_line(line: &str) -> Result<Args, String> {
        let args = words(line);
        parse(command(&args[0]), &args[1..])
    }

    /// A value every flag that takes one accepts.
    fn sample(flag: &str) -> &'static str {
        match flag {
            "--format" => "csv",
            "--telemetry" => "off",
            "--progress" => "on",
            "--workers" | "--cache-cap" | "--limit" | "--max-inflight" | "--fail-above" => "2",
            _ => "x",
        }
    }

    /// `flag` with its sample value, if it takes one.
    fn given(flag: &str) -> String {
        if SWITCHES.contains(&flag) {
            flag.to_owned()
        } else {
            format!("{flag} {}", sample(flag))
        }
    }

    fn declared(command: &Command) -> impl Iterator<Item = &'static str> {
        command.2.split_whitespace().filter(|f| *f != PARAMS)
    }

    #[test]
    fn every_command_parses_each_declared_form() {
        for command @ (name, positionals, flags, _) in &COMMANDS {
            let ids: Vec<String> = (0..(*positionals).min(3))
                .map(|i| format!("id{i}"))
                .collect();
            let mut options: Vec<String> = declared(command).map(given).collect();
            if flags.contains(PARAMS) {
                options.push("--pitch 60..90:10 --hz_oe -50".to_owned());
            }
            // Positionals may stand before or after the flags.
            for line in [
                format!("{name} {} {}", ids.join(" "), options.join(" ")),
                format!("{name} {} {}", options.join(" "), ids.join(" ")),
            ] {
                let args = parse_line(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
                assert_eq!(args.positional, ids, "{line}");
                for flag in declared(command) {
                    let expected = if SWITCHES.contains(&flag) {
                        ""
                    } else {
                        sample(flag)
                    };
                    assert_eq!(args.value(flag), Some(expected), "{line}");
                }
                if flags.contains(PARAMS) {
                    let names: Vec<&str> = args.params.iter().map(|(n, _)| n.as_str()).collect();
                    assert_eq!(names, ["pitch", "hz_oe"], "{line}");
                    assert_eq!(args.params[1].1, ParamValue::Number(-50.0), "{line}");
                }
            }
        }
    }

    #[test]
    fn every_command_rejects_what_it_does_not_declare() {
        let every_flag: Vec<&str> = COMMANDS.iter().flat_map(declared).collect();
        for command @ (name, positionals, flags, _) in &COMMANDS {
            let rejected = |line: String, flag: &str| {
                let err = parse_line(&line)
                    .err()
                    .unwrap_or_else(|| panic!("`{line}` parsed"));
                assert!(err.starts_with(&format!("`{name}` ")), "`{line}`: {err}");
                assert!(err.contains(flag), "`{line}`: {err}");
            };
            // Another command's flag, never a scenario parameter here.
            for flag in every_flag
                .iter()
                .filter(|f| !command.2.split(' ').any(|g| g == **f))
            {
                rejected(format!("{name} {}", given(flag)), flag);
            }
            if !flags.contains(PARAMS) {
                rejected(format!("{name} --pitch 90"), "--pitch");
            }
            for flag in declared(command) {
                rejected(format!("{name} {} {}", given(flag), given(flag)), flag);
                if !SWITCHES.contains(&flag) {
                    rejected(format!("{name} {flag}"), flag);
                }
            }
            if flags.contains(PARAMS) {
                rejected(format!("{name} --pitch 90 --pitch 120"), "--pitch");
                rejected(format!("{name} --pitch"), "--pitch");
            }
            if *positionals < usize::MAX {
                let ids: Vec<String> = (0..=*positionals).map(|i| format!("id{i}")).collect();
                rejected(format!("{name} {}", ids.join(" ")), &ids[*positionals]);
            }
        }
        // `-o` is `--out`: giving both is giving one flag twice.
        let args = parse_line("trace r -o t.json").unwrap();
        assert_eq!(args.value("--out"), Some("t.json"));
        assert!(parse_line("trace r -o a --out b").is_err_and(|e| e.contains("got `--out` twice")));
    }

    #[test]
    fn typed_values_are_checked_where_they_enter() {
        for (line, message) in [
            (
                "run fig4a --format bogus",
                "`--format` must be md, csv, or chart, got `bogus`",
            ),
            (
                "sweep --telemetry maybe",
                "`--telemetry` must be on or off, got `maybe`",
            ),
            (
                "sweep --progress x",
                "`--progress` must be auto, on, or off, got `x`",
            ),
            (
                "sweep --workers two",
                "`--workers` needs an integer, got `two`",
            ),
            (
                "campaign --limit -1",
                "`--limit` needs an integer, got `-1`",
            ),
            (
                "serve --max-inflight 0",
                "`--max-inflight` needs an integer of at least 1",
            ),
            (
                "diff a b --fail-above -1",
                "`--fail-above` needs a non-negative percentage",
            ),
            (
                "diff a b --fail-above NaN",
                "`--fail-above` needs a non-negative percentage",
            ),
        ] {
            assert!(
                parse_line(line).is_err_and(|e| e.starts_with(message)),
                "`{line}`: {:?}",
                parse_line(line).err()
            );
        }
        let args = parse_line("serve --max-inflight 3 --workers 2 --addr 127.0.0.1:0").unwrap();
        assert_eq!(args.number::<usize>("--max-inflight"), Some(3));
        assert_eq!(args.value("--addr"), Some("127.0.0.1:0"));
        let args = parse_line("diff a b --fail-above 12.5").unwrap();
        assert_eq!(args.number::<f64>("--fail-above"), Some(12.5));
    }
}
