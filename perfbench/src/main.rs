//! `perfbench`: the end-to-end and per-layer benchmark of mramsim.
//!
//! ```text
//! perfbench --workload <megabit-campaign|array-wer-sweep|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets up several times, runs a fixed number of
//! ops sized to `--seconds`, checks every output, and reports the
//! end-to-end metrics. With `--trace 1` it runs a smaller slice with
//! the benchmark's own calls into each layer wrapped in in-memory
//! spans, writes them as Chrome trace-event JSON under
//! `perfbench/out/`, and reports the per-layer metrics. Either way a
//! human-readable report comes first and the last stdout line is one
//! JSON object with the keys `correct`, `attempted`, `failed`, and
//! `metrics`. Run from the repository root.

mod checks;
mod host;
mod probes;
mod report;
mod serve_mix;
mod sweeps;
mod trace;

use mramsim_numerics::hash::Fnv1a;
use mramsim_telemetry::Json;
use report::{Layers, Measured};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use sweeps::Kind;

/// Where runs keep their scratch cache dirs and traces.
const OUT_DIR: &str = "perfbench/out";

const USAGE: &str = "usage: perfbench --workload <megabit-campaign|array-wer-sweep|serve-mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sweep(Kind),
    ServeMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "megabit-campaign" => Some(Self::Sweep(Kind::Megabit)),
            "array-wer-sweep" => Some(Self::Sweep(Kind::ArrayWer)),
            "serve-mix" => Some(Self::ServeMix),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?.to_owned();
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a non-negative integer"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        name,
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// A run-private scratch directory, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Result<Self, String> {
        let path = Path::new(OUT_DIR).join(format!("run-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A 32-bit seed for `(run seed, domain, index)`: the run seed picks
/// every campaign seed, pitch, and key; it never changes the op count.
pub fn derive(seed: u64, domain: &str, index: usize) -> u32 {
    let mut h = Fnv1a::new();
    h.field(domain.as_bytes());
    h.field(&seed.to_le_bytes());
    h.update(&(index as u64).to_le_bytes());
    (h.finish() >> 16) as u32
}

fn stamp(args: &Args, extra: &[(&str, Json)]) -> Json {
    let mut fields = vec![
        ("workload", Json::Str(args.name.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("trace", Json::Bool(args.trace)),
    ];
    fields.extend(extra.iter().cloned());
    host::provenance(&fields)
}

fn untraced(args: &Args, scratch: &Path) -> Result<String, String> {
    let measured: Measured = match args.workload {
        Workload::Sweep(kind) => sweeps::run(kind, args.seed, args.seconds, scratch)?,
        Workload::ServeMix => serve_mix::run(args.seed, args.seconds, scratch)?,
    };
    let metrics = measured.end_to_end(host::peak_rss_kb());
    let failed = measured.failed();
    println!("provenance: {}", stamp(args, &measured.context).render());
    println!(
        "{}: {} ops in {} units, {} set-ups, timed phase {:.3} s",
        args.name,
        measured.ops,
        measured.units.len(),
        measured.setup_s.len(),
        measured.wall_s()
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<18} {value:>14.6} {unit}");
    }
    let calm = measured.calm_units();
    let mean_steal = |units: &[&report::Unit]| {
        units.iter().map(|u| u.steal_frac).sum::<f64>() / units.len().max(1) as f64
    };
    println!(
        "  over the {} of {} units with the least CPU steal ({:.3}; {:.3} over all units)",
        calm.len(),
        measured.units.len(),
        mean_steal(&calm),
        mean_steal(&measured.units.iter().collect::<Vec<_>>())
    );
    println!(
        "  {:<18} {:>14.6} 1",
        "error_rate",
        failed as f64 / measured.ops as f64
    );
    for (name, check) in &measured.run_checks {
        match check {
            Ok(()) => println!("  check {name}: ok"),
            Err(e) => println!("  check {name}: FAILED: {e}"),
        }
    }
    for failure in measured.failures.iter().take(5) {
        println!("  failed op: {failure}");
    }
    if let Some((_, Json::Num(tw))) = measured
        .context
        .iter()
        .find(|(k, _)| *k == "time_wait_at_start")
    {
        if *tw > 0.0 {
            println!("  note: run started with {tw} TIME_WAIT sockets left by earlier runs");
        }
    }
    Ok(report::result_line(
        failed == 0,
        measured.ops,
        failed,
        &metrics,
    ))
}

fn traced(args: &Args, scratch: &Path) -> Result<String, String> {
    let tracer = trace::Tracer::new();
    let mut layers = Layers::default();
    let (attempted, failed, op_span) = match args.workload {
        Workload::Sweep(kind) => {
            let (attempted, failed) =
                sweeps::trace(kind, args.seed, scratch, &tracer, &mut layers)?;
            (attempted, failed, kind.op_span())
        }
        Workload::ServeMix => {
            let (attempted, failed) = serve_mix::trace(args.seed, scratch, &tracer, &mut layers)?;
            (attempted, failed, "w3.request")
        }
    };
    let path = Path::new(OUT_DIR).join(format!("trace-{}-seed{}.json", args.name, args.seed));
    std::fs::write(&path, tracer.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("provenance: {}", stamp(args, &[]).render());
    println!("{}: trace written to {}", args.name, path.display());
    println!("layer self time ({op_span} is the op root):");
    println!(
        "  {:<36} {:>7} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, totals) in tracer.layer_totals() {
        println!(
            "  {name:<36} {:>7} {:>12.3} {:>12.3}",
            totals.count,
            totals.total_ns as f64 * 1e-6,
            totals.self_ns as f64 * 1e-6
        );
    }
    println!("per-layer metrics:");
    for line in layers.table().lines() {
        println!("  {line}");
    }
    let metrics = layers.result_metrics()?;
    Ok(report::result_line(
        failed == 0,
        attempted,
        failed,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = Scratch::new(&args.name).and_then(|scratch| {
        // Let file work queued by earlier runs land before this one.
        host::sync_filesystem(&scratch.0);
        if args.trace {
            traced(&args, &scratch.0)
        } else {
            untraced(&args, &scratch.0)
        }
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
