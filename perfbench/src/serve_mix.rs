//! `serve-mix` (W3): an in-process `Server` over loopback.
//!
//! The server runs one engine worker with the memory tier only: with a
//! disk tier every request also creates a journal and store entries —
//! about 24k files per run — and on a local ext4 disk mounted with
//! `discard` that made throughput fall from run to run (1212 → 697
//! req/s over four runs) as the freed blocks of earlier runs were
//! discarded. The journal and disk layers are timed by the traced
//! run's probes instead. Two closed-loop clients, each with its own
//! device size and a warm set of 64 `fig4b` points, run a fixed kind
//! schedule: 7 of every 10 requests submit an 8-point sweep (6 warm
//! pitches, 2 fresh ones that force a kernel build, so every plan is
//! unique) and stream it to its summary line; 3 of every 10 fetch a
//! warm key from `GET /results/<key>`. An op is one request. Clients
//! close every connection abortively once its response is read, so
//! they leave no TIME_WAIT sockets behind.

use crate::checks::{self, Check};
use crate::host;
use crate::probes;
use crate::report::{median, Layers, Measured, Unit};
use crate::trace::Tracer;
use mramsim_array::{clear_kernel_cache, kernel_cache_stats};
use mramsim_engine::{Engine, ParamSet, ServeConfig, Server, SweepPlan};
use mramsim_telemetry::{Json, MetricsRecorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CLIENT_ECD: [f64; 2] = [35.0, 55.0];
const WARM: usize = 64;
const SWEEP_WARM: usize = 6;
const SWEEP_FRESH: usize = 2;
/// Admission limit. A finished job keeps its slot until its thread
/// releases it, just after the summary line went out, so a closed-loop
/// client can submit again while its previous job still counts. With a
/// limit of 4 a descheduled job thread on a busy host let a submission
/// hit 429 (2 of 32000 requests in one of ten runs); 16 leaves room for
/// that without ever queueing more than the two clients' work.
const MAX_INFLIGHT: usize = 16;
/// Set-ups per run (each ~30 ms); `setup_s` is their median.
const SETUPS: usize = 9;
/// Requests per client per second of `--seconds` (about the service
/// rate of 2 vCPUs).
const REQUESTS_PER_CLIENT_PER_S: f64 = 800.0;
/// Timed-phase segments; throughput and CPU per op are their medians.
const SEGMENTS: usize = 20;

/// Which requests of each ten are result fetches.
fn is_fetch(request: usize) -> bool {
    matches!(request % 10, 2 | 5 | 8)
}

/// Pitches are drawn from [100, 200) nm: valid for both device sizes.
fn draw_pitch(rng: &mut StdRng) -> f64 {
    rng.gen_range(100.0, 200.0)
}

/// A uniform index below `n`.
fn draw_index(rng: &mut StdRng, n: usize) -> usize {
    (rng.gen::<u64>() % n as u64) as usize
}

/// One warm point a client may fetch.
#[derive(Debug, Clone)]
struct WarmPoint {
    pitch: f64,
    key: String,
    psi: String,
}

/// Client-side phase times of one request, for the traced run.
#[derive(Debug, Default, Clone, Copy)]
struct Phases {
    connect: Duration,
    connects: u32,
    submit: Duration,
    first_line: Duration,
    stream: Duration,
    result: Duration,
}

/// What one request returned, kept for the output checks.
enum Reply {
    Sweep {
        pitches: Vec<f64>,
        lines: Vec<String>,
    },
    Fetch {
        warm: usize,
        body: String,
    },
}

/// One request as a client saw it.
struct Served {
    client: usize,
    latency_ms: f64,
    reply: Result<Reply, String>,
    phases: Phases,
}

fn connect(addr: SocketAddr, phases: &mut Phases) -> Result<TcpStream, String> {
    let start = Instant::now();
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    phases.connect += start.elapsed();
    phases.connects += 1;
    Ok(stream)
}

/// Writes one request and reads the status line and headers.
fn send(
    stream: TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, BufReader<TcpStream>), String> {
    let mut writer = &stream;
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("{method} {path}: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader
        .read_line(&mut status)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let code = status
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line `{}`", status.trim()))?;
    loop {
        let mut header = String::new();
        reader
            .read_line(&mut header)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        if header.trim().is_empty() {
            break;
        }
    }
    Ok((code, reader))
}

/// A complete `Connection: close` exchange returning the body.
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    phases: &mut Phases,
) -> Result<(u16, String), String> {
    let stream = connect(addr, phases)?;
    let (code, mut reader) = send(stream, method, path, body)?;
    let mut text = String::new();
    reader
        .read_to_string(&mut text)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    host::abortive_close(reader.into_inner());
    Ok((code, text))
}

fn sweep_body(ecd: f64, pitches: &[f64]) -> String {
    let list: Vec<String> = pitches.iter().map(f64::to_string).collect();
    format!(
        r#"{{"scenario":"fig4b","params":{{"ecd":{ecd}}},"axes":{{"pitch":[{}]}}}}"#,
        list.join(",")
    )
}

/// Submits a sweep and streams its progress to the summary line.
fn sweep(
    addr: SocketAddr,
    ecd: f64,
    pitches: &[f64],
    phases: &mut Phases,
) -> Result<Vec<String>, String> {
    let start = Instant::now();
    let (code, text) = exchange(addr, "POST", "/sweeps", &sweep_body(ecd, pitches), phases)?;
    phases.submit += start.elapsed();
    if code != 202 {
        return Err(format!("POST /sweeps: HTTP {code}: {text}"));
    }
    let job = Json::parse(&text)
        .and_then(|j| j.get("job").and_then(Json::as_str).map(str::to_owned))
        .ok_or_else(|| format!("POST /sweeps: no job id in `{text}`"))?;

    let start = Instant::now();
    let stream = connect(addr, phases)?;
    let (code, mut reader) = send(stream, "GET", &format!("/runs/{job}"), "")?;
    if code != 200 {
        return Err(format!("GET /runs/{job}: HTTP {code}"));
    }
    let mut lines = Vec::new();
    let mut size = String::new();
    loop {
        size.clear();
        reader.read_line(&mut size).map_err(|e| e.to_string())?;
        let len = usize::from_str_radix(size.trim(), 16)
            .map_err(|_| format!("GET /runs/{job}: bad chunk size `{}`", size.trim()))?;
        if len == 0 {
            break;
        }
        let mut chunk = vec![0; len + 2];
        reader.read_exact(&mut chunk).map_err(|e| e.to_string())?;
        if lines.is_empty() {
            phases.first_line += start.elapsed();
        }
        lines.push(String::from_utf8_lossy(&chunk[..len]).trim_end().to_owned());
    }
    // Drain the terminator so the close is clean, then drop abortively.
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
    host::abortive_close(reader.into_inner());
    phases.stream += start.elapsed().saturating_sub(phases.first_line);
    Ok(lines)
}

/// The summary line (the last one) of a streamed sweep.
fn summary(lines: &[String]) -> Result<Json, String> {
    let last = lines.last().ok_or("empty progress stream")?;
    let summary = Json::parse(last).ok_or_else(|| format!("summary `{last}` is not JSON"))?;
    let status = summary.get("status").and_then(Json::as_str);
    let errors = summary.get("errors").and_then(Json::as_f64);
    if status != Some("done") || errors != Some(0.0) {
        return Err(format!("sweep did not finish cleanly: `{last}`"));
    }
    Ok(summary)
}

fn summary_csv(summary: &Json) -> Result<&str, String> {
    summary
        .get("csv")
        .and_then(Json::as_str)
        .ok_or_else(|| "summary has no csv".to_owned())
}

/// Warm set: one 64-point sweep whose keys and Ψ the client keeps.
fn load_warm(addr: SocketAddr, ecd: f64, rng: &mut StdRng) -> Result<Vec<WarmPoint>, String> {
    let mut pitches: Vec<f64> = (0..WARM).map(|_| draw_pitch(rng)).collect();
    pitches.sort_by(f64::total_cmp);
    pitches.dedup();
    let lines = sweep(addr, ecd, &pitches, &mut Phases::default())?;
    let summary = summary(&lines)?;
    let csv = summary_csv(&summary)?;
    let psi: Vec<String> = csv
        .lines()
        .skip(1)
        .map(|row| row.split(',').nth(1).unwrap_or_default().to_owned())
        .collect();
    let mut warm = Vec::new();
    for line in &lines[..lines.len() - 1] {
        let event = Json::parse(line).ok_or("progress line is not JSON")?;
        let index = event
            .get("index")
            .and_then(Json::as_u64)
            .ok_or("no index")? as usize;
        let key = event.get("key").and_then(Json::as_str).ok_or("no key")?;
        warm.push(WarmPoint {
            pitch: pitches[index],
            key: key.to_owned(),
            psi: psi.get(index).cloned().ok_or("summary row missing")?,
        });
    }
    warm.sort_by(|a, b| a.pitch.total_cmp(&b.pitch));
    Ok(warm)
}

/// One client's state.
struct Client {
    ecd: f64,
    warm: Vec<WarmPoint>,
    rng: StdRng,
}

impl Client {
    /// Runs request number `request` of the schedule.
    fn request(
        &mut self,
        addr: SocketAddr,
        request: usize,
        phases: &mut Phases,
    ) -> Result<Reply, String> {
        if is_fetch(request) {
            let warm = draw_index(&mut self.rng, self.warm.len());
            let start = Instant::now();
            let path = format!("/results/{}", self.warm[warm].key);
            let (code, body) = exchange(addr, "GET", &path, "", phases)?;
            phases.result += start.elapsed();
            if code != 200 {
                return Err(format!("GET {path}: HTTP {code}"));
            }
            return Ok(Reply::Fetch { warm, body });
        }
        let mut pitches = Vec::with_capacity(SWEEP_WARM + SWEEP_FRESH);
        for _ in 0..SWEEP_WARM {
            pitches.push(self.warm[draw_index(&mut self.rng, self.warm.len())].pitch);
        }
        for _ in 0..SWEEP_FRESH {
            pitches.push(draw_pitch(&mut self.rng));
        }
        pitches.sort_by(f64::total_cmp);
        pitches.dedup();
        let lines = sweep(addr, self.ecd, &pitches, phases)?;
        Ok(Reply::Sweep { pitches, lines })
    }
}

/// A served engine plus its client state.
struct Bench {
    engine: Arc<Engine>,
    addr: SocketAddr,
    server: JoinHandle<()>,
    clients: Vec<Client>,
}

/// Cold start until the first timed request can go: fresh engine,
/// cold kernel caches, server up, warm sets loaded, one request of each
/// kind per client.
fn setup(seed: u64) -> Result<Bench, String> {
    clear_kernel_cache();
    let engine = Arc::new(Engine::standard().with_workers(1));
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_inflight: MAX_INFLIGHT,
        cache_dir: None,
    };
    let server = Server::bind(Arc::clone(&engine), &config).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let server = std::thread::spawn(move || server.run());
    let mut clients = Vec::new();
    for (c, &ecd) in CLIENT_ECD.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(crate::derive(seed, "client", c).into());
        let warm = load_warm(addr, ecd, &mut rng)?;
        let mut client = Client { ecd, warm, rng };
        for request in [0, 2] {
            client.request(addr, request, &mut Phases::default())?;
        }
        clients.push(client);
    }
    Ok(Bench {
        engine,
        addr,
        server,
        clients,
    })
}

impl Bench {
    fn get_json(&self, path: &str) -> Result<Json, String> {
        let (code, text) = exchange(self.addr, "GET", path, "", &mut Phases::default())?;
        if code != 200 {
            return Err(format!("GET {path}: HTTP {code}"));
        }
        Json::parse(&text).ok_or_else(|| format!("GET {path}: not JSON"))
    }

    fn counter(&self, name: &str) -> Result<f64, String> {
        let metrics = self.get_json("/metrics")?;
        Ok(metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0))
    }

    fn jobs(&self) -> Result<f64, String> {
        self.get_json("/healthz")?
            .get("jobs")
            .and_then(Json::as_f64)
            .ok_or_else(|| "healthz has no jobs".to_owned())
    }

    /// Drains the server and waits for its accept loop to exit.
    fn shutdown(self) -> Result<(Arc<Engine>, Vec<Client>), String> {
        exchange(self.addr, "POST", "/shutdown", "", &mut Phases::default())?;
        self.server
            .join()
            .map_err(|_| "server thread panicked".to_owned())?;
        Ok((self.engine, self.clients))
    }

    /// Both clients run `per_client` requests of the schedule starting
    /// at `first`, closed-loop and concurrently. Returns the wall time
    /// and every request as its client saw it.
    fn drive(
        &mut self,
        first: usize,
        per_client: usize,
        tr: Option<&Tracer>,
    ) -> (Duration, Vec<Served>) {
        let addr = self.addr;
        let barrier = Barrier::new(self.clients.len() + 1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(index, client)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        (first..first + per_client)
                            .map(|request| {
                                let mut phases = Phases::default();
                                let start = Instant::now();
                                let reply = match tr {
                                    None => client.request(addr, request, &mut phases),
                                    Some(tr) => tr.scope("w3.request", None, |root| {
                                        let reply = client.request(addr, request, &mut phases);
                                        record_phases(tr, root, start, &phases);
                                        reply
                                    }),
                                };
                                Served {
                                    client: index,
                                    latency_ms: start.elapsed().as_secs_f64() * 1e3,
                                    reply,
                                    phases,
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            let results: Vec<_> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("client threads do not panic"))
                .collect();
            (start.elapsed(), results)
        })
    }
}

/// Lays the client-side phases of one request out as child spans.
fn record_phases(tr: &Tracer, root: usize, start: Instant, phases: &Phases) {
    let lane = crate::trace::lane();
    let mut at = start;
    for (name, duration) in [
        ("serve.submit", phases.submit),
        ("serve.first_line", phases.first_line),
        ("serve.stream", phases.stream),
        ("serve.result", phases.result),
    ] {
        if !duration.is_zero() {
            tr.record(name, Some(root), at, at + duration, lane);
            at += duration;
        }
    }
}

/// Serverless Ψ for each pitch, rendered as the sweep summary renders it.
fn serverless_psi(engine: &Engine, ecd: f64, pitches: &[f64]) -> Result<Vec<String>, String> {
    pitches
        .iter()
        .map(|&pitch| {
            let params = ParamSet::new().with("ecd", ecd).with("pitch", pitch);
            let out = engine.run("fig4b", &params).map_err(|e| e.to_string())?;
            let psi = out.output.scalar("psi").ok_or("fig4b has no psi")?;
            Ok(format!("{psi:.6}"))
        })
        .collect()
}

/// Every output check of one reply.
fn check_reply(checker: &Engine, client: &Client, reply: &Reply) -> Check {
    match reply {
        Reply::Fetch { warm, body } => {
            let point = &client.warm[*warm];
            let body = Json::parse(body).ok_or("result body is not JSON")?;
            checks::check_result_body(&body, &point.key, &point.psi)
        }
        Reply::Sweep { pitches, lines } => {
            let summary = summary(lines)?;
            if summary.get("jobs").and_then(Json::as_f64) != Some(pitches.len() as f64) {
                return Err("summary job count differs from the plan".into());
            }
            let expected = serverless_psi(checker, client.ecd, pitches)?;
            checks::check_psi_csv(summary_csv(&summary)?, &expected)
        }
    }
}

fn per_client(seconds: u64) -> usize {
    ((REQUESTS_PER_CLIENT_PER_S * seconds as f64).round() as usize).max(SEGMENTS * 10)
}

/// Untraced run: set-ups, the timed phase, and every output check.
pub fn run(seed: u64, seconds: u64, scratch: &Path) -> Result<Measured, String> {
    let time_wait = host::time_wait_sockets();
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let next = setup(seed)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(old) = bench.replace(next) {
            old.shutdown()?;
        }
    }
    let mut bench = bench.expect("at least one set-up");
    host::sync_filesystem(scratch);

    let per_client = per_client(seconds);
    let per_segment = per_client.div_ceil(SEGMENTS);
    let (mut units, mut results) = (Vec::with_capacity(SEGMENTS), Vec::new());
    for first in (0..per_client).step_by(per_segment) {
        let n = per_segment.min(per_client - first);
        let ((_, served), mut unit) =
            Unit::time(n * CLIENT_ECD.len(), || bench.drive(first, n, None));
        unit.latencies_ms = served.iter().map(|s| s.latency_ms).collect();
        units.push(unit);
        results.extend(served);
    }
    let (_, clients) = bench.shutdown()?;

    let checker = Engine::standard();
    let mut failures = Vec::new();
    let mut replayed = None;
    let pick = crate::derive(seed, "replay", 0) as usize % results.len();
    for (i, served) in results.iter().enumerate() {
        let client = &clients[served.client];
        let outcome = served
            .reply
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|reply| check_reply(&checker, client, reply));
        match (outcome, &served.reply) {
            (Err(e), _) => failures.push(e),
            (Ok(()), Ok(Reply::Sweep { pitches, lines })) if replayed.is_none() && i >= pick => {
                replayed = Some((client.ecd, pitches.clone(), lines.clone()));
            }
            _ => {}
        }
    }
    let replay = match replayed {
        None => Err("no successful sweep to replay".to_owned()),
        Some((ecd, pitches, lines)) => replay_check(ecd, &pitches, &lines),
    };
    let run_checks = vec![
        ("wer-mc vs Butler".to_owned(), checks::mc_vs_butler()),
        ("1-worker replay".to_owned(), replay),
    ];
    Ok(Measured {
        setup_s,
        ops: results.len(),
        failed_ops: failures.len(),
        units,
        failures,
        run_checks,
        context: vec![
            ("engine_workers", Json::Num(1.0)),
            ("clients", Json::Num(CLIENT_ECD.len() as f64)),
            ("requests_per_client", Json::Num(per_client as f64)),
            ("cache", Json::Str("memory tier only".to_owned())),
            ("time_wait_at_start", Json::Num(time_wait as f64)),
        ],
    })
}

/// One served sweep replayed on a fresh 1-worker engine renders the
/// identical summary CSV.
fn replay_check(ecd: f64, pitches: &[f64], lines: &[String]) -> Check {
    let plan = SweepPlan::new("fig4b")
        .fix("ecd", ecd)
        .axis("pitch", pitches.to_vec());
    let outcome = Engine::standard()
        .with_workers(1)
        .sweep(&plan)
        .map_err(|e| e.to_string())?;
    let streamed = summary(lines)?;
    if outcome.summary_table().to_csv() == summary_csv(&streamed)? {
        Ok(())
    } else {
        Err("replayed sweep renders a different summary CSV".into())
    }
}

/// Traced run: untraced and traced segments in turn, client-side phase
/// spans, server counters, and layer probes.
pub fn trace(
    seed: u64,
    scratch: &Path,
    tr: &Tracer,
    layers: &mut Layers,
) -> Result<(usize, usize), String> {
    const SLICE: usize = 300;
    layers.put("host.time_wait_at_start", host::time_wait_sockets() as f64);
    let mut bench = setup(seed)?;
    let jobs_before = bench.jobs()?;
    let rss_before = host::rss_kb();
    let busy_before = bench.counter("engine.busy_ns")?;
    let kernel_before = kernel_cache_stats();
    let disk_before = bench.engine.disk_stats().unwrap_or_default();
    // Untraced and traced segments alternate, so drift on the host
    // lands on both sides of `trace.overhead_frac` alike.
    let (mut walls, mut results) = ([Duration::ZERO; 2], Vec::new());
    for (i, first) in (0..2 * SLICE).step_by(SLICE / 2).enumerate() {
        let traced = i % 2 == 1;
        let (wall, served) = bench.drive(first, SLICE / 2, traced.then_some(tr));
        walls[usize::from(traced)] += wall;
        if traced {
            results.extend(served);
        }
    }
    let window = walls[0] + walls[1];
    let kernel_after = kernel_cache_stats();
    let disk_after = bench.engine.disk_stats().unwrap_or_default();
    let busy = bench.counter("engine.busy_ns")? - busy_before;
    let jobs_after = bench.jobs()?;
    let rss_after = host::rss_kb();
    let rejected = bench.counter("serve.rejected")?;
    let joined = bench.counter("serve.joined")?;
    let warm_keys: Vec<u64> = bench
        .clients
        .iter()
        .flat_map(|c| c.warm.iter().take(16))
        .filter_map(|w| mramsim_numerics::hash::parse_key_hex(&w.key))
        .collect();
    let (engine, clients) = bench.shutdown()?;

    layers.put(
        "trace.overhead_frac",
        1.0 - walls[0].as_secs_f64() / walls[1].as_secs_f64(),
    );
    layers.put(
        "numerics.pool.busy_frac",
        busy * 1e-9 / window.as_secs_f64() / engine.workers() as f64,
    );
    layers.absent(
        "numerics.pool.tail_ms",
        "one engine worker per sweep: no pool tail",
    );
    let lookups = (kernel_after.hits + kernel_after.misses)
        .saturating_sub(kernel_before.hits + kernel_before.misses);
    layers.put(
        "array.kernel_hit_ratio",
        (kernel_after.hits - kernel_before.hits) as f64 / lookups.max(1) as f64,
    );
    layers.put_noted(
        "engine.disk_bytes_per_op",
        (disk_after.bytes_written - disk_before.bytes_written) as f64 / (2 * results.len()) as f64,
        "the served engine has the memory tier only",
    );
    layers.put(
        "engine.disk_errors",
        (disk_after.corrupt + disk_after.write_errors) as f64,
    );

    // Client-side phases and the engine's view of each served point.
    let phase = |pick: fn(&Phases) -> Duration, scale: f64| -> f64 {
        let values: Vec<f64> = results
            .iter()
            .map(|s| pick(&s.phases))
            .filter(|d| !d.is_zero())
            .map(|d| d.as_secs_f64() * scale)
            .collect();
        median(&values)
    };
    let connect_us: Vec<f64> = results
        .iter()
        .filter(|s| s.phases.connects > 0)
        .map(|s| s.phases.connect.as_secs_f64() * 1e6 / f64::from(s.phases.connects))
        .collect();
    layers.put("serve.connect_us", median(&connect_us));
    layers.put("serve.submit_ms", phase(|p| p.submit, 1e3));
    layers.put("serve.first_line_ms", phase(|p| p.first_line, 1e3));
    layers.put("serve.stream_ms", phase(|p| p.stream, 1e3));
    layers.put("serve.result_ms", phase(|p| p.result, 1e3));
    let (mut warm_us, mut computed_ms, mut failed) = (Vec::new(), Vec::new(), 0);
    let checker = Engine::standard();
    for served in &results {
        let client = &clients[served.client];
        let checked = served
            .reply
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|r| check_reply(&checker, client, r).map(|()| r));
        match checked {
            Err(_) => failed += 1,
            Ok(Reply::Sweep { lines, .. }) => {
                for line in &lines[..lines.len() - 1] {
                    let Some(event) = Json::parse(line) else {
                        continue;
                    };
                    let duration = event
                        .get("duration_s")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0);
                    if matches!(event.get("cache_hit"), Some(Json::Bool(true))) {
                        warm_us.push(duration * 1e6);
                    } else {
                        computed_ms.push(duration * 1e3);
                    }
                }
            }
            Ok(Reply::Fetch { .. }) => {}
        }
    }
    layers.put(
        "engine.warm_hit_ratio",
        warm_us.len() as f64 / (warm_us.len() + computed_ms.len()).max(1) as f64,
    );
    layers.put("engine.warm_lookup_us", median(&warm_us));
    layers.put("serve.jobs_retained", jobs_after);
    layers.put(
        "serve.rss_kb_per_job",
        rss_after.saturating_sub(rss_before) as f64 / (jobs_after - jobs_before).max(1.0),
    );
    layers.put("serve.rejected", rejected);
    layers.put("serve.joined", joined);

    // Job overhead: a computed point's engine time against a direct
    // scenario run on a never-seen pitch (cold kernel in both).
    let scenario = engine.registry().get("fig4b").map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(crate::derive(seed, "direct", 0).into());
    let mut direct_ms = Vec::new();
    for _ in 0..64 {
        let params = engine
            .resolve(
                "fig4b",
                &ParamSet::new()
                    .with("ecd", CLIENT_ECD[0])
                    .with("pitch", draw_pitch(&mut rng)),
            )
            .map_err(|e| e.to_string())?;
        let start = Instant::now();
        scenario.run(&params).map_err(|e| e.to_string())?;
        direct_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    layers.put(
        "engine.job_overhead_ms",
        median(&computed_ms) - median(&direct_ms),
    );

    // Telemetry on vs off over the same served plans, run serverless.
    let plans: Vec<SweepPlan> = results
        .iter()
        .filter_map(|served| match &served.reply {
            Ok(Reply::Sweep { pitches, .. }) => Some(
                SweepPlan::new("fig4b")
                    .fix("ecd", CLIENT_ECD[served.client])
                    .axis("pitch", pitches.clone()),
            ),
            _ => None,
        })
        .take(200)
        .collect();
    let mut on_off = [Duration::ZERO; 2];
    for (half, chunk) in plans.chunks(plans.len().div_ceil(2).max(1)).enumerate() {
        for (i, plan) in chunk.iter().enumerate() {
            let on = (i + half) % 2 == 1;
            let engine = Engine::standard().with_workers(1);
            let guard = on.then(|| mramsim_telemetry::install(Arc::new(MetricsRecorder::new())));
            let start = Instant::now();
            engine.sweep(plan).map_err(|e| e.to_string())?;
            on_off[usize::from(on)] += start.elapsed();
            drop(guard);
        }
    }
    layers.put(
        "telemetry.overhead_frac",
        on_off[1].as_secs_f64() / on_off[0].as_secs_f64() - 1.0,
    );

    let probe = tr.scope("probes", None, |root| -> Result<(), String> {
        layers.put(
            "numerics.normal_pair_ns",
            probes::normal_pair_ns(tr, Some(root), seed),
        );
        let mut rng = StdRng::seed_from_u64(crate::derive(seed, "kernel-probe", 0).into());
        let pitches: Vec<f64> = (0..8).map(|_| draw_pitch(&mut rng)).collect();
        layers.put(
            "array.kernel_build_ms",
            probes::stray_kernel_build_ms(tr, Some(root), CLIENT_ECD[0], &pitches)?,
        );
        let outputs: Vec<(u64, Arc<mramsim_engine::ScenarioOutput>)> = warm_keys
            .iter()
            .filter_map(|key| Some((*key, engine.lookup(*key)?)))
            .collect();
        let borrowed: Vec<(u64, &mramsim_engine::ScenarioOutput)> =
            outputs.iter().map(|(k, o)| (*k, o.as_ref())).collect();
        let (save, load) =
            probes::disk_us(tr, Some(root), &scratch.join("probe-store"), &borrowed)?;
        layers.put("engine.disk_save_us", save);
        layers.put("engine.disk_load_us", load);
        let journal_dir = scratch.join("probe-journals");
        std::fs::create_dir_all(&journal_dir).map_err(|e| e.to_string())?;
        let (create, record) =
            probes::journal_us(tr, Some(root), &journal_dir, &plans[..8.min(plans.len())])?;
        layers.put("engine.journal_create_us", create);
        layers.put("engine.journal_record_us", record);
        let (thermal, deterministic) = probes::reference_ensemble(tr, Some(root), seed)?;
        layers.put_noted(
            "dynamics.ns_per_lane_step",
            thermal.ns_per_lane_step,
            "reference wer-mc ensemble: serve-mix runs no dynamics",
        );
        layers.put_noted(
            "dynamics.thermal_over_deterministic",
            thermal.wall_ms / deterministic.wall_ms,
            "reference wer-mc ensemble",
        );
        layers.put_noted(
            "dynamics.ensemble_ms",
            thermal.wall_ms,
            "reference wer-mc ensemble",
        );
        Ok(())
    });
    probe?;
    layers.put_noted(
        "dynamics.lane_steps_per_op",
        0.0,
        "fig4b points are analytic: no lane-steps",
    );
    layers.absent("dynamics.useful_lane_frac", "serve-mix runs no ensembles");
    for name in [
        "array.shard_classes_ms",
        "array.classes_per_campaign",
        "array.cells_per_class",
        "array.cell_field_map_ms",
        "faults.shard_self_ms",
        "faults.analytic_us",
        "faults.cells_per_distinct_window",
    ] {
        layers.absent(name, "fig4b points touch neither shards, cell maps nor WER");
    }
    layers.put(
        "trace.unattributed_frac",
        tr.unattributed_frac("w3.request"),
    );
    Ok((results.len(), failed))
}
