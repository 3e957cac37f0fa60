//! `mramsim serve`: a long-lived concurrent simulation service over
//! one shared [`Engine`].
//!
//! The server speaks plain HTTP/1.1 + JSON over `std::net` — the
//! workspace is dependency-free, so there is no async runtime; instead
//! the blocking accept loop hands each connection to its own thread,
//! and job execution happens on dedicated submission threads that all
//! share the *same* `Arc<Engine>` (the engine is interior-mutable and
//! `Sync`, so every client shares one warm cache, one disk store, and
//! one registry).
//!
//! Endpoints:
//!
//! * `POST /runs` — submit a single-point job:
//!   `{"scenario":"fig4a","params":{"pitch":120}}`;
//! * `POST /sweeps` — submit a grid job:
//!   `{"scenario":"fig4b","params":{"ecd":35},"axes":{"pitch":[90,120]},
//!   "limit":4}` (axes are applied in name order — the name-sorted
//!   JSON object *is* the canonical plan, so the same request body
//!   always maps to the same run id);
//! * `GET /runs/<job>` — stream per-job progress as chunked JSONL: one
//!   line per finished grid point (fed by [`SweepOptions::on_done`]),
//!   then one final summary line carrying the sweep CSV;
//! * `GET /results/<key>` — fetch a cached output by content address
//!   (the 16-hex-digit key streamed in progress lines), served from
//!   the shared memory tier or the disk store, never recomputed;
//! * `GET /healthz` — liveness + admission state;
//! * `GET /metrics` — the full telemetry snapshot (engine counters,
//!   latency histograms, serve gauges) as JSON;
//! * `POST /shutdown` — graceful drain: new submissions get 503,
//!   running sweeps are cooperatively cancelled (their journals stay
//!   `--resume`-able), and the server exits once the last job flushed.
//!
//! Admission control: at most [`ServeConfig::max_inflight`] jobs run
//! at once; submissions beyond that are rejected with 429 and a
//! `serve.rejected` counter, so a traffic spike degrades into retries
//! instead of an unbounded thread pile-up. Two submissions of the
//! *same* plan do not double-compute: the second joins the in-flight
//! run (same job id, `"joined":true`) — and if another *process* owns
//! the run, the journal's run lock turns that into a clean 409.

use crate::journal::SweepJournal;
use crate::{
    Engine, EngineError, JobEvent, ParamValue, Run, ScenarioOutput, SweepOptions, SweepPlan, Tier,
    ValidPlan,
};
use mramsim_numerics::hash::{key_hex, parse_key_hex};
use mramsim_telemetry as telemetry;
use mramsim_telemetry::{Json, MetricsRecorder, Recorder};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Knobs of [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Maximum concurrently running jobs; submissions beyond this are
    /// rejected with HTTP 429 until a slot frees up.
    pub max_inflight: usize,
    /// Where sweep journals live (the engine's cache directory). With
    /// a directory *and* a disk-tier engine, every server sweep is
    /// journaled and stays `mramsim sweep --resume`-able after a
    /// drain; without one, jobs run unjournaled.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_owned(),
            max_inflight: 4,
            cache_dir: None,
        }
    }
}

/// One submitted job's shared progress state.
#[derive(Debug)]
struct Job {
    /// The journal run id of the job's plan.
    run_id: String,
    /// Rendered JSONL progress lines, appended as grid points finish;
    /// the final line is the summary (status `done` or `failed`).
    state: Mutex<JobProgress>,
    /// Signalled on every appended line, so progress streams wake
    /// without polling.
    wake: Condvar,
}

#[derive(Debug, Default)]
struct JobProgress {
    lines: Vec<String>,
    finished: bool,
}

impl Job {
    fn push_line(&self, line: String, finished: bool) {
        let mut progress = lock(&self.state);
        progress.lines.push(line);
        progress.finished |= finished;
        drop(progress);
        self.wake.notify_all();
    }
}

/// Locks with poison recovery: a panicking handler thread must never
/// wedge every later request (the same policy as the engine's cache
/// and journal locks).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything the request handlers share.
#[derive(Debug)]
struct ServerState {
    engine: Arc<Engine>,
    /// The bound address; the drain waiter self-connects to it to wake
    /// the blocking accept loop.
    addr: SocketAddr,
    cache_dir: Option<PathBuf>,
    max_inflight: usize,
    /// Jobs currently executing (admission control).
    inflight: AtomicUsize,
    /// Set by `POST /shutdown`: reject new submissions, keep serving
    /// reads while running jobs drain.
    draining: AtomicBool,
    /// Set once the drain completed: the accept loop exits.
    stop: AtomicBool,
    /// Cooperative cancellation flag handed to every sweep
    /// ([`SweepOptions::cancel`]); flipped by the drain.
    cancel: AtomicBool,
    next_job: AtomicUsize,
    /// Every job ever submitted, by job id (`j1`, `j2`, …).
    jobs: Mutex<BTreeMap<String, Arc<Job>>>,
    /// Run id → job id for *live* jobs only: the in-process
    /// join-in-flight map (the journal run lock covers other
    /// processes).
    live_runs: Mutex<BTreeMap<String, String>>,
    /// The server's telemetry sink, installed process-globally for the
    /// server's lifetime; `GET /metrics` snapshots it.
    metrics: Arc<MetricsRecorder>,
}

/// The `mramsim serve` HTTP server.
///
/// [`Server::bind`] binds the listener (so the port is known before
/// any request), [`Server::run`] blocks serving requests until a
/// graceful `POST /shutdown` drain completes.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener and prepares the shared state.
    ///
    /// # Errors
    ///
    /// [`EngineError::Persistence`] when the address cannot be bound.
    pub fn bind(engine: Arc<Engine>, config: &ServeConfig) -> Result<Self, EngineError> {
        let listener = TcpListener::bind(&config.addr).map_err(|e| EngineError::Persistence {
            path: config.addr.clone(),
            message: format!("cannot bind serve address: {e}"),
        })?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| EngineError::Persistence {
                path: config.addr.clone(),
                message: format!("cannot read bound address: {e}"),
            })?;
        Ok(Self {
            listener,
            local_addr,
            state: Arc::new(ServerState {
                engine,
                addr: local_addr,
                cache_dir: config.cache_dir.clone(),
                max_inflight: config.max_inflight.max(1),
                inflight: AtomicUsize::new(0),
                draining: AtomicBool::new(false),
                stop: AtomicBool::new(false),
                cancel: AtomicBool::new(false),
                next_job: AtomicUsize::new(1),
                jobs: Mutex::new(BTreeMap::new()),
                live_runs: Mutex::new(BTreeMap::new()),
                metrics: Arc::new(MetricsRecorder::new()),
            }),
        })
    }

    /// The actually bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves requests until a `POST /shutdown` drain completes.
    ///
    /// Installs the server's metrics recorder process-globally for the
    /// duration (restored on return), so engine telemetry from every
    /// job aggregates into the `GET /metrics` snapshot.
    pub fn run(&self) {
        let recorder: Arc<dyn Recorder> = self.state.metrics.clone();
        let _telemetry = telemetry::install(recorder);
        for connection in self.listener.incoming() {
            if self.state.stop.load(Ordering::Relaxed) {
                break;
            }
            let Ok(stream) = connection else { continue };
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || handle_connection(&state, stream));
        }
    }
}

/// Reads one request, routes it, writes one response. Any I/O failure
/// just drops the connection — the client went away.
fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    // A stuck client must not pin a handler thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut reader = BufReader::new(stream);
    let Some((method, path, body)) = read_request(&mut reader) else {
        return;
    };
    telemetry::counter_add("serve.requests", 1);
    let mut stream = reader.into_inner();
    match (method.as_str(), path.as_str()) {
        ("GET", "/healthz") => respond_json(&mut stream, 200, &healthz(state)),
        ("GET", "/metrics") => respond_json(&mut stream, 200, &metrics(state)),
        ("POST", "/runs") => submit(state, &mut stream, &body, false),
        ("POST", "/sweeps") => submit(state, &mut stream, &body, true),
        ("POST", "/shutdown") => shutdown(state, &mut stream),
        ("GET", _) if path.strip_prefix("/runs/").is_some() => {
            let id = path.strip_prefix("/runs/").unwrap_or_default();
            stream_progress(state, &mut stream, id);
        }
        ("GET", _) if path.strip_prefix("/results/").is_some() => {
            let key = path.strip_prefix("/results/").unwrap_or_default();
            result_by_key(state, &mut stream, key);
        }
        _ => respond_error(&mut stream, 404, &format!("no route for {method} {path}")),
    }
}

/// Parses the request line, headers, and a `Content-Length` body.
/// `None` on malformed input or a body over 1 MiB (nothing the API
/// accepts is remotely that large).
fn read_request(reader: &mut BufReader<TcpStream>) -> Option<(String, String, String)> {
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_owned();
    let path = parts.next()?.to_owned();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).ok()?;
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some(value) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = value.parse().ok()?;
        }
    }
    if content_length > 1 << 20 {
        return None;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some((method, path, String::from_utf8(body).ok()?))
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

fn respond_json(stream: &mut TcpStream, code: u16, body: &Json) {
    let text = body.render();
    let _ = write!(
        stream,
        "HTTP/1.1 {code} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{text}",
        status_text(code),
        text.len(),
    );
    let _ = stream.flush();
}

fn respond_error(stream: &mut TcpStream, code: u16, message: &str) {
    let mut obj = BTreeMap::new();
    obj.insert("error".to_owned(), Json::Str(message.to_owned()));
    respond_json(stream, code, &Json::Obj(obj));
}

fn healthz(state: &ServerState) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("status".to_owned(), Json::Str("ok".to_owned()));
    obj.insert(
        "inflight".to_owned(),
        Json::Num(state.inflight.load(Ordering::Relaxed) as f64),
    );
    obj.insert(
        "max_inflight".to_owned(),
        Json::Num(state.max_inflight as f64),
    );
    obj.insert(
        "draining".to_owned(),
        Json::Bool(state.draining.load(Ordering::Relaxed)),
    );
    obj.insert("jobs".to_owned(), Json::Num(lock(&state.jobs).len() as f64));
    Json::Obj(obj)
}

fn metrics(state: &ServerState) -> Json {
    // Gauge the admission state into the snapshot on the way out, so
    // one endpoint carries both the engine counters and the serve
    // queue depth.
    telemetry::gauge_set(
        "serve.queue_depth",
        state.inflight.load(Ordering::Relaxed) as f64,
    );
    telemetry::gauge_set(
        "serve.draining",
        f64::from(state.draining.load(Ordering::Relaxed)),
    );
    state.metrics.snapshot().to_json()
}

/// Converts a JSON parameter value into a [`ParamValue`]: numbers,
/// strings, and arrays of numbers.
fn param_from_json(name: &str, json: &Json) -> Result<ParamValue, String> {
    match json {
        Json::Num(v) => Ok(ParamValue::Number(*v)),
        Json::Str(s) => Ok(ParamValue::Text(s.clone())),
        Json::Arr(items) => items
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| format!("parameter `{name}`: list items must be numbers"))
            })
            .collect::<Result<Vec<f64>, _>>()
            .map(ParamValue::List),
        _ => Err(format!(
            "parameter `{name}` must be a number, string, or array of numbers"
        )),
    }
}

/// Builds the sweep plan a submission body describes.
///
/// `params` become fixed overrides; `axes` (an object of name →
/// number-array) become grid axes in name order — the name-sorted JSON
/// object is the canonical form, so identical bodies always map to the
/// same plan hash and run id.
fn plan_from_json(body: &Json, want_axes: bool) -> Result<(SweepPlan, Option<usize>), String> {
    let scenario = body
        .get("scenario")
        .and_then(Json::as_str)
        .ok_or("body needs a `scenario` string")?;
    let mut plan = SweepPlan::new(scenario);
    if let Some(params) = body.get("params") {
        let params = params
            .as_obj()
            .ok_or("`params` must be an object of name → value")?;
        for (name, value) in params {
            plan = plan.fix(name, param_from_json(name, value)?);
        }
    }
    match body.get("axes") {
        Some(axes) if want_axes => {
            let axes = axes
                .as_obj()
                .ok_or("`axes` must be an object of name → array of numbers")?;
            for (name, values) in axes {
                let values: Vec<f64> = values
                    .as_arr()
                    .and_then(|items| items.iter().map(Json::as_f64).collect())
                    .ok_or_else(|| format!("axis `{name}` must be an array of numbers"))?;
                plan = plan.axis(name, values);
            }
        }
        Some(_) => return Err("`/runs` takes a single point; submit axes to `/sweeps`".into()),
        None if want_axes => return Err("`/sweeps` needs at least one axis".into()),
        None => {}
    }
    let limit = match body.get("limit") {
        Some(v) => Some(v.as_u64().ok_or("`limit` must be a non-negative integer")? as usize),
        None => None,
    };
    Ok((plan, limit))
}

/// `POST /runs` / `POST /sweeps`: validate, dedupe against in-flight
/// runs, admit, and launch.
fn submit(state: &Arc<ServerState>, stream: &mut TcpStream, body: &str, want_axes: bool) {
    if state.draining.load(Ordering::Relaxed) {
        return respond_error(stream, 503, "server is draining; resubmit after restart");
    }
    let Some(body) = Json::parse(body) else {
        return respond_error(stream, 400, "body is not valid JSON");
    };
    let (plan, limit) = match plan_from_json(&body, want_axes) {
        Ok(parsed) => parsed,
        Err(message) => return respond_error(stream, 400, &message),
    };
    // Validated once, up front: a typo'd submission fails with 400
    // instead of leaving a failed job behind, and the job executes the
    // checked plan without a second check.
    let plan = match state.engine.validate(&plan) {
        Ok(plan) => plan,
        Err(e) => return respond_error(stream, 400, &e.to_string()),
    };
    let run_id = SweepJournal::run_id(plan.plan());

    // Dedupe + admission under one lock, so two racing submissions of
    // the same plan cannot both claim a slot.
    let (job_id, joined) = {
        let mut live = lock(&state.live_runs);
        if let Some(job_id) = live.get(&run_id) {
            telemetry::counter_add("serve.joined", 1);
            (job_id.clone(), true)
        } else {
            let running = state.inflight.load(Ordering::Relaxed);
            if running >= state.max_inflight {
                telemetry::counter_add("serve.rejected", 1);
                drop(live);
                return respond_error(
                    stream,
                    429,
                    &format!(
                        "admission limit reached ({running}/{} jobs in flight); retry shortly",
                        state.max_inflight
                    ),
                );
            }
            state.inflight.fetch_add(1, Ordering::Relaxed);
            let job_id = format!("j{}", state.next_job.fetch_add(1, Ordering::Relaxed));
            let job = Arc::new(Job {
                run_id: run_id.clone(),
                state: Mutex::new(JobProgress::default()),
                wake: Condvar::new(),
            });
            lock(&state.jobs).insert(job_id.clone(), Arc::clone(&job));
            live.insert(run_id.clone(), job_id.clone());
            telemetry::counter_add("serve.submitted", 1);
            let state = Arc::clone(state);
            let launched = job_id.clone();
            std::thread::spawn(move || run_job(&state, &job, &launched, plan, limit));
            (job_id, false)
        }
    };

    let mut obj = BTreeMap::new();
    obj.insert("job".to_owned(), Json::Str(job_id.clone()));
    obj.insert("run_id".to_owned(), Json::Str(run_id));
    obj.insert("joined".to_owned(), Json::Bool(joined));
    obj.insert("progress".to_owned(), Json::Str(format!("/runs/{job_id}")));
    respond_json(stream, if joined { 200 } else { 202 }, &Json::Obj(obj));
}

/// Renders one finished grid point as a progress line.
fn event_line(event: &JobEvent<'_>) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("index".to_owned(), Json::Num(event.index as f64));
    obj.insert("key".to_owned(), Json::Str(key_hex(event.key)));
    let tier = event.tier;
    obj.insert("ok".to_owned(), Json::Bool(event.ok));
    obj.insert("cache_hit".to_owned(), Json::Bool(tier.is_cache_hit()));
    obj.insert("disk_hit".to_owned(), Json::Bool(tier == Tier::Disk));
    obj.insert("skipped".to_owned(), Json::Bool(tier == Tier::Skipped));
    obj.insert(
        "duration_s".to_owned(),
        Json::Num(event.duration.as_secs_f64()),
    );
    Json::Obj(obj).render()
}

/// Executes one submitted job on its own thread: the journaled run,
/// the final summary line, cleanup.
fn run_job(
    state: &Arc<ServerState>,
    job: &Arc<Job>,
    job_id: &str,
    plan: ValidPlan,
    limit: Option<usize>,
) {
    telemetry::set_lane_label("serve-job");
    let on_done = |event: &JobEvent<'_>| job.push_line(event_line(event), false);
    let options = SweepOptions {
        limit,
        on_done: Some(&on_done),
        cancel: Some(&state.cancel),
    };
    let mut obj = BTreeMap::new();
    // The run's lock also fences other *processes* off this run id: a
    // live holder fails the job cleanly instead of interleaving
    // journals. Executing releases the lock before the job leaves the
    // live-run map — a resubmission landing between the two would
    // otherwise find the journal still locked and fail with
    // `RunInFlight`.
    match Run::open(&state.engine, plan, state.cache_dir.as_deref()) {
        Ok(run) => {
            let outcome = run.execute(&options);
            obj.insert("status".to_owned(), Json::Str("done".to_owned()));
            obj.insert("scenario".to_owned(), Json::Str(outcome.scenario.clone()));
            obj.insert("jobs".to_owned(), Json::Num(outcome.jobs.len() as f64));
            obj.insert(
                "cache_hits".to_owned(),
                Json::Num(outcome.cache_hits as f64),
            );
            obj.insert("disk_hits".to_owned(), Json::Num(outcome.disk_hits as f64));
            obj.insert("errors".to_owned(), Json::Num(outcome.errors as f64));
            obj.insert("skipped".to_owned(), Json::Num(outcome.skipped as f64));
            obj.insert(
                "duration_s".to_owned(),
                Json::Num(outcome.duration.as_secs_f64()),
            );
            obj.insert(
                "csv".to_owned(),
                Json::Str(outcome.summary_table().to_csv()),
            );
        }
        Err(e) => {
            obj.insert("status".to_owned(), Json::Str("failed".to_owned()));
            obj.insert("error".to_owned(), Json::Str(e.to_string()));
        }
    }
    job.push_line(Json::Obj(obj).render(), true);
    // Release the admission slot and the live-run entry.
    let mut live = lock(&state.live_runs);
    if live.get(&job.run_id).map(String::as_str) == Some(job_id) {
        live.remove(&job.run_id);
    }
    drop(live);
    state.inflight.fetch_sub(1, Ordering::Relaxed);
}

/// `GET /runs/<job>`: streams progress lines as chunked JSONL until
/// the job's final summary line has been delivered.
fn stream_progress(state: &Arc<ServerState>, stream: &mut TcpStream, id: &str) {
    let Some(job) = lock(&state.jobs).get(id).cloned() else {
        return respond_error(stream, 404, &format!("no job `{id}`"));
    };
    if write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )
    .is_err()
    {
        return;
    }
    let mut next = 0usize;
    loop {
        let (lines, finished) = {
            let mut progress = lock(&job.state);
            while progress.lines.len() == next && !progress.finished {
                let (guard, _timeout) = job
                    .wake
                    .wait_timeout(progress, Duration::from_millis(500))
                    .unwrap_or_else(PoisonError::into_inner);
                progress = guard;
                if state.stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            (progress.lines[next..].to_vec(), progress.finished)
        };
        next += lines.len();
        for line in &lines {
            let chunk = format!("{line}\n");
            if write!(stream, "{:x}\r\n{chunk}\r\n", chunk.len()).is_err() {
                return;
            }
        }
        let _ = stream.flush();
        if finished || state.stop.load(Ordering::Relaxed) {
            break;
        }
    }
    let _ = write!(stream, "0\r\n\r\n");
    let _ = stream.flush();
}

/// `GET /results/<key>`: serves a cached output by content address —
/// memory tier first, then the disk store, never recomputing.
fn result_by_key(state: &Arc<ServerState>, stream: &mut TcpStream, key: &str) {
    let Some(parsed) = parse_key_hex(key) else {
        return respond_error(
            stream,
            400,
            "keys are 16 hex digits (as streamed in progress lines)",
        );
    };
    let Some(output) = state.engine.lookup(parsed) else {
        return respond_error(
            stream,
            404,
            &format!("no cached result for key {}", key_hex(parsed)),
        );
    };
    respond_json(stream, 200, &output_json(parsed, &output));
}

fn output_json(key: u64, output: &ScenarioOutput) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("key".to_owned(), Json::Str(key_hex(key)));
    obj.insert(
        "scalars".to_owned(),
        Json::Obj(
            output
                .scalars
                .iter()
                .map(|(name, v)| (name.clone(), Json::Num(*v)))
                .collect(),
        ),
    );
    obj.insert("csv".to_owned(), Json::Str(output.to_csv()));
    Json::Obj(obj)
}

/// `POST /shutdown`: graceful drain. New submissions get 503
/// immediately; running sweeps are cooperatively cancelled (their
/// remaining grid points come back `skipped`, journals flush, runs
/// stay resumable); once the last job released its slot the accept
/// loop is woken and exits.
fn shutdown(state: &Arc<ServerState>, stream: &mut TcpStream) {
    let already = state.draining.swap(true, Ordering::Relaxed);
    state.cancel.store(true, Ordering::Relaxed);
    // Respond before arming the drain waiter: once the waiter sees
    // zero in-flight jobs it stops the accept loop and the process
    // exits, which must not race this response off the wire.
    let mut obj = BTreeMap::new();
    obj.insert("draining".to_owned(), Json::Bool(true));
    obj.insert(
        "inflight".to_owned(),
        Json::Num(state.inflight.load(Ordering::Relaxed) as f64),
    );
    respond_json(stream, 200, &Json::Obj(obj));
    if !already {
        let state = Arc::clone(state);
        std::thread::spawn(move || {
            while state.inflight.load(Ordering::Relaxed) > 0 {
                std::thread::sleep(Duration::from_millis(25));
            }
            state.stop.store(true, Ordering::Relaxed);
            // Wake the blocking accept loop so `run` can return.
            let _ = TcpStream::connect(state.addr);
        });
    }
}
