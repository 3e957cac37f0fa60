//! The serve layer end to end, over real sockets: concurrent clients
//! submitting overlapping sweeps get byte-identical output to a
//! sequential run with every grid point computed exactly once;
//! submissions are validated up front; results are fetchable by
//! content address; a mid-sweep graceful drain leaves a journal that
//! resumes to the uninterrupted answer; and a panicking job fails its
//! own grid point while the server stays healthy.

use mramsim_engine::serve::{ServeConfig, Server};
use mramsim_engine::{Engine, EngineError, ParamSet, ParamSpec, Registry, Run, Scenario};
use mramsim_engine::{ScenarioOutput, SweepJournal, SweepOptions, SweepPlan};
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mramsim-serve-{label}-{}-{}",
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

/// A minimal blocking HTTP/1.1 client: one request per connection
/// (the server always answers `Connection: close`), chunked bodies
/// transparently decoded. Returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // A wedged server must fail the test, not hang it.
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let (head, payload) = raw.split_once("\r\n\r\n").expect("header terminator");
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        dechunk(payload)
    } else {
        payload.to_owned()
    };
    (status, body)
}

fn dechunk(payload: &str) -> String {
    let mut out = String::new();
    let mut rest = payload;
    while let Some((size, tail)) = rest.split_once("\r\n") {
        let Ok(size) = usize::from_str_radix(size.trim(), 16) else {
            break;
        };
        if size == 0 {
            break;
        }
        out.push_str(&tail[..size]);
        rest = &tail[size + 2..];
    }
    out
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, "GET", path, "")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    http(addr, "POST", path, body)
}

/// Pulls a `"name":"value"` or `"name":value` field out of a JSON
/// line without a parser — the serve wire format is flat.
fn field(json: &str, name: &str) -> String {
    let key = format!("\"{name}\":");
    let start = json
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {json}"))
        + key.len();
    let rest = &json[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        let mut out = String::new();
        let mut chars = stripped.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => break,
                '\\' => match chars.next() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some(other) => out.push(other),
                    None => break,
                },
                other => out.push(other),
            }
        }
        out
    } else {
        rest.chars()
            .take_while(|c| !",}".contains(*c))
            .collect::<String>()
            .trim()
            .to_owned()
    }
}

/// Binds a server over `engine` on a free port and runs it on a
/// background thread; the thread exits on graceful shutdown.
fn spawn_server(
    engine: Arc<Engine>,
    cache_dir: Option<PathBuf>,
    max_inflight: usize,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_inflight,
        cache_dir,
    };
    let server = Server::bind(engine, &config).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// Submits a plan and streams its progress to completion, returning
/// (final summary line, progress lines before it).
fn submit_and_stream(addr: SocketAddr, body: &str) -> (String, Vec<String>) {
    let (status, response) = post(addr, "/sweeps", body);
    assert!(
        status == 202 || status == 200,
        "submit failed: {status} {response}"
    );
    let progress = field(&response, "progress");
    let (status, streamed) = get(addr, &progress);
    assert_eq!(status, 200, "progress stream failed: {streamed}");
    let mut lines: Vec<String> = streamed.lines().map(str::to_owned).collect();
    let last = lines.pop().expect("at least the summary line");
    (last, lines)
}

const OVERLAP_PLAN: &str = r#"{"scenario":"fig4b","params":{"ecd":35},"axes":{"pitch":[60,80,100,120,140,160,180,200,220]}}"#;

fn overlap_plan() -> SweepPlan {
    SweepPlan::new("fig4b").fix("ecd", 35.0).axis(
        "pitch",
        (0..9).map(|i| 60.0 + 20.0 * f64::from(i)).collect(),
    )
}

#[test]
fn concurrent_clients_get_sequential_bytes_with_one_computation() {
    let dir = TempDir::new("concurrent");
    let engine = Arc::new(
        Engine::standard()
            .with_workers(2)
            .with_disk_cache(&dir.0)
            .unwrap(),
    );
    let (addr, server) = spawn_server(Arc::clone(&engine), Some(dir.0.clone()), 8);

    // The ground truth: the same plan, swept sequentially by an
    // isolated engine that shares nothing with the server.
    let baseline = Engine::standard()
        .with_workers(1)
        .sweep(&overlap_plan())
        .unwrap()
        .summary_table()
        .to_csv();

    // Four clients race the same sweep. Whoever lands first computes;
    // the others join the in-flight run or are served warm.
    let clients: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || submit_and_stream(addr, OVERLAP_PLAN)))
        .collect();
    for client in clients {
        let (last, _events) = client.join().expect("client thread");
        assert_eq!(field(&last, "status"), "done", "summary: {last}");
        assert_eq!(field(&last, "errors"), "0");
        assert_eq!(field(&last, "skipped"), "0");
        assert_eq!(field(&last, "csv"), baseline, "served CSV diverged");
    }

    // Exactly-once accounting: the shared engine persisted each of the
    // nine grid points exactly once, no matter how many clients asked.
    assert_eq!(engine.disk_stats().unwrap().writes, 9);

    // The results are content-addressed: re-fetch one by the key the
    // progress stream advertised.
    let (last, events) = submit_and_stream(addr, OVERLAP_PLAN);
    assert_eq!(field(&last, "cache_hits"), "9", "warm resubmit");
    let key = field(&events[0], "key");
    let (status, body) = get(addr, &format!("/results/{key}"));
    assert_eq!(status, 200, "result fetch: {body}");
    assert!(body.contains("psi_percent"), "payload: {body}");

    let (status, _body) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    server.join().expect("server thread");
}

#[test]
fn submissions_are_validated_and_admission_is_bounded() {
    let dir = TempDir::new("validate");
    let engine = Arc::new(Engine::standard().with_workers(1));
    let (addr, server) = spawn_server(engine, Some(dir.0.clone()), 1);

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(field(&body, "status"), "ok");

    // Up-front validation: unknown scenario, unknown parameter,
    // malformed JSON, axes routed to the wrong endpoint.
    let cases = [
        ("/sweeps", r#"{"scenario":"nope","axes":{"pitch":[1]}}"#),
        ("/sweeps", r#"{"scenario":"fig4b","axes":{"bogus":[1]}}"#),
        ("/sweeps", "not json"),
        ("/sweeps", r#"{"scenario":"fig4b"}"#),
        ("/runs", r#"{"scenario":"fig4b","axes":{"pitch":[90]}}"#),
    ];
    for (path, bad) in cases {
        let (status, body) = post(addr, path, bad);
        assert_eq!(status, 400, "{path} {bad} -> {body}");
    }
    let (status, _) = get(addr, "/runs/j999");
    assert_eq!(status, 404);
    let (status, _) = get(addr, "/results/zzzz");
    assert_eq!(status, 400);
    let (status, _) = get(addr, "/results/00000000000000ff");
    assert_eq!(status, 404);

    // A single-point /runs submission flows through the same job
    // machinery: one streamed event, then a done summary.
    let (status, response) = post(
        addr,
        "/runs",
        r#"{"scenario":"fig4b","params":{"pitch":90}}"#,
    );
    assert_eq!(status, 202, "{response}");
    let (status, streamed) = get(addr, &field(&response, "progress"));
    assert_eq!(status, 200);
    let lines: Vec<&str> = streamed.lines().collect();
    assert_eq!(lines.len(), 2, "one event + summary: {streamed}");
    assert_eq!(field(lines[1], "status"), "done");
    assert_eq!(field(lines[1], "jobs"), "1");

    let (status, _body) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    server.join().expect("server thread");
}

#[test]
fn graceful_drain_leaves_a_resumable_journal() {
    let dir = TempDir::new("drain");
    let engine = Arc::new(
        Engine::standard()
            .with_workers(1)
            .with_disk_cache(&dir.0)
            .unwrap(),
    );
    let (addr, server) = spawn_server(Arc::clone(&engine), Some(dir.0.clone()), 2);

    // A sweep slow enough (Monte-Carlo WER, one worker) that the drain
    // lands mid-run; the exact split point is scheduling-dependent and
    // the assertions below hold for any split.
    let body = r#"{"scenario":"wer-mc","params":{"trajectories":600},"axes":{"pulse_ns":[0.8,1.0,1.2,1.4,1.6,1.8]}}"#;
    let (status, response) = post(addr, "/sweeps", body);
    assert_eq!(status, 202, "{response}");
    let run_id = field(&response, "run_id");
    let journal_path = SweepJournal::path_for(&dir.0, &run_id);

    // Wait for the first checkpoint so the drain is genuinely
    // mid-sweep, then pull the plug.
    let deadline = Instant::now() + Duration::from_secs(60);
    while fs::read_to_string(&journal_path)
        .map(|s| s.lines().count() < 2)
        .unwrap_or(true)
    {
        assert!(Instant::now() < deadline, "no checkpoint within 60s");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (status, drain) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(field(&drain, "draining"), "true");
    server.join().expect("server drains and exits");

    // The journal survived the drain with its run lock released and at
    // least one durable checkpoint.
    let journal = fs::read_to_string(&journal_path).unwrap();
    assert!(journal.lines().count() >= 2, "journal: {journal}");
    assert!(
        !journal_path.with_extension("journal.lock").exists(),
        "run lock must be released by the drain"
    );

    // A fresh engine over the same cache dir resumes the run by its id:
    // exactly the journaled points come from disk, the rest compute,
    // and the final answer is byte-identical to an undisturbed
    // sequential run.
    let resumed = Engine::standard()
        .with_workers(1)
        .with_disk_cache(&dir.0)
        .unwrap();
    let run = Run::resume(&resumed, &dir.0, &run_id).unwrap();
    let journaled = run.journaled();
    assert!(journaled >= 1, "the drain must leave a checkpoint");
    let plan = run.plan().clone();
    let outcome = run.execute(&SweepOptions::default());
    assert_eq!(outcome.errors + outcome.skipped, 0);
    assert_eq!(
        outcome.disk_hits, journaled,
        "every journaled point, and only those, is served from disk"
    );
    let baseline = Engine::standard()
        .with_workers(1)
        .sweep(&plan)
        .unwrap()
        .summary_table()
        .to_csv();
    assert_eq!(outcome.summary_table().to_csv(), baseline);
}

/// A scenario that panics for `x > 1`.
struct Fragile;

impl Scenario for Fragile {
    fn id(&self) -> &'static str {
        "fragile"
    }
    fn summary(&self) -> &'static str {
        "panics for x > 1"
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::new("x", "input", 0.0)]
    }
    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let x = params.number("x")?;
        assert!(x <= 1.0, "x = {x} is out of range");
        Ok(ScenarioOutput::default().with_scalar("x", x))
    }
}

#[test]
fn a_panicking_job_leaves_the_server_healthy() {
    // One worker, one admission slot: a job whose panic leaked its slot
    // (regression) would 429 every later plan and wedge the drain.
    let mut registry = Registry::new();
    registry.register(Arc::new(Fragile));
    let engine = Arc::new(Engine::new(registry).with_workers(1));
    let (addr, server) = spawn_server(engine, None, 1);

    let (last, events) = submit_and_stream(addr, r#"{"scenario":"fragile","axes":{"x":[0,2,1]}}"#);
    assert_eq!(field(&last, "status"), "done", "summary: {last}");
    assert_eq!(field(&last, "errors"), "1");
    assert_eq!(events.len(), 3, "every point reports: {events:?}");
    assert!(field(&last, "csv").contains("panicked: x = 2 is out of range"));

    // The job thread frees its slot just after the summary line; once
    // it has, the next plan is admitted and completes.
    let deadline = Instant::now() + Duration::from_secs(10);
    while field(&get(addr, "/healthz").1, "inflight") != "0" {
        assert!(Instant::now() < deadline, "the admission slot leaked");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (last, _) = submit_and_stream(addr, r#"{"scenario":"fragile","axes":{"x":[0,1]}}"#);
    assert_eq!(field(&last, "status"), "done", "summary: {last}");

    let (status, _body) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    server.join().expect("server drains and exits");
}
