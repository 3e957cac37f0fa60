//! Host-side measurements and provenance: process CPU time, resident
//! memory, loopback TIME_WAIT sockets, abortive socket close, and the
//! machine/revision stamp every result carries.

use mramsim_telemetry::Json;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Linger {
    l_onoff: i32,
    l_linger: i32,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const std::ffi::c_void, len: u32) -> i32;
    fn syncfs(fd: i32) -> i32;
}

// Linux constants (x86-64 and aarch64 share them).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SOL_SOCKET: i32 = 1;
const SO_LINGER: i32 = 13;

/// User + system CPU time of the whole process (all threads), seconds.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and the clock id is a valid Linux clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Closes `stream` with `SO_LINGER` 0: the kernel sends RST instead of
/// FIN, so neither end parks the connection in TIME_WAIT. Returns
/// whether the option was set (a plain close happens either way).
pub fn abortive_close(stream: TcpStream) -> bool {
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor is owned by `stream`, which stays open for
    // the call; `linger` is a valid `struct linger` and its exact size
    // is passed with it.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&linger as *const Linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        )
    };
    drop(stream);
    rc == 0
}

/// Flushes the filesystem holding `dir` (dirty data, metadata, and
/// the journal), so work queued by an earlier run or by set-up does
/// not land inside a timed phase.
pub fn sync_filesystem(dir: &Path) {
    if let Ok(handle) = std::fs::File::open(dir) {
        // SAFETY: the descriptor is owned by `handle`, which stays open
        // for the call; syncfs only reads it.
        unsafe {
            syncfs(handle.as_raw_fd());
        }
    }
}

/// CPU ticks this machine has had stolen by the hypervisor, and all
/// CPU ticks, since boot (the `cpu` line of /proc/stat).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .find_map(|line| line.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    let steal = ticks.get(7).copied().unwrap_or(0);
    (steal, ticks.iter().take(8).sum())
}

fn proc_status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process (VmHWM), KiB.
pub fn peak_rss_kb() -> u64 {
    proc_status_kb("VmHWM:")
}

/// Current resident set size (VmRSS), KiB.
pub fn rss_kb() -> u64 {
    proc_status_kb("VmRSS:")
}

/// TCP sockets the host holds in TIME_WAIT (`tw` in /proc/net/sockstat).
pub fn time_wait_sockets() -> u64 {
    let stat = std::fs::read_to_string("/proc/net/sockstat").unwrap_or_default();
    stat.lines()
        .find_map(|line| line.strip_prefix("TCP:"))
        .and_then(|rest| {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            fields
                .windows(2)
                .find(|w| w[0] == "tw")
                .and_then(|w| w[1].parse().ok())
        })
        .unwrap_or(0)
}

/// The filesystem type `path` lives on (longest matching mount point).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, name)| name.trim().to_owned())
}

/// The checked-out revision when the tree is a git checkout.
fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed.lines().find_map(|line| {
                    let (hash, name) = line.split_once(' ')?;
                    (name == reference).then(|| hash.to_owned())
                })
            })
            .map_or_else(|| format!("unknown ({reference})"), |h| h.trim().to_owned()),
    }
}

/// The machine, revision, and run settings a result was taken under.
pub fn provenance(extra: &[(&str, Json)]) -> Json {
    let mut obj = BTreeMap::new();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj.insert("nproc".to_owned(), Json::Num(nproc as f64));
    obj.insert("cpu_model".to_owned(), Json::Str(cpu_model()));
    obj.insert("git_revision".to_owned(), Json::Str(git_revision()));
    for (key, value) in extra {
        obj.insert((*key).to_owned(), value.clone());
    }
    Json::Obj(obj)
}

/// `W = min(2, nproc)`: the worker count every workload sizes to.
pub fn bench_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}
