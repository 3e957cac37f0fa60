//! Sweep journals: durable checkpoints that make long campaigns
//! resumable.
//!
//! A journal is one append-only text file per sweep run. Its header
//! captures the *full* plan (scenario, fixed overrides, axes — all
//! values bit-exact), so `mramsim sweep --resume <run>` needs nothing
//! but the run id; every completed grid point then appends one
//! `done <index> <key>` line, flushed immediately, so a killed process
//! keeps everything it finished. Results themselves live in the
//! [`crate::store::DiskStore`]; on resume the engine replays the whole
//! grid and the journaled points come back as disk hits, which —
//! together with deterministic per-job seeding and the store's exact
//! round-trip — makes a resumed sweep's CSV byte-identical to an
//! uninterrupted run.
//!
//! Robustness: the trailing line of a journal from a killed process
//! may be truncated mid-write; loading tolerates (and discards)
//! exactly that, while a malformed *header* is a hard error — resuming
//! the wrong plan silently would be worse than failing.
//!
//! Liveness: the run id is purely content-derived, so two concurrent
//! submissions of the same plan would open the same `.journal` (and
//! `.telemetry`) files and interleave writes. A sidecar lock file
//! (`<run-id>.journal.lock`, created with `O_EXCL`, holding the owner
//! pid) makes that collision a typed [`EngineError::RunInFlight`]
//! instead; locks whose owner process is gone are reclaimed, so a
//! killed sweep never blocks its own `--resume`.

use crate::store::{Wire, WireReader};
use crate::{EngineError, ParamValue, SweepPlan};
use mramsim_numerics::hash::{key_hex, parse_key_hex, Fnv1a};
use mramsim_telemetry as telemetry;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The state recovered from an existing journal.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalState {
    /// The journaled plan, reconstructed bit-exactly.
    pub plan: SweepPlan,
    /// Completed grid points: expansion index → content address.
    pub done: BTreeMap<usize, u64>,
}

/// An append-only checkpoint journal for one sweep run.
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    file: Mutex<fs::File>,
    poisoned: AtomicBool,
    reported: AtomicBool,
    // Held for the journal's whole lifetime; releases on drop.
    _lock: RunLock,
}

/// Exclusive ownership of one run id, held as a sidecar lock file next
/// to the journal. The file is created with `create_new` (`O_EXCL`) and
/// contains the owner's pid; dropping the lock removes the file.
#[derive(Debug)]
struct RunLock {
    path: PathBuf,
}

impl RunLock {
    /// Lock file location for a journal path.
    fn path_for(journal_path: &Path) -> PathBuf {
        let mut name = journal_path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        name.push_str(".lock");
        journal_path.with_file_name(name)
    }

    /// Acquires the run lock, reclaiming it from a dead holder.
    ///
    /// A lock whose recorded pid no longer exists (the process was
    /// killed before `Drop` ran) is stale and stolen — otherwise a
    /// killed sweep could never `--resume` itself. A live holder is an
    /// [`EngineError::RunInFlight`].
    fn acquire(journal_path: &Path) -> Result<Self, EngineError> {
        let path = Self::path_for(journal_path);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| EngineError::Persistence {
                path: path.display().to_string(),
                message: format!("cannot create run-lock directory: {e}"),
            })?;
        }
        // Two attempts: the second runs only after a stale lock was
        // removed; losing *that* race means a genuinely live rival.
        for attempt in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    let _ = file.write_all(format!("{}\n", std::process::id()).as_bytes());
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if attempt == 0 && !process_is_alive(pid) => {
                            // Stale: the holder died without cleanup.
                            let _ = fs::remove_file(&path);
                            telemetry::counter_add("journal.locks_reclaimed", 1);
                        }
                        Some(pid) => {
                            let run_id = journal_path
                                .file_stem()
                                .map(|n| n.to_string_lossy().into_owned())
                                .unwrap_or_default();
                            return Err(EngineError::RunInFlight {
                                run_id,
                                pid,
                                path: path.display().to_string(),
                            });
                        }
                        None if attempt == 0 => {
                            // Unreadable or empty (a racing acquirer
                            // between create and write, or garbage):
                            // retry once — if it is a live rival the
                            // pid will be there by then.
                            std::thread::yield_now();
                        }
                        None => {
                            return Err(EngineError::Persistence {
                                path: path.display().to_string(),
                                message: "run lock exists but holds no readable pid; \
                                          delete it if no sweep is running"
                                    .into(),
                            });
                        }
                    }
                }
                Err(e) => {
                    return Err(EngineError::Persistence {
                        path: path.display().to_string(),
                        message: format!("cannot create run lock: {e}"),
                    });
                }
            }
        }
        unreachable!("lock acquisition always returns within two attempts")
    }
}

impl Drop for RunLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Whether a pid names a live process. Uses `/proc` where it exists;
/// elsewhere assumes alive (never steals a lock it cannot check —
/// erring fatal is recoverable by hand, erring corrupt is not).
fn process_is_alive(pid: u32) -> bool {
    let proc_root = Path::new("/proc");
    if !proc_root.is_dir() {
        return true;
    }
    pid == std::process::id() || proc_root.join(pid.to_string()).exists()
}

impl SweepJournal {
    /// The stable run id of a plan: scenario plus a content hash over
    /// the fixed overrides and every axis value, bit-exact — the same
    /// plan always maps to the same id, across processes.
    #[must_use]
    pub fn run_id(plan: &SweepPlan) -> String {
        format!("{}-{:08x}", plan.scenario(), Self::plan_hash(plan) as u32)
    }

    /// The 64-bit content hash [`SweepJournal::run_id`] abbreviates.
    #[must_use]
    pub fn plan_hash(plan: &SweepPlan) -> u64 {
        let mut h = Fnv1a::new();
        h.field(plan.scenario().as_bytes());
        h.field(plan.fixed().fingerprint().as_bytes());
        for (name, values) in plan.axes() {
            h.field(name.as_bytes());
            for &v in values {
                h.f64(v);
            }
        }
        h.finish()
    }

    /// Where the journal of `run_id` lives under a cache directory.
    #[must_use]
    pub fn path_for(cache_dir: &Path, run_id: &str) -> PathBuf {
        cache_dir.join("runs").join(format!("{run_id}.journal"))
    }

    /// The journal's own path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Creates (truncating any previous journal of the same run) and
    /// writes the plan header.
    ///
    /// # Errors
    ///
    /// [`EngineError::Persistence`] when the file cannot be created or
    /// written; [`EngineError::RunInFlight`] when a live process
    /// already owns this run (the lock is checked *before* truncating,
    /// so a collision never clobbers the live run's journal).
    pub fn create(path: impl Into<PathBuf>, plan: &SweepPlan) -> Result<Self, EngineError> {
        let path = path.into();
        // Acquiring the lock also creates the journal's directory.
        let lock = RunLock::acquire(&path)?;
        let fail = |message: String| EngineError::Persistence {
            path: path.display().to_string(),
            message,
        };
        let mut file =
            fs::File::create(&path).map_err(|e| fail(format!("cannot create journal: {e}")))?;
        file.write_all(encode_header(plan).as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| fail(format!("cannot write journal header: {e}")))?;
        Ok(Self::over(path, file, lock))
    }

    /// Opens an existing journal for resumption: parses the plan and
    /// the completed-point log (tolerating a truncated trailing line
    /// from a killed process) and reopens the file for appending.
    ///
    /// # Errors
    ///
    /// [`EngineError::Persistence`] when the file is missing or its
    /// header is unreadable; [`EngineError::RunInFlight`] when a live
    /// process still owns this run.
    pub fn resume(path: impl Into<PathBuf>) -> Result<(Self, JournalState), EngineError> {
        let path = path.into();
        let lock = RunLock::acquire(&path)?;
        let fail = |message: String| EngineError::Persistence {
            path: path.display().to_string(),
            message,
        };
        let text = fs::read_to_string(&path)
            .map_err(|e| fail(format!("cannot read journal (unknown run id?): {e}")))?;
        let state = parse_journal(&text)
            .ok_or_else(|| fail("journal header is corrupt; re-run without --resume".into()))?;
        let file = fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| fail(format!("cannot reopen journal for appending: {e}")))?;
        Ok((Self::over(path, file, lock), state))
    }

    /// A journal appending to `file`, owning the run `lock`.
    fn over(path: PathBuf, file: fs::File, lock: RunLock) -> Self {
        Self {
            path,
            file: Mutex::new(file),
            poisoned: AtomicBool::new(false),
            reported: AtomicBool::new(false),
            _lock: lock,
        }
    }

    /// Appends one completed grid point, flushed immediately so a kill
    /// right after loses nothing. Append failures are swallowed: a
    /// full disk must not take down the sweep, it only costs
    /// resumability.
    pub fn record(&self, index: usize, key: u64) {
        let span = telemetry::span("journal.flush_s");
        // Also a tree span, so the flush shows up nested in its job's
        // trace (the flat span above keeps feeding the histogram).
        let tree = telemetry::span_tree("journal.flush");
        let line = format!("done {index} {}\n", key_hex(key));
        // A job that panicked while appending poisons this mutex; the
        // file itself is still sound (each line is written whole and a
        // torn tail is tolerated on resume), so recover the guard and
        // keep journaling — one bad job must not cost the durability
        // of every job after it.
        let mut file = self.file.lock().unwrap_or_else(|e| {
            if !self.poisoned.swap(true, Ordering::Relaxed) {
                telemetry::counter_add("journal.lock_recoveries", 1);
            }
            e.into_inner()
        });
        let _ = file.write_all(line.as_bytes()).and_then(|()| file.flush());
        drop(file);
        tree.finish();
        span.finish();
        telemetry::counter_add("journal.records", 1);
    }

    /// The typed poisoning report, surfaced at most once: `Some` on the
    /// first call after a panic poisoned (and [`Self::record`]
    /// recovered) the journal lock, `None` before that and ever after.
    /// Long-lived callers poll this after each sweep and log it —
    /// instead of the pre-recovery behaviour where every later flush
    /// re-panicked.
    pub fn poison_error(&self) -> Option<EngineError> {
        (self.poisoned.load(Ordering::Relaxed) && !self.reported.swap(true, Ordering::Relaxed))
            .then(|| EngineError::LockPoisoned {
                what: "sweep journal",
                path: self.path.display().to_string(),
            })
    }
}

/// Journal format version; bump on layout changes.
const JOURNAL_VERSION: u32 = 1;

fn encode_value(w: &mut Wire, value: &ParamValue) {
    match value {
        ParamValue::Number(n) => {
            w.count("num", 1);
            w.f64(*n);
        }
        ParamValue::List(xs) => {
            w.count("list", xs.len());
            for &x in xs {
                w.f64(x);
            }
        }
        ParamValue::Text(t) => {
            w.count("text", 1);
            w.string(t);
        }
    }
}

fn decode_value(r: &mut WireReader<'_>) -> Option<ParamValue> {
    match r.tagged_count()? {
        ("num", 1) => Some(ParamValue::Number(r.f64()?)),
        ("list", len) => {
            let mut xs = Vec::with_capacity(len);
            for _ in 0..len {
                xs.push(r.f64()?);
            }
            Some(ParamValue::List(xs))
        }
        ("text", 1) => Some(ParamValue::Text(r.string()?.to_owned())),
        _ => None,
    }
}

fn encode_header(plan: &SweepPlan) -> String {
    let mut w = Wire::new();
    w.count("mramsim-journal", JOURNAL_VERSION as usize);
    w.string(plan.scenario());
    w.string(&key_hex(SweepJournal::plan_hash(plan)));
    let fixed: Vec<(&str, &ParamValue)> = plan.fixed().iter().collect();
    w.count("fixed", fixed.len());
    for (name, value) in fixed {
        w.string(name);
        encode_value(&mut w, value);
    }
    w.count("axes", plan.axes().len());
    for (name, values) in plan.axes() {
        w.string(name);
        w.count("vals", values.len());
        for &v in values {
            w.f64(v);
        }
    }
    w.count("log", 0); // Marks the end of the header.
    w.0
}

fn parse_journal(text: &str) -> Option<JournalState> {
    let mut r = WireReader::new(text);
    if r.count("mramsim-journal")? != JOURNAL_VERSION as usize {
        return None;
    }
    let scenario = r.string()?.to_owned();
    let recorded_hash = parse_key_hex(r.string()?)?;
    let n_fixed = r.count("fixed")?;
    let mut plan = SweepPlan::new(&scenario);
    for _ in 0..n_fixed {
        let name = r.string()?.to_owned();
        plan = plan.fix(&name, decode_value(&mut r)?);
    }
    let n_axes = r.count("axes")?;
    for _ in 0..n_axes {
        let name = r.string()?.to_owned();
        let n_vals = r.count("vals")?;
        let mut values = Vec::with_capacity(n_vals);
        for _ in 0..n_vals {
            values.push(r.f64()?);
        }
        plan = plan.axis(&name, values);
    }
    if r.count("log")? != 0 {
        return None;
    }
    // The recorded hash pins the header against corruption that still
    // parses (e.g. a truncated-then-rewritten file).
    if SweepJournal::plan_hash(&plan) != recorded_hash {
        return None;
    }
    // The done log: well-formed lines count; a truncated trailing line
    // (killed mid-append) is discarded, anything else malformed is
    // ignored defensively — a lost `done` line only costs one disk-hit
    // replay, never correctness.
    let mut done = BTreeMap::new();
    for line in r.remainder().lines() {
        let Some(rest) = line.strip_prefix("done ") else {
            continue;
        };
        let Some((index, key)) = rest.split_once(' ') else {
            continue;
        };
        if let (Ok(index), Some(key)) = (index.parse::<usize>(), parse_key_hex(key)) {
            done.insert(index, key);
        }
    }
    Some(JournalState { plan, done })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TempDir;

    fn plan() -> SweepPlan {
        SweepPlan::new("array-wer")
            .fix("rows", 4.0)
            .fix("pattern", "checkerboard")
            .fix("grid", vec![1.0, 0.5])
            .axis("pitch", vec![60.0, 70.0, 90.0])
            .axis("trajectories", vec![32.0, 64.0])
    }

    #[test]
    fn run_ids_are_stable_and_plan_sensitive() {
        assert_eq!(SweepJournal::run_id(&plan()), SweepJournal::run_id(&plan()));
        assert!(SweepJournal::run_id(&plan()).starts_with("array-wer-"));
        let other = plan().fix("seed", 9.0);
        assert_ne!(SweepJournal::run_id(&plan()), SweepJournal::run_id(&other));
        let reordered = SweepPlan::new("array-wer")
            .fix("rows", 4.0)
            .fix("pattern", "checkerboard")
            .fix("grid", vec![1.0, 0.5])
            .axis("pitch", vec![60.0, 70.0, 91.0])
            .axis("trajectories", vec![32.0, 64.0]);
        assert_ne!(
            SweepJournal::run_id(&plan()),
            SweepJournal::run_id(&reordered),
            "axis values must move the run id"
        );
    }

    #[test]
    fn journal_round_trips_plan_and_done_log() {
        let dir = TempDir::new("roundtrip");
        let path = SweepJournal::path_for(&dir.0, &SweepJournal::run_id(&plan()));
        let journal = SweepJournal::create(&path, &plan()).unwrap();
        journal.record(0, 0xdead_beef);
        journal.record(4, 42);
        drop(journal);

        let (journal, state) = SweepJournal::resume(&path).unwrap();
        assert_eq!(state.plan, plan(), "plan must reconstruct bit-exactly");
        assert_eq!(state.done, BTreeMap::from([(0, 0xdead_beef), (4, 42)]));
        // Appends after resume extend the same log.
        journal.record(5, 7);
        drop(journal);
        let (_, state) = SweepJournal::resume(&path).unwrap();
        assert_eq!(state.done.len(), 3);
    }

    #[test]
    fn truncated_trailing_line_is_tolerated() {
        let dir = TempDir::new("truncated");
        let path = dir.0.join("run.journal");
        let journal = SweepJournal::create(&path, &plan()).unwrap();
        journal.record(0, 1);
        journal.record(1, 2);
        drop(journal);
        // Simulate a kill mid-append: chop the last line in half.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 7]).unwrap();
        let (_, state) = SweepJournal::resume(&path).unwrap();
        assert_eq!(state.done, BTreeMap::from([(0, 1)]));
    }

    #[test]
    fn absurd_counts_in_a_journal_fail_without_panicking() {
        // A corrupt element count must surface as the documented
        // Persistence error, not a capacity-overflow panic in
        // `Vec::with_capacity` (regression).
        let dir = TempDir::new("absurd");
        let path = dir.0.join("run.journal");
        SweepJournal::create(&path, &plan()).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        for huge in [format!("vals {}", u64::MAX), "vals 30000".to_owned()] {
            fs::write(&path, text.replacen("vals 3", &huge, 1)).unwrap();
            assert!(
                matches!(
                    SweepJournal::resume(&path),
                    Err(EngineError::Persistence { .. })
                ),
                "{huge} must be a hard error"
            );
        }
    }

    #[test]
    fn live_run_collision_is_a_typed_error() {
        let dir = TempDir::new("collide");
        let path = SweepJournal::path_for(&dir.0, &SweepJournal::run_id(&plan()));
        let first = SweepJournal::create(&path, &plan()).unwrap();
        // While the first holder lives, both create and resume refuse.
        match SweepJournal::create(&path, &plan()) {
            Err(EngineError::RunInFlight { run_id, pid, .. }) => {
                assert_eq!(run_id, SweepJournal::run_id(&plan()));
                assert_eq!(pid, std::process::id());
            }
            other => panic!("expected RunInFlight, got {other:?}"),
        }
        assert!(matches!(
            SweepJournal::resume(&path),
            Err(EngineError::RunInFlight { .. })
        ));
        // The collision must not have clobbered the live journal.
        first.record(0, 1);
        drop(first);
        let (_, state) = SweepJournal::resume(&path).unwrap();
        assert_eq!(state.done, BTreeMap::from([(0, 1)]));
    }

    #[test]
    fn stale_locks_from_dead_processes_are_reclaimed() {
        let dir = TempDir::new("stale");
        let path = dir.0.join("run.journal");
        drop(SweepJournal::create(&path, &plan()).unwrap());
        // Forge a lock owned by a pid that cannot exist (beyond any
        // real pid_max), as if a holder was killed before cleanup.
        let lock_path = RunLock::path_for(&path);
        fs::write(&lock_path, "4294000000\n").unwrap();
        let (journal, _) = SweepJournal::resume(&path).expect("stale lock must be stolen");
        drop(journal);
        assert!(!lock_path.exists(), "drop must release the lock");
        // An unreadable lock is a hard error, never silently stolen.
        fs::write(&lock_path, "not-a-pid\n").unwrap();
        assert!(matches!(
            SweepJournal::resume(&path),
            Err(EngineError::Persistence { .. })
        ));
    }

    #[test]
    fn poisoned_journal_lock_recovers_and_reports_once() {
        let dir = TempDir::new("poison");
        let path = dir.0.join("run.journal");
        let journal = SweepJournal::create(&path, &plan()).unwrap();
        journal.record(0, 1);
        // Panic while holding the lock, as a panicking job would.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = journal.file.lock().unwrap();
            panic!("job panic with the journal lock held");
        }));
        assert!(journal.file.is_poisoned());
        // Later records still land...
        journal.record(1, 2);
        journal.record(2, 3);
        // ...and the poisoning surfaces as a typed error exactly once.
        assert!(matches!(
            journal.poison_error(),
            Some(EngineError::LockPoisoned {
                what: "sweep journal",
                ..
            })
        ));
        assert_eq!(journal.poison_error(), None);
        drop(journal);
        let (_, state) = SweepJournal::resume(&path).unwrap();
        assert_eq!(state.done, BTreeMap::from([(0, 1), (1, 2), (2, 3)]));
    }

    #[test]
    fn corrupt_or_missing_headers_are_hard_errors() {
        let dir = TempDir::new("corrupt");
        let path = dir.0.join("run.journal");
        assert!(matches!(
            SweepJournal::resume(&path),
            Err(EngineError::Persistence { .. })
        ));
        SweepJournal::create(&path, &plan()).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        // Structurally break a value line: a hard error, not a guess.
        fs::write(&path, text.replacen("f ", "f 0", 1)).unwrap();
        assert!(matches!(
            SweepJournal::resume(&path),
            Err(EngineError::Persistence { .. })
        ));
        // Flip an axis value (60.0 → 62.0): the header still parses,
        // but the recorded plan hash no longer matches.
        let bits_60 = mramsim_numerics::hash::key_hex(60.0f64.to_bits());
        let bits_62 = mramsim_numerics::hash::key_hex(62.0f64.to_bits());
        assert!(text.contains(&bits_60));
        fs::write(&path, text.replacen(&bits_60, &bits_62, 1)).unwrap();
        assert!(matches!(
            SweepJournal::resume(&path),
            Err(EngineError::Persistence { .. })
        ));
    }
}
