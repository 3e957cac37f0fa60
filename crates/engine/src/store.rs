//! The on-disk result store: the persistent tier under the in-memory
//! [`crate::cache::ResultCache`].
//!
//! Every entry is one file named by the canonical hex form of the
//! 64-bit FNV-1a content address (`ResultCache::key`), inside a
//! schema-versioned subdirectory (`v3/`), so a serialization change —
//! or a change to what a cached result means — bumps
//! [`SCHEMA_VERSION`] and old entries are simply never looked at again
//! — no migration, no mixed reads.
//!
//! Durability properties:
//!
//! * **Atomic writes** — entries are written to a unique temp file and
//!   renamed into place, so a killed process never leaves a
//!   half-written entry under a valid name.
//! * **Corruption-tolerant reads** — every entry embeds an FNV-1a
//!   checksum of its body; a truncated, tampered, or foreign file
//!   fails closed (the entry is dropped and the result recomputed),
//!   never crashes, and never yields a wrong result silently.
//! * **Exact round-trips** — scalars are stored as bit-exact hex
//!   `f64`s and strings verbatim with byte-length prefixes, so a
//!   result served from disk is byte-identical to the freshly computed
//!   one. This is what makes resumed sweeps produce CSV output
//!   identical to an uninterrupted run.

use crate::{EngineError, ScenarioOutput};
use mramsim_core::report::Table;
use mramsim_numerics::hash::{fnv1a, key_hex, parse_key_hex};
use mramsim_telemetry as telemetry;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version tag of the on-disk entry format. Part of both the directory
/// layout (`v3/`) and every entry header; bump it whenever the
/// serialization or the meaning of cached results changes.
///
/// Version 2: the s-LLGS thermal field draws its normals from the
/// ziggurat sampler instead of Box–Muller, so every Monte-Carlo result
/// (`wer-mc`, `switch-traj`, `array-wer`, `array-wer-shard`) changed.
///
/// Version 3: `array-wer` runs one ensemble per window class on
/// `class_seed` streams instead of one per cell on `cell_seed` streams,
/// so its Monte-Carlo columns changed under unchanged cache keys.
pub const SCHEMA_VERSION: u32 = 3;

/// Counters of a [`DiskStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Entries written.
    pub writes: u64,
    /// Entries dropped because they failed the checksum or did not
    /// parse (each also counts as a miss).
    pub corrupt: u64,
    /// Writes that failed (out of space, permissions, …); the run
    /// continues, the result is just not persisted.
    pub write_errors: u64,
    /// Bytes of entry text served from disk (hits only).
    pub bytes_read: u64,
    /// Bytes of entry text successfully persisted.
    pub bytes_written: u64,
}

/// A content-addressed, schema-versioned, crash-safe on-disk result
/// store.
///
/// # Examples
///
/// ```
/// use mramsim_engine::store::DiskStore;
/// use mramsim_engine::ScenarioOutput;
///
/// let dir = std::env::temp_dir().join(format!("mramsim-doctest-store-{}", std::process::id()));
/// # std::fs::remove_dir_all(&dir).ok(); // debris from a killed previous run
/// let store = DiskStore::open(&dir)?;
/// let key = 42;
/// assert!(store.load(key).is_none());
/// store.save(key, &ScenarioOutput::default());
/// assert_eq!(store.load(key), Some(ScenarioOutput::default()));
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), mramsim_engine::EngineError>(())
/// ```
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    tmp_counter: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
    write_errors: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `dir`; entries live
    /// in the schema-versioned subdirectory `dir/v3/`
    /// (`v{SCHEMA_VERSION}`).
    ///
    /// # Errors
    ///
    /// [`EngineError::Persistence`] when the directory cannot be
    /// created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, EngineError> {
        let root = dir.as_ref().join(format!("v{SCHEMA_VERSION}"));
        fs::create_dir_all(&root).map_err(|e| EngineError::Persistence {
            path: root.display().to_string(),
            message: format!("cannot create cache directory: {e}"),
        })?;
        Ok(Self {
            root,
            tmp_counter: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        })
    }

    /// The default cache directory: `$MRAMSIM_CACHE_DIR` when set
    /// (`None` when it is `off`, which disables persistence), else
    /// `~/.cache/mramsim`, else `target/mramsim-cache` (for
    /// environments without a home directory).
    #[must_use]
    pub fn default_dir() -> Option<PathBuf> {
        match std::env::var("MRAMSIM_CACHE_DIR") {
            Ok(dir) if dir == "off" => None,
            Ok(dir) if !dir.is_empty() => Some(PathBuf::from(dir)),
            _ => Some(match std::env::var("HOME") {
                Ok(home) if !home.is_empty() => Path::new(&home).join(".cache").join("mramsim"),
                _ => PathBuf::from("target").join("mramsim-cache"),
            }),
        }
    }

    /// The schema-versioned directory entries are stored in.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.root.join(format!("{}.mse", key_hex(key)))
    }

    /// Loads the entry for `key`. Missing files are misses; corrupt
    /// files (checksum or parse failure) are dropped from disk and
    /// reported as misses, so the caller falls back to recompute.
    #[must_use]
    pub fn load(&self, key: u64) -> Option<ScenarioOutput> {
        let path = self.entry_path(key);
        let Ok(text) = fs::read_to_string(&path) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("cache.disk_misses", 1);
            return None;
        };
        match decode_entry(&text) {
            Some(output) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_read
                    .fetch_add(text.len() as u64, Ordering::Relaxed);
                telemetry::counter_add("cache.disk_hits", 1);
                telemetry::counter_add("cache.disk_bytes_read", text.len() as u64);
                Some(output)
            }
            None => {
                // Fail closed: drop the bad entry so the recomputed
                // result can take its place.
                let _ = fs::remove_file(&path);
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                telemetry::counter_add("cache.disk_corrupt", 1);
                telemetry::counter_add("cache.disk_misses", 1);
                None
            }
        }
    }

    /// Persists `output` under `key`, atomically (unique temp file +
    /// rename). Failures are counted, never fatal: a full disk costs
    /// persistence, not the computation that just finished.
    pub fn save(&self, key: u64, output: &ScenarioOutput) {
        let path = self.entry_path(key);
        let tmp = self.root.join(format!(
            "{}.tmp.{}.{}",
            key_hex(key),
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let body = encode_entry(output);
        let bytes = body.len() as u64;
        let written = fs::write(&tmp, body).and_then(|()| fs::rename(&tmp, &path));
        match written {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
                telemetry::counter_add("cache.disk_writes", 1);
                telemetry::counter_add("cache.disk_bytes_written", bytes);
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                telemetry::counter_add("cache.disk_write_errors", 1);
            }
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// Wire format: a line-oriented text encoding with byte-length-prefixed
// strings (so titles, cells, and charts may contain anything, newlines
// included) and bit-exact hex f64s. Shared with the sweep journal.
// ---------------------------------------------------------------------

/// Serializer for the wire format.
pub(crate) struct Wire(pub(crate) String);

impl Wire {
    pub(crate) fn new() -> Self {
        Self(String::new())
    }

    /// A `tag <count>` line.
    pub(crate) fn count(&mut self, tag: &str, n: usize) {
        writeln!(self.0, "{tag} {n}").expect("string write");
    }

    /// A byte-length-prefixed string block: `str <len>`, raw bytes,
    /// newline.
    pub(crate) fn string(&mut self, s: &str) {
        writeln!(self.0, "str {}", s.len()).expect("string write");
        self.0.push_str(s);
        self.0.push('\n');
    }

    /// A bit-exact `f64` line.
    pub(crate) fn f64(&mut self, x: f64) {
        writeln!(self.0, "f {}", key_hex(x.to_bits())).expect("string write");
    }
}

/// Cursor-based parser for the wire format. Every accessor returns
/// `None` on any malformation; callers treat that as corruption.
pub(crate) struct WireReader<'a> {
    data: &'a str,
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub(crate) fn new(data: &'a str) -> Self {
        Self { data, pos: 0 }
    }

    fn line(&mut self) -> Option<&'a str> {
        let rest = self.data.get(self.pos..)?;
        let end = rest.find('\n')?;
        self.pos += end + 1;
        Some(&rest[..end])
    }

    /// Parses a `tag <count>` line. The count is validated against the
    /// bytes actually remaining (every counted element occupies at
    /// least one byte), so a corrupt count fails parsing here instead
    /// of reaching a `Vec::with_capacity` that would abort or panic.
    pub(crate) fn count(&mut self, tag: &str) -> Option<usize> {
        let line = self.line()?;
        let n: usize = line.strip_prefix(tag)?.strip_prefix(' ')?.parse().ok()?;
        self.bounded(n)
    }

    /// Parses any `tag <count>` line, returning the tag too (for
    /// type-discriminated records like the journal's parameter
    /// values). The count is bounds-checked as in [`WireReader::count`].
    pub(crate) fn tagged_count(&mut self) -> Option<(&'a str, usize)> {
        let line = self.line()?;
        let (tag, n) = line.split_once(' ')?;
        Some((tag, self.bounded(n.parse().ok()?)?))
    }

    /// `n` if at most the remaining byte count, else `None`.
    fn bounded(&self, n: usize) -> Option<usize> {
        (n <= self.data.len().saturating_sub(self.pos)).then_some(n)
    }

    /// Everything not yet consumed (the journal's free-form done log).
    pub(crate) fn remainder(&self) -> &'a str {
        self.data.get(self.pos..).unwrap_or("")
    }

    /// Parses a string block written by [`Wire::string`].
    pub(crate) fn string(&mut self) -> Option<&'a str> {
        let len = self.count("str")?;
        let end = self.pos.checked_add(len)?;
        let body = self.data.get(self.pos..end)?;
        // `get` guarantees char boundaries; a corrupt length that cuts
        // a UTF-8 sequence (or runs past the end) comes back as None.
        self.pos = end;
        let rest = self.data.get(self.pos..)?;
        if !rest.starts_with('\n') {
            return None;
        }
        self.pos += 1;
        Some(body)
    }

    /// Parses a bit-exact `f64` line written by [`Wire::f64`].
    pub(crate) fn f64(&mut self) -> Option<f64> {
        let line = self.line()?;
        Some(f64::from_bits(parse_key_hex(line.strip_prefix("f ")?)?))
    }

    /// Whether every byte has been consumed (trailing garbage is
    /// corruption too).
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.data.len()
    }
}

/// Serializes one [`ScenarioOutput`] to the wire body (no header).
fn serialize_output(output: &ScenarioOutput) -> String {
    let mut w = Wire::new();
    w.count("tables", output.tables.len());
    for table in &output.tables {
        w.string(table.title());
        w.count("columns", table.columns().len());
        for column in table.columns() {
            w.string(column);
        }
        w.count("rows", table.rows().len());
        for row in table.rows() {
            for cell in row {
                w.string(cell);
            }
        }
    }
    w.count("chart", usize::from(output.chart.is_some()));
    if let Some(chart) = &output.chart {
        w.string(chart);
    }
    w.count("scalars", output.scalars.len());
    for (name, value) in &output.scalars {
        w.string(name);
        w.f64(*value);
    }
    w.0
}

/// Parses a wire body back into a [`ScenarioOutput`]; `None` means the
/// body is corrupt.
fn parse_output(body: &str) -> Option<ScenarioOutput> {
    let mut r = WireReader::new(body);
    let n_tables = r.count("tables")?;
    let mut output = ScenarioOutput::default();
    for _ in 0..n_tables {
        let title = r.string()?;
        let n_columns = r.count("columns")?;
        if n_columns == 0 {
            return None; // `Table::new` requires at least one column.
        }
        let mut columns = Vec::with_capacity(n_columns);
        for _ in 0..n_columns {
            columns.push(r.string()?);
        }
        let mut table = Table::new(title, &columns);
        let n_rows = r.count("rows")?;
        for _ in 0..n_rows {
            let mut row = Vec::with_capacity(n_columns);
            for _ in 0..n_columns {
                row.push(r.string()?);
            }
            table.push_row(&row);
        }
        output.tables.push(table);
    }
    match r.count("chart")? {
        0 => {}
        1 => output.chart = Some(r.string()?.to_owned()),
        _ => return None,
    }
    let n_scalars = r.count("scalars")?;
    for _ in 0..n_scalars {
        let name = r.string()?.to_owned();
        output.scalars.push((name, r.f64()?));
    }
    r.at_end().then_some(output)
}

/// The full entry text: header, checksum line, body.
fn encode_entry(output: &ScenarioOutput) -> String {
    let body = serialize_output(output);
    format!(
        "mramsim-store v{SCHEMA_VERSION}\nsum {}\n{body}",
        key_hex(fnv1a(body.as_bytes()))
    )
}

/// Decodes an entry file; `None` on any schema, checksum, or parse
/// failure.
fn decode_entry(text: &str) -> Option<ScenarioOutput> {
    let rest = text.strip_prefix(&format!("mramsim-store v{SCHEMA_VERSION}\n"))?;
    let (sum_line, body) = rest.split_once('\n')?;
    let sum = parse_key_hex(sum_line.strip_prefix("sum ")?)?;
    if fnv1a(body.as_bytes()) != sum {
        return None;
    }
    parse_output(body)
}

/// A unique per-test scratch directory, removed on drop. Shared by the
/// store and journal unit tests.
#[cfg(test)]
pub(crate) struct TempDir(pub(crate) PathBuf);

#[cfg(test)]
impl TempDir {
    pub(crate) fn new(label: &str) -> Self {
        use std::sync::atomic::AtomicU32;
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mramsim-engine-test-{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

#[cfg(test)]
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_output() -> ScenarioOutput {
        let mut table = Table::new("demo, with commas \"and quotes\"", &["a", "b\nnewline"]);
        table.push_row(&["1", "cell,with,commas"]);
        table.push_row(&["-0.5", "multi\nline\ncell"]);
        ScenarioOutput::from_table(table)
            .with_chart("ascii\nchart body\n".into())
            .with_scalar("psi", 0.1 + 0.2) // deliberately not 0.3
            .with_scalar("neg_zero", -0.0)
            .with_scalar("tiny", 5e-324)
    }

    #[test]
    fn output_round_trips_bit_exactly() {
        let original = rich_output();
        let decoded = decode_entry(&encode_entry(&original)).expect("round trip");
        assert_eq!(decoded, original);
        // Bit-exact scalars: -0.0 and 0.1+0.2 survive exactly.
        assert_eq!(
            decoded.scalar("psi").unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        assert_eq!(
            decoded.scalar("neg_zero").unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        // The rendered forms (what sweeps emit) match byte for byte.
        assert_eq!(decoded.to_csv(), original.to_csv());
        assert_eq!(decoded.to_markdown(), original.to_markdown());
    }

    #[test]
    fn empty_output_round_trips() {
        let empty = ScenarioOutput::default();
        assert_eq!(decode_entry(&encode_entry(&empty)), Some(empty));
    }

    #[test]
    fn store_round_trips_through_the_filesystem() {
        let dir = TempDir::new("roundtrip");
        let store = DiskStore::open(&dir.0).unwrap();
        let output = rich_output();
        assert!(store.load(7).is_none());
        store.save(7, &output);
        assert_eq!(store.load(7), Some(output));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 1));
        assert_eq!(stats.corrupt, 0);
        // One save, one hit of the same entry: the byte counters agree.
        assert!(stats.bytes_written > 0);
        assert_eq!(stats.bytes_read, stats.bytes_written);
        // A second store over the same directory sees the entry: the
        // cross-process persistence property at module scale.
        let reopened = DiskStore::open(&dir.0).unwrap();
        assert_eq!(reopened.load(7), Some(rich_output()));
    }

    #[test]
    fn corrupt_entries_fail_closed_and_are_dropped() {
        let dir = TempDir::new("corrupt");
        let store = DiskStore::open(&dir.0).unwrap();
        store.save(9, &rich_output());
        let path = store.entry_path(9);

        for vandalism in [
            "not an entry at all".to_owned(),
            // Valid header, checksum of different body.
            encode_entry(&rich_output()).replace("sum ", "sum 0"),
            // Truncation mid-body.
            encode_entry(&rich_output())[..60].to_owned(),
            // Flipped byte inside the body.
            {
                let mut text = encode_entry(&rich_output());
                let flip = text.len() - 2;
                text.replace_range(flip..=flip, "X");
                text
            },
        ] {
            fs::write(&path, &vandalism).unwrap();
            assert_eq!(store.load(9), None, "served a corrupt entry");
            assert!(!path.exists(), "corrupt entry was not dropped");
            // Re-save so the next iteration starts from a valid entry.
            store.save(9, &rich_output());
        }
        assert_eq!(store.stats().corrupt, 4);
    }

    #[test]
    fn absurd_length_fields_fail_parsing_without_panicking() {
        // Length/count fields larger than the data (or usize::MAX,
        // which would overflow arithmetic or abort in
        // `Vec::with_capacity`) must fail closed like any other
        // corruption — even when probed below the checksum layer.
        let body = serialize_output(&rich_output());
        let title_len = rich_output().tables[0].title().len();
        for (from, to) in [
            (format!("str {title_len}"), format!("str {}", usize::MAX)),
            (format!("str {title_len}"), "str 9999999".to_owned()),
            ("tables 1".to_owned(), format!("tables {}", u64::MAX)),
            ("rows 2".to_owned(), "rows 987654321".to_owned()),
            ("scalars 3".to_owned(), format!("scalars {}", usize::MAX)),
        ] {
            let tampered = body.replacen(&from, &to, 1);
            assert_ne!(tampered, body, "tamper `{from}` did not apply");
            assert_eq!(parse_output(&tampered), None, "{to} must fail closed");
        }
    }

    #[test]
    fn schema_version_is_an_invalidation_boundary() {
        let dir = TempDir::new("schema");
        let store = DiskStore::open(&dir.0).unwrap();
        store.save(1, &rich_output());
        // A future schema's directory is disjoint …
        assert!(dir.0.join(format!("v{SCHEMA_VERSION}")).exists());
        // … and an entry whose header claims another version is
        // rejected even if it lands in this directory.
        let foreign = encode_entry(&rich_output()).replacen(
            &format!("v{SCHEMA_VERSION}"),
            &format!("v{}", SCHEMA_VERSION + 1),
            1,
        );
        fs::write(store.entry_path(1), foreign).unwrap();
        assert_eq!(store.load(1), None);
    }

    #[test]
    fn save_is_atomic_no_temp_debris_on_success() {
        let dir = TempDir::new("atomic");
        let store = DiskStore::open(&dir.0).unwrap();
        for key in 0..10u64 {
            store.save(key, &rich_output());
        }
        let leftovers: Vec<_> = fs::read_dir(store.root())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x != "mse"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }
}
