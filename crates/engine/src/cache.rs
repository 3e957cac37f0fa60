//! The content-addressed result cache (in-memory tier).
//!
//! Keys are a 64-bit FNV-1a hash of `scenario id + parameter
//! fingerprint` (see [`crate::ParamSet::fingerprint`]); values are
//! shared [`ScenarioOutput`]s. Repeated grid points — common when
//! sweeps overlap or a report re-runs a scenario — are served without
//! recomputation. The hash itself lives in
//! [`mramsim_numerics::hash`], shared with the array crate's
//! stray-field kernel cache and the engine's on-disk tier
//! ([`crate::store::DiskStore`], which layers *under* this cache as a
//! read-through/write-through persistent store).
//!
//! The map is bounded: [`ResultCache::with_capacity`] caps the entry
//! count and inserts beyond the cap evict the least-recently-used
//! entry, so an unbounded sweep no longer grows the map without limit.
//! Evictions are counted in [`CacheStats::evictions`] so sweep reports
//! can show cache pressure.

use crate::ScenarioOutput;
use mramsim_telemetry as telemetry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

pub use mramsim_numerics::hash::fnv1a;
use mramsim_numerics::hash::Fnv1a;

/// Hit/miss/eviction counters of a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Entries evicted to stay within the capacity bound. A non-zero
    /// value in a sweep report means the grid outgrew the in-memory
    /// tier (cache pressure) — warm re-runs will only be fully served
    /// when a disk tier is layered underneath.
    pub evictions: u64,
    /// The capacity bound (`None` = unbounded).
    pub capacity: Option<usize>,
}

/// One stored entry plus its recency stamp.
struct Entry {
    output: Arc<ScenarioOutput>,
    /// Logical clock of the last hit (or the insert); the eviction
    /// victim is the entry with the smallest stamp.
    last_used: u64,
}

/// The map and its logical clock, guarded together.
struct Inner {
    map: HashMap<u64, Entry>,
    tick: u64,
}

/// A thread-safe, optionally bounded, in-memory result cache.
///
/// # Examples
///
/// ```
/// use mramsim_engine::cache::ResultCache;
/// use mramsim_engine::ScenarioOutput;
/// use std::sync::Arc;
///
/// let cache = ResultCache::with_capacity(2);
/// let key = ResultCache::key("fig4b", "ecd=n…;pitch=n…;");
/// assert!(cache.get(key).is_none());
/// cache.insert(key, Arc::new(ScenarioOutput::default()));
/// assert!(cache.get(key).is_some());
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().capacity, Some(2));
/// ```
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ResultCache")
            .field("entries", &stats.entries)
            .field("capacity", &self.capacity)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ResultCache {
    /// An empty, unbounded cache.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// An empty cache holding at most `limit` entries; inserts beyond
    /// the limit evict the least-recently-used entry. A limit of zero
    /// stores nothing (every lookup misses).
    #[must_use]
    pub fn with_capacity(limit: usize) -> Self {
        let mut cache = Self::new();
        cache.capacity = Some(limit);
        cache
    }

    /// The content address of one `(scenario, fingerprint)` point.
    #[must_use]
    pub fn key(scenario_id: &str, fingerprint: &str) -> u64 {
        // Streamed with a field separator so ("ab", "c") and ("a", "bc")
        // cannot alias; digests are identical to hashing the
        // `id + NUL + fingerprint` byte string in one shot.
        let mut h = Fnv1a::new();
        h.field(scenario_id.as_bytes());
        h.update(fingerprint.as_bytes());
        h.finish()
    }

    /// Locks the map, recovering from poisoning: a job that panicked
    /// mid-insert leaves the map structurally sound (`HashMap::insert`
    /// is not observable half-done from outside the lock), so later
    /// lookups keep working instead of panic-cascading across every
    /// request of a long-lived server.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a result, counting the hit or miss and refreshing the
    /// entry's recency.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<Arc<ScenarioOutput>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.map.get_mut(&key).map(|entry| {
            entry.last_used = tick;
            Arc::clone(&entry.output)
        });
        drop(inner);
        match &found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                telemetry::counter_add("cache.memory_hits", 1);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                telemetry::counter_add("cache.memory_misses", 1);
            }
        }
        found
    }

    /// Stores a result, evicting the least-recently-used entries if the
    /// capacity bound would be exceeded. Concurrent duplicate computes
    /// are benign: the last insert wins and both callers hold
    /// equivalent outputs.
    pub fn insert(&self, key: u64, output: Arc<ScenarioOutput>) {
        if self.capacity == Some(0) {
            return;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key,
            Entry {
                output,
                last_used: tick,
            },
        );
        if let Some(limit) = self.capacity {
            while inner.map.len() > limit {
                // O(n) victim scan: bounded by the capacity knob and
                // dwarfed by the seconds-scale jobs the cache fronts.
                let victim = inner
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                    .expect("len > limit >= 0 means non-empty");
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                telemetry::counter_add("cache.evictions", 1);
            }
        }
    }

    /// Drops every entry (counters keep accumulating).
    pub fn clear(&self) {
        self.lock().map.clear();
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.lock().map.len(),
            evictions: self.evictions.load(Ordering::Relaxed),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_points_get_distinct_keys() {
        let a = ResultCache::key("fig4b", "ecd=1;");
        let b = ResultCache::key("fig4b", "ecd=2;");
        let c = ResultCache::key("fig4a", "ecd=1;");
        assert_ne!(a, b);
        assert_ne!(a, c);
        // The separator prevents ("ab", "c") colliding with ("a", "bc").
        assert_ne!(ResultCache::key("ab", "c"), ResultCache::key("a", "bc"));
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = ResultCache::new();
        let key = ResultCache::key("s", "p");
        assert!(cache.get(key).is_none());
        cache.insert(key, Arc::new(ScenarioOutput::default()));
        assert!(cache.get(key).is_some());
        assert!(cache.get(key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.capacity, None);
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = ResultCache::new();
        let key = ResultCache::key("s", "p");
        cache.insert(key, Arc::new(ScenarioOutput::default()));
        let _ = cache.get(key);
        cache.clear();
        assert!(cache.get(key).is_none());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let cache = ResultCache::with_capacity(2);
        let (a, b, c) = (1u64, 2u64, 3u64);
        cache.insert(a, Arc::new(ScenarioOutput::default()));
        cache.insert(b, Arc::new(ScenarioOutput::default()));
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.get(a).is_some());
        cache.insert(c, Arc::new(ScenarioOutput::default()));
        assert!(cache.get(a).is_some(), "recently used entry survived");
        assert!(cache.get(b).is_none(), "LRU entry was evicted");
        assert!(cache.get(c).is_some(), "new entry present");
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.capacity, Some(2));
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache = ResultCache::with_capacity(2);
        cache.insert(1, Arc::new(ScenarioOutput::default()));
        cache.insert(2, Arc::new(ScenarioOutput::default()));
        cache.insert(1, Arc::new(ScenarioOutput::default()));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let cache = ResultCache::with_capacity(0);
        cache.insert(1, Arc::new(ScenarioOutput::default()));
        assert!(cache.get(1).is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
