//! The content-addressed result cache (in-memory tier).
//!
//! Keys are a 64-bit FNV-1a hash of `scenario id + model version +
//! parameter fingerprint` (see [`ResultCache::versioned_key`] and
//! [`crate::ParamSet::fingerprint`]); values are
//! shared [`ScenarioOutput`]s. Repeated grid points — common when
//! sweeps overlap or a report re-runs a scenario — are served without
//! recomputation. The hash lives in [`mramsim_numerics::hash`], shared
//! with the engine's on-disk tier ([`crate::store::DiskStore`], which
//! layers *under* this cache as a read-through/write-through persistent
//! store).
//!
//! The map is a [`Memo`] with a fixed capacity: once an insert takes
//! it past the bound, the least-recently-used entries go, down to 7/8
//! of the capacity (for capacities of 8 and up evictions arrive in
//! batches of `capacity/8 + 1`; below 8, one at a time). Evictions are
//! counted in [`MemoStats::evictions`] and the `cache.evictions`
//! counter, so sweep reports can show cache pressure.

use crate::ScenarioOutput;
use mramsim_numerics::memo::{Memo, MemoStats};
use mramsim_telemetry as telemetry;
use std::sync::Arc;

pub use mramsim_numerics::hash::fnv1a;
use mramsim_numerics::hash::Fnv1a;

/// A thread-safe, bounded, in-memory result cache.
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
/// assert_eq!(cache.stats().capacity, 2);
/// ```
#[derive(Debug)]
pub struct ResultCache {
    memo: Memo<u64, Arc<ScenarioOutput>>,
}

impl ResultCache {
    /// An empty cache holding at most `limit` entries; inserts beyond
    /// the limit evict the least-recently-used entries. A limit of zero
    /// stores nothing (every lookup misses).
    #[must_use]
    pub fn with_capacity(limit: usize) -> Self {
        Self {
            memo: Memo::new(limit),
        }
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

    /// The content address of one `(scenario, fingerprint)` point at
    /// the scenario's model version ([`crate::Scenario::version`]).
    /// Version 1 is exactly [`Self::key`], so every address from before
    /// versions existed stays valid; a later version enters as one more
    /// field, which re-addresses that scenario's results alone.
    #[must_use]
    pub fn versioned_key(scenario_id: &str, version: u32, fingerprint: &str) -> u64 {
        if version <= 1 {
            return Self::key(scenario_id, fingerprint);
        }
        let mut h = Fnv1a::new();
        h.field(scenario_id.as_bytes());
        h.field(format!("v{version}").as_bytes());
        h.update(fingerprint.as_bytes());
        h.finish()
    }

    /// Looks up a result, counting the hit or miss and refreshing the
    /// entry's recency.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<Arc<ScenarioOutput>> {
        let found = self.memo.get(&key);
        let counter = match found {
            Some(_) => "cache.memory_hits",
            None => "cache.memory_misses",
        };
        telemetry::counter_add(counter, 1);
        found
    }

    /// Stores a result, evicting the least-recently-used entries if the
    /// capacity bound would be exceeded. Concurrent duplicate computes
    /// are benign: the last insert wins and both callers hold
    /// equivalent outputs.
    pub fn insert(&self, key: u64, output: Arc<ScenarioOutput>) {
        let evicted = self.memo.insert(key, output);
        if evicted > 0 {
            telemetry::counter_add("cache.evictions", evicted as u64);
        }
    }

    /// Drops every entry (counters keep accumulating).
    pub fn clear(&self) {
        self.memo.clear();
    }

    /// Current counters. A non-zero `evictions` in a sweep report means
    /// the grid outgrew the in-memory tier (cache pressure): warm
    /// re-runs are only fully served when a disk tier is layered
    /// underneath.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        self.memo.stats()
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
    fn version_one_is_the_unversioned_key() {
        for (id, fingerprint) in [("fig4b", "ecd=1;"), ("array-wer", ""), ("", "p")] {
            let unversioned = ResultCache::key(id, fingerprint);
            assert_eq!(ResultCache::versioned_key(id, 1, fingerprint), unversioned);
            // The digest is FNV-1a of `id + NUL + fingerprint`, as cached
            // results have always been addressed.
            assert_eq!(
                unversioned,
                fnv1a(format!("{id}\0{fingerprint}").as_bytes())
            );
            let later: Vec<u64> = (2..5)
                .map(|v| ResultCache::versioned_key(id, v, fingerprint))
                .collect();
            assert!(!later.contains(&unversioned));
            assert!(later[0] != later[1] && later[1] != later[2]);
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = ResultCache::with_capacity(4);
        let key = ResultCache::key("s", "p");
        assert!(cache.get(key).is_none());
        cache.insert(key, Arc::new(ScenarioOutput::default()));
        assert!(cache.get(key).is_some());
        assert!(cache.get(key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.capacity, 4);
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = ResultCache::with_capacity(4);
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
        assert_eq!(stats.capacity, 2);
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
