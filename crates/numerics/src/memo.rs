//! One bounded, exact-key memo behind every in-process cache: the
//! stray-field kernel per design point (`mramsim-array`), the s-LLGS
//! ensemble per distinct window (`mramsim-dynamics`) and the scenario
//! output per parameter point (`mramsim-engine`).
//!
//! * Keys are stored whole and compared exactly; a hit never trusts a
//!   digest.
//! * A fixed capacity bounds the entries (0 stores nothing). Once an
//!   insert takes the memo past it, the least-recently-used entries go,
//!   down to `capacity − capacity/8`, in one selection pass over the
//!   recency stamps: hits stay O(1), eviction is amortised O(1) per
//!   insert, and below 8 entries the memo trims to exactly its capacity.
//! * [`Memo::get_or_build`] builds each missing key once; requests for
//!   a key that is being built wait and are served that build.
//! * [`MemoStats`] counts hits, misses and evictions. The memo emits no
//!   telemetry; callers keep their own counter names.
//!
//! # Examples
//!
//! ```
//! use mramsim_numerics::memo::Memo;
//!
//! let memo = Memo::new(2);
//! memo.insert("a", 1);
//! memo.insert("b", 2);
//! assert_eq!(memo.get(&"a"), Some(1)); // `a` is now the most recent,
//! assert_eq!(memo.insert("c", 3), 1); // so `b` is the one evicted.
//! assert_eq!(memo.get(&"b"), None);
//! assert_eq!(memo.get_or_build("d", || Ok::<_, ()>(4)), Ok(4));
//! let stats = memo.stats();
//! assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 2, 2));
//! assert_eq!((stats.entries, stats.capacity), (2, 2));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Counters and occupancy of a [`Memo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups served from the memo, including requests that waited for
    /// another caller's build.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries dropped to stay within the capacity.
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// The most entries the memo stores.
    pub capacity: usize,
}

/// Everything behind the memo's one lock.
struct Table<K, V> {
    /// Each value with the logical time of its last use.
    map: HashMap<K, (V, u64)>,
    /// Keys a [`Memo::get_or_build`] call is building right now.
    building: HashSet<K>,
    /// Advances on every use, so recency stamps are unique.
    clock: u64,
    /// The counters and the capacity; `entries` is read off `map`.
    stats: MemoStats,
}

impl<K: Eq + Hash, V: Clone> Table<K, V> {
    /// The stored value, stamped as just used.
    fn touch(&mut self, key: &K) -> Option<V> {
        self.clock += 1;
        let now = self.clock;
        self.map.get_mut(key).map(|(value, used)| {
            *used = now;
            value.clone()
        })
    }

    /// Stores `value`, then trims past the capacity; returns how many
    /// entries went.
    fn insert(&mut self, key: K, value: V) -> usize {
        let capacity = self.stats.capacity;
        if capacity == 0 {
            return 0;
        }
        self.clock += 1;
        self.map.insert(key, (value, self.clock));
        if self.map.len() <= capacity {
            return 0;
        }
        let evicted = self.map.len() - (capacity - capacity / 8);
        let mut stamps: Vec<u64> = self.map.values().map(|&(_, used)| used).collect();
        let (_, &mut cutoff, _) = stamps.select_nth_unstable(evicted - 1);
        self.map.retain(|_, &mut (_, used)| used > cutoff);
        self.stats.evictions += evicted as u64;
        evicted
    }
}

/// A thread-safe memo with exact keys, a fixed capacity,
/// least-recently-used eviction and per-key single-flight builds.
/// Values are handed out by clone, so they are `Arc`s or `Copy`.
pub struct Memo<K, V> {
    table: Mutex<Table<K, V>>,
    /// Signalled whenever a build ends: built, failed or panicked.
    build_ended: Condvar,
}

impl<K: Eq + Hash + Clone, V: Clone> std::fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Memo").field(&self.stats()).finish()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// An empty memo holding at most `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            table: Mutex::new(Table {
                map: HashMap::new(),
                building: HashSet::new(),
                clock: 0,
                stats: MemoStats {
                    capacity,
                    ..MemoStats::default()
                },
            }),
            build_ended: Condvar::new(),
        }
    }

    /// Locks the table, recovering from poisoning: builds run outside
    /// the lock, so the table is always whole, and a panicked build
    /// cannot cascade into every later request of a long-lived
    /// process.
    fn lock(&self) -> MutexGuard<'_, Table<K, V>> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The stored value for `key`, counting the hit or miss and
    /// refreshing the entry's recency.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        let mut table = self.lock();
        let found = table.touch(key);
        match found {
            Some(_) => table.stats.hits += 1,
            None => table.stats.misses += 1,
        }
        found
    }

    /// Stores `value` under `key`, replacing any value stored there,
    /// and returns how many entries were evicted to stay within the
    /// capacity.
    pub fn insert(&self, key: K, value: V) -> usize {
        self.lock().insert(key, value)
    }

    /// The stored value for `key`, or the one `build` returns, stored.
    ///
    /// While one request builds a key, the others for that key wait and
    /// are served its value, counted as hits. A build that returns
    /// `Err` or panics stores nothing, and the next request builds
    /// again.
    ///
    /// # Errors
    ///
    /// The error `build` returned, to the request that ran it.
    pub fn get_or_build<E>(&self, key: K, build: impl FnOnce() -> Result<V, E>) -> Result<V, E> {
        let mut table = self.lock();
        loop {
            if let Some(value) = table.touch(&key) {
                table.stats.hits += 1;
                return Ok(value);
            }
            if !table.building.contains(&key) {
                break;
            }
            table = self
                .build_ended
                .wait(table)
                .unwrap_or_else(PoisonError::into_inner);
        }
        table.stats.misses += 1;
        table.building.insert(key.clone());
        drop(table);
        let flight = InFlight { memo: self, key };
        let value = build()?;
        self.insert(flight.key.clone(), value.clone());
        Ok(value)
    }

    /// Drops every entry; the counters keep accumulating.
    pub fn clear(&self) {
        self.lock().map.clear();
    }

    /// Current counters and occupancy.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        let table = self.lock();
        MemoStats {
            entries: table.map.len(),
            ..table.stats
        }
    }
}

/// Clears a key's in-flight mark when its build ends, by success, error
/// or panic, and wakes the requests waiting on it.
struct InFlight<'a, K: Eq + Hash + Clone, V: Clone> {
    memo: &'a Memo<K, V>,
    key: K,
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for InFlight<'_, K, V> {
    fn drop(&mut self) {
        self.memo.lock().building.remove(&self.key);
        self.memo.build_ended.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let memo = Memo::new(2);
        memo.insert('a', 1);
        memo.insert('b', 2);
        // Touch `a` so `b` becomes the victim.
        assert_eq!(memo.get(&'a'), Some(1));
        assert_eq!(memo.insert('c', 3), 1);
        assert_eq!(memo.get(&'a'), Some(1), "recently used entry survived");
        assert_eq!(memo.get(&'b'), None, "LRU entry was evicted");
        assert_eq!(memo.get(&'c'), Some(3), "new entry present");
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.evictions, stats.capacity), (2, 1, 2));
    }

    #[test]
    fn reinserting_a_held_key_evicts_nothing() {
        let memo = Memo::new(2);
        memo.insert(1, 'x');
        memo.insert(2, 'y');
        assert_eq!(memo.insert(1, 'z'), 0);
        assert_eq!(memo.get(&1), Some('z'));
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 0));
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let memo = Memo::new(0);
        assert_eq!(memo.insert(1, 1), 0);
        assert_eq!(memo.get(&1), None);
        assert_eq!(memo.get_or_build(1, || Ok::<_, ()>(2)), Ok(2));
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.evictions, stats.misses), (0, 0, 2));
    }

    #[test]
    fn past_eight_entries_eviction_trims_an_eighth() {
        let memo = Memo::new(16);
        let evicted: Vec<usize> = (0..17).map(|k| memo.insert(k, k)).collect();
        assert_eq!(evicted[..16], [0; 16]);
        assert_eq!(evicted[16], 3);
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.evictions), (14, 3));
        // The 14 most recent are kept.
        assert!((0..3).all(|k| memo.get(&k).is_none()));
        assert!((3..17).all(|k| memo.get(&k) == Some(k)));
    }

    #[test]
    fn concurrent_requests_for_a_missing_key_share_one_build() {
        let memo = Memo::new(4);
        let builds = AtomicU64::new(0);
        let barrier = Barrier::new(8);
        let values: Vec<Arc<u64>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        memo.get_or_build("key", || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(20));
                            Ok::<_, ()>(Arc::new(7))
                        })
                        .unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0])));
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses), (7, 1));
    }

    #[test]
    fn failed_builds_are_not_stored() {
        let memo = Memo::new(4);
        assert_eq!(memo.get_or_build(1, || Err("overlap")), Err("overlap"));
        assert_eq!(memo.stats().entries, 0);
        assert_eq!(memo.get_or_build(1, || Ok::<_, &str>(10)), Ok(10));
        assert_eq!(memo.get_or_build(1, || Ok::<_, &str>(20)), Ok(10));
    }

    #[test]
    fn a_panicked_build_strands_no_waiter() {
        let memo = Arc::new(Memo::new(4));
        let gates = Arc::new((Barrier::new(2), Barrier::new(2)));
        let panicking = {
            let (memo, gates) = (Arc::clone(&memo), Arc::clone(&gates));
            std::thread::spawn(move || {
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    memo.get_or_build(1, || -> Result<u64, ()> {
                        gates.0.wait();
                        gates.1.wait();
                        panic!("build failed");
                    })
                }))
            })
        };
        gates.0.wait();
        // The key is in flight: this request parks on it until the
        // build ends.
        let waiter = {
            let memo = Arc::clone(&memo);
            std::thread::spawn(move || memo.get_or_build(1, || Ok::<_, ()>(5)))
        };
        std::thread::sleep(Duration::from_millis(20));
        gates.1.wait();
        assert!(panicking.join().unwrap().is_err(), "the build panicked");
        // A stranded waiter would park forever: fail instead of hanging.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !waiter.is_finished() {
            assert!(Instant::now() < deadline, "the waiter was stranded");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(waiter.join().unwrap(), Ok(5), "a later build served it");
        assert_eq!(memo.get(&1), Some(5));
        assert!(memo.lock().building.is_empty(), "no key stranded");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random get/insert traffic: the memo never outgrows its
        /// capacity, serves what it just stored, and counts every get.
        #[test]
        fn random_traffic_keeps_the_contract(
            capacity in 0usize..13,
            ops in prop::collection::vec((0u8..2, 0u32..21), 0..200),
        ) {
            let memo = Memo::new(capacity);
            let mut gets = 0u64;
            for &(op, key) in &ops {
                if op == 0 {
                    gets += 1;
                    let _ = memo.get(&key);
                } else {
                    memo.insert(key, key * 3);
                    let stats = memo.stats();
                    prop_assert!(stats.entries <= capacity);
                    if capacity > 0 {
                        gets += 1;
                        prop_assert_eq!(memo.get(&key), Some(key * 3));
                    }
                }
            }
            let stats = memo.stats();
            prop_assert_eq!(stats.hits + stats.misses, gets);
        }
    }
}
