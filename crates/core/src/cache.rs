//! The one bounded cache primitive (DESIGN.md §10, §12, §14).
//!
//! Every cache in the workspace — the serving engine's result cache, the
//! backends' shard-result cache and the cross-request coalition memo — is
//! a [`Cache`]: a bounded, thread-safe, exact least-recently-used map.
//! Each holds values that are pure functions of their keys, so whichever
//! entry eviction drops, a later miss recomputes the same bytes.
//!
//! The layout is a slab of nodes doubly linked by `u32` indices (most
//! recently used at the head) plus a `HashMap<K, u32>` index into the
//! slab, so `get` and `insert` are O(1) under one [`Mutex`]. The slab
//! grows to `capacity` nodes and then recycles the tail node in place:
//! the evicted key leaves the index before the new key enters it, so the
//! cache never holds more than `capacity` entries, even for a moment.
//! A `capacity` of `0` disables the cache: every lookup misses (and is
//! counted) and inserts are dropped.
//!
//! Hits, misses and evictions are counted under the same lock and come
//! out as one [`CacheStats`] snapshot.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The "no node" link.
const NIL: u32 = u32::MAX;

/// Counter snapshot of a [`Cache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries dropped to make room for new ones.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct Node<K, V> {
    key: K,
    value: V,
    /// Neighbour towards the most recently used end.
    prev: u32,
    /// Neighbour towards the least recently used end.
    next: u32,
}

/// The single-threaded exact-LRU map behind a [`Cache`]; reached through
/// [`Cache::lock`] to run several operations under one lock.
pub struct Lru<K, V, S = RandomState> {
    capacity: usize,
    index: HashMap<K, u32, S>,
    nodes: Vec<Node<K, V>>,
    /// Most recently used node.
    head: u32,
    /// Least recently used node: the next to be evicted.
    tail: u32,
    stats: CacheStats,
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher> Lru<K, V, S> {
    /// The value under `key`, marking it most recently used. Counts a
    /// hit or a miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let Some(&i) = self.index.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.touch(i);
        Some(&self.nodes[i as usize].value)
    }

    /// Stores `value` under `key` as the most recently used entry. A new
    /// key arriving at capacity first evicts the least recently used
    /// entry; replacing an existing key evicts nothing.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.index.get(&key) {
            self.nodes[i as usize].value = value;
            self.touch(i);
            return;
        }
        let i = if self.nodes.len() < self.capacity {
            if self.nodes.len() == self.nodes.capacity() {
                // Double, but never past `capacity` nodes.
                let grow = self.nodes.len().max(4).min(self.capacity - self.nodes.len());
                self.nodes.reserve_exact(grow);
            }
            self.nodes.push(Node { key: key.clone(), value, prev: NIL, next: NIL });
            (self.nodes.len() - 1) as u32
        } else {
            let i = self.tail;
            self.unlink(i);
            let node = &mut self.nodes[i as usize];
            self.index.remove(&node.key);
            node.key = key.clone();
            node.value = value;
            self.stats.evictions += 1;
            i
        };
        self.push_front(i);
        self.index.insert(key, i);
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats { entries: self.len(), ..self.stats }
    }

    /// Makes node `i` the most recently used.
    fn touch(&mut self, i: u32) {
        if i != self.head {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = (self.nodes[i as usize].prev, self.nodes[i as usize].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        let node = &mut self.nodes[i as usize];
        node.prev = NIL;
        node.next = old_head;
        match old_head {
            NIL => self.tail = i,
            h => self.nodes[h as usize].prev = i,
        }
        self.head = i;
    }
}

/// A bounded, thread-safe, exact-LRU cache; see the module docs.
pub struct Cache<K, V, S = RandomState> {
    lru: Mutex<Lru<K, V, S>>,
}

impl<K: Hash + Eq + Clone, V> Cache<K, V> {
    /// A cache holding at most `capacity` entries (`0` disables it).
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, RandomState::new())
    }
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher> Cache<K, V, S> {
    /// A cache holding at most `capacity` entries, indexing keys with
    /// `hasher`.
    ///
    /// # Panics
    /// Panics when `capacity` does not fit a `u32` node link.
    pub fn with_hasher(capacity: usize, hasher: S) -> Self {
        assert!(capacity < NIL as usize, "cache capacity {capacity} exceeds the u32 node index");
        let lru = Lru {
            capacity,
            index: HashMap::with_hasher(hasher),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        };
        Self { lru: Mutex::new(lru) }
    }

    /// Maximum resident entries (`0` = disabled).
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Locks the cache, for several operations under one acquisition.
    ///
    /// A poisoned lock is recovered: the map's links stay consistent
    /// unless hashing, comparing or cloning a key panics mid-update,
    /// which the workspace's keys (integers and strings) never do.
    pub fn lock(&self) -> MutexGuard<'_, Lru<K, V, S>> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A copy of the value under `key`, marking it most recently used.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.lock().get(key).cloned()
    }

    /// Stores `value` under `key`; see [`Lru::insert`].
    pub fn insert(&self, key: K, value: V) {
        self.lock().insert(key, value);
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;

    /// Sends every key to the same bucket: equality alone must keep keys
    /// apart.
    #[derive(Clone, Copy, Default)]
    struct Collide;

    struct ZeroHasher;

    impl Hasher for ZeroHasher {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, _bytes: &[u8]) {}
    }

    impl BuildHasher for Collide {
        type Hasher = ZeroHasher;
        fn build_hasher(&self) -> ZeroHasher {
            ZeroHasher
        }
    }

    #[test]
    fn evicts_the_least_recently_used_entry() {
        let cache = Cache::new(2);
        cache.insert((0u64, 1u64), "one");
        cache.insert((0, 2), "two");
        assert_eq!(cache.get(&(0, 1)), Some("one")); // refresh (0,1)
        cache.insert((0, 3), "three"); // displaces (0,2)
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get(&(0, 2)), None);
        assert_eq!(cache.get(&(0, 1)), Some("one"));
        assert_eq!(cache.get(&(0, 3)), Some("three"));
        // Replacing an existing key is not an eviction.
        cache.insert((0, 3), "three'");
        assert_eq!(cache.get(&(0, 3)), Some("three'"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions, stats.entries), (4, 1, 1, 2));
    }

    #[test]
    fn eviction_follows_exact_recency_order() {
        let cache = Cache::new(4);
        for k in 0..4u32 {
            cache.insert(k, k);
        }
        // Recency, oldest first, becomes 1, 3, 0, 2.
        for k in [1, 3, 0, 2] {
            assert_eq!(cache.get(&k), Some(k));
        }
        for (fresh, evicted) in [(10, 1), (11, 3), (12, 0), (13, 2)] {
            cache.insert(fresh, fresh);
            assert_eq!(cache.get(&evicted), None, "inserting {fresh} must evict {evicted}");
        }
        assert_eq!(cache.stats().evictions, 4);
    }

    #[test]
    fn zero_capacity_disables_the_cache_and_counts_misses() {
        let cache = Cache::new(0);
        cache.insert(1u8, 9.0);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.get(&2), None);
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions, stats.entries), (0, 2, 0, 0));
    }

    #[test]
    fn len_never_exceeds_capacity_under_churn() {
        for capacity in [1usize, 2, 3, 7, 64] {
            let cache = Cache::new(capacity);
            let mut lru = cache.lock();
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for step in 0..4_000u64 {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let key = (state >> 33) % (3 * capacity as u64 + 1);
                if step % 3 == 0 {
                    if let Some(&v) = lru.get(&key) {
                        assert_eq!(v, key * 2, "a hit must return the stored value");
                    }
                } else {
                    lru.insert(key, key * 2);
                }
                assert!(lru.len() <= capacity, "len {} > capacity {capacity}", lru.len());
            }
            let stats = lru.stats();
            assert_eq!(stats.entries, capacity);
            assert!(stats.evictions > 0);
        }
    }

    #[test]
    fn colliding_hashes_never_mix_up_keys() {
        let cache: Cache<String, usize, Collide> = Cache::with_hasher(3, Collide);
        let key = |i: usize| format!("request-{i}");
        for i in 0..3 {
            cache.insert(key(i), i);
        }
        for i in 0..3 {
            assert_eq!(cache.get(&key(i)), Some(i));
        }
        assert_eq!(cache.get(&key(7)), None, "a colliding absent key must miss");
        // Recency is now 0, 1, 2 (oldest first): inserting 3 evicts 0.
        cache.insert(key(3), 3);
        assert_eq!(cache.get(&key(0)), None);
        for i in 1..4 {
            assert_eq!(cache.get(&key(i)), Some(i));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions, stats.entries), (6, 2, 1, 3));
    }

    #[test]
    fn concurrent_soak_keeps_values_and_counters_exact() {
        const THREADS: u64 = 4;
        const OPS: u64 = 2_000;
        let cache = std::sync::Arc::new(Cache::new(16));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    for op in 0..OPS {
                        let key = (t * 7 + op * 13) % 48;
                        match cache.get(&key) {
                            // Values are pure functions of the key.
                            Some(v) => assert_eq!(v, key as f64 * 0.5),
                            None => cache.insert(key, key as f64 * 0.5),
                        }
                        assert!(cache.len() <= 16);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("cache soak thread panicked");
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, THREADS * OPS);
        assert_eq!(stats.entries, 16);
        // Every resident or evicted entry was inserted after a miss.
        assert!(stats.evictions > 0 && stats.evictions + 16 <= stats.misses, "{stats:?}");
    }
}
