//! The canonical-request result cache: normalized descriptor → response
//! body, LRU within a byte budget.
//!
//! Keys are canonical request strings (see
//! [`ExperimentRequest::cache_key`](crate::service::ExperimentRequest::cache_key),
//! and [`GridRequest::cache_key`](mds_bench::grid::GridRequest::cache_key)
//! for the gateway's merged grid documents), so syntactically different
//! JSON bodies asking for the same document share one entry. A warm hit returns the exact bytes of the original
//! response — no re-simulation, no re-serialization — which is what makes
//! repeat queries byte-identical and nearly free.
//!
//! Recency is an index-based doubly-linked list over a slab of nodes
//! (same shape as `mds_predict::LruTable`), so `get` and `put` are O(1)
//! regardless of how many entries are resident — the earlier `Vec` order
//! list made every warm hit an O(n) scan. The key map deliberately stays
//! on `std`'s SipHash `HashMap`: cache keys come from client-controlled
//! request bodies, where a seedless hash would invite collision flooding.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The byte budget of both tiers' result caches: a backend's result
/// cache and the gateway's merged-grid cache.
pub const DEFAULT_BUDGET_BYTES: usize = 16 * 1024 * 1024;

const NIL: usize = usize::MAX;

struct Node {
    // `None` while the slot sits on the free list.
    entry: Option<(String, Arc<str>)>,
    prev: usize,
    next: usize,
}

struct Lru {
    map: HashMap<String, usize>,
    nodes: Vec<Node>,
    head: usize, // most recently used
    tail: usize, // least recently used
    free: Vec<usize>,
    bytes: usize,
}

impl Lru {
    fn new() -> Lru {
        Lru {
            map: HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            bytes: 0,
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Unlinks `idx`, frees its slot, and returns the stored body.
    fn evict(&mut self, idx: usize) -> Arc<str> {
        self.unlink(idx);
        self.free.push(idx);
        let (key, body) = self.nodes[idx].entry.take().expect("occupied LRU slot");
        self.map.remove(&key);
        self.bytes -= body.len();
        body
    }

    fn insert_front(&mut self, key: &str, body: Arc<str>) {
        self.bytes += body.len();
        let idx = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot].entry = Some((key.to_string(), body));
                slot
            }
            None => {
                self.nodes.push(Node {
                    entry: Some((key.to_string(), body)),
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key.to_string(), idx);
        self.push_front(idx);
    }
}

/// A byte-budgeted LRU cache of serialized responses.
pub struct ResultCache {
    inner: Mutex<Lru>,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache evicting least-recently-used entries once the resident
    /// bodies exceed `budget_bytes`.
    pub fn new(budget_bytes: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Lru::new()),
            budget: budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The cached body for `key`, refreshing its recency. Counts a hit or
    /// a miss.
    pub fn get(&self, key: &str) -> Option<Arc<str>> {
        let mut lru = lock(&self.inner);
        match lru.map.get(key).copied() {
            Some(idx) => {
                lru.touch(idx);
                self.hits.fetch_add(1, Ordering::Relaxed);
                lru.nodes[idx].entry.as_ref().map(|(_, body)| body.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, then evicts LRU entries until the
    /// byte budget holds. A body larger than the whole budget is not
    /// cached at all.
    pub fn put(&self, key: &str, body: Arc<str>) {
        if body.len() > self.budget {
            return;
        }
        let mut lru = lock(&self.inner);
        if let Some(idx) = lru.map.get(key).copied() {
            // Refresh: replacing an entry is not an eviction.
            let _ = lru.evict(idx);
        }
        lru.insert_front(key, body);
        while lru.bytes > self.budget {
            let victim = lru.tail;
            let _ = lru.evict(victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay within the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Bytes of response bodies currently resident.
    pub fn resident_bytes(&self) -> usize {
        lock(&self.inner).bytes
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every resident entry, most- to least-recently used, without
    /// touching recency or the hit/miss counters. This is the warm-state
    /// export surface (`GET /v1/cache`): MRU-first order means a receiver
    /// with a smaller budget keeps the hottest keys.
    pub fn entries(&self) -> Vec<(String, Arc<str>)> {
        let lru = lock(&self.inner);
        let mut out = Vec::with_capacity(lru.map.len());
        let mut idx = lru.head;
        while idx != NIL {
            let (key, body) = lru.nodes[idx].entry.as_ref().expect("linked LRU slot");
            out.push((key.clone(), body.clone()));
            idx = lru.nodes[idx].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_harness::prelude::*;

    fn body(text: &str) -> Arc<str> {
        Arc::from(text)
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let cache = ResultCache::new(1024);
        assert!(cache.get("a").is_none());
        cache.put("a", body("xyz"));
        assert_eq!(cache.get("a").as_deref(), Some("xyz"));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.resident_bytes(), 3);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = ResultCache::new(10);
        cache.put("a", body("aaaa")); // 4 bytes
        cache.put("b", body("bbbb")); // 8 bytes
        let _ = cache.get("a"); // refresh a: b is now coldest
        cache.put("c", body("cccc")); // 12 bytes -> evict b
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none());
        assert!(cache.get("c").is_some());
        assert!(cache.resident_bytes() <= 10);
    }

    #[test]
    fn oversized_bodies_are_not_cached() {
        let cache = ResultCache::new(4);
        cache.put("huge", body("too big to fit"));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let cache = ResultCache::new(100);
        cache.put("k", body("first"));
        cache.put("k", body("second!"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_bytes(), 7);
        assert_eq!(cache.get("k").as_deref(), Some("second!"));
    }

    #[test]
    fn slots_are_reused_across_evictions() {
        let cache = ResultCache::new(8);
        for i in 0..100 {
            cache.put(&format!("k{i}"), body("12345678"));
        }
        let lru = lock(&cache.inner);
        assert!(lru.nodes.len() <= 2, "slab must not grow unboundedly");
    }

    #[test]
    fn entries_walks_mru_first_without_touching_state() {
        let cache = ResultCache::new(1024);
        cache.put("a", body("1"));
        cache.put("b", body("2"));
        cache.put("c", body("3"));
        cache.get("a");
        let (hits, misses) = (cache.hits(), cache.misses());
        let keys: Vec<String> = cache.entries().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "c", "b"]);
        assert_eq!((cache.hits(), cache.misses()), (hits, misses));
    }

    /// Reference model: a `Vec` ordered least- to most-recently used, the
    /// shape (and the O(n) cost) of the original implementation.
    struct Model {
        order: Vec<(String, Arc<str>)>,
        bytes: usize,
        budget: usize,
        evictions: u64,
    }

    impl Model {
        fn get(&mut self, key: &str) -> Option<Arc<str>> {
            let pos = self.order.iter().position(|(k, _)| k == key)?;
            let entry = self.order.remove(pos);
            let found = entry.1.clone();
            self.order.push(entry);
            Some(found)
        }

        fn put(&mut self, key: &str, val: Arc<str>) {
            if val.len() > self.budget {
                return;
            }
            if let Some(pos) = self.order.iter().position(|(k, _)| k == key) {
                self.bytes -= self.order.remove(pos).1.len();
            }
            self.bytes += val.len();
            self.order.push((key.to_string(), val));
            while self.bytes > self.budget {
                self.bytes -= self.order.remove(0).1.len();
                self.evictions += 1;
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(u8),
        Put(u8, usize),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..12).prop_map(Op::Get),
            (0u8..12, 0usize..24).prop_map(|(k, n)| Op::Put(k, n)),
        ]
    }

    properties! {
        #[test]
        fn behaves_like_reference_model(
            budget in 1usize..40,
            ops in vec_of(arb_op(), 0..200),
        ) {
            let cache = ResultCache::new(budget);
            let mut model = Model {
                order: Vec::new(),
                bytes: 0,
                budget,
                evictions: 0,
            };
            for op in ops {
                match op {
                    Op::Get(k) => {
                        let key = format!("k{k}");
                        prop_assert_eq!(cache.get(&key), model.get(&key));
                    }
                    Op::Put(k, n) => {
                        let key = format!("k{k}");
                        let val: Arc<str> = Arc::from("x".repeat(n));
                        cache.put(&key, val.clone());
                        model.put(&key, val);
                    }
                }
                prop_assert_eq!(cache.len(), model.order.len());
                prop_assert_eq!(cache.resident_bytes(), model.bytes);
                prop_assert!(cache.resident_bytes() <= budget);
                prop_assert_eq!(cache.evictions(), model.evictions);
            }
        }
    }
}
