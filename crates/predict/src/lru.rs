//! A fixed-capacity associative table with true LRU replacement.

use mds_harness::hash::FxHashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K, V> {
    // `None` while the slot sits on the free list.
    entry: Option<(K, V)>,
    prev: usize,
    next: usize,
}

/// A fixed-capacity key→value table with O(1) lookup and true
/// least-recently-used replacement.
///
/// This models the fully associative, LRU-managed hardware tables the paper
/// uses everywhere: the MDPT, the data dependence cache (DDC), and the
/// sequencer's task-descriptor cache. `get` counts as a use; inserting into
/// a full table evicts the least recently used entry and returns it.
///
/// # Examples
///
/// ```
/// use mds_predict::LruTable;
/// let mut t = LruTable::new(2);
/// t.insert("a", 1);
/// t.insert("b", 2);
/// t.get(&"a"); // touch "a"; "b" is now LRU
/// let evicted = t.insert("c", 3).unwrap();
/// assert_eq!(evicted, ("b", 2));
/// assert!(t.contains(&"a"));
/// ```
#[derive(Debug, Clone)]
pub struct LruTable<K, V> {
    map: FxHashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    head: usize, // most recently used
    tail: usize, // least recently used
    free: Vec<usize>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruTable<K, V> {
    /// Creates a table holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruTable capacity must be positive");
        LruTable {
            map: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
            nodes: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            capacity,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Returns `true` when `key` is present (does **not** touch LRU state).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Looks a key up and marks it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.touch(idx);
        self.nodes[idx].entry.as_ref().map(|(_, v)| v)
    }

    /// Mutable lookup; marks the entry most recently used.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        self.touch(idx);
        self.nodes[idx].entry.as_mut().map(|(_, v)| v)
    }

    /// Looks a key up **without** updating recency (for monitoring and
    /// assertions).
    pub fn peek(&self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.nodes[idx].entry.as_ref().map(|(_, v)| v)
    }

    /// Inserts or updates an entry, making it most recently used. When an
    /// insert into a full table displaces the LRU entry, that entry is
    /// returned.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            if let Some((_, v)) = self.nodes[idx].entry.as_mut() {
                *v = value;
            }
            self.touch(idx);
            return None;
        }
        let evicted = if self.map.len() == self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            self.free.push(lru);
            let old = self.nodes[lru].entry.take().expect("occupied LRU slot");
            self.map.remove(&old.0);
            Some(old)
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot].entry = Some((key.clone(), value));
                slot
            }
            None => {
                self.nodes.push(Node {
                    entry: Some((key.clone(), value)),
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Removes an entry, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        self.free.push(idx);
        self.nodes[idx].entry.take().map(|(_, v)| v)
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Iterates over entries from most to least recently used.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            table: self,
            cursor: self.head,
        }
    }

    /// Retains only entries for which the predicate holds.
    pub fn retain(&mut self, mut pred: impl FnMut(&K, &V) -> bool) {
        let doomed: Vec<K> = self
            .iter()
            .filter(|(k, v)| !pred(k, v))
            .map(|(k, _)| (*k).clone())
            .collect();
        for k in doomed {
            self.remove(&k);
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
}

/// Iterator over a [`LruTable`] from most to least recently used.
#[derive(Debug)]
pub struct Iter<'a, K, V> {
    table: &'a LruTable<K, V>,
    cursor: usize,
}

impl<'a, K: Eq + Hash + Clone, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while self.cursor != NIL {
            let node = &self.table.nodes[self.cursor];
            self.cursor = node.next;
            if let Some((k, v)) = node.entry.as_ref() {
                return Some((k, v));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_harness::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn insert_get_update() {
        let mut t = LruTable::new(4);
        assert!(t.is_empty());
        assert_eq!(t.insert(1, "a"), None);
        assert_eq!(t.get(&1), Some(&"a"));
        assert_eq!(t.insert(1, "b"), None); // update, no eviction
        assert_eq!(t.get(&1), Some(&"b"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut t = LruTable::new(2);
        t.insert(1, 10);
        t.insert(2, 20);
        t.get(&1);
        assert_eq!(t.insert(3, 30), Some((2, 20)));
        assert!(t.contains(&1));
        assert!(t.contains(&3));
        assert!(!t.contains(&2));
    }

    #[test]
    fn get_mut_touches() {
        let mut t = LruTable::new(2);
        t.insert(1, 10);
        t.insert(2, 20);
        *t.get_mut(&1).unwrap() += 1;
        assert_eq!(t.insert(3, 30), Some((2, 20)));
        assert_eq!(t.peek(&1), Some(&11));
    }

    #[test]
    fn peek_does_not_touch() {
        let mut t = LruTable::new(2);
        t.insert(1, 10);
        t.insert(2, 20);
        t.peek(&1);
        assert_eq!(t.insert(3, 30), Some((1, 10)));
    }

    #[test]
    fn remove_frees_capacity() {
        let mut t = LruTable::new(2);
        t.insert(1, 10);
        t.insert(2, 20);
        assert_eq!(t.remove(&1), Some(10));
        assert_eq!(t.remove(&1), None);
        assert_eq!(t.insert(3, 30), None); // no eviction needed
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn iter_orders_mru_first() {
        let mut t = LruTable::new(3);
        t.insert(1, ());
        t.insert(2, ());
        t.insert(3, ());
        t.get(&1);
        let keys: Vec<i32> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3, 2]);
    }

    #[test]
    fn retain_removes_matching() {
        let mut t = LruTable::new(4);
        for i in 0..4 {
            t.insert(i, i * 10);
        }
        t.retain(|k, _| k % 2 == 0);
        assert_eq!(t.len(), 2);
        assert!(t.contains(&0));
        assert!(t.contains(&2));
        assert!(!t.contains(&1));
    }

    #[test]
    fn clear_empties() {
        let mut t = LruTable::new(2);
        t.insert(1, 1);
        t.clear();
        assert!(t.is_empty());
        t.insert(2, 2);
        assert_eq!(t.get(&2), Some(&2));
    }

    #[test]
    fn reuses_freed_slots_without_growth() {
        let mut t = LruTable::new(2);
        for i in 0..100 {
            t.insert(i, i);
        }
        assert_eq!(t.len(), 2);
        assert!(t.nodes.len() <= 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: LruTable<u8, u8> = LruTable::new(0);
    }

    /// Reference model: VecDeque with MRU at the front.
    struct Model {
        order: VecDeque<(u32, u32)>,
        cap: usize,
    }

    impl Model {
        fn get(&mut self, k: u32) -> Option<u32> {
            let pos = self.order.iter().position(|(key, _)| *key == k)?;
            let e = self.order.remove(pos).unwrap();
            self.order.push_front(e);
            Some(self.order[0].1)
        }
        fn insert(&mut self, k: u32, v: u32) -> Option<(u32, u32)> {
            if let Some(pos) = self.order.iter().position(|(key, _)| *key == k) {
                self.order.remove(pos);
                self.order.push_front((k, v));
                return None;
            }
            let evicted = if self.order.len() == self.cap {
                self.order.pop_back()
            } else {
                None
            };
            self.order.push_front((k, v));
            evicted
        }
        fn remove(&mut self, k: u32) -> Option<u32> {
            let pos = self.order.iter().position(|(key, _)| *key == k)?;
            Some(self.order.remove(pos).unwrap().1)
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(u32),
        Insert(u32, u32),
        Remove(u32),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..16).prop_map(Op::Get),
            (0u32..16, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u32..16).prop_map(Op::Remove),
        ]
    }

    properties! {
        #[test]
        fn behaves_like_reference_model(
            cap in 1usize..8,
            ops in vec_of(arb_op(), 0..200),
        ) {
            let mut table = LruTable::new(cap);
            let mut model = Model { order: VecDeque::new(), cap };
            for op in ops {
                match op {
                    Op::Get(k) => {
                        prop_assert_eq!(table.get(&k).copied(), model.get(k));
                    }
                    Op::Insert(k, v) => {
                        prop_assert_eq!(table.insert(k, v), model.insert(k, v));
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(table.remove(&k), model.remove(k));
                    }
                }
                prop_assert_eq!(table.len(), model.order.len());
                prop_assert!(table.len() <= cap);
                // Full order agreement, MRU first.
                let got: Vec<u32> = table.iter().map(|(k, _)| *k).collect();
                let want: Vec<u32> = model.order.iter().map(|(k, _)| *k).collect();
                prop_assert_eq!(got, want);
            }
        }
    }
}
