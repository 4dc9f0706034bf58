//! The Memory Dependence Prediction Table (MDPT), §4.1 of the paper.

use crate::edge::DepEdge;
use mds_harness::hash::FxHashMap;
use mds_harness::json::{Json, ToJson};
use mds_isa::Pc;
use mds_predict::{LruTable, SatCounter};
use std::collections::BTreeSet;

/// Configuration of an [`Mdpt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdptConfig {
    /// Number of prediction entries (the paper evaluates 64).
    pub capacity: usize,
    /// Width of the up/down saturating prediction counter (paper: 3 bits).
    pub counter_bits: u8,
    /// Counter threshold at or above which synchronization is predicted
    /// (paper: 3).
    pub threshold: u16,
    /// Counter value installed when an entry is first allocated on a
    /// mis-speculation. The paper's working example assumes a fresh entry
    /// immediately predicts synchronization, so the default equals the
    /// threshold.
    pub initial: u16,
}

impl Default for MdptConfig {
    fn default() -> Self {
        MdptConfig {
            capacity: 64,
            counter_bits: 3,
            threshold: 3,
            initial: 3,
        }
    }
}

impl ToJson for MdptConfig {
    fn to_json(&self) -> Json {
        Json::object()
            .field("capacity", self.capacity)
            .field("counter_bits", u64::from(self.counter_bits))
            .field("threshold", u64::from(self.threshold))
            .field("initial", u64::from(self.initial))
    }
}

/// One MDPT entry: valid flag (implicit in residency), the static edge
/// (LDPC, STPC), the dependence distance, the prediction counter, and the
/// ESYNC store-task-PC refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdptEntry {
    /// The static store→load pair this entry predicts.
    pub edge: DepEdge,
    /// Dependence distance: difference of the instance numbers of the
    /// store and load whose mis-speculation allocated the entry (§4.1).
    pub dist: u32,
    /// The up/down saturating prediction counter.
    pub counter: SatCounter,
    /// For the ESYNC predictor: the start PC of the task that issued the
    /// store (§5.5). `None` under plain SYNC.
    pub store_task_pc: Option<Pc>,
}

impl MdptEntry {
    /// Whether this entry currently predicts synchronization.
    pub fn predicts(&self, threshold: u16) -> bool {
        self.counter.is_at_least(threshold)
    }
}

#[derive(Debug, Clone, Copy)]
struct EntryData {
    dist: u32,
    counter: SatCounter,
    store_task_pc: Option<Pc>,
}

impl EntryData {
    fn entry(&self, edge: DepEdge) -> MdptEntry {
        MdptEntry {
            edge,
            dist: self.dist,
            counter: self.counter,
            store_task_pc: self.store_task_pc,
        }
    }
}

/// The Memory Dependence Prediction Table.
///
/// A fully associative, LRU-replaced table of [`MdptEntry`]s keyed by the
/// static dependence edge, with secondary indexes so a load or a store can
/// find *all* entries naming its PC in one lookup (a single static load or
/// store may participate in several dependences, §4.4.4).
///
/// # Examples
///
/// ```
/// use mds_core::{DepEdge, Mdpt, MdptConfig};
/// let mut mdpt = Mdpt::new(MdptConfig::default());
/// let edge = DepEdge { load_pc: 12, store_pc: 4 };
/// mdpt.allocate(edge, 1, None);
/// let hits = mdpt.predicting_for_load(12);
/// assert_eq!(hits.len(), 1);
/// assert_eq!(hits[0].dist, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Mdpt {
    table: LruTable<DepEdge, EntryData>,
    by_load: FxHashMap<Pc, BTreeSet<DepEdge>>,
    by_store: FxHashMap<Pc, BTreeSet<DepEdge>>,
    config: MdptConfig,
    allocations: u64,
    evictions: u64,
}

impl Mdpt {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero or the counter configuration is
    /// inconsistent (initial/threshold beyond the counter range).
    pub fn new(config: MdptConfig) -> Self {
        let max = (1u32 << config.counter_bits) - 1;
        assert!(
            config.threshold as u32 <= max,
            "threshold exceeds counter range"
        );
        assert!(
            config.initial as u32 <= max,
            "initial value exceeds counter range"
        );
        Mdpt {
            table: LruTable::new(config.capacity),
            by_load: FxHashMap::default(),
            by_store: FxHashMap::default(),
            config,
            allocations: 0,
            evictions: 0,
        }
    }

    /// The configuration this table was built with.
    pub fn config(&self) -> MdptConfig {
        self.config
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Returns `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Entries allocated over the table's lifetime.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Entries displaced by LRU replacement.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Records a mis-speculation on `edge` with the observed dependence
    /// distance: allocates a new entry (initial counter = `config.initial`)
    /// or strengthens an existing one, updating its distance and store-task
    /// PC to the latest observation.
    pub fn allocate(&mut self, edge: DepEdge, dist: u32, store_task_pc: Option<Pc>) {
        if let Some(data) = self.table.get_mut(&edge) {
            data.counter.incr();
            data.dist = dist;
            data.store_task_pc = store_task_pc;
            return;
        }
        self.allocations += 1;
        let data = EntryData {
            dist,
            counter: SatCounter::new(self.config.counter_bits, self.config.initial),
            store_task_pc,
        };
        if let Some((evicted, _)) = self.table.insert(edge, data) {
            self.evictions += 1;
            self.unindex(evicted);
        }
        self.by_load.entry(edge.load_pc).or_default().insert(edge);
        self.by_store.entry(edge.store_pc).or_default().insert(edge);
    }

    fn unindex(&mut self, edge: DepEdge) {
        if let Some(set) = self.by_load.get_mut(&edge.load_pc) {
            set.remove(&edge);
            if set.is_empty() {
                self.by_load.remove(&edge.load_pc);
            }
        }
        if let Some(set) = self.by_store.get_mut(&edge.store_pc) {
            set.remove(&edge);
            if set.is_empty() {
                self.by_store.remove(&edge.store_pc);
            }
        }
    }

    /// All entries naming `load_pc` that currently predict synchronization
    /// (counter at or above threshold). Touches LRU state.
    pub fn predicting_for_load(&mut self, load_pc: Pc) -> Vec<MdptEntry> {
        let mut out = Vec::new();
        self.matching_into(load_pc, true, &mut out);
        out
    }

    /// All entries naming `store_pc` that currently predict
    /// synchronization. Touches LRU state.
    pub fn predicting_for_store(&mut self, store_pc: Pc) -> Vec<MdptEntry> {
        let mut out = Vec::new();
        self.matching_into(store_pc, false, &mut out);
        out
    }

    /// Appends to `out` the predicting entries naming `pc` (as the load or
    /// the store), in edge order, touching the LRU state of every resident
    /// entry that names it.
    pub(crate) fn matching_into(&mut self, pc: Pc, by_load: bool, out: &mut Vec<MdptEntry>) {
        let index = if by_load {
            &self.by_load
        } else {
            &self.by_store
        };
        let Some(edges) = index.get(&pc) else {
            return;
        };
        let threshold = self.config.threshold;
        for &edge in edges {
            if let Some(entry) = self.table.get(&edge).map(|d| d.entry(edge)) {
                if entry.predicts(threshold) {
                    out.push(entry);
                }
            }
        }
    }

    /// Reads one entry without filtering by prediction.
    pub fn entry(&mut self, edge: DepEdge) -> Option<MdptEntry> {
        self.table.get(&edge).map(|d| d.entry(edge))
    }

    /// Strengthens the prediction for `edge` (dependence did occur).
    /// No-op if the entry has been evicted.
    pub fn strengthen(&mut self, edge: DepEdge) {
        if let Some(d) = self.table.get_mut(&edge) {
            d.counter.incr();
        }
    }

    /// Weakens the prediction for `edge` (synchronization was unnecessary).
    /// No-op if the entry has been evicted.
    pub fn weaken(&mut self, edge: DepEdge) {
        if let Some(d) = self.table.get_mut(&edge) {
            d.counter.decr();
        }
    }

    /// Applies the paper's training rule: strengthen when the dependence
    /// actually occurred, weaken when it did not (§4.4.1).
    pub fn train(&mut self, edge: DepEdge, had_dependence: bool) {
        if had_dependence {
            self.strengthen(edge);
        } else {
            self.weaken(edge);
        }
    }

    /// Iterates over resident entries, most recently used first.
    pub fn iter(&self) -> impl Iterator<Item = MdptEntry> + '_ {
        self.table.iter().map(|(edge, d)| d.entry(*edge))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(st: Pc, ld: Pc) -> DepEdge {
        DepEdge::new(st, ld)
    }

    #[test]
    fn fresh_allocation_predicts_immediately() {
        let mut m = Mdpt::new(MdptConfig::default());
        m.allocate(edge(4, 12), 1, None);
        assert_eq!(m.predicting_for_load(12).len(), 1);
        assert_eq!(m.predicting_for_store(4).len(), 1);
        assert_eq!(m.allocations(), 1);
    }

    #[test]
    fn weaken_below_threshold_stops_prediction() {
        let mut m = Mdpt::new(MdptConfig::default());
        let e = edge(4, 12);
        m.allocate(e, 1, None); // counter = 3 = threshold
        m.weaken(e); // 2
        assert!(m.predicting_for_load(12).is_empty());
        // The entry is still resident, just not predicting.
        assert_eq!(m.len(), 1);
        m.strengthen(e); // back to 3
        assert_eq!(m.predicting_for_load(12).len(), 1);
    }

    #[test]
    fn repeated_misspeculation_strengthens_and_updates_distance() {
        let mut m = Mdpt::new(MdptConfig::default());
        let e = edge(4, 12);
        m.allocate(e, 1, Some(100));
        m.allocate(e, 2, Some(200));
        let entry = m.entry(e).unwrap();
        assert_eq!(entry.dist, 2);
        assert_eq!(entry.store_task_pc, Some(200));
        assert_eq!(entry.counter.value(), 4);
        assert_eq!(m.allocations(), 1); // second was an update
    }

    #[test]
    fn multiple_dependences_per_load() {
        // if (cond) store1 M else store2 M; load M  (§4.4.4)
        let mut m = Mdpt::new(MdptConfig::default());
        m.allocate(edge(4, 12), 1, None);
        m.allocate(edge(8, 12), 1, None);
        let hits = m.predicting_for_load(12);
        assert_eq!(hits.len(), 2);
        let stores: Vec<Pc> = hits.iter().map(|e| e.edge.store_pc).collect();
        assert!(stores.contains(&4) && stores.contains(&8));
        // Each store sees only its own edge.
        assert_eq!(m.predicting_for_store(4).len(), 1);
    }

    #[test]
    fn eviction_cleans_indexes() {
        let mut m = Mdpt::new(MdptConfig {
            capacity: 2,
            ..Default::default()
        });
        m.allocate(edge(1, 10), 1, None);
        m.allocate(edge(2, 20), 1, None);
        m.allocate(edge(3, 30), 1, None); // evicts edge(1,10)
        assert_eq!(m.evictions(), 1);
        assert!(m.predicting_for_load(10).is_empty());
        assert!(m.predicting_for_store(1).is_empty());
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn lru_keeps_hot_edges() {
        let mut m = Mdpt::new(MdptConfig {
            capacity: 2,
            ..Default::default()
        });
        let hot = edge(1, 10);
        m.allocate(hot, 1, None);
        m.allocate(edge(2, 20), 1, None);
        let _ = m.predicting_for_load(10); // touch hot
        m.allocate(edge(3, 30), 1, None); // evicts edge(2,20)
        assert!(m.entry(hot).is_some());
        assert!(m.entry(edge(2, 20)).is_none());
    }

    #[test]
    fn counter_saturates_at_width() {
        let mut m = Mdpt::new(MdptConfig::default());
        let e = edge(4, 12);
        m.allocate(e, 1, None);
        for _ in 0..20 {
            m.strengthen(e);
        }
        assert_eq!(m.entry(e).unwrap().counter.value(), 7);
    }

    #[test]
    fn train_maps_outcomes() {
        let mut m = Mdpt::new(MdptConfig::default());
        let e = edge(4, 12);
        m.allocate(e, 1, None);
        m.train(e, false);
        assert_eq!(m.entry(e).unwrap().counter.value(), 2);
        m.train(e, true);
        assert_eq!(m.entry(e).unwrap().counter.value(), 3);
    }

    #[test]
    fn training_evicted_edge_is_noop() {
        let mut m = Mdpt::new(MdptConfig::default());
        m.train(edge(9, 9), true);
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "threshold exceeds")]
    fn inconsistent_config_panics() {
        let _ = Mdpt::new(MdptConfig {
            counter_bits: 2,
            threshold: 4,
            ..Default::default()
        });
    }

    #[test]
    fn iter_reports_entries() {
        let mut m = Mdpt::new(MdptConfig::default());
        m.allocate(edge(1, 10), 1, None);
        m.allocate(edge(2, 20), 5, None);
        let dists: Vec<u32> = m.iter().map(|e| e.dist).collect();
        assert_eq!(dists, vec![5, 1]); // MRU first
    }
}
