//! The Memory Dependence Synchronization Table (MDST), §4.2 of the paper.

use crate::edge::DepEdge;

/// The outcome of a load consulting the MDST before issuing (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSync {
    /// A matching entry with the full/empty flag *full* existed — the store
    /// already signalled, so the load proceeds immediately (figure 4,
    /// parts (e)/(f)). The entry has been freed.
    Proceed,
    /// An entry was allocated (or joined) with the flag *empty* — the load
    /// must wait for the store's signal (figure 4, parts (c)/(d)).
    Wait,
    /// No entry could be allocated (table full); the load proceeds
    /// unsynchronized, counted as an allocation failure.
    NoEntry,
}

/// The outcome of a store signalling through the MDST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreSync {
    /// A load was waiting: the full/empty flag was set and the load
    /// identifier is returned so the core can wake it. The entry has been
    /// freed (synchronization complete).
    Woke(u32),
    /// No load was waiting yet: an entry was left behind with the flag set
    /// to *full* for the load to find.
    Recorded,
    /// No entry could be allocated (table full); the signal is dropped and
    /// counted (the load will eventually be released by the
    /// deadlock-avoidance rule).
    NoEntry,
}

/// One MDST entry: the fields of §4.2 — valid flag (implicit), the edge's
/// instruction addresses, load/store identifiers, the instance tag, and
/// the full/empty flag that acts as the condition variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdstEntry {
    /// The static dependence edge being synchronized.
    pub edge: DepEdge,
    /// Instance tag distinguishing dynamic instances of the same static
    /// edge (the load's instance number under distance tagging, §3).
    pub instance: u64,
    /// Identifier of the waiting load within the instruction window.
    pub ldid: Option<u32>,
    /// Identifier of the signalling store (needed to invalidate on control
    /// mis-speculation, §4.3).
    pub stid: Option<u32>,
    /// The condition variable: `true` once the store has signalled.
    pub full: bool,
}

/// Counters describing MDST traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MdstStats {
    /// Loads that found a pre-set (full) entry and proceeded immediately.
    pub pre_signalled: u64,
    /// Loads that allocated/joined an empty entry and waited.
    pub waits: u64,
    /// Stores that woke a waiting load.
    pub wakes: u64,
    /// Stores that recorded a signal before the load arrived.
    pub early_signals: u64,
    /// Entries freed because the waiting load became non-speculative
    /// without a signal (incomplete synchronization, §4.4.2).
    pub releases: u64,
    /// Allocation failures due to a full table.
    pub alloc_failures: u64,
    /// Entries dropped by squash invalidation (§4.4.3).
    pub invalidations: u64,
}

/// The Memory Dependence Synchronization Table: a fixed pool of condition
/// variables keyed by (edge, instance).
///
/// # Examples
///
/// Both orders of the paper's figure 2:
///
/// ```
/// use mds_core::{DepEdge, Mdst, LoadSync, StoreSync};
/// let edge = DepEdge { load_pc: 7, store_pc: 3 };
/// let mut mdst = Mdst::new(16);
///
/// // Load first: it waits; the store then wakes it.
/// assert_eq!(mdst.sync_load(edge, 5, 100), LoadSync::Wait);
/// assert_eq!(mdst.sync_store(edge, 5, 200), StoreSync::Woke(100));
///
/// // Store first: the signal is recorded; the load proceeds immediately.
/// assert_eq!(mdst.sync_store(edge, 6, 201), StoreSync::Recorded);
/// assert_eq!(mdst.sync_load(edge, 6, 101), LoadSync::Proceed);
/// assert!(mdst.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Mdst {
    entries: Vec<Option<MdstEntry>>,
    live: usize,
    stats: MdstStats,
}

impl Mdst {
    /// Creates a table with `capacity` synchronization entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MDST capacity must be positive");
        Mdst {
            entries: vec![None; capacity],
            live: 0,
            stats: MdstStats::default(),
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Traffic counters.
    pub fn stats(&self) -> MdstStats {
        self.stats
    }

    fn find(&mut self, edge: DepEdge, instance: u64) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| matches!(e, Some(e) if e.edge == edge && e.instance == instance))
    }

    fn free_slot(&mut self) -> Option<usize> {
        if let Some(idx) = self.entries.iter().position(Option::is_none) {
            return Some(idx);
        }
        // §4.4.2: "a possible solution is to free entries whose full/empty
        // flag is set to full whenever an entry is needed and no table
        // entries are not in use." Reclaim an entry whose full flag is set
        // and which has no waiting load — its synchronization would
        // complete trivially anyway — and fail the allocation if none
        // exists.
        let idx = self
            .entries
            .iter()
            .position(|e| matches!(e, Some(e) if e.full && e.ldid.is_none()))?;
        self.entries[idx] = None;
        self.live -= 1;
        Some(idx)
    }

    fn put(&mut self, entry: MdstEntry) -> bool {
        match self.free_slot() {
            Some(idx) => {
                self.entries[idx] = Some(entry);
                self.live += 1;
                true
            }
            None => {
                self.stats.alloc_failures += 1;
                false
            }
        }
    }

    fn take(&mut self, idx: usize) -> MdstEntry {
        self.live -= 1;
        self.entries[idx].take().expect("live entry")
    }

    /// A load (identified by `ldid`) predicted to synchronize on
    /// `(edge, instance)` tests the condition variable (§4.3, actions 2–4).
    pub fn sync_load(&mut self, edge: DepEdge, instance: u64, ldid: u32) -> LoadSync {
        if let Some(idx) = self.find(edge, instance) {
            let full = self.entries[idx].as_ref().expect("live entry").full;
            if full {
                // Figure 4 part (f): signal already recorded.
                self.take(idx);
                self.stats.pre_signalled += 1;
                return LoadSync::Proceed;
            }
            let e = self.entries[idx].as_mut().expect("live entry");
            e.ldid = Some(ldid);
            self.stats.waits += 1;
            return LoadSync::Wait;
        }
        let ok = self.put(MdstEntry {
            edge,
            instance,
            ldid: Some(ldid),
            stid: None,
            full: false,
        });
        if ok {
            self.stats.waits += 1;
            LoadSync::Wait
        } else {
            LoadSync::NoEntry
        }
    }

    /// A store signals `(edge, instance)` (§4.3, actions 5–8).
    pub fn sync_store(&mut self, edge: DepEdge, instance: u64, stid: u32) -> StoreSync {
        if let Some(idx) = self.find(edge, instance) {
            let has_waiter = self.entries[idx]
                .as_ref()
                .expect("live entry")
                .ldid
                .is_some();
            if has_waiter {
                let e = self.take(idx);
                self.stats.wakes += 1;
                return StoreSync::Woke(e.ldid.expect("waiter present"));
            }
            let e = self.entries[idx].as_mut().expect("live entry");
            e.full = true;
            e.stid = Some(stid);
            self.stats.early_signals += 1;
            return StoreSync::Recorded;
        }
        let ok = self.put(MdstEntry {
            edge,
            instance,
            ldid: None,
            stid: Some(stid),
            full: true,
        });
        if ok {
            self.stats.early_signals += 1;
            StoreSync::Recorded
        } else {
            StoreSync::NoEntry
        }
    }

    /// Releases every entry on which `ldid` is waiting — the
    /// deadlock-avoidance rule of §4.4.2 (a load is free to execute once
    /// all prior stores are known to have executed). Returns the edges
    /// freed so the caller can weaken the corresponding MDPT predictions.
    pub fn release_load(&mut self, ldid: u32) -> Vec<DepEdge> {
        let mut freed = Vec::new();
        for idx in 0..self.entries.len() {
            if matches!(&self.entries[idx], Some(e) if e.ldid == Some(ldid) && !e.full) {
                let e = self.take(idx);
                self.stats.releases += 1;
                freed.push(e.edge);
            }
        }
        freed
    }

    /// Whether `ldid` still waits on any empty entry.
    pub fn is_waiting(&self, ldid: u32) -> bool {
        self.entries
            .iter()
            .any(|e| matches!(e, Some(e) if e.ldid == Some(ldid) && !e.full))
    }

    /// Drops entries for which `doomed` returns `true` — squash
    /// invalidation by LDID/STID (§4.4.3).
    pub fn invalidate_where(&mut self, mut doomed: impl FnMut(&MdstEntry) -> bool) {
        for slot in &mut self.entries {
            if matches!(slot, Some(e) if doomed(e)) {
                *slot = None;
                self.live -= 1;
                self.stats.invalidations += 1;
            }
        }
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        for slot in &mut self.entries {
            *slot = None;
        }
        self.live = 0;
    }

    /// Iterates over live entries (slot order).
    pub fn iter(&self) -> impl Iterator<Item = &MdstEntry> + '_ {
        self.entries.iter().filter_map(Option::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge() -> DepEdge {
        DepEdge {
            load_pc: 7,
            store_pc: 3,
        }
    }

    #[test]
    fn figure2_load_first_then_store_wakes() {
        let mut m = Mdst::new(4);
        assert_eq!(m.sync_load(edge(), 1, 10), LoadSync::Wait);
        assert!(m.is_waiting(10));
        assert_eq!(m.sync_store(edge(), 1, 20), StoreSync::Woke(10));
        assert!(!m.is_waiting(10));
        assert!(m.is_empty());
        assert_eq!(m.stats().waits, 1);
        assert_eq!(m.stats().wakes, 1);
    }

    #[test]
    fn figure2_store_first_then_load_proceeds() {
        let mut m = Mdst::new(4);
        assert_eq!(m.sync_store(edge(), 1, 20), StoreSync::Recorded);
        assert_eq!(m.len(), 1);
        assert_eq!(m.sync_load(edge(), 1, 10), LoadSync::Proceed);
        assert!(m.is_empty());
        assert_eq!(m.stats().pre_signalled, 1);
        assert_eq!(m.stats().early_signals, 1);
    }

    #[test]
    fn instances_are_independent() {
        let mut m = Mdst::new(4);
        assert_eq!(m.sync_load(edge(), 1, 10), LoadSync::Wait);
        assert_eq!(m.sync_load(edge(), 2, 11), LoadSync::Wait);
        // The store for instance 2 wakes only load 11.
        assert_eq!(m.sync_store(edge(), 2, 20), StoreSync::Woke(11));
        assert!(m.is_waiting(10));
        assert!(!m.is_waiting(11));
    }

    #[test]
    fn different_edges_do_not_alias() {
        let mut m = Mdst::new(4);
        let other = DepEdge {
            load_pc: 7,
            store_pc: 9,
        }; // same load, other store
        m.sync_load(edge(), 1, 10);
        assert_eq!(m.sync_store(other, 1, 20), StoreSync::Recorded);
        assert!(m.is_waiting(10));
    }

    #[test]
    fn release_frees_and_reports_edges() {
        let mut m = Mdst::new(4);
        let e2 = DepEdge {
            load_pc: 7,
            store_pc: 9,
        };
        m.sync_load(edge(), 1, 10);
        m.sync_load(e2, 1, 10); // same load waits on two dependences
        let freed = m.release_load(10);
        assert_eq!(freed.len(), 2);
        assert!(freed.contains(&edge()) && freed.contains(&e2));
        assert!(m.is_empty());
        assert_eq!(m.stats().releases, 2);
    }

    #[test]
    fn release_ignores_full_entries() {
        let mut m = Mdst::new(4);
        m.sync_store(edge(), 1, 20); // full, no waiter
        assert!(m.release_load(10).is_empty());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn table_full_fails_allocation_for_loads() {
        let mut m = Mdst::new(1);
        assert_eq!(m.sync_load(edge(), 1, 10), LoadSync::Wait);
        let e2 = DepEdge {
            load_pc: 8,
            store_pc: 3,
        };
        assert_eq!(m.sync_load(e2, 1, 11), LoadSync::NoEntry);
        assert_eq!(m.stats().alloc_failures, 1);
    }

    #[test]
    fn full_unwaited_entries_are_reclaimed_under_pressure() {
        // §4.4.2: a store signal with no load may be displaced when an
        // entry is needed.
        let mut m = Mdst::new(1);
        assert_eq!(m.sync_store(edge(), 1, 20), StoreSync::Recorded);
        let e2 = DepEdge {
            load_pc: 8,
            store_pc: 3,
        };
        assert_eq!(m.sync_load(e2, 1, 11), LoadSync::Wait); // reclaimed the slot
        assert_eq!(m.len(), 1);
        assert!(m.is_waiting(11));
    }

    #[test]
    fn waiting_entries_are_not_reclaimed() {
        let mut m = Mdst::new(1);
        m.sync_load(edge(), 1, 10);
        let e2 = DepEdge {
            load_pc: 8,
            store_pc: 3,
        };
        assert_eq!(m.sync_store(e2, 1, 21), StoreSync::NoEntry);
        assert!(m.is_waiting(10)); // untouched
    }

    #[test]
    fn squash_invalidation_by_ldid() {
        let mut m = Mdst::new(4);
        m.sync_load(edge(), 1, 10);
        m.sync_load(edge(), 2, 11);
        m.invalidate_where(|e| e.ldid == Some(11));
        assert!(m.is_waiting(10));
        assert!(!m.is_waiting(11));
        assert_eq!(m.stats().invalidations, 1);
    }

    #[test]
    fn squash_invalidation_by_stid() {
        let mut m = Mdst::new(4);
        m.sync_store(edge(), 1, 30);
        m.invalidate_where(|e| e.stid == Some(30));
        assert!(m.is_empty());
    }

    #[test]
    fn double_signal_keeps_entry_full() {
        let mut m = Mdst::new(4);
        assert_eq!(m.sync_store(edge(), 1, 20), StoreSync::Recorded);
        assert_eq!(m.sync_store(edge(), 1, 21), StoreSync::Recorded);
        assert_eq!(m.len(), 1);
        assert_eq!(m.sync_load(edge(), 1, 10), LoadSync::Proceed);
    }

    #[test]
    fn clear_and_iter() {
        let mut m = Mdst::new(4);
        m.sync_load(edge(), 1, 10);
        m.sync_store(edge(), 9, 20);
        assert_eq!(m.iter().count(), 2);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Mdst::new(0);
    }
}
