//! The combined MDPT+MDST structure evaluated in §5.5 of the paper.

use crate::edge::DepEdge;
use crate::mdpt::{Mdpt, MdptConfig, MdptEntry};
use crate::mdst::{LoadSync, Mdst, MdstStats, StoreSync};
use mds_harness::json::{Json, ToJson};
use mds_isa::Pc;

/// How dynamic instances of a static dependence edge are tagged in the
/// MDST (§3 of the paper).
///
/// The paper evaluates **dependence distance** tagging (instance numbers
/// plus a learned distance) and notes **data address** tagging as the
/// alternative: "one approach is to use just the address of the memory
/// location accessed by the store-load pair as a handle". Each can fail
/// where the other succeeds — the distance may change unpredictably, or
/// the address may be shared beyond the pair. Both are implemented; the
/// `ablate-tagging` experiment compares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TagScheme {
    /// Tag instances with instance numbers and synchronize the load at
    /// `store_instance + DIST` (the paper's evaluated scheme).
    #[default]
    DependenceDistance,
    /// Tag instances with the data address: a load waits on
    /// (edge, address) and the store signals (edge, address).
    DataAddress,
}

impl ToJson for TagScheme {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                TagScheme::DependenceDistance => "dependence_distance",
                TagScheme::DataAddress => "data_address",
            }
            .to_string(),
        )
    }
}

/// Configuration of a [`SyncUnit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncUnitConfig {
    /// Number of Multiscalar stages (processing units). In the combined
    /// organization each prediction entry carries one synchronization
    /// entry per stage, so the MDST capacity is `mdpt.capacity * stages`.
    pub stages: usize,
    /// MDPT geometry and counter configuration.
    pub mdpt: MdptConfig,
    /// Enable the ESYNC refinement: synchronization is enforced only when
    /// the task at distance DIST has the store-task PC recorded in the
    /// entry (§5.5).
    pub esync: bool,
    /// How dynamic edge instances are tagged.
    pub tagging: TagScheme,
}

impl Default for SyncUnitConfig {
    fn default() -> Self {
        SyncUnitConfig {
            stages: 8,
            mdpt: MdptConfig::default(),
            esync: false,
            tagging: TagScheme::DependenceDistance,
        }
    }
}

/// What a load ready to access memory must do (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadDecision {
    /// No predicting MDPT entry matched: speculate freely.
    NotPredicted,
    /// Synchronization was predicted but every matching condition variable
    /// was already set — the load proceeds without delay.
    Proceed,
    /// The load must wait to be signalled (or released when it becomes
    /// non-speculative).
    Wait,
}

/// Aggregate statistics of a [`SyncUnit`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncUnitStats {
    /// Loads that consulted the unit.
    pub loads_checked: u64,
    /// Loads for which at least one entry predicted synchronization.
    pub loads_predicted: u64,
    /// Loads told to wait.
    pub loads_waited: u64,
    /// ESYNC path filter rejections (entry matched but task PC differed).
    pub esync_filtered: u64,
    /// Mis-speculations recorded (MDPT allocations/strengthenings).
    pub misspeculations: u64,
}

/// The combined dependence prediction + synchronization unit.
///
/// This is the structure simulated in the paper's evaluation: a
/// centralized, fully associative MDPT whose entries carry per-stage MDST
/// slots, with a 3-bit up/down counter per entry (threshold 3), LRU
/// replacement, speculative allocation, and non-speculative prediction
/// updates (the timing core calls [`SyncUnit::train`] at task commit).
///
/// Instance tags use the dependence-distance scheme of §3 with instance
/// numbers approximated by task sequence numbers (the paper uses statically
/// assigned stage identifiers; both identify the dynamic task, ours without
/// the wrap-around ambiguity of a ring of stage IDs).
///
/// See the [crate documentation](crate) for a worked example.
#[derive(Debug, Clone)]
pub struct SyncUnit {
    mdpt: Mdpt,
    mdst: Mdst,
    config: SyncUnitConfig,
    stats: SyncUnitStats,
}

impl SyncUnit {
    /// Builds the unit.
    ///
    /// # Panics
    ///
    /// Panics if `stages == 0` or the MDPT configuration is inconsistent.
    pub fn new(config: SyncUnitConfig) -> Self {
        assert!(config.stages > 0, "stages must be positive");
        SyncUnit {
            mdpt: Mdpt::new(config.mdpt),
            mdst: Mdst::new(config.mdpt.capacity * config.stages),
            config,
            stats: SyncUnitStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> SyncUnitConfig {
        self.config
    }

    /// Unit-level statistics.
    pub fn stats(&self) -> SyncUnitStats {
        self.stats
    }

    /// MDST-level statistics (waits, wakes, releases, …).
    pub fn mdst_stats(&self) -> MdstStats {
        self.mdst.stats()
    }

    /// Read access to the prediction table.
    pub fn mdpt(&self) -> &Mdpt {
        &self.mdpt
    }

    /// Records a detected memory dependence mis-speculation: allocates (or
    /// strengthens) the MDPT entry for `edge` with the observed dependence
    /// distance and, for ESYNC, the PC of the task that issued the store.
    pub fn record_misspeculation(&mut self, edge: DepEdge, dist: u32, store_task_pc: Option<Pc>) {
        self.stats.misspeculations += 1;
        self.mdpt.allocate(edge, dist, store_task_pc);
    }

    /// Fills `out` with the MDPT entries that predict synchronization for
    /// a load at `load_pc` in task `load_instance`, after applying the
    /// ESYNC path filter when enabled (`out` is cleared first, so a
    /// caller can reuse one buffer for every load). This is the
    /// prediction half of [`SyncUnit::on_load_ready`] without the MDST
    /// side effects — trace-driven timing models use it to compute wake
    /// times analytically.
    pub fn predicted_entries_for_load(
        &mut self,
        load_pc: Pc,
        load_instance: u64,
        task_pc_of: Option<&dyn Fn(u64) -> Option<Pc>>,
        out: &mut Vec<MdptEntry>,
    ) {
        out.clear();
        self.mdpt.matching_into(load_pc, true, out);
        if !self.config.esync {
            return;
        }
        out.retain(|entry| {
            // Enforce only when the task at distance DIST matches the
            // recorded store-task PC.
            if let (Some(expected), Some(lookup)) = (entry.store_task_pc, task_pc_of) {
                let producer = load_instance.checked_sub(entry.dist as u64);
                let actual = producer.and_then(lookup);
                if actual != Some(expected) {
                    self.stats.esync_filtered += 1;
                    return false;
                }
            }
            true
        });
    }

    /// A load at `load_pc` in the task with sequence number
    /// `load_instance` is ready to access memory; `ldid` identifies it in
    /// the window. For ESYNC, `task_pc_of` resolves a task sequence number
    /// to its start PC (the unit checks the task at distance DIST).
    ///
    /// Returns what the load must do; on [`LoadDecision::Wait`] the load
    /// stalls until [`SyncUnit::on_store_issue`] returns its `ldid` or it
    /// is released via [`SyncUnit::release_load`].
    pub fn on_load_ready(
        &mut self,
        load_pc: Pc,
        load_instance: u64,
        ldid: u32,
        task_pc_of: Option<&dyn Fn(u64) -> Option<Pc>>,
    ) -> LoadDecision {
        self.stats.loads_checked += 1;
        let mut entries = Vec::new();
        self.predicted_entries_for_load(load_pc, load_instance, task_pc_of, &mut entries);
        if entries.is_empty() {
            return LoadDecision::NotPredicted;
        }
        let mut must_wait = false;
        for entry in entries {
            match self.mdst.sync_load(entry.edge, load_instance, ldid) {
                LoadSync::Wait => must_wait = true,
                LoadSync::Proceed | LoadSync::NoEntry => {}
            }
        }
        self.stats.loads_predicted += 1;
        if must_wait {
            self.stats.loads_waited += 1;
            LoadDecision::Wait
        } else {
            LoadDecision::Proceed
        }
    }

    /// A store at `store_pc` in task `store_instance` is issuing; `stid`
    /// identifies it in the window. Returns the LDIDs of all loads this
    /// signal wakes.
    ///
    /// Under [`TagScheme::DependenceDistance`], the target instance is
    /// `store_instance + DIST` (§4.3 action 6). Under
    /// [`TagScheme::DataAddress`], callers must pass the store's data
    /// address as `store_instance` (and loads theirs to
    /// [`SyncUnit::on_load_ready`]): the tag *is* the address, so no
    /// distance arithmetic applies.
    pub fn on_store_issue(&mut self, store_pc: Pc, store_instance: u64, stid: u32) -> Vec<u32> {
        let mut woken = Vec::new();
        for entry in self.mdpt.predicting_for_store(store_pc) {
            let target = match self.config.tagging {
                TagScheme::DependenceDistance => store_instance + entry.dist as u64,
                TagScheme::DataAddress => store_instance,
            };
            match self.mdst.sync_store(entry.edge, target, stid) {
                StoreSync::Woke(ldid) => woken.push(ldid),
                StoreSync::Recorded | StoreSync::NoEntry => {}
            }
        }
        woken
    }

    /// The deadlock-avoidance release (§4.4.2): `ldid` has become
    /// non-speculative (all prior stores executed) without being
    /// signalled. Frees its MDST entries and returns the edges whose
    /// predictions turned out to be *false dependences* this instance —
    /// the caller should [`SyncUnit::train`] them with
    /// `had_dependence = false` at commit.
    pub fn release_load(&mut self, ldid: u32) -> Vec<DepEdge> {
        self.mdst.release_load(ldid)
    }

    /// Whether `ldid` is still blocked on an empty condition variable.
    pub fn is_waiting(&self, ldid: u32) -> bool {
        self.mdst.is_waiting(ldid)
    }

    /// Non-speculative prediction update at task commit (§5.5: "updates to
    /// the prediction mechanism within an entry only occur
    /// non-speculatively when a stage commits").
    pub fn train(&mut self, edge: DepEdge, had_dependence: bool) {
        self.mdpt.train(edge, had_dependence);
    }

    /// Squash invalidation (§4.4.3): drop MDST entries whose LDID or STID
    /// satisfies the respective predicate (e.g. "belongs to a squashed
    /// task").
    pub fn invalidate_squashed(
        &mut self,
        mut ldid_squashed: impl FnMut(u32) -> bool,
        mut stid_squashed: impl FnMut(u32) -> bool,
    ) {
        self.mdst.invalidate_where(|e| {
            e.ldid.is_some_and(&mut ldid_squashed) || e.stid.is_some_and(&mut stid_squashed)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> SyncUnit {
        SyncUnit::new(SyncUnitConfig {
            stages: 4,
            ..Default::default()
        })
    }

    fn edge() -> DepEdge {
        DepEdge {
            load_pc: 7,
            store_pc: 3,
        }
    }

    #[test]
    fn unknown_load_is_not_predicted() {
        let mut u = unit();
        assert_eq!(u.on_load_ready(7, 1, 10, None), LoadDecision::NotPredicted);
        assert_eq!(u.stats().loads_checked, 1);
        assert_eq!(u.stats().loads_predicted, 0);
    }

    #[test]
    fn figure4_full_sequence_load_first() {
        let mut u = unit();
        // (b): mis-speculation ST1(task1) -> LD2(task2), distance 1.
        u.record_misspeculation(edge(), 1, None);
        // (c): LD3 (task 3) is ready before ST2; it must wait.
        assert_eq!(u.on_load_ready(7, 3, 30, None), LoadDecision::Wait);
        assert!(u.is_waiting(30));
        // (d): ST2 (task 2) issues; 2 + DIST(1) = 3 -> wakes LDID 30.
        assert_eq!(u.on_store_issue(3, 2, 20), vec![30]);
        assert!(!u.is_waiting(30));
    }

    #[test]
    fn figure4_full_sequence_store_first() {
        let mut u = unit();
        u.record_misspeculation(edge(), 1, None);
        // (e): ST2 issues first; signal recorded for instance 3.
        assert_eq!(u.on_store_issue(3, 2, 20), Vec::<u32>::new());
        // (f): LD3 arrives, finds the full flag set, proceeds immediately.
        assert_eq!(u.on_load_ready(7, 3, 30, None), LoadDecision::Proceed);
        assert_eq!(u.mdst_stats().pre_signalled, 1);
    }

    #[test]
    fn incomplete_synchronization_release_and_weaken() {
        let mut u = unit();
        u.record_misspeculation(edge(), 1, None);
        assert_eq!(u.on_load_ready(7, 3, 30, None), LoadDecision::Wait);
        // The predicted store never arrives; the load becomes head.
        let freed = u.release_load(30);
        assert_eq!(freed, vec![edge()]);
        // Commit-time training with "no dependence" weakens the counter
        // below the threshold: the prediction turns off (counter 2 < 3).
        u.train(edge(), false);
        assert_eq!(u.on_load_ready(7, 4, 31, None), LoadDecision::NotPredicted);
        // A fresh mis-speculation re-arms it.
        u.record_misspeculation(edge(), 1, None);
        assert_eq!(u.on_load_ready(7, 5, 32, None), LoadDecision::Wait);
    }

    #[test]
    fn squash_invalidation_drops_entries() {
        let mut u = unit();
        u.record_misspeculation(edge(), 1, None);
        assert_eq!(u.on_load_ready(7, 3, 30, None), LoadDecision::Wait);
        u.invalidate_squashed(|ldid| ldid == 30, |_| false);
        assert!(!u.is_waiting(30));
        assert_eq!(u.mdst_stats().invalidations, 1);
    }

    #[test]
    fn multiple_dependences_wait_for_all() {
        // §4.4.4: a load with two predicted stores waits for both.
        let mut u = unit();
        let e1 = DepEdge {
            load_pc: 7,
            store_pc: 3,
        };
        let e2 = DepEdge {
            load_pc: 7,
            store_pc: 5,
        };
        u.record_misspeculation(e1, 1, None);
        u.record_misspeculation(e2, 2, None);
        assert_eq!(u.on_load_ready(7, 5, 50, None), LoadDecision::Wait);
        // First store signals; load still waits on the second edge.
        let woken = u.on_store_issue(3, 4, 90);
        assert_eq!(woken, vec![50]);
        assert!(u.is_waiting(50), "still blocked on the second dependence");
        let woken = u.on_store_issue(5, 3, 91);
        assert_eq!(woken, vec![50]);
        assert!(!u.is_waiting(50));
    }

    #[test]
    fn esync_filters_wrong_path() {
        let mut u = SyncUnit::new(SyncUnitConfig {
            stages: 4,
            esync: true,
            ..Default::default()
        });
        // The store was issued by the task starting at PC 100.
        u.record_misspeculation(edge(), 1, Some(100));
        // Producer task (instance 2) actually starts at PC 200: filtered.
        let lookup = |_inst: u64| Some(200);
        let d = u.on_load_ready(7, 3, 30, Some(&lookup));
        assert_eq!(d, LoadDecision::NotPredicted);
        assert_eq!(u.stats().esync_filtered, 1);
        // Matching path: synchronization enforced.
        let lookup = |_inst: u64| Some(100);
        let d = u.on_load_ready(7, 3, 30, Some(&lookup));
        assert_eq!(d, LoadDecision::Wait);
    }

    #[test]
    fn esync_without_lookup_behaves_like_sync() {
        let mut u = SyncUnit::new(SyncUnitConfig {
            stages: 4,
            esync: true,
            ..Default::default()
        });
        u.record_misspeculation(edge(), 1, Some(100));
        assert_eq!(u.on_load_ready(7, 3, 30, None), LoadDecision::Wait);
    }

    #[test]
    fn store_without_entry_is_silent() {
        let mut u = unit();
        assert!(u.on_store_issue(3, 1, 20).is_empty());
    }

    #[test]
    fn reset_dynamic_keeps_predictions() {
        let mut u = unit();
        u.record_misspeculation(edge(), 1, None);
        assert_eq!(u.on_load_ready(7, 3, 30, None), LoadDecision::Wait);
        // Squashing every task clears the dynamic (MDST) state...
        u.invalidate_squashed(|_| true, |_| true);
        assert!(!u.is_waiting(30));
        // Prediction survives:
        assert_eq!(u.on_load_ready(7, 4, 31, None), LoadDecision::Wait);
    }

    #[test]
    #[should_panic(expected = "stages must be positive")]
    fn zero_stages_panics() {
        let _ = SyncUnit::new(SyncUnitConfig {
            stages: 0,
            ..Default::default()
        });
    }

    #[test]
    fn address_tagging_matches_on_the_data_address() {
        let mut u = SyncUnit::new(SyncUnitConfig {
            stages: 4,
            tagging: crate::TagScheme::DataAddress,
            ..Default::default()
        });
        u.record_misspeculation(edge(), 1, None);
        // Instances are data addresses now: the load waits on its address.
        assert_eq!(u.on_load_ready(7, 0x100, 30, None), LoadDecision::Wait);
        // A store to a *different* address does not wake it...
        assert!(u.on_store_issue(3, 0x200, 20).is_empty());
        assert!(u.is_waiting(30));
        // ...but the store to the same address does, regardless of how
        // many tasks apart the pair is.
        assert_eq!(u.on_store_issue(3, 0x100, 21), vec![30]);
        assert!(!u.is_waiting(30));
    }

    #[test]
    fn distance_tagging_is_the_default() {
        assert_eq!(
            SyncUnitConfig::default().tagging,
            crate::TagScheme::DependenceDistance
        );
    }
}
