//! The Multiscalar replay engine: branch-light replay of a committed
//! trace over its [`ReplayPlan`].
//!
//! # How a replay works
//!
//! The paper's figures replay one committed trace under six speculation
//! policies per grid cell. Everything that is a pure function of the
//! trace — operands, task ranges, functional-unit classes, store→load
//! producers — is resolved once, at capture, into the plan's dense
//! arrays, so an attempt is a sequential scan with array indexing.
//!
//! A task executes as one or more *attempts*. An attempt schedules the
//! task's instructions on its processing unit from a start cycle, against
//! the timing records of the older tasks in the window and the shared
//! memory system; when it detects a memory dependence violation the task
//! is squashed and re-run from scratch (squash & replay). The attempt
//! state lives in a `PScratch` reused across attempts and tasks; reusing
//! it is observationally identical to fresh allocation.
//!
//! Every configuration is one independent [`run_planned`]. Sharing a
//! policy-independent replay prefix across policies was measured to save
//! nothing: every workload has an in-window store→load pair within its
//! first few tasks, so the policies diverge almost at once.
//!
//! # What a replay does not redo
//!
//! - **The sequencer.** Next-task prediction and task-descriptor hits
//!   depend only on the task start PCs and the sequencer configuration
//!   (`path_depth`, `descriptor_cache`). The first replay of a trace under
//!   a sequencer configuration resolves them for every task and memoizes
//!   them in the plan ([`ReplayPlan::sequencer`]); every other cell of the
//!   trace, whatever its policy or stage count, reads one flag byte per
//!   task.
//! - **Cross-task register resolution.** The engine keeps a register
//!   frontier: for each register, the youngest in-window task that wrote
//!   it and the time it did. A committing task becomes the writer of the
//!   registers in its write mask; when the oldest task leaves the window,
//!   the registers it was still the writer of have none left. An attempt
//!   seeds its register availability from the frontier, and the task's
//!   own writes overwrite it, so no attempt walks the window.
//!
//! # What checks it
//!
//! - `tests/oracle.rs` checks every load and store a replay reports
//!   (through [`run_planned_with`]) against the paper's issue rule for
//!   its policy, with producers from a brute-force scan of the records.
//! - `tests/planned_equivalence.rs` pins exact result digests on
//!   adversarial traces, recorded while an independently written engine
//!   agreed with this one.
//! - `ci/pinned/` pins the paper's result documents byte for byte.

use crate::config::MsConfig;
use crate::result::MsResult;
use mds_core::{Ddc, DepEdge, MdptEntry, Policy, SyncUnit, SyncUnitConfig, TagScheme};
use mds_emu::plan::{
    ReplayPlan, SequencerOutcome, DESCRIPTOR_HIT, FU_BRANCH, FU_COMPLEX, FU_FP, F_CONTROL, F_MEM,
    F_STORE, MISPREDICTED, NONE, NO_REG,
};
use mds_emu::{EmuError, Trace};
use mds_harness::hash::FxHashSet;
use mds_isa::{Opcode, Pc, Program};
use mds_mem::{BankedCache, Bus, Cache};
use mds_predict::{LruTable, PathHistory, PathPredictor};
use std::collections::VecDeque;
use std::sync::Arc;

/// Dense architectural register file size (see `RegRef::dense_index`).
const REGS: usize = 64;

/// What a replay reports about every attempt, load and store, for tests
/// that check the engine from outside (`tests/oracle.rs`). Every method
/// does nothing by default; [`run_planned`] passes [`NoObserver`], so the
/// calls compile away.
#[doc(hidden)]
pub trait ReplayObserver {
    /// An attempt of task `task` starts at cycle `t0`.
    #[inline(always)]
    fn attempt(&mut self, _task: usize, _t0: u64) {}

    /// The store with global ordinal `store` (the plan's numbering) had
    /// its address at `addr_ready` and its data in the cache at
    /// `data_ready`.
    #[inline(always)]
    fn store(&mut self, _store: usize, _addr_ready: u64, _data_ready: u64) {}

    /// The load with global ordinal `load` issued to memory at cycle
    /// `issue`. `sync` holds the MDPT predictions it synchronized on
    /// (SYNC/ESYNC only; empty when none matched).
    #[inline(always)]
    fn load(&mut self, _load: usize, _issue: u64, _sync: &[MdptEntry]) {}

    /// The attempt just reported is squashed: its earliest violation was
    /// detected at cycle `detect`.
    #[inline(always)]
    fn squash(&mut self, _detect: u64) {}
}

/// The observer production replays use: it observes nothing.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserver;

impl ReplayObserver for NoObserver {}

/// A detected cross-task memory dependence violation.
#[derive(Debug, Clone, Copy)]
struct Violation {
    edge: DepEdge,
    producer_task: u64,
    producer_task_pc: Pc,
    /// Cycle at which the older store executed (violation detection time).
    detect: u64,
    /// Whether the violated load had a (wrong) synchronization prediction.
    predicted: bool,
}

/// Per-load prediction/synchronization record used for training and the
/// table 8 breakdown.
#[derive(Debug, Clone)]
struct LoadEvent {
    /// `(edge, signal_found, caused_wait)` per predicted dependence.
    edges: Vec<(DepEdge, bool, bool)>,
    /// Whether any prediction matched this load.
    predicted: bool,
    /// For predicted loads: the load had to wait for a signal. For
    /// unpredicted loads: a violation occurred.
    actual_dependence: bool,
}

/// Mutable processor-wide state an attempt executes against.
struct Shared<'a> {
    config: &'a MsConfig,
    dcache: &'a mut BankedCache,
    bus: &'a mut Bus,
    icache: &'a mut Cache,
    unit: Option<&'a mut SyncUnit>,
}

/// A "K issues per cycle" resource (fully pipelined units: occupancy is
/// one cycle). Claims may arrive in any order relative to simulated time —
/// an out-of-order core issues whatever is ready — so this counts usage
/// per cycle instead of keeping a monotonic busy-until clock.
///
/// The ledger is a dense vector indexed by `cycle - base`: every claim in
/// an attempt happens at or after the attempt's start cycle, so the
/// offset stays small. Slots are epoch-tagged rather than zeroed: `reset`
/// bumps the epoch in O(1), and a slot whose tag is stale counts as
/// empty, so an attempt starts with no clearing.
///
/// `claim` runs twice per simulated instruction. It is `#[inline]`, so at
/// each call site the common case — the slot at `ready` is in the ledger
/// and free — is a load, a compare, and a store with no call. The two
/// rare cases live out of line behind `#[cold]`: a claim before the base
/// (`rebase`) and a claim past the ledger's end (`claim_past_end`, which
/// grows the ledger in chunks).
#[derive(Debug, Default)]
struct Ports {
    width: u32,
    base: u64,
    epoch: u32,
    slots: Vec<PortSlot>,
}

/// One cycle of a [`Ports`] ledger: claims made in it, valid only while
/// `epoch` is the ledger's live epoch.
#[derive(Debug, Clone, Copy, Default)]
struct PortSlot {
    epoch: u32,
    used: u32,
}

impl Ports {
    fn reset(&mut self, width: u32, t0: u64) {
        self.width = width.max(1);
        self.base = t0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped (after 2^32 attempts): stale tags could alias
            // the new epoch, so hard-clear once and restart from 1.
            self.slots.fill(PortSlot::default());
            self.epoch = 1;
        }
    }

    /// Claims the earliest cycle at or after `ready` with a free slot.
    #[inline]
    fn claim(&mut self, ready: u64) -> u64 {
        if ready < self.base {
            self.rebase(ready);
        }
        let mut idx = (ready - self.base) as usize;
        loop {
            let Some(slot) = self.slots.get_mut(idx) else {
                return self.claim_past_end(idx);
            };
            if slot.epoch != self.epoch {
                *slot = PortSlot {
                    epoch: self.epoch,
                    used: 1,
                };
                return self.base + idx as u64;
            }
            if slot.used < self.width {
                slot.used += 1;
                return self.base + idx as u64;
            }
            idx += 1;
        }
    }

    /// Moves the base down to `ready`. Claims before the base cannot happen
    /// in an attempt (readiness is bounded below by the start cycle), but
    /// the ledger stays correct if one does.
    #[cold]
    #[inline(never)]
    fn rebase(&mut self, ready: u64) {
        let shift = (self.base - ready) as usize;
        // Tag 0 is never the live epoch (reset skips it), so these slots
        // read as empty.
        self.slots
            .splice(0..0, std::iter::repeat_n(PortSlot::default(), shift));
        self.base = ready;
    }

    /// Claims slot `idx`, which lies past the ledger's end and so is free.
    /// Grows in chunks so the resize amortizes away.
    #[cold]
    #[inline(never)]
    fn claim_past_end(&mut self, idx: usize) -> u64 {
        self.slots.resize(idx + 64, PortSlot::default());
        self.slots[idx] = PortSlot {
            epoch: self.epoch,
            used: 1,
        };
        self.base + idx as u64
    }
}

/// The finalized timing state of a window task.
///
/// Everything that depends only on the trace lives in the [`ReplayPlan`];
/// the record only carries what depends on timing: per-store completion times (in task store order) and the store
/// address-ready bound, plus the registers the task wrote (their final
/// write times live in the [`Frontier`]). Task identity, stage, and start
/// PC are recovered from the record's window position.
#[derive(Debug, Clone)]
struct PRecord {
    /// Bit `r` set when the task wrote dense register `r`.
    written: u64,
    /// Completion time per store, indexed by within-task store ordinal.
    store_complete: Vec<u64>,
    max_store_addr_ready: u64,
}

/// Sentinel for "no fetch block yet". Real blocks are `(pc * 4) & !63`
/// with a 32-bit `pc`, far below `u64::MAX`.
const NO_BLOCK: u64 = u64::MAX;

/// Sentinel task index: "no in-window writer".
const NO_TASK: usize = usize::MAX;

/// The cross-task register frontier: for each dense register, the
/// youngest in-window task that wrote it and the final time it did.
///
/// The window holds at most `stages - 1` tasks older than the consumer,
/// so a producer `j` is `k - j < stages` tasks behind consumer `k`, and
/// that difference is exactly the number of ring hops between their
/// stages.
#[derive(Debug)]
struct Frontier {
    time: [u64; REGS],
    task: [usize; REGS],
}

impl Default for Frontier {
    fn default() -> Frontier {
        Frontier {
            time: [0; REGS],
            task: [NO_TASK; REGS],
        }
    }
}

impl Frontier {
    /// Task `k` committed: it is now the youngest writer of every
    /// register in `written`, with final write times from `avail`.
    fn commit(&mut self, k: usize, written: u64, avail: &[u64; REGS]) {
        let mut bits = written;
        while bits != 0 {
            let r = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.time[r] = avail[r];
            self.task[r] = k;
        }
    }

    /// Task `j`, the oldest in the window, left it: the registers it was
    /// still the youngest writer of have no in-window writer left.
    fn evict(&mut self, j: usize, written: u64) {
        let mut bits = written;
        while bits != 0 {
            let r = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if self.task[r] == j {
                self.task[r] = NO_TASK;
            }
        }
    }

    /// Fills `avail` with the time each register's value reaches task
    /// `k`: its youngest in-window write plus one ring hop per task
    /// between them, or 0 when no task in the window wrote it.
    #[inline]
    fn seed(&self, k: usize, ring_latency: u64, avail: &mut [u64; REGS]) {
        for ((slot, &time), &task) in avail.iter_mut().zip(&self.time).zip(&self.task) {
            *slot = if task == NO_TASK {
                0
            } else {
                time + (k - task) as u64 * ring_latency
            };
        }
    }
}

/// Reusable attempt-local state: port ledgers, the retire ring and
/// pooled vectors, kept across attempts and tasks.
#[derive(Debug)]
struct PScratch {
    issue: Ports,
    simple: Ports,
    complex: Ports,
    fp: Ports,
    branch: Ports,
    mem: Ports,
    retire: RetireRing,
    synced_edges: FxHashSet<DepEdge>,
    /// The predicting MDPT entries of the current load (SYNC/ESYNC).
    entries: Vec<MdptEntry>,
    violations: Vec<Violation>,
    /// Register availability in the current attempt: seeded from the
    /// [`Frontier`], then overwritten by the task's own writes. After the
    /// committed attempt it holds the task's final write times.
    avail: [u64; REGS],
    /// Pool backing `PRecord::store_complete`.
    store_vecs: Vec<Vec<u64>>,
    /// Pool backing `PAttempt::load_events`.
    event_vecs: Vec<Vec<LoadEvent>>,
    /// Pool backing `LoadEvent::edges` of predicted SYNC/ESYNC loads.
    edge_vecs: Vec<Vec<(DepEdge, bool, bool)>>,
}

impl Default for PScratch {
    fn default() -> PScratch {
        PScratch {
            issue: Ports::default(),
            simple: Ports::default(),
            complex: Ports::default(),
            fp: Ports::default(),
            branch: Ports::default(),
            mem: Ports::default(),
            retire: RetireRing::default(),
            synced_edges: FxHashSet::default(),
            entries: Vec::new(),
            violations: Vec::new(),
            avail: [0; REGS],
            store_vecs: Vec::new(),
            event_vecs: Vec::new(),
            edge_vecs: Vec::new(),
        }
    }
}

/// Sliding instruction-window occupancy: a fixed-capacity ring of retire
/// times. Replaces a `VecDeque` on the hottest per-record path — no
/// growth checks, no branchy modulo.
#[derive(Debug, Default)]
struct RetireRing {
    buf: Vec<u64>,
    cap: usize,
    head: usize,
    len: usize,
}

impl RetireRing {
    fn reset(&mut self, cap: usize) {
        if self.buf.len() < cap {
            self.buf.resize(cap, 0);
        }
        self.cap = cap;
        self.head = 0;
        self.len = 0;
    }

    /// At dispatch: when the window is full, frees the oldest slot and
    /// returns its retire time (the dispatch lower bound).
    #[inline]
    fn free_oldest_if_full(&mut self) -> Option<u64> {
        if self.len >= self.cap {
            let freed = self.buf[self.head];
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.len -= 1;
            Some(freed)
        } else {
            None
        }
    }

    #[inline]
    fn push(&mut self, complete: u64) {
        let mut tail = self.head + self.len;
        if tail >= self.cap {
            tail -= self.cap;
        }
        self.buf[tail] = complete;
        self.len += 1;
    }
}

impl PScratch {
    fn take_store_vec(&mut self) -> Vec<u64> {
        self.store_vecs.pop().unwrap_or_default()
    }

    fn put_store_vec(&mut self, mut v: Vec<u64>) {
        v.clear();
        self.store_vecs.push(v);
    }

    fn take_event_vec(&mut self) -> Vec<LoadEvent> {
        self.event_vecs.pop().unwrap_or_default()
    }

    /// Returns an event vector and every edge vector in it to the pools.
    fn put_event_vec(&mut self, mut v: Vec<LoadEvent>) {
        for event in v.drain(..) {
            let mut edges = event.edges;
            if edges.capacity() != 0 {
                edges.clear();
                self.edge_vecs.push(edges);
            }
        }
        self.event_vecs.push(v);
    }
}

/// The result of one execution attempt. Register write times stay behind
/// in [`PScratch::avail`].
struct PAttempt {
    /// Bit `r` set when the attempt wrote dense register `r`.
    written: u64,
    max_completion: u64,
    last_branch_completion: u64,
    store_complete: Vec<u64>,
    max_store_addr_ready: u64,
    violation: Option<Violation>,
    load_events: Vec<LoadEvent>,
    synchronized_loads: u64,
    false_dep_releases: u64,
}

/// One timing attempt of task `k` starting at cycle `t0`, scheduled over
/// the plan's arrays against the window's records and the shared memory
/// system. The outcome is a pure function of those inputs, so a squashed
/// task simply runs another attempt.
///
/// Intra-task memory dependences are never speculated; inter-task ones
/// follow the configured [`Policy`]. The attempt reports the earliest
/// violation it detected, if any, and leaves squashing to the caller.
#[allow(clippy::too_many_arguments)]
fn planned_attempt<O: ReplayObserver>(
    plan: &ReplayPlan,
    k: usize,
    t0: u64,
    window: &VecDeque<PRecord>,
    frontier: &Frontier,
    shared: &mut Shared<'_>,
    scratch: &mut PScratch,
    lat: &[u64],
    observer: &mut O,
) -> PAttempt {
    let config = shared.config;
    let win_base = k - window.len();

    scratch.issue.reset(config.issue_width, t0);
    scratch.simple.reset(config.simple_int_units, t0);
    scratch.complex.reset(config.complex_int_units, t0);
    scratch.fp.reset(config.fp_units, t0);
    scratch.branch.reset(config.branch_units, t0);
    scratch.mem.reset(config.mem_units, t0);
    scratch.retire.reset(config.window);
    scratch.synced_edges.clear();
    scratch.violations.clear();
    frontier.seed(k, config.ring_latency, &mut scratch.avail);
    let mut store_complete = scratch.take_store_vec();
    let mut load_events = scratch.take_event_vec();
    let PScratch {
        issue: issue_ports,
        simple: simple_ports,
        complex: complex_ports,
        fp: fp_ports,
        branch: branch_ports,
        mem: mem_ports,
        retire,
        synced_edges,
        entries,
        violations,
        edge_vecs,
        avail,
        ..
    } = scratch;
    let mut written = 0u64;

    // Only this attempt touches its stage's I-cache, so `cur_block` is
    // also the block of that cache's previous access.
    let mut fetch_clock = t0;
    let mut cur_block: u64 = NO_BLOCK;
    let mut in_group: u32 = 0;

    let mut intra_addr_ready: u64 = 0;
    let store_base = plan.task_store_start[k] as usize;
    let mut max_store_addr_ready: u64 = 0;

    let window_addr_ready = window
        .iter()
        .map(|r| r.max_store_addr_ready)
        .max()
        .unwrap_or(0);

    let mut max_completion = t0;
    let mut last_branch_completion = t0;
    let mut synchronized_loads = 0u64;
    let mut false_dep_releases = 0u64;

    // Hoist the task's slice of every per-record, per-load and per-store
    // array once. Loads and stores are numbered by counting them along
    // the task, and each record's static facts come from `code[pc]`.
    let code = &plan.code[..];
    let pc_a = &plan.pc[plan.task_range(k)];
    let load_range = plan.task_load_range(k);
    let load_addr_a = &plan.load_addr[load_range.clone()];
    let load_intra_a = &plan.load_intra[load_range.clone()];
    let load_inter_a = &plan.load_inter[load_range];
    let store_addr_a = &plan.store_addr[plan.task_store_range(k)];
    let load_base = plan.task_load_start[k] as usize;
    let mut nl = 0usize;

    for &pc in pc_a {
        let d = &code[pc as usize];
        let flags = d.flags;

        // ---- Fetch through the per-unit I-cache ------------------------
        let block = ((pc as u64) * 4) & !63;
        if cur_block != block {
            if cur_block != NO_BLOCK {
                fetch_clock += 1;
            }
            if !shared.icache.access(block, false) {
                fetch_clock = shared.bus.request(fetch_clock, 16);
            }
            cur_block = block;
            in_group = 0;
        } else if in_group >= config.fetch_width {
            // A new fetch group in the block just fetched: a certain hit.
            fetch_clock += 1;
            shared.icache.repeat_hit();
            in_group = 0;
        }
        in_group += 1;
        let mut dispatch = fetch_clock;

        // ---- Instruction window occupancy ------------------------------
        if let Some(freed) = retire.free_oldest_if_full() {
            dispatch = dispatch.max(freed);
        }

        // ---- Operand readiness (intra-task dataflow + ring) ------------
        // A register no window task wrote is architecturally available
        // (its writer committed before this task started): `avail` is 0.
        let mut ready = dispatch;
        let mut base_ready = dispatch; // address operand only (for stores)
        let [s1, s2] = d.src;
        if s1 != NO_REG {
            ready = ready.max(avail[s1 as usize]);
            base_ready = base_ready.max(avail[s1 as usize]);
        }
        if s2 != NO_REG {
            ready = ready.max(avail[s2 as usize]);
        }

        // ---- Schedule on the functional units --------------------------
        let complete = if flags & F_MEM != 0 {
            if flags & F_STORE != 0 {
                let addr = store_addr_a[store_complete.len()];
                // The address is known once the base register is ready.
                intra_addr_ready = intra_addr_ready.max(base_ready);
                max_store_addr_ready = max_store_addr_ready.max(base_ready);
                let start = mem_ports.claim(issue_ports.claim(ready));
                let complete = shared.dcache.access(start, addr, true, shared.bus).done_at;
                observer.store(store_base + store_complete.len(), base_ready, complete);
                store_complete.push(complete);
                complete
            } else {
                // ---- Load: intra-task disambiguation, never speculated --
                // Wait for every earlier same-task store address, and
                // forward from the youngest overlapping earlier store.
                let (addr, intra, inter) = (load_addr_a[nl], load_intra_a[nl], load_inter_a[nl]);
                nl += 1;
                let mut ready_mem = ready.max(intra_addr_ready);
                if intra != NONE {
                    ready_mem = ready_mem.max(store_complete[intra as usize - store_base]);
                }

                // Pre-resolved inter-task producer, if still in window:
                // `(task index, store completion, store pc)`.
                let producer: Option<(usize, u64, Pc)> = if inter != NONE {
                    let pt = plan.store_task[inter as usize] as usize;
                    if pt >= win_base {
                        let rec = &window[pt - win_base];
                        let local = (inter - plan.task_store_start[pt]) as usize;
                        Some((
                            pt,
                            rec.store_complete[local],
                            plan.pc[plan.store_rec[inter as usize] as usize],
                        ))
                    } else {
                        None
                    }
                } else {
                    None
                };

                let ready_before_sync = ready_mem;
                let mut event: Option<LoadEvent> = None;
                let mut may_violate = false;

                match config.policy {
                    Policy::Never => {
                        ready_mem = ready_mem.max(window_addr_ready);
                        if let Some((_, c, _)) = producer {
                            ready_mem = ready_mem.max(c);
                        }
                    }
                    Policy::Wait => {
                        if let Some((_, c, _)) = producer {
                            ready_mem = ready_mem.max(window_addr_ready).max(c);
                        }
                    }
                    Policy::PSync => {
                        if let Some((_, c, _)) = producer {
                            ready_mem = ready_mem.max(c);
                        }
                    }
                    Policy::Always => {
                        may_violate = true;
                    }
                    Policy::Sync | Policy::Esync => {
                        let lookup = move |seq: u64| {
                            (seq >= win_base as u64 && seq < k as u64)
                                .then(|| plan.task_start_pc[seq as usize])
                        };
                        let unit = shared.unit.as_mut().expect("sync policy has a unit");
                        unit.predicted_entries_for_load(pc, k as u64, Some(&lookup), entries);
                        // Combined-structure slot limit: one sync entry per
                        // edge per stage; later instances in the same task
                        // go unsynchronized.
                        entries.retain(|e| synced_edges.insert(e.edge));
                        if entries.is_empty() {
                            may_violate = true;
                        } else {
                            let mut edges = edge_vecs.pop().unwrap_or_default();
                            let mut wait_until = ready_mem;
                            let mut any_missing = false;
                            for e in entries.iter() {
                                // The signalling store. Under distance
                                // tagging: the store with this edge's PC in
                                // the task at distance DIST. Under address
                                // tagging: the load's producer, if it has
                                // this edge's PC.
                                let producer_seq = (k as u64).checked_sub(e.dist as u64);
                                let signal = match config.tagging {
                                    TagScheme::DependenceDistance => producer_seq.and_then(|ps| {
                                        let ps = ps as usize;
                                        if ps < win_base || ps >= k {
                                            return None;
                                        }
                                        let rec = &window[ps - win_base];
                                        let s0 = plan.task_store_start[ps] as usize;
                                        let s1 = plan.task_store_start[ps + 1] as usize;
                                        let mut best: Option<u64> = None;
                                        for s in s0..s1 {
                                            if plan.pc[plan.store_rec[s] as usize]
                                                == e.edge.store_pc
                                            {
                                                let c = rec.store_complete[s - s0];
                                                best = Some(best.map_or(c, |b| b.max(c)));
                                            }
                                        }
                                        best
                                    }),
                                    TagScheme::DataAddress => producer
                                        .filter(|&(_, _, pc)| pc == e.edge.store_pc)
                                        .map(|(_, c, _)| c),
                                };
                                // Commit-time training strengthens only
                                // correct synchronizations: the signalling
                                // store was this load's actual producer.
                                // Waiting on a store that merely shares the
                                // PC is a false dependence and must weaken
                                // the prediction, or one hot store PC would
                                // serialize every load that ever conflicted
                                // with it. Whether the wait mattered this
                                // instance is ignored on purpose: timing
                                // jitter must not unlearn a real dependence.
                                let is_producer = match config.tagging {
                                    TagScheme::DependenceDistance => {
                                        producer.is_some_and(|(pt, _, pc)| {
                                            pc == e.edge.store_pc && Some(pt as u64) == producer_seq
                                        })
                                    }
                                    TagScheme::DataAddress => signal.is_some(),
                                };
                                match signal {
                                    Some(t) => {
                                        let wake = t + config.signal_latency;
                                        edges.push((e.edge, true, is_producer));
                                        wait_until = wait_until.max(wake);
                                    }
                                    None => {
                                        any_missing = true;
                                        edges.push((e.edge, false, false));
                                    }
                                }
                            }
                            if any_missing {
                                // Incomplete synchronization (§4.4.2): the
                                // load is released once every older store's
                                // address is known, the condition that frees
                                // loads under NEVER/WAIT.
                                wait_until = wait_until.max(window_addr_ready);
                                false_dep_releases += 1;
                            }
                            if wait_until > ready_before_sync {
                                synchronized_loads += 1;
                            }
                            event = Some(LoadEvent {
                                edges,
                                predicted: true,
                                actual_dependence: wait_until > ready_before_sync,
                            });
                            ready_mem = wait_until;
                            // A dependence on a store the predictor did not
                            // name can still violate.
                            may_violate = true;
                        }
                    }
                }

                let start = mem_ports.claim(issue_ports.claim(ready_mem));
                let complete = shared.dcache.access(start, addr, false, shared.bus).done_at;
                let sync = if config.policy.uses_predictor() {
                    &entries[..]
                } else {
                    &[]
                };
                observer.load(load_base + nl - 1, start, sync);

                // The producer's data arriving after the load read memory
                // is a violation, found when the store executes.
                if may_violate {
                    if let Some((pt, pcomplete, ppc)) = producer {
                        if pcomplete > start {
                            violations.push(Violation {
                                edge: DepEdge {
                                    load_pc: pc,
                                    store_pc: ppc,
                                },
                                producer_task: pt as u64,
                                producer_task_pc: plan.task_start_pc[pt],
                                detect: pcomplete,
                                predicted: event.as_ref().is_some_and(|e| e.predicted),
                            });
                            if let Some(ev) = &mut event {
                                ev.actual_dependence = true;
                            } else if config.policy.uses_predictor() {
                                event = Some(LoadEvent {
                                    edges: Vec::new(),
                                    predicted: false,
                                    actual_dependence: true,
                                });
                            }
                        }
                    }
                }
                if event.is_none() && config.policy.uses_predictor() {
                    event = Some(LoadEvent {
                        edges: Vec::new(),
                        predicted: false,
                        actual_dependence: false,
                    });
                }
                if let Some(e) = event {
                    load_events.push(e);
                }
                complete
            }
        } else {
            let latency = lat[d.op as usize];
            let class_ports = match d.fu {
                FU_COMPLEX => &mut *complex_ports,
                FU_FP => &mut *fp_ports,
                FU_BRANCH => &mut *branch_ports,
                _ => &mut *simple_ports,
            };
            let start = class_ports.claim(issue_ports.claim(ready));
            start + latency
        };

        if flags & F_CONTROL != 0 {
            last_branch_completion = last_branch_completion.max(complete);
        }
        let dst = d.dst;
        if dst != NO_REG {
            avail[dst as usize] = complete;
            written |= 1 << dst;
        }
        retire.push(complete);
        max_completion = max_completion.max(complete);
    }

    let violation = violations.iter().copied().min_by_key(|v| v.detect);
    PAttempt {
        written,
        max_completion,
        last_branch_completion,
        store_complete,
        max_store_addr_ready,
        violation,
        load_events,
        synchronized_loads,
        false_dep_releases,
    }
}

/// The simulator state of one replay: the memory system, the per-stage
/// I-caches, the MDPT/MDST unit, the window of older tasks' records, and a
/// pre-expanded opcode→latency table.
struct PSim {
    config: MsConfig,
    lat: Vec<u64>,
    dcache: BankedCache,
    bus: Bus,
    icaches: Vec<Cache>,
    unit: Option<SyncUnit>,
    sequencer: Arc<SequencerOutcome>,
    window: VecDeque<PRecord>,
    frontier: Frontier,
    scratch: PScratch,
    stage_free: Vec<u64>,
    prev_assign: u64,
    prev_commit: u64,
    prev_last_branch: u64,
    ddcs: Vec<(usize, Ddc)>,
    result: MsResult,
}

fn sync_unit_for(config: &MsConfig) -> Option<SyncUnit> {
    config.policy.uses_predictor().then(|| {
        SyncUnit::new(SyncUnitConfig {
            stages: config.stages,
            mdpt: config.mdpt,
            esync: config.policy == Policy::Esync,
            tagging: config.tagging,
        })
    })
}

/// Entries of the sequencer's next-task prediction table.
const PREDICTOR_ENTRIES: usize = 4096;

/// Walks the sequencer over a trace's task start PCs: for each task, the
/// next-task prediction made from its predecessor and whether its
/// descriptor was cached. `PSim` replays these decisions from the memo.
fn resolve_sequencer(
    start_pcs: &[Pc],
    path_depth: usize,
    descriptor_cache: usize,
) -> SequencerOutcome {
    let mut predictor = PathPredictor::new(PREDICTOR_ENTRIES, path_depth);
    let mut history = PathHistory::new(path_depth);
    let mut descriptors: LruTable<Pc, ()> = LruTable::new(descriptor_cache);
    let mut outcome = SequencerOutcome::default();
    let mut prev_pc = None;
    for &start_pc in start_pcs {
        let mut flags = 0;
        if let Some(prev_pc) = prev_pc {
            outcome.control_predictions += 1;
            if predictor.predict(prev_pc, history.hash()) != Some(start_pc) {
                outcome.control_mispredicts += 1;
                flags |= MISPREDICTED;
            }
            predictor.update(prev_pc, history.hash(), start_pc);
        }
        history.push(start_pc);
        if descriptors.get(&start_pc).is_some() {
            flags |= DESCRIPTOR_HIT;
        }
        descriptors.insert(start_pc, ());
        outcome.task_flags.push(flags);
        prev_pc = Some(start_pc);
    }
    outcome
}

impl PSim {
    fn new(config: MsConfig, plan: &ReplayPlan) -> PSim {
        let mut lat = vec![0u64; 256];
        for &op in Opcode::ALL {
            lat[op as usize] = config.latencies.of(op);
        }
        PSim {
            lat,
            dcache: BankedCache::new(config.dcache),
            bus: Bus::paper_default(),
            icaches: (0..config.stages)
                .map(|_| Cache::new(config.icache))
                .collect(),
            unit: sync_unit_for(&config),
            sequencer: plan.sequencer(config.path_depth, config.descriptor_cache, |pcs| {
                resolve_sequencer(pcs, config.path_depth, config.descriptor_cache)
            }),
            window: VecDeque::with_capacity(config.stages),
            frontier: Frontier::default(),
            scratch: PScratch::default(),
            stage_free: vec![0; config.stages],
            prev_assign: 0,
            prev_commit: 0,
            prev_last_branch: 0,
            ddcs: config.ddc_sizes.iter().map(|&s| (s, Ddc::new(s))).collect(),
            result: MsResult::default(),
            config,
        }
    }

    /// Sequences, executes (squashing and re-running on violations) and
    /// commits task `k`.
    fn on_task<O: ReplayObserver>(&mut self, plan: &ReplayPlan, k: usize, observer: &mut O) {
        let stage = k % self.config.stages;

        // --- Task start time (sequencer decisions from the memo) ---------
        let flags = self.sequencer.task_flags[k];
        let mut t0 = self.stage_free[stage].max(self.prev_assign + 1);
        if flags & MISPREDICTED != 0 {
            // The wrong task was fetched; the right one starts only after
            // the previous task's last branch resolves, plus the penalty.
            t0 = t0.max(self.prev_last_branch + self.config.mispredict_penalty);
        }
        if flags & DESCRIPTOR_HIT == 0 {
            t0 += self.config.descriptor_miss_penalty;
        }

        // --- Execute, squashing and replaying on violations --------------
        let mut violated_edges: Vec<DepEdge> = Vec::new();
        let outcome = loop {
            let mut shared = Shared {
                config: &self.config,
                dcache: &mut self.dcache,
                bus: &mut self.bus,
                icache: &mut self.icaches[stage],
                unit: self.unit.as_mut(),
            };
            observer.attempt(k, t0);
            let outcome = planned_attempt(
                plan,
                k,
                t0,
                &self.window,
                &self.frontier,
                &mut shared,
                &mut self.scratch,
                &self.lat,
                observer,
            );
            let Some(v) = outcome.violation else {
                break outcome;
            };
            observer.squash(v.detect);
            self.scratch.put_store_vec(outcome.store_complete);
            self.scratch.put_event_vec(outcome.load_events);
            violated_edges.push(v.edge);
            self.result.misspeculations += 1;
            for (_, ddc) in &mut self.ddcs {
                ddc.observe(v.edge);
            }
            if let Some(unit) = &mut self.unit {
                let dist = (k as u64 - v.producer_task).max(1) as u32;
                unit.record_misspeculation(v.edge, dist, Some(v.producer_task_pc));
                // The squashed load's prediction is counted once, as the
                // paper does for loads issued from squashed tasks.
                self.result.breakdown.record(v.predicted, true);
            }
            t0 = v.detect + self.config.squash_penalty;
        };

        // --- Commit (in order) -------------------------------------------
        let commit = outcome.max_completion.max(self.prev_commit + 1);
        self.prev_commit = commit;
        self.stage_free[stage] = commit + 1;
        self.prev_assign = t0;
        self.prev_last_branch = outcome.last_branch_completion;

        // --- Non-speculative prediction updates at commit ----------------
        if let Some(unit) = &mut self.unit {
            for ev in &outcome.load_events {
                self.result
                    .breakdown
                    .record(ev.predicted, ev.actual_dependence);
                for &(edge, found, waited) in &ev.edges {
                    // An edge that violated during any attempt of this task
                    // carried a dependence: the committed attempt re-issued
                    // the load after the store and saw no wait, which must
                    // not weaken the prediction.
                    let had_dependence = (found && waited) || violated_edges.contains(&edge);
                    unit.train(edge, had_dependence);
                }
            }
        }
        self.scratch.put_event_vec(outcome.load_events);
        self.result.synchronized_loads += outcome.synchronized_loads;
        self.result.false_dep_releases += outcome.false_dep_releases;

        // --- Bookkeeping ---------------------------------------------------
        self.result.tasks += 1;
        self.result.instructions += plan.task_range(k).len() as u64;
        self.result.committed_loads += plan.task_loads(k) as u64;
        self.result.committed_stores += plan.task_stores(k) as u64;
        self.frontier
            .commit(k, outcome.written, &self.scratch.avail);
        self.window.push_back(PRecord {
            written: outcome.written,
            store_complete: outcome.store_complete,
            max_store_addr_ready: outcome.max_store_addr_ready,
        });
        while self.window.len() >= self.config.stages.max(1) {
            let oldest = k + 1 - self.window.len();
            if let Some(evicted) = self.window.pop_front() {
                self.frontier.evict(oldest, evicted.written);
                self.scratch.put_store_vec(evicted.store_complete);
            }
        }
    }

    fn finish(mut self) -> MsResult {
        self.result.cycles = self.prev_commit;
        self.result.control_predictions = self.sequencer.control_predictions;
        self.result.control_mispredicts = self.sequencer.control_mispredicts;
        self.result.dcache = self.dcache.stats();
        let mut ic = mds_mem::CacheStats::default();
        for c in &self.icaches {
            ic.hits += c.stats().hits;
            ic.misses += c.stats().misses;
        }
        self.result.icache = ic;
        self.result.bus_transactions = self.bus.transactions();
        self.result.ddc = self
            .ddcs
            .into_iter()
            .map(|(s, d)| (s, d.hits(), d.misses()))
            .collect();
        self.result
    }
}

/// Replays `trace` under `config`.
///
/// The trace's [`ReplayPlan`] was built once, at capture, and its
/// sequencer outcomes are resolved once per sequencer configuration, at
/// the first replay; the replay itself is a flat scan over the plan's
/// arrays.
pub fn run_planned(trace: &Trace, config: &MsConfig) -> MsResult {
    run_planned_with(trace, config, &mut NoObserver)
}

/// [`run_planned`], reporting every attempt, load and store to `observer`.
#[doc(hidden)]
pub fn run_planned_with<O: ReplayObserver>(
    trace: &Trace,
    config: &MsConfig,
    observer: &mut O,
) -> MsResult {
    let plan = trace.replay_plan().clone();
    let mut sim = PSim::new(config.clone(), &plan);
    for k in 0..plan.tasks() {
        sim.on_task(&plan, k, observer);
    }
    sim.finish()
}

/// A configured Multiscalar processor model.
///
/// `Multiscalar` is stateless between runs: [`Multiscalar::run`] captures
/// a program's committed trace (via `mds-emu`) and replays it with
/// [`run_planned`] on a fresh timing state, so results are deterministic
/// and runs are independent. To replay one program under several
/// configurations, capture its [`Trace`] once and call [`run_planned`]
/// per configuration.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Multiscalar {
    config: MsConfig,
}

impl Multiscalar {
    /// Creates a simulator with the given configuration.
    pub fn new(config: MsConfig) -> Self {
        Multiscalar { config }
    }

    /// The configuration.
    pub fn config(&self) -> &MsConfig {
        &self.config
    }

    /// Runs `program` to completion and returns the timing result.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution errors ([`EmuError`]) — wild PCs or
    /// the instruction budget.
    pub fn run(&self, program: &Program) -> Result<MsResult, EmuError> {
        Ok(run_planned(&Trace::capture(program)?, &self.config))
    }
}

/// `true` when two configurations model identical hardware up to the
/// speculation policy: policy, predictor configuration (MDPT, tagging),
/// and DDC measurement sizes may differ; every other field must match.
pub fn forkable_twins(a: &MsConfig, b: &MsConfig) -> bool {
    // Exhaustive destructure: adding a field to `MsConfig` must force a
    // decision about whether it participates in twin-ness.
    let MsConfig {
        stages,
        policy: _,
        issue_width,
        fetch_width,
        window,
        simple_int_units,
        complex_int_units,
        fp_units,
        branch_units,
        mem_units,
        latencies,
        icache,
        dcache,
        ring_latency,
        squash_penalty,
        mispredict_penalty,
        descriptor_cache,
        descriptor_miss_penalty,
        path_depth,
        mdpt: _,
        tagging: _,
        signal_latency,
        ddc_sizes: _,
    } = a;
    *stages == b.stages
        && *issue_width == b.issue_width
        && *fetch_width == b.fetch_width
        && *window == b.window
        && *simple_int_units == b.simple_int_units
        && *complex_int_units == b.complex_int_units
        && *fp_units == b.fp_units
        && *branch_units == b.branch_units
        && *mem_units == b.mem_units
        && *latencies == b.latencies
        && *icache == b.icache
        && *dcache == b.dcache
        && *ring_latency == b.ring_latency
        && *squash_penalty == b.squash_penalty
        && *mispredict_penalty == b.mispredict_penalty
        && *descriptor_cache == b.descriptor_cache
        && *descriptor_miss_penalty == b.descriptor_miss_penalty
        && *path_depth == b.path_depth
        && *signal_latency == b.signal_latency
}

/// Replays `trace` under every configuration, one [`run_planned`] each;
/// results are returned in input order.
pub fn run_fused(trace: &Trace, configs: &[MsConfig]) -> Vec<MsResult> {
    configs.iter().map(|c| run_planned(trace, c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_harness::hash::FxHashMap;
    use mds_harness::json::ToJson;
    use mds_harness::prelude::*;
    use mds_isa::{Program, ProgramBuilder, Reg};

    fn capture(p: &Program) -> Trace {
        Trace::capture(p).unwrap()
    }

    fn assert_same(a: &MsResult, b: &MsResult, label: &str) {
        assert_eq!(
            a.to_json().to_string(),
            b.to_json().to_string(),
            "results diverge: {label}"
        );
    }

    fn ports(width: u32, t0: u64) -> Ports {
        let mut p = Ports::default();
        p.reset(width, t0);
        p
    }

    #[test]
    fn ports_allow_width_per_cycle() {
        let mut p = ports(2, 0);
        assert_eq!(p.claim(10), 10);
        assert_eq!(p.claim(10), 10);
        assert_eq!(p.claim(10), 11); // third claim spills to the next cycle
        assert_eq!(p.claim(11), 11); // cycle 11 has one free slot left
        assert_eq!(p.claim(11), 12); // now it is full
    }

    #[test]
    fn ports_are_order_insensitive() {
        // A late-ready claim must not block an earlier-ready one issued
        // after it — the OOO property the busy-until model got wrong.
        let mut p = ports(1, 0);
        assert_eq!(p.claim(100), 100);
        assert_eq!(p.claim(5), 5);
        assert_eq!(p.claim(5), 6);
    }

    #[test]
    fn ports_tolerate_claims_before_the_base() {
        // Cannot happen in an attempt, but the ledger must stay correct.
        let mut p = ports(1, 50);
        assert_eq!(p.claim(50), 50);
        assert_eq!(p.claim(10), 10);
        assert_eq!(p.claim(10), 11);
        assert_eq!(p.claim(50), 51); // cycle 50 already claimed above
    }

    #[test]
    fn ports_reset_clears_the_ledger() {
        let mut p = ports(1, 0);
        assert_eq!(p.claim(3), 3);
        p.reset(1, 3);
        assert_eq!(p.claim(3), 3); // claimable again after reset
    }

    /// Iterations-as-tasks loop with a cross-task recurrence through one
    /// memory cell (every iteration loads what the previous one stored).
    fn recurrence_tasks(iters: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.alloc("cell", 1);
        b.alloc("pad", 64);
        b.la(Reg::S0, "cell");
        b.la(Reg::S1, "pad");
        b.li(Reg::T0, iters);
        b.label("loop");
        b.task();
        b.ld(Reg::T1, Reg::S0, 0);
        b.addi(Reg::T1, Reg::T1, 1);
        b.mul(Reg::T3, Reg::T1, Reg::T1);
        b.mul(Reg::T3, Reg::T3, Reg::T1);
        b.sd(Reg::T3, Reg::S1, 0);
        b.sd(Reg::T1, Reg::S0, 0);
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        b.build().unwrap()
    }

    /// Iterations-as-tasks loop whose loads never conflict with its
    /// stores, but whose store addresses resolve slowly (through a
    /// divide). Blind speculation sails through; refusing to speculate
    /// (NEVER) stalls every load behind older tasks' unresolved stores.
    fn independent_tasks(iters: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.alloc("arr", 8192);
        b.alloc("dst", 1024);
        b.la(Reg::S0, "arr");
        b.la(Reg::S1, "dst");
        b.li(Reg::T0, iters);
        b.li(Reg::T6, 1);
        b.label("loop");
        b.task();
        b.ld(Reg::T1, Reg::S0, 0);
        b.mul(Reg::T2, Reg::T1, Reg::T1);
        b.addi(Reg::T2, Reg::T2, 3);
        b.div(Reg::T4, Reg::T0, Reg::T6);
        b.andi(Reg::T4, Reg::T4, 0xff8);
        b.add(Reg::T4, Reg::S1, Reg::T4);
        b.sd(Reg::T2, Reg::T4, 0);
        b.addi(Reg::S0, Reg::S0, 8);
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        b.build().unwrap()
    }

    /// A recurrence at task distance 5 through a 5-cell ring buffer: task
    /// k loads what task k-5 stored. A 4-stage window (3 older tasks)
    /// never sees the producer; an 8-stage window (7 older tasks) does —
    /// the table 6 "bigger window, more mis-speculation" effect.
    fn distant_recurrence_tasks(iters: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.alloc("ring", 5);
        b.la(Reg::S2, "ring");
        b.la(Reg::S3, "ring");
        b.li(Reg::T5, 0);
        b.li(Reg::T6, 5);
        b.li(Reg::T0, iters);
        b.label("loop");
        b.task();
        b.ld(Reg::T1, Reg::S2, 0);
        b.mul(Reg::T3, Reg::T1, Reg::T1);
        b.addi(Reg::T1, Reg::T1, 1);
        b.sd(Reg::T1, Reg::S2, 0);
        b.addi(Reg::S2, Reg::S2, 8);
        b.addi(Reg::T5, Reg::T5, 1);
        b.bne(Reg::T5, Reg::T6, "noreset");
        b.mv(Reg::S2, Reg::S3);
        b.mv(Reg::T5, Reg::ZERO);
        b.label("noreset");
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        b.build().unwrap()
    }

    /// Byte/word store mix so the planned dependence arrays face partial
    /// overlaps.
    fn byte_store_tasks(iters: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.alloc("buf", 4);
        b.la(Reg::S0, "buf");
        b.li(Reg::T0, iters);
        b.label("loop");
        b.task();
        b.ld(Reg::T1, Reg::S0, 0);
        b.addi(Reg::T1, Reg::T1, 1);
        b.sb(Reg::T1, Reg::S0, 3);
        b.lb(Reg::T2, Reg::S0, 3);
        b.sd(Reg::T1, Reg::S0, 8);
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn fused_replay_matches_per_policy_runs() {
        for p in [
            recurrence_tasks(80),
            independent_tasks(80),
            byte_store_tasks(50),
        ] {
            let trace = capture(&p);
            for stages in [4, 8] {
                let configs: Vec<MsConfig> = Policy::ALL
                    .into_iter()
                    .map(|policy| MsConfig::paper(stages, policy))
                    .collect();
                let fused = run_fused(&trace, &configs);
                for (config, result) in configs.iter().zip(&fused) {
                    let expect = run_planned(&trace, config);
                    assert_same(
                        &expect,
                        result,
                        &format!("{stages} stages, {}", config.policy),
                    );
                }
            }
        }
    }

    #[test]
    fn fused_replay_handles_non_twin_groups_and_heterogeneous_ddcs() {
        let trace = capture(&recurrence_tasks(60));
        let mut tagged = MsConfig::paper(4, Policy::Esync);
        tagged.tagging = TagScheme::DataAddress;
        let configs = vec![
            MsConfig::paper(4, Policy::Always).with_ddc_sizes(&[16]),
            MsConfig::paper(8, Policy::Always), // different stages: own group
            MsConfig::paper(4, Policy::Sync),
            tagged,
        ];
        let fused = run_fused(&trace, &configs);
        assert_eq!(fused.len(), configs.len());
        for (i, config) in configs.iter().enumerate() {
            assert_same(
                &run_planned(&trace, config),
                &fused[i],
                &format!("config {i}"),
            );
        }
    }

    #[test]
    fn twin_detection_ignores_policy_but_not_hardware() {
        let a = MsConfig::paper(4, Policy::Always);
        let b = MsConfig::paper(4, Policy::Esync).with_ddc_sizes(&[64]);
        assert!(forkable_twins(&a, &b));
        let c = MsConfig::paper(8, Policy::Always);
        assert!(!forkable_twins(&a, &c));
        let mut d = MsConfig::paper(4, Policy::Always);
        d.squash_penalty += 1;
        assert!(!forkable_twins(&a, &d));
    }

    /// `last_write` sentinel: the task did not write the register.
    const NO_TIME: u64 = u64::MAX;

    /// The reverse window walk the [`Frontier`] replaced, kept as its
    /// oracle: the youngest window record (`last_write[r]`, or `NO_TIME`)
    /// that wrote `dense`, plus one ring hop per stage between producer
    /// and consumer; 0 when no record wrote it.
    fn resolve_cross(
        window: &VecDeque<(u64, [u64; REGS])>,
        dense: usize,
        win_base: usize,
        consumer_stage: usize,
        stages: usize,
        ring_latency: u64,
    ) -> u64 {
        for (j, (_, last_write)) in window.iter().enumerate().rev() {
            let t = last_write[dense];
            if t != NO_TIME {
                let producer_stage = (win_base + j) % stages;
                let hops = (consumer_stage + stages - producer_stage) % stages;
                return t + hops as u64 * ring_latency;
            }
        }
        0
    }

    /// The sequencer walked one task at a time, as the engine did before
    /// the memo: per task `(mispredicted, descriptor_hit)`, then the
    /// prediction and misprediction counts.
    fn step_by_step_sequencer(
        start_pcs: &[Pc],
        path_depth: usize,
        descriptor_cache: usize,
    ) -> (Vec<(bool, bool)>, u64, u64) {
        let mut predictor = PathPredictor::new(PREDICTOR_ENTRIES, path_depth);
        let mut history = PathHistory::new(path_depth);
        let mut descriptors: LruTable<Pc, ()> = LruTable::new(descriptor_cache);
        let (mut bits, mut predictions, mut mispredicts) = (Vec::new(), 0, 0);
        let mut prev_task_pc: Option<Pc> = None;
        for &start_pc in start_pcs {
            let mut mispredicted = false;
            if let Some(prev_pc) = prev_task_pc {
                predictions += 1;
                if predictor.predict(prev_pc, history.hash()) != Some(start_pc) {
                    mispredicts += 1;
                    mispredicted = true;
                }
                predictor.update(prev_pc, history.hash(), start_pc);
            }
            history.push(start_pc);
            let hit = descriptors.get(&start_pc).is_some();
            descriptors.insert(start_pc, ());
            bits.push((mispredicted, hit));
            prev_task_pc = Some(start_pc);
        }
        (bits, predictions, mispredicts)
    }

    /// A plan of one-instruction tasks starting at `start_pcs`.
    fn plan_with_task_starts(start_pcs: &[Pc]) -> ReplayPlan {
        let records: Vec<mds_emu::DynInst> = start_pcs
            .iter()
            .enumerate()
            .map(|(i, &pc)| mds_emu::DynInst {
                seq: i as u64,
                pc,
                inst: mds_isa::Instruction::NOP,
                mem: None,
                branch: None,
                new_task: true,
            })
            .collect();
        ReplayPlan::build(&records)
    }

    properties! {
        /// `Ports` agrees with a brute-force per-cycle ledger. Operations
        /// are `(kind, x, width)`: kind 0 resets to `(width, x)`, kind 1
        /// claims far past the ledger's end (`x * 64`), and every other
        /// kind claims at `x`, which lands before the base whenever the
        /// last reset started later.
        #[test]
        fn ports_match_a_brute_force_ledger(
            t0 in 0u64..200,
            width in 0u32..5,
            ops in vec_of((0u8..8, 0u64..200, 0u32..5), 1..300)
        ) {
            let mut p = ports(width, t0);
            let mut model_width = width.max(1);
            let mut used: FxHashMap<u64, u32> = FxHashMap::default();
            for (kind, x, w) in ops {
                if kind == 0 {
                    p.reset(w, x);
                    model_width = w.max(1);
                    used.clear();
                    continue;
                }
                let ready = if kind == 1 { x * 64 } else { x };
                let mut want = ready;
                while used.get(&want).copied().unwrap_or(0) >= model_width {
                    want += 1;
                }
                *used.entry(want).or_insert(0) += 1;
                prop_assert_eq!(p.claim(ready), want, "claim({}) after {:?}", ready, (kind, x, w));
            }
        }

        /// The frontier seeds every register exactly as the reverse
        /// window walk resolves it, over random commits (random write
        /// masks and times) and random early evictions of the oldest
        /// task, at 1 to 8 stages.
        #[test]
        fn frontier_matches_the_reverse_window_walk(
            stages in 1usize..9,
            ring_latency in 0u64..4,
            ops in vec_of(
                (any::<u64>(), any::<u64>(), 0u64..1000, 0u8..5),
                1..120,
            )
        ) {
            let mut frontier = Frontier::default();
            // Per window task: its write mask and `last_write` array.
            let mut window: VecDeque<(u64, [u64; REGS])> = VecDeque::new();
            let mut k = 0usize;
            for (a, b, time, kind) in ops {
                if kind == 0 && !window.is_empty() {
                    let (written, _) = window.pop_front().unwrap();
                    frontier.evict(k - window.len() - 1, written);
                } else {
                    let written = a & b;
                    let mut last_write = [NO_TIME; REGS];
                    let mut avail = [0; REGS];
                    for r in (0..REGS).filter(|r| written >> r & 1 != 0) {
                        last_write[r] = time + r as u64;
                        avail[r] = time + r as u64;
                    }
                    frontier.commit(k, written, &avail);
                    window.push_back((written, last_write));
                    k += 1;
                    while window.len() >= stages {
                        let (written, _) = window.pop_front().unwrap();
                        frontier.evict(k - window.len() - 1, written);
                    }
                }
                let mut seeded = [u64::MAX; REGS];
                frontier.seed(k, ring_latency, &mut seeded);
                let win_base = k - window.len();
                for (r, &got) in seeded.iter().enumerate() {
                    let want = resolve_cross(&window, r, win_base, k % stages, stages, ring_latency);
                    prop_assert_eq!(got, want, "register {} for task {}", r, k);
                }
            }
        }

        /// The memoized sequencer bits and counters equal a step-by-step
        /// walk of the predictor, path history and descriptor cache, for
        /// two configurations memoized side by side on one plan; a repeat
        /// request is served from the memo.
        #[test]
        fn memoized_sequencer_matches_a_step_by_step_walk(
            start_pcs in vec_of(0u32..24, 1..300),
            depth_a in 1usize..6,
            cache_a in 1usize..32,
            depth_b in 1usize..6,
            cache_b in 1usize..32
        ) {
            let plan = plan_with_task_starts(&start_pcs);
            let configs = [(depth_a, cache_a), (depth_b, cache_b)];
            let first: Vec<Arc<SequencerOutcome>> = configs
                .iter()
                .map(|&(d, c)| plan.sequencer(d, c, |pcs| resolve_sequencer(pcs, d, c)))
                .collect();
            for (&(d, c), outcome) in configs.iter().zip(&first) {
                let (bits, predictions, mispredicts) = step_by_step_sequencer(&start_pcs, d, c);
                for (k, &want) in bits.iter().enumerate() {
                    prop_assert_eq!(
                        (
                            outcome.task_flags[k] & MISPREDICTED != 0,
                            outcome.task_flags[k] & DESCRIPTOR_HIT != 0
                        ),
                        want,
                        "task {} under ({}, {})", k, d, c
                    );
                }
                prop_assert_eq!(outcome.control_predictions, predictions);
                prop_assert_eq!(outcome.control_mispredicts, mispredicts);
                let again = plan.sequencer(d, c, |_| panic!("resolved twice"));
                prop_assert!(Arc::ptr_eq(outcome, &again));
            }
        }
    }

    #[test]
    fn racing_first_replays_share_one_sequencer_outcome() {
        let trace = capture(&distant_recurrence_tasks(80));
        let config = MsConfig::paper(4, Policy::Always);
        let barrier = std::sync::Barrier::new(2);
        let results: Vec<(MsResult, Arc<SequencerOutcome>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let result = run_planned(&trace, &config);
                        let outcome = trace.replay_plan().sequencer(
                            config.path_depth,
                            config.descriptor_cache,
                            |_| panic!("already memoized"),
                        );
                        (result, outcome)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_same(&results[0].0, &results[1].0, "racing replays");
        assert!(Arc::ptr_eq(&results[0].1, &results[1].1));
        let fresh = capture(&distant_recurrence_tasks(80));
        assert_same(&run_planned(&fresh, &config), &results[0].0, "fresh trace");
    }

    fn run(p: &Program, stages: usize, policy: Policy) -> MsResult {
        Multiscalar::new(MsConfig::paper(stages, policy))
            .run(p)
            .unwrap()
    }

    #[test]
    fn committed_instructions_match_trace_for_every_policy() {
        let p = recurrence_tasks(50);
        let expected = {
            let mut e = mds_emu::Emulator::new(&p);
            e.run_into(&mut ()).unwrap().instructions
        };
        for policy in Policy::ALL {
            let r = run(&p, 4, policy);
            assert_eq!(r.instructions, expected, "{policy}");
        }
    }

    #[test]
    fn parallel_tasks_give_superscalar_ipc() {
        let p = independent_tasks(400);
        let r = run(&p, 4, Policy::Always);
        assert!(r.ipc() > 1.2, "ipc = {}", r.ipc());
        assert_eq!(r.misspeculations, 0);
    }

    #[test]
    fn always_beats_never_on_independent_tasks() {
        let p = independent_tasks(400);
        let never = run(&p, 4, Policy::Never);
        let always = run(&p, 4, Policy::Always);
        assert!(
            always.cycles < never.cycles,
            "ALWAYS {} vs NEVER {}",
            always.cycles,
            never.cycles
        );
    }

    #[test]
    fn blind_speculation_misspeculates_on_recurrences() {
        let p = recurrence_tasks(300);
        let r = run(&p, 4, Policy::Always);
        assert!(r.misspeculations > 50, "got {}", r.misspeculations);
    }

    #[test]
    fn psync_eliminates_misspeculation_and_beats_blind() {
        let p = recurrence_tasks(300);
        let always = run(&p, 4, Policy::Always);
        let psync = run(&p, 4, Policy::PSync);
        assert_eq!(psync.misspeculations, 0);
        assert!(
            psync.cycles <= always.cycles,
            "PSYNC {} vs ALWAYS {}",
            psync.cycles,
            always.cycles
        );
    }

    #[test]
    fn sync_cuts_misspeculations_by_an_order_of_magnitude() {
        let p = recurrence_tasks(500);
        let always = run(&p, 4, Policy::Always);
        let sync = run(&p, 4, Policy::Sync);
        assert!(
            sync.misspeculations * 10 <= always.misspeculations,
            "SYNC {} vs ALWAYS {}",
            sync.misspeculations,
            always.misspeculations
        );
        assert!(sync.synchronized_loads > 0);
    }

    #[test]
    fn esync_matches_or_beats_sync_here() {
        let p = recurrence_tasks(500);
        let sync = run(&p, 4, Policy::Sync);
        let esync = run(&p, 4, Policy::Esync);
        assert!(
            esync.misspeculations <= sync.misspeculations + 5,
            "ESYNC {} vs SYNC {}",
            esync.misspeculations,
            sync.misspeculations
        );
    }

    #[test]
    fn more_stages_mean_more_misspeculations_under_blind() {
        // Table 6's shape: a larger window exposes more violations. The
        // recurrence sits at task distance 5 — invisible to a 4-stage
        // window, violated constantly in an 8-stage one.
        let p = distant_recurrence_tasks(400);
        let four = run(&p, 4, Policy::Always);
        let eight = run(&p, 8, Policy::Always);
        assert!(
            eight.misspeculations > four.misspeculations + 50,
            "8-stage {} vs 4-stage {}",
            eight.misspeculations,
            four.misspeculations
        );
    }

    #[test]
    fn determinism() {
        let p = recurrence_tasks(100);
        let a = run(&p, 4, Policy::Esync);
        let b = run(&p, 4, Policy::Esync);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.misspeculations, b.misspeculations);
        assert_eq!(a.breakdown, b.breakdown);
    }

    #[test]
    fn ddc_measurement_reports_rates() {
        let p = recurrence_tasks(300);
        let cfg = MsConfig::paper(4, Policy::Always).with_ddc_sizes(&[16, 64]);
        let r = Multiscalar::new(cfg).run(&p).unwrap();
        let small = r.ddc_miss_rate(16).unwrap();
        let large = r.ddc_miss_rate(64).unwrap();
        assert!(large.value() <= small.value() + 1e-9);
        // One hot edge: nearly everything hits.
        assert!(large.value() < 50.0);
    }

    #[test]
    fn control_predictor_learns_the_loop() {
        let p = independent_tasks(400);
        let r = run(&p, 4, Policy::Always);
        assert!(
            r.control_accuracy().value() > 90.0,
            "accuracy {}",
            r.control_accuracy()
        );
    }

    #[test]
    fn single_stage_degenerates_to_serial_execution() {
        let p = recurrence_tasks(50);
        let r = run(&p, 1, Policy::Always);
        assert_eq!(r.misspeculations, 0); // no cross-task window at all
        assert!(r.ipc() <= 2.0 + 1e-9);
    }

    #[test]
    fn breakdown_populated_only_for_predictor_policies() {
        let p = recurrence_tasks(100);
        assert_eq!(run(&p, 4, Policy::Always).breakdown.total(), 0);
        let sync = run(&p, 4, Policy::Sync);
        assert!(sync.breakdown.total() > 0);
    }

    #[test]
    fn address_tagging_synchronizes_variable_distance_edges() {
        // A recurrence whose distance alternates between 1 and 2: the
        // distance-tagged scheme keeps guessing the wrong producer task,
        // while address tagging identifies it exactly.
        let mut b = ProgramBuilder::new();
        b.alloc("cell", 1);
        b.alloc("other", 1);
        b.la(Reg::S0, "cell");
        b.la(Reg::S1, "other");
        b.li(Reg::T6, 3);
        b.li(Reg::A3, 0);
        b.li(Reg::T0, 400);
        b.label("loop");
        b.task();
        b.ld(Reg::T1, Reg::S0, 0);
        b.mul(Reg::T2, Reg::T1, Reg::T1);
        b.addi(Reg::T1, Reg::T1, 1);
        // Two of every three tasks write the cell; one writes elsewhere,
        // so the consumer's true distance alternates 1, 1, 2, 1, 1, 2…
        b.addi(Reg::A3, Reg::A3, 1);
        b.bne(Reg::A3, Reg::T6, "write_cell");
        b.mv(Reg::A3, Reg::ZERO);
        b.sd(Reg::T1, Reg::S1, 0);
        b.j("next");
        b.label("write_cell");
        b.sd(Reg::T1, Reg::S0, 0);
        b.label("next");
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        let p = b.build().unwrap();

        let mut dist_cfg = MsConfig::paper(8, Policy::Sync);
        dist_cfg.tagging = mds_core::TagScheme::DependenceDistance;
        let dist = Multiscalar::new(dist_cfg).run(&p).unwrap();
        let mut addr_cfg = MsConfig::paper(8, Policy::Sync);
        addr_cfg.tagging = mds_core::TagScheme::DataAddress;
        let addr = Multiscalar::new(addr_cfg).run(&p).unwrap();
        assert!(
            addr.misspeculations <= dist.misspeculations,
            "address {} vs distance {}",
            addr.misspeculations,
            dist.misspeculations
        );
        assert!(addr.misspeculations < 20, "got {}", addr.misspeculations);
    }

    #[test]
    fn empty_trace_replays_to_an_empty_result() {
        let trace = Trace::from_parts(Vec::new(), mds_emu::TraceSummary::default());
        let config = MsConfig::paper(4, Policy::Always);
        let r = run_planned(&trace, &config);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.tasks, 0);
        let fused = run_fused(&trace, &[config.clone(), MsConfig::paper(4, Policy::Never)]);
        assert_eq!(fused.len(), 2);
    }
}
