//! Per-task timing execution: one *attempt* schedules a task's
//! instructions on a processing unit starting at a given cycle, against
//! the current state of the older tasks in the window.
//!
//! The simulator re-runs an attempt from scratch whenever a memory
//! dependence violation is detected (squash & replay), so everything in
//! here is a pure function of the task, its start cycle, the older-task
//! records, and the (mutable, shared) memory system.
//!
//! Because squash & replay re-runs this code constantly, the attempt
//! state lives in an [`ExecScratch`] owned by the simulator and reused
//! across attempts and tasks: maps are cleared, not reallocated, and the
//! per-cycle port ledgers are dense vectors indexed from the attempt's
//! start cycle. The scratch is pure mechanism — reusing it is
//! observationally identical to fresh allocation (enforced by the
//! byte-identity CI gate on `repro all --json`).

use crate::config::MsConfig;
use crate::task::Task;
use mds_core::{DepEdge, Policy, SyncUnit};
use mds_emu::DynInst;
use mds_harness::hash::{FxHashMap, FxHashSet, Pool};
use mds_isa::{Addr, FuClass, Pc};
use mds_mem::{BankedCache, Bus, Cache};
use std::collections::VecDeque;

/// Dense architectural register file size (see `RegRef::dense_index`).
pub(crate) const REGS: usize = 64;

/// A store that executed within a task, as visible to younger tasks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StoreInfo {
    pub pc: Pc,
    pub complete: u64,
    pub idx: usize,
}

/// The finalized timing record of a task, kept in the active window for
/// the benefit of younger tasks. Its maps are pooled: when the record
/// leaves the window (or its attempt is squashed), hand it back via
/// [`ExecScratch::recycle`] so the next attempt reuses the allocations.
#[derive(Debug, Clone)]
pub(crate) struct TaskRecord {
    pub seq: u64,
    pub start_pc: Pc,
    pub stage: usize,
    pub commit: u64,
    pub max_completion: u64,
    pub last_branch_completion: u64,
    /// Final write time per dense register index (`None`: not written by
    /// this task). A flat table — register lookup is the single most
    /// frequent cross-task query.
    pub last_write: [Option<u64>; REGS],
    /// Youngest store per 8-byte-aligned word address.
    pub word_stores: FxHashMap<Addr, StoreInfo>,
    /// Youngest store per byte address (for `sb`).
    pub byte_stores: FxHashMap<Addr, StoreInfo>,
    /// Latest store completion per store PC (the MDST "signal" source).
    pub stores_by_pc: FxHashMap<Pc, u64>,
    /// Running max of store address-ready times (NEVER/WAIT and the
    /// incomplete-synchronization release rule).
    pub max_store_addr_ready: u64,
}

/// A detected cross-task memory dependence violation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Violation {
    pub edge: DepEdge,
    pub producer_task: u64,
    pub producer_task_pc: Pc,
    /// Cycle at which the older store executed (violation detection time).
    pub detect: u64,
    /// Whether the violated load had a (wrong) synchronization prediction.
    pub predicted: bool,
}

/// Per-load prediction/synchronization record used for training and the
/// table 8 breakdown.
#[derive(Debug, Clone)]
pub(crate) struct LoadEvent {
    /// `(edge, signal_found, caused_wait)` per predicted dependence.
    pub edges: Vec<(DepEdge, bool, bool)>,
    /// Whether any prediction matched this load.
    pub predicted: bool,
    /// For predicted loads: the load had to wait for a signal. For
    /// unpredicted loads: a violation occurred (filled by the caller for
    /// aborted attempts).
    pub actual_dependence: bool,
}

/// The result of one execution attempt.
#[derive(Debug)]
pub(crate) struct AttemptOutcome {
    pub record: TaskRecord,
    /// The earliest violation, if the attempt must be squashed.
    pub violation: Option<Violation>,
    /// Per-load events (valid for the committed attempt).
    pub load_events: Vec<LoadEvent>,
    /// Loads delayed by synchronization in this attempt.
    pub synchronized_loads: u64,
    /// Loads released by the deadlock-avoidance rule (false dependence).
    pub false_dep_releases: u64,
}

/// Mutable processor-wide state an attempt executes against.
pub(crate) struct Shared<'a> {
    pub config: &'a MsConfig,
    pub dcache: &'a mut BankedCache,
    pub bus: &'a mut Bus,
    pub icache: &'a mut Cache,
    pub unit: Option<&'a mut SyncUnit>,
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
/// `claim` runs twice per simulated instruction in both replay engines.
/// It is `#[inline]`, so at each call site the common case — the slot at
/// `ready` is in the ledger and free — is a load, a compare, and a store
/// with no call. The two rare cases live out of line behind `#[cold]`:
/// a claim before the base (`rebase`) and a claim past the ledger's end
/// (`claim_past_end`, which grows the ledger in chunks).
#[derive(Debug, Default)]
pub(crate) struct Ports {
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
    pub(crate) fn reset(&mut self, width: u32, t0: u64) {
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
    pub(crate) fn claim(&mut self, ready: u64) -> u64 {
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

/// Reusable attempt-local state: port ledgers, the retire queue, pooled
/// store maps, and the per-attempt bookkeeping vectors. One instance
/// lives in the simulator and is threaded through every attempt; nothing
/// in it survives an attempt observably.
#[derive(Debug, Default)]
pub(crate) struct ExecScratch {
    issue: Ports,
    simple: Ports,
    complex: Ports,
    fp: Ports,
    branch: Ports,
    mem: Ports,
    retire_queue: VecDeque<u64>,
    /// Pool backing `TaskRecord::word_stores` / `byte_stores`.
    store_maps: Pool<FxHashMap<Addr, StoreInfo>>,
    /// Pool backing `TaskRecord::stores_by_pc`.
    pc_maps: Pool<FxHashMap<Pc, u64>>,
    synced_edges: FxHashSet<DepEdge>,
    /// `(seq, start_pc)` of the window tasks, rebuilt per attempt for the
    /// ESYNC store-task lookup (the window cannot change mid-attempt).
    task_pcs: Vec<(u64, Pc)>,
    violations: Vec<Violation>,
}

impl ExecScratch {
    pub(crate) fn new() -> Self {
        ExecScratch::default()
    }

    /// Returns a retired (or squashed) record's maps to the pools.
    pub(crate) fn recycle(&mut self, record: TaskRecord) {
        self.store_maps.put(record.word_stores);
        self.store_maps.put(record.byte_stores);
        self.pc_maps.put(record.stores_by_pc);
    }
}

pub(crate) fn execute_attempt(
    task: &Task,
    t0: u64,
    stage: usize,
    window: &VecDeque<TaskRecord>,
    shared: &mut Shared<'_>,
    scratch: &mut ExecScratch,
) -> AttemptOutcome {
    let config = shared.config;
    let stages = config.stages;

    // --- Per-attempt scheduling state (cleared, not reallocated) --------
    let mut local_write: [Option<u64>; REGS] = [None; REGS];
    let mut cross_cache: [Option<u64>; REGS] = [None; REGS];
    scratch.issue.reset(config.issue_width, t0);
    scratch.simple.reset(config.simple_int_units, t0);
    scratch.complex.reset(config.complex_int_units, t0);
    scratch.fp.reset(config.fp_units, t0);
    scratch.branch.reset(config.branch_units, t0);
    scratch.mem.reset(config.mem_units, t0);
    scratch.retire_queue.clear();
    scratch.synced_edges.clear();
    scratch.violations.clear();
    scratch.task_pcs.clear();
    if matches!(config.policy, Policy::Sync | Policy::Esync) {
        scratch
            .task_pcs
            .extend(window.iter().map(|r| (r.seq, r.start_pc)));
    }
    let ExecScratch {
        issue: issue_ports,
        simple: simple_ports,
        complex: complex_ports,
        fp: fp_ports,
        branch: branch_ports,
        mem: mem_ports,
        retire_queue,
        store_maps,
        pc_maps,
        synced_edges,
        task_pcs,
        violations,
    } = scratch;

    // Fetch state.
    let mut fetch_clock = t0;
    let mut cur_block: Option<u64> = None;
    let mut in_group: u32 = 0;

    // Intra-task memory state.
    let mut intra_addr_ready: u64 = 0;
    let mut my_word_stores = store_maps.take();
    let mut my_byte_stores = store_maps.take();
    let mut stores_by_pc = pc_maps.take();
    let mut max_store_addr_ready: u64 = 0;

    // Window-derived aggregates.
    let window_addr_ready = window
        .iter()
        .map(|r| r.max_store_addr_ready)
        .max()
        .unwrap_or(0);

    // Result accumulation.
    let mut max_completion = t0;
    let mut last_branch_completion = t0;
    let mut load_events: Vec<LoadEvent> = Vec::new();
    let mut synchronized_loads = 0u64;
    let mut false_dep_releases = 0u64;

    for (idx, d) in task.insts.iter().enumerate() {
        // ---- Fetch through the per-unit I-cache ------------------------
        let block = ((d.pc as u64) * 4) & !63;
        if cur_block != Some(block) || in_group >= config.fetch_width {
            if cur_block.is_some() {
                fetch_clock += 1;
            }
            if !shared.icache.access(block, false) {
                fetch_clock = shared.bus.request(fetch_clock, 16);
            }
            cur_block = Some(block);
            in_group = 0;
        }
        in_group += 1;
        let mut dispatch = fetch_clock;

        // ---- Instruction window occupancy ------------------------------
        if retire_queue.len() >= config.window {
            let freed = retire_queue.pop_front().expect("non-empty window");
            dispatch = dispatch.max(freed);
        }

        // ---- Operand readiness (intra-task dataflow + ring) ------------
        let mut ready = dispatch;
        let mut base_ready = dispatch; // address operand only (for stores)
        for (slot, r) in d.inst.reads().into_iter().enumerate() {
            let Some(r) = r else { continue };
            let di = r.dense_index();
            let avail = match local_write[di] {
                Some(t) => t,
                None => *cross_cache[di].get_or_insert_with(|| {
                    resolve_cross_task(window, di, stage, stages, config.ring_latency)
                }),
            };
            ready = ready.max(avail);
            if slot == 0 {
                base_ready = base_ready.max(avail);
            }
        }

        // ---- Schedule on the functional units --------------------------
        let complete = if let Some(mem) = d.mem {
            let (complete, event) = schedule_mem(
                d,
                mem,
                idx,
                task,
                ready,
                base_ready,
                stage,
                window,
                shared,
                mem_ports,
                issue_ports,
                MemCtx {
                    intra_addr_ready: &mut intra_addr_ready,
                    my_word_stores: &mut my_word_stores,
                    my_byte_stores: &mut my_byte_stores,
                    stores_by_pc: &mut stores_by_pc,
                    max_store_addr_ready: &mut max_store_addr_ready,
                    violations,
                    synced_edges,
                    task_pcs,
                    synchronized_loads: &mut synchronized_loads,
                    false_dep_releases: &mut false_dep_releases,
                    window_addr_ready,
                },
            );
            if let Some(e) = event {
                load_events.push(e);
            }
            complete
        } else {
            let latency = shared.config.latencies.of(d.inst.op);
            let class_ports = match d.inst.op.fu_class() {
                FuClass::SimpleInt => &mut *simple_ports,
                FuClass::ComplexInt => &mut *complex_ports,
                FuClass::Fp => &mut *fp_ports,
                FuClass::Branch => &mut *branch_ports,
                FuClass::Mem => unreachable!("memory handled above"),
            };
            let start = class_ports.claim(issue_ports.claim(ready));
            start + latency
        };

        if d.inst.op.is_control() {
            last_branch_completion = last_branch_completion.max(complete);
        }
        if let Some(w) = d.inst.writes() {
            local_write[w.dense_index()] = Some(complete);
        }
        retire_queue.push_back(complete);
        max_completion = max_completion.max(complete);
    }

    let violation = violations.iter().copied().min_by_key(|v| v.detect);
    AttemptOutcome {
        record: TaskRecord {
            seq: task.seq,
            start_pc: task.start_pc,
            stage,
            commit: max_completion, // caller folds in in-order commit
            max_completion,
            last_branch_completion,
            // The per-task dataflow table doubles as the final-write
            // record: it already holds the last completion per register.
            last_write: local_write,
            word_stores: my_word_stores,
            byte_stores: my_byte_stores,
            stores_by_pc,
            max_store_addr_ready,
        },
        violation,
        load_events,
        synchronized_loads,
        false_dep_releases,
    }
}

fn resolve_cross_task(
    window: &VecDeque<TaskRecord>,
    dense: usize,
    consumer_stage: usize,
    stages: usize,
    ring_latency: u64,
) -> u64 {
    for rec in window.iter().rev() {
        if let Some(t) = rec.last_write[dense] {
            let hops = (consumer_stage + stages - rec.stage) % stages;
            return t + hops as u64 * ring_latency;
        }
    }
    0 // architecturally available (older tasks committed before we started)
}

struct MemCtx<'a> {
    intra_addr_ready: &'a mut u64,
    my_word_stores: &'a mut FxHashMap<Addr, StoreInfo>,
    my_byte_stores: &'a mut FxHashMap<Addr, StoreInfo>,
    stores_by_pc: &'a mut FxHashMap<Pc, u64>,
    max_store_addr_ready: &'a mut u64,
    violations: &'a mut Vec<Violation>,
    synced_edges: &'a mut FxHashSet<DepEdge>,
    task_pcs: &'a [(u64, Pc)],
    synchronized_loads: &'a mut u64,
    false_dep_releases: &'a mut u64,
    window_addr_ready: u64,
}

/// Locates the youngest store overlapping `(addr, size)` in the most
/// recent older task that has one.
///
/// Byte stores are rare (only `sb` produces them), so the 8-probe byte
/// scan is skipped entirely when a task has none — probing an empty map
/// returns `None` either way.
fn producer_in_window(
    window: &VecDeque<TaskRecord>,
    addr: Addr,
    size: u8,
) -> Option<(&TaskRecord, StoreInfo)> {
    for rec in window.iter().rev() {
        let mut best: Option<StoreInfo> = None;
        let mut consider = |s: Option<&StoreInfo>| {
            if let Some(s) = s {
                // Keep the youngest store (largest index within the task).
                if best.is_none_or(|b| s.idx > b.idx) {
                    best = Some(*s);
                }
            }
        };
        if size == 1 {
            consider(rec.byte_stores.get(&addr));
            consider(rec.word_stores.get(&(addr & !7)));
        } else {
            consider(rec.word_stores.get(&(addr & !7)));
            if !rec.byte_stores.is_empty() {
                for b in 0..8 {
                    consider(rec.byte_stores.get(&(addr + b)));
                }
            }
        }
        if let Some(s) = best {
            return Some((rec, s));
        }
    }
    None
}

/// Same-task forwarding source: youngest earlier store overlapping the
/// load.
fn intra_forward(
    words: &FxHashMap<Addr, StoreInfo>,
    bytes: &FxHashMap<Addr, StoreInfo>,
    addr: Addr,
    size: u8,
) -> Option<StoreInfo> {
    let mut best: Option<StoreInfo> = None;
    let mut consider = |s: Option<&StoreInfo>| {
        if let Some(s) = s {
            if best.is_none_or(|b| s.idx > b.idx) {
                best = Some(*s);
            }
        }
    };
    if size == 1 {
        consider(bytes.get(&addr));
        consider(words.get(&(addr & !7)));
    } else {
        consider(words.get(&(addr & !7)));
        if !bytes.is_empty() {
            for b in 0..8 {
                consider(bytes.get(&(addr + b)));
            }
        }
    }
    best
}

#[allow(clippy::too_many_arguments)]
fn schedule_mem(
    d: &DynInst,
    mem: mds_emu::MemAccess,
    idx: usize,
    task: &Task,
    ready: u64,
    base_ready: u64,
    _stage: usize,
    window: &VecDeque<TaskRecord>,
    shared: &mut Shared<'_>,
    mem_ports: &mut Ports,
    issue_ports: &mut Ports,
    ctx: MemCtx<'_>,
) -> (u64, Option<LoadEvent>) {
    let config = shared.config;
    if mem.is_store {
        // Address becomes known once the base register is ready.
        *ctx.intra_addr_ready = (*ctx.intra_addr_ready).max(base_ready);
        *ctx.max_store_addr_ready = (*ctx.max_store_addr_ready).max(base_ready);
        let start = mem_ports.claim(issue_ports.claim(ready));
        let access = shared.dcache.access(start, mem.addr, true, shared.bus);
        let complete = access.done_at;
        let info = StoreInfo {
            pc: d.pc,
            complete,
            idx,
        };
        if mem.size == 1 {
            ctx.my_byte_stores.insert(mem.addr, info);
        } else {
            ctx.my_word_stores.insert(mem.addr & !7, info);
        }
        ctx.stores_by_pc
            .entry(d.pc)
            .and_modify(|t| *t = (*t).max(complete))
            .or_insert(complete);
        return (complete, None);
    }

    // ---- Load ----------------------------------------------------------
    // Intra-task disambiguation: never speculated. Wait for all earlier
    // same-task store addresses; forward from a matching earlier store.
    let mut ready_mem = ready.max(*ctx.intra_addr_ready);
    if let Some(fwd) = intra_forward(ctx.my_word_stores, ctx.my_byte_stores, mem.addr, mem.size) {
        ready_mem = ready_mem.max(fwd.complete);
    }

    let window_addr_ready = ctx.window_addr_ready;

    // Inter-task handling per policy.
    let producer = producer_in_window(window, mem.addr, mem.size);
    let ready_before_sync = ready_mem;
    let mut event: Option<LoadEvent> = None;
    let mut may_violate = false;

    match config.policy {
        Policy::Never => {
            ready_mem = ready_mem.max(window_addr_ready);
            if let Some((_, s)) = producer {
                ready_mem = ready_mem.max(s.complete);
            }
        }
        Policy::Wait => {
            if let Some((_, s)) = producer {
                ready_mem = ready_mem.max(window_addr_ready).max(s.complete);
            }
        }
        Policy::PSync => {
            if let Some((_, s)) = producer {
                ready_mem = ready_mem.max(s.complete);
            }
        }
        Policy::Always => {
            may_violate = true;
        }
        Policy::Sync | Policy::Esync => {
            let task_pcs = ctx.task_pcs;
            let lookup =
                move |seq: u64| task_pcs.iter().find(|(s, _)| *s == seq).map(|(_, pc)| *pc);
            let unit = shared.unit.as_mut().expect("sync policy has a unit");
            let mut entries = Vec::new();
            unit.predicted_entries_for_load(d.pc, task.seq, Some(&lookup), &mut entries);
            // Combined-structure slot limit: one sync entry per edge per
            // stage; later instances in the same task go unsynchronized.
            entries.retain(|e| ctx.synced_edges.insert(e.edge));
            if entries.is_empty() {
                may_violate = true;
            } else {
                let mut edges = Vec::with_capacity(entries.len());
                let mut wait_until = ready_mem;
                let mut any_missing = false;
                for e in &entries {
                    // The signalling store. Under distance tagging: the
                    // store with this edge's PC in the task at distance
                    // DIST. Under address tagging: the youngest older
                    // store with this edge's PC to the load's address.
                    let producer_seq = task.seq.checked_sub(e.dist as u64);
                    let signal = match config.tagging {
                        mds_core::TagScheme::DependenceDistance => producer_seq.and_then(|ps| {
                            window
                                .iter()
                                .find(|r| r.seq == ps)
                                .and_then(|r| r.stores_by_pc.get(&e.edge.store_pc))
                                .copied()
                        }),
                        mds_core::TagScheme::DataAddress => producer
                            .filter(|(_, info)| info.pc == e.edge.store_pc)
                            .map(|(_, info)| info.complete),
                    };
                    // Commit-time training strengthens only *correct*
                    // synchronizations: the signalling store was this
                    // load's actual producer. Waiting on a store that
                    // merely shares the PC (but wrote elsewhere this
                    // instance) is a false dependence and must weaken the
                    // prediction, or a single hot store PC would
                    // serialize every load that ever conflicted with it.
                    // (Whether the wait mattered *this* instance is
                    // deliberately ignored: timing jitter must not
                    // unlearn a real dependence.)
                    let is_producer = match config.tagging {
                        mds_core::TagScheme::DependenceDistance => {
                            producer.is_some_and(|(rec, info)| {
                                info.pc == e.edge.store_pc && Some(rec.seq) == producer_seq
                            })
                        }
                        // Address tagging synchronized with the youngest
                        // matching store to this exact address — the
                        // producer by construction.
                        mds_core::TagScheme::DataAddress => signal.is_some(),
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
                    // Incomplete synchronization (§4.4.2): the load is
                    // released once every older store's address is known
                    // and disambiguation clears it (the same condition that
                    // frees loads under NEVER/WAIT).
                    wait_until = wait_until.max(window_addr_ready);
                    *ctx.false_dep_releases += 1;
                }
                if wait_until > ready_before_sync {
                    *ctx.synchronized_loads += 1;
                }
                event = Some(LoadEvent {
                    edges,
                    predicted: true,
                    actual_dependence: wait_until > ready_before_sync,
                });
                ready_mem = wait_until;
                // A dependence on a store the predictor did not name can
                // still violate.
                may_violate = true;
            }
        }
    }

    let start = mem_ports.claim(issue_ports.claim(ready_mem));
    let access = shared.dcache.access(start, mem.addr, false, shared.bus);
    let complete = access.done_at;

    if may_violate {
        if let Some((rec, s)) = producer {
            if s.complete > start {
                ctx.violations.push(Violation {
                    edge: DepEdge {
                        load_pc: d.pc,
                        store_pc: s.pc,
                    },
                    producer_task: rec.seq,
                    producer_task_pc: rec.start_pc,
                    detect: s.complete,
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
    (complete, event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_harness::prelude::*;

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
    }

    fn record(seq: u64, stage: usize) -> TaskRecord {
        TaskRecord {
            seq,
            start_pc: 0,
            stage,
            commit: 0,
            max_completion: 0,
            last_branch_completion: 0,
            last_write: [None; REGS],
            word_stores: FxHashMap::default(),
            byte_stores: FxHashMap::default(),
            stores_by_pc: FxHashMap::default(),
            max_store_addr_ready: 0,
        }
    }

    #[test]
    fn producer_in_window_prefers_youngest_task_and_store() {
        let mut older = record(1, 1);
        older.word_stores.insert(
            0x100,
            StoreInfo {
                pc: 4,
                complete: 50,
                idx: 2,
            },
        );
        older.word_stores.insert(
            0x100 & !7,
            StoreInfo {
                pc: 9,
                complete: 60,
                idx: 7,
            },
        );
        let mut newer = record(2, 2);
        newer.byte_stores.insert(
            0x103,
            StoreInfo {
                pc: 5,
                complete: 70,
                idx: 1,
            },
        );
        let window: VecDeque<TaskRecord> = [older, newer].into_iter().collect();
        // The byte store in the NEWER task overlaps the word load.
        let (rec, info) = producer_in_window(&window, 0x100, 8).expect("found");
        assert_eq!(rec.seq, 2);
        assert_eq!(info.pc, 5);
        // A disjoint address finds nothing.
        assert!(producer_in_window(&window, 0x200, 8).is_none());
    }

    #[test]
    fn intra_forward_finds_youngest_overlapping_store() {
        let mut words = FxHashMap::default();
        let mut bytes = FxHashMap::default();
        words.insert(
            0x40u64,
            StoreInfo {
                pc: 1,
                complete: 10,
                idx: 3,
            },
        );
        bytes.insert(
            0x44u64,
            StoreInfo {
                pc: 2,
                complete: 20,
                idx: 5,
            },
        );
        // The byte store is younger (idx 5) and overlaps the word load.
        let f = intra_forward(&words, &bytes, 0x40, 8).expect("forward");
        assert_eq!(f.idx, 5);
        // A byte load at a non-stored byte still hits the word store.
        let f = intra_forward(&words, &bytes, 0x41, 1).expect("forward");
        assert_eq!(f.idx, 3);
        assert!(intra_forward(&words, &bytes, 0x80, 8).is_none());
    }

    #[test]
    fn cross_task_resolution_walks_newest_first_and_adds_ring_hops() {
        let mut a = record(1, 1);
        a.last_write[5] = Some(100);
        let mut b = record(2, 2);
        b.last_write[5] = Some(200);
        let window: VecDeque<TaskRecord> = [a, b].into_iter().collect();
        // Consumer on stage 3: producer is task 2 on stage 2 -> 1 hop.
        assert_eq!(resolve_cross_task(&window, 5, 3, 4, 1), 201);
        // Register 6 is written by nobody in the window: architecturally
        // available.
        assert_eq!(resolve_cross_task(&window, 6, 3, 4, 1), 0);
        // Ring distance wraps: consumer stage 0, producer stage 2 -> 2 hops.
        assert_eq!(resolve_cross_task(&window, 5, 0, 4, 1), 202);
    }

    #[test]
    fn scratch_recycles_record_maps() {
        let mut scratch = ExecScratch::new();
        let mut rec = record(1, 0);
        rec.word_stores.insert(
            0x40,
            StoreInfo {
                pc: 1,
                complete: 1,
                idx: 0,
            },
        );
        scratch.recycle(rec);
        // Two store maps and one PC map shelved, all cleared.
        assert!(scratch.store_maps.take().is_empty());
        assert!(scratch.store_maps.take().is_empty());
        assert!(scratch.pc_maps.take().is_empty());
    }
}
