//! The planned replay engine: branch-light Multiscalar replay over a
//! [`ReplayPlan`].
//!
//! # Why a second engine
//!
//! The paper's figures replay one committed trace under six speculation
//! policies per grid cell. The legacy engine ([`crate::Multiscalar`])
//! re-walks the raw [`DynInst`](mds_emu::DynInst) stream per policy:
//! re-decoding operands, re-splitting tasks (cloning every record), and
//! re-discovering store→load overlaps through per-task hash maps — all
//! work that is a pure function of the trace, not of the policy or the
//! timing. This engine replays the [`ReplayPlan`] instead: operands,
//! task ranges, functional-unit classes, and memory dependences are
//! pre-resolved into dense arrays, so an attempt is a sequential scan
//! with array indexing where the legacy engine chases hash maps.
//!
//! Every configuration is one independent [`run_planned`]. Sharing a
//! policy-independent replay prefix across policies was measured to save
//! nothing: every workload has an in-window store→load pair within its
//! first few tasks, so the policies diverge almost at once.
//!
//! Equivalence with the legacy engine is enforced by unit tests here, a
//! `properties!` fuzz test over random traces (all policies), and an
//! in-tree test that compares both engines on every paper grid cell.

use crate::config::MsConfig;
use crate::exec::{LoadEvent, Ports, Shared, Violation, REGS};
use crate::result::MsResult;
use mds_core::{Ddc, DepEdge, MdptEntry, Policy, SyncUnit, SyncUnitConfig, TagScheme};
use mds_emu::plan::{
    ReplayPlan, FU_BRANCH, FU_COMPLEX, FU_FP, F_CONTROL, F_MEM, F_STORE, NONE, NO_REG,
};
use mds_emu::Trace;
use mds_harness::hash::FxHashSet;
use mds_isa::{Opcode, Pc};
use mds_mem::{BankedCache, Bus, Cache};
use mds_predict::{LruTable, PathHistory, PathPredictor};
use std::collections::VecDeque;

/// The finalized timing state of a window task, planned-engine edition.
///
/// Everything the legacy `TaskRecord` kept in hash maps lives in the
/// [`ReplayPlan`] instead; the record only carries what depends on
/// timing: final register write times, per-store completion times (in
/// task store order), and the store address-ready bound. Task identity,
/// stage, and start PC are recovered from the record's window position.
#[derive(Debug, Clone)]
struct PRecord {
    /// Final write time per dense register index, or [`NO_TIME`].
    last_write: [u64; REGS],
    /// Completion time per store, indexed by within-task store ordinal.
    store_complete: Vec<u64>,
    max_store_addr_ready: u64,
}

/// Sentinel for "this register was never written" / "not yet computed".
/// Real completion times are cycle counts and never reach `u64::MAX`;
/// a plain sentinel keeps the per-attempt register arrays half the size
/// of `[Option<u64>; REGS]`, and these arrays are copied per task.
const NO_TIME: u64 = u64::MAX;

/// Sentinel for "no fetch block yet". Real blocks are `(pc * 4) & !63`
/// with a 32-bit `pc`, far below `u64::MAX`.
const NO_BLOCK: u64 = u64::MAX;

/// Availability time of operand `di`: the intra-task write if this
/// attempt produced one, else the memoized cross-task resolution.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn operand_avail(
    di: usize,
    epoch: u32,
    local_write: &[u64; REGS],
    write_epoch: &[u32; REGS],
    cross_cache: &mut [u64; REGS],
    cross_epoch: &mut [u32; REGS],
    window: &VecDeque<PRecord>,
    win_base: usize,
    stage: usize,
    stages: usize,
    ring_latency: u64,
) -> u64 {
    if write_epoch[di] == epoch {
        local_write[di]
    } else {
        if cross_epoch[di] != epoch {
            cross_epoch[di] = epoch;
            cross_cache[di] = resolve_cross(window, di, win_base, stage, stages, ring_latency);
        }
        cross_cache[di]
    }
}

/// Reusable attempt-local state (the planned engine's `ExecScratch`).
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
    /// Register write times of the most recent attempt (copied into the
    /// committed `PRecord`; living here avoids moving 512 B through the
    /// attempt's return value on every task). An entry is valid only when
    /// its `write_epoch` tag matches `reg_epoch` — epoch-tagging lets an
    /// attempt start without zeroing a kilobyte of register arrays.
    last_write: [u64; REGS],
    write_epoch: [u32; REGS],
    /// Memoized cross-task resolution for the current attempt, tagged by
    /// `cross_epoch` the same way.
    cross_cache: [u64; REGS],
    cross_epoch: [u32; REGS],
    /// Live epoch for the register arrays; bumped once per attempt.
    reg_epoch: u32,
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
            last_write: [NO_TIME; REGS],
            write_epoch: [0; REGS],
            cross_cache: [NO_TIME; REGS],
            cross_epoch: [0; REGS],
            reg_epoch: 0,
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

/// The result of one planned execution attempt (mirrors `AttemptOutcome`).
/// Register write times stay behind in [`PScratch::last_write`].
struct PAttempt {
    max_completion: u64,
    last_branch_completion: u64,
    store_complete: Vec<u64>,
    max_store_addr_ready: u64,
    violation: Option<Violation>,
    load_events: Vec<LoadEvent>,
    synchronized_loads: u64,
    false_dep_releases: u64,
}

/// Cross-task register resolution over planned window records. The
/// producer's stage is derived from its window position (task indices in
/// the window are consecutive, ending at `win_base + window.len()`).
fn resolve_cross(
    window: &VecDeque<PRecord>,
    dense: usize,
    win_base: usize,
    consumer_stage: usize,
    stages: usize,
    ring_latency: u64,
) -> u64 {
    for (j, rec) in window.iter().enumerate().rev() {
        let t = rec.last_write[dense];
        if t != NO_TIME {
            let producer_stage = (win_base + j) % stages;
            let hops = (consumer_stage + stages - producer_stage) % stages;
            return t + hops as u64 * ring_latency;
        }
    }
    0
}

/// One timing attempt of task `k`, scheduled over the plan's arrays.
/// Replicates `exec::execute_attempt` decision-for-decision; see that
/// function for the architectural commentary.
#[allow(clippy::too_many_arguments)]
fn planned_attempt(
    plan: &ReplayPlan,
    k: usize,
    t0: u64,
    stage: usize,
    window: &VecDeque<PRecord>,
    shared: &mut Shared<'_>,
    scratch: &mut PScratch,
    lat: &[u64],
) -> PAttempt {
    let config = shared.config;
    let stages = config.stages;
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
    scratch.reg_epoch = scratch.reg_epoch.wrapping_add(1);
    if scratch.reg_epoch == 0 {
        // Epoch wrapped (after 2^32 attempts): stale tags could alias the
        // new epoch, so hard-clear once and restart from 1.
        scratch.write_epoch = [0; REGS];
        scratch.cross_epoch = [0; REGS];
        scratch.reg_epoch = 1;
    }
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
        last_write: local_write,
        write_epoch,
        cross_cache,
        cross_epoch,
        reg_epoch,
        ..
    } = scratch;
    let epoch = *reg_epoch;

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
    let mut nl = 0usize;

    for &pc in pc_a {
        let d = &code[pc as usize];
        let flags = d.flags;

        // ---- Fetch through the per-unit I-cache ------------------------
        let block = ((pc as u64) * 4) & !63;
        if cur_block != block || in_group >= config.fetch_width {
            if cur_block != NO_BLOCK {
                fetch_clock += 1;
            }
            if !shared.icache.access(block, false) {
                fetch_clock = shared.bus.request(fetch_clock, 16);
            }
            cur_block = block;
            in_group = 0;
        }
        in_group += 1;
        let mut dispatch = fetch_clock;

        // ---- Instruction window occupancy ------------------------------
        if let Some(freed) = retire.free_oldest_if_full() {
            dispatch = dispatch.max(freed);
        }

        // ---- Operand readiness (intra-task dataflow + ring) ------------
        let mut ready = dispatch;
        let mut base_ready = dispatch; // address operand only (for stores)
        let [s1, s2] = d.src;
        if s1 != NO_REG {
            let avail = operand_avail(
                s1 as usize,
                epoch,
                local_write,
                write_epoch,
                cross_cache,
                cross_epoch,
                window,
                win_base,
                stage,
                stages,
                config.ring_latency,
            );
            ready = ready.max(avail);
            base_ready = base_ready.max(avail);
        }
        if s2 != NO_REG {
            let avail = operand_avail(
                s2 as usize,
                epoch,
                local_write,
                write_epoch,
                cross_cache,
                cross_epoch,
                window,
                win_base,
                stage,
                stages,
                config.ring_latency,
            );
            ready = ready.max(avail);
        }

        // ---- Schedule on the functional units --------------------------
        let complete = if flags & F_MEM != 0 {
            if flags & F_STORE != 0 {
                let addr = store_addr_a[store_complete.len()];
                intra_addr_ready = intra_addr_ready.max(base_ready);
                max_store_addr_ready = max_store_addr_ready.max(base_ready);
                let start = mem_ports.claim(issue_ports.claim(ready));
                let complete = shared.dcache.access(start, addr, true, shared.bus).done_at;
                store_complete.push(complete);
                complete
            } else {
                // ---- Load: pre-resolved intra forwarding ---------------
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
                        entries.retain(|e| synced_edges.insert(e.edge));
                        if entries.is_empty() {
                            may_violate = true;
                        } else {
                            let mut edges = edge_vecs.pop().unwrap_or_default();
                            let mut wait_until = ready_mem;
                            let mut any_missing = false;
                            for e in entries.iter() {
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
                            may_violate = true;
                        }
                    }
                }

                let start = mem_ports.claim(issue_ports.claim(ready_mem));
                let complete = shared.dcache.access(start, addr, false, shared.bus).done_at;

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
            local_write[dst as usize] = complete;
            write_epoch[dst as usize] = epoch;
        }
        retire.push(complete);
        max_completion = max_completion.max(complete);
    }

    let violation = violations.iter().copied().min_by_key(|v| v.detect);
    PAttempt {
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

/// The planned engine's simulator state; mirrors the legacy `SimState`,
/// plus a pre-expanded opcode→latency table.
struct PSim {
    config: MsConfig,
    lat: Vec<u64>,
    dcache: BankedCache,
    bus: Bus,
    icaches: Vec<Cache>,
    unit: Option<SyncUnit>,
    predictor: PathPredictor,
    history: PathHistory,
    descriptor_cache: LruTable<Pc, ()>,
    window: VecDeque<PRecord>,
    scratch: PScratch,
    stage_free: Vec<u64>,
    prev_assign: u64,
    prev_commit: u64,
    prev_task_pc: Option<Pc>,
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

impl PSim {
    fn new(config: MsConfig) -> PSim {
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
            predictor: PathPredictor::new(4096, config.path_depth),
            history: PathHistory::new(config.path_depth),
            descriptor_cache: LruTable::new(config.descriptor_cache),
            window: VecDeque::with_capacity(config.stages),
            scratch: PScratch::default(),
            stage_free: vec![0; config.stages],
            prev_assign: 0,
            prev_commit: 0,
            prev_task_pc: None,
            prev_last_branch: 0,
            ddcs: config.ddc_sizes.iter().map(|&s| (s, Ddc::new(s))).collect(),
            result: MsResult::default(),
            config,
        }
    }

    fn on_task(&mut self, plan: &ReplayPlan, k: usize) {
        let stage = k % self.config.stages;
        let start_pc = plan.task_start_pc[k];

        // --- Sequencer: next-task prediction and descriptor fetch -------
        let mut mispredicted = false;
        if let Some(prev_pc) = self.prev_task_pc {
            self.result.control_predictions += 1;
            let predicted = self.predictor.predict(prev_pc, self.history.hash());
            if predicted != Some(start_pc) {
                self.result.control_mispredicts += 1;
                mispredicted = true;
            }
            self.predictor
                .update(prev_pc, self.history.hash(), start_pc);
        }
        self.history.push(start_pc);
        let descriptor_hit = self.descriptor_cache.get(&start_pc).is_some();
        self.descriptor_cache.insert(start_pc, ());

        // --- Task start time ---------------------------------------------
        let mut t0 = self.stage_free[stage].max(self.prev_assign + 1);
        if mispredicted {
            t0 = t0.max(self.prev_last_branch + self.config.mispredict_penalty);
        }
        if !descriptor_hit {
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
            let outcome = planned_attempt(
                plan,
                k,
                t0,
                stage,
                &self.window,
                &mut shared,
                &mut self.scratch,
                &self.lat,
            );
            let Some(v) = outcome.violation else {
                break outcome;
            };
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
        self.prev_task_pc = Some(start_pc);

        // --- Non-speculative prediction updates at commit ----------------
        if let Some(unit) = &mut self.unit {
            for ev in &outcome.load_events {
                self.result
                    .breakdown
                    .record(ev.predicted, ev.actual_dependence);
                for &(edge, found, waited) in &ev.edges {
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
        let mut last_write = [NO_TIME; REGS];
        for (di, slot) in last_write.iter_mut().enumerate() {
            if self.scratch.write_epoch[di] == self.scratch.reg_epoch {
                *slot = self.scratch.last_write[di];
            }
        }
        self.window.push_back(PRecord {
            last_write,
            store_complete: outcome.store_complete,
            max_store_addr_ready: outcome.max_store_addr_ready,
        });
        while self.window.len() >= self.config.stages.max(1) {
            if let Some(evicted) = self.window.pop_front() {
                self.scratch.put_store_vec(evicted.store_complete);
            }
        }
    }

    fn finish(mut self) -> MsResult {
        self.result.cycles = self.prev_commit;
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

/// Replays `trace` under `config` on the planned engine.
///
/// Produces a result identical to
/// [`Multiscalar::run_trace`](crate::Multiscalar::run_trace) over the
/// same records (enforced by tests), at a fraction of the cost: the
/// trace's [`ReplayPlan`] is built once, at capture, and the replay
/// itself is a flat scan over its arrays.
pub fn run_planned(trace: &Trace, config: &MsConfig) -> MsResult {
    let plan = trace.replay_plan().clone();
    let mut sim = PSim::new(config.clone());
    for k in 0..plan.tasks() {
        sim.on_task(&plan, k);
    }
    sim.finish()
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
    use crate::sim::Multiscalar;
    use mds_harness::json::ToJson;
    use mds_isa::{Program, ProgramBuilder, Reg};

    fn capture(p: &Program) -> Trace {
        Trace::capture(p).unwrap()
    }

    fn legacy(trace: &Trace, config: &MsConfig) -> MsResult {
        Multiscalar::new(config.clone()).run_trace(trace.records().iter().copied())
    }

    fn assert_same(a: &MsResult, b: &MsResult, label: &str) {
        assert_eq!(
            a.to_json().to_string(),
            b.to_json().to_string(),
            "engines diverge: {label}"
        );
    }

    /// Cross-task recurrence through one cell (from the sim tests).
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

    /// Independent tasks with slow store addresses (from the sim tests).
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

    /// Distance-5 recurrence through a ring buffer (from the sim tests).
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
    fn planned_engine_matches_legacy_for_every_policy_and_stage_count() {
        let programs = [
            recurrence_tasks(60),
            independent_tasks(60),
            distant_recurrence_tasks(60),
            byte_store_tasks(40),
        ];
        for (pi, p) in programs.iter().enumerate() {
            let trace = capture(p);
            for stages in [1, 4, 8] {
                for policy in Policy::ALL {
                    let config = MsConfig::paper(stages, policy);
                    let a = legacy(&trace, &config);
                    let b = run_planned(&trace, &config);
                    assert_same(&a, &b, &format!("program {pi}, {stages} stages, {policy}"));
                }
            }
        }
    }

    #[test]
    fn planned_engine_matches_legacy_with_ddcs_and_address_tagging() {
        let trace = capture(&recurrence_tasks(80));
        let mut config = MsConfig::paper(4, Policy::Always).with_ddc_sizes(&[16, 64]);
        assert_same(
            &legacy(&trace, &config),
            &run_planned(&trace, &config),
            "ddc",
        );
        config = MsConfig::paper(8, Policy::Sync);
        config.tagging = TagScheme::DataAddress;
        assert_same(
            &legacy(&trace, &config),
            &run_planned(&trace, &config),
            "address tagging",
        );
    }

    #[test]
    fn fused_replay_matches_per_policy_scratch_runs() {
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
                    let expect = legacy(&trace, config);
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
            assert_same(&legacy(&trace, config), &fused[i], &format!("config {i}"));
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
