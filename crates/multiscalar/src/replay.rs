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
//! Equivalence with the legacy engine is enforced by unit tests here, a
//! `properties!` fuzz test over random traces (all policies), and an
//! in-tree test that compares both engines on every paper grid cell.

use crate::config::MsConfig;
use crate::exec::{LoadEvent, Ports, Shared, Violation, REGS};
use crate::result::MsResult;
use mds_core::{Ddc, DepEdge, MdptEntry, Policy, SyncUnit, SyncUnitConfig, TagScheme};
use mds_emu::plan::{
    ReplayPlan, SequencerOutcome, DESCRIPTOR_HIT, FU_BRANCH, FU_COMPLEX, FU_FP, F_CONTROL, F_MEM,
    F_STORE, MISPREDICTED, NONE, NO_REG,
};
use mds_emu::Trace;
use mds_harness::hash::FxHashSet;
use mds_isa::{Opcode, Pc};
use mds_mem::{BankedCache, Bus, Cache};
use mds_predict::{LruTable, PathHistory, PathPredictor};
use std::collections::VecDeque;
use std::sync::Arc;

/// The finalized timing state of a window task, planned-engine edition.
///
/// Everything the legacy `TaskRecord` kept in hash maps lives in the
/// [`ReplayPlan`] instead; the record only carries what depends on
/// timing: per-store completion times (in task store order) and the store
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

/// The result of one planned execution attempt (mirrors `AttemptOutcome`).
/// Register write times stay behind in [`PScratch::avail`].
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

/// One timing attempt of task `k`, scheduled over the plan's arrays.
/// Replicates `exec::execute_attempt` decision-for-decision; see that
/// function for the architectural commentary.
#[allow(clippy::too_many_arguments)]
fn planned_attempt(
    plan: &ReplayPlan,
    k: usize,
    t0: u64,
    window: &VecDeque<PRecord>,
    frontier: &Frontier,
    shared: &mut Shared<'_>,
    scratch: &mut PScratch,
    lat: &[u64],
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

/// The planned engine's simulator state; mirrors the legacy `SimState`,
/// plus a pre-expanded opcode→latency table.
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

    fn on_task(&mut self, plan: &ReplayPlan, k: usize) {
        let stage = k % self.config.stages;

        // --- Task start time (sequencer decisions from the memo) ---------
        let flags = self.sequencer.task_flags[k];
        let mut t0 = self.stage_free[stage].max(self.prev_assign + 1);
        if flags & MISPREDICTED != 0 {
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
            let outcome = planned_attempt(
                plan,
                k,
                t0,
                &self.window,
                &self.frontier,
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

/// Replays `trace` under `config` on the planned engine.
///
/// Produces a result identical to
/// [`Multiscalar::run_trace`](crate::Multiscalar::run_trace) over the
/// same records (enforced by tests), at a fraction of the cost: the
/// trace's [`ReplayPlan`] is built once, at capture, its sequencer
/// outcomes once per sequencer configuration, at the first replay, and
/// the replay itself is a flat scan over its arrays.
pub fn run_planned(trace: &Trace, config: &MsConfig) -> MsResult {
    let plan = trace.replay_plan().clone();
    let mut sim = PSim::new(config.clone(), &plan);
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
    use mds_harness::prelude::*;
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
        assert_same(&legacy(&trace, &config), &results[0].0, "legacy");
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
