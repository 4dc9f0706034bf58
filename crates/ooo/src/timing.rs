//! A standalone superscalar OOO timing model with pluggable dependence
//! speculation policies.
//!
//! The paper argues (§6) that dependence prediction and synchronization
//! apply beyond Multiscalar: "in a superscalar environment we may use a
//! small associative pool of counters; load and store instructions can
//! then be numbered based on their PC as they are issued" (§3, footnote).
//! This module is that environment: a single continuous instruction window
//! of configurable size with trace-driven dataflow timing, where dynamic
//! instances are numbered per static PC and the [`mds_core::SyncUnit`]
//! synchronizes predicted-dependent pairs.
//!
//! The model is deliberately lean — fixed operation latencies, one memory
//! port, a dispatch-width frontend, squash-and-replay on violation — it
//! exists to *compare policies on one more processor shape* (the paper's
//! table/figure reproductions use the full Multiscalar model in
//! `mds-multiscalar`).

use mds_core::{DepEdge, LoadDecision, Policy, PredictionBreakdown, SyncUnit, SyncUnitConfig};
use mds_emu::plan::NO_REG;
use mds_emu::{MemAccess, Row};
use mds_harness::hash::FxHashMap;
use mds_isa::{Addr, FuClass, Opcode, Pc};
use mds_sim::ConfigError;
use std::collections::VecDeque;

/// Configuration of the superscalar model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OooConfig {
    /// Instruction window (ROB) size.
    pub window: usize,
    /// Instructions dispatched per cycle.
    pub dispatch_width: u32,
    /// Memory operations started per cycle.
    pub mem_ports: u32,
    /// Load-to-use latency (cache hit assumed).
    pub mem_latency: u64,
    /// Cycles lost re-filling the pipeline after a violation squash.
    pub squash_penalty: u64,
    /// The speculation policy.
    pub policy: Policy,
    /// MDPT entries for predictor-driven policies.
    pub mdpt_entries: usize,
}

impl OooConfig {
    /// Checks that [`OooSim`] can run this configuration: positive widths
    /// and table sizes, and no size or latency large enough to exhaust
    /// memory. The bounds leave at least 4× room over every value the
    /// experiments use.
    ///
    /// # Errors
    ///
    /// The first field out of bounds.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let check = ConfigError::check_range;
        check("window", self.window as u64, 1..=1 << 16)?;
        check("dispatch_width", self.dispatch_width.into(), 1..=256)?;
        check("mem_ports", self.mem_ports.into(), 1..=256)?;
        check("mem_latency", self.mem_latency, 0..=1024)?;
        check("squash_penalty", self.squash_penalty, 0..=1024)?;
        check("mdpt_entries", self.mdpt_entries as u64, 1..=1 << 16)
    }
}

impl Default for OooConfig {
    fn default() -> Self {
        OooConfig {
            window: 128,
            dispatch_width: 4,
            mem_ports: 2,
            mem_latency: 2,
            squash_penalty: 8,
            policy: Policy::Always,
            mdpt_entries: 64,
        }
    }
}

/// The result of a superscalar timing run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OooResult {
    /// Total cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// Committed loads.
    pub loads: u64,
    /// Memory dependence violations (squashes).
    pub misspeculations: u64,
    /// Loads delayed by the synchronization machinery.
    pub synchronized_loads: u64,
    /// Predicted-vs-actual accounting.
    pub breakdown: PredictionBreakdown,
}

impl OooResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct StoreRecord {
    seq: u64,
    pc: Pc,
    instance: u64,
    complete: u64,
}

/// The superscalar OOO timing simulator. Feed committed instructions in
/// order via [`OooSim::observe`] — as [`mds_emu::DynInst`] records or
/// [`mds_emu::ReplayPlan`] rows — then call [`OooSim::finish`].
///
/// # Examples
///
/// ```
/// use mds_isa::{ProgramBuilder, Reg};
/// use mds_emu::Emulator;
/// use mds_ooo::{OooConfig, OooSim};
/// use mds_core::Policy;
///
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::T0, 50);
/// b.label("loop");
/// b.addi(Reg::T0, Reg::T0, -1);
/// b.bne(Reg::T0, Reg::ZERO, "loop");
/// b.halt();
/// let p = b.build()?;
///
/// let mut sim = OooSim::new(OooConfig { policy: Policy::Always, ..Default::default() });
/// Emulator::new(&p).run_with(|d| sim.observe(d))?;
/// let r = sim.finish();
/// assert!(r.ipc() > 0.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct OooSim {
    config: OooConfig,
    unit: SyncUnit,
    // Dataflow availability per architectural register (dense index).
    reg_avail: [u64; 64],
    // Completion times of in-flight window slots, oldest first.
    retire_queue: VecDeque<u64>,
    // Dispatch clock.
    cur_cycle: u64,
    dispatched_this_cycle: u32,
    // Earliest-free time per memory port (issue ports are independent:
    // a late-resolving store must not serialize unrelated early loads).
    mem_port_free: Vec<u64>,
    // Squash barrier: no instruction may dispatch before this.
    restart_after: u64,
    // Youngest store per word / byte address.
    word_stores: FxHashMap<Addr, StoreRecord>,
    byte_stores: FxHashMap<Addr, StoreRecord>,
    // Per-PC dynamic instance numbering (the superscalar instance scheme).
    instance_no: FxHashMap<Pc, u64>,
    // Running max of store address-ready / completion times.
    all_stores_addr_ready: u64,
    all_stores_complete: u64,
    last_complete: u64,
    result: OooResult,
    ldid_counter: u32,
}

impl OooSim {
    /// Creates the simulator.
    pub fn new(config: OooConfig) -> Self {
        OooSim {
            unit: SyncUnit::new(SyncUnitConfig {
                stages: 8,
                mdpt: mds_core::MdptConfig {
                    capacity: config.mdpt_entries,
                    ..Default::default()
                },
                esync: config.policy == Policy::Esync,
                ..Default::default()
            }),
            config,
            reg_avail: [0; 64],
            retire_queue: VecDeque::with_capacity(config.window),
            cur_cycle: 0,
            dispatched_this_cycle: 0,
            mem_port_free: vec![0; config.mem_ports as usize],
            restart_after: 0,
            word_stores: FxHashMap::default(),
            byte_stores: FxHashMap::default(),
            instance_no: FxHashMap::default(),
            all_stores_addr_ready: 0,
            all_stores_complete: 0,
            last_complete: 0,
            result: OooResult::default(),
            ldid_counter: 0,
        }
    }

    fn op_latency(&self, op: Opcode) -> u64 {
        match op.fu_class() {
            FuClass::SimpleInt | FuClass::Branch => 1,
            FuClass::ComplexInt => {
                if op == Opcode::Mul {
                    4
                } else {
                    12
                }
            }
            FuClass::Fp => 4,
            FuClass::Mem => self.config.mem_latency,
        }
    }

    fn dispatch_slot(&mut self) -> u64 {
        // Window occupancy: wait for the oldest slot to retire.
        let window_free = if self.retire_queue.len() >= self.config.window {
            self.retire_queue.pop_front().expect("non-empty")
        } else {
            0
        };
        let mut t = self.cur_cycle.max(window_free).max(self.restart_after);
        if t > self.cur_cycle {
            self.cur_cycle = t;
            self.dispatched_this_cycle = 0;
        }
        if self.dispatched_this_cycle >= self.config.dispatch_width {
            self.cur_cycle += 1;
            self.dispatched_this_cycle = 0;
            t = self.cur_cycle;
        }
        self.dispatched_this_cycle += 1;
        t
    }

    fn mem_port_slot(&mut self, ready: u64) -> u64 {
        let idx = self
            .mem_port_free
            .iter()
            .enumerate()
            .min_by_key(|(_, &f)| f)
            .map(|(i, _)| i)
            .expect("mem_ports > 0");
        let start = ready.max(self.mem_port_free[idx]);
        self.mem_port_free[idx] = start + 1;
        start
    }

    fn producer_of(&self, addr: Addr, size: u8) -> Option<StoreRecord> {
        let mut best: Option<StoreRecord> = None;
        let mut consider = |s: Option<&StoreRecord>| {
            if let Some(s) = s {
                if best.is_none_or(|b| s.seq > b.seq) {
                    best = Some(*s);
                }
            }
        };
        if size == 1 {
            consider(self.byte_stores.get(&addr));
            consider(self.word_stores.get(&(addr & !7)));
        } else {
            consider(self.word_stores.get(&(addr & !7)));
            if !self.byte_stores.is_empty() {
                for b in 0..8 {
                    consider(self.byte_stores.get(&(addr + b)));
                }
            }
        }
        best
    }

    /// Feeds the next committed instruction.
    pub fn observe(&mut self, d: impl Into<Row>) {
        let d = d.into();
        self.result.instructions += 1;
        let dispatch = self.dispatch_slot();
        // Operand readiness from register dataflow.
        let mut ready = dispatch;
        for r in d.src {
            if r != NO_REG {
                ready = ready.max(self.reg_avail[r as usize]);
            }
        }
        let latency = self.op_latency(d.op);

        let complete = if let Some(mem) = d.mem {
            let instance = {
                let n = self.instance_no.entry(d.pc).or_insert(0);
                *n += 1;
                *n
            };
            if mem.is_store {
                let start = self.mem_port_slot(ready);
                let complete = start + latency;
                let rec = StoreRecord {
                    seq: d.seq,
                    pc: d.pc,
                    instance,
                    complete,
                };
                if mem.size == 1 {
                    self.byte_stores.insert(mem.addr, rec);
                } else {
                    self.word_stores.insert(mem.addr & !7, rec);
                }
                self.all_stores_addr_ready = self.all_stores_addr_ready.max(ready);
                self.all_stores_complete = self.all_stores_complete.max(complete);
                if self.config.policy.uses_predictor() {
                    self.unit.on_store_issue(d.pc, instance, d.seq as u32);
                }
                complete
            } else {
                self.result.loads += 1;
                self.observe_load(&d, mem, instance, ready, latency)
            }
        } else {
            ready + latency
        };

        if d.dst != NO_REG {
            self.reg_avail[d.dst as usize] = complete;
        }
        self.retire_queue.push_back(complete);
        self.last_complete = self.last_complete.max(complete);
    }

    fn observe_load(
        &mut self,
        d: &Row,
        mem: MemAccess,
        instance: u64,
        mut ready: u64,
        latency: u64,
    ) -> u64 {
        let producer = self.producer_of(mem.addr, mem.size);
        let in_window = producer.is_some_and(|p| d.seq - p.seq < self.config.window as u64);
        let actual_dependence = in_window && producer.is_some_and(|p| p.complete > ready);

        match self.config.policy {
            Policy::Never => {
                ready = ready.max(self.all_stores_addr_ready);
                if let Some(p) = producer {
                    ready = ready.max(p.complete);
                }
            }
            Policy::Wait => {
                if in_window {
                    ready = ready.max(self.all_stores_addr_ready);
                    if let Some(p) = producer {
                        ready = ready.max(p.complete);
                    }
                }
            }
            Policy::PSync => {
                if let Some(p) = producer.filter(|_| in_window) {
                    ready = ready.max(p.complete);
                }
            }
            Policy::Always => {
                if actual_dependence {
                    let p = producer.expect("dependence implies producer");
                    self.violate(d, &p);
                    ready = ready.max(p.complete);
                }
            }
            Policy::Sync | Policy::Esync => {
                self.ldid_counter = self.ldid_counter.wrapping_add(1);
                let ldid = self.ldid_counter;
                // Note: because this model processes the committed stream
                // in program order, a producing store has always *visited*
                // the MDST before its load even when it completes later in
                // time — so `Proceed` and `Wait` both mean "synchronize
                // with the predicted store"; the timing wait below uses the
                // store's completion time either way.
                let decision = self.unit.on_load_ready(d.pc, instance, ldid, None);
                let predicted = decision != LoadDecision::NotPredicted;
                self.result.breakdown.record(predicted, actual_dependence);
                if predicted {
                    self.result.synchronized_loads += 1;
                    let predicted_right = producer.is_some_and(|p| {
                        self.unit.mdpt().iter().any(|e| {
                            e.edge
                                == DepEdge {
                                    load_pc: d.pc,
                                    store_pc: p.pc,
                                }
                        })
                    });
                    if predicted_right && in_window {
                        // Successful synchronization: wake at the store's
                        // completion, no squash.
                        let p = producer.expect("checked");
                        ready = ready.max(p.complete);
                        self.unit.release_load(ldid);
                        self.unit.train(
                            DepEdge {
                                load_pc: d.pc,
                                store_pc: p.pc,
                            },
                            actual_dependence,
                        );
                    } else {
                        // False dependence prediction: the load stalls
                        // until the deadlock-avoidance release (all prior
                        // store addresses known), and the predictions that
                        // held it are weakened.
                        ready = ready.max(self.all_stores_addr_ready);
                        for e in self.unit.release_load(ldid) {
                            self.unit.train(e, false);
                        }
                        if actual_dependence {
                            // A dependence on an *unpredicted* store still
                            // violates if the store completes after the
                            // (delayed) load issues.
                            let p = producer.expect("dependence implies producer");
                            if p.complete > ready {
                                self.violate(d, &p);
                            }
                            ready = ready.max(p.complete);
                        }
                    }
                } else if actual_dependence {
                    let p = producer.expect("dependence implies producer");
                    self.violate(d, &p);
                    ready = ready.max(p.complete);
                }
            }
        }
        let start = self.mem_port_slot(ready);
        start + latency
    }

    fn violate(&mut self, d: &Row, p: &StoreRecord) {
        self.result.misspeculations += 1;
        self.restart_after = self
            .restart_after
            .max(p.complete + self.config.squash_penalty);
        if self.config.policy.uses_predictor() {
            let load_instance = self.instance_no.get(&d.pc).copied().unwrap_or(1);
            let dist = load_instance.saturating_sub(p.instance).max(1) as u32;
            self.unit.record_misspeculation(
                DepEdge {
                    load_pc: d.pc,
                    store_pc: p.pc,
                },
                dist,
                None,
            );
        }
    }

    /// Finishes the run and returns the result.
    pub fn finish(mut self) -> OooResult {
        self.result.cycles = self.last_complete.max(self.cur_cycle) + 1;
        self.result
    }
}

/// Replays one committed stream — [`mds_emu::DynInst`] records or
/// [`mds_emu::ReplayPlan`] rows — under several configurations in a
/// single walk, returning results in input order.
///
/// Each simulator is independent, so results are identical to running
/// each configuration through [`OooSim::observe`] separately. The runner
/// does exactly that, one walk per grid cell: the lockstep walk measured
/// no faster than separate walks.
pub fn run_fused<R: Into<Row>>(
    records: impl IntoIterator<Item = R>,
    configs: &[OooConfig],
) -> Vec<OooResult> {
    let mut sims: Vec<OooSim> = configs.iter().map(|&c| OooSim::new(c)).collect();
    for d in records {
        let d = d.into();
        for sim in &mut sims {
            sim.observe(d);
        }
    }
    sims.into_iter().map(OooSim::finish).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_emu::Emulator;
    use mds_isa::{Program, ProgramBuilder, Reg};

    /// A loop whose loads are independent of its stores, but whose store
    /// addresses resolve slowly (through a divide) — exactly the situation
    /// where refusing to speculate (NEVER) stalls every load behind
    /// unrelated stores while blind speculation sails through.
    fn independent_loop(iters: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.alloc("src", 4096);
        b.alloc("dst", 4096);
        b.la(Reg::S0, "src");
        b.la(Reg::S1, "dst");
        b.li(Reg::T0, iters);
        b.li(Reg::T6, 1);
        b.mv(Reg::T4, Reg::S1);
        b.label("loop");
        // The store's address was computed (slowly) from the previous
        // iteration's load. Under NEVER, the *next* load must wait for it.
        b.sd(Reg::T0, Reg::T4, 0);
        b.ld(Reg::T5, Reg::S0, 0); // load from a disjoint array
        b.div(Reg::T2, Reg::T5, Reg::T6); // 12-cycle address computation
        b.andi(Reg::T2, Reg::T2, 0xff8);
        b.add(Reg::T4, Reg::S1, Reg::T2);
        b.addi(Reg::S0, Reg::S0, 8);
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        b.build().unwrap()
    }

    /// A loop with a tight store->load recurrence through one cell.
    fn recurrence_loop(iters: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.alloc("cell", 1);
        b.la(Reg::S0, "cell");
        b.li(Reg::T0, iters);
        b.label("loop");
        b.ld(Reg::T1, Reg::S0, 0);
        b.addi(Reg::T1, Reg::T1, 1);
        b.sd(Reg::T1, Reg::S0, 0);
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        b.build().unwrap()
    }

    fn run(p: &Program, policy: Policy) -> OooResult {
        let mut sim = OooSim::new(OooConfig {
            policy,
            ..Default::default()
        });
        Emulator::new(p).run_with(|d| sim.observe(d)).unwrap();
        sim.finish()
    }

    #[test]
    fn always_beats_never_on_independent_work() {
        let p = independent_loop(500);
        let never = run(&p, Policy::Never);
        let always = run(&p, Policy::Always);
        assert!(
            always.cycles < never.cycles,
            "ALWAYS {} should beat NEVER {}",
            always.cycles,
            never.cycles
        );
        assert_eq!(always.misspeculations, 0);
    }

    #[test]
    fn blind_speculation_squashes_on_recurrences() {
        let p = recurrence_loop(500);
        let always = run(&p, Policy::Always);
        assert!(
            always.misspeculations > 100,
            "got {}",
            always.misspeculations
        );
    }

    #[test]
    fn psync_never_squashes_and_is_no_slower_than_blind() {
        let p = recurrence_loop(500);
        let always = run(&p, Policy::Always);
        let psync = run(&p, Policy::PSync);
        assert_eq!(psync.misspeculations, 0);
        assert!(
            psync.cycles <= always.cycles,
            "PSYNC {} vs ALWAYS {}",
            psync.cycles,
            always.cycles
        );
    }

    #[test]
    fn sync_predictor_eliminates_most_squashes() {
        let p = recurrence_loop(1000);
        let always = run(&p, Policy::Always);
        let sync = run(&p, Policy::Sync);
        assert!(
            sync.misspeculations * 10 <= always.misspeculations,
            "SYNC {} vs ALWAYS {}",
            sync.misspeculations,
            always.misspeculations
        );
        assert!(sync.synchronized_loads > 0);
        assert!(sync.cycles <= always.cycles);
    }

    #[test]
    fn instructions_counted_identically_across_policies() {
        let p = recurrence_loop(100);
        let counts: Vec<u64> = Policy::ALL
            .iter()
            .map(|&pol| run(&p, pol).instructions)
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn breakdown_only_populated_for_predictor_policies() {
        let p = recurrence_loop(100);
        assert_eq!(run(&p, Policy::Always).breakdown.total(), 0);
        assert!(run(&p, Policy::Sync).breakdown.total() > 0);
    }

    #[test]
    fn ipc_is_positive_and_bounded_by_width() {
        let p = independent_loop(200);
        let r = run(&p, Policy::Always);
        assert!(r.ipc() > 0.0);
        assert!(r.ipc() <= 4.0 + 1e-9);
    }

    #[test]
    fn fused_walk_matches_independent_runs() {
        let p = recurrence_loop(150);
        let records = Emulator::new(&p).run().unwrap();
        let configs: Vec<OooConfig> = Policy::ALL
            .into_iter()
            .map(|policy| OooConfig {
                policy,
                ..Default::default()
            })
            .collect();
        let fused = run_fused(&records, &configs);
        for (config, got) in configs.iter().zip(&fused) {
            let mut sim = OooSim::new(*config);
            for d in &records {
                sim.observe(d);
            }
            let expect = sim.finish();
            assert_eq!(got.cycles, expect.cycles, "{}", config.policy);
            assert_eq!(got.instructions, expect.instructions);
            assert_eq!(got.loads, expect.loads);
            assert_eq!(got.misspeculations, expect.misspeculations);
            assert_eq!(got.synchronized_loads, expect.synchronized_loads);
            assert_eq!(got.breakdown, expect.breakdown);
        }
    }
}
