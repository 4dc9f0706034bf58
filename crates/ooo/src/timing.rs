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
use mds_emu::plan::{F_MEM, F_STORE, NO_REG};
use mds_emu::{DynInst, PlanBuilder, ReplayPlan};
use mds_isa::{FuClass, Opcode, Pc};
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

/// The timing of one committed store, kept while it may still be an
/// in-window producer.
#[derive(Debug, Clone, Copy, Default)]
struct StoreTiming {
    instance: u64,
    complete: u64,
}

/// A load's in-window producer: the youngest earlier store whose bytes
/// overlap the load's, fewer than `window` records before it.
#[derive(Debug, Clone, Copy)]
struct Producer {
    pc: Pc,
    instance: u64,
    complete: u64,
}

/// The superscalar OOO timing simulator: [`OooSim::run`] replays a
/// committed stream through its [`ReplayPlan`], taking each load's
/// producer from the plan ([`ReplayPlan::producer`]).
///
/// # Examples
///
/// ```
/// use mds_isa::{ProgramBuilder, Reg};
/// use mds_emu::Trace;
/// use mds_ooo::{OooConfig, OooSim};
/// use mds_core::Policy;
///
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::T0, 50);
/// b.label("loop");
/// b.addi(Reg::T0, Reg::T0, -1);
/// b.bne(Reg::T0, Reg::ZERO, "loop");
/// b.halt();
/// let trace = Trace::capture(&b.build()?)?;
///
/// let config = OooConfig { policy: Policy::Always, ..Default::default() };
/// let r = OooSim::run(config, trace.replay_plan());
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
    // Per store ordinal, modulo a power of two no smaller than the
    // window: fewer than `window` stores follow an in-window producer,
    // so its slot still holds it.
    stores: Vec<StoreTiming>,
    // Per-PC dynamic instance numbering (the superscalar instance scheme).
    instance_no: Vec<u64>,
    // Running max of store address-ready times.
    all_stores_addr_ready: u64,
    last_complete: u64,
    result: OooResult,
    ldid_counter: u32,
}

impl OooSim {
    fn new(config: OooConfig, pcs: usize) -> Self {
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
            stores: vec![StoreTiming::default(); config.window.next_power_of_two()],
            instance_no: vec![0; pcs],
            all_stores_addr_ready: 0,
            last_complete: 0,
            result: OooResult::default(),
            ldid_counter: 0,
        }
    }

    /// Replays the committed stream of `plan` under `config`.
    pub fn run(config: OooConfig, plan: &ReplayPlan) -> OooResult {
        let mut sim = OooSim::new(config, plan.code.len());
        let (mut loads, mut stores) = (0, 0);
        for (seq, &pc) in plan.pc.iter().enumerate() {
            let d = &plan.code[pc as usize];
            let dispatch = sim.dispatch_slot();
            // Operand readiness from register dataflow.
            let mut ready = dispatch;
            for r in d.src {
                if r != NO_REG {
                    ready = ready.max(sim.reg_avail[r as usize]);
                }
            }
            let latency = sim.op_latency(d.op);
            let complete = if d.flags & F_MEM == 0 {
                ready + latency
            } else {
                let instance = &mut sim.instance_no[pc as usize];
                *instance += 1;
                let instance = *instance;
                if d.flags & F_STORE != 0 {
                    stores += 1;
                    sim.store(pc, seq, stores - 1, instance, ready, latency)
                } else {
                    loads += 1;
                    sim.load(plan, seq, loads - 1, instance, ready, latency)
                }
            };
            if d.dst != NO_REG {
                sim.reg_avail[d.dst as usize] = complete;
            }
            sim.retire_queue.push_back(complete);
            sim.last_complete = sim.last_complete.max(complete);
        }
        sim.result.instructions = plan.len() as u64;
        sim.result.cycles = sim.last_complete.max(sim.cur_cycle) + 1;
        sim.result
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

    /// Issues store `ord` (record `seq`) and returns its completion time.
    fn store(
        &mut self,
        pc: Pc,
        seq: usize,
        ord: usize,
        instance: u64,
        ready: u64,
        latency: u64,
    ) -> u64 {
        let complete = self.mem_port_slot(ready) + latency;
        let slot = ord & (self.stores.len() - 1);
        self.stores[slot] = StoreTiming { instance, complete };
        self.all_stores_addr_ready = self.all_stores_addr_ready.max(ready);
        if self.config.policy.uses_predictor() {
            self.unit.on_store_issue(pc, instance, seq as u32);
        }
        complete
    }

    /// Issues load `lo` (record `seq`) under the policy and returns its
    /// completion time.
    fn load(
        &mut self,
        plan: &ReplayPlan,
        seq: usize,
        lo: usize,
        instance: u64,
        mut ready: u64,
        latency: u64,
    ) -> u64 {
        self.result.loads += 1;
        let pc = plan.pc[seq];
        // Only an in-window producer can delay the load. An older one
        // completed before the load dispatched: the slot of the record
        // `window` after it freed only once it completed, and dispatch
        // never goes back.
        let producer = plan
            .producer(lo)
            .map(|ord| (ord, plan.store_rec[ord] as usize))
            .filter(|&(_, rec)| seq - rec < self.config.window)
            .map(|(ord, rec)| {
                let t = self.stores[ord & (self.stores.len() - 1)];
                Producer {
                    pc: plan.pc[rec],
                    instance: t.instance,
                    complete: t.complete,
                }
            });
        // The producer when it completes after the load is ready: an
        // actual dependence.
        let dependent = producer.filter(|p| p.complete > ready);
        let actual_dependence = dependent.is_some();

        match self.config.policy {
            Policy::Never => {
                ready = ready.max(self.all_stores_addr_ready);
                if let Some(p) = producer {
                    ready = ready.max(p.complete);
                }
            }
            Policy::Wait => {
                if let Some(p) = producer {
                    ready = ready.max(self.all_stores_addr_ready).max(p.complete);
                }
            }
            Policy::PSync => {
                if let Some(p) = producer {
                    ready = ready.max(p.complete);
                }
            }
            Policy::Always => {
                if let Some(p) = dependent {
                    self.violate(pc, instance, &p);
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
                let decision = self.unit.on_load_ready(pc, instance, ldid, None);
                let predicted = decision != LoadDecision::NotPredicted;
                self.result.breakdown.record(predicted, actual_dependence);
                if predicted {
                    self.result.synchronized_loads += 1;
                    let synced = producer.filter(|p| {
                        let edge = DepEdge {
                            load_pc: pc,
                            store_pc: p.pc,
                        };
                        self.unit.mdpt().iter().any(|e| e.edge == edge)
                    });
                    if let Some(p) = synced {
                        // Successful synchronization: wake at the store's
                        // completion, no squash.
                        ready = ready.max(p.complete);
                        self.unit.release_load(ldid);
                        self.unit.train(
                            DepEdge {
                                load_pc: pc,
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
                        // A dependence on an *unpredicted* store still
                        // violates if the store completes after the
                        // (delayed) load issues.
                        if let Some(p) = dependent {
                            if p.complete > ready {
                                self.violate(pc, instance, &p);
                            }
                            ready = ready.max(p.complete);
                        }
                    }
                } else if let Some(p) = dependent {
                    self.violate(pc, instance, &p);
                    ready = ready.max(p.complete);
                }
            }
        }
        let start = self.mem_port_slot(ready);
        start + latency
    }

    fn violate(&mut self, pc: Pc, instance: u64, p: &Producer) {
        self.result.misspeculations += 1;
        self.restart_after = self
            .restart_after
            .max(p.complete + self.config.squash_penalty);
        if self.config.policy.uses_predictor() {
            let dist = instance.saturating_sub(p.instance).max(1) as u32;
            self.unit.record_misspeculation(
                DepEdge {
                    load_pc: pc,
                    store_pc: p.pc,
                },
                dist,
                None,
            );
        }
    }
}

/// Record adapter: lowers `records` into a [`ReplayPlan`] and runs
/// [`OooSim::run`] under each configuration, returning results in input
/// order. Only the benchmark's traced waterfall still feeds records;
/// ROADMAP item 4 deletes this adapter with it.
pub fn run_fused<'a>(
    records: impl IntoIterator<Item = &'a DynInst>,
    configs: &[OooConfig],
) -> Vec<OooResult> {
    let mut builder = PlanBuilder::new();
    for d in records {
        builder.push(d);
    }
    let plan = builder.finish();
    configs.iter().map(|&c| OooSim::run(c, &plan)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_emu::Trace;
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
        let config = OooConfig {
            policy,
            ..Default::default()
        };
        OooSim::run(config, Trace::capture(p).unwrap().replay_plan())
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
        let trace = Trace::capture(&recurrence_loop(150)).unwrap();
        let configs: Vec<OooConfig> = Policy::ALL
            .into_iter()
            .map(|policy| OooConfig {
                policy,
                ..Default::default()
            })
            .collect();
        let fused = run_fused(trace.records(), &configs);
        for (config, got) in configs.iter().zip(&fused) {
            let expect = OooSim::run(*config, trace.replay_plan());
            assert_eq!(got, &expect, "{}", config.policy);
        }
    }
}
