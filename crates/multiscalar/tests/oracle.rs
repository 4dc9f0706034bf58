//! An outside oracle for the Multiscalar replay engine: every load and
//! store a replay reports is checked against the issue rule of its
//! speculation policy (the paper's §5.4/§5.5, `mds_core::Policy`).
//!
//! The framing is axiomatic load/store ordering (Zhang, Vijayaraghavan &
//! Arvind, "Taming Weak Memory Models", 2016): a replay is legal when the
//! issue and data-ready cycles it reports satisfy a few ordering axioms,
//! whatever timing produced them. As in sound predictive checking over
//! one trace (Genç et al., 2019), the axioms are evaluated over the single
//! committed trace, with the true store→load producers computed from the
//! records themselves.
//!
//! A load of task `k` sees a *window* of the up to `stages - 1` tasks
//! before it. Its *in-window producer* is the youngest store of a window
//! task whose bytes overlap the load's. The rules:
//!
//! - **every policy**: nothing issues before its attempt starts; a load
//!   issues only once the address of every earlier store of its own task
//!   is known and the data of its youngest overlapping earlier same-task
//!   store is ready (intra-task dependences are never speculated); tasks
//!   start in order;
//! - **NEVER**: a load issues only once every window store's address is
//!   known, and never before its in-window producer's data is ready;
//! - **WAIT**: a load with an in-window producer waits for every window
//!   store's address and for the producer's data;
//! - **PSYNC**: no load issues before its in-window producer's data;
//! - **SYNC/ESYNC**: a load synchronized on a predicted (store PC,
//!   distance) pair issues no earlier than that store's data-ready cycle
//!   plus the signal latency; when a named store is not in the window, no
//!   earlier than every window store's address is known;
//! - **ALWAYS, SYNC, ESYNC**: a load that issues before its in-window
//!   producer's data is ready is a violation. The attempt is squashed at
//!   the earliest such data-ready cycle, the task restarts
//!   `squash_penalty` cycles later, and an attempt without one commits.
//!   NEVER, WAIT and PSYNC never squash;
//! - **totals**: squashes equal `misspeculations`; the table-8 breakdown
//!   reconciles with the committed loads, the squashes and
//!   `synchronized_loads`; `false_dep_releases` counts the committed loads
//!   a missing signal released; committed counts match the records.
//!
//! Producers come from the plan's `load_intra`/`load_inter`, but only
//! after a check that they equal a brute-force backward scan over
//! `Trace::records()`, so the oracle does not trust `PlanBuilder`. The
//! scan matches byte ranges, which the plan's word-keyed matcher agrees
//! with on aligned accesses; the oracle checks that every access of the
//! programs it runs is aligned.

use mds_core::{MdptEntry, Policy, TagScheme};
use mds_emu::plan::NONE;
use mds_emu::{MemAccess, Trace};
use mds_harness::prelude::*;
use mds_isa::Pc;
use mds_multiscalar::{run_planned_with, MsConfig, ReplayObserver};
use mds_workloads::Scale;
use std::ops::Range;

/// The largest stage count checked: producers further back than
/// `MAX_STAGES - 1` tasks are never in a window.
const MAX_STAGES: usize = 8;

/// Static facts about one trace, computed from its records alone.
struct Facts {
    /// Per task: its first record, plus a sentinel.
    task_start: Vec<usize>,
    /// Per store: `(task, pc)`.
    stores: Vec<(usize, Pc)>,
    /// Per load: its task.
    loads: Vec<usize>,
    /// Per load: the youngest overlapping earlier store of its own task.
    intra: Vec<Option<usize>>,
    /// Per load: the youngest overlapping store of the `MAX_STAGES - 1`
    /// tasks before its own.
    inter: Vec<Option<usize>>,
}

fn overlaps(a: &MemAccess, b: &MemAccess) -> bool {
    a.addr < b.addr + b.size as u64 && b.addr < a.addr + a.size as u64
}

impl Facts {
    /// Derives the facts by brute force, then checks that the trace's
    /// replay plan numbers loads and stores the same way and resolved the
    /// same producers.
    fn new(name: &str, trace: &Trace) -> Facts {
        let records = trace.records();
        let (mut task_start, mut stores, mut loads) = (Vec::new(), Vec::new(), Vec::new());
        let (mut store_rec, mut load_rec) = (Vec::new(), Vec::new());
        // Per record: its store ordinal, if it is a store.
        let mut store_ord = vec![None; records.len()];
        for (i, d) in records.iter().enumerate() {
            if i == 0 || d.new_task {
                task_start.push(i);
            }
            let task = task_start.len() - 1;
            match d.mem {
                Some(m) if m.addr % m.size as u64 != 0 => panic!("{name}: unaligned {d:?}"),
                Some(m) if m.is_store => {
                    store_ord[i] = Some(stores.len());
                    stores.push((task, d.pc));
                    store_rec.push(i as u32);
                }
                Some(_) => {
                    loads.push(task);
                    load_rec.push(i as u32);
                }
                None => {}
            }
        }
        task_start.push(records.len());

        // Scan back from each load for the youngest overlapping store.
        let youngest = |range: Range<usize>, load: &MemAccess| {
            range.rev().find_map(|j| {
                let m = records[j].mem?;
                (m.is_store && overlaps(&m, load)).then(|| store_ord[j].unwrap())
            })
        };
        let (mut intra, mut inter) = (Vec::new(), Vec::new());
        for (&i, &task) in load_rec.iter().zip(&loads) {
            let (i, load) = (i as usize, records[i as usize].mem.unwrap());
            let oldest = task.saturating_sub(MAX_STAGES - 1);
            intra.push(youngest(task_start[task]..i, &load));
            inter.push(youngest(task_start[oldest]..task_start[task], &load));
        }

        // The plan must agree: same numbering, same producers. Past the
        // scan's reach, the plan's producer may be any older store.
        let plan = trace.replay_plan();
        assert_eq!(plan.store_rec, store_rec, "{name}: store numbering");
        assert_eq!(plan.load_rec, load_rec, "{name}: load numbering");
        let opt = |x: u32| (x != NONE).then_some(x as usize);
        for (l, &task) in loads.iter().enumerate() {
            let (planned, scanned) = (opt(plan.load_inter[l]), inter[l]);
            let agrees = match scanned {
                Some(s) => planned == Some(s),
                None => planned.is_none_or(|s| stores[s].0 + MAX_STAGES - 1 < task),
            };
            let at = format!("{name}: load {l} (record {})", load_rec[l]);
            assert_eq!(
                opt(plan.load_intra[l]),
                intra[l],
                "{at}: same-task producer"
            );
            assert!(agrees, "{at}: plan producer {planned:?}, scan {scanned:?}");
        }
        Facts {
            task_start,
            stores,
            loads,
            intra,
            inter,
        }
    }

    fn tasks(&self) -> usize {
        self.task_start.len() - 1
    }

    /// The global ordinals of task `k`'s stores.
    fn stores_of(&self, k: usize) -> Range<usize> {
        let at = |k| self.stores.partition_point(|&(t, _)| t < k);
        at(k)..at(k + 1)
    }

    /// The global ordinals of task `k`'s loads.
    fn loads_of(&self, k: usize) -> Range<usize> {
        let at = |k| self.loads.partition_point(|&t| t < k);
        at(k)..at(k + 1)
    }
}

/// One reported memory access of an attempt, in program order.
#[derive(Debug)]
enum Access {
    /// `(store, addr_ready, data_ready)`.
    Store(usize, u64, u64),
    /// `(load, issue, sync)`: `sync` holds the `(distance, store PC)` of
    /// each prediction the load synchronized on.
    Load(usize, u64, Vec<(u32, Pc)>),
}

/// One reported attempt.
#[derive(Debug)]
struct Attempt {
    task: usize,
    t0: u64,
    accesses: Vec<Access>,
    squash: Option<u64>,
}

/// Records every attempt of a replay.
#[derive(Default)]
struct Recorder(Vec<Attempt>);

impl Recorder {
    fn push(&mut self, access: Access) {
        let attempt = self.0.last_mut().expect("accesses follow an attempt");
        attempt.accesses.push(access);
    }
}

impl ReplayObserver for Recorder {
    fn attempt(&mut self, task: usize, t0: u64) {
        self.0.push(Attempt {
            task,
            t0,
            accesses: Vec::new(),
            squash: None,
        });
    }

    fn store(&mut self, store: usize, addr_ready: u64, data_ready: u64) {
        self.push(Access::Store(store, addr_ready, data_ready));
    }

    fn load(&mut self, load: usize, issue: u64, sync: &[MdptEntry]) {
        let sync = sync.iter().map(|e| (e.dist, e.edge.store_pc)).collect();
        self.push(Access::Load(load, issue, sync));
    }

    fn squash(&mut self, detect: u64) {
        self.0.last_mut().expect("a squash ends an attempt").squash = Some(detect);
    }
}

/// What the checked replays exercised, so a suite can show it is not
/// vacuous: `[squashes, synchronized loads, releases, in-window
/// producers]`.
type Tally = [u64; 4];

fn add<const N: usize>(a: [u64; N], b: [u64; N]) -> [u64; N] {
    std::array::from_fn(|i| a[i] + b[i])
}

/// Replays `trace` under `config` and checks every reported access
/// against the policy's issue rule (see the module docs).
fn check(name: &str, trace: &Trace, facts: &Facts, config: &MsConfig) -> Tally {
    let mut recorder = Recorder::default();
    let r = run_planned_with(trace, config, &mut recorder);
    let policy = config.policy;
    let stages = config.stages.max(1);
    let at = format!("{name}, {stages} stages, {policy}, {:?}", config.tagging);
    let speculates = matches!(policy, Policy::Always | Policy::Sync | Policy::Esync);

    // Address-ready and data-ready cycles of committed stores.
    let mut addr_ready = vec![u64::MAX; facts.stores.len()];
    let mut data_ready = vec![u64::MAX; facts.stores.len()];
    let (mut next_task, mut restart, mut last_start) = (0, None, None);
    let (mut producers, mut releases) = (0, 0);
    // Committed loads without and with a prediction; squashes by whether
    // the violating load had one.
    let (mut committed, mut squashes) = ([0u64; 2], [0u64; 2]);

    for a in &recorder.0 {
        let k = a.task;
        let at = format!("{at}, task {k}, attempt at {}", a.t0);
        assert_eq!(
            k, next_task,
            "{at}: tasks run in order, each until it commits"
        );
        match restart {
            Some(t) => assert_eq!(a.t0, t, "{at}: restart after a squash"),
            None => assert!(last_start.is_none_or(|s| a.t0 > s), "{at}: task order"),
        }
        let lo = k.saturating_sub(stages - 1);
        let own = facts.stores_of(k);
        let window = facts.stores_of(lo).start..own.start;
        let window_addr_ready = window.map(|s| addr_ready[s]).max().unwrap_or(0);

        // The attempt reports its task's stores and loads, in order.
        let reported = |store: bool| {
            a.accesses.iter().filter_map(move |x| match *x {
                Access::Store(s, ..) if store => Some(s),
                Access::Load(l, ..) if !store => Some(l),
                _ => None,
            })
        };
        assert!(reported(true).eq(own.clone()), "{at}: stores");
        assert!(reported(false).eq(facts.loads_of(k)), "{at}: loads");

        let mut own_addr = vec![0; own.len()];
        let mut own_data = vec![0; own.len()];
        let mut intra_addr_ready = 0;
        // `(detect, predicted)` per early load, in program order.
        let mut early_loads: Vec<(u64, bool)> = Vec::new();
        let (mut loads, mut released) = ([0u64; 2], 0);
        for access in &a.accesses {
            let (l, issue, sync) = match access {
                &Access::Store(s, addr, data) => {
                    assert!(
                        addr >= a.t0 && data >= addr,
                        "{at}: store {s} at {addr}/{data}"
                    );
                    own_addr[s - own.start] = addr;
                    own_data[s - own.start] = data;
                    intra_addr_ready = intra_addr_ready.max(addr);
                    continue;
                }
                Access::Load(l, issue, sync) => (*l, *issue, sync),
            };
            let at = format!("{at}, load {l} issued at {issue}");
            let need = |bound: u64, what: &str| {
                assert!(issue >= bound, "{at}: issued before {what} ({bound})");
            };
            need(a.t0, "its attempt started");
            need(intra_addr_ready, "an earlier same-task store's address");
            if let Some(s) = facts.intra[l] {
                need(own_data[s - own.start], "its same-task producer's data");
            }
            let producer = facts.inter[l].filter(|&s| facts.stores[s].0 >= lo);
            let producer_data = producer.map(|s| data_ready[s]);
            let early = producer_data.is_some_and(|d| d > issue);
            producers += producer.is_some() as u64;
            match policy {
                Policy::Never | Policy::Wait | Policy::PSync => {
                    if policy == Policy::Never || policy == Policy::Wait && producer.is_some() {
                        need(window_addr_ready, "every window store's address");
                    }
                    assert!(!early, "{at}: {policy} issued before its producer's data");
                }
                Policy::Always => {}
                Policy::Sync | Policy::Esync => {
                    let mut missing = false;
                    for &(dist, store_pc) in sync {
                        let signal = match config.tagging {
                            TagScheme::DependenceDistance => k
                                .checked_sub(dist as usize)
                                .filter(|&ps| ps >= lo && ps < k)
                                .and_then(|ps| {
                                    facts
                                        .stores_of(ps)
                                        .filter(|&s| facts.stores[s].1 == store_pc)
                                        .map(|s| data_ready[s])
                                        .max()
                                }),
                            TagScheme::DataAddress => producer
                                .filter(|&s| facts.stores[s].1 == store_pc)
                                .map(|s| data_ready[s]),
                        };
                        match signal {
                            Some(t) => need(t + config.signal_latency, "its store's signal"),
                            None => missing = true,
                        }
                    }
                    if missing {
                        need(window_addr_ready, "every window store's address");
                        released += 1;
                    }
                }
            }
            loads[!sync.is_empty() as usize] += 1;
            if early && speculates {
                early_loads.push((producer_data.unwrap(), !sync.is_empty()));
            }
        }

        let violation = early_loads.iter().min_by_key(|&&(detect, _)| detect);
        match (violation, a.squash) {
            (Some(&(want, predicted)), Some(detect)) => {
                assert_eq!(detect, want, "{at}: squashed at the earliest violation");
                squashes[predicted as usize] += 1;
                restart = Some(detect + config.squash_penalty);
            }
            (None, None) => {
                for (i, s) in own.enumerate() {
                    (addr_ready[s], data_ready[s]) = (own_addr[i], own_data[i]);
                }
                committed = add(committed, loads);
                releases += released;
                (restart, last_start) = (None, Some(a.t0));
                next_task += 1;
            }
            (Some(_), None) => panic!("{at}: a load issued before its producer's data commits"),
            (None, Some(d)) => panic!("{at}: squashed at {d} with no violation"),
        }
    }
    assert_eq!(next_task, facts.tasks(), "{at}: every task commits");

    let misspeculations = squashes[0] + squashes[1];
    assert_eq!(
        [r.misspeculations, r.tasks, r.instructions],
        [
            misspeculations,
            facts.tasks() as u64,
            facts.task_start[facts.tasks()] as u64
        ],
        "{at}: squashes, tasks, instructions"
    );
    assert_eq!(
        [r.committed_loads, r.committed_stores],
        [facts.loads.len() as u64, facts.stores.len() as u64],
        "{at}: committed loads and stores"
    );
    // Table 8: a committed load counts once, as predicted or not, and
    // as dependent when it synchronized; a squash counts once, as
    // dependent, by whether its violating load was predicted.
    let b = r.breakdown;
    let (synced, predictor) = (r.synchronized_loads, policy.uses_predictor());
    let want = if predictor {
        [
            committed[0],
            squashes[0],
            committed[1].checked_sub(synced).expect("Y/N"),
            synced + squashes[1],
            releases,
        ]
    } else {
        [0; 5]
    };
    let got = [
        b.count(false, false),
        b.count(false, true),
        b.count(true, false),
        b.count(true, true),
        r.false_dep_releases,
    ];
    assert_eq!(got, want, "{at}: N/N, N/Y, Y/N, Y/Y, releases");
    if !predictor {
        assert_eq!(synced, 0, "{at}: synchronized loads");
    }
    [misspeculations, synced, releases, producers]
}

/// Every policy at 4 and 8 stages, plus SYNC and ESYNC with address
/// tagging at 8 stages.
fn configs() -> Vec<MsConfig> {
    let mut configs: Vec<MsConfig> = [4, 8]
        .into_iter()
        .flat_map(|stages| Policy::ALL.map(|policy| MsConfig::paper(stages, policy)))
        .collect();
    for policy in [Policy::Sync, Policy::Esync] {
        let mut config = MsConfig::paper(8, policy);
        config.tagging = TagScheme::DataAddress;
        configs.push(config);
    }
    configs
}

/// Checks one program under every configuration of [`configs`].
fn check_program(name: &str, program: &mds_isa::Program) -> Tally {
    let trace = Trace::capture(program).expect("program runs");
    let facts = Facts::new(name, &trace);
    configs().iter().fold([0; 4], |t, config| {
        add(t, check(name, &trace, &facts, config))
    })
}

#[test]
fn every_workload_obeys_its_policies_issue_rules() {
    let workloads = mds_workloads::all();
    assert_eq!(workloads.len(), 23);
    let tally = workloads.iter().fold([0; 4], |t, w| {
        add(t, check_program(w.name, &w.build(Scale::Tiny)))
    });
    // Not vacuous: squashes, synchronized loads, releases and in-window
    // producers all occurred.
    assert!(tally.iter().all(|&n| n > 0), "{tally:?}");
}

properties! {
    #![config(PropConfig { cases: 8, ..PropConfig::default() })]

    /// Sampled WDL scenarios with dependences at co-resident distances
    /// obey every policy's issue rules (at small scale: a tiny member has
    /// only 17 tasks, however many its scenario declares).
    #[test]
    fn wdl_families_obey_their_policies_issue_rules(
        seed in any::<u64>(),
        shape in (256u64..1025, 1u64..17),
        rates in (50u64..100, 0u64..51, 10u64..61),
        distances in vec_of(1u64..9, 1usize..4),
    ) {
        let (tasks, edges) = shape;
        let (loc_pct, path_pct, mass_pct) = rates;
        let mass = mass_pct as f64 / 100.0 / distances.len() as f64;
        let mut distances = distances;
        distances.sort_unstable();
        distances.dedup();
        let dists: Vec<String> = distances.iter().map(|d| format!("{d}: {mass:.4}")).collect();
        let src = format!(
            "scenario sampled {{\n\
               seed = {seed}\n\
               tasks = {tasks}\n\
               edges = {edges}\n\
               locality = 0.{loc_pct:02}\n\
               path_dep = 0.{path_pct:02}\n\
               distances = {{ {} }}\n\
             }}",
            dists.join(", ")
        );
        let spec = mds_wdl::parse_spec(&src).expect("sampled spec parses");
        let inst = mds_wdl::instantiate(&spec.scenarios[0], seed ^ 0x0dac1e, 0);
        check_program(&inst.canonical(), &mds_wdl::compile(&inst, Scale::Small));
    }
}
