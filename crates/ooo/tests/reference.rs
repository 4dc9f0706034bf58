//! The window analyzer reads each load's producer from the replay plan,
//! whose builder is the workspace's one store→load matcher. These tests
//! check its whole report against an independent reference: a backward
//! scan of each load's earlier stores in `Trace::records()` for the
//! youngest one whose bytes overlap the load's — over random streams
//! with byte and unaligned word accesses, sampled members of the example
//! WDL families, and every registered workload.
//!
//! They also check that the record adapters (`WindowAnalyzer::observe`
//! with `finish`, and `run_fused` over records) equal the plan path, for
//! the window analyzer and for the superscalar model under every policy.

use mds_core::{Ddc, DepEdge, Policy};
use mds_emu::{BranchOutcome, DynInst, MemAccess, Trace};
use mds_harness::hash::FxHashMap;
use mds_harness::prelude::*;
use mds_isa::{Instruction, Opcode, Pc, Program, Reg};
use mds_ooo::{
    run_fused, OooConfig, OooSim, WindowAnalyzer, WindowConfig, WindowReport, WindowStats,
};
use mds_sim::stats::Histogram;
use mds_workloads::Scale;

fn window_config() -> WindowConfig {
    WindowConfig {
        window_sizes: vec![4, 16, 64, 512],
        ddc_sizes: vec![2, 32],
    }
}

/// The report of `config` over `records`, with each load's producer found
/// by scanning its earlier stores backwards for the first whose bytes
/// overlap it.
fn reference(records: &[DynInst], config: &WindowConfig) -> WindowReport {
    let mut windows: Vec<(WindowStats, Vec<Ddc>)> = config
        .window_sizes
        .iter()
        .map(|&window_size| {
            let stats = WindowStats {
                window_size,
                misspeculations: 0,
                edge_counts: FxHashMap::default(),
                ddcs: Vec::new(),
            };
            (
                stats,
                config.ddc_sizes.iter().map(|&n| Ddc::new(n)).collect(),
            )
        })
        .collect();
    let mut distances = Histogram::new("store->load distance");
    // Every store so far: `(seq, pc, access)`.
    let mut stores: Vec<(u64, Pc, MemAccess)> = Vec::new();
    let mut loads = 0;
    for d in records {
        let Some(m) = d.mem else { continue };
        if m.is_store {
            stores.push((d.seq, d.pc, m));
            continue;
        }
        loads += 1;
        let Some(&(seq, store_pc, _)) = stores.iter().rev().find(|s| s.2.overlaps(&m)) else {
            continue;
        };
        let distance = d.seq - seq;
        distances.record(distance);
        let edge = DepEdge {
            load_pc: d.pc,
            store_pc,
        };
        for (w, ddcs) in &mut windows {
            if distance < u64::from(w.window_size) {
                w.misspeculations += 1;
                *w.edge_counts.entry(edge).or_insert(0) += 1;
                for ddc in ddcs {
                    ddc.observe(edge);
                }
            }
        }
    }
    let per_window = windows
        .into_iter()
        .map(|(mut w, ddcs)| {
            w.ddcs = ddcs
                .iter()
                .map(|d| (d.capacity(), d.hits(), d.misses()))
                .collect();
            w
        })
        .collect();
    let n = records.len() as u64;
    WindowReport::from_parts(per_window, n, loads, stores.len() as u64, distances)
}

/// Checks the plan-fed window report of `trace` against the reference
/// scan, and both record adapters against the plan path.
fn check(trace: &Trace, what: &str) {
    let records = trace.records();
    let plan = trace.replay_plan();
    let config = window_config();
    let analyzed = WindowAnalyzer::new(config.clone()).analyze(plan);
    assert_eq!(analyzed, reference(records, &config), "{what}: window");

    let mut adapter = WindowAnalyzer::new(config);
    for d in records {
        adapter.observe(d);
    }
    assert_eq!(adapter.finish(), analyzed, "{what}: window adapter");

    let configs: Vec<OooConfig> = Policy::ALL
        .into_iter()
        .map(|policy| OooConfig {
            policy,
            window: 32,
            ..OooConfig::default()
        })
        .collect();
    for (config, fed) in configs.iter().zip(run_fused(records, &configs)) {
        let run = OooSim::run(*config, plan);
        assert_eq!(fed, run, "{what}: superscalar adapter, {}", config.policy);
    }
}

/// Number of static instructions in a synthetic program.
const CODE: usize = 24;

/// Synthesizes the static instruction at one PC from a `(kind, sel)`
/// pair.
fn instruction(kind: usize, sel: u16) -> Instruction {
    let sel = sel as usize;
    let byte = sel.is_multiple_of(3);
    let xr = |n: usize| Reg::x((n % 32) as u8);
    match kind {
        0 => Instruction::rrr(Opcode::Add, xr(sel), xr(sel / 3), xr(sel / 7)),
        1 => Instruction::rrr(Opcode::Div, xr(sel), xr(sel / 3), xr(sel / 7)),
        2 => Instruction::branch(Opcode::Bne, xr(sel), xr(sel / 5), 0),
        3 | 4 => Instruction::load(
            if byte { Opcode::Lb } else { Opcode::Ld },
            xr(sel),
            xr(sel / 3),
            0,
        ),
        _ => Instruction::store(
            if byte { Opcode::Sb } else { Opcode::Sd },
            xr(sel),
            xr(sel / 3),
            0,
        ),
    }
}

/// Synthesizes one committed record of `inst` at `pc`. Addresses come
/// from a 20-byte pool, so word accesses are often unaligned and overlap
/// byte accesses and both neighbouring aligned words; records revisit
/// the program's PCs so the dependence predictors train.
fn record(i: usize, pc: usize, inst: Instruction, sel: u16) -> DynInst {
    let sel = sel as usize;
    let op = inst.op;
    DynInst {
        seq: i as u64,
        pc: pc as Pc,
        inst,
        mem: op.is_mem().then(|| MemAccess {
            addr: 0x1000_0000 + (sel % 20) as u64,
            size: op.access_bytes(),
            is_store: op.is_store(),
        }),
        branch: op.is_control().then(|| BranchOutcome {
            taken: sel.is_multiple_of(2),
            next_pc: 0,
        }),
        new_task: sel.is_multiple_of(5),
    }
}

/// The tiny-scale programs of one sampled member of an example WDL
/// family (`family` picks `compress_like`, `fpppp_like` or `swim_like`).
fn wdl_member(family: usize, seed: u64) -> (String, Program) {
    let name = ["compress_like", "fpppp_like", "swim_like"][family];
    let path = format!("{}/../../examples/{name}.wdl", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("example spec");
    let spec = mds_wdl::parse_spec(&src).expect("example spec parses");
    let inst = mds_wdl::instantiate(&spec.scenarios[0], seed, 0);
    (inst.name(), mds_wdl::compile(&inst, Scale::Tiny))
}

properties! {
    #![config(PropConfig { cases: 48, ..PropConfig::default() })]

    /// On random streams of byte and unaligned word accesses, the
    /// plan-fed report equals the reference scan's.
    #[test]
    fn reports_equal_a_byte_range_scan_on_random_streams(
        code in vec_of((0usize..7, any::<u16>()), CODE..CODE + 1),
        cells in vec_of((0usize..CODE, any::<u16>()), 1..300),
    ) {
        let insts: Vec<Instruction> = code.iter().map(|&(k, s)| instruction(k, s)).collect();
        let records: Vec<DynInst> = cells
            .iter()
            .enumerate()
            .map(|(i, &(pc, sel))| record(i, pc, insts[pc], sel))
            .collect();
        check(&Trace::from_parts(records, Default::default()), "random stream");
    }
}

properties! {
    #![config(PropConfig { cases: 6, ..PropConfig::default() })]

    /// On sampled members of the example WDL families, the plan-fed
    /// report equals the reference scan's.
    #[test]
    fn reports_equal_a_byte_range_scan_on_wdl_members(
        family in 0usize..3,
        seed in any::<u64>(),
    ) {
        let (name, program) = wdl_member(family, seed);
        check(&Trace::capture(&program).expect("program runs"), &name);
    }
}

/// On every registered workload at tiny scale, the plan-fed report
/// equals the reference scan's.
#[test]
fn reports_equal_a_byte_range_scan_on_every_workload() {
    let workloads = mds_workloads::all();
    assert_eq!(workloads.len(), 23);
    for wl in workloads {
        let trace = Trace::capture(&wl.build(Scale::Tiny)).expect("workload runs");
        check(&trace, wl.name);
    }
}
