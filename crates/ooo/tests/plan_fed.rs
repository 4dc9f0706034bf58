//! The analyzers read one stream two ways: as `DynInst` records or as
//! `ReplayPlan` rows. Both must give identical results — over random
//! record streams with byte stores and unaligned word accesses (where
//! `WindowAnalyzer` and `OooSim` key stores differently), and over every
//! registered workload plus the WDL examples at tiny scale.

use mds_core::Policy;
use mds_emu::{BranchOutcome, DynInst, MemAccess, ReplayPlan, Trace};
use mds_harness::prelude::*;
use mds_isa::{Instruction, Opcode, Pc, Program, Reg};
use mds_ooo::{run_fused, OooConfig, OooSim, WindowAnalyzer, WindowConfig};
use mds_workloads::Scale;
use std::path::PathBuf;

/// One superscalar configuration per speculation policy.
fn configs() -> Vec<OooConfig> {
    Policy::ALL
        .into_iter()
        .map(|policy| OooConfig {
            policy,
            window: 32,
            ..OooConfig::default()
        })
        .collect()
}

fn window_config() -> WindowConfig {
    WindowConfig {
        window_sizes: vec![4, 16, 64, 512],
        ddc_sizes: vec![2, 32],
    }
}

/// Asserts record-fed and plan-fed runs agree on `trace` for the window
/// analyzer and for every superscalar configuration, both one simulator
/// at a time and fused.
fn assert_feeds_agree(trace: &Trace, what: &str) {
    let records = trace.records();
    let plan = trace.replay_plan();

    let mut by_record = WindowAnalyzer::new(window_config());
    let mut by_row = WindowAnalyzer::new(window_config());
    for d in records {
        by_record.observe(d);
    }
    for row in plan.rows() {
        by_row.observe(row);
    }
    assert_eq!(by_record.finish(), by_row.finish(), "{what}: window");

    let configs = configs();
    let fused = run_fused(plan.rows(), &configs);
    assert_eq!(run_fused(records, &configs), fused, "{what}: fused");
    for (config, fused) in configs.iter().zip(&fused) {
        let mut sim = OooSim::new(*config);
        for d in records {
            sim.observe(d);
        }
        assert_eq!(&sim.finish(), fused, "{what}: {}", config.policy);
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
/// byte accesses; records revisit the program's PCs so the dependence
/// predictors train.
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

properties! {
    #![config(PropConfig { cases: 48, ..PropConfig::default() })]

    /// Plan-fed analyzers equal record-fed ones on random streams.
    #[test]
    fn plan_rows_and_records_feed_identically(
        code in vec_of((0usize..7, any::<u16>()), CODE..CODE + 1),
        cells in vec_of((0usize..CODE, any::<u16>()), 1..300),
    ) {
        let insts: Vec<Instruction> = code.iter().map(|&(k, s)| instruction(k, s)).collect();
        let records: Vec<DynInst> = cells
            .iter()
            .enumerate()
            .map(|(i, &(pc, sel))| record(i, pc, insts[pc], sel))
            .collect();
        let trace = Trace::from_parts(records, Default::default());
        assert_feeds_agree(&trace, "random stream");
    }
}

/// Every registered workload and two members of each WDL example family,
/// at tiny scale.
fn tiny_programs() -> Vec<(String, Program)> {
    let mut programs: Vec<(String, Program)> = mds_workloads::all()
        .into_iter()
        .map(|wl| (wl.name.to_string(), wl.build(Scale::Tiny)))
        .collect();
    let examples = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    for name in ["compress_like", "fpppp_like", "swim_like"] {
        let path = examples.join(format!("{name}.wdl"));
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let spec = mds_wdl::parse_spec(&src).unwrap_or_else(|d| panic!("{name}: {d:?}"));
        for inst in mds_wdl::expand(&spec.scenarios[0], 0, 2) {
            programs.push((inst.name(), mds_wdl::compile(&inst, Scale::Tiny)));
        }
    }
    programs
}

#[test]
fn workloads_feed_identically_and_re_emulate_their_plan() {
    let programs = tiny_programs();
    assert_eq!(programs.len(), 23 + 6);
    for (name, program) in &programs {
        let trace = Trace::capture(program).unwrap();
        assert_eq!(
            trace.resident_bytes(),
            trace.replay_plan().resident_bytes(),
            "{name}: capture keeps no records"
        );
        // The records re-emulated from the stored program rebuild the
        // plan capture lowered while emulating.
        assert_eq!(
            &ReplayPlan::build(trace.records()),
            &**trace.replay_plan(),
            "{name}"
        );
        assert_feeds_agree(&trace, name);
    }
}
