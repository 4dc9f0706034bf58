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

/// Synthesizes one committed record. Addresses come from a 20-byte pool,
/// so word accesses are often unaligned and overlap byte accesses; PCs
/// recycle so the dependence predictors train.
fn record(i: usize, kind: usize, sel: u16) -> DynInst {
    let sel = sel as usize;
    let byte = sel.is_multiple_of(3);
    let mem = |is_store| {
        Some(MemAccess {
            addr: 0x1000_0000 + (sel % 20) as u64,
            size: if byte { 1 } else { 8 },
            is_store,
        })
    };
    let xr = |n: usize| Reg::x((n % 32) as u8);
    let (inst, mem, branch) = match kind {
        0 => (
            Instruction::rrr(Opcode::Add, xr(sel), xr(sel / 3), xr(sel / 7)),
            None,
            None,
        ),
        1 => (
            Instruction::rrr(Opcode::Div, xr(sel), xr(sel / 3), xr(sel / 7)),
            None,
            None,
        ),
        2 => (
            Instruction::branch(Opcode::Bne, xr(sel), xr(sel / 5), 0),
            None,
            Some(BranchOutcome {
                taken: sel.is_multiple_of(2),
                next_pc: 0,
            }),
        ),
        3 | 4 => (
            Instruction::load(
                if byte { Opcode::Lb } else { Opcode::Ld },
                xr(sel),
                xr(sel / 3),
                0,
            ),
            mem(false),
            None,
        ),
        _ => (
            Instruction::store(
                if byte { Opcode::Sb } else { Opcode::Sd },
                xr(sel),
                xr(sel / 3),
                0,
            ),
            mem(true),
            None,
        ),
    };
    DynInst {
        seq: i as u64,
        pc: ((i * 3 + sel) % 24) as Pc,
        inst,
        mem,
        branch,
        new_task: sel.is_multiple_of(5),
    }
}

properties! {
    #![config(PropConfig { cases: 48, ..PropConfig::default() })]

    /// Plan-fed analyzers equal record-fed ones on random streams.
    #[test]
    fn plan_rows_and_records_feed_identically(
        cells in vec_of((0usize..7, any::<u16>()), 1..300),
    ) {
        let records: Vec<DynInst> = cells
            .iter()
            .enumerate()
            .map(|(i, &(kind, sel))| record(i, kind, sel))
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
