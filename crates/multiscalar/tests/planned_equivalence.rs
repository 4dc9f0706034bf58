//! Property test: the planned replay engine is observationally identical
//! to scratch replay.
//!
//! For any randomized committed instruction stream — random task
//! boundaries, mixed word/byte loads and stores over a small colliding
//! address pool, ALU/FP/branch filler, a random 40-instruction program
//! whose PCs recur so the MDPT actually trains — [`mds_multiscalar::run_planned`] under each of the six
//! speculation policies must produce a result byte-identical to
//! [`Multiscalar::run_trace`] over the same records: cycles, violation
//! counts, synchronization counts, and the full serialized result
//! document.

use mds_core::Policy;
use mds_emu::{BranchOutcome, DynInst, MemAccess, Trace, TraceSummary};
use mds_harness::json::ToJson;
use mds_harness::prelude::*;
use mds_isa::{Instruction, Opcode, Pc, Reg};
use mds_multiscalar::{run_planned, MsConfig, Multiscalar};

/// Number of static instructions in a synthetic program.
const CODE: usize = 40;

/// Synthesizes the static instruction at one PC from a `(kind, sel)`
/// pair.
fn instruction(kind: usize, sel: u16) -> Instruction {
    let sel = sel as usize;
    let byte = sel.is_multiple_of(3);
    let xr = |n: usize| Reg::x((n % 32) as u8);
    let fr = |n: usize| Reg::f((n % 32) as u8);
    match kind {
        0 => Instruction::rrr(Opcode::Add, xr(sel), xr(sel / 3), xr(sel / 7)),
        1 => Instruction::rri(Opcode::Addi, xr(sel), xr(sel / 5), sel as i32),
        2 => Instruction::rrr(Opcode::Mul, xr(sel), xr(sel / 3), xr(sel / 7)),
        3 => Instruction::rrr(Opcode::FAdd, fr(sel), fr(sel / 3), fr(sel / 7)),
        4 => Instruction::branch(Opcode::Bne, xr(sel), xr(sel / 3), (sel % CODE) as i32),
        5 | 6 => Instruction::load(
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

/// Synthesizes one committed record of `inst` at `pc`; `sel` picks its
/// address, branch outcome and task marker.
///
/// The stream is deliberately adversarial for the replay plan: addresses
/// come from a 24-byte pool so word and byte accesses partially overlap
/// across tasks, records revisit the program's 40 PCs so dependence
/// predictors see repeated static instructions, and task boundaries
/// arrive at irregular intervals.
fn record(i: usize, pc: usize, inst: Instruction, sel: u16) -> DynInst {
    let sel = sel as usize;
    let op = inst.op;
    let mem = op.is_mem().then(|| MemAccess {
        addr: 0x1000_0000u64 + (sel % 24) as u64,
        size: op.access_bytes(),
        is_store: op.is_store(),
    });
    let branch = op.is_control().then(|| BranchOutcome {
        taken: sel.is_multiple_of(2),
        next_pc: ((sel * 3) % CODE) as Pc,
    });
    DynInst {
        seq: i as u64,
        pc: pc as Pc,
        inst,
        mem,
        branch,
        new_task: sel.is_multiple_of(9),
    }
}

properties! {
    #![config(PropConfig { cases: 12, ..PropConfig::default() })]

    /// Planned replay equals scratch replay for every policy, at 4 and
    /// 8 stages, over randomized traces.
    #[test]
    fn planned_replay_equals_scratch_replay(
        code in vec_of((0usize..9, any::<u16>()), CODE..CODE + 1),
        cells in vec_of((0usize..CODE, any::<u16>()), 20..250),
    ) {
        let insts: Vec<Instruction> = code.iter().map(|&(k, s)| instruction(k, s)).collect();
        let records: Vec<DynInst> = cells
            .iter()
            .enumerate()
            .map(|(i, &(pc, sel))| record(i, pc, insts[pc], sel))
            .collect();
        let trace = Trace::from_parts(records, TraceSummary::default());

        for stages in [4usize, 8] {
            for policy in Policy::ALL {
                let config = MsConfig::paper(stages, policy);
                let planned = run_planned(&trace, &config);
                let scratch = Multiscalar::new(config)
                    .run_trace(trace.records().iter().copied());
                prop_assert_eq!(scratch.cycles, planned.cycles);
                prop_assert_eq!(scratch.misspeculations, planned.misspeculations);
                prop_assert_eq!(
                    scratch.synchronized_loads,
                    planned.synchronized_loads
                );
                prop_assert_eq!(
                    scratch.to_json().to_string(),
                    planned.to_json().to_string()
                );
            }
        }
    }
}
