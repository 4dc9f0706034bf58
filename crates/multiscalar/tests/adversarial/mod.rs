//! Adversarial committed streams for the replay engine's tests: random
//! task boundaries, mixed word/byte loads and stores over a small
//! colliding address pool (so word accesses are often unaligned),
//! ALU/FP/branch filler, and a random 40-instruction program whose PCs
//! recur so the MDPT actually trains.

use mds_emu::{BranchOutcome, DynInst, MemAccess, Trace, TraceSummary};
use mds_harness::rng::Rng;
use mds_isa::{Instruction, Opcode, Pc, Reg};

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

/// The adversarial trace of one seed: a random program, then 20–249
/// records over it.
pub fn case(seed: u64) -> Trace {
    let mut rng = Rng::seed_from_u64(seed);
    let insts: Vec<Instruction> = (0..CODE)
        .map(|_| instruction(rng.gen_range(0usize..9), rng.gen()))
        .collect();
    let len = rng.gen_range(20usize..250);
    let records: Vec<DynInst> = (0..len)
        .map(|i| {
            let pc = rng.gen_range(0..CODE);
            record(i, pc, insts[pc], rng.gen())
        })
        .collect();
    Trace::from_parts(records, TraceSummary::default())
}
