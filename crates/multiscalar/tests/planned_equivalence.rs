//! Exact-number coverage of adversarial traces: the planned replay
//! engine reproduces result digests recorded at fixed seeds.
//!
//! Each case is a randomized committed instruction stream — random task
//! boundaries, mixed word/byte loads and stores over a small colliding
//! address pool, ALU/FP/branch filler, a random 40-instruction program
//! whose PCs recur so the MDPT actually trains. For every case, stage
//! count and speculation policy, [`run_planned`]'s serialized result is
//! hashed with [`FxHasher`] and compared with the digest in [`DIGESTS`].
//!
//! The digests were recorded while a second, independently written
//! replay engine (which re-walked the raw records with per-task hash maps)
//! still existed, and both engines produced byte-identical results on
//! every (case, stages, policy). A digest that moves means the engine's
//! timing changed: check it against the oracle in `tests/oracle.rs` and
//! re-record the table only for an intended model change.

use mds_core::Policy;
use mds_emu::{BranchOutcome, DynInst, MemAccess, Trace, TraceSummary};
use mds_harness::hash::FxHasher;
use mds_harness::json::ToJson;
use mds_harness::rng::Rng;
use mds_isa::{Instruction, Opcode, Pc, Reg};
use mds_multiscalar::{run_planned, MsConfig, MsResult};
use std::hash::Hasher;

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
fn case(seed: u64) -> Trace {
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

/// Stage counts, each replayed under every policy in [`Policy::ALL`]
/// order: one digest per (stages, policy), 12 per case.
const STAGES: [usize; 2] = [4, 8];

/// The digest of one result: [`FxHasher`] over its serialized JSON.
fn digest(result: &MsResult) -> u64 {
    let mut h = FxHasher::default();
    h.write(result.to_json().to_string().as_bytes());
    h.finish()
}

/// Per seed `0..DIGESTS.len()`: the digests of the six policies at 4
/// stages, then at 8.
#[rustfmt::skip]
const DIGESTS: [[u64; 12]; 16] = [
    [0x5282d9e290a85f6d, 0x5282d9e290a85f6d, 0x5282d9e290a85f6d, 0x5282d9e290a85f6d, 0xca7acc43b752d67e, 0xca7acc43b752d67e,
     0x3fd81807a4f09444, 0x3fd81807a4f09444, 0x3fd81807a4f09444, 0x3fd81807a4f09444, 0xaff70be26372882c, 0xaff70be26372882c],
    [0x452c4b677b8a3550, 0x89c8aa075109ddd8, 0x452c4b677b8a3550, 0x452c4b677b8a3550, 0xa027584d71bbc2f9, 0x7155c789b4e951b3,
     0xd9aeafe6d9a8ca54, 0x7aec22568a3aae99, 0xd9aeafe6d9a8ca54, 0xd9aeafe6d9a8ca54, 0x1e89eb480ce4e94b, 0x81bf7ad64fc14a3b],
    [0xc9f4b552b07b8283, 0xe9c826aa1e1b816e, 0xc9f4b552b07b8283, 0xc9f4b552b07b8283, 0x1e4d56ed6a84d790, 0xd842cb7950ec6e85,
     0xeddfdaf6d5e9c5b6, 0xe8f3c3664383e275, 0xeddfdaf6d5e9c5b6, 0xeddfdaf6d5e9c5b6, 0x1d5d621ed4e3358d, 0xf5209e8403853459],
    [0x51a3d56db45a6bcb, 0x3c9e4abfffb30ae4, 0x51a3d56db45a6bcb, 0x51a3d56db45a6bcb, 0x06bf932e8e186944, 0x1521c1d15764092c,
     0x76854c1ef865781c, 0x6ed1ec78ce016762, 0x76854c1ef865781c, 0x76854c1ef865781c, 0xd4e6ebc1a42b98e1, 0x2ac3f4c58c29a964],
    [0x9faffc83abbeb889, 0xcc323923418c004d, 0x9faffc83abbeb889, 0x9faffc83abbeb889, 0x6af47d9051210a04, 0x0dddfc3a817e2dee,
     0xd0f571121b01c3d2, 0x83a91f9362dc95d1, 0xd0f571121b01c3d2, 0xd0f571121b01c3d2, 0x3c69aa032ab19942, 0x8765b315252ababa],
    [0x3798407783c49b91, 0xd4c6f1e60dd92e1c, 0x3798407783c49b91, 0x3798407783c49b91, 0x213b8d95022aa420, 0x730fdc617525c1cf,
     0x8dc47b5880695ed5, 0xec6dead784a8db0b, 0x8dc47b5880695ed5, 0x8dc47b5880695ed5, 0xb3d3f33a24563572, 0xc95b0a23668eead7],
    [0x171b1cc8abe9b116, 0x1ad9cc68a382c209, 0x171b1cc8abe9b116, 0x171b1cc8abe9b116, 0xf10eef8f6b06f837, 0xf10eef8f6b06f837,
     0x76187d3c82bdc25e, 0x453fe73aa935420c, 0x76187d3c82bdc25e, 0x76187d3c82bdc25e, 0x710089e9214b4f54, 0x710089e9214b4f54],
    [0xf18c62e738664837, 0x222af360f2a913eb, 0xf18c62e738664837, 0xf18c62e738664837, 0x21d542eb556433e4, 0x61dee71438b5a55e,
     0xd76baebfd7cb3992, 0x0e19edb7d5e9af4d, 0xd76baebfd7cb3992, 0xd76baebfd7cb3992, 0xd7b778f12a5ded19, 0xd7b778f12a5ded19],
    [0xc0c710cc93f29d18, 0xc2d8a7f1940c7f8e, 0xc0c710cc93f29d18, 0xc0c710cc93f29d18, 0xd1bf28a5683a604a, 0x274e260b2367e67c,
     0xbb298e706a3ae651, 0x4f992e7a89ed9d2c, 0xbb298e706a3ae651, 0xbb298e706a3ae651, 0xa47c424655df31e4, 0x640eaf35945658c4],
    [0x928a2338e0111f6b, 0x928a2338e0111f6b, 0x928a2338e0111f6b, 0x928a2338e0111f6b, 0x518280aa9c8789f9, 0x518280aa9c8789f9,
     0x928a2338e0111f6b, 0x928a2338e0111f6b, 0x928a2338e0111f6b, 0x928a2338e0111f6b, 0x518280aa9c8789f9, 0x518280aa9c8789f9],
    [0xc97330591804f52b, 0xd0bbfdc698fa3993, 0xc97330591804f52b, 0xc97330591804f52b, 0x84d626a74819947d, 0x84d626a74819947d,
     0x16d87006ee034170, 0x16d87006ee034170, 0x16d87006ee034170, 0x16d87006ee034170, 0xbc215cacb948ea15, 0xbc215cacb948ea15],
    [0x36cc2f6cdf9a6bec, 0x3e618d33052f2bff, 0x36cc2f6cdf9a6bec, 0x36cc2f6cdf9a6bec, 0xf4c590a45a721831, 0x81455a1d9cfcc3aa,
     0x048efbdc6801c953, 0x0476a9829b918948, 0x048efbdc6801c953, 0x048efbdc6801c953, 0x4d773b060cea6931, 0x95345fd71b81f464],
    [0xad765493d0bd27df, 0xed75ba0dc0785799, 0xad765493d0bd27df, 0xad765493d0bd27df, 0x1e9da6b15abd4647, 0xf7acfaaeb0d23362,
     0x66117b1fedcf09bd, 0x5f40126527710976, 0x66117b1fedcf09bd, 0x66117b1fedcf09bd, 0x460449f5ba605897, 0x201e5b3f7e6bce57],
    [0x19b0b8c72d450a06, 0x3795fb1843588277, 0x19b0b8c72d450a06, 0x19b0b8c72d450a06, 0x9b175cc1e50862e5, 0x23ed8c80111569d0,
     0xe2749e3152432595, 0x269e42b43552fd76, 0xe2749e3152432595, 0xe2749e3152432595, 0x12e023f4d7d6e58d, 0x5d2d3d658144cfa5],
    [0x54207092cb864a73, 0x54207092cb864a73, 0x54207092cb864a73, 0x54207092cb864a73, 0x76f1197f21e0a122, 0x76f1197f21e0a122,
     0x52a5e5511ccbe5dc, 0x52a5e5511ccbe5dc, 0x52a5e5511ccbe5dc, 0x52a5e5511ccbe5dc, 0xa2815af9a4dc5c30, 0xa2815af9a4dc5c30],
    [0xa113391d7fb363ae, 0x4bbd4dbe49b027cc, 0xa113391d7fb363ae, 0xa113391d7fb363ae, 0x446830c607397929, 0x4021227eb0d5729a,
     0xecd7577b8809394a, 0x9eea08c5c34e71fe, 0xecd7577b8809394a, 0xecd7577b8809394a, 0xee01dc21ff028b72, 0x6ce5ab61f11abe8f],
];

#[test]
fn planned_replay_matches_recorded_digests() {
    for (seed, want) in DIGESTS.iter().enumerate() {
        let trace = case(seed as u64);
        let mut got = Vec::with_capacity(12);
        for stages in STAGES {
            for policy in Policy::ALL {
                got.push(digest(&run_planned(
                    &trace,
                    &MsConfig::paper(stages, policy),
                )));
            }
        }
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g,
                w,
                "seed {seed}, {} stages, {}: digest {g:#018x}, recorded {w:#018x}",
                STAGES[i / 6],
                Policy::ALL[i % 6]
            );
        }
    }
}
