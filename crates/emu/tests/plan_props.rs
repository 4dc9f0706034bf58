//! Properties of the streaming plan lowering.
//!
//! A trace is captured by feeding the emulator's commit stream into a
//! [`PlanBuilder`] one record at a time, and no records are kept. These
//! properties pin that single lowering path over random record streams —
//! random task boundaries, byte and word accesses over a small colliding
//! address pool, unaligned words included:
//!
//! - streaming records into a builder equals [`ReplayPlan::build`] over
//!   the collected stream;
//! - every plan row reads back as the record it came from;
//! - the pre-resolved producers equal a brute-force scan.

use mds_emu::plan::NONE;
use mds_emu::{BranchOutcome, DynInst, MemAccess, PlanBuilder, ReplayPlan, Row};
use mds_harness::prelude::*;
use mds_isa::{Instruction, Opcode, Pc, Reg};

/// Synthesizes one committed record from a `(kind, sel)` pair. Addresses
/// come from a 20-byte pool, so 8-byte accesses are often unaligned and
/// partially overlap byte and word accesses in neighbouring tasks.
fn record(i: usize, kind: usize, sel: u16) -> DynInst {
    let sel = sel as usize;
    let pc = ((i * 5 + sel) % 32) as Pc;
    let addr = 0x1000_0000u64 + (sel % 20) as u64;
    let byte = sel.is_multiple_of(3);
    let size = if byte { 1 } else { 8 };
    let xr = |n: usize| Reg::x((n % 32) as u8);
    let fr = |n: usize| Reg::f((n % 32) as u8);
    let (inst, mem, branch) = match kind {
        0 => (
            Instruction::rrr(Opcode::Add, xr(sel), xr(sel / 3), xr(sel / 7)),
            None,
            None,
        ),
        1 => (
            Instruction::rrr(Opcode::FMul, fr(sel), fr(sel / 3), fr(sel / 7)),
            None,
            None,
        ),
        2 => (
            Instruction::branch(Opcode::Beq, xr(sel), xr(sel / 5), (sel % 32) as i32),
            None,
            Some(BranchOutcome {
                taken: sel.is_multiple_of(2),
                next_pc: (sel % 32) as Pc,
            }),
        ),
        3 | 4 => (
            Instruction::load(
                if byte { Opcode::Lb } else { Opcode::Ld },
                xr(sel),
                xr(sel / 3),
                0,
            ),
            Some(MemAccess {
                addr,
                size,
                is_store: false,
            }),
            None,
        ),
        _ => (
            Instruction::store(
                if byte { Opcode::Sb } else { Opcode::Sd },
                xr(sel),
                xr(sel / 3),
                0,
            ),
            Some(MemAccess {
                addr,
                size,
                is_store: true,
            }),
            None,
        ),
    };
    DynInst {
        seq: i as u64,
        pc,
        inst,
        mem,
        branch,
        new_task: sel.is_multiple_of(7),
    }
}

fn stream(cells: &[(usize, u16)]) -> Vec<DynInst> {
    cells
        .iter()
        .enumerate()
        .map(|(i, &(kind, sel))| record(i, kind, sel))
        .collect()
}

properties! {
    #![config(PropConfig { cases: 48, ..PropConfig::default() })]

    /// Feeding records one at a time builds the plan that
    /// `ReplayPlan::build` builds over the collected stream, and every
    /// row of it reads back as its record.
    #[test]
    fn streamed_builder_equals_build_and_rows_read_back(
        cells in vec_of((0usize..7, any::<u16>()), 0..200),
    ) {
        let records = stream(&cells);
        let mut builder = PlanBuilder::new();
        for d in &records {
            builder.push(d);
        }
        let streamed = builder.finish();
        let built = ReplayPlan::build(&records);
        prop_assert_eq!(&streamed, &built);
        prop_assert_eq!(streamed.len(), records.len());
        prop_assert_eq!(streamed.rows().count(), records.len());
        for (row, d) in streamed.rows().zip(&records) {
            prop_assert_eq!(row, Row::from(d));
        }
    }

    /// The pre-resolved intra-task and inter-task producers of every load
    /// equal a brute-force scan for the youngest conflicting store.
    #[test]
    fn producers_match_a_brute_force_scan(
        cells in vec_of((0usize..7, any::<u16>()), 1..200),
    ) {
        let records = stream(&cells);
        let plan = ReplayPlan::build(&records);
        let mut task_of = Vec::with_capacity(records.len());
        let mut task = 0usize;
        for (i, d) in records.iter().enumerate() {
            if i > 0 && d.new_task {
                task += 1;
            }
            task_of.push(task);
        }
        for (lo, &rec) in plan.load_rec.iter().enumerate() {
            let i = rec as usize;
            let load = records[i].mem.expect("a load record");
            let (mut intra, mut inter) = (NONE, NONE);
            for (j, d) in records[..i].iter().enumerate() {
                let Some(m) = d.mem else { continue };
                if !m.is_store || !conflicts(&m, &load) {
                    continue;
                }
                if task_of[j] == task_of[i] {
                    intra = plan.mem_ord[j];
                } else {
                    inter = plan.mem_ord[j];
                }
            }
            prop_assert_eq!(plan.load_intra[lo], intra);
            prop_assert_eq!(plan.load_inter[lo], inter);
        }
    }
}

/// Whether `store` is a producer candidate for `load` under the plan's
/// keying: a word store covers the aligned word holding its address (so
/// an unaligned word store is seen at its lower word only), a byte store
/// covers its byte.
fn conflicts(store: &MemAccess, load: &MemAccess) -> bool {
    if store.size == 1 {
        load.addr <= store.addr && store.addr < load.addr + load.size as u64
    } else {
        store.addr & !7 == load.addr & !7
    }
}
