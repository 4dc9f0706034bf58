//! Properties of the streaming plan lowering.
//!
//! A trace is captured by feeding the emulator's commit stream into a
//! [`PlanBuilder`] one record at a time, and no records are kept. These
//! properties pin that single lowering path over random record streams —
//! a random static program of 32 instructions, random task boundaries,
//! byte and word accesses over a small colliding address pool, unaligned
//! words included:
//!
//! - streaming records into a builder equals [`ReplayPlan::build`] over
//!   the collected stream;
//! - every plan row reads back as the record it came from;
//! - the pre-resolved producers equal a brute-force scan.
//!
//! Over real programs — the 23 hand-written workloads and sampled members
//! of the example WDL families:
//!
//! - the per-PC decoded table agrees with every record's static
//!   instruction, and the per-load and per-store address arrays list the
//!   accesses in stream order;
//! - the whole plan that capture commits straight from the emulator
//!   equals [`ReplayPlan::build`] over the `DynInst` records of a second
//!   run, the two summaries are equal, and both agree with counts taken
//!   from the records and from the plan;
//! - capture and the record-building runs stop alike at every budget and
//!   on a wild jump.

use mds_emu::plan::{Decoded, F_BYTE, F_MEM, F_STORE, NONE};
use mds_emu::{
    BranchOutcome, DynInst, EmuError, Emulator, MemAccess, PlanBuilder, ReplayPlan, Row, Trace,
    TraceSummary,
};
use mds_harness::prelude::*;
use mds_isa::{Instruction, Opcode, Pc, Program, Reg};
use mds_workloads::Scale;

/// Number of static instructions in a synthetic program.
const CODE: usize = 32;

/// Synthesizes the static instruction at one PC from a `(kind, sel)`
/// pair.
fn instruction(kind: usize, sel: u16) -> Instruction {
    let sel = sel as usize;
    let byte = sel.is_multiple_of(3);
    let xr = |n: usize| Reg::x((n % 32) as u8);
    let fr = |n: usize| Reg::f((n % 32) as u8);
    match kind {
        0 => Instruction::rrr(Opcode::Add, xr(sel), xr(sel / 3), xr(sel / 7)),
        1 => Instruction::rrr(Opcode::FMul, fr(sel), fr(sel / 3), fr(sel / 7)),
        2 => Instruction::branch(Opcode::Beq, xr(sel), xr(sel / 5), (sel % 32) as i32),
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

/// Synthesizes one committed record of the instruction at `pc`; `sel`
/// picks its address, branch outcome and task marker. Addresses come
/// from a 20-byte pool, so 8-byte accesses are often unaligned and
/// partially overlap byte and word accesses in neighbouring tasks.
fn record(i: usize, pc: usize, inst: Instruction, sel: u16) -> DynInst {
    let sel = sel as usize;
    let op = inst.op;
    let mem = op.is_mem().then(|| MemAccess {
        addr: 0x1000_0000u64 + (sel % 20) as u64,
        size: op.access_bytes(),
        is_store: op.is_store(),
    });
    let branch = op.is_control().then(|| BranchOutcome {
        taken: sel.is_multiple_of(2),
        next_pc: (sel % CODE) as Pc,
    });
    DynInst {
        seq: i as u64,
        pc: pc as Pc,
        inst,
        mem,
        branch,
        new_task: sel.is_multiple_of(7),
    }
}

/// A committed stream over the program `code`: each cell names a PC and
/// the record's dynamic selector.
fn stream(code: &[(usize, u16)], cells: &[(usize, u16)]) -> Vec<DynInst> {
    let insts: Vec<Instruction> = code.iter().map(|&(k, s)| instruction(k, s)).collect();
    cells
        .iter()
        .enumerate()
        .map(|(i, &(pc, sel))| record(i, pc, insts[pc], sel))
        .collect()
}

fn code_strategy() -> impl Strategy<Value = Vec<(usize, u16)>> {
    vec_of((0usize..7, any::<u16>()), CODE..CODE + 1)
}

properties! {
    #![config(PropConfig { cases: 48, ..PropConfig::default() })]

    /// Feeding records one at a time builds the plan that
    /// `ReplayPlan::build` builds over the collected stream, and every
    /// row of it reads back as its record.
    #[test]
    fn streamed_builder_equals_build_and_rows_read_back(
        code in code_strategy(),
        cells in vec_of((0usize..CODE, any::<u16>()), 0..200),
    ) {
        let records = stream(&code, &cells);
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
        code in code_strategy(),
        cells in vec_of((0usize..CODE, any::<u16>()), 1..200),
    ) {
        let records = stream(&code, &cells);
        let plan = ReplayPlan::build(&records);
        let ord = ordinals(&records);
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
            prop_assert_eq!(ord[i] as usize, lo);
            let load = records[i].mem.expect("a load record");
            let (mut intra, mut inter) = (NONE, NONE);
            for (j, d) in records[..i].iter().enumerate() {
                let Some(m) = d.mem else { continue };
                if !m.is_store || !conflicts(&m, &load) {
                    continue;
                }
                if task_of[j] == task_of[i] {
                    intra = ord[j];
                } else {
                    inter = ord[j];
                }
            }
            prop_assert_eq!(plan.load_intra[lo], intra);
            prop_assert_eq!(plan.load_inter[lo], inter);
        }
    }

    /// Sampled members of the example WDL families lower into a plan
    /// whose decoded table and address arrays agree with the records.
    #[test]
    fn wdl_members_decode_once_per_pc(
        family in 0usize..3,
        seed in any::<u64>(),
    ) {
        for program in wdl_members(family, seed) {
            check_decoded_table(&program);
        }
    }

    /// Sampled members of the example WDL families capture the plan and
    /// summary that their `DynInst` records build.
    #[test]
    fn wdl_members_capture_the_plan_their_records_build(
        family in 0usize..3,
        seed in any::<u64>(),
    ) {
        for program in wdl_members(family, seed) {
            check_capture_equals_build(&program);
        }
    }
}

/// The tiny-scale programs of one sampled member of an example WDL
/// family (`family` picks `compress_like`, `fpppp_like` or `swim_like`).
fn wdl_members(family: usize, seed: u64) -> Vec<Program> {
    let name = ["compress_like", "fpppp_like", "swim_like"][family];
    let path = format!("{}/../../examples/{name}.wdl", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("example spec");
    let spec = mds_wdl::parse_spec(&src).expect("example spec parses");
    mds_wdl::expand(&spec.scenarios[0], seed, 1)
        .iter()
        .map(|inst| mds_wdl::compile(inst, Scale::Tiny))
        .collect()
}

/// The 23 hand-written workloads lower into a plan whose decoded table
/// and address arrays agree with the records.
#[test]
fn workloads_decode_once_per_pc() {
    for wl in mds_workloads::all() {
        check_decoded_table(&wl.build(Scale::Tiny));
    }
}

/// The 23 hand-written workloads capture the plan and summary that their
/// `DynInst` records build.
#[test]
fn workloads_capture_the_plan_their_records_build() {
    for wl in mds_workloads::all() {
        check_capture_equals_build(&wl.build(Scale::Tiny));
    }
}

/// How a run ended: its summary and length, or its error.
type Outcome = Result<(TraceSummary, usize), EmuError>;

/// Capture, `run` and `run_with` end a run alike at every budget: all
/// succeed with the same summary and length, or all return the same
/// error with the same `executed`.
#[test]
fn capture_and_record_runs_stop_alike_at_every_budget() {
    let p = mds_workloads::by_name("compress")
        .expect("compress is a workload")
        .build(Scale::Tiny);
    let len = Trace::capture(&p).expect("compress runs").len() as u64;
    for limit in [0, 1, len / 2, len - 1, len, len + 1] {
        let [captured, run, streamed] = outcomes(&p, Some(limit));
        assert_eq!(captured, run, "budget {limit}");
        assert_eq!(captured, streamed, "budget {limit}");
        if limit < len {
            assert_eq!(
                captured,
                Err(EmuError::InstructionLimit { executed: limit })
            );
        } else {
            assert_eq!(captured.map(|(_, n)| n as u64), Ok(len));
        }
    }
}

/// A wild `jr` stops capture, `run` and `run_with` with the same
/// `PcOutOfRange`.
#[test]
fn capture_and_record_runs_report_the_same_wild_jump() {
    let mut b = mds_isa::ProgramBuilder::new();
    b.li(Reg::T0, 1000);
    b.jr(Reg::T0);
    b.halt();
    let p = b.build().expect("program builds");
    for outcome in outcomes(&p, None) {
        assert_eq!(outcome, Err(EmuError::PcOutOfRange { pc: 1000 }));
    }
}

/// Runs `program` under `limit` by capture, by `run` and by `run_with`.
fn outcomes(program: &Program, limit: Option<u64>) -> [Outcome; 3] {
    let emulator = || {
        let emu = Emulator::new(program);
        match limit {
            Some(limit) => emu.with_limit(limit),
            None => emu,
        }
    };
    let captured = Trace::capture_limited(program, limit).map(|t| (t.summary(), t.len()));
    let mut emu = emulator();
    let run = emu.run().map(|records| (emu.summary(), records.len()));
    let mut streamed_len = 0;
    let streamed = emulator()
        .run_with(|_| streamed_len += 1)
        .map(|summary| (summary, streamed_len));
    [captured, run, streamed]
}

/// Captures `program` and checks the whole plan against
/// [`ReplayPlan::build`] over a second, record-building run: the plans
/// and the summaries are equal, the summary's counts agree with counts
/// taken from the records, and the plan holds one entry per counted
/// instruction, load, store and task.
fn check_capture_equals_build(program: &Program) {
    let trace = Trace::capture(program).expect("program runs");
    let mut emu = Emulator::new(program);
    let records = emu.run().expect("program runs");
    let plan = trace.replay_plan();
    assert_eq!(**plan, ReplayPlan::build(&records));
    let summary = trace.summary();
    assert_eq!(summary, emu.summary());

    let count = |keep: fn(&DynInst) -> bool| records.iter().filter(|d| keep(d)).count() as u64;
    let counted = TraceSummary {
        instructions: records.len() as u64,
        loads: count(DynInst::is_load),
        stores: count(DynInst::is_store),
        branches: count(|d| d.inst.op.is_control()),
        taken_branches: count(|d| d.inst.op.is_cond_branch() && d.branch.is_some_and(|b| b.taken)),
        tasks: count(|d| d.new_task),
    };
    assert_eq!(summary, counted);
    assert_eq!(plan.len() as u64, summary.instructions);
    assert_eq!(plan.load_rec.len() as u64, summary.loads);
    assert_eq!(plan.store_rec.len() as u64, summary.stores);
    assert_eq!(plan.tasks() as u64, summary.tasks);
}

/// Captures `program` and checks its plan against the re-emulated
/// records: `code[pc]` is each record's static instruction (opcode,
/// operands, memory kind and access size), and the load and store
/// address arrays list the accesses in stream order.
fn check_decoded_table(program: &Program) {
    let trace = Trace::capture(program).expect("program runs");
    let plan = trace.replay_plan();
    let records = trace.records();
    assert_eq!(plan.pc.len(), records.len());
    let (mut loads, mut stores) = (Vec::new(), Vec::new());
    for (d, &pc) in records.iter().zip(&plan.pc) {
        assert_eq!(pc, d.pc);
        let c = plan.code[pc as usize];
        assert_eq!(c, Decoded::of(&d.inst), "pc {pc}");
        let row = Row::from(d);
        assert_eq!((c.op, c.src, c.dst), (row.op, row.src, row.dst), "pc {pc}");
        assert_eq!(c.flags & F_MEM != 0, d.mem.is_some(), "pc {pc}");
        if let Some(m) = d.mem {
            assert_eq!(c.flags & F_STORE != 0, m.is_store, "pc {pc}");
            assert_eq!(c.flags & F_BYTE != 0, m.size == 1, "pc {pc}");
            if m.is_store {
                stores.push(m.addr);
            } else {
                loads.push(m.addr);
            }
        }
    }
    assert_eq!(plan.load_addr, loads);
    assert_eq!(plan.store_addr, stores);
}

/// Global load and store ordinals of every record, counted along the
/// stream (`NONE` for non-memory records).
fn ordinals(records: &[DynInst]) -> Vec<u32> {
    let (mut loads, mut stores) = (0, 0);
    records
        .iter()
        .map(|d| match d.mem {
            Some(m) if m.is_store => {
                stores += 1;
                stores - 1
            }
            Some(_) => {
                loads += 1;
                loads - 1
            }
            None => NONE,
        })
        .collect()
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
