//! Structure-of-arrays replay plan: the committed stream predecoded into
//! dense parallel vectors, with memory dependences pre-resolved.
//!
//! A [`crate::Trace`] stores [`DynInst`] records — convenient to capture,
//! but expensive to replay: every simulator pass re-decodes operands
//! (`Instruction::reads`/`writes` are `match`es over the format), re-splits
//! tasks (cloning every record into per-task `Vec`s), and re-discovers
//! store→load overlaps through per-task hash maps. None of that depends on
//! timing: operands, task boundaries, and which earlier store a load
//! overlaps are pure functions of the committed stream.
//!
//! [`ReplayPlan`] hoists all of it out of the replay loop. A
//! [`PlanBuilder`] lowers the committed stream one record at a time, so
//! [`crate::Trace::capture`] builds the plan while the emulator runs and
//! never stores the records; the plan is then shared read-only by every
//! simulator configuration replaying that trace:
//!
//! - per-record arrays: PC, opcode, dense operand indices, flags,
//!   effective address, and memory ordinal;
//! - per-task arrays: record / store / load range starts and the task's
//!   start PC;
//! - per-store arrays: owning record and task;
//! - per-load arrays: the pre-resolved *intra-task* forwarding source and
//!   *inter-task* producer store (as global store ordinals).
//!
//! # Dependence pre-resolution
//!
//! For each load the plan records two store ordinals:
//!
//! - `load_intra`: the youngest earlier store **in the same task** whose
//!   byte range overlaps the load (the never-speculated forwarding
//!   source), or [`NONE`];
//! - `load_inter`: the youngest earlier store **in any earlier task**
//!   overlapping the load, or [`NONE`]. Because dynamic task indices are
//!   monotone along the committed stream, the youngest such store by
//!   stream position is also the youngest by (task, within-task index) —
//!   exactly the store a windowed producer search would find. A consumer
//!   with a bounded task window checks `store_task[load_inter]` against
//!   its window: if the globally youngest overlapping store has already
//!   left the window, *no* overlapping store is in the window, so the one
//!   pre-resolved ordinal answers the producer query for every window
//!   size.
//!
//! # Reading records back
//!
//! [`ReplayPlan::rows`] yields one [`Row`] per record — sequence number,
//! PC, opcode, dense operands and the memory access — which is everything
//! the sliding-window analyzer and the superscalar model read. A
//! [`DynInst`] converts into the same view, so those consumers run one
//! algorithm whichever form the stream arrives in.

use crate::dyninst::{DynInst, MemAccess};
use mds_harness::hash::FxHashMap;
use mds_isa::{Addr, FuClass, Opcode, Pc};

/// Sentinel ordinal: "no such store / not a memory operation".
pub const NONE: u32 = u32::MAX;

/// Sentinel dense register index: "no operand in this slot".
pub const NO_REG: u8 = u8::MAX;

/// Record flag: the instruction is a memory operation.
pub const F_MEM: u8 = 1 << 0;
/// Record flag: the memory operation is a store.
pub const F_STORE: u8 = 1 << 1;
/// Record flag: the instruction is a control transfer.
pub const F_CONTROL: u8 = 1 << 2;
/// Record flag: the memory operation accesses one byte (otherwise it
/// accesses an 8-byte word — the only two sizes the ISA has).
pub const F_BYTE: u8 = 1 << 3;

/// Functional-unit class codes for [`ReplayPlan::fu`] (memory operations
/// are dispatched via [`F_MEM`] instead).
pub const FU_SIMPLE: u8 = 0;
/// Complex-integer class code.
pub const FU_COMPLEX: u8 = 1;
/// Floating-point class code.
pub const FU_FP: u8 = 2;
/// Branch class code.
pub const FU_BRANCH: u8 = 3;

/// The youngest store seen so far for one address key, plus the youngest
/// store from any strictly earlier task (see module docs).
struct KeyState {
    youngest_task: u32,
    youngest_ord: u32,
    /// Youngest store in a task earlier than `youngest_task`; `NONE` ord
    /// when no such store exists.
    prev_ord: u32,
}

/// The structure-of-arrays view of one committed trace (see module docs).
///
/// All `Vec`s prefixed `task_` have one entry per dynamic task **plus a
/// trailing sentinel**, so `task_start[k]..task_start[k + 1]` is always a
/// valid half-open range.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayPlan {
    /// Per record: the instruction's PC.
    pub pc: Vec<Pc>,
    /// Per record: the opcode (for latency lookup).
    pub op: Vec<Opcode>,
    /// Per record: [`F_MEM`] / [`F_STORE`] / [`F_CONTROL`] / [`F_BYTE`]
    /// bits.
    pub flags: Vec<u8>,
    /// Per record: functional-unit class code ([`FU_SIMPLE`]…).
    pub fu: Vec<u8>,
    /// Per record: dense index of read slot 0 (the base register for
    /// memory operations), or [`NO_REG`].
    pub src1: Vec<u8>,
    /// Per record: dense index of read slot 1, or [`NO_REG`].
    pub src2: Vec<u8>,
    /// Per record: dense index of the written register, or [`NO_REG`].
    pub dst: Vec<u8>,
    /// Per record: effective byte address (0 for non-memory records).
    pub addr: Vec<Addr>,
    /// Per record: global store ordinal (stores), global load ordinal
    /// (loads), or [`NONE`].
    pub mem_ord: Vec<u32>,
    /// Record index where each task begins, plus sentinel.
    pub task_start: Vec<u32>,
    /// Per task: its start PC (no sentinel).
    pub task_start_pc: Vec<Pc>,
    /// First global store ordinal of each task, plus sentinel.
    pub task_store_start: Vec<u32>,
    /// First global load ordinal of each task, plus sentinel.
    pub task_load_start: Vec<u32>,
    /// Per store: the record index it came from.
    pub store_rec: Vec<u32>,
    /// Per store: the dynamic task it belongs to.
    pub store_task: Vec<u32>,
    /// Per load: the record index it came from.
    pub load_rec: Vec<u32>,
    /// Per load: same-task forwarding source (global store ordinal), or
    /// [`NONE`].
    pub load_intra: Vec<u32>,
    /// Per load: youngest earlier-task overlapping store (global store
    /// ordinal), or [`NONE`].
    pub load_inter: Vec<u32>,
}

/// One committed instruction as the stream consumers read it: a plan row
/// ([`ReplayPlan::rows`]) or a converted [`DynInst`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Position in the committed order (the record index for plan rows).
    pub seq: u64,
    /// The instruction's PC.
    pub pc: Pc,
    /// The opcode.
    pub op: Opcode,
    /// Dense indices of the two read slots, or [`NO_REG`].
    pub src: [u8; 2],
    /// Dense index of the written register, or [`NO_REG`].
    pub dst: u8,
    /// The memory access, for loads and stores.
    pub mem: Option<MemAccess>,
}

fn dense(r: Option<mds_isa::RegRef>) -> u8 {
    r.map_or(NO_REG, |r| r.dense_index() as u8)
}

impl From<&DynInst> for Row {
    #[inline]
    fn from(d: &DynInst) -> Row {
        let [r1, r2] = d.inst.reads();
        Row {
            seq: d.seq,
            pc: d.pc,
            op: d.inst.op,
            src: [dense(r1), dense(r2)],
            dst: dense(d.inst.writes()),
            mem: d.mem,
        }
    }
}

/// Lowers a committed stream into a [`ReplayPlan`] one record at a time
/// (see module docs). Feed records in committed order with
/// [`PlanBuilder::push`], then call [`PlanBuilder::finish`].
///
/// Task boundaries follow the task splitter's semantics: record 0 always
/// begins task 0, and a later record begins a new task exactly when its
/// `new_task` marker is set.
///
/// # Examples
///
/// ```
/// use mds_isa::{ProgramBuilder, Reg};
/// use mds_emu::{plan::PlanBuilder, Emulator, ReplayPlan};
///
/// let mut b = ProgramBuilder::new();
/// b.alloc("x", 1);
/// b.la(Reg::S0, "x");
/// b.sd(Reg::S0, Reg::S0, 0);
/// b.ld(Reg::T0, Reg::S0, 0);
/// b.halt();
/// let p = b.build()?;
///
/// let mut builder = PlanBuilder::new();
/// Emulator::new(&p).run_with(|d| builder.push(d))?;
/// let plan = builder.finish();
/// assert_eq!(plan, ReplayPlan::build(&Emulator::new(&p).run()?));
/// assert_eq!(plan.load_intra, vec![0]); // the load reads the store
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct PlanBuilder {
    plan: ReplayPlan,
    word: FxHashMap<Addr, KeyState>,
    byte: FxHashMap<Addr, KeyState>,
    task: u32,
}

impl Default for PlanBuilder {
    fn default() -> Self {
        PlanBuilder::new()
    }
}

impl PlanBuilder {
    /// An empty builder.
    pub fn new() -> PlanBuilder {
        PlanBuilder::with_capacity(0)
    }

    /// An empty builder with room for `records` records: a stream of known
    /// length spares the per-record arrays their growth copies.
    fn with_capacity(records: usize) -> PlanBuilder {
        PlanBuilder {
            plan: ReplayPlan {
                pc: Vec::with_capacity(records),
                op: Vec::with_capacity(records),
                flags: Vec::with_capacity(records),
                fu: Vec::with_capacity(records),
                src1: Vec::with_capacity(records),
                src2: Vec::with_capacity(records),
                dst: Vec::with_capacity(records),
                addr: Vec::with_capacity(records),
                mem_ord: Vec::with_capacity(records),
                task_start: Vec::new(),
                task_start_pc: Vec::new(),
                task_store_start: Vec::new(),
                task_load_start: Vec::new(),
                store_rec: Vec::new(),
                store_task: Vec::new(),
                load_rec: Vec::new(),
                load_intra: Vec::new(),
                load_inter: Vec::new(),
            },
            word: FxHashMap::default(),
            byte: FxHashMap::default(),
            task: 0,
        }
    }

    /// Lowers the next committed record.
    #[inline]
    pub fn push(&mut self, d: &DynInst) {
        let plan = &mut self.plan;
        let i = plan.pc.len();
        if i == 0 || d.new_task {
            if i != 0 {
                self.task += 1;
            }
            plan.task_start.push(i as u32);
            plan.task_start_pc.push(d.pc);
            plan.task_store_start.push(plan.store_rec.len() as u32);
            plan.task_load_start.push(plan.load_rec.len() as u32);
        }
        let task = self.task;
        plan.pc.push(d.pc);
        plan.op.push(d.inst.op);
        let [r1, r2] = d.inst.reads();
        plan.src1.push(dense(r1));
        plan.src2.push(dense(r2));
        plan.dst.push(dense(d.inst.writes()));
        plan.fu.push(match d.inst.op.fu_class() {
            FuClass::ComplexInt => FU_COMPLEX,
            FuClass::Fp => FU_FP,
            FuClass::Branch => FU_BRANCH,
            FuClass::SimpleInt | FuClass::Mem => FU_SIMPLE,
        });
        let mut flags = 0u8;
        if d.inst.op.is_control() {
            flags |= F_CONTROL;
        }
        if d.mem.is_some_and(|m| m.size == 1) {
            flags |= F_BYTE;
        }
        match d.mem {
            Some(mem) if mem.is_store => {
                flags |= F_MEM | F_STORE;
                plan.addr.push(mem.addr);
                let ord = plan.store_rec.len() as u32;
                plan.mem_ord.push(ord);
                plan.store_rec.push(i as u32);
                plan.store_task.push(task);
                let (map, key) = if mem.size == 1 {
                    (&mut self.byte, mem.addr)
                } else {
                    (&mut self.word, mem.addr & !7)
                };
                map.entry(key)
                    .and_modify(|st| {
                        if st.youngest_task < task {
                            st.prev_ord = st.youngest_ord;
                        }
                        st.youngest_task = task;
                        st.youngest_ord = ord;
                    })
                    .or_insert(KeyState {
                        youngest_task: task,
                        youngest_ord: ord,
                        prev_ord: NONE,
                    });
            }
            Some(mem) => {
                flags |= F_MEM;
                plan.addr.push(mem.addr);
                plan.mem_ord.push(plan.load_rec.len() as u32);
                plan.load_rec.push(i as u32);
                // Store ordinals grow with stream position, so "the
                // youngest candidate" is simply the largest ordinal —
                // both within the task and across earlier tasks.
                let mut intra = NONE;
                let mut inter = NONE;
                let mut consider = |st: Option<&KeyState>| {
                    if let Some(st) = st {
                        if st.youngest_task == task {
                            if intra == NONE || st.youngest_ord > intra {
                                intra = st.youngest_ord;
                            }
                            if st.prev_ord != NONE && (inter == NONE || st.prev_ord > inter) {
                                inter = st.prev_ord;
                            }
                        } else if inter == NONE || st.youngest_ord > inter {
                            inter = st.youngest_ord;
                        }
                    }
                };
                if mem.size == 1 {
                    consider(self.byte.get(&mem.addr));
                    consider(self.word.get(&(mem.addr & !7)));
                } else {
                    consider(self.word.get(&(mem.addr & !7)));
                    // Byte stores only exist in programs that use `sb`;
                    // skip the 8-probe scan for the common all-word case.
                    if !self.byte.is_empty() {
                        for b in 0..8 {
                            consider(self.byte.get(&(mem.addr + b)));
                        }
                    }
                }
                plan.load_intra.push(intra);
                plan.load_inter.push(inter);
            }
            None => {
                plan.addr.push(0);
                plan.mem_ord.push(NONE);
            }
        }
        plan.flags.push(flags);
    }

    /// Closes the task arrays with their sentinels and trims every array
    /// to its length, so the finished plan holds no growth slack.
    pub fn finish(self) -> ReplayPlan {
        let mut plan = self.plan;
        plan.task_start.push(plan.pc.len() as u32);
        plan.task_store_start.push(plan.store_rec.len() as u32);
        plan.task_load_start.push(plan.load_rec.len() as u32);
        macro_rules! trim {
            ($($field:ident),*) => { $(plan.$field.shrink_to_fit();)* };
        }
        trim!(
            pc,
            op,
            flags,
            fu,
            src1,
            src2,
            dst,
            addr,
            mem_ord,
            task_start,
            task_start_pc,
            task_store_start,
            task_load_start,
            store_rec,
            store_task,
            load_rec,
            load_intra,
            load_inter
        );
        plan
    }
}

impl ReplayPlan {
    /// Builds the plan in one pass over an already-collected committed
    /// stream: a fold over [`PlanBuilder`].
    pub fn build(records: &[DynInst]) -> ReplayPlan {
        let mut builder = PlanBuilder::with_capacity(records.len());
        for d in records {
            builder.push(d);
        }
        builder.finish()
    }

    /// Number of records in the plan.
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// `true` when the plan holds no records.
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Every record in committed order, read back as [`Row`]s.
    pub fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.len()).map(|i| {
            let flags = self.flags[i];
            Row {
                seq: i as u64,
                pc: self.pc[i],
                op: self.op[i],
                src: [self.src1[i], self.src2[i]],
                dst: self.dst[i],
                mem: (flags & F_MEM != 0).then(|| MemAccess {
                    addr: self.addr[i],
                    size: if flags & F_BYTE != 0 { 1 } else { 8 },
                    is_store: flags & F_STORE != 0,
                }),
            }
        })
    }

    /// Number of dynamic tasks in the plan.
    pub fn tasks(&self) -> usize {
        self.task_start.len() - 1
    }

    /// The record-index range of task `k`.
    pub fn task_range(&self, k: usize) -> std::ops::Range<usize> {
        self.task_start[k] as usize..self.task_start[k + 1] as usize
    }

    /// Number of stores in task `k`.
    pub fn task_stores(&self, k: usize) -> u32 {
        self.task_store_start[k + 1] - self.task_store_start[k]
    }

    /// Number of loads in task `k`.
    pub fn task_loads(&self, k: usize) -> u32 {
        self.task_load_start[k + 1] - self.task_load_start[k]
    }

    /// Approximate resident size of the plan in bytes (for trace-cache
    /// budgeting).
    pub fn resident_bytes(&self) -> usize {
        self.pc.len() * std::mem::size_of::<Pc>()
            + self.op.len() * std::mem::size_of::<Opcode>()
            + self.flags.len()
            + self.fu.len()
            + self.src1.len()
            + self.src2.len()
            + self.dst.len()
            + self.addr.len() * std::mem::size_of::<Addr>()
            + self.mem_ord.len() * 4
            + (self.task_start.len() + self.task_store_start.len() + self.task_load_start.len()) * 4
            + self.task_start_pc.len() * std::mem::size_of::<Pc>()
            + (self.store_rec.len() + self.store_task.len()) * 4
            + (self.load_rec.len() + self.load_intra.len() + self.load_inter.len()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Emulator;
    use mds_isa::{ProgramBuilder, Reg};

    fn trace(build: impl FnOnce(&mut ProgramBuilder)) -> Vec<DynInst> {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        Emulator::new(&b.build().unwrap()).run().unwrap()
    }

    fn recurrence(iters: i32) -> Vec<DynInst> {
        trace(|b| {
            b.alloc("cell", 1);
            b.la(Reg::S0, "cell");
            b.li(Reg::T0, iters);
            b.label("loop");
            b.task();
            b.ld(Reg::T1, Reg::S0, 0);
            b.addi(Reg::T1, Reg::T1, 1);
            b.sd(Reg::T1, Reg::S0, 0);
            b.addi(Reg::T0, Reg::T0, -1);
            b.bne(Reg::T0, Reg::ZERO, "loop");
            b.halt();
        })
    }

    #[test]
    fn arrays_are_parallel_and_tasks_cover_the_stream() {
        let records = recurrence(5);
        let plan = ReplayPlan::build(&records);
        let n = records.len();
        assert_eq!(plan.pc.len(), n);
        assert_eq!(plan.flags.len(), n);
        assert_eq!(plan.mem_ord.len(), n);
        assert_eq!(*plan.task_start.last().unwrap() as usize, n);
        let mut covered = 0;
        for k in 0..plan.tasks() {
            let r = plan.task_range(k);
            assert_eq!(r.start, covered);
            covered = r.end;
            assert_eq!(plan.task_start_pc[k], records[r.start].pc);
        }
        assert_eq!(covered, n);
        assert_eq!(
            plan.store_rec.len() + plan.load_rec.len(),
            records.iter().filter(|d| d.mem.is_some()).count()
        );
    }

    /// Brute-force reference for the per-load dependence pre-resolution:
    /// scan all earlier records for overlapping stores.
    fn check_against_reference(records: &[DynInst]) {
        let plan = ReplayPlan::build(records);
        let mut task_of = Vec::with_capacity(records.len());
        let mut t = 0usize;
        for (i, d) in records.iter().enumerate() {
            if i > 0 && d.new_task {
                t += 1;
            }
            task_of.push(t);
        }
        for (lo, &rec) in plan.load_rec.iter().enumerate() {
            let i = rec as usize;
            let load = records[i].mem.unwrap();
            let lt = task_of[i];
            let mut intra: Option<u32> = None;
            let mut inter: Option<u32> = None;
            for (j, d) in records[..i].iter().enumerate() {
                let Some(m) = d.mem else { continue };
                if !m.is_store || !m.overlaps(&load) {
                    continue;
                }
                let ord = plan.mem_ord[j];
                if task_of[j] == lt {
                    intra = Some(ord); // later stream position wins
                } else {
                    inter = Some(ord);
                }
            }
            assert_eq!(plan.load_intra[lo], intra.unwrap_or(NONE), "load {lo}");
            assert_eq!(plan.load_inter[lo], inter.unwrap_or(NONE), "load {lo}");
        }
    }

    #[test]
    fn dependence_resolution_matches_brute_force_on_a_recurrence() {
        check_against_reference(&recurrence(8));
    }

    #[test]
    fn dependence_resolution_handles_mixed_byte_and_word_stores() {
        let records = trace(|b| {
            b.alloc("buf", 4);
            b.la(Reg::S0, "buf");
            b.li(Reg::T0, 6);
            b.label("loop");
            b.task();
            b.sd(Reg::T0, Reg::S0, 0);
            b.sb(Reg::T0, Reg::S0, 3); // byte inside the word above
            b.ld(Reg::T1, Reg::S0, 0); // overlaps both; byte store younger
            b.lb(Reg::T2, Reg::S0, 3); // overlaps both
            b.sb(Reg::T0, Reg::S0, 11);
            b.ld(Reg::T3, Reg::S0, 8); // word load over a byte-only store
            b.addi(Reg::T0, Reg::T0, -1);
            b.bne(Reg::T0, Reg::ZERO, "loop");
            b.halt();
        });
        check_against_reference(&records);
    }

    #[test]
    fn inter_task_producer_is_the_youngest_earlier_task_store() {
        let records = recurrence(6);
        let plan = ReplayPlan::build(&records);
        // Every loop-task load (task >= 1) depends on the previous task's
        // store — distance exactly 1.
        for (lo, &inter) in plan.load_inter.iter().enumerate() {
            let i = plan.load_rec[lo] as usize;
            if plan.mem_ord[i] == NONE {
                continue;
            }
            let lt = plan
                .task_start
                .partition_point(|&s| (s as usize) <= i)
                .saturating_sub(1);
            if lt >= 1 && inter != NONE {
                assert_eq!(plan.store_task[inter as usize] as usize, lt - 1);
            }
        }
    }

    /// Without stores, no load has a producer.
    #[test]
    fn empty_and_storeless_streams_never_fork() {
        let plan = ReplayPlan::build(&[]);
        assert_eq!(plan.tasks(), 0);
        let records = trace(|b| {
            b.alloc("x", 1);
            b.la(Reg::S0, "x");
            b.task();
            b.ld(Reg::T0, Reg::S0, 0);
            b.task();
            b.ld(Reg::T1, Reg::S0, 0);
            b.halt();
        });
        let plan = ReplayPlan::build(&records);
        assert!(plan.store_rec.is_empty());
        assert!(plan.load_inter.iter().all(|&x| x == NONE));
    }

    #[test]
    fn resident_bytes_tracks_length() {
        let small = ReplayPlan::build(&recurrence(2));
        let big = ReplayPlan::build(&recurrence(20));
        assert!(big.resident_bytes() > small.resident_bytes());
    }
}
