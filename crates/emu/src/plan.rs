//! Structure-of-arrays replay plan: the committed stream predecoded into
//! dense vectors, with memory dependences pre-resolved.
//!
//! Replaying raw [`DynInst`] records would be expensive: every simulator
//! pass would re-decode operands (`Instruction::reads`/`writes` are
//! `match`es over the format), re-split tasks, and re-discover store→load
//! overlaps through per-task hash maps. None of that depends on timing:
//! operands, task boundaries, and which earlier store a load overlaps are
//! pure functions of the committed stream.
//!
//! [`ReplayPlan`] hoists all of it out of the replay loop. A
//! [`PlanBuilder`] is a [`CommitSink`]: the emulator commits each
//! instruction straight into it, and it lowers the stream one committed
//! instruction at a time. So [`crate::Trace::capture`] builds the plan
//! while the emulator runs, with no record built or stored; the plan is
//! then shared read-only by every simulator configuration replaying that
//! trace. It keeps what depends only on the static instruction once per
//! PC, and per dynamic record only what the record adds:
//!
//! - per PC: the [`Decoded`] instruction (opcode, flags, functional-unit
//!   class, dense operand indices), decoded the first time the stream
//!   reaches that PC;
//! - per record: its PC;
//! - per task: record / store / load range starts and the task's start
//!   PC;
//! - per store: owning record, task and effective address;
//! - per load: owning record, effective address, and the pre-resolved
//!   *intra-task* forwarding source and *inter-task* producer store (as
//!   global store ordinals).
//!
//! A load's or store's ordinal is its position among the stream's loads
//! or stores. A consumer walking task `k` counts them up from
//! `task_load_start[k]` and `task_store_start[k]`.
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
//! # Memoized sequencer outcomes
//!
//! The Multiscalar sequencer (next-task predictor and task-descriptor
//! cache) sees only the sequence of task start PCs, so what it decides
//! for each task depends on the trace and the sequencer's configuration,
//! never on the speculation policy or the timing. The plan keeps one
//! [`SequencerOutcome`] per configuration it has been asked for
//! ([`ReplayPlan::sequencer`]): the first replay computes it, and every
//! later replay of the trace under that configuration shares it. The
//! outcomes are counted by [`ReplayPlan::resident_bytes`] and ignored by
//! equality, since they are a function of the rest of the plan.
//!
//! # Reading records back
//!
//! [`ReplayPlan::rows`] yields one [`Row`] per record — sequence number,
//! PC, opcode, dense operands and the memory access — which is everything
//! the sliding-window analyzer and the superscalar model read. A
//! [`DynInst`] converts into the same view, so those consumers run one
//! algorithm whichever form the stream arrives in.

use crate::dyninst::{BranchOutcome, DynInst, MemAccess};
use crate::machine::CommitSink;
use mds_harness::hash::FxHashMap;
use mds_isa::{Addr, FuClass, Instruction, Opcode, Pc};
use std::sync::{Arc, Mutex, PoisonError};

/// Sentinel ordinal: "no such store".
pub const NONE: u32 = u32::MAX;

/// Sentinel dense register index: "no operand in this slot".
pub const NO_REG: u8 = u8::MAX;

/// Decoded flag: the instruction is a memory operation.
pub const F_MEM: u8 = 1 << 0;
/// Decoded flag: the memory operation is a store.
pub const F_STORE: u8 = 1 << 1;
/// Decoded flag: the instruction is a control transfer.
pub const F_CONTROL: u8 = 1 << 2;
/// Decoded flag: the memory operation accesses one byte (otherwise it
/// accesses an 8-byte word — the only two sizes the ISA has).
pub const F_BYTE: u8 = 1 << 3;

/// Functional-unit class codes for [`Decoded::fu`] (memory operations
/// are dispatched via [`F_MEM`] instead).
pub const FU_SIMPLE: u8 = 0;
/// Complex-integer class code.
pub const FU_COMPLEX: u8 = 1;
/// Floating-point class code.
pub const FU_FP: u8 = 2;
/// Branch class code.
pub const FU_BRANCH: u8 = 3;

/// One static instruction as replay reads it, decoded once per PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// The opcode (for latency lookup).
    pub op: Opcode,
    /// [`F_MEM`] / [`F_STORE`] / [`F_CONTROL`] / [`F_BYTE`] bits.
    pub flags: u8,
    /// Functional-unit class code ([`FU_SIMPLE`]…).
    pub fu: u8,
    /// Dense indices of the two read slots (slot 0 is the base register
    /// of a memory operation), or [`NO_REG`].
    pub src: [u8; 2],
    /// Dense index of the written register, or [`NO_REG`].
    pub dst: u8,
}

fn dense(r: Option<mds_isa::RegRef>) -> u8 {
    r.map_or(NO_REG, |r| r.dense_index() as u8)
}

impl Decoded {
    /// What a `nop` decodes to; it also fills the slots of PCs the stream
    /// never reached.
    pub const NOP: Decoded = Decoded {
        op: Opcode::Nop,
        flags: 0,
        fu: FU_SIMPLE,
        src: [NO_REG; 2],
        dst: NO_REG,
    };

    /// Decodes one static instruction.
    #[inline]
    pub fn of(inst: &Instruction) -> Decoded {
        let op = inst.op;
        let mut flags = 0u8;
        if op.is_control() {
            flags |= F_CONTROL;
        }
        if op.is_mem() {
            flags |= F_MEM;
        }
        if op.is_store() {
            flags |= F_STORE;
        }
        if op.access_bytes() == 1 {
            flags |= F_BYTE;
        }
        let [r1, r2] = inst.reads();
        Decoded {
            op,
            flags,
            fu: match op.fu_class() {
                FuClass::ComplexInt => FU_COMPLEX,
                FuClass::Fp => FU_FP,
                FuClass::Branch => FU_BRANCH,
                FuClass::SimpleInt | FuClass::Mem => FU_SIMPLE,
            },
            src: [dense(r1), dense(r2)],
            dst: dense(inst.writes()),
        }
    }

    /// The access size in bytes of a memory operation.
    pub fn access_bytes(&self) -> u8 {
        if self.flags & F_BYTE != 0 {
            1
        } else {
            8
        }
    }
}

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
    /// Per PC: the decoded instruction, up to the highest PC the stream
    /// reached ([`Decoded::NOP`] for PCs it never reached).
    pub code: Vec<Decoded>,
    /// Per record: the instruction's PC.
    pub pc: Vec<Pc>,
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
    /// Per store: effective byte address.
    pub store_addr: Vec<Addr>,
    /// Per load: the record index it came from.
    pub load_rec: Vec<u32>,
    /// Per load: effective byte address.
    pub load_addr: Vec<Addr>,
    /// Per load: same-task forwarding source (global store ordinal), or
    /// [`NONE`].
    pub load_intra: Vec<u32>,
    /// Per load: youngest earlier-task overlapping store (global store
    /// ordinal), or [`NONE`].
    pub load_inter: Vec<u32>,
    /// Sequencer outcomes computed so far (see module docs).
    sequencer: SequencerMemo,
}

/// What the Multiscalar sequencer decided for every task of one trace
/// under one sequencer configuration, plus its control-prediction
/// counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SequencerOutcome {
    /// Per task: [`MISPREDICTED`] and [`DESCRIPTOR_HIT`] bits.
    pub task_flags: Vec<u8>,
    /// Next-task predictions made (one per task after the first).
    pub control_predictions: u64,
    /// Of those, the mispredicted ones.
    pub control_mispredicts: u64,
}

/// [`SequencerOutcome::task_flags`] bit: the task's start PC was not the
/// one predicted from its predecessor (never set for task 0).
pub const MISPREDICTED: u8 = 1 << 0;
/// [`SequencerOutcome::task_flags`] bit: the task's descriptor was cached.
pub const DESCRIPTOR_HIT: u8 = 1 << 1;

/// Memoized outcomes keyed by sequencer configuration, `(path_depth,
/// descriptor_cache)`.
type SequencerEntries = Vec<((usize, usize), Arc<SequencerOutcome>)>;

/// The plan's memo of [`SequencerOutcome`]s, one per configuration, shared
/// by the plan's clones. It is derived from the plan's other fields, so
/// two plans compare equal whatever their memos hold.
#[derive(Debug, Clone, Default)]
struct SequencerMemo(Arc<Mutex<SequencerEntries>>);

impl SequencerMemo {
    fn entries(&self) -> std::sync::MutexGuard<'_, SequencerEntries> {
        // An entry is pushed whole, so a panic elsewhere cannot leave a
        // half-written memo behind.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl PartialEq for SequencerMemo {
    fn eq(&self, _: &SequencerMemo) -> bool {
        true
    }
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

impl From<&DynInst> for Row {
    #[inline]
    fn from(d: &DynInst) -> Row {
        let c = Decoded::of(&d.inst);
        Row {
            seq: d.seq,
            pc: d.pc,
            op: c.op,
            src: c.src,
            dst: c.dst,
            mem: d.mem,
        }
    }
}

/// Lowers a committed stream into a [`ReplayPlan`] one instruction at a
/// time (see module docs). Commit instructions in committed order — from
/// [`crate::Emulator::run_into`], or as records with
/// [`PlanBuilder::push`] — then call [`PlanBuilder::finish`].
///
/// Task boundaries follow the task splitter's semantics: record 0 always
/// begins task 0, and a later record begins a new task exactly when its
/// `new_task` marker is set. Every record at one PC must carry the same
/// instruction, as every record of one program does.
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
/// Emulator::new(&p).run_into(&mut builder)?;
/// let plan = builder.finish();
/// assert_eq!(plan, ReplayPlan::build(&Emulator::new(&p).run()?));
/// assert_eq!(plan.load_intra, vec![0]); // the load reads the store
/// assert_eq!(plan.load_addr, plan.store_addr);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct PlanBuilder {
    plan: ReplayPlan,
    /// `decoded[pc]`: whether `plan.code[pc]` holds the decoded
    /// instruction yet.
    decoded: Vec<bool>,
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
    /// length spares the per-record array its growth copies.
    fn with_capacity(records: usize) -> PlanBuilder {
        PlanBuilder {
            plan: ReplayPlan {
                code: Vec::new(),
                pc: Vec::with_capacity(records),
                task_start: Vec::new(),
                task_start_pc: Vec::new(),
                task_store_start: Vec::new(),
                task_load_start: Vec::new(),
                store_rec: Vec::new(),
                store_task: Vec::new(),
                store_addr: Vec::new(),
                load_rec: Vec::new(),
                load_addr: Vec::new(),
                load_intra: Vec::new(),
                load_inter: Vec::new(),
                sequencer: SequencerMemo::default(),
            },
            decoded: Vec::new(),
            word: FxHashMap::default(),
            byte: FxHashMap::default(),
            task: 0,
        }
    }

    /// Decodes the instruction at `pc` on the stream's first visit.
    #[cold]
    #[inline(never)]
    fn decode(&mut self, pc: usize, inst: &Instruction) {
        if pc >= self.decoded.len() {
            self.decoded.resize(pc + 1, false);
            self.plan.code.resize(pc + 1, Decoded::NOP);
        }
        self.decoded[pc] = true;
        self.plan.code[pc] = Decoded::of(inst);
    }

    /// Lowers the next committed record: the [`CommitSink`] commit of its
    /// fields.
    #[inline]
    pub fn push(&mut self, d: &DynInst) {
        self.commit(d.pc, &d.inst, d.mem, d.branch, d.new_task);
    }
}

impl CommitSink for PlanBuilder {
    /// Lowers the next committed instruction.
    #[inline]
    fn commit(
        &mut self,
        pc: Pc,
        inst: &Instruction,
        mem: Option<MemAccess>,
        _branch: Option<BranchOutcome>,
        new_task: bool,
    ) {
        let at = pc as usize;
        if !self.decoded.get(at).is_some_and(|&seen| seen) {
            self.decode(at, inst);
        }
        debug_assert_eq!(
            self.plan.code[at],
            Decoded::of(inst),
            "one instruction per PC"
        );
        debug_assert_eq!(mem.is_some(), inst.op.is_mem());
        let plan = &mut self.plan;
        let i = plan.pc.len();
        if i == 0 || new_task {
            if i != 0 {
                self.task += 1;
            }
            plan.task_start.push(i as u32);
            plan.task_start_pc.push(pc);
            plan.task_store_start.push(plan.store_rec.len() as u32);
            plan.task_load_start.push(plan.load_rec.len() as u32);
        }
        let task = self.task;
        plan.pc.push(pc);
        match mem {
            Some(mem) if mem.is_store => {
                let ord = plan.store_rec.len() as u32;
                plan.store_rec.push(i as u32);
                plan.store_task.push(task);
                plan.store_addr.push(mem.addr);
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
                plan.load_rec.push(i as u32);
                plan.load_addr.push(mem.addr);
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
            None => {}
        }
    }
}

impl PlanBuilder {
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
            code,
            pc,
            task_start,
            task_start_pc,
            task_store_start,
            task_load_start,
            store_rec,
            store_task,
            store_addr,
            load_rec,
            load_addr,
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
        let mut loads = self.load_addr.iter();
        let mut stores = self.store_addr.iter();
        self.pc.iter().enumerate().map(move |(i, &pc)| {
            let d = &self.code[pc as usize];
            Row {
                seq: i as u64,
                pc,
                op: d.op,
                src: d.src,
                dst: d.dst,
                mem: (d.flags & F_MEM != 0).then(|| {
                    let is_store = d.flags & F_STORE != 0;
                    let addrs = if is_store { &mut stores } else { &mut loads };
                    MemAccess {
                        addr: *addrs.next().expect("one address per memory record"),
                        size: d.access_bytes(),
                        is_store,
                    }
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

    /// The global store-ordinal range of task `k`.
    pub fn task_store_range(&self, k: usize) -> std::ops::Range<usize> {
        self.task_store_start[k] as usize..self.task_store_start[k + 1] as usize
    }

    /// The global load-ordinal range of task `k`.
    pub fn task_load_range(&self, k: usize) -> std::ops::Range<usize> {
        self.task_load_start[k] as usize..self.task_load_start[k + 1] as usize
    }

    /// Number of stores in task `k`.
    pub fn task_stores(&self, k: usize) -> u32 {
        self.task_store_start[k + 1] - self.task_store_start[k]
    }

    /// Number of loads in task `k`.
    pub fn task_loads(&self, k: usize) -> u32 {
        self.task_load_start[k + 1] - self.task_load_start[k]
    }

    /// The sequencer's outcome for every task under the configuration
    /// `(path_depth, descriptor_cache)`: computed by `resolve` over the
    /// task start PCs on the first call for that configuration, and
    /// shared by every later call, so every caller must resolve a
    /// configuration the same way. Concurrent first calls wait for one
    /// computation, so all callers get the same outcome.
    pub fn sequencer(
        &self,
        path_depth: usize,
        descriptor_cache: usize,
        resolve: impl FnOnce(&[Pc]) -> SequencerOutcome,
    ) -> Arc<SequencerOutcome> {
        let key = (path_depth, descriptor_cache);
        let mut entries = self.sequencer.entries();
        if let Some((_, outcome)) = entries.iter().find(|(k, _)| *k == key) {
            return Arc::clone(outcome);
        }
        let outcome = Arc::new(resolve(&self.task_start_pc));
        entries.push((key, Arc::clone(&outcome)));
        outcome
    }

    /// Approximate resident size of the plan in bytes (for trace-cache
    /// budgeting), memoized sequencer outcomes included.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let sequencer: usize = self
            .sequencer
            .entries()
            .iter()
            .map(|(_, outcome)| size_of::<SequencerOutcome>() + outcome.task_flags.len())
            .sum();
        sequencer
            + self.code.len() * size_of::<Decoded>()
            + self.pc.len() * size_of::<Pc>()
            + (self.task_start.len() + self.task_store_start.len() + self.task_load_start.len()) * 4
            + self.task_start_pc.len() * size_of::<Pc>()
            + (self.store_rec.len() + self.store_task.len()) * 4
            + self.store_addr.len() * size_of::<Addr>()
            + (self.load_rec.len() + self.load_intra.len() + self.load_inter.len()) * 4
            + self.load_addr.len() * size_of::<Addr>()
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
        assert_eq!(*plan.task_start.last().unwrap() as usize, n);
        let mut covered = 0;
        for k in 0..plan.tasks() {
            let r = plan.task_range(k);
            assert_eq!(r.start, covered);
            covered = r.end;
            assert_eq!(plan.task_start_pc[k], records[r.start].pc);
        }
        assert_eq!(covered, n);
        assert_eq!(plan.store_addr.len(), plan.store_rec.len());
        assert_eq!(plan.load_addr.len(), plan.load_rec.len());
        assert_eq!(
            plan.store_rec.len() + plan.load_rec.len(),
            records.iter().filter(|d| d.mem.is_some()).count()
        );
    }

    #[test]
    fn code_holds_one_decoded_instruction_per_pc() {
        let records = recurrence(5);
        let plan = ReplayPlan::build(&records);
        let top = records.iter().map(|d| d.pc).max().unwrap() as usize;
        assert_eq!(plan.code.len(), top + 1);
        for d in &records {
            let c = plan.code[d.pc as usize];
            assert_eq!(c, Decoded::of(&d.inst));
            assert_eq!(c.flags & F_MEM != 0, d.mem.is_some());
            assert_eq!(c.flags & F_STORE != 0, d.is_store());
            if let Some(m) = d.mem {
                assert_eq!(c.access_bytes(), m.size);
            }
        }
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

    /// Brute-force reference for the per-load dependence pre-resolution:
    /// scan all earlier records for overlapping stores.
    fn check_against_reference(records: &[DynInst]) {
        let plan = ReplayPlan::build(records);
        let ord = ordinals(records);
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
            assert_eq!(ord[i] as usize, lo);
            let load = records[i].mem.unwrap();
            let lt = task_of[i];
            let mut intra: Option<u32> = None;
            let mut inter: Option<u32> = None;
            for (j, d) in records[..i].iter().enumerate() {
                let Some(m) = d.mem else { continue };
                if !m.is_store || !m.overlaps(&load) {
                    continue;
                }
                if task_of[j] == lt {
                    intra = Some(ord[j]); // later stream position wins
                } else {
                    inter = Some(ord[j]);
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
        let plan = ReplayPlan::build(&records);
        for (row, d) in plan.rows().zip(&records) {
            assert_eq!(row, Row::from(d));
        }
    }

    #[test]
    fn inter_task_producer_is_the_youngest_earlier_task_store() {
        let records = recurrence(6);
        let plan = ReplayPlan::build(&records);
        // Every loop-task load (task >= 1) depends on the previous task's
        // store — distance exactly 1.
        for (lo, &inter) in plan.load_inter.iter().enumerate() {
            let i = plan.load_rec[lo] as usize;
            let lt = plan
                .task_start
                .partition_point(|&s| (s as usize) <= i)
                .saturating_sub(1);
            assert!(plan.task_load_range(lt).contains(&lo));
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
