//! The architectural machine state and the instruction interpreter.
//!
//! [`Emulator::run_into`] holds the emulator's one fetch → execute →
//! count loop. It commits each instruction straight into a
//! [`CommitSink`] as plain arguments — the PC, the static instruction,
//! the memory access, the branch outcome and the task-head bit — so a
//! sink such as [`crate::PlanBuilder`] lowers the stream with no record
//! built in between. [`Emulator::run`] and [`Emulator::run_with`] are
//! adapters over the same loop that build the [`DynInst`] debugging view.

use crate::dyninst::{BranchOutcome, DynInst, MemAccess};
use crate::memory::Memory;
use mds_isa::{Addr, Instruction, Opcode, Pc, Program, Reg, STACK_BASE};
use std::fmt;

/// Error raised during functional execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmuError {
    /// The PC left the program (fell off the end or a wild jump).
    PcOutOfRange {
        /// The offending PC.
        pc: Pc,
    },
    /// The configured instruction budget was exhausted before `halt`.
    InstructionLimit {
        /// Instructions executed when the limit hit.
        executed: u64,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::PcOutOfRange { pc } => write!(f, "pc {pc} outside program"),
            EmuError::InstructionLimit { executed } => {
                write!(f, "instruction limit reached after {executed} instructions")
            }
        }
    }
}

impl std::error::Error for EmuError {}

/// Architectural state: both register files, the PC, and data memory.
#[derive(Debug, Clone)]
pub struct MachineState {
    int: [i64; 32],
    fp: [f64; 32],
    /// Current program counter.
    pub pc: Pc,
    /// Data memory.
    pub mem: Memory,
    halted: bool,
}

impl MachineState {
    fn new() -> Self {
        let mut s = MachineState {
            int: [0; 32],
            fp: [0.0; 32],
            pc: 0,
            mem: Memory::new(),
            halted: false,
        };
        s.int[Reg::SP.index() as usize] = STACK_BASE as i64;
        s
    }

    /// Reads an integer register (`r0` is always zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> i64 {
        self.int[r.index() as usize]
    }

    /// Writes an integer register; writes to `r0` are ignored.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: i64) {
        if !r.is_zero() {
            self.int[r.index() as usize] = v;
        }
    }

    /// Reads a floating-point register.
    #[inline]
    pub fn freg(&self, r: Reg) -> f64 {
        self.fp[r.index() as usize]
    }

    /// Writes a floating-point register.
    #[inline]
    pub fn set_freg(&mut self, r: Reg, v: f64) {
        self.fp[r.index() as usize] = v;
    }

    /// Returns `true` once `halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }
}

/// Aggregate counts for a completed (or partial) run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Committed dynamic instructions.
    pub instructions: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed control transfers (conditional or not).
    pub branches: u64,
    /// Conditional branches that were taken.
    pub taken_branches: u64,
    /// Task boundaries crossed (= number of dynamic tasks).
    pub tasks: u64,
}

/// Receives the committed instruction stream from
/// [`Emulator::run_into`], one instruction at a time, in committed order.
///
/// `mem` is `Some` exactly for loads and stores, and `branch` exactly for
/// control transfers. `new_task` marks the first instruction of the run
/// and every instruction at a task head. The sink sees the branch outcome
/// because the [`DynInst`] view carries it: a taken branch to the
/// fall-through PC cannot be told from a not-taken one by where the
/// machine went next.
pub trait CommitSink {
    /// Takes the next committed instruction.
    fn commit(
        &mut self,
        pc: Pc,
        inst: &Instruction,
        mem: Option<MemAccess>,
        branch: Option<BranchOutcome>,
        new_task: bool,
    );
}

/// The no-op sink: a run that only wants the [`TraceSummary`] passes
/// `&mut ()` to [`Emulator::run_into`].
impl CommitSink for () {
    #[inline]
    fn commit(
        &mut self,
        _: Pc,
        _: &Instruction,
        _: Option<MemAccess>,
        _: Option<BranchOutcome>,
        _: bool,
    ) {
    }
}

/// The [`DynInst`] adapter behind [`Emulator::run`] and
/// [`Emulator::run_with`]: the only place a record is built.
struct Records<F> {
    /// Sequence number of the next record.
    seq: u64,
    f: F,
}

impl<F: FnMut(&DynInst)> CommitSink for Records<F> {
    #[inline]
    fn commit(
        &mut self,
        pc: Pc,
        inst: &Instruction,
        mem: Option<MemAccess>,
        branch: Option<BranchOutcome>,
        new_task: bool,
    ) {
        let d = DynInst {
            seq: self.seq,
            pc,
            inst: *inst,
            mem,
            branch,
            new_task,
        };
        self.seq += 1;
        (self.f)(&d);
    }
}

/// The functional emulator.
///
/// See the [crate documentation](crate) for an example. An emulator borrows
/// its program; construct a fresh one per run.
#[derive(Debug, Clone)]
pub struct Emulator<'p> {
    program: &'p Program,
    /// `is_head[pc]`: whether `pc` begins a task. A dense copy of the
    /// program's task-head set, so the per-instruction check is one index.
    is_head: Vec<bool>,
    state: MachineState,
    seq: u64,
    limit: u64,
    summary: TraceSummary,
}

/// Default instruction budget: large enough for every workload in the
/// suite, small enough to catch runaway programs in tests.
pub const DEFAULT_LIMIT: u64 = 1 << 33;

impl<'p> Emulator<'p> {
    /// Creates an emulator at the program's entry point with initialized
    /// data memory and `sp` pointing at the stack base.
    pub fn new(program: &'p Program) -> Self {
        let mut state = MachineState::new();
        state.pc = program.entry();
        for (addr, value) in program.initial_data() {
            state.mem.write_u64(addr, value);
        }
        let mut is_head = vec![false; program.len()];
        for pc in program.task_heads() {
            if let Some(slot) = is_head.get_mut(pc as usize) {
                *slot = true;
            }
        }
        Emulator {
            program,
            is_head,
            state,
            seq: 0,
            limit: DEFAULT_LIMIT,
            summary: TraceSummary::default(),
        }
    }

    /// Sets the instruction budget (default [`DEFAULT_LIMIT`]).
    pub fn with_limit(mut self, limit: u64) -> Self {
        self.limit = limit;
        self
    }

    /// The architectural state (registers, memory, PC).
    pub fn state(&self) -> &MachineState {
        &self.state
    }

    /// Counts accumulated so far.
    pub fn summary(&self) -> TraceSummary {
        self.summary
    }

    /// Runs to `halt`, committing each instruction into `sink` in
    /// committed order, and returns the counts of the whole run.
    ///
    /// This is the emulator's only interpreter loop. Before each
    /// instruction it checks, in order: a halted machine stops `Ok`, an
    /// exhausted budget is an error, and a PC outside the program is an
    /// error. So a budget equal to the stream's length still halts `Ok`.
    /// An emulator that has halted commits nothing more.
    ///
    /// # Errors
    ///
    /// [`EmuError::PcOutOfRange`] on a wild PC and
    /// [`EmuError::InstructionLimit`] when the budget is exhausted; the
    /// instructions before the error have been committed.
    pub fn run_into(&mut self, sink: &mut impl CommitSink) -> Result<TraceSummary, EmuError> {
        while !self.state.halted {
            if self.seq >= self.limit {
                return Err(EmuError::InstructionLimit { executed: self.seq });
            }
            let pc = self.state.pc;
            let inst = *self
                .program
                .fetch(pc)
                .ok_or(EmuError::PcOutOfRange { pc })?;
            // `fetch` succeeded, so `pc` indexes the program.
            let new_task = self.seq == 0 || self.is_head[pc as usize];
            let (mem, branch) = self.execute(pc, &inst);

            self.seq += 1;
            self.summary.instructions += 1;
            if let Some(m) = mem {
                if m.is_store {
                    self.summary.stores += 1;
                } else {
                    self.summary.loads += 1;
                }
            }
            if inst.op.is_control() {
                self.summary.branches += 1;
                if inst.op.is_cond_branch() && branch.is_some_and(|b| b.taken) {
                    self.summary.taken_branches += 1;
                }
            }
            if new_task {
                self.summary.tasks += 1;
            }
            sink.commit(pc, &inst, mem, branch, new_task);
        }
        Ok(self.summary)
    }

    /// Runs to `halt`, collecting the full trace in memory as
    /// [`DynInst`] records.
    ///
    /// Prefer [`Emulator::run_into`] for long workloads — traces can be
    /// hundreds of millions of records.
    ///
    /// # Errors
    ///
    /// Propagates any [`EmuError`] from [`Emulator::run_into`].
    pub fn run(&mut self) -> Result<Vec<DynInst>, EmuError> {
        let mut out = Vec::new();
        self.run_with(|d| out.push(*d))?;
        Ok(out)
    }

    /// Runs to `halt`, building each committed instruction's [`DynInst`]
    /// record and streaming it through `f`.
    ///
    /// # Errors
    ///
    /// Propagates any [`EmuError`] from [`Emulator::run_into`].
    pub fn run_with(&mut self, f: impl FnMut(&DynInst)) -> Result<TraceSummary, EmuError> {
        self.run_into(&mut Records { seq: self.seq, f })
    }

    fn execute(
        &mut self,
        pc: Pc,
        inst: &Instruction,
    ) -> (Option<MemAccess>, Option<BranchOutcome>) {
        use Opcode::*;
        let s = &mut self.state;
        let next = pc + 1;
        let mut mem = None;
        let mut branch = None;
        let mut new_pc = next;

        macro_rules! alu {
            ($f:expr) => {{
                let a = s.reg(inst.rs1);
                let b = s.reg(inst.rs2);
                #[allow(clippy::redundant_closure_call)]
                s.set_reg(inst.rd, ($f)(a, b));
            }};
        }
        macro_rules! alui {
            ($f:expr) => {{
                let a = s.reg(inst.rs1);
                let b = inst.imm as i64;
                #[allow(clippy::redundant_closure_call)]
                s.set_reg(inst.rd, ($f)(a, b));
            }};
        }
        macro_rules! falu {
            ($f:expr) => {{
                let a = s.freg(inst.rs1);
                let b = s.freg(inst.rs2);
                #[allow(clippy::redundant_closure_call)]
                s.set_freg(inst.rd, ($f)(a, b));
            }};
        }
        macro_rules! cond {
            ($f:expr) => {{
                let a = s.reg(inst.rs1);
                let b = s.reg(inst.rs2);
                #[allow(clippy::redundant_closure_call)]
                let taken = ($f)(a, b);
                if taken {
                    new_pc = inst.imm as Pc;
                }
                branch = Some(BranchOutcome {
                    taken,
                    next_pc: new_pc,
                });
            }};
        }

        match inst.op {
            Add => alu!(|a: i64, b: i64| a.wrapping_add(b)),
            Sub => alu!(|a: i64, b: i64| a.wrapping_sub(b)),
            Mul => alu!(|a: i64, b: i64| a.wrapping_mul(b)),
            Div => alu!(|a: i64, b: i64| if b == 0 { -1 } else { a.wrapping_div(b) }),
            Rem => alu!(|a: i64, b: i64| if b == 0 { a } else { a.wrapping_rem(b) }),
            And => alu!(|a, b| a & b),
            Or => alu!(|a, b| a | b),
            Xor => alu!(|a, b| a ^ b),
            Sll => alu!(|a: i64, b: i64| ((a as u64) << (b as u64 & 63)) as i64),
            Srl => alu!(|a: i64, b: i64| ((a as u64) >> (b as u64 & 63)) as i64),
            Sra => alu!(|a: i64, b: i64| a >> (b as u64 & 63)),
            Slt => alu!(|a: i64, b: i64| (a < b) as i64),
            Sltu => alu!(|a: i64, b: i64| ((a as u64) < (b as u64)) as i64),
            Addi => alui!(|a: i64, b: i64| a.wrapping_add(b)),
            Andi => alui!(|a, b| a & b),
            Ori => alui!(|a, b| a | b),
            Xori => alui!(|a, b| a ^ b),
            Slli => alui!(|a: i64, b: i64| ((a as u64) << (b as u64 & 63)) as i64),
            Srli => alui!(|a: i64, b: i64| ((a as u64) >> (b as u64 & 63)) as i64),
            Srai => alui!(|a: i64, b: i64| a >> (b as u64 & 63)),
            Slti => alui!(|a: i64, b: i64| (a < b) as i64),
            Li => s.set_reg(inst.rd, inst.imm as i64),
            Ld => {
                let addr = effective(s, inst);
                s.set_reg(inst.rd, s.mem.read_u64(addr) as i64);
                mem = Some(MemAccess {
                    addr,
                    size: 8,
                    is_store: false,
                });
            }
            Lb => {
                let addr = effective(s, inst);
                s.set_reg(inst.rd, s.mem.read_u8(addr) as i64);
                mem = Some(MemAccess {
                    addr,
                    size: 1,
                    is_store: false,
                });
            }
            Sd => {
                let addr = effective(s, inst);
                s.mem.write_u64(addr, s.reg(inst.rs2) as u64);
                mem = Some(MemAccess {
                    addr,
                    size: 8,
                    is_store: true,
                });
            }
            Sb => {
                let addr = effective(s, inst);
                s.mem.write_u8(addr, s.reg(inst.rs2) as u8);
                mem = Some(MemAccess {
                    addr,
                    size: 1,
                    is_store: true,
                });
            }
            Beq => cond!(|a, b| a == b),
            Bne => cond!(|a, b| a != b),
            Blt => cond!(|a, b| a < b),
            Bge => cond!(|a, b| a >= b),
            Bltu => cond!(|a: i64, b: i64| (a as u64) < (b as u64)),
            Bgeu => cond!(|a: i64, b: i64| (a as u64) >= (b as u64)),
            J => {
                new_pc = inst.imm as Pc;
                branch = Some(BranchOutcome {
                    taken: true,
                    next_pc: new_pc,
                });
            }
            Jal => {
                s.set_reg(inst.rd, next as i64);
                new_pc = inst.imm as Pc;
                branch = Some(BranchOutcome {
                    taken: true,
                    next_pc: new_pc,
                });
            }
            Jr => {
                new_pc = s.reg(inst.rs1) as Pc;
                branch = Some(BranchOutcome {
                    taken: true,
                    next_pc: new_pc,
                });
            }
            FAdd => falu!(|a: f64, b: f64| a + b),
            FSub => falu!(|a: f64, b: f64| a - b),
            FMul => falu!(|a: f64, b: f64| a * b),
            FDiv => falu!(|a: f64, b: f64| a / b),
            FSqrt => {
                let v = s.freg(inst.rs1);
                s.set_freg(inst.rd, v.sqrt());
            }
            FMov => {
                let v = s.freg(inst.rs1);
                s.set_freg(inst.rd, v);
            }
            FNeg => {
                let v = s.freg(inst.rs1);
                s.set_freg(inst.rd, -v);
            }
            Fld => {
                let addr = effective(s, inst);
                s.set_freg(inst.rd, s.mem.read_f64(addr));
                mem = Some(MemAccess {
                    addr,
                    size: 8,
                    is_store: false,
                });
            }
            Fsd => {
                let addr = effective(s, inst);
                s.mem.write_f64(addr, s.freg(inst.rs2));
                mem = Some(MemAccess {
                    addr,
                    size: 8,
                    is_store: true,
                });
            }
            Feq => {
                let r = (s.freg(inst.rs1) == s.freg(inst.rs2)) as i64;
                s.set_reg(inst.rd, r);
            }
            Flt => {
                let r = (s.freg(inst.rs1) < s.freg(inst.rs2)) as i64;
                s.set_reg(inst.rd, r);
            }
            Fle => {
                let r = (s.freg(inst.rs1) <= s.freg(inst.rs2)) as i64;
                s.set_reg(inst.rd, r);
            }
            FCvtDl => {
                let v = s.reg(inst.rs1) as f64;
                s.set_freg(inst.rd, v);
            }
            FCvtLd => {
                let v = s.freg(inst.rs1) as i64; // saturating cast
                s.set_reg(inst.rd, v);
            }
            Nop => {}
            Halt => {
                s.halted = true;
            }
        }
        s.pc = new_pc;
        (mem, branch)
    }
}

#[inline]
fn effective(s: &MachineState, inst: &Instruction) -> Addr {
    (s.reg(inst.rs1).wrapping_add(inst.imm as i64)) as Addr
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_isa::ProgramBuilder;

    fn run(b: ProgramBuilder) -> (Vec<DynInst>, MachineState) {
        let p = b.build().unwrap();
        let mut e = Emulator::new(&p);
        let t = e.run().unwrap();
        (t, e.state().clone())
    }

    #[test]
    fn arithmetic_semantics() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 10);
        b.li(Reg::T1, 3);
        b.add(Reg::A0, Reg::T0, Reg::T1);
        b.sub(Reg::A1, Reg::T0, Reg::T1);
        b.mul(Reg::A2, Reg::T0, Reg::T1);
        b.div(Reg::A3, Reg::T0, Reg::T1);
        b.rem(Reg::A4, Reg::T0, Reg::T1);
        b.halt();
        let (_, s) = run(b);
        assert_eq!(s.reg(Reg::A0), 13);
        assert_eq!(s.reg(Reg::A1), 7);
        assert_eq!(s.reg(Reg::A2), 30);
        assert_eq!(s.reg(Reg::A3), 3);
        assert_eq!(s.reg(Reg::A4), 1);
    }

    #[test]
    fn division_by_zero_does_not_trap() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 10);
        b.div(Reg::A0, Reg::T0, Reg::ZERO);
        b.rem(Reg::A1, Reg::T0, Reg::ZERO);
        b.halt();
        let (_, s) = run(b);
        assert_eq!(s.reg(Reg::A0), -1);
        assert_eq!(s.reg(Reg::A1), 10);
    }

    #[test]
    fn shifts_and_compares() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, -8);
        b.srai(Reg::A0, Reg::T0, 1); // arithmetic: -4
        b.srli(Reg::A1, Reg::T0, 60); // logical: high bits
        b.slli(Reg::A2, Reg::T0, 1); // -16
        b.slti(Reg::A3, Reg::T0, 0); // 1
        b.li(Reg::T1, 1);
        b.sltu(Reg::A4, Reg::T0, Reg::T1); // -8 as u64 is huge: 0
        b.halt();
        let (_, s) = run(b);
        assert_eq!(s.reg(Reg::A0), -4);
        assert_eq!(s.reg(Reg::A1), 0xf);
        assert_eq!(s.reg(Reg::A2), -16);
        assert_eq!(s.reg(Reg::A3), 1);
        assert_eq!(s.reg(Reg::A4), 0);
    }

    #[test]
    fn zero_register_is_immutable() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::ZERO, 99);
        b.addi(Reg::ZERO, Reg::ZERO, 5);
        b.mv(Reg::A0, Reg::ZERO);
        b.halt();
        let (_, s) = run(b);
        assert_eq!(s.reg(Reg::A0), 0);
    }

    #[test]
    fn loads_and_stores_roundtrip_with_records() {
        let mut b = ProgramBuilder::new();
        let base = b.alloc("buf", 2);
        b.la(Reg::S0, "buf");
        b.li(Reg::T0, 0x5a);
        b.sd(Reg::T0, Reg::S0, 0);
        b.sb(Reg::T0, Reg::S0, 8);
        b.ld(Reg::A0, Reg::S0, 0);
        b.lb(Reg::A1, Reg::S0, 8);
        b.halt();
        let (t, s) = run(b);
        assert_eq!(s.reg(Reg::A0), 0x5a);
        assert_eq!(s.reg(Reg::A1), 0x5a);
        let mems: Vec<MemAccess> = t.iter().filter_map(|d| d.mem).collect();
        assert_eq!(mems.len(), 4);
        assert_eq!(
            mems[0],
            MemAccess {
                addr: base,
                size: 8,
                is_store: true
            }
        );
        assert_eq!(
            mems[1],
            MemAccess {
                addr: base + 8,
                size: 1,
                is_store: true
            }
        );
        assert!(!mems[2].is_store);
        assert_eq!(mems[3].size, 1);
    }

    #[test]
    fn byte_load_zero_extends() {
        let mut b = ProgramBuilder::new();
        b.alloc("buf", 1);
        b.la(Reg::S0, "buf");
        b.li(Reg::T0, -1); // 0xff in the low byte
        b.sb(Reg::T0, Reg::S0, 0);
        b.lb(Reg::A0, Reg::S0, 0);
        b.halt();
        let (_, s) = run(b);
        assert_eq!(s.reg(Reg::A0), 0xff);
    }

    #[test]
    fn loop_executes_expected_count() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 5);
        b.li(Reg::A0, 0);
        b.label("loop");
        b.addi(Reg::A0, Reg::A0, 2);
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        let (t, s) = run(b);
        assert_eq!(s.reg(Reg::A0), 10);
        // 2 setup + 5 * 3 loop + 1 halt
        assert_eq!(t.len(), 18);
        let taken: Vec<bool> = t
            .iter()
            .filter_map(|d| d.branch.map(|br| br.taken))
            .collect();
        assert_eq!(taken, vec![true, true, true, true, false]);
    }

    #[test]
    fn call_and_return() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::A0, 1);
        b.call("double");
        b.call("double");
        b.halt();
        b.label("double");
        b.add(Reg::A0, Reg::A0, Reg::A0);
        b.ret();
        let (_, s) = run(b);
        assert_eq!(s.reg(Reg::A0), 4);
    }

    #[test]
    fn fp_pipeline() {
        let mut b = ProgramBuilder::new();
        b.alloc("v", 2);
        b.la(Reg::S0, "v");
        b.li(Reg::T0, 9);
        b.fcvt_d_l(Reg::f(0), Reg::T0);
        b.fsqrt(Reg::f(1), Reg::f(0)); // 3.0
        b.fadd(Reg::f(2), Reg::f(1), Reg::f(1)); // 6.0
        b.fmul(Reg::f(3), Reg::f(2), Reg::f(1)); // 18.0
        b.fdiv(Reg::f(4), Reg::f(3), Reg::f(0)); // 2.0
        b.fsd(Reg::f(4), Reg::S0, 0);
        b.fld(Reg::f(5), Reg::S0, 0);
        b.fcvt_l_d(Reg::A0, Reg::f(5));
        b.flt(Reg::A1, Reg::f(0), Reg::f(3)); // 9 < 18 -> 1
        b.fneg(Reg::f(6), Reg::f(4));
        b.fcvt_l_d(Reg::A2, Reg::f(6));
        b.halt();
        let (_, s) = run(b);
        assert_eq!(s.reg(Reg::A0), 2);
        assert_eq!(s.reg(Reg::A1), 1);
        assert_eq!(s.reg(Reg::A2), -2);
    }

    #[test]
    fn task_boundaries_recorded() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 3);
        b.label("loop");
        b.task();
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        let (t, _) = run(b);
        // seq 0 is always a boundary; each iteration head too.
        let boundaries: Vec<u64> = t.iter().filter(|d| d.new_task).map(|d| d.seq).collect();
        assert_eq!(boundaries, vec![0, 1, 3, 5]);
    }

    #[test]
    fn wild_jump_reports_pc() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 1000);
        b.jr(Reg::T0);
        b.halt();
        let p = b.build().unwrap();
        let mut e = Emulator::new(&p);
        let err = e.run().unwrap_err();
        assert_eq!(err, EmuError::PcOutOfRange { pc: 1000 });
    }

    #[test]
    fn missing_halt_reports_out_of_range() {
        let mut b = ProgramBuilder::new();
        b.nop();
        let p = b.build().unwrap();
        let err = Emulator::new(&p).run().unwrap_err();
        assert_eq!(err, EmuError::PcOutOfRange { pc: 1 });
    }

    #[test]
    fn instruction_limit_enforced() {
        let mut b = ProgramBuilder::new();
        b.label("spin");
        b.j("spin");
        let p = b.build().unwrap();
        let err = Emulator::new(&p).with_limit(100).run().unwrap_err();
        assert_eq!(err, EmuError::InstructionLimit { executed: 100 });
    }

    #[test]
    fn run_after_halt_commits_nothing() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build().unwrap();
        let mut e = Emulator::new(&p);
        assert_eq!(e.run().unwrap().len(), 1);
        assert!(e.state().is_halted());
        assert!(e.run().unwrap().is_empty());
        assert_eq!(e.summary().instructions, 1);
    }

    #[test]
    fn summary_counts_everything() {
        let mut b = ProgramBuilder::new();
        b.alloc("x", 1);
        b.la(Reg::S0, "x");
        b.li(Reg::T0, 2);
        b.label("loop");
        b.task();
        b.ld(Reg::T1, Reg::S0, 0);
        b.addi(Reg::T1, Reg::T1, 1);
        b.sd(Reg::T1, Reg::S0, 0);
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        let p = b.build().unwrap();
        let mut e = Emulator::new(&p);
        let mut seen = 0u64;
        let sum = e.run_with(|_| seen += 1).unwrap();
        assert_eq!(sum.instructions, seen);
        assert_eq!(sum.loads, 2);
        assert_eq!(sum.stores, 2);
        assert_eq!(sum.branches, 2);
        assert_eq!(sum.taken_branches, 1);
        assert_eq!(sum.tasks, 3); // seq 0 + two loop iterations
    }

    #[test]
    fn initial_data_visible_to_first_load() {
        let mut b = ProgramBuilder::new();
        b.alloc_init("k", &[1234]);
        b.la(Reg::S0, "k");
        b.ld(Reg::A0, Reg::S0, 0);
        b.halt();
        let (_, s) = run(b);
        assert_eq!(s.reg(Reg::A0), 1234);
    }

    #[test]
    fn sp_starts_at_stack_base() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build().unwrap();
        let e = Emulator::new(&p);
        assert_eq!(e.state().reg(Reg::SP), STACK_BASE as i64);
    }
}
