//! A fluent builder for authoring programs in Rust.
//!
//! [`ProgramBuilder`] is how the synthetic workloads in `mds-workloads` are
//! written: one method per opcode, forward-referencing labels, a bump
//! allocator for the data segment, and `.task` annotations for Multiscalar
//! task boundaries.
//!
//! # Examples
//!
//! A loop that sums an array:
//!
//! ```
//! use mds_isa::{ProgramBuilder, Reg};
//!
//! let mut b = ProgramBuilder::new();
//! let arr = b.alloc_init("arr", &[1, 2, 3, 4]);
//! b.li(Reg::S0, arr as i32);
//! b.li(Reg::S1, 4); // element count
//! b.li(Reg::A0, 0); // sum
//! b.label("loop");
//! b.task(); // each iteration is a Multiscalar task
//! b.ld(Reg::T0, Reg::S0, 0);
//! b.add(Reg::A0, Reg::A0, Reg::T0);
//! b.addi(Reg::S0, Reg::S0, 8);
//! b.addi(Reg::S1, Reg::S1, -1);
//! b.bne(Reg::S1, Reg::ZERO, "loop");
//! b.halt();
//! let program = b.build()?;
//! assert!(program.is_task_head(3));
//! # Ok::<(), mds_isa::BuildError>(())
//! ```

use crate::inst::Instruction;
use crate::op::Opcode;
use crate::program::{Program, DATA_BASE};
use crate::reg::Reg;
use crate::{Addr, Pc};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// A branch/jump target: either a label or an absolute PC.
///
/// Most call sites pass a `&str` label; tests occasionally pass a raw PC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// A named label resolved at [`ProgramBuilder::build`] time.
    Label(String),
    /// An absolute instruction index.
    Pc(Pc),
}

impl From<&str> for Target {
    fn from(s: &str) -> Target {
        Target::Label(s.to_string())
    }
}

impl From<String> for Target {
    fn from(s: String) -> Target {
        Target::Label(s)
    }
}

impl From<Pc> for Target {
    fn from(pc: Pc) -> Target {
        Target::Pc(pc)
    }
}

/// Error produced by [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A branch or jump referenced a label that was never defined.
    UnknownLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
    /// A data symbol was defined twice.
    DuplicateSymbol(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownLabel(l) => write!(f, "unknown label `{l}`"),
            BuildError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            BuildError::DuplicateSymbol(s) => write!(f, "duplicate data symbol `{s}`"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builds a [`Program`] instruction by instruction.
///
/// Data writes ([`alloc_init`](Self::alloc_init),
/// [`init_word`](Self::init_word)) are appended in program order and
/// sorted by address once, at [`build`](Self::build); when two writes hit
/// the same address, the later one wins.
///
/// See the [module documentation](self) for an example.
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    insts: Vec<Instruction>,
    // (instruction index, label) pairs whose imm must be patched.
    fixups: Vec<(usize, String)>,
    labels: HashMap<String, Pc>,
    duplicate_label: Option<String>,
    duplicate_symbol: Option<String>,
    /// Data writes in program order; sorted at `build`.
    data: Vec<(Addr, u64)>,
    symbols: BTreeMap<String, Addr>,
    task_heads: BTreeSet<Pc>,
    next_data: Addr,
}

impl ProgramBuilder {
    /// Creates an empty builder; data allocation starts at [`DATA_BASE`].
    pub fn new() -> Self {
        ProgramBuilder {
            next_data: DATA_BASE,
            ..Default::default()
        }
    }

    /// The PC the next emitted instruction will occupy.
    pub fn here(&self) -> Pc {
        self.insts.len() as Pc
    }

    /// Defines `name` at the current PC.
    pub fn label(&mut self, name: &str) -> &mut Self {
        if self.labels.insert(name.to_string(), self.here()).is_some() {
            self.duplicate_label.get_or_insert_with(|| name.to_string());
        }
        self
    }

    /// Marks the *next* emitted instruction as the start of a Multiscalar
    /// task.
    pub fn task(&mut self) -> &mut Self {
        self.task_heads.insert(self.here());
        self
    }

    /// Allocates `words` zero-initialized 8-byte words in the data segment,
    /// binds `name` to the base address, and returns it.
    pub fn alloc(&mut self, name: &str, words: usize) -> Addr {
        let base = self.next_data;
        self.define_symbol(name, base);
        self.next_data += (words as Addr) * 8;
        base
    }

    /// Allocates and initializes a data-segment array; returns its base.
    pub fn alloc_init(&mut self, name: &str, values: &[u64]) -> Addr {
        let base = self.alloc(name, values.len());
        for (i, &v) in values.iter().enumerate() {
            if v != 0 {
                self.data.push((base + (i as Addr) * 8, v));
            }
        }
        base
    }

    /// Allocates `bytes` bytes (rounded up to whole words).
    pub fn alloc_bytes(&mut self, name: &str, bytes: usize) -> Addr {
        self.alloc(name, bytes.div_ceil(8))
    }

    /// Writes an initial value at an absolute data address.
    pub fn init_word(&mut self, addr: Addr, value: u64) -> &mut Self {
        self.data.push((addr, value));
        self
    }

    /// Binds `name` to an explicit address (used by the assembler's `.sym`).
    pub fn define_symbol(&mut self, name: &str, addr: Addr) {
        if self.symbols.insert(name.to_string(), addr).is_some() {
            self.duplicate_symbol
                .get_or_insert_with(|| name.to_string());
        }
        self.next_data = self.next_data.max(addr);
    }

    /// Looks up a previously allocated symbol.
    pub fn symbol(&self, name: &str) -> Option<Addr> {
        self.symbols.get(name).copied()
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, inst: Instruction) -> &mut Self {
        self.insts.push(inst);
        self
    }

    fn emit_target(&mut self, mut inst: Instruction, target: Target) -> &mut Self {
        match target {
            Target::Pc(pc) => inst.imm = pc as i32,
            Target::Label(l) => self.fixups.push((self.insts.len(), l)),
        }
        self.insts.push(inst);
        self
    }

    /// Finishes the program, resolving all label references.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for unknown or duplicate labels/symbols.
    pub fn build(mut self) -> Result<Program, BuildError> {
        if let Some(l) = self.duplicate_label {
            return Err(BuildError::DuplicateLabel(l));
        }
        if let Some(s) = self.duplicate_symbol {
            return Err(BuildError::DuplicateSymbol(s));
        }
        for (idx, label) in &self.fixups {
            let pc = *self
                .labels
                .get(label)
                .ok_or_else(|| BuildError::UnknownLabel(label.clone()))?;
            self.insts[*idx].imm = pc as i32;
        }
        // A stable sort keeps same-address writes in program order, so
        // folding each run into its first slot leaves the last write.
        self.data.sort_by_key(|&(addr, _)| addr);
        self.data.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        Ok(Program::from_parts(
            self.insts,
            self.data,
            self.symbols,
            self.task_heads,
            0,
        ))
    }
}

macro_rules! rrr_ops {
    ($($method:ident => $op:ident),+ $(,)?) => {
        impl ProgramBuilder {
            $(
                /// Emits the corresponding three-register instruction.
                pub fn $method(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
                    self.emit(Instruction::rrr(Opcode::$op, rd, rs1, rs2))
                }
            )+
        }
    };
}

rrr_ops! {
    add => Add, sub => Sub, mul => Mul, div => Div, rem => Rem,
    and => And, or => Or, xor => Xor, sll => Sll, srl => Srl, sra => Sra,
    slt => Slt, sltu => Sltu,
    fadd => FAdd, fsub => FSub, fmul => FMul, fdiv => FDiv,
    feq => Feq, flt => Flt, fle => Fle,
}

macro_rules! rri_ops {
    ($($method:ident => $op:ident),+ $(,)?) => {
        impl ProgramBuilder {
            $(
                /// Emits the corresponding register-immediate instruction.
                pub fn $method(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
                    self.emit(Instruction::rri(Opcode::$op, rd, rs1, imm))
                }
            )+
        }
    };
}

rri_ops! {
    addi => Addi, andi => Andi, ori => Ori, xori => Xori,
    slli => Slli, srli => Srli, srai => Srai, slti => Slti,
}

macro_rules! branch_ops {
    ($($method:ident => $op:ident),+ $(,)?) => {
        impl ProgramBuilder {
            $(
                /// Emits a conditional branch to `target`.
                pub fn $method(&mut self, rs1: Reg, rs2: Reg, target: impl Into<Target>) -> &mut Self {
                    self.emit_target(
                        Instruction::branch(Opcode::$op, rs1, rs2, 0),
                        target.into(),
                    )
                }
            )+
        }
    };
}

branch_ops! {
    beq => Beq, bne => Bne, blt => Blt, bge => Bge, bltu => Bltu, bgeu => Bgeu,
}

impl ProgramBuilder {
    /// Loads a signed 32-bit constant: `rd <- imm`.
    pub fn li(&mut self, rd: Reg, imm: i32) -> &mut Self {
        self.emit(Instruction::ri(Opcode::Li, rd, imm))
    }

    /// Loads a data-segment symbol's address.
    ///
    /// # Panics
    ///
    /// Panics if the symbol has not been allocated yet (data symbols cannot
    /// be forward-referenced; allocate before use).
    pub fn la(&mut self, rd: Reg, symbol: &str) -> &mut Self {
        let addr = self
            .symbol(symbol)
            .unwrap_or_else(|| panic!("data symbol `{symbol}` not allocated before use"));
        self.li(rd, addr as i32)
    }

    /// Copy a register: `rd <- rs` (encoded as `addi rd, rs, 0`).
    pub fn mv(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.addi(rd, rs, 0)
    }

    /// Word load: `rd <- mem64[rs1 + disp]`.
    pub fn ld(&mut self, rd: Reg, base: Reg, disp: i32) -> &mut Self {
        self.emit(Instruction::load(Opcode::Ld, rd, base, disp))
    }

    /// Byte load: `rd <- zext(mem8[rs1 + disp])`.
    pub fn lb(&mut self, rd: Reg, base: Reg, disp: i32) -> &mut Self {
        self.emit(Instruction::load(Opcode::Lb, rd, base, disp))
    }

    /// Word store: `mem64[base + disp] <- src`.
    pub fn sd(&mut self, src: Reg, base: Reg, disp: i32) -> &mut Self {
        self.emit(Instruction::store(Opcode::Sd, src, base, disp))
    }

    /// Byte store: `mem8[base + disp] <- src[7:0]`.
    pub fn sb(&mut self, src: Reg, base: Reg, disp: i32) -> &mut Self {
        self.emit(Instruction::store(Opcode::Sb, src, base, disp))
    }

    /// FP word load: `fd <- mem64[rs1 + disp]` (bit pattern).
    pub fn fld(&mut self, fd: Reg, base: Reg, disp: i32) -> &mut Self {
        self.emit(Instruction::load(Opcode::Fld, fd, base, disp))
    }

    /// FP word store.
    pub fn fsd(&mut self, fsrc: Reg, base: Reg, disp: i32) -> &mut Self {
        self.emit(Instruction::store(Opcode::Fsd, fsrc, base, disp))
    }

    /// FP square root.
    pub fn fsqrt(&mut self, fd: Reg, fs: Reg) -> &mut Self {
        self.emit(Instruction::rr(Opcode::FSqrt, fd, fs))
    }

    /// FP register move.
    pub fn fmov(&mut self, fd: Reg, fs: Reg) -> &mut Self {
        self.emit(Instruction::rr(Opcode::FMov, fd, fs))
    }

    /// FP negate.
    pub fn fneg(&mut self, fd: Reg, fs: Reg) -> &mut Self {
        self.emit(Instruction::rr(Opcode::FNeg, fd, fs))
    }

    /// Convert a signed integer register to double: `fd <- (f64)rs1`.
    pub fn fcvt_d_l(&mut self, fd: Reg, rs1: Reg) -> &mut Self {
        self.emit(Instruction::rr(Opcode::FCvtDl, fd, rs1))
    }

    /// Truncate a double to a signed integer: `rd <- (i64)fs1`.
    pub fn fcvt_l_d(&mut self, rd: Reg, fs1: Reg) -> &mut Self {
        self.emit(Instruction::rr(Opcode::FCvtLd, rd, fs1))
    }

    /// Unconditional jump.
    pub fn j(&mut self, target: impl Into<Target>) -> &mut Self {
        self.emit_target(
            Instruction {
                op: Opcode::J,
                ..Instruction::NOP
            },
            target.into(),
        )
    }

    /// Jump and link: `rd <- pc + 1; pc <- target`.
    pub fn jal(&mut self, rd: Reg, target: impl Into<Target>) -> &mut Self {
        self.emit_target(
            Instruction {
                op: Opcode::Jal,
                rd,
                ..Instruction::NOP
            },
            target.into(),
        )
    }

    /// Indirect jump through a register.
    pub fn jr(&mut self, rs1: Reg) -> &mut Self {
        self.emit(Instruction {
            op: Opcode::Jr,
            rs1,
            ..Instruction::NOP
        })
    }

    /// Call a subroutine (`jal ra, target`).
    pub fn call(&mut self, target: impl Into<Target>) -> &mut Self {
        self.jal(Reg::RA, target)
    }

    /// Return from a subroutine (`jr ra`).
    pub fn ret(&mut self) -> &mut Self {
        self.jr(Reg::RA)
    }

    /// No-operation.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Instruction::NOP)
    }

    /// Stops the machine; every workload ends with `halt`.
    pub fn halt(&mut self) -> &mut Self {
        self.emit(Instruction {
            op: Opcode::Halt,
            ..Instruction::NOP
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_harness::prelude::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut b = ProgramBuilder::new();
        b.label("start");
        b.beq(Reg::T0, Reg::ZERO, "end"); // forward
        b.j("start"); // backward
        b.label("end");
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.fetch(0).unwrap().imm, 2); // "end" is pc 2
        assert_eq!(p.fetch(1).unwrap().imm, 0); // "start" is pc 0
    }

    #[test]
    fn unknown_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.j("nowhere");
        assert_eq!(b.build(), Err(BuildError::UnknownLabel("nowhere".into())));
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.label("x");
        b.nop();
        b.label("x");
        b.halt();
        assert_eq!(b.build(), Err(BuildError::DuplicateLabel("x".into())));
    }

    #[test]
    fn duplicate_symbol_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.alloc("t", 1);
        b.alloc("t", 1);
        b.halt();
        assert_eq!(b.build(), Err(BuildError::DuplicateSymbol("t".into())));
    }

    #[test]
    fn data_allocation_is_contiguous_and_aligned() {
        let mut b = ProgramBuilder::new();
        let a = b.alloc("a", 3);
        let c = b.alloc_bytes("c", 9); // rounds to 2 words
        let d = b.alloc("d", 1);
        assert_eq!(a, DATA_BASE);
        assert_eq!(c, DATA_BASE + 24);
        assert_eq!(d, DATA_BASE + 24 + 16);
    }

    #[test]
    fn alloc_init_skips_zero_words() {
        let mut b = ProgramBuilder::new();
        let base = b.alloc_init("v", &[0, 7, 0, 9]);
        b.halt();
        let p = b.build().unwrap();
        let data: Vec<(u64, u64)> = p.initial_data().collect();
        assert_eq!(data, vec![(base + 8, 7), (base + 24, 9)]);
    }

    /// One data-segment call: 0 = `alloc`, 1 = `alloc_init`, 2 =
    /// `init_word` at `DATA_BASE + 4 * slot` (so writes collide with each
    /// other and with earlier allocations).
    type DataOp = (usize, u64, Vec<u64>);

    properties! {
        /// Any interleaving of `alloc`, `alloc_init` and `init_word` gives
        /// the data a map model gives: the last write to an address wins,
        /// `alloc_init` skips zero words, and the words come out in address
        /// order. The program still round-trips through the assembler.
        #[test]
        fn data_matches_a_map_model_and_round_trips(
            ops in vec_of((0usize..3, 0u64..24, vec_of(0u64..4, 0..4)), 0..24),
        ) {
            let ops: Vec<DataOp> = ops;
            let mut b = ProgramBuilder::new();
            let mut model = BTreeMap::new();
            for (i, (kind, slot, values)) in ops.iter().enumerate() {
                let name = format!("s{i}");
                match kind {
                    0 => {
                        b.alloc(&name, values.len());
                    }
                    1 => {
                        let base = b.alloc_init(&name, values);
                        for (w, &v) in values.iter().enumerate() {
                            if v != 0 {
                                model.insert(base + w as Addr * 8, v);
                            }
                        }
                    }
                    _ => {
                        let addr = DATA_BASE + slot * 4;
                        let value = values.first().copied().unwrap_or(0);
                        b.init_word(addr, value);
                        model.insert(addr, value);
                    }
                }
            }
            b.halt();
            let p = b.build().unwrap();
            let data: Vec<(Addr, u64)> = p.initial_data().collect();
            prop_assert_eq!(data, model.into_iter().collect::<Vec<_>>());
            let p2 = crate::asm::assemble(&p.disassemble()).unwrap();
            prop_assert_eq!(p2, p);
        }
    }

    #[test]
    #[should_panic(expected = "not allocated before use")]
    fn la_of_unallocated_symbol_panics() {
        let mut b = ProgramBuilder::new();
        b.la(Reg::T0, "ghost");
    }

    #[test]
    fn task_marks_next_instruction() {
        let mut b = ProgramBuilder::new();
        b.nop();
        b.task();
        b.nop();
        b.halt();
        let p = b.build().unwrap();
        assert!(!p.is_task_head(0));
        assert!(p.is_task_head(1));
    }

    #[test]
    fn call_ret_use_link_register() {
        let mut b = ProgramBuilder::new();
        b.call("f");
        b.halt();
        b.label("f");
        b.ret();
        let p = b.build().unwrap();
        let call = p.fetch(0).unwrap();
        assert_eq!(call.op, Opcode::Jal);
        assert_eq!(call.rd, Reg::RA);
        assert_eq!(call.imm, 2);
        let ret = p.fetch(2).unwrap();
        assert_eq!(ret.op, Opcode::Jr);
        assert_eq!(ret.rs1, Reg::RA);
    }

    #[test]
    fn mv_is_addi_zero() {
        let mut b = ProgramBuilder::new();
        b.mv(Reg::T0, Reg::T1);
        b.halt();
        let p = b.build().unwrap();
        let i = p.fetch(0).unwrap();
        assert_eq!(i.op, Opcode::Addi);
        assert_eq!(i.imm, 0);
    }
}
