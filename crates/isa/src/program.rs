//! The program model: code, initialized data, symbols, and task annotations.

use crate::inst::Instruction;
use crate::op::FuClass;
use crate::{Addr, Pc};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Static instruction mix of a [`Program`], by functional-unit class.
///
/// # Examples
///
/// ```
/// use mds_isa::{ProgramBuilder, Reg};
/// let mut b = ProgramBuilder::new();
/// b.alloc("x", 1);
/// b.la(Reg::S0, "x");
/// b.ld(Reg::T0, Reg::S0, 0);
/// b.mul(Reg::T0, Reg::T0, Reg::T0);
/// b.halt();
/// let mix = b.build()?.instruction_mix();
/// assert_eq!(mix.mem, 1);
/// assert_eq!(mix.complex_int, 1);
/// assert_eq!(mix.total(), 4); // la, ld, mul, halt
/// # Ok::<(), mds_isa::BuildError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstructionMix {
    /// Simple integer ALU operations.
    pub simple_int: usize,
    /// Multiply/divide/remainder.
    pub complex_int: usize,
    /// Floating-point operations.
    pub fp: usize,
    /// Loads and stores.
    pub mem: usize,
    /// Control transfers (including `halt`).
    pub branch: usize,
}

impl InstructionMix {
    /// Total static instructions counted.
    pub fn total(&self) -> usize {
        self.simple_int + self.complex_int + self.fp + self.mem + self.branch
    }

    /// Fraction of memory operations, in `[0, 1]`.
    pub fn mem_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.mem as f64 / self.total() as f64
        }
    }
}

/// Base byte address of the data segment.
pub const DATA_BASE: Addr = 0x1000_0000;

/// Initial stack pointer; the stack grows toward lower addresses.
pub const STACK_BASE: Addr = 0x7fff_f000;

/// A complete executable program.
///
/// A `Program` is code (a vector of [`Instruction`]s indexed by PC),
/// initialized data words, a symbol table for the data segment, and the set
/// of **task head** PCs — the Multiscalar task annotations that the
/// emulator turns into task-boundary events.
///
/// Initialized data is a `Vec` of `(address, value)` pairs sorted by
/// address with one entry per address, so cloning a program and loading
/// it into an emulator are flat copies.
///
/// Programs are built with [`crate::ProgramBuilder`] or parsed from text by
/// [`crate::asm::assemble`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    insts: Vec<Instruction>,
    /// Sorted by address, one entry per address.
    data: Vec<(Addr, u64)>,
    symbols: BTreeMap<String, Addr>,
    task_heads: BTreeSet<Pc>,
    entry: Pc,
}

impl Program {
    /// `data` must be sorted by address with no address repeated.
    pub(crate) fn from_parts(
        insts: Vec<Instruction>,
        data: Vec<(Addr, u64)>,
        symbols: BTreeMap<String, Addr>,
        task_heads: BTreeSet<Pc>,
        entry: Pc,
    ) -> Program {
        Program {
            insts,
            data,
            symbols,
            task_heads,
            entry,
        }
    }

    /// The instruction at `pc`, or `None` past the end of the program.
    pub fn fetch(&self, pc: Pc) -> Option<&Instruction> {
        self.insts.get(pc as usize)
    }

    /// All instructions, indexed by PC.
    pub fn instructions(&self) -> &[Instruction] {
        &self.insts
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` for an empty program.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The entry PC (0 unless the builder set one).
    pub fn entry(&self) -> Pc {
        self.entry
    }

    /// Initialized data words as `(address, value)` pairs in address order.
    pub fn initial_data(&self) -> impl Iterator<Item = (Addr, u64)> + '_ {
        self.data.iter().copied()
    }

    /// Looks up a data-segment symbol.
    pub fn symbol(&self, name: &str) -> Option<Addr> {
        self.symbols.get(name).copied()
    }

    /// All data-segment symbols in name order.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, Addr)> + '_ {
        self.symbols.iter().map(|(n, &a)| (n.as_str(), a))
    }

    /// Returns `true` when `pc` is annotated as the start of a Multiscalar
    /// task.
    pub fn is_task_head(&self, pc: Pc) -> bool {
        self.task_heads.contains(&pc)
    }

    /// The set of task-head PCs.
    pub fn task_heads(&self) -> impl Iterator<Item = Pc> + '_ {
        self.task_heads.iter().copied()
    }

    /// Number of annotated task heads.
    pub fn task_head_count(&self) -> usize {
        self.task_heads.len()
    }

    /// Counts static instructions by functional-unit class.
    pub fn instruction_mix(&self) -> InstructionMix {
        let mut mix = InstructionMix::default();
        for inst in &self.insts {
            match inst.op.fu_class() {
                FuClass::SimpleInt => mix.simple_int += 1,
                FuClass::ComplexInt => mix.complex_int += 1,
                FuClass::Fp => mix.fp += 1,
                FuClass::Mem => mix.mem += 1,
                FuClass::Branch => mix.branch += 1,
            }
        }
        mix
    }

    /// Renders the whole program as assembly text that [`crate::asm::assemble`]
    /// accepts, including task annotations and data directives.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (name, addr) in &self.symbols {
            out.push_str(&format!(".sym {name} {addr:#x}\n"));
        }
        for &(addr, value) in &self.data {
            out.push_str(&format!(".word {addr:#x} {value}\n"));
        }
        for (pc, inst) in self.insts.iter().enumerate() {
            if self.task_heads.contains(&(pc as Pc)) {
                out.push_str(".task\n");
            }
            out.push_str(&format!("{inst}\n"));
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.disassemble())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Opcode;
    use crate::reg::Reg;

    fn tiny() -> Program {
        let insts = vec![
            Instruction::ri(Opcode::Li, Reg::T0, 1),
            Instruction::NOP,
            Instruction {
                op: Opcode::Halt,
                ..Instruction::NOP
            },
        ];
        let data = vec![(DATA_BASE, 99)];
        let mut symbols = BTreeMap::new();
        symbols.insert("tbl".to_string(), DATA_BASE);
        let mut heads = BTreeSet::new();
        heads.insert(0);
        heads.insert(2);
        Program::from_parts(insts, data, symbols, heads, 0)
    }

    #[test]
    fn fetch_in_and_out_of_range() {
        let p = tiny();
        assert_eq!(p.fetch(0).unwrap().op, Opcode::Li);
        assert!(p.fetch(3).is_none());
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn task_heads_are_queryable() {
        let p = tiny();
        assert!(p.is_task_head(0));
        assert!(!p.is_task_head(1));
        assert!(p.is_task_head(2));
        assert_eq!(p.task_head_count(), 2);
        assert_eq!(p.task_heads().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn symbols_and_data() {
        let p = tiny();
        assert_eq!(p.symbol("tbl"), Some(DATA_BASE));
        assert_eq!(p.symbol("missing"), None);
        assert_eq!(p.initial_data().collect::<Vec<_>>(), vec![(DATA_BASE, 99)]);
    }

    #[test]
    fn instruction_mix_counts_classes() {
        let mix = tiny().instruction_mix();
        assert_eq!(mix.simple_int, 2); // li + nop
        assert_eq!(mix.branch, 1); // halt
        assert_eq!(mix.total(), 3);
        assert_eq!(mix.mem_fraction(), 0.0);
    }

    #[test]
    fn disassemble_includes_annotations() {
        let text = tiny().disassemble();
        assert!(text.contains(".task"));
        assert!(text.contains(".sym tbl"));
        assert!(text.contains(".word"));
        assert!(text.contains("halt"));
    }
}
