//! The instruction type and its dataflow interface.

use crate::op::{Format, Opcode};
use crate::reg::{File, Reg};
use std::fmt;

/// A reference to one architectural register: file plus index.
///
/// The timing models use `RegRef` to resolve producer→consumer edges without
/// caring which file a value lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegRef {
    /// The register file.
    pub file: File,
    /// The register within the file.
    pub reg: Reg,
}

impl RegRef {
    /// An integer-file register reference.
    pub const fn int(reg: Reg) -> RegRef {
        RegRef {
            file: File::Int,
            reg,
        }
    }

    /// A floating-point-file register reference.
    pub const fn fp(reg: Reg) -> RegRef {
        RegRef {
            file: File::Fp,
            reg,
        }
    }

    /// A dense index in `0..64` (int file first), handy for lookup tables.
    pub const fn dense_index(self) -> usize {
        match self.file {
            File::Int => self.reg.index() as usize,
            File::Fp => 32 + self.reg.index() as usize,
        }
    }
}

impl fmt::Display for RegRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.file {
            File::Int => write!(f, "{}", self.reg),
            File::Fp => write!(f, "{}", self.reg.fp_name()),
        }
    }
}

/// One machine instruction.
///
/// All opcodes share a single operand record; which fields are meaningful is
/// determined by the opcode's [`Format`]:
///
/// - `rd`: destination (integer or FP depending on opcode)
/// - `rs1`: first source / base address register
/// - `rs2`: second source / store-data register
/// - `imm`: immediate / displacement / absolute branch target (a [`crate::Pc`])
///
/// `Display` produces canonical assembly accepted by [`crate::asm`].
///
/// # Examples
///
/// ```
/// use mds_isa::{Instruction, Opcode, Reg};
/// let add = Instruction::rrr(Opcode::Add, Reg::T0, Reg::T1, Reg::T2);
/// assert_eq!(add.to_string(), "add t0, t1, t2");
/// assert!(add.writes().is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// The operation.
    pub op: Opcode,
    /// Destination register (meaning depends on format).
    pub rd: Reg,
    /// First source register.
    pub rs1: Reg,
    /// Second source register.
    pub rs2: Reg,
    /// Immediate operand (displacement, constant, or branch target).
    pub imm: i32,
}

impl Instruction {
    /// A `nop`.
    pub const NOP: Instruction = Instruction {
        op: Opcode::Nop,
        rd: Reg::ZERO,
        rs1: Reg::ZERO,
        rs2: Reg::ZERO,
        imm: 0,
    };

    /// Builds a three-register instruction (`Rrr`, `Frrr`, or `FCmp` format).
    pub const fn rrr(op: Opcode, rd: Reg, rs1: Reg, rs2: Reg) -> Instruction {
        Instruction {
            op,
            rd,
            rs1,
            rs2,
            imm: 0,
        }
    }

    /// Builds a register-register-immediate instruction.
    pub const fn rri(op: Opcode, rd: Reg, rs1: Reg, imm: i32) -> Instruction {
        Instruction {
            op,
            rd,
            rs1,
            rs2: Reg::ZERO,
            imm,
        }
    }

    /// Builds a register-immediate instruction (`li`).
    pub const fn ri(op: Opcode, rd: Reg, imm: i32) -> Instruction {
        Instruction {
            op,
            rd,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            imm,
        }
    }

    /// Builds a load: `rd <- [rs1 + imm]`.
    pub const fn load(op: Opcode, rd: Reg, base: Reg, disp: i32) -> Instruction {
        Instruction {
            op,
            rd,
            rs1: base,
            rs2: Reg::ZERO,
            imm: disp,
        }
    }

    /// Builds a store: `[rs1 + imm] <- rs2`.
    pub const fn store(op: Opcode, src: Reg, base: Reg, disp: i32) -> Instruction {
        Instruction {
            op,
            rd: Reg::ZERO,
            rs1: base,
            rs2: src,
            imm: disp,
        }
    }

    /// Builds a conditional branch to absolute target `target`.
    pub const fn branch(op: Opcode, rs1: Reg, rs2: Reg, target: i32) -> Instruction {
        Instruction {
            op,
            rd: Reg::ZERO,
            rs1,
            rs2,
            imm: target,
        }
    }

    /// Builds a two-operand register instruction (`Frr`, conversions, `jr`).
    pub const fn rr(op: Opcode, rd: Reg, rs1: Reg) -> Instruction {
        Instruction {
            op,
            rd,
            rs1,
            rs2: Reg::ZERO,
            imm: 0,
        }
    }

    /// The architectural register this instruction writes, if any.
    ///
    /// `r0` writes are suppressed (the zero register cannot be written).
    #[inline]
    pub fn writes(&self) -> Option<RegRef> {
        use Format::*;
        let r = match self.op.format() {
            Rrr | Rri | Ri | Load | FCvtToInt | FCmp | Jal => RegRef::int(self.rd),
            Frrr | Frr | FLoad | FCvtToFp => RegRef::fp(self.rd),
            Store | Branch | Jump | JumpReg | Plain | FStore => return None,
        };
        if r.file == File::Int && r.reg.is_zero() {
            None
        } else {
            Some(r)
        }
    }

    /// The architectural registers this instruction reads, as up to two
    /// entries; `None` slots are unused. Reads of `r0` are suppressed (its
    /// value is constant).
    #[inline]
    pub fn reads(&self) -> [Option<RegRef>; 2] {
        use Format::*;
        let raw: [Option<RegRef>; 2] = match self.op.format() {
            Rrr => [Some(RegRef::int(self.rs1)), Some(RegRef::int(self.rs2))],
            Rri => [Some(RegRef::int(self.rs1)), None],
            Ri => [None, None],
            Load | FLoad => [Some(RegRef::int(self.rs1)), None],
            Store => [Some(RegRef::int(self.rs1)), Some(RegRef::int(self.rs2))],
            FStore => [Some(RegRef::int(self.rs1)), Some(RegRef::fp(self.rs2))],
            Branch => [Some(RegRef::int(self.rs1)), Some(RegRef::int(self.rs2))],
            Jump | Plain | Jal => [None, None],
            JumpReg => [Some(RegRef::int(self.rs1)), None],
            Frrr => [Some(RegRef::fp(self.rs1)), Some(RegRef::fp(self.rs2))],
            Frr => [Some(RegRef::fp(self.rs1)), None],
            FCmp => [Some(RegRef::fp(self.rs1)), Some(RegRef::fp(self.rs2))],
            FCvtToFp => [Some(RegRef::int(self.rs1)), None],
            FCvtToInt => [Some(RegRef::fp(self.rs1)), None],
        };
        raw.map(|slot| slot.filter(|r| !(r.file == File::Int && r.reg.is_zero())))
    }

    /// Shorthand for `self.op.is_load()`.
    pub fn is_load(&self) -> bool {
        self.op.is_load()
    }

    /// Shorthand for `self.op.is_store()`.
    pub fn is_store(&self) -> bool {
        self.op.is_store()
    }
}

impl Default for Instruction {
    fn default() -> Self {
        Instruction::NOP
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Format::*;
        let m = self.op.mnemonic();
        match self.op.format() {
            Rrr => write!(f, "{m} {}, {}, {}", self.rd, self.rs1, self.rs2),
            Rri => write!(f, "{m} {}, {}, {}", self.rd, self.rs1, self.imm),
            Ri => write!(f, "{m} {}, {}", self.rd, self.imm),
            Load => write!(f, "{m} {}, {}({})", self.rd, self.imm, self.rs1),
            Store => write!(f, "{m} {}, {}({})", self.rs2, self.imm, self.rs1),
            Branch => write!(f, "{m} {}, {}, {}", self.rs1, self.rs2, self.imm),
            Jump => write!(f, "{m} {}", self.imm),
            Jal => write!(f, "{m} {}, {}", self.rd, self.imm),
            JumpReg => write!(f, "{m} {}", self.rs1),
            Plain => write!(f, "{m}"),
            Frrr => write!(
                f,
                "{m} {}, {}, {}",
                self.rd.fp_name(),
                self.rs1.fp_name(),
                self.rs2.fp_name()
            ),
            Frr => write!(f, "{m} {}, {}", self.rd.fp_name(), self.rs1.fp_name()),
            FLoad => write!(f, "{m} {}, {}({})", self.rd.fp_name(), self.imm, self.rs1),
            FStore => write!(f, "{m} {}, {}({})", self.rs2.fp_name(), self.imm, self.rs1),
            FCmp => write!(
                f,
                "{m} {}, {}, {}",
                self.rd,
                self.rs1.fp_name(),
                self.rs2.fp_name()
            ),
            FCvtToFp => write!(f, "{m} {}, {}", self.rd.fp_name(), self.rs1),
            FCvtToInt => write!(f, "{m} {}, {}", self.rd, self.rs1.fp_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_suppresses_zero_register() {
        let i = Instruction::rrr(Opcode::Add, Reg::ZERO, Reg::T0, Reg::T1);
        assert_eq!(i.writes(), None);
        let i = Instruction::rrr(Opcode::Add, Reg::T2, Reg::T0, Reg::T1);
        assert_eq!(i.writes(), Some(RegRef::int(Reg::T2)));
    }

    #[test]
    fn reads_suppresses_zero_register() {
        let i = Instruction::rrr(Opcode::Add, Reg::T0, Reg::ZERO, Reg::T1);
        assert_eq!(i.reads(), [None, Some(RegRef::int(Reg::T1))]);
    }

    #[test]
    fn store_reads_base_and_data() {
        let i = Instruction::store(Opcode::Sd, Reg::T0, Reg::S0, 16);
        assert_eq!(i.writes(), None);
        assert_eq!(
            i.reads(),
            [Some(RegRef::int(Reg::S0)), Some(RegRef::int(Reg::T0))]
        );
    }

    #[test]
    fn fp_store_reads_fp_data() {
        let i = Instruction::store(Opcode::Fsd, Reg::f(3), Reg::S0, 0);
        assert_eq!(
            i.reads(),
            [Some(RegRef::int(Reg::S0)), Some(RegRef::fp(Reg::f(3)))]
        );
    }

    #[test]
    fn fp_load_writes_fp_register() {
        let i = Instruction::load(Opcode::Fld, Reg::f(0), Reg::S0, 8);
        // f0 is a real FP register, not hard-wired zero.
        assert_eq!(i.writes(), Some(RegRef::fp(Reg::f(0))));
    }

    #[test]
    fn fcmp_writes_int_reads_fp() {
        let i = Instruction::rrr(Opcode::Flt, Reg::T0, Reg::f(1), Reg::f(2));
        assert_eq!(i.writes(), Some(RegRef::int(Reg::T0)));
        assert_eq!(
            i.reads(),
            [Some(RegRef::fp(Reg::f(1))), Some(RegRef::fp(Reg::f(2)))]
        );
    }

    #[test]
    fn jal_writes_link_register() {
        let i = Instruction::ri(Opcode::Jal, Reg::RA, 42);
        assert_eq!(i.writes(), Some(RegRef::int(Reg::RA)));
        assert_eq!(i.reads(), [None, None]);
    }

    #[test]
    fn display_formats_are_canonical() {
        assert_eq!(
            Instruction::rri(Opcode::Addi, Reg::T0, Reg::T1, -4).to_string(),
            "addi t0, t1, -4"
        );
        assert_eq!(
            Instruction::load(Opcode::Ld, Reg::A0, Reg::SP, 8).to_string(),
            "ld a0, 8(sp)"
        );
        assert_eq!(
            Instruction::store(Opcode::Sb, Reg::A1, Reg::S2, -1).to_string(),
            "sb a1, -1(s2)"
        );
        assert_eq!(
            Instruction::branch(Opcode::Bne, Reg::T0, Reg::ZERO, 7).to_string(),
            "bne t0, zero, 7"
        );
        assert_eq!(Instruction::NOP.to_string(), "nop");
        assert_eq!(
            Instruction::rrr(Opcode::FAdd, Reg::f(1), Reg::f(2), Reg::f(3)).to_string(),
            "fadd f1, f2, f3"
        );
        assert_eq!(
            Instruction::rr(Opcode::FCvtDl, Reg::f(0), Reg::A0).to_string(),
            "fcvt.d.l f0, a0"
        );
    }

    #[test]
    fn dense_index_distinguishes_files() {
        assert_eq!(RegRef::int(Reg::x(5)).dense_index(), 5);
        assert_eq!(RegRef::fp(Reg::f(5)).dense_index(), 37);
    }
}
