//! The [`Instruction`] type and its dependence accessors.

use crate::{disasm, Opcode, OperandClass, Reg};
use std::fmt;

/// A decoded instruction: an [`Opcode`] plus register and immediate fields.
///
/// The fields follow MIPS conventions: `rd` is the R-type destination, `rs`
/// and `rt` the sources (with `rt` doubling as the I-type destination and the
/// store data source), `imm` the 16-bit immediate or 26-bit jump target, and
/// `shamt` the constant shift amount.
///
/// Rather than exposing raw fields, the dependence accessors [`defs`] and
/// [`uses`] answer the questions the rename/steering/issue logic actually
/// asks: which architectural register (if any) does this instruction write,
/// and which (up to two) does it read. `r0` never appears in either set.
///
/// [`defs`]: Instruction::defs
/// [`uses`]: Instruction::uses
///
/// ```
/// use ce_isa::{Instruction, Opcode, Reg};
///
/// let add = Instruction::rrr(Opcode::Addu, Reg::new(10), Reg::new(1), Reg::new(2));
/// assert_eq!(add.defs(), Some(Reg::new(10)));
/// assert_eq!(add.uses(), [Some(Reg::new(1)), Some(Reg::new(2))]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// The operation.
    pub opcode: Opcode,
    /// R-type destination register.
    pub rd: Reg,
    /// First source register.
    pub rs: Reg,
    /// Second source / I-type destination register.
    pub rt: Reg,
    /// The 16-bit immediate, branch displacement (in instructions), or
    /// jump target word index. As in MIPS, the immediates of the logical
    /// `andi`/`ori`/`xori` and of `lui` are zero-extended (`0..=0xFFFF`);
    /// every other immediate is sign-extended.
    pub imm: i32,
    /// Constant shift amount for `sll`/`srl`/`sra`.
    pub shamt: u8,
}

impl Instruction {
    /// A canonical `nop`.
    pub const NOP: Instruction = Instruction {
        opcode: Opcode::Nop,
        rd: Reg::ZERO,
        rs: Reg::ZERO,
        rt: Reg::ZERO,
        imm: 0,
        shamt: 0,
    };

    /// A `halt` marker.
    pub const HALT: Instruction = Instruction {
        opcode: Opcode::Halt,
        rd: Reg::ZERO,
        rs: Reg::ZERO,
        rt: Reg::ZERO,
        imm: 0,
        shamt: 0,
    };

    /// Builds a three-register instruction `op rd, rs, rt`.
    pub fn rrr(opcode: Opcode, rd: Reg, rs: Reg, rt: Reg) -> Instruction {
        debug_assert_eq!(opcode.operand_class(), OperandClass::RdRsRt);
        Instruction { opcode, rd, rs, rt, imm: 0, shamt: 0 }
    }

    /// Builds a constant shift `op rd, rt, shamt`.
    pub fn shift(opcode: Opcode, rd: Reg, rt: Reg, shamt: u8) -> Instruction {
        debug_assert_eq!(opcode.operand_class(), OperandClass::RdRtShamt);
        debug_assert!(shamt < 32);
        Instruction { opcode, rd, rs: Reg::ZERO, rt, imm: 0, shamt }
    }

    /// Builds a variable shift `op rd, rt, rs`.
    pub fn shift_var(opcode: Opcode, rd: Reg, rt: Reg, rs: Reg) -> Instruction {
        debug_assert_eq!(opcode.operand_class(), OperandClass::RdRtRs);
        Instruction { opcode, rd, rs, rt, imm: 0, shamt: 0 }
    }

    /// Builds an immediate ALU instruction `op rt, rs, imm`. `imm` is
    /// zero-extended for `andi`/`ori`/`xori` (`0..=0xFFFF`) and signed
    /// otherwise, as the [`imm`](Instruction::imm) field documents.
    pub fn imm(opcode: Opcode, rt: Reg, rs: Reg, imm: i32) -> Instruction {
        debug_assert_eq!(opcode.operand_class(), OperandClass::RtRsImm);
        Instruction { opcode, rd: Reg::ZERO, rs, rt, imm, shamt: 0 }
    }

    /// Builds a `lui rt, imm`.
    pub fn lui(rt: Reg, imm: i32) -> Instruction {
        Instruction { opcode: Opcode::Lui, rd: Reg::ZERO, rs: Reg::ZERO, rt, imm, shamt: 0 }
    }

    /// Builds a load or store `op rt, imm(rs)`.
    pub fn mem(opcode: Opcode, rt: Reg, imm: i32, rs: Reg) -> Instruction {
        debug_assert_eq!(opcode.operand_class(), OperandClass::Mem);
        Instruction { opcode, rd: Reg::ZERO, rs, rt, imm, shamt: 0 }
    }

    /// Builds a two-register branch `op rs, rt, disp` (displacement in
    /// instruction words relative to the next instruction).
    pub fn branch2(opcode: Opcode, rs: Reg, rt: Reg, disp: i32) -> Instruction {
        debug_assert_eq!(opcode.operand_class(), OperandClass::BranchRsRt);
        Instruction { opcode, rd: Reg::ZERO, rs, rt, imm: disp, shamt: 0 }
    }

    /// Builds a one-register branch `op rs, disp`.
    pub fn branch1(opcode: Opcode, rs: Reg, disp: i32) -> Instruction {
        debug_assert_eq!(opcode.operand_class(), OperandClass::BranchRs);
        Instruction { opcode, rd: Reg::ZERO, rs, rt: Reg::ZERO, imm: disp, shamt: 0 }
    }

    /// Builds an absolute jump `j`/`jal` to an instruction word index.
    pub fn jump(opcode: Opcode, target_word: u32) -> Instruction {
        debug_assert_eq!(opcode.operand_class(), OperandClass::JumpTarget);
        Instruction {
            opcode,
            rd: Reg::ZERO,
            rs: Reg::ZERO,
            rt: Reg::ZERO,
            imm: target_word as i32,
            shamt: 0,
        }
    }

    /// Builds a `jr rs`.
    pub fn jr(rs: Reg) -> Instruction {
        Instruction { opcode: Opcode::Jr, rd: Reg::ZERO, rs, rt: Reg::ZERO, imm: 0, shamt: 0 }
    }

    /// Builds a `jalr rd, rs`.
    pub fn jalr(rd: Reg, rs: Reg) -> Instruction {
        Instruction { opcode: Opcode::Jalr, rd, rs, rt: Reg::ZERO, imm: 0, shamt: 0 }
    }

    /// The architectural register written by this instruction, if any.
    ///
    /// Writes to `r0` are reported as `None` (they create no dependence).
    pub fn defs(&self) -> Option<Reg> {
        use OperandClass as C;
        let dst = match self.opcode.operand_class() {
            C::RdRsRt | C::RdRtShamt | C::RdRtRs | C::JumpRegLink => self.rd,
            C::RtRsImm | C::RtImm => self.rt,
            C::Mem if self.opcode.is_load() => self.rt,
            C::JumpTarget if self.opcode == Opcode::Jal => Reg::RA,
            _ => return None,
        };
        (!dst.is_zero()).then_some(dst)
    }

    /// The up-to-two architectural source registers of this instruction.
    ///
    /// Slot 0 is the "left" operand and slot 1 the "right" operand in the
    /// paper's terminology (Section 5.1). `r0` sources are reported as
    /// `None` because they are always ready.
    pub fn uses(&self) -> [Option<Reg>; 2] {
        use OperandClass as C;
        let keep = |r: Reg| (!r.is_zero()).then_some(r);
        match self.opcode.operand_class() {
            C::RdRsRt | C::BranchRsRt => [keep(self.rs), keep(self.rt)],
            C::RdRtShamt => [keep(self.rt), None],
            C::RdRtRs => [keep(self.rt), keep(self.rs)],
            C::RtRsImm | C::BranchRs | C::JumpReg | C::JumpRegLink => [keep(self.rs), None],
            C::RtImm | C::JumpTarget | C::None => [None, None],
            C::Mem => {
                if self.opcode.is_store() {
                    // Address register, then store data.
                    [keep(self.rs), keep(self.rt)]
                } else {
                    [keep(self.rs), None]
                }
            }
        }
    }

    /// Number of non-`r0` source registers.
    pub fn source_count(&self) -> usize {
        self.uses().iter().flatten().count()
    }

    /// Whether this instruction writes any architectural register.
    #[inline]
    pub fn writes_register(&self) -> bool {
        self.defs().is_some()
    }
}

impl Default for Instruction {
    fn default() -> Instruction {
        Instruction::NOP
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&disasm::format_instruction(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_defs_uses() {
        let i = Instruction::rrr(Opcode::Xor, Reg::new(16), Reg::new(2), Reg::new(19));
        assert_eq!(i.defs(), Some(Reg::new(16)));
        assert_eq!(i.uses(), [Some(Reg::new(2)), Some(Reg::new(19))]);
        assert_eq!(i.source_count(), 2);
    }

    #[test]
    fn zero_register_never_a_dependence() {
        let i = Instruction::rrr(Opcode::Addu, Reg::ZERO, Reg::ZERO, Reg::new(3));
        assert_eq!(i.defs(), None);
        assert_eq!(i.uses(), [None, Some(Reg::new(3))]);
    }

    #[test]
    fn load_defines_rt_uses_base() {
        let i = Instruction::mem(Opcode::Lw, Reg::new(3), -32676, Reg::new(28));
        assert_eq!(i.defs(), Some(Reg::new(3)));
        assert_eq!(i.uses(), [Some(Reg::new(28)), None]);
    }

    #[test]
    fn store_defines_nothing_uses_base_and_data() {
        let i = Instruction::mem(Opcode::Sw, Reg::new(3), -32676, Reg::new(28));
        assert_eq!(i.defs(), None);
        assert_eq!(i.uses(), [Some(Reg::new(28)), Some(Reg::new(3))]);
    }

    #[test]
    fn jal_writes_ra() {
        let i = Instruction::jump(Opcode::Jal, 0x100);
        assert_eq!(i.defs(), Some(Reg::RA));
        assert_eq!(i.uses(), [None, None]);
    }

    #[test]
    fn jalr_writes_rd_uses_rs() {
        let i = Instruction::jalr(Reg::new(31), Reg::new(25));
        assert_eq!(i.defs(), Some(Reg::new(31)));
        assert_eq!(i.uses(), [Some(Reg::new(25)), None]);
    }

    #[test]
    fn variable_shift_operand_order() {
        // sllv rd, rt, rs: rt is the value (left), rs the amount (right).
        let i = Instruction::shift_var(Opcode::Sllv, Reg::new(2), Reg::new(18), Reg::new(20));
        assert_eq!(i.uses(), [Some(Reg::new(18)), Some(Reg::new(20))]);
    }

    #[test]
    fn branch_uses_no_defs() {
        let i = Instruction::branch2(Opcode::Beq, Reg::new(18), Reg::new(2), -4);
        assert_eq!(i.defs(), None);
        assert_eq!(i.source_count(), 2);
    }

    #[test]
    fn lui_has_no_sources() {
        let i = Instruction::lui(Reg::new(5), 0x1001);
        assert_eq!(i.defs(), Some(Reg::new(5)));
        assert_eq!(i.uses(), [None, None]);
    }
}
