//! Fixed 32-bit binary instruction encoding.
//!
//! The layout follows MIPS-I conventions:
//!
//! * **R-type** (`primary = 0`): `| 0:6 | rs:5 | rt:5 | rd:5 | shamt:5 | funct:6 |`
//! * **I-type**: `| primary:6 | rs:5 | rt:5 | imm:16 |`
//! * **J-type**: `| primary:6 | target:26 |` (target is an instruction word
//!   index, as in MIPS)
//!
//! `bltz`/`bgez` share the REGIMM primary (1) and are distinguished by the
//! `rt` field. `halt` uses primary 0x3F, which MIPS leaves unused.

use crate::{Instruction, Opcode, OperandClass, Reg};
use std::error::Error;
use std::fmt;

/// Error returned by [`decode`] for words that do not correspond to any
/// instruction in the ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The word that failed to decode.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid instruction word {:#010x}", self.word)
    }
}

impl Error for DecodeError {}

const PRIMARY_SPECIAL: u32 = 0x00;
const PRIMARY_REGIMM: u32 = 0x01;
const PRIMARY_HALT: u32 = 0x3F;

fn r_funct(op: Opcode) -> Option<u32> {
    use Opcode::*;
    Some(match op {
        Sll => 0x00,
        Srl => 0x02,
        Sra => 0x03,
        Sllv => 0x04,
        Srlv => 0x06,
        Srav => 0x07,
        Jr => 0x08,
        Jalr => 0x09,
        Mul => 0x18,
        Div => 0x1A,
        Rem => 0x1B,
        Addu => 0x21,
        Subu => 0x23,
        And => 0x24,
        Or => 0x25,
        Xor => 0x26,
        Nor => 0x27,
        Slt => 0x2A,
        Sltu => 0x2B,
        Nop => 0x3F,
        _ => return None,
    })
}

fn funct_opcode(funct: u32) -> Option<Opcode> {
    use Opcode::*;
    Some(match funct {
        0x00 => Sll,
        0x02 => Srl,
        0x03 => Sra,
        0x04 => Sllv,
        0x06 => Srlv,
        0x07 => Srav,
        0x08 => Jr,
        0x09 => Jalr,
        0x18 => Mul,
        0x1A => Div,
        0x1B => Rem,
        0x21 => Addu,
        0x23 => Subu,
        0x24 => And,
        0x25 => Or,
        0x26 => Xor,
        0x27 => Nor,
        0x2A => Slt,
        0x2B => Sltu,
        0x3F => Nop,
        _ => return None,
    })
}

fn i_primary(op: Opcode) -> Option<u32> {
    use Opcode::*;
    Some(match op {
        J => 0x02,
        Jal => 0x03,
        Beq => 0x04,
        Bne => 0x05,
        Blez => 0x06,
        Bgtz => 0x07,
        Addiu => 0x09,
        Slti => 0x0A,
        Sltiu => 0x0B,
        Andi => 0x0C,
        Ori => 0x0D,
        Xori => 0x0E,
        Lui => 0x0F,
        Lb => 0x20,
        Lh => 0x21,
        Lw => 0x23,
        Lbu => 0x24,
        Lhu => 0x25,
        Sb => 0x28,
        Sh => 0x29,
        Sw => 0x2B,
        _ => return None,
    })
}

fn primary_opcode(primary: u32) -> Option<Opcode> {
    use Opcode::*;
    Some(match primary {
        0x02 => J,
        0x03 => Jal,
        0x04 => Beq,
        0x05 => Bne,
        0x06 => Blez,
        0x07 => Bgtz,
        0x09 => Addiu,
        0x0A => Slti,
        0x0B => Sltiu,
        0x0C => Andi,
        0x0D => Ori,
        0x0E => Xori,
        0x0F => Lui,
        0x20 => Lb,
        0x21 => Lh,
        0x23 => Lw,
        0x24 => Lbu,
        0x25 => Lhu,
        0x28 => Sb,
        0x29 => Sh,
        0x2B => Sw,
        _ => return None,
    })
}

/// Encodes an instruction into its 32-bit binary form.
///
/// Immediates are truncated to their field width (16 bits for I-type, 26 for
/// J-type); [`decode`] extends them back as [`Instruction::imm`] documents,
/// so round-tripping is exact for in-range values.
pub fn encode(inst: &Instruction) -> u32 {
    let rs = (inst.rs.index() as u32) << 21;
    let rt = (inst.rt.index() as u32) << 16;
    let rd = (inst.rd.index() as u32) << 11;
    let shamt = (inst.shamt as u32) << 6;
    let imm16 = (inst.imm as u32) & 0xFFFF;

    if inst.opcode == Opcode::Halt {
        return PRIMARY_HALT << 26;
    }
    if inst.opcode == Opcode::Bltz {
        return (PRIMARY_REGIMM << 26) | rs | imm16;
    }
    if inst.opcode == Opcode::Bgez {
        return (PRIMARY_REGIMM << 26) | rs | (1 << 16) | imm16;
    }
    if let Some(funct) = r_funct(inst.opcode) {
        return (PRIMARY_SPECIAL << 26) | rs | rt | rd | shamt | funct;
    }
    let primary = i_primary(inst.opcode)
        .expect("every opcode is either R-type, REGIMM, HALT, or has a primary code");
    if inst.opcode.operand_class() == OperandClass::JumpTarget {
        return (primary << 26) | ((inst.imm as u32) & 0x03FF_FFFF);
    }
    (primary << 26) | rs | rt | imm16
}

/// Decodes a 32-bit word into an [`Instruction`].
///
/// # Errors
///
/// Returns [`DecodeError`] when the word's primary opcode or function field
/// does not correspond to any instruction in the ISA.
pub fn decode(word: u32) -> Result<Instruction, DecodeError> {
    let primary = word >> 26;
    let rs = Reg::new(((word >> 21) & 0x1F) as u8);
    let rt = Reg::new(((word >> 16) & 0x1F) as u8);
    let rd = Reg::new(((word >> 11) & 0x1F) as u8);
    let shamt = ((word >> 6) & 0x1F) as u8;
    let imm16 = (word & 0xFFFF) as u16 as i16 as i32;

    match primary {
        PRIMARY_SPECIAL => {
            let opcode = funct_opcode(word & 0x3F).ok_or(DecodeError { word })?;
            let inst = match opcode {
                Opcode::Nop => Instruction::NOP,
                Opcode::Jr => Instruction::jr(rs),
                Opcode::Jalr => Instruction::jalr(rd, rs),
                _ => Instruction { opcode, rd, rs, rt, imm: 0, shamt },
            };
            Ok(inst)
        }
        PRIMARY_REGIMM => {
            let opcode = match rt.index() {
                0 => Opcode::Bltz,
                1 => Opcode::Bgez,
                _ => return Err(DecodeError { word }),
            };
            Ok(Instruction::branch1(opcode, rs, imm16))
        }
        PRIMARY_HALT => Ok(Instruction::HALT),
        _ => {
            let opcode = primary_opcode(primary).ok_or(DecodeError { word })?;
            let inst = match opcode.operand_class() {
                OperandClass::JumpTarget => {
                    Instruction::jump(opcode, word & 0x03FF_FFFF)
                }
                _ => {
                    // As in MIPS, the logical immediates and `lui`'s are
                    // zero-extended; every other immediate is signed.
                    let imm = match opcode {
                        Opcode::Andi | Opcode::Ori | Opcode::Xori | Opcode::Lui => {
                            (word & 0xFFFF) as i32
                        }
                        _ => imm16,
                    };
                    Instruction { opcode, rd: Reg::ZERO, rs, rt, imm, shamt: 0 }
                }
            };
            Ok(inst)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(inst: Instruction) {
        let word = encode(&inst);
        let back = decode(word).expect("decodes");
        assert_eq!(back, inst, "word {word:#010x}");
    }

    #[test]
    fn roundtrip_alu() {
        roundtrip(Instruction::rrr(Opcode::Addu, Reg::new(18), Reg::ZERO, Reg::new(2)));
        roundtrip(Instruction::rrr(Opcode::Xor, Reg::new(16), Reg::new(2), Reg::new(19)));
        roundtrip(Instruction::rrr(Opcode::Mul, Reg::new(7), Reg::new(8), Reg::new(9)));
    }

    #[test]
    fn roundtrip_shifts() {
        roundtrip(Instruction::shift(Opcode::Sll, Reg::new(2), Reg::new(16), 2));
        roundtrip(Instruction::shift(Opcode::Sra, Reg::new(2), Reg::new(16), 31));
        roundtrip(Instruction::shift_var(Opcode::Sllv, Reg::new(2), Reg::new(18), Reg::new(20)));
    }

    #[test]
    fn roundtrip_imm() {
        roundtrip(Instruction::imm(Opcode::Addiu, Reg::new(2), Reg::ZERO, -1));
        roundtrip(Instruction::imm(Opcode::Slti, Reg::new(3), Reg::new(4), 1000));
        roundtrip(Instruction::imm(Opcode::Andi, Reg::new(3), Reg::new(4), 0x7fff));
        roundtrip(Instruction::imm(Opcode::Andi, Reg::new(3), Reg::new(4), 0xffff));
        roundtrip(Instruction::imm(Opcode::Ori, Reg::new(3), Reg::new(3), 0xb05e));
        roundtrip(Instruction::lui(Reg::new(5), 0x1001));
        roundtrip(Instruction::lui(Reg::new(5), 0xffff));
    }

    #[test]
    fn roundtrip_mem() {
        roundtrip(Instruction::mem(Opcode::Lw, Reg::new(3), -32676, Reg::new(28)));
        roundtrip(Instruction::mem(Opcode::Sw, Reg::new(3), -32676, Reg::new(28)));
        roundtrip(Instruction::mem(Opcode::Lbu, Reg::new(9), 0, Reg::new(10)));
    }

    #[test]
    fn roundtrip_branches() {
        roundtrip(Instruction::branch2(Opcode::Beq, Reg::new(18), Reg::new(2), 12));
        roundtrip(Instruction::branch2(Opcode::Bne, Reg::new(1), Reg::ZERO, -3));
        roundtrip(Instruction::branch1(Opcode::Bltz, Reg::new(4), 8));
        roundtrip(Instruction::branch1(Opcode::Bgez, Reg::new(4), -8));
        roundtrip(Instruction::branch1(Opcode::Blez, Reg::new(4), 5));
        roundtrip(Instruction::branch1(Opcode::Bgtz, Reg::new(4), 5));
    }

    #[test]
    fn roundtrip_jumps() {
        roundtrip(Instruction::jump(Opcode::J, 0x10_0040));
        roundtrip(Instruction::jump(Opcode::Jal, 0x1234));
        roundtrip(Instruction::jr(Reg::RA));
        roundtrip(Instruction::jalr(Reg::RA, Reg::new(25)));
    }

    #[test]
    fn roundtrip_admin() {
        roundtrip(Instruction::NOP);
        roundtrip(Instruction::HALT);
    }

    #[test]
    fn invalid_words_error() {
        // SPECIAL with an unassigned funct.
        assert!(decode(0x0000_0001).is_err());
        // Unassigned primary opcode 0x3E.
        assert!(decode(0x3E << 26 | 0x123).is_err());
        // REGIMM with rt = 5.
        assert!(decode((1 << 26) | (5 << 16)).is_err());
    }

    #[test]
    fn decode_error_display_mentions_word() {
        let err = decode(0x0000_0001).unwrap_err();
        assert!(err.to_string().contains("0x00000001"));
    }
}
