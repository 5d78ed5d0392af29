//! Functional (architectural) emulator.
//!
//! Executes an assembled [`Program`] instruction-by-instruction, producing
//! the dynamic [`Trace`] the timing simulator consumes. The emulator is the
//! oracle: it decides actual branch outcomes and effective addresses; the
//! timing model decides only *when* things happen.

use crate::memory::Memory;
use crate::trace::{DynInst, Trace};
use ce_isa::asm::Program;
use ce_isa::{Instruction, Opcode, Reg, DATA_BASE, STACK_TOP};
use std::error::Error;
use std::fmt;

/// Runtime fault during emulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// The program counter left the text segment.
    PcOutOfBounds {
        /// The faulting PC value.
        pc: u32,
    },
    /// The program ran past its instruction budget without halting.
    /// (Only reported by [`Emulator::run_to_completion`].)
    BudgetExhausted {
        /// The budget that was exhausted.
        budget: u64,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::PcOutOfBounds { pc } => {
                write!(f, "program counter {pc:#010x} left the text segment")
            }
            EmuError::BudgetExhausted { budget } => {
                write!(f, "program did not halt within {budget} instructions")
            }
        }
    }
}

impl Error for EmuError {}

/// The architectural state and execution engine.
#[derive(Debug, Clone)]
pub struct Emulator {
    regs: [u32; 32],
    mem: Memory,
    pc: u32,
    text_base: u32,
    text: Vec<Instruction>,
    halted: bool,
    executed: u64,
}

impl Emulator {
    /// Creates an emulator with the program loaded, `sp` at the stack top,
    /// and `gp` pointing at the data segment base (the kernels use
    /// `gp`-relative addressing, as in the paper's own code example).
    pub fn new(program: &Program) -> Emulator {
        let mut mem = Memory::new();
        mem.write_slice(program.data_base, &program.data);
        let mut regs = [0u32; 32];
        regs[Reg::SP.index()] = STACK_TOP;
        regs[Reg::GP.index()] = DATA_BASE;
        Emulator {
            regs,
            mem,
            pc: program.entry(),
            text_base: program.text_base,
            text: program.text.clone(),
            halted: false,
            executed: 0,
        }
    }

    /// Whether the program has executed its `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads an architectural register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// The emulator's memory (for inspecting results after a run).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Executes one instruction; returns its trace record, or `None` if the
    /// machine is already halted.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::PcOutOfBounds`] if the PC leaves the text
    /// segment (a wild jump in the program).
    pub fn step(&mut self) -> Result<Option<DynInst>, EmuError> {
        let mut record = None;
        if !self.halted {
            self.step_into(|d| record = Some(d))?;
        }
        Ok(record)
    }

    /// Runs until `halt` or until `max_insts` instructions have executed,
    /// collecting the trace. The trace is marked completed only if `halt`
    /// was reached.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::PcOutOfBounds`] on a wild jump.
    pub fn run(&mut self, max_insts: u64) -> Result<Trace, EmuError> {
        let mut trace = Trace::new();
        while !self.halted && (trace.len() as u64) < max_insts {
            self.step_into(|d| trace.push(d))?;
        }
        if self.halted {
            trace.mark_completed();
        }
        Ok(trace)
    }

    /// The one step body behind [`step`](Self::step) and
    /// [`run`](Self::run): executes the instruction at the PC of a
    /// running machine and hands its record to `emit`.
    #[inline(always)]
    fn step_into(&mut self, emit: impl FnOnce(DynInst)) -> Result<(), EmuError> {
        let pc = self.pc;
        let index = pc
            .checked_sub(self.text_base)
            .map(|off| (off / 4) as usize)
            .filter(|&i| pc.is_multiple_of(4) && i < self.text.len())
            .ok_or(EmuError::PcOutOfBounds { pc })?;
        let inst = self.text[index];
        let (next_pc, taken, mem_addr) = self.execute(pc, &inst);
        self.pc = next_pc;
        self.executed += 1;
        if inst.opcode == Opcode::Halt {
            self.halted = true;
        }
        emit(DynInst { seq: 0, pc, inst, next_pc, taken, mem_addr });
        Ok(())
    }

    /// Runs to `halt`, failing if the program does not finish within
    /// `budget` instructions.
    ///
    /// # Errors
    ///
    /// [`EmuError::BudgetExhausted`] if `halt` is not reached in time, or
    /// [`EmuError::PcOutOfBounds`] on a wild jump.
    pub fn run_to_completion(&mut self, budget: u64) -> Result<Trace, EmuError> {
        let trace = self.run(budget)?;
        if !self.halted {
            return Err(EmuError::BudgetExhausted { budget });
        }
        Ok(trace)
    }

    fn set_reg(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Executes `inst` at `pc`, returning (next_pc, taken, mem_addr).
    fn execute(&mut self, pc: u32, inst: &Instruction) -> (u32, bool, Option<u32>) {
        use Opcode::*;
        let rs = self.regs[inst.rs.index()];
        let rt = self.regs[inst.rt.index()];
        let imm = inst.imm;
        let fallthrough = pc.wrapping_add(4);
        let branch_target =
            || fallthrough.wrapping_add((imm as i64 * 4) as u32);

        match inst.opcode {
            Addu => self.set_reg(inst.rd, rs.wrapping_add(rt)),
            Subu => self.set_reg(inst.rd, rs.wrapping_sub(rt)),
            And => self.set_reg(inst.rd, rs & rt),
            Or => self.set_reg(inst.rd, rs | rt),
            Xor => self.set_reg(inst.rd, rs ^ rt),
            Nor => self.set_reg(inst.rd, !(rs | rt)),
            Slt => self.set_reg(inst.rd, ((rs as i32) < (rt as i32)) as u32),
            Sltu => self.set_reg(inst.rd, (rs < rt) as u32),
            Mul => self.set_reg(inst.rd, rs.wrapping_mul(rt)),
            Div => {
                let q = if rt == 0 { 0 } else { (rs as i32).wrapping_div(rt as i32) };
                self.set_reg(inst.rd, q as u32);
            }
            Rem => {
                let r = if rt == 0 { 0 } else { (rs as i32).wrapping_rem(rt as i32) };
                self.set_reg(inst.rd, r as u32);
            }
            Sll => self.set_reg(inst.rd, rt << inst.shamt),
            Srl => self.set_reg(inst.rd, rt >> inst.shamt),
            Sra => self.set_reg(inst.rd, ((rt as i32) >> inst.shamt) as u32),
            Sllv => self.set_reg(inst.rd, rt << (rs & 31)),
            Srlv => self.set_reg(inst.rd, rt >> (rs & 31)),
            Srav => self.set_reg(inst.rd, ((rt as i32) >> (rs & 31)) as u32),
            Addiu => self.set_reg(inst.rt, rs.wrapping_add(imm as u32)),
            Andi => self.set_reg(inst.rt, rs & (imm as u32 & 0xFFFF)),
            Ori => self.set_reg(inst.rt, rs | (imm as u32 & 0xFFFF)),
            Xori => self.set_reg(inst.rt, rs ^ (imm as u32 & 0xFFFF)),
            Slti => self.set_reg(inst.rt, ((rs as i32) < imm) as u32),
            Sltiu => self.set_reg(inst.rt, (rs < imm as u32) as u32),
            Lui => self.set_reg(inst.rt, (imm as u32) << 16),
            Lb | Lbu | Lh | Lhu | Lw => {
                let addr = rs.wrapping_add(imm as u32);
                let value = match inst.opcode {
                    Lb => self.mem.read_byte(addr) as i8 as i32 as u32,
                    Lbu => self.mem.read_byte(addr) as u32,
                    Lh => self.mem.read_half(addr) as i16 as i32 as u32,
                    Lhu => self.mem.read_half(addr) as u32,
                    _ => self.mem.read_word(addr),
                };
                self.set_reg(inst.rt, value);
                return (fallthrough, false, Some(addr));
            }
            Sb | Sh | Sw => {
                let addr = rs.wrapping_add(imm as u32);
                match inst.opcode {
                    Sb => self.mem.write_byte(addr, rt as u8),
                    Sh => self.mem.write_half(addr, rt as u16),
                    _ => self.mem.write_word(addr, rt),
                }
                return (fallthrough, false, Some(addr));
            }
            Beq | Bne | Blez | Bgtz | Bltz | Bgez => {
                let cond = match inst.opcode {
                    Beq => rs == rt,
                    Bne => rs != rt,
                    Blez => (rs as i32) <= 0,
                    Bgtz => (rs as i32) > 0,
                    Bltz => (rs as i32) < 0,
                    _ => (rs as i32) >= 0,
                };
                let next = if cond { branch_target() } else { fallthrough };
                return (next, cond, None);
            }
            J => return ((inst.imm as u32) * 4, true, None),
            Jal => {
                self.set_reg(Reg::RA, fallthrough);
                return ((inst.imm as u32) * 4, true, None);
            }
            Jr => return (rs, true, None),
            Jalr => {
                self.set_reg(inst.rd, fallthrough);
                return (rs, true, None);
            }
            Nop | Halt => {}
        }
        (fallthrough, false, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_isa::asm::assemble;

    fn run(src: &str) -> Emulator {
        let program = assemble(src).expect("assembles");
        let mut emu = Emulator::new(&program);
        emu.run_to_completion(1_000_000).expect("halts");
        emu
    }

    #[test]
    fn arithmetic_loop_sums_correctly() {
        // Sum 1..=10 into t0.
        let emu = run("
            li t0, 0
            li t1, 10
        loop:
            addu t0, t0, t1
            addiu t1, t1, -1
            bgtz t1, loop
            halt
        ");
        assert_eq!(emu.reg(Reg::T0), 55);
        assert!(emu.is_halted());
    }

    #[test]
    fn memory_store_load_roundtrip() {
        let emu = run("
            .data
        buf: .space 64
            .text
            li t0, 0x12345678
            sw t0, buf(gp)
            lw t1, buf(gp)
            lbu t2, buf(gp)
            lb t3, 3(gp)
            halt
        ");
        assert_eq!(emu.reg(Reg::new(9)), 0x12345678);
        assert_eq!(emu.reg(Reg::new(10)), 0x78);
        assert_eq!(emu.reg(Reg::new(11)), 0x12); // sign-extended byte 0x12
    }

    #[test]
    fn signed_loads_sign_extend() {
        let emu = run("
            .data
        v: .byte 0xff
            .align 1
        h: .half 0x8000
            .text
            lb t0, v(gp)
            lbu t1, v(gp)
            lh t2, h(gp)
            lhu t3, h(gp)
            halt
        ");
        assert_eq!(emu.reg(Reg::new(8)) as i32, -1);
        assert_eq!(emu.reg(Reg::new(9)), 0xff);
        assert_eq!(emu.reg(Reg::new(10)) as i32, -32768);
        assert_eq!(emu.reg(Reg::new(11)), 0x8000);
    }

    #[test]
    fn call_and_return() {
        let emu = run("
        main:
            li a0, 21
            jal double
            move s0, v0
            halt
        double:
            addu v0, a0, a0
            jr ra
        ");
        assert_eq!(emu.reg(Reg::S0), 42);
    }

    #[test]
    fn shifts_and_logic() {
        let emu = run("
            li t0, 0xf0
            sll t1, t0, 4
            srl t2, t1, 8
            li t3, -16
            sra t4, t3, 2
            li t5, 3
            sllv t6, t0, t5
            halt
        ");
        assert_eq!(emu.reg(Reg::new(9)), 0xf00);
        assert_eq!(emu.reg(Reg::new(10)), 0xf);
        assert_eq!(emu.reg(Reg::new(12)) as i32, -4);
        assert_eq!(emu.reg(Reg::new(14)), 0xf0 << 3);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let emu = run("
            li t0, 7
            li t1, 0
            div t2, t0, t1
            rem t3, t0, t1
            halt
        ");
        assert_eq!(emu.reg(Reg::new(10)), 0);
        assert_eq!(emu.reg(Reg::new(11)), 0);
    }

    #[test]
    fn trace_records_branch_outcomes_and_addresses() {
        let program = assemble("
            li t0, 2
        loop:
            addiu t0, t0, -1
            bnez t0, loop
            sw t0, 0(gp)
            halt
        ").unwrap();
        let mut emu = Emulator::new(&program);
        let trace = emu.run_to_completion(100).unwrap();
        assert!(trace.is_completed());
        // li(1) + 2×(addiu, bnez) + sw + halt = 7 dynamic instructions.
        assert_eq!(trace.len(), 7);
        let branches: Vec<&DynInst> =
            trace.iter().filter(|d| d.is_conditional_branch()).collect();
        assert_eq!(branches.len(), 2);
        assert!(branches[0].taken);
        assert!(!branches[1].taken);
        let store = trace.iter().find(|d| d.inst.opcode == Opcode::Sw).unwrap();
        assert_eq!(store.mem_addr, Some(DATA_BASE));
    }

    #[test]
    fn wild_jump_faults() {
        let program = assemble("li t0, 0x100\njr t0\nhalt\n").unwrap();
        let mut emu = Emulator::new(&program);
        let err = emu.run(100).unwrap_err();
        assert!(matches!(err, EmuError::PcOutOfBounds { pc: 0x100 }));
    }

    #[test]
    fn budget_exhaustion_reported() {
        let program = assemble("loop: b loop\n").unwrap();
        let mut emu = Emulator::new(&program);
        let err = emu.run_to_completion(50).unwrap_err();
        assert!(matches!(err, EmuError::BudgetExhausted { budget: 50 }));
    }

    #[test]
    fn step_after_halt_returns_none() {
        let program = assemble("halt\n").unwrap();
        let mut emu = Emulator::new(&program);
        assert!(emu.step().unwrap().is_some());
        assert!(emu.step().unwrap().is_none());
        assert_eq!(emu.executed(), 1);
    }

    #[test]
    fn unsigned_comparisons_and_logic() {
        let emu = run("
            li t0, -1            # 0xffffffff
            li t1, 1
            sltu t2, t1, t0      # 1 < 0xffffffff unsigned -> 1
            slt  t3, t1, t0      # 1 < -1 signed -> 0
            sltiu t4, t0, 5      # 0xffffffff < 5 unsigned -> 0
            slti  t5, t0, 5      # -1 < 5 signed -> 1
            nor  t6, t1, t1      # ~1
            andi t7, t0, 0xff00  # zero-extended immediate
            halt
        ");
        assert_eq!(emu.reg(Reg::new(10)), 1);
        assert_eq!(emu.reg(Reg::new(11)), 0);
        assert_eq!(emu.reg(Reg::new(12)), 0);
        assert_eq!(emu.reg(Reg::new(13)), 1);
        assert_eq!(emu.reg(Reg::new(14)), !1u32);
        assert_eq!(emu.reg(Reg::new(15)), 0xff00);
    }

    #[test]
    fn variable_shifts_mask_the_amount() {
        let emu = run("
            li t0, 1
            li t1, 33            # shifts use the low 5 bits: 33 & 31 = 1
            sllv t2, t0, t1
            li t3, -8
            srav t4, t3, t1
            srlv t5, t3, t1
            halt
        ");
        assert_eq!(emu.reg(Reg::new(10)), 2);
        assert_eq!(emu.reg(Reg::new(12)) as i32, -4);
        assert_eq!(emu.reg(Reg::new(13)), 0xFFFF_FFF8u32 >> 1);
    }

    #[test]
    fn lui_ori_compose_full_words() {
        let emu = run("
            lui t0, 0xdead
            ori t0, t0, 0xbeef
            halt
        ");
        assert_eq!(emu.reg(Reg::T0), 0xdead_beef);
    }

    #[test]
    fn negative_branch_conditions() {
        let emu = run("
            li t0, -5
            li t1, 0             # result flags
            bltz t0, was_neg
            b join
        was_neg:
            ori t1, t1, 1
        join:
            bgez t0, done        # -5 >= 0 is false: fall through
            ori t1, t1, 2
        done:
            blez t0, neg_or_zero
            b finish
        neg_or_zero:
            ori t1, t1, 4
        finish:
            halt
        ");
        assert_eq!(emu.reg(Reg::new(9)), 1 | 2 | 4);
    }

    #[test]
    fn writes_to_r0_are_discarded() {
        let emu = run("
            li t0, 5
            addu zero, t0, t0
            halt
        ");
        assert_eq!(emu.reg(Reg::ZERO), 0);
    }
}
