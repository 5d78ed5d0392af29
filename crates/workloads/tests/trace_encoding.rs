//! The decode-once trace encoding: any pushed `DynInst` sequence reads
//! back exactly (through `get`, `iter`, slices and the serializer), its
//! canonical record stream fingerprints the sequence and nothing else,
//! and a kernel's trace costs 8 bytes per instruction plus its site
//! table.

use ce_isa::{encode, Instruction, Opcode, Reg};
use ce_workloads::trace_io::write_trace;
use ce_workloads::{trace_benchmark, Benchmark, DynInst, Trace};
use proptest::prelude::*;

/// Instructions covering every derivation rule: plain ALU work, loads and
/// stores (aux word = address), branches and `j`/`jal` (static taken
/// targets), `jr`/`jalr` (aux word = target) and `halt`.
fn instructions() -> [Instruction; 10] {
    let r = Reg::new;
    [
        Instruction::rrr(Opcode::Addu, r(8), r(9), r(10)),
        Instruction::mem(Opcode::Lw, r(8), 4, r(29)),
        Instruction::mem(Opcode::Sb, r(9), -1, r(8)),
        Instruction::branch2(Opcode::Beq, r(8), r(9), -3),
        Instruction::branch1(Opcode::Bgtz, r(8), 7),
        Instruction::jump(Opcode::J, 0x10_0040),
        Instruction::jump(Opcode::Jal, 0x10_0100),
        Instruction::jr(Reg::RA),
        Instruction::jalr(Reg::RA, r(8)),
        Instruction::HALT,
    ]
}

/// The target a taken `inst` at `pc` reaches when it is static.
fn static_target(pc: u32, inst: &Instruction) -> u32 {
    match inst.opcode {
        Opcode::J | Opcode::Jal => (inst.imm as u32).wrapping_mul(4),
        _ => pc.wrapping_add(4).wrapping_add((inst.imm as i64 * 4) as u32),
    }
}

/// One sampled instruction: pc slot, instruction, taken flag, next-pc
/// shape, a free word, and the memory-address shape.
type Draw = (usize, usize, bool, u8, u32, u8);

/// Builds the input sequence. Four pcs (one where `pc + 4` wraps) carry
/// ten instructions between them; half the next pcs and addresses follow
/// the instruction, the rest are irregular: a free word for `next_pc`, an
/// address missing from a memory op or present on any other.
fn build(draws: &[Draw]) -> Vec<DynInst> {
    const PCS: [u32; 4] = [0x40_0000, 0x40_0004, 0x40_0010, 0xFFFF_FFFC];
    draws
        .iter()
        .enumerate()
        .map(|(i, &(pc_slot, which, taken, next_shape, word, addr_shape))| {
            let pc = PCS[pc_slot];
            let inst = instructions()[which];
            let next_pc = match next_shape {
                0 | 1 => pc.wrapping_add(4),
                2 => static_target(pc, &inst),
                _ => word,
            };
            let is_mem = inst.opcode.is_load() || inst.opcode.is_store();
            let mem_addr = match addr_shape {
                0 | 1 => is_mem.then_some(word),
                2 => None,
                _ => Some(word),
            };
            DynInst { seq: 7 * i as u64, pc, inst, next_pc, taken, mem_addr }
        })
        .collect()
}

/// The serializer's format written out directly from the sequence.
fn format_directly(insts: &[DynInst], completed: bool) -> Vec<u8> {
    let mut out = format!("ce-trace v1 completed={completed}\n");
    for d in insts {
        out += &format!("{:x} {:x} {:x} {}", d.pc, encode(&d.inst), d.next_pc, u8::from(d.taken));
        if let Some(addr) = d.mem_addr {
            out += &format!(" {addr:x}");
        }
        out.push('\n');
    }
    out.into_bytes()
}

/// FNV-1a (64-bit) of the trace's canonical stream, as the manifest's
/// trace fingerprint hashes it.
fn fingerprint(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    trace.write_canonical(|bytes| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    });
    h
}

/// The trace `insts` push into, completed or not.
fn traced(insts: &[DynInst], completed: bool) -> Trace {
    let mut trace: Trace = insts.iter().copied().collect();
    if completed {
        trace.mark_completed();
    }
    trace
}

proptest! {
    /// Whatever the mix of derivable records and exceptions, the trace
    /// reads back the input (re-sequenced), slices keep their sequence
    /// numbers, a push after `shrink_to_fit` finds the same sites, and
    /// the serialized bytes are those of the input.
    #[test]
    fn every_sequence_reads_back_exactly(
        draws in proptest::collection::vec(
            (0usize..4, 0usize..10, any::<bool>(), 0u8..4, any::<u32>(), 0u8..4),
            0..200,
        ),
        completed in any::<bool>(),
    ) {
        let input = build(&draws);
        let expected: Vec<DynInst> = input
            .iter()
            .enumerate()
            .map(|(i, d)| DynInst { seq: i as u64, ..*d })
            .collect();

        let half = input.len() / 2;
        let mut trace: Trace = input[..half].iter().copied().collect();
        trace.shrink_to_fit();
        trace.extend(input[half..].iter().copied());
        if completed {
            trace.mark_completed();
        }
        let mut at_once: Trace = input.iter().copied().collect();
        if completed {
            at_once.mark_completed();
        }
        prop_assert_eq!(&trace, &at_once);

        prop_assert_eq!(trace.len(), expected.len());
        prop_assert_eq!(trace.iter().collect::<Vec<_>>(), expected.clone());
        let reversed: Vec<DynInst> = expected.iter().rev().copied().collect();
        prop_assert_eq!(trace.iter().rev().collect::<Vec<_>>(), reversed);
        for (i, d) in expected.iter().enumerate() {
            prop_assert_eq!(trace.get(i), Some(*d));
        }
        prop_assert_eq!(trace.get(expected.len()), None);
        let cut = expected.len() / 3;
        let tail = trace.slice(cut..);
        prop_assert_eq!(tail.len(), expected.len() - cut);
        prop_assert_eq!(tail.iter().collect::<Vec<_>>(), expected[cut..].to_vec());

        let mut bytes = Vec::new();
        write_trace(&trace, &mut bytes).expect("writing to a Vec cannot fail");
        prop_assert_eq!(bytes, format_directly(&expected, completed));
    }

    /// The fingerprint follows the pushed sequence and the completion
    /// flag alone: pushing in one go, pushing with a `shrink_to_fit`
    /// midway and collecting another trace's `iter()` agree, and changing
    /// any one field of one instruction that the trace text shows, the
    /// flag, or the length changes it.
    #[test]
    fn fingerprints_follow_the_sequence_alone(
        draws in proptest::collection::vec(
            (0usize..4, 0usize..10, any::<bool>(), 0u8..4, any::<u32>(), 0u8..4),
            1..200,
        ),
        completed in any::<bool>(),
        at in any::<usize>(),
    ) {
        let input = build(&draws);
        let at_once = traced(&input, completed);
        let want = fingerprint(&at_once);

        let half = input.len() / 2;
        let mut midway: Trace = input[..half].iter().copied().collect();
        midway.shrink_to_fit();
        midway.extend(input[half..].iter().copied());
        if completed {
            midway.mark_completed();
        }
        prop_assert_eq!(fingerprint(&midway), want);
        let copied: Vec<DynInst> = at_once.iter().collect();
        prop_assert_eq!(fingerprint(&traced(&copied, completed)), want);

        let i = at % input.len();
        let d = input[i];
        let other = instructions()
            .into_iter()
            .find(|inst| encode(inst) != encode(&d.inst))
            .expect("ten distinct words");
        let mutants = [
            ("pc", DynInst { pc: d.pc.wrapping_add(4), ..d }),
            ("instruction word", DynInst { inst: other, ..d }),
            ("next_pc", DynInst { next_pc: d.next_pc ^ 4, ..d }),
            ("taken", DynInst { taken: !d.taken, ..d }),
            ("mem_addr", DynInst { mem_addr: Some(d.mem_addr.map_or(0, |a| a ^ 1)), ..d }),
            ("mem_addr presence", DynInst { mem_addr: d.mem_addr.xor(Some(0)), ..d }),
        ];
        for (field, mutant) in mutants {
            let mut changed = input.clone();
            changed[i] = mutant;
            let fp = fingerprint(&traced(&changed, completed));
            prop_assert_ne!(fp, want, "changing instruction {}'s {}", i, field);
        }
        prop_assert_ne!(fingerprint(&traced(&input, !completed)), want, "completion flag");
        let dropped = &input[..input.len() - 1];
        prop_assert_ne!(fingerprint(&traced(dropped, completed)), want, "one dropped");
        let mut appended = input.clone();
        appended.push(d);
        prop_assert_ne!(fingerprint(&traced(&appended, completed)), want, "one appended");
    }
}

/// Each kernel's trace at the sweeps' default cap (2 M instructions,
/// where every kernel runs to completion) holds 8 bytes per instruction
/// plus its site table: no exceptions, no spare capacity and no push-side
/// index survive emulation.
#[test]
fn kernel_traces_hold_eight_bytes_per_instruction_plus_sites() {
    for bench in Benchmark::all() {
        let trace = trace_benchmark(bench, 2_000_000).expect("trace");
        assert!(trace.is_completed(), "{bench} runs to completion");
        let bound = 8 * trace.len() + trace.site_table_bytes();
        assert!(
            trace.heap_bytes() <= bound,
            "{bench}: {} heap bytes for {} instructions (bound {bound})",
            trace.heap_bytes(),
            trace.len(),
        );
        assert!(trace.site_table_bytes() < 64 << 10, "{bench}: site table too large");
    }
}
