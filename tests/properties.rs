//! Property-based integration tests (proptest): random programs, random
//! synthetic workloads, and random machine configurations must all
//! simulate to completion with conserved instruction counts.

use complexity_effective::isa::asm::assemble;
use complexity_effective::isa::{decode, encode, Instruction, Opcode, Reg};
use complexity_effective::sim::{machine, SchedulerKind, Simulator, SteeringPolicy};
use complexity_effective::workloads::synthetic::{generate, SyntheticConfig};
use complexity_effective::workloads::Emulator;
use proptest::prelude::*;

/// Strategy: an arbitrary valid instruction (covering every operand class).
fn arb_instruction() -> impl Strategy<Value = Instruction> {
    let reg = (0u8..32).prop_map(Reg::new);
    prop_oneof![
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(d, a, b)| {
            Instruction::rrr(Opcode::Xor, d, a, b)
        }),
        (reg.clone(), reg.clone(), 0u8..32)
            .prop_map(|(d, t, s)| Instruction::shift(Opcode::Sll, d, t, s)),
        (reg.clone(), reg.clone(), -32768i32..32768)
            .prop_map(|(t, s, imm)| Instruction::imm(Opcode::Addiu, t, s, imm)),
        (reg.clone(), reg.clone(), 0i32..65536)
            .prop_map(|(t, s, imm)| Instruction::imm(Opcode::Andi, t, s, imm)),
        (reg.clone(), reg.clone(), 0i32..65536)
            .prop_map(|(t, s, imm)| Instruction::imm(Opcode::Ori, t, s, imm)),
        (reg.clone(), reg.clone(), 0i32..65536)
            .prop_map(|(t, s, imm)| Instruction::imm(Opcode::Xori, t, s, imm)),
        (reg.clone(), 0i32..65536).prop_map(|(t, imm)| Instruction::lui(t, imm)),
        (reg.clone(), reg.clone(), -32768i32..32768)
            .prop_map(|(t, s, imm)| Instruction::mem(Opcode::Lw, t, imm, s)),
        (reg.clone(), reg.clone(), -32768i32..32768)
            .prop_map(|(t, s, imm)| Instruction::mem(Opcode::Sw, t, imm, s)),
        (reg.clone(), reg, -1000i32..1000)
            .prop_map(|(a, b, d)| Instruction::branch2(Opcode::Beq, a, b, d)),
        (0u32..(1 << 26)).prop_map(|t| Instruction::jump(Opcode::Jal, t)),
        Just(Instruction::NOP),
        Just(Instruction::HALT),
    ]
}

proptest! {
    /// Encode/decode is the identity on every constructible instruction.
    #[test]
    fn encoding_roundtrips(inst in arb_instruction()) {
        let decoded = decode(encode(&inst)).expect("own encodings decode");
        prop_assert_eq!(decoded, inst);
    }

    /// The disassembler's output for non-control instructions reassembles
    /// to the same instruction.
    #[test]
    fn disassembly_reassembles(inst in arb_instruction()) {
        let is_control = inst.opcode.is_control();
        prop_assume!(!is_control); // branch targets print as raw offsets
        let text = format!("{inst}\nhalt\n");
        let program = assemble(&text).expect("disassembly must reassemble");
        prop_assert_eq!(program.text[0], inst);
    }

    /// Straight-line arithmetic programs emulate exactly as many
    /// instructions as they contain.
    #[test]
    fn straightline_programs_run(ops in proptest::collection::vec(0u8..5, 1..60)) {
        let mut src = String::from("li t0, 3\nli t1, 5\n");
        for op in &ops {
            let line = match op {
                0 => "addu t2, t0, t1\n",
                1 => "subu t2, t1, t0\n",
                2 => "xor t0, t0, t1\n",
                3 => "sll t1, t1, 1\n",
                _ => "sltu t2, t0, t1\n",
            };
            src.push_str(line);
        }
        src.push_str("halt\n");
        let program = assemble(&src).expect("valid source");
        let mut emu = Emulator::new(&program);
        let trace = emu.run_to_completion(10_000).expect("halts");
        prop_assert_eq!(trace.len(), ops.len() + 3);
    }

    /// Any valid synthetic workload simulates to completion on any machine
    /// organization, committing exactly the trace length.
    #[test]
    fn synthetic_workloads_always_complete(
        seed in 0u64..1000,
        load in 0.0f64..0.4,
        branch in 0.0f64..0.3,
        locality in 0.05f64..1.0,
        org in 0usize..5,
    ) {
        let config = SyntheticConfig {
            seed,
            load_frac: load,
            store_frac: 0.1,
            branch_frac: branch,
            dep_locality: locality,
            ..SyntheticConfig::default()
        };
        let trace = generate(&config, 2_000);
        let cfg = machine::figure17_machines()[org].1;
        let stats = Simulator::new(cfg).run(&trace);
        prop_assert_eq!(stats.committed, trace.len() as u64);
        prop_assert!(stats.ipc() > 0.0 && stats.ipc() <= 8.0);
    }

    /// FIFO geometry never breaks the simulator, only its performance.
    #[test]
    fn any_fifo_geometry_simulates(
        fifos in 1usize..12,
        depth in 1usize..12,
        clusters in 1usize..3,
    ) {
        prop_assume!(8 % clusters == 0);
        let config = SyntheticConfig::default();
        let trace = generate(&config, 1_500);
        let mut cfg = machine::dependence_8way();
        cfg.clusters = clusters;
        cfg.scheduler = SchedulerKind::Fifos { fifos_per_cluster: fifos, depth };
        cfg.steering = SteeringPolicy::Dependence;
        let stats = Simulator::new(cfg).run(&trace);
        prop_assert_eq!(stats.committed, trace.len() as u64);
    }
}
