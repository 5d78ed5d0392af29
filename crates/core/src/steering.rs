//! Instruction steering heuristics (paper Sections 5.1 and 5.6.3).
//!
//! [`DependenceSteerer`] implements the paper's three-case heuristic using
//! a `SRC_FIFO` table indexed by logical register:
//!
//! 1. all operands available → a new (free) FIFO;
//! 2. one outstanding operand produced by an instruction at the tail of
//!    FIFO `Fa` → `Fa` (the chain grows); otherwise a new FIFO;
//! 3. two outstanding operands → try the left operand's FIFO as in case 2,
//!    then the right's, then a new FIFO.
//!
//! If no suitable or free FIFO exists, dispatch stalls.
//!
//! [`RandomSteerer`] is the Section 5.6.3 control: instructions go to a
//! uniformly random FIFO with capacity, ignoring dependences — the paper
//! uses it to show that *dependence-aware* steering, not clustering itself,
//! is what preserves IPC.

use crate::fifos::FifoPool;
use crate::{FifoId, InstId};
use ce_isa::{Instruction, Reg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where an instruction was steered, or that dispatch must stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteerOutcome {
    /// The instruction was pushed onto this FIFO.
    Fifo(FifoId),
    /// All candidate FIFOs were full/absent; dispatch stalls this cycle.
    Stall,
}

/// *How* a steering decision picked its FIFO — the observability side
/// channel of [`SteerOutcome`], consumed by pipeline probes. Policies that
/// ignore dependences report their policy name as the choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteerChoice {
    /// Chained behind an outstanding producer at the tail of its FIFO
    /// (heuristic cases 2/3); `operand` is which source matched (0 = left).
    Chained {
        /// Index of the matching source operand.
        operand: usize,
    },
    /// No suitable chain; a fresh FIFO in the cluster of a recent operand
    /// producer (bypass-locality affinity).
    FreshAffinity,
    /// No suitable chain and no affinity information; any fresh FIFO.
    Fresh,
    /// Uniformly random placement (the Section 5.6.3 control).
    Random,
    /// Dependence-blind round-robin striping.
    RoundRobin,
    /// Occupancy-balanced acquisition.
    Balanced,
}

/// The full explanation of one steering decision: the placement choice, or
/// why dispatch stalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteerExplain {
    /// The instruction was placed; how is in the [`SteerChoice`].
    Placed(SteerChoice),
    /// No suitable or free FIFO existed. `chain_full` reports whether a
    /// dependence-chain target *did* exist but its FIFO was full — the
    /// interesting rejection for steering diagnostics.
    Stalled {
        /// A chain target existed but had no room.
        chain_full: bool,
    },
}

/// One `SRC_FIFO` table entry: the FIFO holding the producer of a logical
/// register, and which dynamic instruction that producer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Producer {
    fifo: FifoId,
    inst: InstId,
}

/// The Section 5.1 dependence-steering heuristic.
///
/// The steerer owns the `SRC_FIFO` table. Callers must keep it informed of
/// the pipeline's progress:
///
/// * [`steer`](Self::steer) at dispatch (in program order within a group —
///   the table is updated as each instruction is steered, exactly like the
///   rename-stage hardware);
/// * [`on_issue`](Self::on_issue) when an instruction leaves its FIFO, so
///   stale producers no longer attract dependents;
/// * [`on_squash`](Self::on_squash) to reset on a pipeline flush.
#[derive(Debug, Clone, Default)]
pub struct DependenceSteerer {
    src_fifo: [Option<Producer>; Reg::COUNT],
}

impl DependenceSteerer {
    /// Creates a steerer with an empty `SRC_FIFO` table.
    pub fn new() -> DependenceSteerer {
        DependenceSteerer::default()
    }

    /// Steers one instruction, pushing it onto the chosen FIFO and
    /// updating the `SRC_FIFO` table.
    pub fn steer(
        &mut self,
        inst_id: InstId,
        inst: &Instruction,
        pool: &mut FifoPool,
    ) -> SteerOutcome {
        self.steer_explained(inst_id, inst, pool).0
    }

    /// Like [`steer`](Self::steer), additionally explaining the decision —
    /// which heuristic case placed the instruction, or why it stalled.
    /// Identical placement behaviour; the explanation is a by-product of
    /// work the heuristic already does.
    pub fn steer_explained(
        &mut self,
        inst_id: InstId,
        inst: &Instruction,
        pool: &mut FifoPool,
    ) -> (SteerOutcome, SteerExplain) {
        let [left, right] = inst.uses();
        let candidates = [left, right].map(|src| self.outstanding_producer(src, pool));

        let mut target: Option<(FifoId, usize)> = None;
        let mut chain_full = false;
        for (operand, producer) in candidates.into_iter().enumerate() {
            // A producer still at its FIFO's tail (nothing behind it) makes
            // the FIFO suitable iff it has room.
            let Some(producer) = producer else { continue };
            if !pool.is_fifo_full(producer.fifo) {
                target = Some((producer.fifo, operand));
                break;
            }
            chain_full = true;
        }
        // When no FIFO is suitable, prefer a fresh FIFO in the cluster of
        // the most recent producer of one of our operands (even one that
        // has already issued): the value will arrive over that cluster's
        // fast local bypass.
        let affinity = [left, right]
            .iter()
            .flatten()
            .filter_map(|r| self.src_fifo[r.index()])
            .map(|p| pool.cluster_of(p.fifo))
            .next();
        let (fifo, choice) = match target {
            Some((fifo, operand)) => (fifo, SteerChoice::Chained { operand }),
            None => match pool.acquire_preferring(affinity) {
                Some(fifo) => {
                    let choice = if affinity.is_some() {
                        SteerChoice::FreshAffinity
                    } else {
                        SteerChoice::Fresh
                    };
                    (fifo, choice)
                }
                None => return (SteerOutcome::Stall, SteerExplain::Stalled { chain_full }),
            },
        };
        pool.push(fifo, inst_id);
        if let Some(dest) = inst.defs() {
            self.src_fifo[dest.index()] = Some(Producer { fifo, inst: inst_id });
        }
        (SteerOutcome::Fifo(fifo), SteerExplain::Placed(choice))
    }

    /// Looks up the producer of a source register that is still the tail
    /// of its FIFO — the only producer the heuristic chains behind.
    fn outstanding_producer(&self, src: Option<Reg>, pool: &FifoPool) -> Option<Producer> {
        let producer = self.src_fifo[src?.index()]?;
        // The entry may be stale: the producer may have issued already (the
        // table is "invalid" in the paper's terms once the value is
        // computed). A tail is in its FIFO, so the tail check validates
        // it without scanning the queue.
        (pool.tail(producer.fifo) == Some(producer.inst)).then_some(producer)
    }

    /// Invalidates `SRC_FIFO` entries naming an instruction that has left
    /// its FIFO (issued or squashed).
    pub fn on_issue(&mut self, inst_id: InstId) {
        for entry in self.src_fifo.iter_mut() {
            if entry.map(|p| p.inst) == Some(inst_id) {
                *entry = None;
            }
        }
    }

    /// Clears the whole table (pipeline flush).
    pub fn on_squash(&mut self) {
        self.src_fifo = [None; Reg::COUNT];
    }
}

/// The Section 5.6.3 random-steering control policy.
///
/// Picks a uniformly random FIFO with spare capacity (the paper's version
/// picks a random *cluster window* and falls back to the other when full;
/// with the pool abstraction that is the same thing).
#[derive(Debug, Clone)]
pub struct RandomSteerer {
    rng: StdRng,
}

impl RandomSteerer {
    /// Creates a random steerer with the given seed (runs are repeatable).
    pub fn new(seed: u64) -> RandomSteerer {
        RandomSteerer { rng: StdRng::seed_from_u64(seed) }
    }

    /// Steers one instruction to a random non-full FIFO.
    pub fn steer(&mut self, inst_id: InstId, pool: &mut FifoPool) -> SteerOutcome {
        let fifos = pool.config().fifos;
        let start = self.rng.gen_range(0..fifos);
        for offset in 0..fifos {
            let fifo = FifoId((start + offset) % fifos);
            if !pool.is_fifo_full(fifo) {
                // Random steering ignores the free-list discipline; claim
                // the FIFO directly if it was sitting in a free list.
                pool.claim(fifo);
                pool.push(fifo, inst_id);
                return SteerOutcome::Fifo(fifo);
            }
        }
        SteerOutcome::Stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifos::PoolConfig;
    use ce_isa::Opcode;

    fn alu(dst: u8, a: u8, b: u8) -> Instruction {
        Instruction::rrr(Opcode::Addu, Reg::new(dst), Reg::new(a), Reg::new(b))
    }

    fn pool(fifos: usize, depth: usize) -> FifoPool {
        FifoPool::new(PoolConfig { fifos, depth, clusters: 1 })
    }

    fn steer_all(
        steerer: &mut DependenceSteerer,
        pool: &mut FifoPool,
        insts: &[Instruction],
    ) -> Vec<SteerOutcome> {
        insts
            .iter()
            .enumerate()
            .map(|(i, inst)| steerer.steer(InstId(i as u64), inst, pool))
            .collect()
    }

    #[test]
    fn independent_instructions_get_separate_fifos() {
        let mut s = DependenceSteerer::new();
        let mut p = pool(4, 4);
        let outcomes = steer_all(&mut s, &mut p, &[alu(10, 1, 2), alu(11, 3, 4)]);
        let [SteerOutcome::Fifo(a), SteerOutcome::Fifo(b)] = outcomes[..] else {
            panic!("both should steer");
        };
        assert_ne!(a, b);
    }

    #[test]
    fn dependence_chain_shares_one_fifo() {
        let mut s = DependenceSteerer::new();
        let mut p = pool(4, 4);
        // 10 -> 11 -> 12 -> 13: a pure chain.
        let outcomes = steer_all(
            &mut s,
            &mut p,
            &[alu(10, 1, 2), alu(11, 10, 3), alu(12, 11, 4), alu(13, 12, 5)],
        );
        let fifos: Vec<FifoId> = outcomes
            .iter()
            .map(|o| match o {
                SteerOutcome::Fifo(f) => *f,
                SteerOutcome::Stall => panic!("stall"),
            })
            .collect();
        assert!(fifos.windows(2).all(|w| w[0] == w[1]), "{fifos:?}");
        assert_eq!(p.occupancy(), 4);
    }

    #[test]
    fn producer_with_follower_forces_new_fifo() {
        // I2 depends on I0, but I1 (also dependent on I0) already sits
        // behind I0 — so I2 must go elsewhere.
        let mut s = DependenceSteerer::new();
        let mut p = pool(4, 4);
        let outcomes = steer_all(
            &mut s,
            &mut p,
            &[alu(10, 1, 2), alu(11, 10, 3), alu(12, 10, 4)],
        );
        let [SteerOutcome::Fifo(f0), SteerOutcome::Fifo(f1), SteerOutcome::Fifo(f2)] =
            outcomes[..]
        else {
            panic!("all should steer");
        };
        assert_eq!(f0, f1);
        assert_ne!(f2, f0);
    }

    #[test]
    fn two_outstanding_operands_prefer_left_then_right() {
        let mut s = DependenceSteerer::new();
        let mut p = pool(4, 4);
        // Two independent producers, then a consumer of both.
        let outcomes = steer_all(
            &mut s,
            &mut p,
            &[alu(10, 1, 2), alu(11, 3, 4), alu(12, 10, 11)],
        );
        let [SteerOutcome::Fifo(f0), SteerOutcome::Fifo(_f1), SteerOutcome::Fifo(f2)] =
            outcomes[..]
        else {
            panic!("all should steer");
        };
        // Left operand (r10, produced into f0) wins.
        assert_eq!(f2, f0);
    }

    #[test]
    fn right_operand_used_when_left_unsuitable() {
        let mut s = DependenceSteerer::new();
        let mut p = pool(4, 4);
        let outcomes = steer_all(
            &mut s,
            &mut p,
            &[
                alu(10, 1, 2),  // producer A (left source of I3)
                alu(11, 3, 4),  // producer B (right source of I3)
                alu(13, 10, 5), // occupies the slot behind A
                alu(12, 10, 11),
            ],
        );
        let fifo = |i: usize| match outcomes[i] {
            SteerOutcome::Fifo(f) => f,
            SteerOutcome::Stall => panic!("stall"),
        };
        assert_eq!(fifo(2), fifo(0), "I2 chains behind A");
        assert_eq!(fifo(3), fifo(1), "left blocked, so I3 chains behind B");
    }

    #[test]
    fn issued_producer_no_longer_attracts() {
        let mut s = DependenceSteerer::new();
        let mut p = pool(4, 4);
        steer_all(&mut s, &mut p, &[alu(10, 1, 2)]);
        // The producer issues and leaves its FIFO.
        let f = FifoId(0);
        assert_eq!(p.pop_head(f), Some(InstId(0)));
        s.on_issue(InstId(0));
        // A dependent arrives afterwards: it must get a fresh FIFO rather
        // than chaining behind a ghost.
        let outcome = s.steer(InstId(1), &alu(11, 10, 3), &mut p);
        assert!(matches!(outcome, SteerOutcome::Fifo(_)));
    }

    #[test]
    fn stalls_when_everything_is_full() {
        let mut s = DependenceSteerer::new();
        let mut p = pool(1, 1);
        assert!(matches!(s.steer(InstId(0), &alu(10, 1, 2), &mut p), SteerOutcome::Fifo(_)));
        assert_eq!(s.steer(InstId(1), &alu(11, 3, 4), &mut p), SteerOutcome::Stall);
    }

    #[test]
    fn full_producer_fifo_overflows_to_new_fifo() {
        let mut s = DependenceSteerer::new();
        let mut p = pool(2, 2);
        let outcomes = steer_all(
            &mut s,
            &mut p,
            &[alu(10, 1, 2), alu(11, 10, 3), alu(12, 11, 4)],
        );
        let fifo = |i: usize| match outcomes[i] {
            SteerOutcome::Fifo(f) => f,
            SteerOutcome::Stall => panic!("stall"),
        };
        assert_eq!(fifo(0), fifo(1));
        assert_ne!(fifo(2), fifo(1), "chain FIFO is full; overflow to a new one");
    }

    #[test]
    fn squash_clears_the_table() {
        let mut s = DependenceSteerer::new();
        let mut p = pool(4, 4);
        steer_all(&mut s, &mut p, &[alu(10, 1, 2)]);
        s.on_squash();
        // After the squash the pool is rebuilt too; a dependent of r10 now
        // steers as if its operand were ready.
        let mut fresh = FifoPool::new(p.config());
        let outcome = s.steer(InstId(5), &alu(11, 10, 3), &mut fresh);
        assert!(matches!(outcome, SteerOutcome::Fifo(_)));
    }

    #[test]
    fn figure12_example_groups_chains() {
        // The paper's Figure 12 code segment (registers renamed to our
        // numbering): the key property is that the chain 0→2 (via r18) and
        // the chain 4→5 (via r2/r16) each share a FIFO.
        let mut s = DependenceSteerer::new();
        let mut p = pool(4, 8);
        let insts = [
            /* 0: addu r18,r0,r2  */ alu(18, 0, 2),
            /* 1: addiu r2,r0,-1  */
            Instruction::imm(Opcode::Addiu, Reg::new(2), Reg::ZERO, -1),
            /* 2: beq r18,r2,L2   */
            Instruction::branch2(Opcode::Beq, Reg::new(18), Reg::new(2), 10),
            /* 3: lw r4,-32768(r28) */
            Instruction::mem(Opcode::Lw, Reg::new(4), -32768, Reg::new(28)),
            /* 4: sllv r2,r18,r20 */
            Instruction::shift_var(Opcode::Sllv, Reg::new(2), Reg::new(18), Reg::new(20)),
            /* 5: xor r16,r2,r19  */ alu(16, 2, 19),
        ];
        let outcomes = steer_all(&mut s, &mut p, &insts);
        let fifo = |i: usize| match outcomes[i] {
            SteerOutcome::Fifo(f) => f,
            SteerOutcome::Stall => panic!("stall"),
        };
        // beq chains behind its r18 producer (instruction 0).
        assert_eq!(fifo(2), fifo(0));
        // xor chains behind sllv, its r2 producer.
        assert_eq!(fifo(5), fifo(4));
        // The lw (no outstanding operands) gets a FIFO of its own.
        assert_ne!(fifo(3), fifo(0));
        assert_ne!(fifo(3), fifo(4));
    }

    #[test]
    fn steer_explained_reports_the_heuristic_case() {
        let mut s = DependenceSteerer::new();
        let mut p = pool(4, 4);
        // Case 1: no outstanding operands → fresh FIFO, no affinity.
        let (o0, e0) = s.steer_explained(InstId(0), &alu(10, 1, 2), &mut p);
        assert!(matches!(o0, SteerOutcome::Fifo(_)));
        assert_eq!(e0, SteerExplain::Placed(SteerChoice::Fresh));
        // Case 2: left operand outstanding at a FIFO tail → chained.
        let (_, e1) = s.steer_explained(InstId(1), &alu(11, 10, 3), &mut p);
        assert_eq!(e1, SteerExplain::Placed(SteerChoice::Chained { operand: 0 }));
        // Producer at the tail is r11 now; a consumer of r10 has a *stale*
        // tail and falls to a fresh FIFO — but with affinity for the
        // producer's cluster.
        let (_, e2) = s.steer_explained(InstId(2), &alu(12, 10, 4), &mut p);
        assert_eq!(e2, SteerExplain::Placed(SteerChoice::FreshAffinity));
        // Right-operand chaining reports operand index 1.
        let (_, _) = s.steer_explained(InstId(3), &alu(13, 5, 6), &mut p);
        let (_, e4) = s.steer_explained(InstId(4), &alu(14, 1, 13), &mut p);
        assert_eq!(e4, SteerExplain::Placed(SteerChoice::Chained { operand: 1 }));
    }

    #[test]
    fn steer_explained_reports_full_chains_on_stall() {
        let mut s = DependenceSteerer::new();
        let mut p = pool(1, 2);
        s.steer_explained(InstId(0), &alu(10, 1, 2), &mut p);
        s.steer_explained(InstId(1), &alu(11, 10, 3), &mut p);
        // The chain FIFO is full and it is the only FIFO: stall, and the
        // explanation says a chain target existed.
        let (o, e) = s.steer_explained(InstId(2), &alu(12, 11, 4), &mut p);
        assert_eq!(o, SteerOutcome::Stall);
        assert_eq!(e, SteerExplain::Stalled { chain_full: true });
    }

    #[test]
    fn steer_and_steer_explained_agree() {
        // Two identical steerers fed the same stream place identically —
        // the explanation is a by-product, not a behaviour change.
        let insts =
            [alu(10, 1, 2), alu(11, 10, 3), alu(12, 10, 4), alu(13, 12, 11), alu(14, 5, 6)];
        let mut s1 = DependenceSteerer::new();
        let mut p1 = pool(2, 2);
        let mut s2 = DependenceSteerer::new();
        let mut p2 = pool(2, 2);
        for (i, inst) in insts.iter().enumerate() {
            let plain = s1.steer(InstId(i as u64), inst, &mut p1);
            let (explained, _) = s2.steer_explained(InstId(i as u64), inst, &mut p2);
            assert_eq!(plain, explained, "instruction {i}");
        }
    }

    #[test]
    fn random_steering_is_reproducible_and_fills() {
        let mut p = pool(4, 2);
        let mut r = RandomSteerer::new(7);
        let mut placed = 0;
        for i in 0..8 {
            if matches!(r.steer(InstId(i), &mut p), SteerOutcome::Fifo(_)) {
                placed += 1;
            }
        }
        assert_eq!(placed, 8, "capacity 8 accommodates all");
        assert_eq!(r.steer(InstId(99), &mut p), SteerOutcome::Stall);
    }
}
