//! Alternative steering heuristics (Section 5.1 notes "a number of
//! heuristics are possible"; this module makes the design space concrete).
//!
//! All variants implement the same shape as
//! [`DependenceSteerer`](crate::steering::DependenceSteerer) — steer one
//! instruction, get a [`SteerOutcome`] — so the simulator can swap them in:
//!
//! * [`RoundRobinSteerer`] — dependence-blind striping, a midpoint between
//!   the paper's heuristic and random steering: balanced load, zero chain
//!   awareness.
//! * [`LoadBalancedSteerer`] — dependence-aware like the paper's, but when
//!   a fresh FIFO is needed it picks the cluster with the *lowest
//!   occupancy* instead of the free-list/affinity order, trading bypass
//!   locality for issue bandwidth.

use crate::fifos::FifoPool;
use crate::steering::SteerOutcome;
use crate::{FifoId, InstId};
use ce_isa::{Instruction, Reg};

/// Dependence-blind round-robin striping across FIFOs.
///
/// Spreads consecutive instructions over the FIFOs in order, skipping full
/// ones. Like random steering it ignores chains, but unlike random it is
/// perfectly balanced — isolating *balance* from *dependence awareness* in
/// the Figure 17 comparison.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinSteerer {
    next: usize,
}

impl RoundRobinSteerer {
    /// Creates a round-robin steerer starting at FIFO 0.
    pub fn new() -> RoundRobinSteerer {
        RoundRobinSteerer::default()
    }

    /// Steers one instruction to the next FIFO with room.
    pub fn steer(&mut self, inst_id: InstId, pool: &mut FifoPool) -> SteerOutcome {
        let fifos = pool.config().fifos;
        for offset in 0..fifos {
            let fifo = FifoId((self.next + offset) % fifos);
            if !pool.is_fifo_full(fifo) {
                pool.claim(fifo);
                pool.push(fifo, inst_id);
                self.next = (fifo.0 + 1) % fifos;
                return SteerOutcome::Fifo(fifo);
            }
        }
        SteerOutcome::Stall
    }
}

/// One `SRC_FIFO` entry for the load-balanced variant.
#[derive(Debug, Clone, Copy)]
struct Producer {
    fifo: FifoId,
    inst: InstId,
}

/// Dependence-aware steering with occupancy-balanced FIFO acquisition.
///
/// Cases 1–3 of the paper's heuristic are unchanged; only the "new FIFO"
/// fallback differs: the emptiest cluster donates the FIFO. Compared to
/// the paper's policy this reduces dispatch stalls on chain-poor code but
/// sends more values across clusters.
#[derive(Debug, Clone, Default)]
pub struct LoadBalancedSteerer {
    src_fifo: [Option<Producer>; Reg::COUNT],
}

impl LoadBalancedSteerer {
    /// Creates a steerer with an empty `SRC_FIFO` table.
    pub fn new() -> LoadBalancedSteerer {
        LoadBalancedSteerer::default()
    }

    /// Steers one instruction.
    pub fn steer(
        &mut self,
        inst_id: InstId,
        inst: &Instruction,
        pool: &mut FifoPool,
    ) -> SteerOutcome {
        let [left, right] = inst.uses();
        let mut target = None;
        for src in [left, right].into_iter().flatten() {
            if let Some(p) = self.src_fifo[src.index()] {
                // A tail is in its FIFO, so this also rejects stale entries.
                if pool.tail(p.fifo) == Some(p.inst) && !pool.is_fifo_full(p.fifo) {
                    target = Some(p.fifo);
                    break;
                }
            }
        }
        let fifo = match target.or_else(|| self.emptiest_cluster_fifo(pool)) {
            Some(f) => f,
            None => return SteerOutcome::Stall,
        };
        pool.push(fifo, inst_id);
        if let Some(dest) = inst.defs() {
            self.src_fifo[dest.index()] = Some(Producer { fifo, inst: inst_id });
        }
        SteerOutcome::Fifo(fifo)
    }

    /// A free FIFO from the least-occupied cluster (the lowest index on a
    /// tie). `acquire_preferring` falls back to every other cluster's free
    /// list, so when the emptiest cluster has no free FIFO one more
    /// preference could not find another.
    fn emptiest_cluster_fifo(&self, pool: &mut FifoPool) -> Option<FifoId> {
        let emptiest = (0..pool.config().clusters).min_by_key(|&c| pool.cluster_occupancy(c));
        pool.acquire_preferring(emptiest)
    }

    /// Clears the table (pipeline flush).
    pub fn on_squash(&mut self) {
        self.src_fifo = [None; Reg::COUNT];
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

    #[test]
    fn round_robin_stripes_in_order() {
        let mut pool = FifoPool::new(PoolConfig { fifos: 4, depth: 2, clusters: 1 });
        let mut s = RoundRobinSteerer::new();
        let mut fifos = Vec::new();
        for i in 0..4u64 {
            match s.steer(InstId(i), &mut pool) {
                SteerOutcome::Fifo(f) => fifos.push(f.0),
                SteerOutcome::Stall => panic!("room exists"),
            }
        }
        assert_eq!(fifos, vec![0, 1, 2, 3]);
    }

    #[test]
    fn round_robin_skips_full_fifos_and_stalls_when_packed() {
        let mut pool = FifoPool::new(PoolConfig { fifos: 2, depth: 1, clusters: 1 });
        let mut s = RoundRobinSteerer::new();
        assert!(matches!(s.steer(InstId(0), &mut pool), SteerOutcome::Fifo(FifoId(0))));
        assert!(matches!(s.steer(InstId(1), &mut pool), SteerOutcome::Fifo(FifoId(1))));
        assert_eq!(s.steer(InstId(2), &mut pool), SteerOutcome::Stall);
    }

    #[test]
    fn load_balanced_still_chains_dependents() {
        let mut pool = FifoPool::new(PoolConfig { fifos: 4, depth: 4, clusters: 2 });
        let mut s = LoadBalancedSteerer::new();
        let a = s.steer(InstId(0), &alu(10, 1, 2), &mut pool);
        let b = s.steer(InstId(1), &alu(11, 10, 3), &mut pool);
        assert_eq!(a, b, "chain stays together");
    }

    #[test]
    fn load_balanced_prefers_the_emptier_cluster() {
        let mut pool = FifoPool::new(PoolConfig { fifos: 4, depth: 4, clusters: 2 });
        let mut s = LoadBalancedSteerer::new();
        // Three independent chains: first two land somewhere; by the third,
        // whichever cluster is lighter must receive it.
        let mut clusters = Vec::new();
        for i in 0..4u64 {
            match s.steer(InstId(i), &alu(10 + i as u8, 1, 2), &mut pool) {
                SteerOutcome::Fifo(f) => clusters.push(pool.cluster_of(f)),
                SteerOutcome::Stall => panic!("room exists"),
            }
        }
        let c0 = clusters.iter().filter(|&&c| c == 0).count();
        let c1 = clusters.iter().filter(|&&c| c == 1).count();
        assert_eq!(c0, 2, "perfectly balanced: {clusters:?}");
        assert_eq!(c1, 2, "perfectly balanced: {clusters:?}");
    }

    #[test]
    fn load_balanced_squash_resets() {
        let mut pool = FifoPool::new(PoolConfig { fifos: 2, depth: 4, clusters: 1 });
        let mut s = LoadBalancedSteerer::new();
        let _ = s.steer(InstId(0), &alu(10, 1, 2), &mut pool);
        s.on_squash();
        let mut fresh = FifoPool::new(pool.config());
        // Dependent of r10 now steers as if ready (table cleared).
        assert!(matches!(
            s.steer(InstId(1), &alu(11, 10, 3), &mut fresh),
            SteerOutcome::Fifo(_)
        ));
    }
}
