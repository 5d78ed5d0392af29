//! The issue structure: central window, steered per-cluster windows, or
//! the dependence-based FIFOs.
//!
//! One type models all five of the paper's organizations; the
//! [`SchedulerKind`] and [`SteeringPolicy`] pick the behaviour:
//!
//! * `CentralWindow` — one flexible pool of entries; with multiple
//!   clusters, the cluster is chosen at issue time (Section 5.6.1).
//! * `SteeredWindows` — dispatch-steered conceptual FIFOs; issue may pick
//!   any waiting instruction (Section 5.6.2).
//! * `Fifos` — the dependence-based design; only FIFO heads are issue
//!   candidates (Section 5).
//!
//! Every organization keeps resident bits keyed by sequence number, so one
//! bit scan from the ROB head (`Scheduler::next_candidate`) yields its
//! candidates oldest first, whichever slot or FIFO holds them. The windows
//! mark every waiting instruction resident and also keep awake bits. The
//! head-only FIFOs mark only their heads, the paper's §5 point that
//! wakeup and select need look at nothing else, and keep no awake bits.
//! A head uncovered by an issue joins the scan only when the issue pass
//! ends ([`Scheduler::end_issue_pass`]), so a pass selects among the heads
//! it started with.

use crate::config::{SchedulerKind, SteeringPolicy};
use ce_core::fifos::{FifoPool, PoolConfig};
use ce_core::steering::{DependenceSteerer, RandomSteerer, SteerChoice, SteerExplain, SteerOutcome};
use ce_core::steering_variants::{LoadBalancedSteerer, RoundRobinSteerer};
use ce_core::{FifoId, InstId};
use ce_isa::Instruction;

/// An issue candidate: a waiting instruction and the cluster it is bound
/// to (`None` = unbound; the pipeline picks a cluster at issue time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The instruction's dynamic sequence number.
    pub id: InstId,
    /// Dispatch-assigned cluster, if the organization binds one.
    pub cluster: Option<usize>,
}

/// A successful dispatch insertion, explained — for pipeline probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Bound cluster (`None` for the central window).
    pub cluster: Option<usize>,
    /// Central-window slot index, or FIFO index for pooled organizations.
    pub slot: u32,
    /// How steering chose the FIFO (`None` for the central window).
    pub steer: Option<SteerChoice>,
}

/// Why a dispatch insertion failed — for pipeline probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertReject {
    /// The central window has no free slot.
    WindowFull,
    /// The steering heuristic found no suitable or free FIFO; `chain_full`
    /// means a dependence-chain target existed but had no room.
    Steering {
        /// A chain target existed but its FIFO was full.
        chain_full: bool,
    },
}

/// The issue structure.
#[derive(Debug)]
pub struct Scheduler {
    kind: SchedulerKind,
    clusters: usize,
    /// Pool backing the FIFO-shaped organizations (`None` for the central
    /// window).
    pool: Option<FifoPool>,
    dependence: DependenceSteerer,
    random: Option<RandomSteerer>,
    round_robin: Option<RoundRobinSteerer>,
    load_balanced: Option<LoadBalancedSteerer>,
    /// Dense placement ring keyed by `seq & place_mask`: the window slot
    /// (central) or FIFO index (pooled) holding each resident instruction.
    /// Sound because resident sequence numbers are ROB-contiguous, so any
    /// two differ by less than the ring size (a power of two ≥
    /// `max_inflight`) — no hash lookups on the issue path.
    place: Vec<Option<u32>>,
    place_mask: u64,
    /// Bit `seq & place_mask` set iff that instruction is an issue
    /// candidate, keyed like `place`, so a bit scan from the ROB head's
    /// position visits candidates oldest first: every resident instruction
    /// of a window, or the head of each head-only FIFO.
    resident: Vec<u64>,
    /// Bit `seq & place_mask` set iff the resident instruction is awake:
    /// all its source operands have been produced (the tag-match result
    /// of the paper's wakeup broadcast, cached as a bit). Set by the
    /// pipeline via [`set_awake`](Self::set_awake), only ever for a
    /// resident, and cleared as the instruction leaves, so it is always a
    /// subset of `resident`. Head-only FIFOs never set it.
    awake: Vec<u64>,
    /// Head-only FIFOs whose head issued during the current pass; their
    /// new heads become candidates at [`end_issue_pass`](Self::end_issue_pass).
    uncovered: u128,
    /// Central-window slots: new instructions take the lowest free slot, so
    /// slot order models physical window position (no compaction).
    window: Vec<Option<InstId>>,
    /// Bit `s` set iff `window[s]` is occupied; bits at or beyond
    /// `central_capacity` are permanently set so the free-slot probe never
    /// strays past the capacity.
    occ_words: Vec<u64>,
    central_capacity: usize,
    /// Central-window population (pooled occupancy lives in the pool).
    central_len: usize,
}

impl Scheduler {
    /// Builds the scheduler for a machine configuration. `max_inflight` is
    /// the machine's in-flight limit; it bounds how far apart the sequence
    /// numbers of two resident instructions can be, sizing the placement
    /// ring.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (zero sizes, clusters not dividing
    /// the window).
    pub fn new(
        kind: SchedulerKind,
        clusters: usize,
        steering: SteeringPolicy,
        max_inflight: usize,
    ) -> Scheduler {
        let pool = match kind {
            SchedulerKind::CentralWindow { .. } => None,
            SchedulerKind::SteeredWindows { fifos_per_cluster, fifo_depth } => {
                Some(FifoPool::new(PoolConfig {
                    fifos: fifos_per_cluster * clusters,
                    depth: fifo_depth,
                    clusters,
                }))
            }
            SchedulerKind::Fifos { fifos_per_cluster, depth } => Some(FifoPool::new(PoolConfig {
                fifos: fifos_per_cluster * clusters,
                depth,
                clusters,
            })),
        };
        let central_capacity = match kind {
            SchedulerKind::CentralWindow { size } => size,
            _ => 0,
        };
        let random = match steering {
            SteeringPolicy::Random { seed } => Some(RandomSteerer::new(seed)),
            _ => None,
        };
        let round_robin = matches!(steering, SteeringPolicy::RoundRobin)
            .then(RoundRobinSteerer::new);
        let load_balanced = matches!(steering, SteeringPolicy::LoadBalanced)
            .then(LoadBalancedSteerer::new);
        let ring = max_inflight.max(1).next_power_of_two();
        let words = central_capacity.div_ceil(64).max(1);
        let mut occ_words = vec![0u64; words];
        // Pad bits past the capacity read as "occupied" so the lowest-free
        // probe never hands out a slot beyond the window.
        for (w, word) in occ_words.iter_mut().enumerate() {
            for bit in 0..64 {
                if w * 64 + bit >= central_capacity {
                    *word |= 1u64 << bit;
                }
            }
        }
        Scheduler {
            kind,
            clusters,
            pool,
            dependence: DependenceSteerer::new(),
            random,
            round_robin,
            load_balanced,
            place: vec![None; ring],
            place_mask: ring as u64 - 1,
            resident: vec![0u64; ring.div_ceil(64)],
            awake: vec![0u64; ring.div_ceil(64)],
            uncovered: 0,
            window: vec![None; central_capacity],
            occ_words,
            central_capacity,
            central_len: 0,
        }
    }

    /// Whether only FIFO heads may issue.
    pub fn head_only(&self) -> bool {
        matches!(self.kind, SchedulerKind::Fifos { .. })
    }

    /// Inserts an instruction at dispatch. Returns its bound cluster
    /// (`None` for the central window), or `Err(())` when the structure
    /// has no suitable slot and dispatch must stall.
    #[allow(clippy::result_unit_err)]
    pub fn try_insert(&mut self, id: InstId, inst: &Instruction) -> Result<Option<usize>, ()> {
        self.try_insert_explained(id, inst).map(|p| p.cluster).map_err(|_| ())
    }

    /// [`try_insert`](Self::try_insert), explained: on success reports the
    /// slot/FIFO taken and how steering chose it; on failure reports why.
    /// Placement behaviour is identical to `try_insert`.
    pub fn try_insert_explained(
        &mut self,
        id: InstId,
        inst: &Instruction,
    ) -> Result<Placement, InsertReject> {
        let placed = match &mut self.pool {
            None => {
                // Lowest free slot, found by bitmask probe (same placement a
                // first-`None` linear scan produced).
                let word = match self.occ_words.iter().position(|&w| w != u64::MAX) {
                    Some(w) => w,
                    None => return Err(InsertReject::WindowFull),
                };
                let slot = word * 64 + (!self.occ_words[word]).trailing_zeros() as usize;
                debug_assert!(slot < self.central_capacity);
                debug_assert!(self.window[slot].is_none());
                self.occ_words[word] |= 1u64 << (slot % 64);
                self.window[slot] = Some(id);
                self.place[(id.0 & self.place_mask) as usize] = Some(slot as u32);
                self.central_len += 1;
                Ok(Placement { cluster: None, slot: slot as u32, steer: None })
            }
            Some(pool) => {
                let (outcome, explain) = if let Some(r) = &mut self.random {
                    (r.steer(id, pool), None)
                } else if let Some(r) = &mut self.round_robin {
                    (r.steer(id, pool), None)
                } else if let Some(l) = &mut self.load_balanced {
                    (l.steer(id, inst, pool), None)
                } else {
                    let (o, e) = self.dependence.steer_explained(id, inst, pool);
                    (o, Some(e))
                };
                match outcome {
                    SteerOutcome::Fifo(fifo) => {
                        self.place[(id.0 & self.place_mask) as usize] = Some(fifo.0 as u32);
                        let choice = match explain {
                            Some(SteerExplain::Placed(c)) => c,
                            // The non-dependence steerers don't explain
                            // themselves; label by policy.
                            _ if self.random.is_some() => SteerChoice::Random,
                            _ if self.round_robin.is_some() => SteerChoice::RoundRobin,
                            _ => SteerChoice::Balanced,
                        };
                        Ok(Placement {
                            cluster: Some(pool.cluster_of(fifo)),
                            slot: fifo.0 as u32,
                            steer: Some(choice),
                        })
                    }
                    SteerOutcome::Stall => {
                        let chain_full = matches!(
                            explain,
                            Some(SteerExplain::Stalled { chain_full: true })
                        );
                        Err(InsertReject::Steering { chain_full })
                    }
                }
            }
        }?;
        // Arrives asleep; the pipeline's wakeup bookkeeping wakes it. A
        // head-only FIFO's instruction is a candidate only as its head.
        let head_of = |pool: &FifoPool| pool.head(FifoId(placed.slot as usize));
        if !self.head_only() || self.pool.as_ref().and_then(head_of) == Some(id) {
            self.set_resident(id);
        }
        Ok(placed)
    }

    /// Word index and mask of `id`'s bit in the sequence-keyed bitsets.
    fn ring_bit(&self, id: InstId) -> (usize, u64) {
        let r = id.0 & self.place_mask;
        ((r / 64) as usize, 1u64 << (r % 64))
    }

    fn set_resident(&mut self, id: InstId) {
        let (w, bit) = self.ring_bit(id);
        self.resident[w] |= bit;
    }

    /// Appends the instructions eligible for selection this cycle to `out`
    /// (cleared first) — central window in slot order, FIFO organizations
    /// in ascending FIFO order. The pipeline reuses one buffer across
    /// cycles; the order matches what the old per-cycle allocation
    /// produced.
    pub fn candidates_into(&self, out: &mut Vec<Candidate>) {
        out.clear();
        match &self.pool {
            None => {
                for (w, &word) in self.occ_words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let slot = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        if slot >= self.central_capacity {
                            break; // pad bits, not real slots
                        }
                        let id = self.window[slot].expect("occupied bit ⇒ filled slot");
                        out.push(Candidate { id, cluster: None });
                    }
                }
            }
            Some(pool) => {
                if self.head_only() {
                    out.extend(
                        pool.heads()
                            .map(|(f, id)| Candidate { id, cluster: Some(pool.cluster_of(f)) }),
                    );
                } else {
                    out.extend(pool.entries().map(|(f, _, id)| Candidate {
                        id,
                        cluster: Some(pool.cluster_of(f)),
                    }));
                }
            }
        }
    }

    /// The oldest resident instruction with an id in `from..end` (with
    /// `awake_only`, the oldest resident *awake* one), found by a bit scan
    /// of the sequence-keyed bitsets from `from`'s ring position. The
    /// issue stage calls it once per candidate, `from` just past the last
    /// one, so a pass never builds a candidate list and sees bits set
    /// mid-pass (a producer's issue waking a split store behind it).
    ///
    /// Every resident id must lie in `from..end` or below `from` within
    /// one ring length of `end` — true for any range inside the ROB's
    /// sequence span — so each ring position maps to one id. Head-only
    /// FIFOs yield their heads, and only those present when the last pass
    /// ended: a head uncovered mid-pass waits for
    /// [`end_issue_pass`](Self::end_issue_pass). They keep no awake bits,
    /// so they must be scanned with `awake_only` false.
    pub(crate) fn next_candidate(
        &self,
        from: InstId,
        end: InstId,
        awake_only: bool,
    ) -> Option<Candidate> {
        let ring = self.place.len() as u64;
        let mut seq = from.0;
        while seq < end.0 {
            let r = seq & self.place_mask;
            let w = (r / 64) as usize;
            let words = if awake_only { &self.awake } else { &self.resident };
            // A ring shorter than a word never sets the bits past its end.
            let bits = words[w] >> (r % 64);
            if bits != 0 {
                let id = InstId(seq + u64::from(bits.trailing_zeros()));
                return (id < end).then(|| self.candidate(id));
            }
            // On to the next word, or wrap to ring position 0.
            seq += (64 - r % 64).min(ring - r);
        }
        None
    }

    /// A resident instruction as an issue candidate, with its bound
    /// cluster for pooled organizations.
    fn candidate(&self, id: InstId) -> Candidate {
        let cluster = self.pool.as_ref().map(|pool| {
            let fifo = self.place[(id.0 & self.place_mask) as usize].expect("resident ⇒ placed");
            pool.cluster_of(FifoId(fifo as usize))
        });
        Candidate { id, cluster }
    }

    /// Marks a resident instruction as awake: every source operand has been
    /// produced. The pipeline calls this from its tag-broadcast bookkeeping
    /// (at dispatch when no operand is outstanding, and when the last
    /// outstanding producer issues). No-op for ids that are not (or are no
    /// longer) resident — a broadcast can race an early-selected or
    /// squashed consumer under fault injection. Head-only FIFOs keep no
    /// wakeup bookkeeping, so the pipeline never calls this for them, and
    /// the checker asserts their awake bits stay clear.
    pub fn set_awake(&mut self, id: InstId) {
        let (w, bit) = self.ring_bit(id);
        self.awake[w] |= self.resident[w] & bit;
    }

    /// Whether `id` is resident and awake — read-only access for the
    /// invariant checker's audit of the wakeup bookkeeping.
    pub(crate) fn is_awake(&self, id: InstId) -> bool {
        let (w, bit) = self.ring_bit(id);
        self.awake[w] & bit != 0
    }

    /// Whether `id`'s resident bit is set — read-only access for the
    /// invariant checker's audit of the head-only FIFOs' head bits.
    pub(crate) fn is_resident(&self, id: InstId) -> bool {
        let (w, bit) = self.ring_bit(id);
        self.resident[w] & bit != 0
    }

    /// How many resident and awake bits are set, for the same audit: with
    /// every head's bit set, a resident count equal to the head count
    /// leaves no room for a stray bit.
    pub(crate) fn ring_population(&self) -> (usize, usize) {
        let count = |words: &[u64]| words.iter().map(|w| w.count_ones() as usize).sum();
        (count(&self.resident), count(&self.awake))
    }

    /// Ends an issue pass: the heads that this pass's issues uncovered in
    /// head-only FIFOs become candidates. Deferring them keeps a pass to
    /// the heads it started with, as a per-cycle snapshot of the heads
    /// would; without it a FIFO could issue two instructions in one cycle.
    pub(crate) fn end_issue_pass(&mut self) {
        let Some(pool) = &self.pool else { return };
        let mut uncovered = std::mem::take(&mut self.uncovered);
        while uncovered != 0 {
            let fifo = FifoId(uncovered.trailing_zeros() as usize);
            uncovered &= uncovered - 1;
            if let Some(head) = pool.head(fifo) {
                let (w, bit) = self.ring_bit(head);
                self.resident[w] |= bit;
            }
        }
    }

    /// Clears `id`'s resident and awake bits as it leaves.
    fn clear_ring_bits(&mut self, id: InstId) {
        let (w, bit) = self.ring_bit(id);
        self.resident[w] &= !bit;
        self.awake[w] &= !bit;
    }

    /// The instructions eligible for selection this cycle (allocating
    /// convenience over [`candidates_into`](Self::candidates_into)).
    pub fn candidates(&self) -> Vec<Candidate> {
        let mut out = Vec::new();
        self.candidates_into(&mut out);
        out
    }

    /// Removes an instruction at issue.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not present (a pipeline bug).
    pub fn remove(&mut self, id: InstId) {
        let head_only = self.head_only();
        let placed = self.place[(id.0 & self.place_mask) as usize].take();
        match &mut self.pool {
            None => {
                let slot =
                    placed.expect("issued instruction must be in the window") as usize;
                assert_eq!(
                    self.window[slot].take(),
                    Some(id),
                    "issued instruction must be in the window"
                );
                self.occ_words[slot / 64] &= !(1u64 << (slot % 64));
                self.central_len -= 1;
            }
            Some(pool) => {
                let fifo = FifoId(placed.expect("issued instruction placed") as usize);
                if head_only {
                    let popped = pool.pop_head(fifo);
                    assert_eq!(popped, Some(id), "head-only issue must pop the head");
                    self.uncovered |= 1u128 << fifo.0;
                } else {
                    assert!(pool.remove(fifo, id), "instruction must be in its FIFO");
                }
                // NOTE: the SRC_FIFO table is deliberately NOT cleared at
                // issue. The paper invalidates entries only at *completion*;
                // keeping them lets later dependents inherit the producer's
                // cluster (FIFO→cluster is static), and the steerer already
                // validates staleness against the pool contents.
            }
        }
        self.clear_ring_bits(id);
    }

    /// Removes a squashed, never-issued instruction.
    ///
    /// Distinct from [`remove`](Self::remove), which models *issue*: the
    /// head-only FIFO organizations must pop their FIFO head there. A
    /// squash strikes from the *young* end — the wrong-path work sits at
    /// FIFO tails, behind entries that survive — so this removes from any
    /// queue position. A squashed head-only FIFO head that leaves a
    /// successor makes it a candidate at once: squashes happen between
    /// issue passes.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not present (a pipeline bug).
    pub fn remove_squashed(&mut self, id: InstId) {
        if self.pool.is_none() {
            // Central window removal is position-independent already.
            self.remove(id);
            return;
        }
        let head_only = self.head_only();
        let placed = self.place[(id.0 & self.place_mask) as usize].take();
        let fifo = FifoId(placed.expect("squashed instruction must be placed") as usize);
        let pool = self.pool.as_mut().expect("checked");
        let was_head = pool.head(fifo) == Some(id);
        assert!(pool.remove(fifo, id), "squashed instruction must be in its FIFO");
        let successor = pool.head(fifo).filter(|_| head_only && was_head);
        self.clear_ring_bits(id);
        if let Some(next) = successor {
            self.set_resident(next);
        }
    }

    /// The FIFO pool backing a pooled organization (`None` for the
    /// central window) — read-only access for invariant checkers.
    pub fn pool(&self) -> Option<&FifoPool> {
        self.pool.as_ref()
    }

    /// Where a *resident* instruction sits: the central-window slot index,
    /// or the FIFO index for pooled organizations. Only meaningful for
    /// instructions currently in the scheduler (the placement ring slot is
    /// recycled once an instruction leaves).
    pub fn placement_of(&self, id: InstId) -> Option<u32> {
        self.place[(id.0 & self.place_mask) as usize]
    }

    /// Total scheduler capacity (window slots, or FIFOs × depth).
    pub fn capacity(&self) -> usize {
        match &self.pool {
            None => self.central_capacity,
            Some(pool) => pool.config().fifos * pool.config().depth,
        }
    }

    /// Instructions currently waiting.
    pub fn occupancy(&self) -> usize {
        match &self.pool {
            None => self.central_len,
            Some(pool) => pool.occupancy(),
        }
    }

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        self.clusters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_isa::{Opcode, Reg};

    fn alu(dst: u8, a: u8, b: u8) -> Instruction {
        Instruction::rrr(Opcode::Addu, Reg::new(dst), Reg::new(a), Reg::new(b))
    }

    #[test]
    fn central_window_capacity() {
        let mut s = Scheduler::new(
            SchedulerKind::CentralWindow { size: 2 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        assert!(s.try_insert(InstId(0), &alu(10, 1, 2)).is_ok());
        assert!(s.try_insert(InstId(1), &alu(11, 1, 2)).is_ok());
        assert!(s.try_insert(InstId(2), &alu(12, 1, 2)).is_err());
        assert_eq!(s.occupancy(), 2);
        s.remove(InstId(0));
        assert!(s.try_insert(InstId(2), &alu(12, 1, 2)).is_ok());
    }

    #[test]
    fn fifo_candidates_are_heads_only() {
        let mut s = Scheduler::new(
            SchedulerKind::Fifos { fifos_per_cluster: 2, depth: 4 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        // A chain of three dependent instructions lands in one FIFO.
        s.try_insert(InstId(0), &alu(10, 1, 2)).unwrap();
        s.try_insert(InstId(1), &alu(11, 10, 2)).unwrap();
        s.try_insert(InstId(2), &alu(12, 11, 2)).unwrap();
        let cands = s.candidates();
        assert_eq!(cands.len(), 1, "only the head is visible");
        assert_eq!(cands[0].id, InstId(0));
        assert!(s.head_only());
        s.remove(InstId(0));
        assert_eq!(s.candidates()[0].id, InstId(1));
    }

    #[test]
    fn steered_windows_expose_every_entry() {
        let mut s = Scheduler::new(
            SchedulerKind::SteeredWindows { fifos_per_cluster: 2, fifo_depth: 4 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        s.try_insert(InstId(0), &alu(10, 1, 2)).unwrap();
        s.try_insert(InstId(1), &alu(11, 10, 2)).unwrap();
        assert_eq!(s.candidates().len(), 2, "flexible window sees all entries");
        assert!(!s.head_only());
        // Out-of-order removal works (issue from the middle of a chain).
        s.remove(InstId(1));
        assert_eq!(s.candidates().len(), 1);
    }

    #[test]
    fn clustered_fifos_report_cluster() {
        let mut s = Scheduler::new(
            SchedulerKind::Fifos { fifos_per_cluster: 2, depth: 2 },
            2,
            SteeringPolicy::Dependence,
            128,
        );
        // Independent instructions spread across FIFOs; clusters 0 then 1.
        for i in 0..4u64 {
            s.try_insert(InstId(i), &alu(10 + i as u8, 1, 2)).unwrap();
        }
        let mut clusters: Vec<usize> =
            s.candidates().iter().filter_map(|c| c.cluster).collect();
        clusters.sort_unstable();
        assert_eq!(clusters, vec![0, 0, 1, 1]);
    }

    #[test]
    fn random_steering_fills_everything() {
        let mut s = Scheduler::new(
            SchedulerKind::SteeredWindows { fifos_per_cluster: 2, fifo_depth: 2 },
            2,
            SteeringPolicy::Random { seed: 3 },
            128,
        );
        for i in 0..8u64 {
            assert!(s.try_insert(InstId(i), &alu(10, 1, 2)).is_ok(), "slot {i}");
        }
        assert!(s.try_insert(InstId(8), &alu(10, 1, 2)).is_err());
        assert_eq!(s.occupancy(), 8);
    }

    /// Regression test: squashing from a head-only FIFO used to go
    /// through [`Scheduler::remove`], which pops the *head* and asserts it
    /// matches — but squashed wrong-path work sits at the *tail*, so any
    /// FIFO holding real work in front of wrong-path work panicked.
    #[test]
    fn squash_removes_from_fifo_tail_not_head() {
        let mut s = Scheduler::new(
            SchedulerKind::Fifos { fifos_per_cluster: 2, depth: 4 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        // A dependence chain: all three share one FIFO, id order 0,1,2.
        s.try_insert(InstId(0), &alu(10, 1, 2)).unwrap();
        s.try_insert(InstId(1), &alu(11, 10, 2)).unwrap();
        s.try_insert(InstId(2), &alu(12, 11, 2)).unwrap();
        // Squash the two youngest (a wrong-path slice): tail-side removal.
        s.remove_squashed(InstId(2));
        s.remove_squashed(InstId(1));
        assert_eq!(s.occupancy(), 1);
        let cands = s.candidates();
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].id, InstId(0), "the surviving head is untouched");
        // The survivor still issues normally.
        s.remove(InstId(0));
        assert_eq!(s.occupancy(), 0);
    }

    #[test]
    fn checker_accessors_expose_placement() {
        let mut s = Scheduler::new(
            SchedulerKind::Fifos { fifos_per_cluster: 2, depth: 4 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        s.try_insert(InstId(0), &alu(10, 1, 2)).unwrap();
        s.try_insert(InstId(1), &alu(11, 10, 2)).unwrap();
        let fifo = s.placement_of(InstId(1)).expect("resident");
        let pool = s.pool().expect("pooled organization");
        assert_eq!(pool.position_of(ce_core::FifoId(fifo as usize), InstId(1)), Some(1));
        assert_eq!(s.capacity(), 8);
    }

    #[test]
    fn try_insert_explained_reports_placement_and_rejection() {
        // Central window: slots fill lowest-first, reject is WindowFull.
        let mut s = Scheduler::new(
            SchedulerKind::CentralWindow { size: 2 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        let p0 = s.try_insert_explained(InstId(0), &alu(10, 1, 2)).unwrap();
        assert_eq!(p0, Placement { cluster: None, slot: 0, steer: None });
        let p1 = s.try_insert_explained(InstId(1), &alu(11, 1, 2)).unwrap();
        assert_eq!(p1.slot, 1);
        assert_eq!(
            s.try_insert_explained(InstId(2), &alu(12, 1, 2)),
            Err(InsertReject::WindowFull)
        );

        // Dependence FIFOs: the chain explanation and fifo index surface.
        let mut f = Scheduler::new(
            SchedulerKind::Fifos { fifos_per_cluster: 1, depth: 2 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        let q0 = f.try_insert_explained(InstId(0), &alu(10, 1, 2)).unwrap();
        assert_eq!(q0.cluster, Some(0));
        assert_eq!(q0.steer, Some(SteerChoice::Fresh));
        let q1 = f.try_insert_explained(InstId(1), &alu(11, 10, 2)).unwrap();
        assert_eq!(q1.slot, q0.slot, "chained into the producer's FIFO");
        assert_eq!(q1.steer, Some(SteerChoice::Chained { operand: 0 }));
        // FIFO full behind a chain target: Steering { chain_full: true }.
        assert_eq!(
            f.try_insert_explained(InstId(2), &alu(12, 11, 2)),
            Err(InsertReject::Steering { chain_full: true })
        );

        // Policy-labelled steering for the non-dependence steerers.
        let mut r = Scheduler::new(
            SchedulerKind::SteeredWindows { fifos_per_cluster: 2, fifo_depth: 2 },
            1,
            SteeringPolicy::RoundRobin,
            128,
        );
        let w = r.try_insert_explained(InstId(0), &alu(10, 1, 2)).unwrap();
        assert_eq!(w.steer, Some(SteerChoice::RoundRobin));
    }

    #[test]
    fn try_insert_and_explained_agree() {
        let mk = || {
            Scheduler::new(
                SchedulerKind::Fifos { fifos_per_cluster: 2, depth: 2 },
                2,
                SteeringPolicy::Dependence,
                128,
            )
        };
        let (mut a, mut b) = (mk(), mk());
        let stream = [
            alu(10, 1, 2),
            alu(11, 10, 2),
            alu(12, 3, 4),
            alu(13, 12, 11),
            alu(14, 5, 6),
            alu(15, 7, 8),
            alu(16, 14, 15),
            alu(17, 9, 9),
            alu(18, 17, 16),
            alu(19, 2, 3),
        ];
        for (i, inst) in stream.iter().enumerate() {
            let id = InstId(i as u64);
            let plain = a.try_insert(id, inst);
            let explained = b.try_insert_explained(id, inst);
            assert_eq!(plain.is_ok(), explained.is_ok(), "inst {i}");
            if let (Ok(c), Ok(p)) = (plain, explained) {
                assert_eq!(c, p.cluster, "inst {i}");
            }
        }
    }

    /// The test's model of a ROB span `head..tail` and of which of its
    /// sequence numbers are resident, awake, or issued, plus the FIFO heads
    /// uncovered by issues in the current pass, which the scan must not
    /// yield until the pass ends.
    #[derive(Default)]
    struct Model {
        head: u64,
        tail: u64,
        resident: std::collections::BTreeSet<u64>,
        awake: std::collections::BTreeSet<u64>,
        issued: std::collections::BTreeSet<u64>,
        uncovered: std::collections::BTreeSet<u64>,
    }

    impl Model {
        fn issue(&mut self, s: &mut Scheduler, id: InstId) {
            let fifo = s.placement_of(id).map(|f| FifoId(f as usize));
            s.remove(id);
            if s.head_only() {
                let pool = s.pool().expect("pooled");
                self.uncovered.extend(fifo.and_then(|f| pool.head(f)).map(|h| h.0));
            }
            self.resident.remove(&id.0);
            self.awake.remove(&id.0);
            self.issued.insert(id.0);
        }

        fn end_pass(&mut self, s: &mut Scheduler) {
            s.end_issue_pass();
            self.uncovered.clear();
        }

        /// Wakes a window entry. The pipeline never wakes a head-only
        /// FIFO's instructions: they keep no awake bits.
        fn wake(&mut self, s: &mut Scheduler, id: u64) {
            if !s.head_only() {
                s.set_awake(InstId(id));
                self.awake.insert(id);
            }
        }

        fn asleep(&self) -> Option<u64> {
            self.resident.iter().copied().find(|id| !self.awake.contains(id))
        }

        /// `candidates_into` without the heads uncovered this pass,
        /// filtered to resident ∧ awake (or to resident alone) and sorted
        /// by id: what the ring scan must yield.
        fn expect(&self, s: &Scheduler, awake_only: bool) -> Vec<Candidate> {
            let mut want = s.candidates();
            want.retain(|c| {
                !self.uncovered.contains(&c.id.0) && (!awake_only || self.awake.contains(&c.id.0))
            });
            want.sort_unstable_by_key(|c| c.id);
            want
        }

        fn scan(&self, s: &Scheduler, awake_only: bool) -> Vec<Candidate> {
            let next = |from: u64| s.next_candidate(InstId(from), InstId(self.tail), awake_only);
            std::iter::successors(next(self.head), |c| next(c.id.0 + 1)).collect()
        }
    }

    /// Property: on randomized histories for all three scheduler kinds —
    /// rings under a word (`max_inflight` 16 or 32) and over it, sequence
    /// numbers wrapping the ring many times, squashes whose sequence
    /// numbers are then reused, and wakes and issues during a pass — the
    /// ring scan equals `candidates_into` filtered to resident ∧ awake (or
    /// to resident alone) and sorted by id. For head-only FIFOs that is
    /// the heads present when the last pass ended, oldest first: a head
    /// uncovered mid-pass stays invisible until `end_issue_pass`, and
    /// with no awake bits their awake-only scan stays empty.
    #[test]
    fn ring_scan_matches_filtered_candidates_on_random_histories() {
        let mut rng: u64 = 0x5eed_cafe_f00d_0001;
        let mut next = move |n: u64| {
            // xorshift64* — deterministic, no external crates.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        };
        for trial in 0..150 {
            let (a, b) = (1 + next(8) as usize, 1 + next(8) as usize);
            let kind = match trial % 3 {
                0 => SchedulerKind::CentralWindow { size: 1 + next(100) as usize },
                1 => SchedulerKind::SteeredWindows { fifos_per_cluster: a, fifo_depth: b },
                _ => SchedulerKind::Fifos { fifos_per_cluster: a, depth: b },
            };
            let max_inflight = [16, 32, 100, 200][next(4) as usize];
            let mut s =
                Scheduler::new(kind, 1 + next(2) as usize, SteeringPolicy::Dependence, max_inflight);
            let mut m = Model::default();
            for step in 0..400 {
                match next(8) {
                    // Dispatch the next sequence number, awake half the time.
                    0..=2 if m.tail - m.head < max_inflight as u64 => {
                        let inst = alu(8 + next(8) as u8, 8 + next(8) as u8, 1);
                        if !s.head_only() {
                            s.set_awake(InstId(m.tail)); // not yet resident: a no-op
                        }
                        if s.try_insert(InstId(m.tail), &inst).is_ok() {
                            m.resident.insert(m.tail);
                            if next(2) == 0 {
                                m.wake(&mut s, m.tail);
                            }
                            m.tail += 1;
                        }
                    }
                    // A one-issue pass: any candidate (a FIFO head on
                    // head-only FIFOs).
                    3 => {
                        let cands = s.candidates();
                        if !cands.is_empty() {
                            m.issue(&mut s, cands[next(cands.len() as u64) as usize].id);
                        }
                        m.end_pass(&mut s);
                    }
                    // Commit issued instructions from the ROB head.
                    4 => {
                        while m.issued.remove(&m.head) {
                            m.head += 1;
                        }
                    }
                    // Squash a young slice; its sequence numbers are reused.
                    5 => {
                        let from = m.head + next(m.tail - m.head + 1);
                        for id in from..m.tail {
                            if m.resident.remove(&id) {
                                s.remove_squashed(InstId(id));
                            }
                            m.awake.remove(&id);
                            m.issued.remove(&id);
                        }
                        m.tail = from;
                    }
                    6 => {
                        if let Some(id) = m.asleep() {
                            m.wake(&mut s, id);
                        }
                    }
                    // An issue pass: issues and wakes land mid-scan.
                    _ => {
                        let awake_only = !s.head_only() && next(2) == 0;
                        let mut at = m.head;
                        loop {
                            let got = s.next_candidate(InstId(at), InstId(m.tail), awake_only);
                            let want = m.expect(&s, awake_only).into_iter().find(|c| c.id.0 >= at);
                            assert_eq!(got, want, "trial {trial} step {step}: mid-pass scan");
                            let Some(c) = got else { break };
                            at = c.id.0 + 1;
                            match (next(3), m.asleep()) {
                                (0, _) => m.issue(&mut s, c.id),
                                (1, Some(id)) => m.wake(&mut s, id),
                                _ => {}
                            }
                        }
                        m.end_pass(&mut s);
                    }
                }
                for awake_only in [false, true] {
                    let want = m.expect(&s, awake_only);
                    assert_eq!(m.scan(&s, awake_only), want, "trial {trial} step {step}");
                }
                for &id in &m.resident {
                    assert_eq!(s.is_awake(InstId(id)), m.awake.contains(&id));
                }
            }
        }
    }

    /// A head-only FIFO whose head issues shows its successor to the scan
    /// only once the pass ends; a squashed head shows it at once.
    #[test]
    fn fifo_successor_becomes_a_candidate_at_pass_end_or_on_squash() {
        let mut s = Scheduler::new(
            SchedulerKind::Fifos { fifos_per_cluster: 1, depth: 4 },
            1,
            SteeringPolicy::Dependence,
            16,
        );
        // A chain of four: one FIFO, id order 0..4.
        for i in 0..4u64 {
            s.try_insert(InstId(i), &alu(10 + i as u8, 9 + i as u8, 2)).unwrap();
        }
        let scan = |s: &Scheduler, from: u64| s.next_candidate(InstId(from), InstId(4), false);
        assert_eq!(scan(&s, 0).map(|c| c.id), Some(InstId(0)));
        s.remove(InstId(0));
        assert_eq!(scan(&s, 0), None, "uncovered mid-pass: not yet a candidate");
        s.end_issue_pass();
        assert_eq!(scan(&s, 0), Some(Candidate { id: InstId(1), cluster: Some(0) }));
        s.remove_squashed(InstId(1));
        assert_eq!(scan(&s, 0).map(|c| c.id), Some(InstId(2)), "squash exposes at once");
        assert_eq!(s.ring_population(), (1, 0), "one head bit, no awake bits");
    }

    #[test]
    #[should_panic(expected = "must be in the window")]
    fn removing_absent_instruction_panics() {
        let mut s = Scheduler::new(
            SchedulerKind::CentralWindow { size: 4 },
            1,
            SteeringPolicy::Dependence,
            128,
        );
        s.remove(InstId(42));
    }
}
