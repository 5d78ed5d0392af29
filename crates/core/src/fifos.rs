//! The issue-FIFO pool (paper Sections 5, 5.5).
//!
//! A pool of small in-order FIFOs, optionally partitioned into clusters.
//! Free (empty) FIFOs are handed out by [`FifoPool::acquire`] following the
//! paper's Section 5.5 policy: one free list per cluster; requests are
//! served from the *current* cluster's list, and when it runs dry the other
//! cluster's list becomes current — keeping dynamically-adjacent
//! instructions in the same cluster to minimize inter-cluster bypasses.

use crate::{FifoId, InstId};
use std::collections::VecDeque;

/// Static configuration of a FIFO pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Total number of FIFOs.
    pub fifos: usize,
    /// Capacity of each FIFO.
    pub depth: usize,
    /// Number of clusters the FIFOs are striped across (1 = unclustered).
    pub clusters: usize,
}

impl PoolConfig {
    /// The paper's 8-way configuration: 8 FIFOs × 8 entries, one cluster.
    pub fn paper_default() -> PoolConfig {
        PoolConfig { fifos: 8, depth: 8, clusters: 1 }
    }

    /// The paper's clustered configuration (Section 5.4): 2 clusters of
    /// 4 FIFOs × 8 entries.
    pub fn paper_clustered() -> PoolConfig {
        PoolConfig { fifos: 8, depth: 8, clusters: 2 }
    }

    /// FIFOs per cluster.
    pub fn fifos_per_cluster(&self) -> usize {
        self.fifos / self.clusters
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.fifos == 0 || self.depth == 0 || self.clusters == 0 {
            return Err("fifos, depth, and clusters must all be positive".into());
        }
        if !self.fifos.is_multiple_of(self.clusters) {
            return Err(format!(
                "{} clusters must evenly divide {} FIFOs",
                self.clusters, self.fifos
            ));
        }
        if self.fifos > 128 {
            return Err(format!(
                "{} FIFOs exceed the supported maximum of 128",
                self.fifos
            ));
        }
        Ok(())
    }
}

/// The pool of issue FIFOs.
///
/// ```
/// use ce_core::fifos::{FifoPool, PoolConfig};
/// use ce_core::InstId;
///
/// let mut pool = FifoPool::new(PoolConfig::paper_default());
/// let fifo = pool.acquire().expect("fresh pool has free FIFOs");
/// pool.push(fifo, InstId(0));
/// pool.push(fifo, InstId(1));
/// // Only the head is visible to wakeup/select.
/// assert_eq!(pool.heads().count(), 1);
/// assert_eq!(pool.pop_head(fifo), Some(InstId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct FifoPool {
    config: PoolConfig,
    queues: Vec<VecDeque<InstId>>,
    /// Free (empty, unowned) FIFOs per cluster.
    free: Vec<Vec<FifoId>>,
    /// Cluster whose free list is serviced first.
    current_cluster: usize,
    /// Bit `f` set iff FIFO `f` is non-empty — maintained incrementally so
    /// the per-cycle head scan touches only occupied FIFOs instead of
    /// rescanning every queue (`validate` caps pools at 128 FIFOs).
    occupied: u128,
    /// Total buffered instructions (incremental; `occupancy` is O(1)).
    len: usize,
    /// Buffered instructions per cluster (incremental).
    cluster_len: Vec<usize>,
}

impl FifoPool {
    /// Creates a pool with every FIFO free.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: PoolConfig) -> FifoPool {
        if let Err(msg) = config.validate() {
            panic!("invalid FIFO pool configuration: {msg}");
        }
        let mut free = vec![Vec::new(); config.clusters];
        // Reverse order so acquire() hands out low-numbered FIFOs first.
        for f in (0..config.fifos).rev() {
            free[f / config.fifos_per_cluster()].push(FifoId(f));
        }
        FifoPool {
            config,
            queues: vec![VecDeque::new(); config.fifos],
            free,
            current_cluster: 0,
            occupied: 0,
            len: 0,
            cluster_len: vec![0; config.clusters],
        }
    }

    /// The pool's configuration.
    pub fn config(&self) -> PoolConfig {
        self.config
    }

    /// The cluster a FIFO belongs to.
    pub fn cluster_of(&self, fifo: FifoId) -> usize {
        fifo.0 / self.config.fifos_per_cluster()
    }

    /// Acquires a free FIFO using the two-free-list policy; `None` when no
    /// FIFO is free anywhere (dispatch must stall).
    pub fn acquire(&mut self) -> Option<FifoId> {
        self.acquire_preferring(None)
    }

    /// Acquires a free FIFO, first trying `preferred` cluster (dependence
    /// affinity: a consumer whose producer ran in cluster `c` wants its
    /// new FIFO there so the value arrives over the fast local bypass),
    /// then falling back to the two-free-list policy.
    pub fn acquire_preferring(&mut self, preferred: Option<usize>) -> Option<FifoId> {
        if let Some(cluster) = preferred {
            if let Some(f) = self.free[cluster].pop() {
                return Some(f);
            }
        }
        for attempt in 0..self.config.clusters {
            let cluster = (self.current_cluster + attempt) % self.config.clusters;
            if let Some(f) = self.free[cluster].pop() {
                // Switching only happens when the current list was dry.
                self.current_cluster = cluster;
                return Some(f);
            }
        }
        None
    }

    /// Claims a specific FIFO out of the free lists (no-op if it is not
    /// free). Policies that bypass the free-list discipline (random
    /// steering) use this before pushing into an empty FIFO of their own
    /// choosing.
    pub fn claim(&mut self, fifo: FifoId) {
        let cluster = self.cluster_of(fifo);
        self.free[cluster].retain(|&f| f != fifo);
    }

    /// Whether a FIFO has no instructions.
    pub fn is_fifo_empty(&self, fifo: FifoId) -> bool {
        self.queues[fifo.0].is_empty()
    }

    /// Whether a FIFO is at capacity.
    pub fn is_fifo_full(&self, fifo: FifoId) -> bool {
        self.queues[fifo.0].len() >= self.config.depth
    }

    /// The instruction at the head (next to issue), if any.
    pub fn head(&self, fifo: FifoId) -> Option<InstId> {
        self.queues[fifo.0].front().copied()
    }

    /// The instruction at the tail (most recently pushed), if any.
    pub fn tail(&self, fifo: FifoId) -> Option<InstId> {
        self.queues[fifo.0].back().copied()
    }

    /// Pushes an instruction onto a FIFO's tail.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full — callers must check
    /// [`is_fifo_full`](Self::is_fifo_full) (the steering heuristic does).
    pub fn push(&mut self, fifo: FifoId, inst: InstId) {
        assert!(!self.is_fifo_full(fifo), "push into full {fifo}");
        self.queues[fifo.0].push_back(inst);
        self.occupied |= 1u128 << fifo.0;
        self.len += 1;
        let cluster = self.cluster_of(fifo);
        self.cluster_len[cluster] += 1;
    }

    /// Pops the head of a FIFO (in-order issue). Returns the FIFO to the
    /// free pool if it drains.
    pub fn pop_head(&mut self, fifo: FifoId) -> Option<InstId> {
        let popped = self.queues[fifo.0].pop_front();
        if popped.is_some() {
            self.len -= 1;
            let cluster = self.cluster_of(fifo);
            self.cluster_len[cluster] -= 1;
            self.maybe_free(fifo);
        }
        popped
    }

    /// Removes an instruction from anywhere in a FIFO — used when the pool
    /// models *conceptual* FIFOs over a flexible window (Section 5.6.2),
    /// where issue is not restricted to the head. Returns whether the
    /// instruction was present.
    pub fn remove(&mut self, fifo: FifoId, inst: InstId) -> bool {
        let queue = &mut self.queues[fifo.0];
        match queue.iter().position(|&i| i == inst) {
            Some(pos) => {
                queue.remove(pos);
                self.len -= 1;
                let cluster = self.cluster_of(fifo);
                self.cluster_len[cluster] -= 1;
                self.maybe_free(fifo);
                true
            }
            None => false,
        }
    }

    /// Whether `inst` currently sits anywhere in `fifo` — an O(depth) probe
    /// of one queue, replacing full-pool scans in the steering heuristics'
    /// staleness checks.
    pub fn contains(&self, fifo: FifoId, inst: InstId) -> bool {
        self.queues[fifo.0].iter().any(|&i| i == inst)
    }

    /// The position of `inst` within `fifo` (0 = head), if present —
    /// exposes queue order to external invariant checkers.
    pub fn position_of(&self, fifo: FifoId, inst: InstId) -> Option<usize> {
        self.queues[fifo.0].iter().position(|&i| i == inst)
    }

    /// Number of instructions buffered in one FIFO.
    pub fn fifo_len(&self, fifo: FifoId) -> usize {
        self.queues[fifo.0].len()
    }

    fn maybe_free(&mut self, fifo: FifoId) {
        if self.queues[fifo.0].is_empty() {
            self.occupied &= !(1u128 << fifo.0);
            let cluster = self.cluster_of(fifo);
            self.free[cluster].push(fifo);
        }
    }

    /// Iterates over the heads of all non-empty FIFOs — the only
    /// instructions wakeup/select ever examines in the dependence-based
    /// design. Driven by the incrementally maintained occupancy mask, in
    /// ascending FIFO order (the same order a full scan produced).
    pub fn heads(&self) -> impl Iterator<Item = (FifoId, InstId)> + '_ {
        let mut mask = self.occupied;
        std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let f = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some((FifoId(f), self.queues[f][0]))
        })
    }

    /// Iterates over every (fifo, position, instruction) triple.
    pub fn entries(&self) -> impl Iterator<Item = (FifoId, usize, InstId)> + '_ {
        self.queues.iter().enumerate().flat_map(|(i, q)| {
            q.iter().enumerate().map(move |(pos, &inst)| (FifoId(i), pos, inst))
        })
    }

    /// Total instructions currently buffered.
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(self.len, self.queues.iter().map(VecDeque::len).sum::<usize>());
        self.len
    }

    /// Instructions currently buffered in one cluster's FIFOs.
    pub fn cluster_occupancy(&self, cluster: usize) -> usize {
        self.cluster_len[cluster]
    }

    /// Number of free FIFOs across all clusters.
    pub fn free_count(&self) -> usize {
        self.free.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(fifos: usize, depth: usize, clusters: usize) -> FifoPool {
        FifoPool::new(PoolConfig { fifos, depth, clusters })
    }

    #[test]
    fn acquire_prefers_current_cluster() {
        let mut p = pool(4, 2, 2);
        // Cluster 0 holds FIFOs 0–1, cluster 1 holds 2–3.
        let a = p.acquire().unwrap();
        let b = p.acquire().unwrap();
        assert_eq!(p.cluster_of(a), 0);
        assert_eq!(p.cluster_of(b), 0);
        // Keep them non-empty so they are not returned to the free lists.
        p.push(a, InstId(0));
        p.push(b, InstId(1));
        // Cluster 0 exhausted: the pool switches to cluster 1.
        let c = p.acquire().unwrap();
        assert_eq!(p.cluster_of(c), 1);
        p.push(c, InstId(2));
        // And stays there while it has free FIFOs.
        let d = p.acquire().unwrap();
        assert_eq!(p.cluster_of(d), 1);
        p.push(d, InstId(3));
        assert_eq!(p.acquire(), None);
    }

    #[test]
    fn drained_fifo_returns_to_free_pool() {
        let mut p = pool(2, 4, 1);
        let f = p.acquire().unwrap();
        assert_eq!(p.free_count(), 1);
        p.push(f, InstId(0));
        p.push(f, InstId(1));
        assert_eq!(p.pop_head(f), Some(InstId(0)));
        assert_eq!(p.free_count(), 1, "still occupied");
        assert_eq!(p.pop_head(f), Some(InstId(1)));
        assert_eq!(p.free_count(), 2, "drained FIFO freed");
        assert_eq!(p.pop_head(f), None);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut p = pool(1, 8, 1);
        let f = p.acquire().unwrap();
        for i in 0..5 {
            p.push(f, InstId(i));
        }
        assert_eq!(p.head(f), Some(InstId(0)));
        assert_eq!(p.tail(f), Some(InstId(4)));
        for i in 0..5 {
            assert_eq!(p.pop_head(f), Some(InstId(i)));
        }
    }

    #[test]
    fn full_detection_and_push_panic() {
        let mut p = pool(1, 2, 1);
        let f = p.acquire().unwrap();
        p.push(f, InstId(0));
        assert!(!p.is_fifo_full(f));
        p.push(f, InstId(1));
        assert!(p.is_fifo_full(f));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.push(f, InstId(2));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn remove_from_middle_models_conceptual_fifos() {
        let mut p = pool(1, 8, 1);
        let f = p.acquire().unwrap();
        for i in 0..4 {
            p.push(f, InstId(i));
        }
        assert!(p.remove(f, InstId(2)));
        assert!(!p.remove(f, InstId(2)));
        let drained: Vec<InstId> = std::iter::from_fn(|| p.pop_head(f)).collect();
        assert_eq!(drained, vec![InstId(0), InstId(1), InstId(3)]);
    }

    #[test]
    fn heads_reports_only_nonempty_fifos() {
        let mut p = pool(3, 2, 1);
        let f0 = p.acquire().unwrap();
        let f1 = p.acquire().unwrap();
        p.push(f0, InstId(10));
        p.push(f1, InstId(20));
        p.push(f1, InstId(21));
        let heads: Vec<(FifoId, InstId)> = p.heads().collect();
        assert_eq!(heads, vec![(f0, InstId(10)), (f1, InstId(20))]);
        assert_eq!(p.occupancy(), 3);
        assert_eq!(p.entries().count(), 3);
    }

    #[test]
    fn position_of_reports_queue_order() {
        let mut p = pool(2, 4, 1);
        let f = p.acquire().unwrap();
        for i in 0..3 {
            p.push(f, InstId(i));
        }
        assert_eq!(p.position_of(f, InstId(0)), Some(0));
        assert_eq!(p.position_of(f, InstId(2)), Some(2));
        assert_eq!(p.position_of(f, InstId(9)), None);
        assert_eq!(p.fifo_len(f), 3);
        p.pop_head(f);
        assert_eq!(p.position_of(f, InstId(1)), Some(0));
        assert_eq!(p.fifo_len(f), 2);
    }

    #[test]
    #[should_panic(expected = "invalid FIFO pool configuration")]
    fn invalid_config_panics() {
        let _ = pool(8, 8, 3);
    }

    #[test]
    fn paper_defaults() {
        assert_eq!(PoolConfig::paper_default().fifos, 8);
        assert_eq!(PoolConfig::paper_clustered().fifos_per_cluster(), 4);
    }
}
