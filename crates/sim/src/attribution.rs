//! Stall-attribution accounting: where the issue slots went.
//!
//! IPC differences between the paper's organizations (Section 5) come down
//! to *unused issue slots*: a `width`-wide machine has `width × cycles`
//! issue slots over a run, `issued` of them do work, and every other slot
//! was lost to something. With [`SimConfig::attribution`] enabled the
//! pipeline charges each unused slot, every cycle, to exactly one cause in
//! the fixed taxonomy below, so the identity
//!
//! ```text
//! sum(causes) + issued == issue_width × cycles
//! ```
//!
//! holds *exactly* (the invariant checker re-verifies it at the end of a
//! checked run). The result is a CPI-stack-style breakdown that explains a
//! Figure 17 cell instead of just reporting it.
//!
//! ## Charging rule
//!
//! Each cycle the issue loop scans candidates in selection order. Every
//! candidate it rejects records the *first* check that failed. (Once
//! `rejects + issued ≥ width`, later rejects can never be charged, so the
//! scan skips asleep and not-yet-ready candidates from there on.) After
//! the scan, the `width − issued` unused slots are charged
//! one-per-rejected-candidate in scan order; slots beyond the rejection count (the window
//! simply held too few candidates) fall to a background cause derived from
//! the front end: [`MispredictRecovery`] while fetch is stalled on an
//! unresolved branch, [`DispatchStall`] while fetched work exists but has
//! not reached the scheduler, and [`EmptyWindow`] otherwise.
//!
//! Attribution is observational: it never changes timing, and the
//! differential suite pins that the statistics fingerprint is bit-identical
//! with the accountant on or off.
//!
//! [`SimConfig::attribution`]: crate::config::SimConfig::attribution
//! [`MispredictRecovery`]: StallCause::MispredictRecovery
//! [`DispatchStall`]: StallCause::DispatchStall
//! [`EmptyWindow`]: StallCause::EmptyWindow

/// Why an issue slot went unused on some cycle — the fixed taxonomy.
///
/// Precedence for a rejected candidate (first matching cause wins):
/// structural caps ([`FuPortContention`]), operands that would be ready
/// but for cluster crossing ([`InterclusterWait`]), an unready FIFO head
/// shadowing work queued behind it ([`FifoHeadNotReady`]), and plain
/// dataflow waiting ([`OperandWait`] — which also covers loads held by
/// memory-ordering rules and split stores with unknown data, both waits on
/// a store dependence).
///
/// [`FuPortContention`]: StallCause::FuPortContention
/// [`InterclusterWait`]: StallCause::InterclusterWait
/// [`FifoHeadNotReady`]: StallCause::FifoHeadNotReady
/// [`OperandWait`]: StallCause::OperandWait
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// The scheduler held no candidate at all and the front end had
    /// nothing in flight (program start, drain, or a fetch-limited phase).
    EmptyWindow,
    /// A FIFO head was not ready and at least one instruction was queued
    /// behind it — the dependence-based organizations' signature loss
    /// (Section 5.2: only heads are visible to select).
    FifoHeadNotReady,
    /// A candidate's source operands were not yet produced (dataflow
    /// limit), including loads waiting on older-store ordering.
    OperandWait,
    /// A candidate was ready but every usable FU (or D-cache port) was
    /// taken this cycle.
    FuPortContention,
    /// A candidate's operands were ready in the producing cluster but not
    /// yet here — the Section 5.5 inter-cluster bypass delay.
    InterclusterWait,
    /// The scheduler was starved while fetched instructions sat in the
    /// front end (front-end depth or a dispatch-side structural stall).
    DispatchStall,
    /// Fetch was stalled on an unresolved mispredicted branch and the
    /// window had nothing left to issue — the misprediction refill window.
    MispredictRecovery,
}

impl StallCause {
    /// Number of causes in the taxonomy.
    pub const COUNT: usize = 7;

    /// Every cause, in display order.
    pub const ALL: [StallCause; StallCause::COUNT] = [
        StallCause::EmptyWindow,
        StallCause::FifoHeadNotReady,
        StallCause::OperandWait,
        StallCause::FuPortContention,
        StallCause::InterclusterWait,
        StallCause::DispatchStall,
        StallCause::MispredictRecovery,
    ];

    /// A stable snake_case identifier (used in JSON/CSV exports).
    pub fn key(self) -> &'static str {
        match self {
            StallCause::EmptyWindow => "empty_window",
            StallCause::FifoHeadNotReady => "fifo_head_not_ready",
            StallCause::OperandWait => "operand_wait",
            StallCause::FuPortContention => "fu_port_contention",
            StallCause::InterclusterWait => "intercluster_wait",
            StallCause::DispatchStall => "dispatch_stall",
            StallCause::MispredictRecovery => "mispredict_recovery",
        }
    }

    /// A short label for fixed-width tables.
    pub fn short(self) -> &'static str {
        match self {
            StallCause::EmptyWindow => "empty",
            StallCause::FifoHeadNotReady => "fifohead",
            StallCause::OperandWait => "operand",
            StallCause::FuPortContention => "fu/port",
            StallCause::InterclusterWait => "xcluster",
            StallCause::DispatchStall => "dispatch",
            StallCause::MispredictRecovery => "mispred",
        }
    }
}

/// Per-cause unused-issue-slot counts for one run.
///
/// All-zero unless the run had [`SimConfig::attribution`] enabled.
/// Deliberately excluded from [`SimStats::fingerprint`]: the breakdown is
/// an observation layered on the timing model, not part of it.
///
/// [`SimConfig::attribution`]: crate::config::SimConfig::attribution
/// [`SimStats::fingerprint`]: crate::stats::SimStats::fingerprint
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    slots: [u64; StallCause::COUNT],
}

impl StallBreakdown {
    /// Charges `n` unused issue slots to `cause`.
    pub fn charge(&mut self, cause: StallCause, n: u64) {
        self.slots[cause as usize] += n;
    }

    /// Slots charged to one cause.
    pub fn get(&self, cause: StallCause) -> u64 {
        self.slots[cause as usize]
    }

    /// Total unused slots across all causes.
    pub fn total(&self) -> u64 {
        self.slots.iter().sum()
    }

    /// Whether any slot was charged (i.e. the accountant ran and the
    /// machine ever left a slot unused).
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|&n| n == 0)
    }

    /// `(cause, slots)` rows in display order.
    pub fn rows(&self) -> impl Iterator<Item = (StallCause, u64)> + '_ {
        StallCause::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// Checks the accounting identity for a run of `cycles` cycles on a
    /// `issue_width`-wide machine that issued `issued` instructions.
    pub fn reconciles(&self, issue_width: usize, cycles: u64, issued: u64) -> bool {
        self.total() + issued == issue_width as u64 * cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_total() {
        let mut b = StallBreakdown::default();
        assert!(b.is_empty());
        b.charge(StallCause::OperandWait, 3);
        b.charge(StallCause::EmptyWindow, 2);
        b.charge(StallCause::OperandWait, 1);
        assert_eq!(b.get(StallCause::OperandWait), 4);
        assert_eq!(b.get(StallCause::EmptyWindow), 2);
        assert_eq!(b.get(StallCause::FuPortContention), 0);
        assert_eq!(b.total(), 6);
        assert!(!b.is_empty());
    }

    #[test]
    fn reconciliation_identity() {
        let mut b = StallBreakdown::default();
        // 8-wide, 10 cycles, 50 issued: 30 slots unused.
        b.charge(StallCause::EmptyWindow, 10);
        b.charge(StallCause::OperandWait, 20);
        assert!(b.reconciles(8, 10, 50));
        assert!(!b.reconciles(8, 10, 49));
    }

    #[test]
    fn keys_are_unique_and_ordered() {
        let keys: Vec<&str> = StallCause::ALL.iter().map(|c| c.key()).collect();
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), StallCause::COUNT);
        // Discriminants index the slots array densely.
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn rows_cover_every_cause() {
        let mut b = StallBreakdown::default();
        b.charge(StallCause::MispredictRecovery, 7);
        let rows: Vec<(StallCause, u64)> = b.rows().collect();
        assert_eq!(rows.len(), StallCause::COUNT);
        assert!(rows.contains(&(StallCause::MispredictRecovery, 7)));
    }
}
