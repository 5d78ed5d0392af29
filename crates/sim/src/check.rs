//! The per-cycle invariant checker (enabled via [`SimConfig::check`]).
//!
//! The optimized pipeline keeps several redundant views of the machine
//! state — the HotEntry ring mirrors ROB operands, the StoreTracker
//! mirrors in-flight stores, the scheduler's placement ring mirrors
//! window/FIFO residency, and the event heap mirrors `finish_at` fields.
//! A timing bug in any of them silently skews every figure the repo
//! reproduces, so with `check` on the pipeline re-derives each invariant
//! from first principles every cycle and records any disagreement here.
//! Violations abort the run at the end of the offending cycle with
//! cycle/sequence context instead of letting garbage statistics escape.
//!
//! What is asserted (see the hooks in `pipeline.rs`):
//!
//! * **caps** — per-cycle issue count ≤ issue width, per-cluster issues ≤
//!   FUs per cluster, memory issues ≤ D-cache ports, recounted from the
//!   ROB rather than trusted from the issue loop's own accumulators;
//! * **operands ready at issue** — every required source register of an
//!   issuing instruction is available in its cluster, re-derived from the
//!   *ROB* operand fields (catching HotEntry-ring desync);
//! * **selection completeness / oldest-ready-first** — when issue width
//!   was left on the table, no remaining candidate may still satisfy
//!   every issue condition (resources only get scarcer over a pass, so a
//!   feasible leftover was feasible when scanned and should have issued).
//!   The candidates come from the scheduler's full enumeration before the
//!   pass, so an entry the pruned scan wrongly skipped is caught too;
//! * **wakeup state** — for every organization that keeps it, each
//!   resident entry's pending-operand count, readiness bound and awake
//!   bit match a recomputation from the ROB and register state;
//! * **FIFO head-only issue** — in the dependence-based organizations an
//!   issuing instruction is the head of its FIFO at selection time;
//! * **store-to-load forwarding consistency** — the StoreTracker's
//!   forwarding answer matches a scan of the ROB's in-flight stores;
//! * **occupancy bounds** — scheduler occupancy ≤ capacity, ROB ≤ the
//!   in-flight limit;
//! * **monotone commit order** — commits retire in strictly increasing
//!   sequence order, each done, issued, and finished in the past;
//! * **final reconciliation** — `issued == committed + wrong_path_issued`,
//!   the issue histogram's mass equals the issue count, and (when the
//!   stall-attribution accountant ran) the per-cause breakdown satisfies
//!   `sum(causes) + issued == issue_width × cycles` exactly.
//!
//! [`SimConfig::check`]: crate::config::SimConfig::check

use std::fmt;

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Cycle on which the violation was detected.
    pub cycle: u64,
    /// Sequence number of the instruction involved, if one is.
    pub seq: Option<u64>,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.seq {
            Some(seq) => write!(f, "cycle {} seq {}: {}", self.cycle, seq, self.message),
            None => write!(f, "cycle {}: {}", self.cycle, self.message),
        }
    }
}

/// Collects violations during a checked run and aborts when any exist.
#[derive(Debug, Default)]
pub struct Checker {
    violations: Vec<Violation>,
    last_commit: Option<u64>,
}

impl Checker {
    /// A fresh checker with no recorded violations.
    pub fn new() -> Checker {
        Checker::default()
    }

    /// Records a violation (detection continues; the abort happens at the
    /// end of the cycle so one report covers everything that went wrong).
    pub fn violation(&mut self, cycle: u64, seq: Option<u64>, message: impl Into<String>) {
        self.violations.push(Violation { cycle, seq, message: message.into() });
    }

    /// Checks that commits retire in strictly increasing sequence order.
    pub fn on_commit(&mut self, cycle: u64, seq: u64) {
        if let Some(last) = self.last_commit {
            if seq <= last {
                self.violation(
                    cycle,
                    Some(seq),
                    format!("commit order not monotone: {seq} after {last}"),
                );
            }
        }
        self.last_commit = Some(seq);
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The formatted multi-line violation report (up to ten shown), or
    /// `None` when the checker is clean — the text [`assert_clean`]
    /// panics with, also reachable without unwinding through
    /// [`Simulator::try_run`].
    ///
    /// [`assert_clean`]: Self::assert_clean
    /// [`Simulator::try_run`]: crate::pipeline::Simulator::try_run
    pub fn report(&self, cycle: u64) -> Option<String> {
        report_violations(&self.violations, cycle)
    }

    /// Aborts the run if any violation was recorded this cycle.
    ///
    /// # Panics
    ///
    /// Panics with a formatted report (up to ten violations) when the
    /// checker holds any violation.
    pub fn assert_clean(&self, cycle: u64) {
        if let Some(report) = self.report(cycle) {
            panic!("{report}");
        }
    }

    /// End-of-run reconciliation of the aggregate counters.
    pub fn on_finish(&mut self, stats: &crate::stats::SimStats, cfg: &crate::config::SimConfig) {
        if cfg.attribution {
            let b = &stats.stall_breakdown;
            if !b.reconciles(cfg.issue_width, stats.cycles, stats.issued) {
                self.violation(
                    stats.cycles,
                    None,
                    format!(
                        "stall attribution does not reconcile: {} charged + {} issued != \
                         {} width × {} cycles",
                        b.total(),
                        stats.issued,
                        cfg.issue_width,
                        stats.cycles
                    ),
                );
            }
        }
        if stats.issued != stats.committed + stats.wrong_path_issued {
            self.violation(
                stats.cycles,
                None,
                format!(
                    "issued ({}) != committed ({}) + wrong_path_issued ({})",
                    stats.issued, stats.committed, stats.wrong_path_issued
                ),
            );
        }
        let hist_cycles: u64 = stats.issue_histogram.iter().sum();
        if hist_cycles != stats.cycles {
            self.violation(
                stats.cycles,
                None,
                format!(
                    "issue histogram covers {hist_cycles} cycles, ran {}",
                    stats.cycles
                ),
            );
        }
        let hist_mass: u64 = stats
            .issue_histogram
            .iter()
            .enumerate()
            .map(|(n, &count)| n as u64 * count)
            .sum();
        // Cycles issuing more than 16 are clamped into the last bucket, so
        // the mass is a lower bound then; with issue widths ≤ 16 (all the
        // paper's machines) it is exact.
        if hist_mass > stats.issued {
            self.violation(
                stats.cycles,
                None,
                format!("issue histogram mass {hist_mass} exceeds issued {}", stats.issued),
            );
        }
    }
}

/// Formats a violation list the way the checker reports it (shared by
/// [`Checker::report`] and [`SimError`]'s display).
///
/// [`SimError`]: crate::pipeline::SimError
pub(crate) fn report_violations(violations: &[Violation], cycle: u64) -> Option<String> {
    if violations.is_empty() {
        return None;
    }
    let shown =
        violations.iter().take(10).map(|v| format!("  {v}")).collect::<Vec<_>>().join("\n");
    let extra = violations.len().saturating_sub(10);
    let suffix = if extra > 0 { format!("\n  … and {extra} more") } else { String::new() };
    Some(format!(
        "invariant checker: {} violation(s) by cycle {cycle}:\n{shown}{suffix}",
        violations.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_checker_is_silent() {
        let mut c = Checker::new();
        c.on_commit(1, 0);
        c.on_commit(1, 1);
        c.on_commit(2, 5);
        assert!(c.violations().is_empty());
        c.assert_clean(2);
    }

    #[test]
    fn non_monotone_commit_is_recorded() {
        let mut c = Checker::new();
        c.on_commit(1, 5);
        c.on_commit(2, 3);
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].to_string().contains("not monotone"));
    }

    #[test]
    #[should_panic(expected = "invariant checker")]
    fn assert_clean_panics_with_context() {
        let mut c = Checker::new();
        c.violation(7, Some(42), "synthetic violation");
        c.assert_clean(7);
    }

    #[test]
    fn finish_reconciles_issue_accounting() {
        let mut stats = crate::stats::SimStats { committed: 10, issued: 12, ..Default::default() };
        stats.wrong_path_issued = 1; // 10 + 1 != 12
        let mut c = Checker::new();
        c.on_finish(&stats, &crate::machine::baseline_8way());
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].message.contains("issued"));
    }

    #[test]
    fn finish_reconciles_stall_attribution() {
        use crate::attribution::StallCause;
        let mut cfg = crate::machine::baseline_8way();
        cfg.attribution = true;
        // 8-wide × 10 cycles = 80 slots; 30 issued leaves 50 to charge.
        let mut stats = crate::stats::SimStats {
            cycles: 10,
            committed: 30,
            issued: 30,
            ..Default::default()
        };
        stats.issue_histogram[3] = 10;
        stats.stall_breakdown.charge(StallCause::OperandWait, 50);
        let mut c = Checker::new();
        c.on_finish(&stats, &cfg);
        assert!(c.violations().is_empty(), "{:?}", c.violations());

        // One slot short: the identity check must fire.
        let mut short = stats.clone();
        short.stall_breakdown = Default::default();
        short.stall_breakdown.charge(StallCause::OperandWait, 49);
        let mut c = Checker::new();
        c.on_finish(&short, &cfg);
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].message.contains("stall attribution"));

        // With attribution off an empty breakdown is fine.
        cfg.attribution = false;
        let mut off = stats.clone();
        off.stall_breakdown = Default::default();
        let mut c = Checker::new();
        c.on_finish(&off, &cfg);
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }
}
