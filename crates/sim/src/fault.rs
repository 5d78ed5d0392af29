//! Deterministic scheduler fault injection (enabled via
//! [`SimConfig::fault`]).
//!
//! The invariant checker (PR 2) and the attribution reconciliation
//! (PR 3) claim to catch timing bugs; this module deliberately plants
//! the bugs they claim to catch. A [`FaultSpec`] names one transient
//! fault and the cycle it strikes. Each fault is designed to be
//! **detected-or-masked** when the run has [`SimConfig::check`] on:
//! either the checker records a violation (the run aborts with a
//! [`SimError`]) or the fault provably could not have changed the
//! machine's behaviour and the statistics fingerprint is bit-identical
//! to an uninjected run. A fault that silently changes the fingerprint
//! is a hole in the checker — `cechaos`'s simulator-fault phase
//! (`ce_bench::fault`) sweeps seeded fault plans asserting no such hole
//! exists.
//!
//! With `fault: None` (the default, and every preset in
//! [`machine`](crate::machine)) the injection paths cost one branch per
//! cycle and the simulator is bit-identical to its pre-fault-injection
//! behaviour — the golden Figure 17 fingerprint tests pin this.
//!
//! [`SimConfig::fault`]: crate::config::SimConfig::fault
//! [`SimConfig::check`]: crate::config::SimConfig::check
//! [`SimError`]: crate::pipeline::SimError

use std::fmt;

/// What kind of transient fault to inject.
///
/// Detection notes assume the run has the invariant checker on
/// ([`SimConfig::check`](crate::config::SimConfig::check)); with the
/// checker off a fault may silently skew statistics — which is exactly
/// the scenario the checker exists to rule out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The wakeup logic goes silent for one cycle: every candidate the
    /// scheduler offered is dropped and nothing issues. Detected by the
    /// selection audit (an issuable candidate was skipped with the full
    /// issue width to spare) whenever anything *could* have issued that
    /// cycle; masked (fingerprint-neutral) when nothing was ready
    /// anyway.
    DropIssueCycle,
    /// The select logic fires early: the first candidate rejected for
    /// unready operands that cycle is issued anyway. Detected by the
    /// operands-ready-at-issue check the moment it issues; masked when
    /// every candidate was ready (nothing to select early).
    EarlySelect,
    /// The HotEntry ring entry of the scheduler's first candidate has
    /// its source-operand fields cleared — the wakeup array lying about
    /// readiness. Detected by the ring/ROB desync check when that
    /// instruction issues (every instruction eventually issues); masked
    /// when the instruction genuinely has no source operands.
    HotEntryCorrupt,
    /// The `issued` counter is bumped by one after the run — silent
    /// accounting corruption. Always detected by the end-of-run
    /// reconciliation (`issued == committed + wrong_path_issued`, and
    /// the attribution identity when the accountant ran).
    StatsCorrupt,
    /// A deliberate `panic!` mid-simulation — not a checker target but a
    /// way for the sweep runner's tests and fault campaigns to exercise
    /// per-cell panic isolation with a real unwinding cell.
    PanicCell,
}

impl FaultKind {
    /// Every injectable kind, for campaign generators.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::DropIssueCycle,
        FaultKind::EarlySelect,
        FaultKind::HotEntryCorrupt,
        FaultKind::StatsCorrupt,
        FaultKind::PanicCell,
    ];

    /// Short stable name (campaign reports, CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::DropIssueCycle => "drop-issue-cycle",
            FaultKind::EarlySelect => "early-select",
            FaultKind::HotEntryCorrupt => "hot-entry-corrupt",
            FaultKind::StatsCorrupt => "stats-corrupt",
            FaultKind::PanicCell => "panic-cell",
        }
    }

    /// Parses a [`name`](Self::name) back into a kind.
    pub fn from_name(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One planted fault: a kind and the cycle it strikes.
///
/// A trigger cycle past the end of the run never fires (the fault is
/// trivially masked); [`FaultKind::StatsCorrupt`] ignores the cycle and
/// strikes at the end of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// The cycle on which the fault strikes.
    pub at_cycle: u64,
}

impl FaultSpec {
    /// Parses the `kind@cycle` CLI syntax (e.g. `early-select@500`).
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let (kind, cycle) = s
            .split_once('@')
            .ok_or_else(|| format!("expected <kind>@<cycle>, got {s:?}"))?;
        let kind = FaultKind::from_name(kind).ok_or_else(|| {
            let names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
            format!("unknown fault kind {kind:?} (one of: {})", names.join(", "))
        })?;
        let at_cycle = cycle
            .parse::<u64>()
            .map_err(|_| format!("bad fault trigger cycle {cycle:?}"))?;
        Ok(FaultSpec { kind, at_cycle })
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.kind, self.at_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::from_name(k.name()), Some(k));
        }
        assert_eq!(FaultKind::from_name("bogus"), None);
    }

    #[test]
    fn spec_parses_cli_syntax() {
        let spec = FaultSpec::parse("early-select@500").expect("parses");
        assert_eq!(spec, FaultSpec { kind: FaultKind::EarlySelect, at_cycle: 500 });
        assert_eq!(spec.to_string(), "early-select@500");
        assert!(FaultSpec::parse("early-select").is_err());
        assert!(FaultSpec::parse("bogus@5").is_err());
        assert!(FaultSpec::parse("early-select@many").is_err());
    }
}
