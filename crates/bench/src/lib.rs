//! # ce-bench — the experiment harness
//!
//! One binary per table and figure of the paper's evaluation; each prints
//! the same rows/series the paper reports, alongside the paper's published
//! values where the paper states them. Run them all with:
//!
//! ```text
//! for exp in fig03_rename fig05_wakeup fig06_wakeup_scaling fig08_select \
//!            tab01_bypass tab02_overall tab04_restable \
//!            fig13_ipc fig15_clustered fig17_organizations occupancy \
//!            stallreport speedup_summary ablations extensions \
//!            steering_heuristics clustering_benefits ce-explore; do
//!     cargo run --release -p ce-bench --bin $exp
//! done
//! ```
//!
//! The library half holds shared helpers: the instruction cap from
//! `CE_MAX_INSTS`, the parallel experiment [`runner`], the one sweep
//! driver every CSV-writing sweep binary runs through ([`cli::drive`]),
//! and table formatting.
//!
//! ## Environment knobs
//!
//! | variable | default | effect |
//! |---|---|---|
//! | `CE_MAX_INSTS` | 2 000 000 | per-benchmark dynamic instruction cap |
//! | `CE_THREADS` | available parallelism | worker threads in [`runner`] |
//!
//! Experiment cells are deterministic per `(benchmark, config)`, so
//! `CE_THREADS` changes only wall-clock time, never results. Traces are
//! memoized process-wide ([`ce_workloads::trace_cached`]): each kernel is
//! assembled and emulated once no matter how many cells consume it.

pub mod api;
pub mod campaign;
pub mod chaos;
pub mod checkpoint;
pub mod cli;
pub mod delay_csv;
pub mod explore;
pub mod fault;
pub mod fsck;
pub mod iofault;
pub mod journal;
pub mod json;
pub mod manifest;
pub mod metrics_check;
pub mod runner;
#[cfg(unix)]
pub mod service;
pub mod store;
pub mod telemetry;

/// Default per-benchmark dynamic instruction cap. Every kernel completes
/// below this, so by default the experiments run each program to
/// completion, like the paper's 0.5 B-instruction cap did.
pub const DEFAULT_MAX_INSTS: u64 = 2_000_000;

/// The instruction cap, overridable via the `CE_MAX_INSTS` environment
/// variable (useful to shorten smoke runs).
pub fn max_insts() -> u64 {
    std::env::var("CE_MAX_INSTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_MAX_INSTS)
}

/// Prints a rule line matching a header's width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a relative deviation between a measured and a reference value.
pub fn deviation(measured: f64, reference: f64) -> String {
    format!("{:+5.1}%", (measured / reference - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_formatting() {
        assert_eq!(deviation(110.0, 100.0), "+10.0%");
        assert_eq!(deviation(95.0, 100.0), " -5.0%");
    }

    #[test]
    fn max_insts_default() {
        // Unless the env var is set in the test environment, the default
        // applies.
        if std::env::var("CE_MAX_INSTS").is_err() {
            assert_eq!(max_insts(), DEFAULT_MAX_INSTS);
        }
    }
}
