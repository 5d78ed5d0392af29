//! Golden snapshots of the Figure 17 sweep.
//!
//! `golden_fig17.tsv` pins the complete statistics fingerprint (cycles,
//! committed → IPC, inter-cluster bypasses, dispatch stalls, issue
//! histogram) of every Figure 17 organization on every benchmark kernel at
//! a 50 000-instruction cap. It was captured from the simulator **before**
//! the hot-path rework, so it is the bit-exact equivalence proof the
//! optimization work is held to: any change to scheduling order, steering,
//! or bypass accounting fails here.
//!
//! `golden_fig17_stalls.tsv` pins the same cells' stall breakdowns with
//! attribution on. The fingerprint leaves the breakdown out, and the
//! accounting identity `sum(causes) + issued == width × cycles` holds
//! whichever causes are charged, so only this file catches a scan change
//! that shifts slots from one cause to another.
//!
//! To re-bless after an *intentional* behaviour change:
//!
//! ```text
//! CE_BLESS=1 cargo test -p ce-bench --test golden_fig17
//! ```

use std::fmt::Write as _;

use ce_sim::machine::figure17_machines;
use ce_sim::{SimStats, Simulator};
use ce_workloads::{trace_cached, Benchmark};

const CAP: u64 = 50_000;
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_fig17.tsv");
const GOLDEN_STALLS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_fig17_stalls.tsv");

/// One line per fig17 cell: `org`, `benchmark`, then `row(stats)` of a
/// run with attribution set to `attribution`.
fn render(header: &str, attribution: bool, row: impl Fn(&SimStats) -> String) -> String {
    let mut out = format!("# org\tbenchmark\t{header} (cap {CAP})\n");
    for (org, mut cfg) in figure17_machines() {
        cfg.attribution = attribution;
        for bench in Benchmark::all() {
            let trace = trace_cached(bench, CAP).expect("bundled kernel must trace");
            let stats = Simulator::new(cfg).run(&trace);
            writeln!(out, "{org}\t{}\t{}", bench.name(), row(&stats)).unwrap();
        }
    }
    out
}

/// Compares `current` with the golden file at `path` line by line, or
/// rewrites the file when `CE_BLESS` is set.
fn assert_matches_golden(path: &str, current: &str) {
    if std::env::var("CE_BLESS").is_ok() {
        std::fs::write(path, current).expect("write golden file");
        eprintln!("blessed {path}");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — run once with CE_BLESS=1 to capture");
    let mismatches: Vec<String> = golden
        .lines()
        .zip(current.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("want: {want}\n got: {got}"))
        .collect();
    assert_eq!(
        golden.lines().count(),
        current.lines().count(),
        "golden line count differs — organization/benchmark set changed?"
    );
    assert!(
        mismatches.is_empty(),
        "{} of 35 fig17 cells diverged from {path}:\n{}",
        mismatches.len(),
        mismatches.join("\n---\n")
    );
}

#[test]
fn fig17_stats_match_golden_capture() {
    let current = render("stats fingerprint", false, SimStats::fingerprint);
    assert_matches_golden(GOLDEN, &current);
}

#[test]
fn fig17_stall_breakdowns_match_golden_capture() {
    let current = render("stall breakdown, attribution on", true, |stats| {
        let causes: Vec<String> = stats
            .stall_breakdown
            .rows()
            .map(|(cause, slots)| format!("{}={slots}", cause.key()))
            .collect();
        format!("issued={} {}", stats.issued, causes.join(" "))
    });
    assert_matches_golden(GOLDEN_STALLS, &current);
}
