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
//! `results/BENCH_sim.json` pins every cell's cycles at the default cap,
//! kernels run to completion, in the order the benchmark's fig17 gate
//! reads them (benchmark-major, `figure17_machines()` order). That test
//! runs the whole default-cap sweep, so it is ignored by a plain `cargo
//! test`; CI runs it in release with `--ignored`.
//!
//! To re-bless after an *intentional* behaviour change:
//!
//! ```text
//! CE_BLESS=1 cargo test -p ce-bench --test golden_fig17
//! CE_BLESS=1 cargo test --release -p ce-bench --test golden_fig17 -- --ignored
//! ```

use std::fmt::Write as _;

use ce_bench::api::{plan, SweepKind};
use ce_bench::runner::run_sweep;
use ce_bench::DEFAULT_MAX_INSTS;
use ce_sim::machine::figure17_machines;
use ce_sim::{SimStats, Simulator};
use ce_workloads::{trace_cached, Benchmark};

const CAP: u64 = 50_000;
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_fig17.tsv");
const GOLDEN_STALLS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_fig17_stalls.tsv");
const CYCLE_PIN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_sim.json");

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

#[test]
#[ignore = "runs the default-cap Figure 17 sweep; run in release with --ignored"]
fn fig17_default_cap_cycles_match_the_pin() {
    let plan = plan(SweepKind::Fig17);
    let summary = run_sweep(&plan.jobs, DEFAULT_MAX_INSTS, plan.run);
    let machines = figure17_machines();
    let names = Benchmark::all().into_iter().flat_map(|b| machines.map(|(m, _)| (b.name(), m)));
    let cells: Vec<String> = names
        .zip(&summary.cells)
        .map(|((bench, machine), cell)| {
            let cycles = cell.as_ref().expect("every fig17 cell simulates").stats.cycles;
            format!(
                "    {{\"benchmark\": \"{bench}\", \"machine\": \"{machine}\", \
                 \"cycles\": {cycles}}}"
            )
        })
        .collect();
    let current = format!(
        "{{\n  \"schema\": \"ce-bench.BENCH_sim.v4\",\n  \"max_insts\": {DEFAULT_MAX_INSTS},\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        cells.join(",\n")
    );
    assert_matches_golden(CYCLE_PIN, &current);
}
