//! Golden snapshot of the design-space explorer's full grid.
//!
//! `golden_explore.tsv` pins, at the 20 000-instruction CI cap:
//!
//! * `sampled` lines — for every organization the explorer simulates, the
//!   seven kernels' sampled `est_cycles` and `measured_cycles`, taken from
//!   an [`explore`] pass itself. These are the numbers the explorer's IPC
//!   comes from, at full precision: `pareto.csv` rounds IPC to four
//!   decimals, so a small drift could hide there.
//! * `exact` and `stalls` lines — for every eighth of those organizations,
//!   each kernel's exact-run statistics fingerprint, and its stall
//!   breakdown with attribution on.
//!
//! The differential suite cannot stand in for this file. The oracle shares
//! `FifoPool`, the steering heuristics and `Dcache` with the optimized
//! simulator, so a change inside any of them moves both sides alike. This
//! file was captured before those structures and the FIFO-head issue scan
//! were optimized, so it holds every such change to bit-exact equivalence
//! over all three scheduler families and all four steering heuristics.
//!
//! To re-bless after an *intentional* behaviour change:
//!
//! ```text
//! CE_BLESS=1 cargo test -p ce-bench --test golden_explore
//! ```

use std::fmt::Write as _;

use ce_bench::explore::{explore, simulated_points, ExploreOptions, GridScale};
use ce_bench::runner::{run_sweep, Job, RunOptions};
use ce_bench::telemetry::Telemetry;
use ce_workloads::Benchmark;

const CAP: u64 = 20_000;
/// Every `EXACT_STRIDE`-th simulated organization also gets exact runs.
const EXACT_STRIDE: usize = 8;
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_explore.tsv");

/// The whole golden file: one sampled pass over the full grid, then exact
/// and attribution-on runs of every `EXACT_STRIDE`-th organization.
fn render() -> String {
    let report = explore(&ExploreOptions {
        scale: GridScale::Full,
        exact: false,
        max_insts: CAP,
        checkpoint: None,
        telemetry: Telemetry::default(),
    })
    .expect("no journal, no I/O");
    let summary = report.summary.as_ref().expect("the full grid simulates");
    assert!(summary.all_ok(), "explorer cells failed: {:?}", summary.failures);
    let points = simulated_points(GridScale::Full);
    let benches = Benchmark::all();
    assert_eq!(report.jobs.len(), points.len() * benches.len());

    let mut out = format!("# kind\torg\tper kernel (cap {CAP})\n");
    for (point, cells) in points.iter().zip(summary.cells.chunks(benches.len())) {
        let kernels: Vec<String> = benches
            .iter()
            .zip(cells)
            .map(|(bench, cell)| {
                let s = cell.as_ref().and_then(|c| c.sampled).expect("sampled cell");
                format!("{}={}/{}", bench.name(), s.est_cycles, s.measured_cycles)
            })
            .collect();
        writeln!(out, "sampled\t{}\t{}", point.label, kernels.join(" ")).unwrap();
    }

    let subset: Vec<(&str, Job)> = points
        .iter()
        .step_by(EXACT_STRIDE)
        .flat_map(|p| benches.iter().map(move |&b| (p.label.as_str(), (b, p.cfg))))
        .collect();
    let jobs: Vec<Job> = subset.iter().map(|&(_, job)| job).collect();
    let exact = run_sweep(&jobs, CAP, RunOptions::default());
    let attributed = run_sweep(&jobs, CAP, RunOptions { attribution: true, ..RunOptions::default() });
    for ((label, (bench, _)), cell) in subset.iter().zip(&exact.cells) {
        let stats = &cell.as_ref().expect("exact cell").stats;
        writeln!(out, "exact\t{label}\t{}\t{}", bench.name(), stats.fingerprint()).unwrap();
    }
    for ((label, (bench, _)), cell) in subset.iter().zip(&attributed.cells) {
        let stats = &cell.as_ref().expect("attributed cell").stats;
        let causes: Vec<String> = stats
            .stall_breakdown
            .rows()
            .map(|(cause, slots)| format!("{}={slots}", cause.key()))
            .collect();
        writeln!(
            out,
            "stalls\t{label}\t{}\tissued={} {}",
            bench.name(),
            stats.issued,
            causes.join(" ")
        )
        .unwrap();
    }
    out
}

#[test]
fn explorer_grid_matches_golden_capture() {
    let current = render();
    if std::env::var("CE_BLESS").is_ok() {
        std::fs::write(GOLDEN, &current).expect("write golden file");
        eprintln!("blessed {GOLDEN}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing — run once with CE_BLESS=1 to capture");
    assert_eq!(
        golden.lines().count(),
        current.lines().count(),
        "golden line count differs — grid or subset changed?"
    );
    let mismatches: Vec<String> = golden
        .lines()
        .zip(current.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("want: {want}\n got: {got}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} explorer lines diverged from {GOLDEN}:\n{}",
        mismatches.len(),
        golden.lines().count(),
        mismatches.join("\n---\n")
    );
}
