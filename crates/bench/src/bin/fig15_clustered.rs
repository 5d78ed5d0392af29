//! Figure 15: IPC of the 2×4-way clustered dependence-based machine
//! (2-cycle inter-cluster bypass) versus the 8-way window baseline, plus
//! the Section 5.5 clock-adjusted speedup.
//!
//! ```text
//! cargo run --release -p ce-bench --bin fig15_clustered -- [--out PATH] [--resume]
//! ```
//!
//! Runs fault-tolerantly: each cell is journaled as it completes, so a
//! killed run restarted with `--resume` re-simulates only unfinished
//! cells and writes a byte-identical CSV.

use std::process::ExitCode;

use ce_bench::api::{self, SweepKind};
use ce_bench::cli::{self, SweepArgs};
use ce_bench::runner::SweepSummary;
use ce_core::analysis::mean_improvement;
use ce_workloads::Benchmark;

fn main() -> ExitCode {
    let args = SweepArgs::parse("results/fig15_clustered.csv");
    cli::drive_plan("fig15_clustered", &args, &api::plan(SweepKind::Fig15), |summary| {
        print_table(summary);
        api::preset_artifacts(SweepKind::Fig15, summary)
    })
}

fn print_table(summary: &SweepSummary) {
    println!("Figure 15: IPC, 64-entry window 8-way vs 2-cluster dependence-based 8-way");
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>10} {:>9}",
        "benchmark", "window", "2x4 fifos", "degradation", "IC-bypass", "speedup"
    );
    ce_bench::rule(68);
    let speedups = api::fig15_speedups(summary);
    let mut results = summary.ok_cells().map(|r| &r.stats);
    for (bench, s) in Benchmark::all().into_iter().zip(&speedups) {
        let win = results.next().expect("window cell");
        let dep = results.next().expect("clustered cell");
        println!(
            "{:<10} {:>10.3} {:>12.3} {:>11.1}% {:>9.1}% {:>8.2}x",
            bench.name(),
            win.ipc(),
            dep.ipc(),
            s.ipc_degradation() * 100.0,
            dep.intercluster_bypass_frequency() * 100.0,
            s.speedup
        );
    }
    println!();
    println!(
        "clock ratio clk_dep/clk_win = {:.3} (paper: 1.25 at 0.18 um)",
        speedups[0].clock_ratio
    );
    println!(
        "mean clock-adjusted improvement: {:+.1}% (paper: 10-22%, average 16%)",
        mean_improvement(&speedups) * 100.0
    );
    println!();
}
