//! Figure 13: IPC of the dependence-based microarchitecture (8 FIFOs × 8)
//! versus the baseline 8-way machine with a 64-entry window.
//!
//! ```text
//! cargo run --release -p ce-bench --bin fig13_ipc -- [--out PATH] [--resume]
//! ```
//!
//! Paper result: within 5 % for five of seven benchmarks; worst case 8 %
//! (li).
//!
//! The `fifohead` column attributes the degradation: the share of the
//! FIFO machine's issue slots lost to ready instructions shadowed behind
//! unready FIFO heads — the price of head-only wakeup, and exactly the
//! slots the flexible window recovers.
//!
//! Runs fault-tolerantly: each cell is journaled as it completes, so a
//! killed run restarted with `--resume` re-simulates only unfinished
//! cells and writes a byte-identical CSV.

use std::process::ExitCode;

use ce_bench::api::{self, SweepKind};
use ce_bench::cli::{self, SweepArgs};
use ce_bench::runner::SweepSummary;
use ce_sim::StallCause;
use ce_workloads::Benchmark;

fn main() -> ExitCode {
    let args = SweepArgs::parse("results/fig13_ipc.csv");
    cli::drive_plan("fig13_ipc", &args, &api::plan(SweepKind::Fig13), |summary| {
        print_table(summary);
        api::preset_artifacts(SweepKind::Fig13, summary)
    })
}

fn print_table(summary: &SweepSummary) {
    let machines = api::fig13_machines();
    println!("Figure 13: IPC, baseline window vs dependence-based FIFOs (8-way)");
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>10}",
        "benchmark", "window", "dependence", "degradation", "fifohead"
    );
    ce_bench::rule(59);
    let mut results = summary.ok_cells().map(|r| &r.stats);
    let fifo_width = machines[1].1.issue_width as u64;
    let mut degradations = Vec::new();
    for bench in Benchmark::all() {
        let win = results.next().expect("window cell");
        let dep = results.next().expect("fifos cell");
        let degradation = (1.0 - dep.ipc() / win.ipc()) * 100.0;
        degradations.push(degradation);
        let fifo_head = dep.stall_breakdown.get(StallCause::FifoHeadNotReady) as f64
            / (fifo_width * dep.cycles) as f64
            * 100.0;
        println!(
            "{:<10} {:>10.3} {:>12.3} {:>11.1}% {:>9.1}%",
            bench.name(),
            win.ipc(),
            dep.ipc(),
            degradation,
            fifo_head
        );
    }
    let mean = degradations.iter().sum::<f64>() / degradations.len() as f64;
    let max = degradations.iter().cloned().fold(f64::MIN, f64::max);
    println!();
    println!("mean degradation {mean:.1}%, max {max:.1}% (paper: most <5%, max 8%)");
    println!();
}
