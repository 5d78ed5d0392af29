//! Figure 17: IPC (top) and inter-cluster bypass frequency (bottom) for
//! the five clustered organizations of Section 5.6.
//!
//! ```text
//! cargo run --release -p ce-bench --bin fig17_organizations -- [--out PATH] [--resume]
//! ```
//!
//! Runs fault-tolerantly: each cell is journaled as it completes, so a
//! killed run restarted with `--resume` re-simulates only unfinished
//! cells and writes a byte-identical CSV.

use std::process::ExitCode;

use ce_bench::api::{self, SweepKind};
use ce_bench::cli::{self, SweepArgs};
use ce_bench::runner::SweepSummary;
use ce_sim::{machine, StallCause};
use ce_workloads::Benchmark;

fn main() -> ExitCode {
    let args = SweepArgs::parse("results/fig17_organizations.csv");
    cli::drive_plan("fig17_organizations", &args, &api::plan(SweepKind::Fig17), |summary| {
        print_table(summary);
        api::preset_artifacts(SweepKind::Fig17, summary)
    })
}

fn print_table(summary: &SweepSummary) {
    let machines = machine::figure17_machines();
    println!("Figure 17 (top): IPC of clustered organizations");
    print!("{:<10}", "benchmark");
    for (name, _) in &machines {
        print!(" {:>13}", api::fig17_short_name(name));
    }
    println!();
    ce_bench::rule(10 + machines.len() * 14);

    let mut results = summary.ok_cells().map(|r| &r.stats);
    let mut freqs: Vec<Vec<f64>> = Vec::new();
    let mut xcluster: Vec<Vec<f64>> = Vec::new();
    for bench in Benchmark::all() {
        print!("{:<10}", bench.name());
        let mut row = Vec::new();
        let mut xrow = Vec::new();
        for (_, cfg) in &machines {
            let stats = results.next().expect("one result per cell");
            print!(" {:>13.3}", stats.ipc());
            row.push(stats.intercluster_bypass_frequency() * 100.0);
            let slots = cfg.issue_width as u64 * stats.cycles;
            xrow.push(
                stats.stall_breakdown.get(StallCause::InterclusterWait) as f64
                    / slots as f64
                    * 100.0,
            );
        }
        println!();
        freqs.push(row);
        xcluster.push(xrow);
    }

    println!();
    println!("Figure 17 (bottom): inter-cluster bypass frequency (%)");
    print!("{:<10}", "benchmark");
    for (name, _) in &machines {
        print!(" {:>13}", api::fig17_short_name(name));
    }
    println!();
    ce_bench::rule(10 + machines.len() * 14);
    for (bench, row) in Benchmark::all().into_iter().zip(&freqs) {
        print!("{:<10}", bench.name());
        for f in row {
            print!(" {:>12.1}%", f);
        }
        println!();
    }
    println!();
    println!("Stall attribution: issue slots lost waiting on inter-cluster bypass (%)");
    print!("{:<10}", "benchmark");
    for (name, _) in &machines {
        print!(" {:>13}", api::fig17_short_name(name));
    }
    println!();
    ce_bench::rule(10 + machines.len() * 14);
    for (bench, row) in Benchmark::all().into_iter().zip(&xcluster) {
        print!("{:<10}", bench.name());
        for x in row {
            print!(" {:>12.1}%", x);
        }
        println!();
    }

    println!();
    println!("Paper shape: random steering degrades 17-26% vs ideal and shows the highest");
    println!("inter-cluster traffic (up to ~35%); exec-driven steering is within ~6% of ideal;");
    println!("both dispatch-steered organizations sit in between.");
    println!();
}
