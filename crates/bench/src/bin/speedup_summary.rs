//! Sections 5.3/5.5 bottom line: combining the clock-period models with
//! the measured IPCs into the paper's headline speedup numbers.

use ce_bench::api::{self, SweepKind};
use ce_bench::runner;
use ce_core::analysis::mean_improvement;
use ce_delay::pipeline::ClockComparison;
use ce_delay::Technology;
use ce_workloads::Benchmark;

fn main() {
    println!("Clock-period comparison (Section 5.3/5.5)");
    println!(
        "{:<6} {:>14} {:>14} {:>14} {:>12} {:>12}",
        "tech", "clk win (ps)", "clk dep (ps)", "restab+sel", "ratio", "optimistic"
    );
    ce_bench::rule(78);
    for tech in Technology::all() {
        let cmp = ClockComparison::compute(&tech, 8, 64, 2);
        println!(
            "{:<6} {:>14.1} {:>14.1} {:>14.1} {:>11.3}x {:>11.1}%",
            tech.feature().to_string(),
            cmp.window_clock_ps,
            cmp.dependence_clock_ps,
            cmp.dependence_window_ps,
            cmp.conservative_speedup(),
            cmp.optimistic_improvement() * 100.0
        );
    }
    println!("(paper at 0.18 um: ratio 1.25, optimistic rename-limited improvement 39%)");
    println!();

    // The per-kernel speedups are the Figure 15 sweep's (at 0.18 um).
    let plan = api::plan(SweepKind::Fig15);
    let fig15 = runner::run_sweep(&plan.jobs, ce_bench::max_insts(), plan.run);
    let speedups = api::fig15_speedups(&fig15);
    println!("Per-benchmark clock-adjusted speedup, 2x4-way dependence-based vs 8-way window:");
    println!("{:<10} {:>9} {:>9} {:>9} {:>12}", "benchmark", "IPC win", "IPC dep", "speedup", "improvement");
    ce_bench::rule(54);
    for (bench, s) in Benchmark::all().into_iter().zip(&speedups) {
        println!(
            "{:<10} {:>9.3} {:>9.3} {:>8.2}x {:>11.1}%",
            bench.name(),
            s.ipc_window,
            s.ipc_dependence,
            s.speedup,
            s.improvement() * 100.0
        );
    }
    println!();
    println!(
        "average improvement {:+.1}% (paper: 10-22%, average 16%)",
        mean_improvement(&speedups) * 100.0
    );
}
