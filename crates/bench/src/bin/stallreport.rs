//! Stall-attribution report: where every unused issue slot went, for the
//! five Figure 17 organizations across all seven kernels.
//!
//! ```text
//! cargo run --release -p ce-bench --bin stallreport -- [--out PATH] [--resume]
//! ```
//!
//! Each cell runs with the attribution accountant enabled; per-cause
//! shares of the issue-slot budget (`issue_width × cycles`) are printed
//! per benchmark and written to `results/stall_report.csv` (the default
//! output path). The identity `sum(causes) + issued == issue_slots` is
//! asserted on every cell — this binary doubles as an end-to-end check
//! of the accountant. `CE_THREADS` and `CE_MAX_INSTS` apply as
//! everywhere in `ce-bench`.
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
    let args = SweepArgs::parse("results/stall_report.csv");
    cli::drive_plan("stallreport", &args, &api::plan(SweepKind::Fig17), |summary| {
        print_report(summary);
        vec![("stall_report.csv".into(), api::stall_report_csv(summary))]
    })
}

fn print_report(summary: &SweepSummary) {
    let machines = machine::figure17_machines();
    println!("Issue-slot stall attribution (% of issue slots = width x cycles)");
    let mut cells = summary.ok_cells();
    for bench in Benchmark::all() {
        println!();
        println!("{}:", bench.name());
        print!("{:<12} {:>6}", "machine", "used");
        for cause in StallCause::ALL {
            print!(" {:>9}", cause.short());
        }
        println!();
        ce_bench::rule(12 + 7 + StallCause::COUNT * 10);
        for (name, cfg) in &machines {
            let stats = &cells.next().expect("one result per cell").stats;
            let slots = cfg.issue_width as u64 * stats.cycles;
            assert!(
                stats.stall_breakdown.reconciles(cfg.issue_width, stats.cycles, stats.issued),
                "{bench}/{name}: attribution does not reconcile"
            );
            let pct = |n: u64| n as f64 / slots as f64 * 100.0;
            print!("{:<12} {:>5.1}%", api::fig17_short_name(name), pct(stats.issued));
            for cause in StallCause::ALL {
                print!(" {:>8.1}%", pct(stats.stall_breakdown.get(cause)));
            }
            println!();
        }
    }

    println!();
    println!(
        "Reading: the FIFO organizations trade `operand` waits for `fifohead` waits —");
    println!("ready instructions shadowed behind unready FIFO heads — and the clustered");
    println!("machines add `xcluster` slots, issue stalled only by the extra bypass cycle.");

    println!();
    println!(
        "sweep: {} cells in {:.2}s wall ({:.2}s summed serial, cells {:.0}-{:.0} ms), \
         {:.2} Mcycles/s aggregate",
        summary.cells.len(),
        summary.sweep_wall.as_secs_f64(),
        summary.serial_cell_wall.as_secs_f64(),
        summary.min_cell_wall.as_secs_f64() * 1e3,
        summary.max_cell_wall.as_secs_f64() * 1e3,
        summary.sim_mcycles_per_s()
    );
    println!();
}
