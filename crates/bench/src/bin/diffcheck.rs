//! `diffcheck` — differential acceptance harness.
//!
//! Runs every organization of a grid on every benchmark kernel twice: once
//! through the optimized [`Simulator`](ce_sim::Simulator) with its
//! per-cycle invariant checker enabled, once through the deliberately
//! naive [`OracleSimulator`](ce_sim::OracleSimulator), and demands
//! *bit-identical* statistics fingerprints. Each cell is a `pass` or
//! `fail` case of one [`campaign`](ce_bench::campaign) report, tallied
//! per kernel; the cells run longest first on the runner's worker pool
//! ([`ce_bench::verify::oracle_cases`]). A cell that diverges, errors
//! (the invariant checker firing, say) or panics (the oracle's deadlock
//! assertion) is a `fail` case naming why, and the report still prints.
//! Exit codes: 0 every cell bit-identical, 1 any cell failed, 2 usage
//! error (an unknown grid, flag or kernel).
//!
//! The grid is the five Figure 17 organizations by default, or every
//! organization the explorer simulates: the tiny grid's 6 or the full
//! grid's 392.
//!
//! ```text
//! diffcheck [--grid fig17|explore-tiny|explore] [KERNEL...]
//! CE_MAX_INSTS=20000 diffcheck # shorten the smoke run
//! CE_THREADS=4 diffcheck       # bound the worker pool
//! ```

use ce_bench::campaign::{refuse, Report};
use ce_bench::explore::{simulated_points, GridScale};
use ce_bench::runner::Job;
use ce_bench::verify::oracle_cases;
use ce_sim::{machine, SimConfig};
use ce_workloads::Benchmark;
use std::process::ExitCode;

/// The organizations `--grid` names, with their labels.
fn organizations(grid: &str) -> Option<Vec<(String, SimConfig)>> {
    let explorer = |scale| {
        simulated_points(scale).into_iter().map(|p| (p.label, p.cfg)).collect()
    };
    match grid {
        "fig17" => Some(
            machine::figure17_machines().into_iter().map(|(m, cfg)| (m.to_owned(), cfg)).collect(),
        ),
        "explore-tiny" => Some(explorer(GridScale::Tiny)),
        "explore" => Some(explorer(GridScale::Full)),
        _ => None,
    }
}

fn main() -> ExitCode {
    let usage = |msg: String| refuse("diffcheck", "usage", msg);
    let mut grid = String::from("fig17");
    let mut filter: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--grid" {
            let Some(value) = args.next() else {
                return usage("--grid needs a value (fig17, explore-tiny or explore)".into());
            };
            grid = value;
        } else if Benchmark::all().iter().any(|b| b.name() == arg) {
            filter.push(arg);
        } else {
            let known = Benchmark::all().map(Benchmark::name).join(" ");
            return usage(format!("unknown argument `{arg}` (flags: --grid; kernels: {known})"));
        }
    }
    let Some(orgs) = organizations(&grid) else {
        return usage(format!("unknown grid `{grid}` (expected fig17, explore-tiny or explore)"));
    };
    let benchmarks: Vec<Benchmark> = Benchmark::all()
        .into_iter()
        .filter(|b| filter.is_empty() || filter.iter().any(|f| f == b.name()))
        .collect();

    let cap = ce_bench::max_insts();
    let n_orgs = orgs.len();
    let cells: Vec<(String, Job)> = orgs
        .into_iter()
        .flat_map(|(machine, cfg)| {
            benchmarks.iter().map(move |&bench| (machine.clone(), (bench, cfg)))
        })
        .collect();
    println!(
        "diffcheck: optimized simulator (invariant checker on) vs naive oracle, \
         {grid} grid, {n_orgs} organizations x {} kernels, {cap} instruction cap",
        benchmarks.len(),
    );

    let mut report = Report::new("diffcheck");
    report.cases = oracle_cases(&cells, cap);
    println!("{report}");
    if report.violations().next().is_none() {
        println!("diffcheck: all {} cells bit-identical", cells.len());
    }
    report.exit_code()
}
