//! `diffcheck` — differential acceptance harness.
//!
//! Runs every organization of a grid on every benchmark kernel twice: once
//! through the optimized [`Simulator`] with its per-cycle invariant
//! checker enabled, once through the deliberately naive
//! [`OracleSimulator`], and demands *bit-identical* statistics
//! fingerprints. Each cell is a `pass` or `fail` case of one
//! [`campaign`](ce_bench::campaign) report, tallied per kernel.
//! Exit codes: 0 every cell bit-identical, 1 any cell diverged, 2 usage
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

use ce_bench::campaign::{refuse, Case, Report, Verdict};
use ce_bench::explore::{simulated_points, GridScale};
use ce_bench::runner;
use ce_sim::{machine, OracleSimulator, SimConfig, Simulator};
use ce_workloads::{trace_cached, Benchmark};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Cell {
    machine: String,
    bench: Benchmark,
    cfg: SimConfig,
}

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

fn check_cell(cell: &Cell, cap: u64) -> Case {
    let start = Instant::now();
    let (verdict, detail) = grade(cell, cap);
    let (class, name) = (cell.bench.name(), cell.machine.clone());
    Case { class, name, verdict, detail, wall: start.elapsed() }
}

fn grade(cell: &Cell, cap: u64) -> (Verdict, String) {
    let trace = match trace_cached(cell.bench, cap) {
        Ok(t) => t,
        Err(e) => return (Verdict::Fail, format!("tracing failed: {e}")),
    };
    let mut checked = cell.cfg;
    checked.check = true;
    let optimized = match Simulator::try_new(checked) {
        Ok(sim) => sim.run(&trace),
        Err(e) => return (Verdict::Fail, e.to_string()),
    };
    let oracle = OracleSimulator::new(cell.cfg).run(&trace);
    if optimized.fingerprint() == oracle.fingerprint() {
        (Verdict::Pass, format!("{} cycles", optimized.cycles))
    } else {
        let (optimized, oracle) = (optimized.fingerprint(), oracle.fingerprint());
        (Verdict::Fail, format!("optimized {optimized} vs oracle {oracle}"))
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
    let cells: Vec<Cell> = orgs
        .into_iter()
        .flat_map(|(machine, cfg)| {
            benchmarks.iter().map(move |&bench| Cell { machine: machine.clone(), bench, cfg })
        })
        .collect();
    println!(
        "diffcheck: optimized simulator (invariant checker on) vs naive oracle, \
         {grid} grid, {n_orgs} organizations x {} kernels, {cap} instruction cap",
        benchmarks.len(),
    );

    // Same work-stealing fan-out as the experiment runner: results land in
    // input order regardless of completion order.
    let n = cells.len();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Case>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..runner::threads().min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().expect("slot poisoned") = Some(check_cell(&cells[i], cap));
            });
        }
    });

    let mut report = Report::new("diffcheck");
    report.cases = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("slot poisoned").expect("every slot filled"))
        .collect();
    println!("{report}");
    if report.violations().next().is_none() {
        println!("diffcheck: all {n} cells bit-identical");
    }
    report.exit_code()
}
