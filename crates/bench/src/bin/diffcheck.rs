//! `diffcheck` — differential acceptance harness.
//!
//! Runs every organization of a grid on every benchmark kernel twice: once
//! through the optimized [`Simulator`] with its per-cycle invariant
//! checker enabled, once through the deliberately naive
//! [`OracleSimulator`], and demands *bit-identical* statistics
//! fingerprints. One `PASS`/`FAIL` line per cell; exits non-zero if any
//! cell fails, so CI can gate on it.
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

use ce_bench::explore::{simulated_points, GridScale};
use ce_bench::runner;
use ce_sim::{machine, OracleSimulator, SimConfig, Simulator};
use ce_workloads::{trace_cached, Benchmark};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

enum Outcome {
    Pass { cycles: u64 },
    Fail { optimized: String, oracle: String },
    Error(String),
}

fn check_cell(cell: &Cell, cap: u64) -> Outcome {
    let trace = match trace_cached(cell.bench, cap) {
        Ok(t) => t,
        Err(e) => return Outcome::Error(format!("tracing failed: {e}")),
    };
    let mut checked = cell.cfg;
    checked.check = true;
    let optimized = match Simulator::try_new(checked) {
        Ok(sim) => sim.run(&trace),
        Err(e) => return Outcome::Error(e.to_string()),
    };
    let oracle = OracleSimulator::new(cell.cfg).run(&trace);
    if optimized.fingerprint() == oracle.fingerprint() {
        Outcome::Pass { cycles: optimized.cycles }
    } else {
        Outcome::Fail {
            optimized: optimized.fingerprint(),
            oracle: oracle.fingerprint(),
        }
    }
}

fn main() -> ExitCode {
    let mut grid = String::from("fig17");
    let mut filter: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--grid" {
            let Some(value) = args.next() else {
                eprintln!("error: --grid needs a value (fig17, explore-tiny or explore)");
                return ExitCode::FAILURE;
            };
            grid = value;
        } else {
            filter.push(arg);
        }
    }
    let Some(orgs) = organizations(&grid) else {
        eprintln!("error: unknown grid `{grid}` (expected fig17, explore-tiny or explore)");
        return ExitCode::FAILURE;
    };
    let benchmarks: Vec<Benchmark> = Benchmark::all()
        .into_iter()
        .filter(|b| filter.is_empty() || filter.iter().any(|f| f == b.name()))
        .collect();
    if benchmarks.is_empty() {
        eprintln!("error: no benchmark matches {filter:?}");
        eprintln!(
            "known kernels: {}",
            Benchmark::all().into_iter().map(|b| b.name().to_owned()).collect::<Vec<_>>().join(" ")
        );
        return ExitCode::FAILURE;
    }

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
    let slots: Vec<Mutex<Option<Outcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
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

    let mut failures = 0usize;
    for (cell, slot) in cells.iter().zip(slots) {
        let outcome = slot.into_inner().expect("slot poisoned").expect("every slot filled");
        let label = format!("{} x {}", cell.machine, cell.bench.name());
        match outcome {
            Outcome::Pass { cycles } => println!("PASS  {label:<45} ({cycles} cycles)"),
            Outcome::Fail { optimized, oracle } => {
                failures += 1;
                println!("FAIL  {label}");
                println!("      optimized: {optimized}");
                println!("      oracle:    {oracle}");
            }
            Outcome::Error(e) => {
                failures += 1;
                println!("FAIL  {label}");
                println!("      {e}");
            }
        }
    }
    println!();
    if failures == 0 {
        println!("diffcheck: all {n} cells bit-identical");
        ExitCode::SUCCESS
    } else {
        println!("diffcheck: {failures}/{n} cells diverged");
        ExitCode::FAILURE
    }
}
