//! Steering-heuristic design space (extending Section 5.1's "a number of
//! heuristics are possible"): the paper's dependence heuristic vs a
//! dependence-blind round-robin, an occupancy-balanced dependence variant,
//! and random steering, all on the clustered FIFO machine.
//!
//! The comparison separates the two forces at work: *load balance* (round
//! robin has it, random nearly so) and *dependence awareness* (chains stay
//! together, bypasses stay local). The paper's heuristic is the only one
//! with both.

use ce_bench::runner::{self, RunOptions};
use ce_sim::{machine, SimConfig, SteeringPolicy};
use ce_workloads::Benchmark;

fn main() {
    let fifos = machine::clustered_fifos_8way();
    let policies = [
        ("dependence", SimConfig { steering: SteeringPolicy::Dependence, ..fifos }),
        ("load-bal", SimConfig { steering: SteeringPolicy::LoadBalanced, ..fifos }),
        ("round-robin", SimConfig { steering: SteeringPolicy::RoundRobin, ..fifos }),
        ("random", SimConfig { steering: SteeringPolicy::Random { seed: 0xce11 }, ..fifos }),
    ];
    println!("Steering heuristics on the 2x4-way clustered FIFO machine");
    print!("{:<10}", "benchmark");
    for (name, _) in &policies {
        print!(" {:>12} {:>7}", name, "IC%");
    }
    println!();
    ce_bench::rule(10 + policies.len() * 21);
    let jobs = runner::grid(&policies);
    let summary = runner::run_sweep(&jobs, ce_bench::max_insts(), RunOptions::default());
    let mut cells = summary.ok_cells().map(|cell| &cell.stats);
    for bench in Benchmark::all() {
        print!("{:<10}", bench.name());
        for _ in &policies {
            let stats = cells.next().expect("one cell per policy");
            print!(
                " {:>12.3} {:>6.1}%",
                stats.ipc(),
                stats.intercluster_bypass_frequency() * 100.0
            );
        }
        println!();
    }
    println!();
    println!("Dependence awareness, not balance, is what recovers IPC: round-robin is");
    println!("perfectly balanced yet pays nearly random-level inter-cluster traffic.");
}
