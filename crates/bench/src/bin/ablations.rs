//! Ablation studies beyond the paper's headline experiments:
//!
//! 1. FIFO geometry sweep (count × depth) for the dependence-based design,
//! 2. inter-cluster bypass latency sweep (the paper's "two or more
//!    cycles"),
//! 3. RAM- vs CAM-scheme rename delay (Section 4.1.1 trade-off).

use ce_bench::runner;
use ce_delay::rename::{RenameDelay, RenameParams, RenameScheme};
use ce_delay::{FeatureSize, Technology};
use ce_sim::{machine, SchedulerKind};
use ce_workloads::Benchmark;

fn main() {
    // Every simulated cell runs the perl kernel; enumerate the configs in
    // print order, fan them across the worker pool, then consume in order.
    let mut configs = Vec::new();
    for fifos in [4usize, 8, 16] {
        for depth in [4usize, 8, 16] {
            let mut cfg = machine::dependence_8way();
            cfg.scheduler = SchedulerKind::Fifos { fifos_per_cluster: fifos, depth };
            configs.push(cfg);
        }
    }
    for extra in 0..=4u64 {
        let mut cfg = machine::clustered_fifos_8way();
        cfg.intercluster_extra = extra;
        configs.push(cfg);
    }
    for inflight in [32usize, 64, 128, 256] {
        let mut cfg = machine::baseline_8way();
        cfg.max_inflight = inflight;
        configs.push(cfg);
    }
    for pregs in [48usize, 72, 120, 160] {
        let mut cfg = machine::baseline_8way();
        cfg.physical_regs = pregs;
        configs.push(cfg);
    }
    {
        let mut cfg = machine::baseline_8way();
        cfg.bpred.perfect = true;
        configs.push(cfg);
    }
    let jobs: Vec<runner::Job> =
        configs.into_iter().map(|cfg| (Benchmark::Perl, cfg)).collect();
    let sweep = runner::run_sweep(&jobs, ce_bench::max_insts(), runner::RunOptions::default());
    let mut results = sweep.ok_cells().map(|cell| cell.stats.clone());

    println!("Ablation 1: FIFO geometry (dependence-based 8-way, perl)");
    println!("{:>7} {:>7} {:>10} {:>8}", "fifos", "depth", "capacity", "IPC");
    ce_bench::rule(36);
    for fifos in [4usize, 8, 16] {
        for depth in [4usize, 8, 16] {
            let stats = results.next().expect("geometry cell");
            println!("{:>7} {:>7} {:>10} {:>8.3}", fifos, depth, fifos * depth, stats.ipc());
        }
    }

    println!();
    println!("Ablation 2: inter-cluster bypass latency (2x4-way FIFOs, perl)");
    println!("{:>14} {:>8} {:>12}", "extra cycles", "IPC", "IC-bypass %");
    ce_bench::rule(38);
    for extra in 0..=4u64 {
        let stats = results.next().expect("bypass cell");
        println!(
            "{:>14} {:>8.3} {:>11.1}%",
            extra,
            stats.ipc(),
            stats.intercluster_bypass_frequency() * 100.0
        );
    }

    println!();
    println!("Ablation 3: rename scheme delays at 0.18 um (Section 4.1.1)");
    println!("{:>4} {:>12} {:>12} {:>12}", "IW", "RAM (ps)", "CAM-80 (ps)", "CAM-160 (ps)");
    ce_bench::rule(44);
    let tech = Technology::new(FeatureSize::U018);
    for iw in [2usize, 4, 8] {
        let ram = RenameDelay::compute(&tech, &RenameParams::new(iw)).total_ps();
        let cam = |regs| {
            RenameDelay::compute(
                &tech,
                &RenameParams { issue_width: iw, physical_regs: regs, scheme: RenameScheme::Cam },
            )
            .total_ps()
        };
        println!("{:>4} {:>12.1} {:>12.1} {:>12.1}", iw, ram, cam(80), cam(160));
    }
    println!("(the CAM scheme scales with physical register count; the RAM scheme does not)");

    println!();
    println!("Ablation 4: machine limits (baseline window machine, perl)");
    println!("{:>22} {:>10} {:>8}", "knob", "value", "IPC");
    ce_bench::rule(42);
    for inflight in [32usize, 64, 128, 256] {
        let stats = results.next().expect("inflight cell");
        println!("{:>22} {:>10} {:>8.3}", "max in-flight", inflight, stats.ipc());
    }
    for pregs in [48usize, 72, 120, 160] {
        let stats = results.next().expect("preg cell");
        println!("{:>22} {:>10} {:>8.3}", "physical registers", pregs, stats.ipc());
    }
    {
        let stats = results.next().expect("oracle cell");
        println!("{:>22} {:>10} {:>8.3}", "branch prediction", "oracle", stats.ipc());
    }
    println!("(Table 3's 128 in-flight / 120 registers sit at the knee of both curves)");
}
