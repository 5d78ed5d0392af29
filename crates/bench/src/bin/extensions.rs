//! Extension experiments beyond the paper's published data — quantifying
//! arguments the paper makes qualitatively:
//!
//! 1. **Pipelining wakeup+select** (Section 4.5, Figure 10): the paper
//!    argues the pair is atomic because splitting it stops dependent
//!    instructions issuing back-to-back, but leaves the cost unmeasured.
//!    We measure it.
//! 2. **Selection policy** (Section 4.3): Butler & Patt found overall
//!    performance largely independent of the policy; we replay that
//!    finding (and show a deliberately bad policy *does* hurt).
//! 3. **Incomplete bypassing** (Section 4.5, after Ahuja et al.): what a
//!    machine loses without a bypass network — the cost that makes slow
//!    bypasses worth engineering around rather than dropping.

use ce_bench::runner;
use ce_sim::{machine, BypassModel, LatencyModel, SelectionPolicy, SimConfig};
use ce_workloads::Benchmark;

/// The per-benchmark machine variants of each extension, in print order.
fn extension_configs() -> Vec<Vec<SimConfig>> {
    let base = machine::baseline_8way();
    let with = |f: &dyn Fn(&mut SimConfig)| {
        let mut cfg = base;
        f(&mut cfg);
        cfg
    };
    vec![
        // 1: atomic vs pipelined wakeup+select.
        vec![base, with(&|c| c.pipelined_wakeup_select = true)],
        // 2: selection policies.
        vec![
            with(&|c| c.selection = SelectionPolicy::OldestFirst),
            with(&|c| c.selection = SelectionPolicy::Position),
            with(&|c| c.selection = SelectionPolicy::YoungestFirst),
        ],
        // 3: full bypass vs none.
        vec![base, with(&|c| c.bypass_model = BypassModel::None)],
        // 4: weighted latencies, window vs FIFOs.
        vec![with(&|c| c.latency = LatencyModel::Weighted), {
            let mut cfg = machine::dependence_8way();
            cfg.latency = LatencyModel::Weighted;
            cfg
        }],
        // 5: stall-on-mispredict vs wrong-path pollution.
        vec![base, with(&|c| c.model_wrong_path = true)],
        // 6: whole vs split store issue, window and FIFOs.
        vec![base, with(&|c| c.split_store_issue = true), machine::dependence_8way(), {
            let mut cfg = machine::dependence_8way();
            cfg.split_store_issue = true;
            cfg
        }],
        // 7: aggressive vs break-on-taken fetch.
        vec![base, with(&|c| c.fetch_breaks_on_taken = true)],
    ]
}

fn main() {
    let extensions = extension_configs();
    let mut jobs: Vec<runner::Job> = Vec::new();
    for configs in &extensions {
        for bench in Benchmark::all() {
            for cfg in configs {
                jobs.push((bench, *cfg));
            }
        }
    }
    let sweep = runner::run_sweep(&jobs, ce_bench::max_insts(), runner::RunOptions::default());
    let mut results = sweep.ok_cells().map(|cell| cell.stats.clone());
    let mut cell = move || results.next().expect("one result per cell");

    println!("Extension 1: pipelined wakeup+select (window machine)");
    println!("{:<10} {:>10} {:>10} {:>8}", "benchmark", "atomic", "pipelined", "loss");
    ce_bench::rule(42);
    let mut losses = Vec::new();
    for bench in Benchmark::all() {
        let atomic = cell();
        let pipelined = cell();
        let loss = (1.0 - pipelined.ipc() / atomic.ipc()) * 100.0;
        losses.push(loss);
        println!(
            "{:<10} {:>10.3} {:>10.3} {:>7.1}%",
            bench.name(),
            atomic.ipc(),
            pipelined.ipc(),
            loss
        );
    }
    println!(
        "mean loss {:.1}% — why wakeup+select must fit in one cycle, quantified",
        losses.iter().sum::<f64>() / losses.len() as f64
    );

    println!();
    println!("Extension 2: selection policy (window machine)");
    println!(
        "{:<10} {:>12} {:>12} {:>14}",
        "benchmark", "oldest", "position", "youngest"
    );
    ce_bench::rule(52);
    for bench in Benchmark::all() {
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>14.3}",
            bench.name(),
            cell().ipc(),
            cell().ipc(),
            cell().ipc()
        );
    }
    println!("(oldest vs position: largely indistinguishable, as Butler & Patt found)");

    println!();
    println!("Extension 3: no bypass network (operands via register file only)");
    println!("{:<10} {:>10} {:>12} {:>8}", "benchmark", "bypassed", "no bypass", "loss");
    ce_bench::rule(44);
    for bench in Benchmark::all() {
        let full = cell();
        let none = cell();
        println!(
            "{:<10} {:>10.3} {:>12.3} {:>7.1}%",
            bench.name(),
            full.ipc(),
            none.ipc(),
            (1.0 - none.ipc() / full.ipc()) * 100.0
        );
    }

    println!();
    println!("Extension 4: realistic FU latencies (mul 3, div 12) — does the");
    println!("dependence-based conclusion survive non-uniform execution?");
    println!(
        "{:<10} {:>10} {:>10} {:>12}",
        "benchmark", "window", "fifos", "degradation"
    );
    ce_bench::rule(46);
    for bench in Benchmark::all() {
        let win = cell();
        let dep = cell();
        println!(
            "{:<10} {:>10.3} {:>10.3} {:>11.1}%",
            bench.name(),
            win.ipc(),
            dep.ipc(),
            (1.0 - dep.ipc() / win.ipc()) * 100.0
        );
    }

    println!();
    println!("Extension 5: wrong-path pollution (vs the stall-on-mispredict model)");
    println!(
        "{:<10} {:>10} {:>10} {:>8} {:>12} {:>10}",
        "benchmark", "stall IPC", "wp IPC", "loss", "wp fetched", "wp issued"
    );
    ce_bench::rule(66);
    for bench in Benchmark::all() {
        let stall = cell();
        let wp = cell();
        println!(
            "{:<10} {:>10.3} {:>10.3} {:>7.1}% {:>12} {:>10}",
            bench.name(),
            stall.ipc(),
            wp.ipc(),
            (1.0 - wp.ipc() / stall.ipc()) * 100.0,
            wp.wrong_path_fetched,
            wp.wrong_path_issued
        );
    }
    println!("(trace-driven stall models — the paper's included — underestimate the");
    println!(" misprediction cost by the window/FU pollution shown here)");

    println!();
    println!("Extension 6: split store issue (address first, data later)");
    println!("SimpleScalar — and so the paper — issues stores whole; splitting them");
    println!("frees loads earlier, and the flexible window exploits that extra ILP");
    println!("better than FIFO heads can:");
    println!(
        "{:<10} {:>11} {:>11} {:>11} {:>11}",
        "benchmark", "win whole", "win split", "fifo whole", "fifo split"
    );
    ce_bench::rule(58);
    for bench in Benchmark::all() {
        println!(
            "{:<10} {:>11.3} {:>11.3} {:>11.3} {:>11.3}",
            bench.name(),
            cell().ipc(),
            cell().ipc(),
            cell().ipc(),
            cell().ipc()
        );
    }

    println!();
    println!("Extension 7: front-end realism (Table 3 assumes 'any 8 instructions')");
    println!(
        "{:<10} {:>12} {:>14} {:>12}",
        "benchmark", "aggressive", "break-on-taken", "loss"
    );
    ce_bench::rule(52);
    for bench in Benchmark::all() {
        let aggressive = cell();
        let realistic = cell();
        println!(
            "{:<10} {:>12.3} {:>14.3} {:>11.1}%",
            bench.name(),
            aggressive.ipc(),
            realistic.ipc(),
            (1.0 - realistic.ipc() / aggressive.ipc()) * 100.0
        );
    }
    println!("(the paper stresses issue/execute with a perfect front end; a fetch unit");
    println!(" that breaks on taken branches would shift some bottleneck forward)");
}
