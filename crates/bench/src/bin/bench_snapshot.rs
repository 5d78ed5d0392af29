//! Performance snapshot of the simulator: runs the full Figure 17 sweep
//! (5 organizations × 7 kernels) through the experiment runner —
//! full-detail *and* sampled — and writes
//! `BENCH_sim.json` with per-cell wall time, simulated cycles per second,
//! the worker count and longest-first dispatch schedule actually used
//! (so a bench gate reproduces schedule-and-all on another machine), and
//! the sampled sweep's per-cell IPC error against the full runs.
//!
//! ```text
//! cargo run --release -p ce-bench --bin bench_snapshot [out.json]
//! ```
//!
//! The output path defaults to `results/BENCH_sim.json`. If a recorded
//! pre-change baseline exists at `results/BENCH_baseline.json`, the
//! snapshot reports the wall-clock speedup against it — both full-detail
//! and *effective* (baseline full sweep vs sampled sweep). `CE_THREADS`
//! and `CE_MAX_INSTS` apply as everywhere in `ce-bench`.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use ce_bench::json::Json;
use ce_bench::runner::{self, RunOptions};
use ce_sim::{machine, SamplingConfig};
use ce_workloads::{trace_cached, Benchmark};

fn main() {
    let out_path =
        std::env::args().nth(1).unwrap_or_else(|| "results/BENCH_sim.json".to_owned());
    let cap = ce_bench::max_insts();
    let machines = machine::figure17_machines();
    let total_start = Instant::now();

    // Generate all seven traces up front (on the runner's pool), so the
    // per-cell times below measure the simulator alone.
    let load_start = Instant::now();
    let benches = Benchmark::all();
    let order: Vec<usize> = (0..benches.len()).collect();
    let traced = runner::pool(&order, |i, _| trace_cached(benches[i], cap).map(drop));
    for (bench, traced) in benches.iter().zip(traced) {
        match traced {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!("tracing {bench}: {e}"),
            Err(e) => panic!("tracing {bench}: {e}"),
        }
    }
    let trace_load_s = load_start.elapsed().as_secs_f64();

    let jobs = runner::grid(&machines);
    let summary = runner::run_sweep(&jobs, cap, RunOptions::default());
    let results: Vec<&runner::TimedResult> = summary.ok_cells().collect();
    // The sweep's own clocks (satellite of the telemetry PR): wall and
    // per-cell extremes come from the SweepSummary, not ad-hoc timers,
    // so this snapshot agrees byte-for-byte with what manifests record.
    let sweep_wall_s = summary.sweep_wall.as_secs_f64();
    let serial_wall_s = summary.serial_cell_wall.as_secs_f64();
    let min_cell_wall_s = summary.min_cell_wall.as_secs_f64();
    let max_cell_wall_s = summary.max_cell_wall.as_secs_f64();
    let total_wall_s = total_start.elapsed().as_secs_f64();

    let mut cells = String::new();
    let mut total_cycles = 0u64;
    for (i, ((bench, _), result)) in jobs.iter().zip(&results).enumerate() {
        let machine_name = machines[i % machines.len()].0;
        let wall = result.wall.as_secs_f64();
        total_cycles += result.stats.cycles;
        let _ = writeln!(
            cells,
            "    {{\"benchmark\": \"{}\", \"machine\": \"{}\", \"wall_s\": {:.6}, \
             \"cycles\": {}, \"committed\": {}, \"ipc\": {:.6}, \"mcycles_per_s\": {:.3}}},",
            bench.name(),
            machine_name,
            wall,
            result.stats.cycles,
            result.stats.committed,
            result.stats.ipc(),
            result.stats.cycles as f64 / wall.max(1e-9) / 1e6,
        );
    }
    let cells = cells.trim_end().trim_end_matches(',').to_owned();

    // Sampled sweep over the same grid: default geometry, same runner and
    // dispatch order as the full sweep, errors judged against the
    // full-detail cycles just measured.
    let sampling = SamplingConfig::default();
    let sampled_opts = RunOptions { sampled: Some(sampling), ..RunOptions::default() };
    let sampled = runner::run_sweep(&jobs, cap, sampled_opts);
    let sampled_sweep_wall_s = sampled.sweep_wall.as_secs_f64();

    let mut sampled_cells = String::new();
    let mut max_abs_err = 0.0_f64;
    for (i, ((bench, _), cell)) in jobs.iter().zip(sampled.ok_cells()).enumerate() {
        let stats = cell.sampled.as_ref().expect("a sampled cell carries its measurement");
        let err = stats.cycle_error_vs(results[i].stats.cycles);
        max_abs_err = max_abs_err.max(err.abs());
        let _ = writeln!(
            sampled_cells,
            "      {{\"benchmark\": \"{}\", \"machine\": \"{}\", \"est_cycles\": {}, \
             \"full_cycles\": {}, \"cycle_err\": {:.6}, \"wall_s\": {:.6}}},",
            bench.name(),
            machines[i % machines.len()].0,
            stats.est_cycles,
            results[i].stats.cycles,
            err,
            cell.wall.as_secs_f64(),
        );
    }
    let sampled_cells = sampled_cells.trim_end().trim_end_matches(',').to_owned();
    let schedule_json =
        summary.schedule.iter().map(usize::to_string).collect::<Vec<_>>().join(", ");

    let baseline = read_baseline_sweep_wall("results/BENCH_baseline.json");
    let (baseline_json, speedup_json, effective_json) = match baseline {
        Some(base) => (
            format!("{base:.6}"),
            format!("{:.3}", base / sweep_wall_s.max(1e-9)),
            format!("{:.3}", base / sampled_sweep_wall_s.max(1e-9)),
        ),
        None => ("null".to_owned(), "null".to_owned(), "null".to_owned()),
    };

    let json = format!(
        "{{\n  \"schema\": \"ce-bench.BENCH_sim.v3\",\n  \"sweep\": \"fig17\",\n  \
         \"max_insts\": {cap},\n  \"threads\": {},\n  \"schedule\": [{schedule_json}],\n  \
         \"cells\": [\n{cells}\n  ],\n  \
         \"sampled\": {{\n    \
         \"config\": {{\"warmup_insts\": {}, \"window_insts\": {}, \
         \"cooldown_insts\": {}, \"period_insts\": {}}},\n    \
         \"cells\": [\n{sampled_cells}\n    ],\n    \
         \"max_abs_cycle_err\": {max_abs_err:.6},\n    \
         \"sweep_wall_s\": {sampled_sweep_wall_s:.6}\n  }},\n  \
         \"trace_load_s\": {trace_load_s:.6},\n  \"sweep_wall_s\": {sweep_wall_s:.6},\n  \
         \"serial_cell_wall_s\": {serial_wall_s:.6},\n  \
         \"min_cell_wall_s\": {min_cell_wall_s:.6},\n  \
         \"max_cell_wall_s\": {max_cell_wall_s:.6},\n  \"total_wall_s\": {total_wall_s:.6},\n  \
         \"sim_mcycles_per_s\": {:.3},\n  \"baseline_sweep_wall_s\": {baseline_json},\n  \
         \"speedup_vs_baseline\": {speedup_json},\n  \
         \"effective_speedup_vs_baseline\": {effective_json}\n}}\n",
        runner::threads(),
        sampling.warmup_insts,
        sampling.window_insts,
        sampling.cooldown_insts,
        sampling.period_insts,
        total_cycles as f64 / sweep_wall_s.max(1e-9) / 1e6,
    );

    if let Some(dir) = Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));

    println!(
        "fig17 sweep: {} cells, {} threads, cap {cap}",
        results.len(),
        runner::threads()
    );
    println!("trace load   {trace_load_s:>8.3} s");
    println!(
        "sweep wall   {sweep_wall_s:>8.3} s  (sum of cells {serial_wall_s:.3} s, \
         cells {:.0}-{:.0} ms)",
        min_cell_wall_s * 1e3,
        max_cell_wall_s * 1e3,
    );
    println!(
        "throughput   {:>8.1} M simulated cycles/s",
        total_cycles as f64 / sweep_wall_s.max(1e-9) / 1e6
    );
    println!(
        "sampled      {sampled_sweep_wall_s:>8.3} s  (max |cycle err| {:.2}%)",
        max_abs_err * 100.0
    );
    match baseline {
        Some(base) => println!(
            "baseline     {base:>8.3} s → speedup {:.2}x full, {:.2}x effective (sampled)",
            base / sweep_wall_s.max(1e-9),
            base / sampled_sweep_wall_s.max(1e-9)
        ),
        None => println!("baseline     (none recorded at results/BENCH_baseline.json)"),
    }
    println!("wrote {out_path}");
}

/// The top-level `sweep_wall_s` of a previously written snapshot.
fn read_baseline_sweep_wall(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    Json::parse(&text).ok()?.at("sweep_wall_s")?.as_f64()
}
