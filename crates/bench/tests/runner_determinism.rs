//! The parallel runner must be a drop-in replacement for the serial
//! loops it superseded: same cells, same order, byte-identical
//! statistics — regardless of worker count or scheduling.

use ce_bench::runner::{self, RunOptions, TimedResult};
use ce_sim::{machine, Simulator};
use ce_workloads::{trace_cached, Benchmark};

const CAP: u64 = 50_000;

/// Every cell of a sweep, input order (`run_sweep` panics on a failed
/// cell, so every slot is filled).
fn run(jobs: &[runner::Job], cap: u64) -> Vec<TimedResult> {
    runner::run_sweep(jobs, cap, RunOptions::default()).cells.into_iter().flatten().collect()
}

/// The full Figure 17 grid through the pool equals a plain serial loop,
/// cell for cell (fingerprints serialize every counter, so equality here
/// is byte-for-byte on the stats).
#[test]
fn parallel_grid_matches_serial_loop_exactly() {
    let machines = machine::figure17_machines();
    let jobs = runner::grid(&machines);
    let parallel = run(&jobs, CAP);
    assert_eq!(parallel.len(), jobs.len());

    let mut serial = Vec::with_capacity(jobs.len());
    for bench in Benchmark::all() {
        let trace = trace_cached(bench, CAP).expect("kernel traces");
        for (_, cfg) in &machines {
            serial.push(Simulator::new(*cfg).run(&trace));
        }
    }

    for (i, (p, s)) in parallel.iter().zip(&serial).enumerate() {
        assert_eq!(
            p.stats.fingerprint(),
            s.fingerprint(),
            "cell {i} ({:?} on {}) differs between parallel and serial runs",
            jobs[i].0,
            machines[i % machines.len()].0,
        );
    }
}

/// Two pool runs of the same jobs agree with each other (no run-to-run
/// scheduling sensitivity).
#[test]
fn repeated_runs_are_identical() {
    let jobs = vec![
        (Benchmark::Compress, machine::baseline_8way()),
        (Benchmark::Compress, machine::clustered_fifos_8way()),
        (Benchmark::Li, machine::clustered_windows_dispatch_8way()),
        (Benchmark::Li, machine::baseline_8way()),
    ];
    let a = run(&jobs, 20_000);
    let b = run(&jobs, 20_000);
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x.stats, y.stats, "cell {i} not reproducible");
    }
}
