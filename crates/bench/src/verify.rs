//! The grading behind two verification gates, on the runner's executor:
//! `diffcheck` (every cell against the [`OracleSimulator`]) and
//! `sampling_check` (sampled against exact cycles, on the runner's own
//! cells). Both return [`campaign`](crate::campaign) cases, so a
//! divergence, an error or a panic in one cell is a `fail` case of the
//! report and never ends the gate.

use std::time::{Duration, Instant};

use ce_sim::{OracleSimulator, SamplingConfig, Simulator};
use ce_workloads::trace_cached;

use crate::campaign::{Case, Verdict};
use crate::runner::{
    pool, run_sweep_ft, schedule_order, Job, RunError, RunOptions, SweepOptions, SweepSummary,
    TimedResult,
};

/// Grades every `(organization label, job)` cell against the oracle on
/// the runner's [`pool`], longest first. A cell passes when the optimized
/// simulator, invariant checker on, and the oracle produce bit-identical
/// statistics; otherwise it fails naming the divergence, the simulator
/// error or the panic. Cases come back in input order, tallied per kernel.
pub fn oracle_cases(cells: &[(String, Job)], cap: u64) -> Vec<Case> {
    let jobs: Vec<Job> = cells.iter().map(|(_, job)| *job).collect();
    let graded = pool(&schedule_order(&jobs, cap), |i, _| {
        let start = Instant::now();
        let (verdict, detail) = against_oracle(jobs[i], cap);
        (verdict, detail, start.elapsed())
    });
    cells
        .iter()
        .zip(graded)
        .map(|((machine, (bench, _)), graded)| {
            let (verdict, detail, wall) =
                graded.unwrap_or_else(|e| (Verdict::Fail, e.to_string(), Duration::ZERO));
            Case { class: bench.name(), name: machine.clone(), verdict, detail, wall }
        })
        .collect()
}

/// One cell through both simulators. The oracle asserts on a deadlock;
/// [`pool`] turns that panic into the cell's error.
fn against_oracle((bench, cfg): Job, cap: u64) -> (Verdict, String) {
    let trace = match trace_cached(bench, cap) {
        Ok(t) => t,
        Err(e) => return (Verdict::Fail, format!("tracing failed: {e}")),
    };
    let mut checked = cfg;
    checked.check = true;
    let run = Simulator::try_new(checked)
        .map_err(|e| e.to_string())
        .and_then(|sim| sim.try_run(&trace).map_err(|e| e.to_string()));
    let optimized = match run {
        Ok(stats) => stats,
        Err(e) => return (Verdict::Fail, e),
    };
    let oracle = OracleSimulator::new(cfg).run(&trace);
    let (optimized_fp, oracle_fp) = (optimized.fingerprint(), oracle.fingerprint());
    if optimized_fp == oracle_fp {
        (Verdict::Pass, format!("{} cycles", optimized.cycles))
    } else {
        (Verdict::Fail, format!("optimized {optimized_fp} vs oracle {oracle_fp}"))
    }
}

/// Grades sampled simulation against exact on the runner's own cells:
/// every `(organization label, job)` cell swept once exact and once under
/// the default [`SamplingConfig`], the [`TimedResult`] path the explorer
/// consumes. A cell fails when its estimated cycles are off by more than
/// `max_err`, or when either of its runs failed, carrying the runner's
/// error. Cases come back in input order, tallied per kernel.
pub fn sampling_cases(cells: &[(String, Job)], cap: u64, max_err: f64) -> Vec<Case> {
    let jobs: Vec<Job> = cells.iter().map(|(_, job)| *job).collect();
    let sweep = |run| {
        run_sweep_ft(&jobs, cap, &SweepOptions { run, ..SweepOptions::default() })
            .expect("no checkpoint, no I/O to fail")
    };
    let exact = sweep(RunOptions::default());
    let sampled =
        sweep(RunOptions { sampled: Some(SamplingConfig::default()), ..RunOptions::default() });
    cells
        .iter()
        .enumerate()
        .map(|(i, (machine, (bench, _)))| {
            let (verdict, detail, wall) = match (cell(&exact, i), cell(&sampled, i)) {
                (Ok(full), Ok(est)) => {
                    let (verdict, detail) = against_exact(full, est, max_err);
                    (verdict, detail, full.wall + est.wall)
                }
                (Err(e), _) => (Verdict::Fail, format!("exact: {e}"), Duration::ZERO),
                (_, Err(e)) => (Verdict::Fail, format!("sampled: {e}"), Duration::ZERO),
            };
            Case { class: bench.name(), name: machine.clone(), verdict, detail, wall }
        })
        .collect()
}

/// One sampled cell against its exact cell.
fn against_exact(full: &TimedResult, est: &TimedResult, max_err: f64) -> (Verdict, String) {
    let s = est.sampled.as_ref().expect("a sampled cell carries its measurement");
    let err = s.cycle_error_vs(full.stats.cycles);
    let detail = format!(
        "full {:>8} cyc (ipc {:.3}, {:.2}s)  sampled {:>8} cyc (ipc {:.3}, {:.2}s)  \
         [{} windows, {:.0}% detailed]  err {:+.4} (bound {max_err:.4})",
        full.stats.cycles,
        full.stats.ipc(),
        full.wall.as_secs_f64(),
        s.est_cycles,
        s.est_ipc(),
        est.wall.as_secs_f64(),
        s.windows,
        s.detailed_insts as f64 / s.total_insts as f64 * 100.0,
        err,
    );
    (Verdict::check(err.abs() <= max_err), detail)
}

/// Cell `i` of a sweep, or the error it failed with.
fn cell(summary: &SweepSummary, i: usize) -> Result<&TimedResult, &RunError> {
    summary.cells[i].as_ref().ok_or_else(|| {
        let failure = summary.failures.iter().find(|f| f.index == i);
        &failure.expect("a cell without a result failed").error
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_sim::{machine, FaultKind, FaultSpec};
    use ce_workloads::Benchmark;

    /// A cell whose invariant checker fires is a `fail` case naming the
    /// checker, and the cells beside it are still graded.
    #[test]
    fn a_checker_violation_fails_its_cell_not_the_gate() {
        let mut faulty = machine::baseline_8way();
        faulty.fault = Some(FaultSpec { kind: FaultKind::EarlySelect, at_cycle: 200 });
        let cells = vec![
            ("baseline".to_owned(), (Benchmark::Compress, machine::baseline_8way())),
            ("early-select".to_owned(), (Benchmark::Li, faulty)),
            ("dependence".to_owned(), (Benchmark::Li, machine::dependence_8way())),
        ];
        let cases = oracle_cases(&cells, 5_000);
        let verdicts: Vec<Verdict> = cases.iter().map(|c| c.verdict).collect();
        assert_eq!(verdicts, [Verdict::Pass, Verdict::Fail, Verdict::Pass], "{cases:?}");
        assert_eq!((cases[1].class, cases[1].name.as_str()), ("li", "early-select"));
        assert!(cases[1].detail.contains("invariant checker"), "{}", cases[1].detail);
    }

    /// A panicking cell fails its case with the runner's `cell-panic`
    /// error instead of taking the gate down.
    #[test]
    fn a_panicking_cell_fails_its_sampling_case() {
        let mut faulty = machine::baseline_8way();
        faulty.fault = Some(FaultSpec { kind: FaultKind::PanicCell, at_cycle: 50 });
        let cells = [("panic-cell".to_owned(), (Benchmark::Compress, faulty))];
        let cases = sampling_cases(&cells, 20_000, 0.02);
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].verdict, Verdict::Fail, "{cases:?}");
        assert!(cases[0].detail.starts_with("exact: cell-panic"), "{}", cases[0].detail);
    }
}
