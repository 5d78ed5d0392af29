//! The detected-or-masked contract for scheduler fault injection: with
//! the invariant checker on, every planted fault either aborts the run
//! loudly (a `SimError`, or the deliberate `panic-cell` unwind) or
//! provably changed nothing (statistics fingerprint bit-identical to a
//! clean run). A fault that completes with a *different* fingerprint is
//! silent corruption — a checker hole — and fails this test.
//!
//! The seeded campaign in `ce-bench` (`cechaos`'s simulator-fault phase)
//! sweeps this same contract over randomized fault plans; this test pins
//! the fixed grid every CI run.

use ce_sim::{FaultKind, FaultSpec, SimError, SimStats, Simulator};
use ce_workloads::{trace_cached, Benchmark, Trace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const INSTS: u64 = 3_000;

fn checked_config() -> ce_sim::SimConfig {
    let mut cfg = ce_sim::machine::baseline_8way();
    cfg.check = true;
    cfg
}

fn clean_run(trace: &Trace) -> SimStats {
    Simulator::new(checked_config()).run(trace)
}

enum Outcome {
    Aborted(SimError),
    Panicked,
    Completed(Box<SimStats>),
}

fn injected_run(trace: &Trace, fault: FaultSpec) -> Outcome {
    let mut cfg = checked_config();
    cfg.fault = Some(fault);
    // `panic-cell` deliberately unwinds; catch it so the test can
    // classify the outcome instead of dying.
    match catch_unwind(AssertUnwindSafe(|| Simulator::new(cfg).try_run(trace))) {
        Ok(Ok(stats)) => Outcome::Completed(Box::new(stats)),
        Ok(Err(e)) => Outcome::Aborted(e),
        Err(_) => Outcome::Panicked,
    }
}

#[test]
fn every_fault_kind_is_detected_or_masked_under_the_checker() {
    let trace: Arc<Trace> = trace_cached(Benchmark::Compress, INSTS).expect("trace");
    let clean = clean_run(&trace);
    let horizon = clean.cycles;

    let mut detected = 0usize;
    let mut masked = 0usize;
    for kind in FaultKind::ALL {
        for at_cycle in [0, horizon / 4, horizon / 2, horizon - 1, horizon + 1_000] {
            let fault = FaultSpec { kind, at_cycle };
            match injected_run(&trace, fault) {
                Outcome::Aborted(SimError::Checker { .. }) => detected += 1,
                // Any loud abort counts as detection — the run did not
                // produce corrupted statistics.
                Outcome::Aborted(_) => detected += 1,
                Outcome::Panicked => {
                    assert_eq!(
                        kind,
                        FaultKind::PanicCell,
                        "{fault}: only panic-cell may unwind"
                    );
                    detected += 1;
                }
                Outcome::Completed(stats) => {
                    assert_eq!(
                        stats.fingerprint(),
                        clean.fingerprint(),
                        "{fault}: run completed with a different fingerprint — \
                         the fault was silent"
                    );
                    masked += 1;
                }
            }
        }
    }

    // The grid must exercise both arms: in-range faults that strike and
    // past-horizon faults that never fire.
    assert!(detected >= FaultKind::ALL.len(), "only {detected} faults detected");
    assert!(masked >= FaultKind::ALL.len(), "only {masked} faults masked");
}

/// `stats-corrupt` ignores its trigger cycle and strikes at end of run;
/// the end-of-run reconciliation must always catch it.
#[test]
fn stats_corruption_is_always_caught() {
    let trace = trace_cached(Benchmark::Compress, INSTS).expect("trace");
    for at_cycle in [0u64, 7, 1 << 40] {
        let fault = FaultSpec { kind: FaultKind::StatsCorrupt, at_cycle };
        match injected_run(&trace, fault) {
            Outcome::Aborted(SimError::Checker { .. }) => {}
            _ => panic!("{fault}: reconciliation failed to catch the corrupt counter"),
        }
    }
}

/// The checker itself is observation-only: a clean checked run must be
/// bit-identical to a clean unchecked run.
#[test]
fn checker_and_disabled_injection_do_not_perturb_timing() {
    let trace = trace_cached(Benchmark::Compress, INSTS).expect("trace");
    let unchecked = Simulator::new(ce_sim::machine::baseline_8way()).run(&trace);
    let checked = clean_run(&trace);
    assert_eq!(unchecked.fingerprint(), checked.fingerprint());
}
