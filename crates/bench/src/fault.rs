//! Seeded fault-injection campaign over the whole simulator stack, the
//! first phase of `cechaos`.
//!
//! The robustness claim this repo makes is not "nothing ever fails" but
//! "**no fault is silent**": a corrupted trace file, a config pushed to a
//! validation boundary, or a transient scheduler fault must either be
//! *reported* by a validation layer (the parser, the config validator,
//! the invariant checker, panic containment) or leave a result that is
//! provably accounted for. This module generates a deterministic, seeded
//! campaign across all three fault classes and grades every case with a
//! [`Verdict`] (the table in [`crate::campaign`] defines each); one
//! `silent` case fails the campaign.
//!
//! | class | injector | acceptable verdicts |
//! |---|---|---|
//! | `trace` | [`corrupt_trace_text`] | `detected` (parse error, or the checker catches what parsed); `unchanged` (identical parse); `visible` (a different valid trace that simulates cleanly under the checker) |
//! | `config` | seeded field mutation | `detected` (`validate()` rejection); `visible` (a clean checked run) |
//! | `sched` | [`FaultSpec`] gate | `detected` (checker abort, deadlock or panic containment); `unchanged` (bit-identical statistics) |

use std::time::Instant;

use ce_sim::{machine, FaultKind, FaultSpec, SimConfig, SimError, SimStats, Simulator};
use ce_workloads::{
    corrupt_trace_text, parse_trace, trace_cached, trace_io::format_trace, Benchmark, Trace,
    TraceCorruption,
};
use rand::{Rng, SeedableRng, StdRng};

use crate::campaign::{Case, Verdict};

/// Instruction cap for campaign simulations: small enough that ~100
/// checked runs stay fast, large enough to exercise every pipeline stage.
const CAMPAIGN_INSTS: u64 = 2_000;

/// Runs `f` on a `ce-cell-*`-named thread so a panic is contained (and,
/// via the runner's panic hook, kept off stderr) and returned as the
/// panic message.
fn contained<T: Send>(f: impl FnOnce() -> T + Send) -> Result<T, String> {
    crate::runner::install_cell_panic_hook();
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("ce-cell-fault".into())
            .spawn_scoped(scope, f)
            .expect("spawning fault-containment thread")
            .join()
    })
    .map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panicked with a non-string payload".into())
    })
}

/// Runs one simulation with the invariant checker on, containing panics.
fn checked_run(mut cfg: SimConfig, trace: &Trace) -> Result<SimStats, String> {
    cfg.check = true;
    Simulator::try_new(cfg).map_err(|e| e.to_string())?;
    // The simulator itself is built inside the containment thread (it is
    // not Send); the config is Copy and the trace is shared by reference.
    match contained(move || Simulator::try_new(cfg).expect("validated above").try_run(trace)) {
        Ok(Ok(stats)) => Ok(stats),
        Ok(Err(e)) => Err(e.to_string()),
        Err(panic_msg) => Err(panic_msg),
    }
}

/// Class 1: corrupt a serialized trace and prove the parser (or, for
/// corruptions that still parse, the checked simulator) accounts for it.
fn trace_corruption_cases(seed: u64, cases: &mut Vec<Case>) {
    let trace = trace_cached(Benchmark::Compress, CAMPAIGN_INSTS)
        .expect("bundled kernel traces");
    let text = format_trace(&trace);
    let cfg = machine::baseline_8way();
    for kind in TraceCorruption::ALL {
        for s in 0..12u64 {
            let start = Instant::now();
            let mutated = corrupt_trace_text(&text, kind, seed ^ (s << 8) ^ kind as u64);
            let (verdict, detail) = match parse_trace(&mutated) {
                Err(e) => (Verdict::Detected, format!("parser: {e}")),
                Ok(parsed) if parsed == *trace => {
                    (Verdict::Unchanged, "parses to the identical trace".into())
                }
                Ok(parsed) => match checked_run(cfg, &parsed) {
                    Ok(_) => (
                        Verdict::Visible,
                        "parses to a different valid trace; checked run is clean".into(),
                    ),
                    // The checker catching a parseable-but-inconsistent
                    // trace downstream still counts as caught…
                    Err(e) if e.contains("invariant checker") => {
                        (Verdict::Detected, format!("checker: {e}"))
                    }
                    // …but a panic or deadlock means invalid data sailed
                    // through parse validation: exactly the silent class.
                    Err(e) => (Verdict::Silent, format!("escaped validation: {e}")),
                },
            };
            let name = format!("{kind} seed={s}");
            cases.push(Case { class: "trace", name, verdict, detail, wall: start.elapsed() });
        }
    }
}

/// Class 2: perturb configuration fields toward their validation
/// boundaries; every perturbation must be rejected by [`SimConfig::validate`]
/// or produce a config the checked simulator handles cleanly.
fn config_perturbation_cases(seed: u64, cases: &mut Vec<Case>) {
    let trace =
        trace_cached(Benchmark::Li, CAMPAIGN_INSTS).expect("bundled kernel traces");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0f1);
    for i in 0..40 {
        let start = Instant::now();
        let mut cfg = match rng.gen_range(0..3u32) {
            0 => machine::baseline_8way(),
            1 => machine::dependence_8way(),
            _ => machine::clustered_fifos_8way(),
        };
        let which = rng.gen_range(0..10u32);
        let field = match which {
            0 => {
                cfg.clusters = 1;
                cfg.issue_width = rng.gen_range(0..21);
                "issue_width"
            }
            1 => {
                cfg.clusters = rng.gen_range(0..6);
                "clusters"
            }
            2 => {
                cfg.bpred.history_bits = rng.gen_range(28..36);
                "bpred.history_bits"
            }
            3 => {
                cfg.bpred.counters = rng.gen_range(0..5000);
                "bpred.counters"
            }
            4 => {
                cfg.physical_regs = rng.gen_range(30..40);
                "physical_regs"
            }
            5 => {
                cfg.scheduler = ce_sim::SchedulerKind::Fifos {
                    fifos_per_cluster: rng.gen_range(0..3),
                    depth: rng.gen_range(0..3),
                };
                "scheduler(fifos)"
            }
            6 => {
                cfg.max_inflight = rng.gen_range(0..4);
                "max_inflight"
            }
            7 => {
                cfg.fetch_width = rng.gen_range(0..3);
                cfg.retire_width = rng.gen_range(0..3);
                "fetch/retire width"
            }
            8 => {
                cfg.scheduler =
                    ce_sim::SchedulerKind::CentralWindow { size: rng.gen_range(0..5) };
                "scheduler(window)"
            }
            _ => {
                cfg.regwrite_delay = rng.gen_range(0..200);
                cfg.intercluster_extra = rng.gen_range(0..200);
                "operand delays"
            }
        };
        let (verdict, detail) = match cfg.validate() {
            Err(e) => (Verdict::Detected, format!("validate: {e}")),
            Ok(()) => match checked_run(cfg, &trace) {
                Ok(_) => {
                    (Verdict::Visible, "valid boundary config; checked run is clean".into())
                }
                Err(e) => (Verdict::Silent, format!("validation accepted it, then: {e}")),
            },
        };
        let name = format!("{field} case={i}");
        cases.push(Case { class: "config", name, verdict, detail, wall: start.elapsed() });
    }
}

/// Class 3: arm the simulator's own fault gate ([`SimConfig::fault`]) and
/// prove the invariant checker catches every fault that changes state —
/// anything it misses must be bit-identical to the clean run.
fn scheduler_injection_cases(seed: u64, cases: &mut Vec<Case>) {
    let trace =
        trace_cached(Benchmark::Li, CAMPAIGN_INSTS).expect("bundled kernel traces");
    let cfg = machine::baseline_8way();
    let clean = checked_run(cfg, &trace).expect("clean checked run");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfa17);
    let horizon = clean.cycles + clean.cycles / 2;
    for kind in FaultKind::ALL {
        for c in 0..6u64 {
            // Cycles spread across (and past) the run, seeded so campaigns
            // with different seeds probe different cycles.
            let at_cycle = if c == 5 { horizon } else { rng.gen_range(0..clean.cycles) };
            let start = Instant::now();
            let mut faulty = cfg;
            faulty.fault = Some(FaultSpec { kind, at_cycle });
            faulty.check = true;
            faulty.validate().expect("faulty config still validates");
            let (verdict, detail) = match contained(|| {
                Simulator::try_new(faulty).expect("validated above").try_run(&trace)
            }) {
                Ok(Ok(stats)) => {
                    if stats.fingerprint() == clean.fingerprint() {
                        (Verdict::Unchanged, "statistics bit-identical to clean run".into())
                    } else {
                        (
                            Verdict::Silent,
                            format!(
                                "fingerprint diverged undetected: {} vs {}",
                                stats.fingerprint(),
                                clean.fingerprint()
                            ),
                        )
                    }
                }
                Ok(Err(e @ SimError::Checker { .. })) => {
                    (Verdict::Detected, format!("checker: {e}"))
                }
                Ok(Err(e)) => (Verdict::Detected, format!("aborted loudly: {e}")),
                Err(msg) => {
                    if kind == FaultKind::PanicCell {
                        (Verdict::Detected, format!("contained panic: {msg}"))
                    } else {
                        (Verdict::Silent, format!("unexpected panic: {msg}"))
                    }
                }
            };
            let name = format!("{kind} cycle={at_cycle}");
            cases.push(Case { class: "sched", name, verdict, detail, wall: start.elapsed() });
        }
    }
}

/// Runs the full campaign (118 cases: 48 trace corruptions, 40 config
/// perturbations, 30 scheduler injections), deterministically for a given
/// seed.
pub fn run_campaign(seed: u64) -> Vec<Case> {
    let mut cases = Vec::with_capacity(120);
    trace_corruption_cases(seed, &mut cases);
    config_perturbation_cases(seed, &mut cases);
    scheduler_injection_cases(seed, &mut cases);
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Report;

    /// The headline guarantee: a hundred-plus seeded faults across all
    /// three classes, zero silent.
    #[test]
    fn campaign_finds_no_silent_faults() {
        let report = Report { tool: "fault", cases: run_campaign(0xce) };
        assert!(report.cases.len() >= 100, "only {} cases", report.cases.len());
        let silent: Vec<_> = report.violations().collect();
        assert!(
            silent.is_empty(),
            "{} silent fault(s): {:?}",
            silent.len(),
            silent.iter().map(|c| format!("{}: {}", c.name, c.detail)).collect::<Vec<_>>()
        );
        // Sanity: the campaign actually exercised both detection and the
        // benign verdicts — an all-unchanged campaign would prove nothing.
        let count = |v| report.cases.iter().filter(|c| c.verdict == v).count();
        assert!(count(Verdict::Detected) > 20, "{report}");
        assert!(count(Verdict::Unchanged) + count(Verdict::Visible) > 0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run_campaign(7);
        let b = run_campaign(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.class, &x.name), (y.class, &y.name));
            assert_eq!(x.verdict, y.verdict);
        }
    }
}
