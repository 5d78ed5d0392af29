//! Per-layer metrics of the traced run. Each comes from timing calls into
//! one layer's public functions, either over the work the workload itself
//! did or, where the workload does not reach the layer from this process,
//! over a fixed probe input at the run's instruction cap (see the
//! README's layer table for which is which).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ce_bench::api::{self, SweepKind};
use ce_bench::checkpoint::{sweep_id, write_atomic, CheckpointSpec, Journal};
use ce_bench::explore::{self, GridScale};
use ce_bench::manifest;
use ce_bench::runner::{run_sweep_ft, SweepOptions, SweepSummary, TimedResult};
use ce_bench::store::ResultStore;
use ce_bench::telemetry::HealthReport;
use ce_delay::{MachineClock, Technology};
use ce_sim::{PhaseProfile, SchedulerKind, SimConfig, SimStats, Simulator};
use ce_workloads::{trace_benchmark, trace_cache_stats, trace_cached, Benchmark, TraceCacheStats};

use crate::gates::{self, Pins};
use crate::measure::{median, ms, percentile, timed, us, Report};
use crate::service::{self, Daemon, JobTimes, StateAudit};
use crate::span::SpanId;
use crate::Ctx;

/// Pings timed for `service.connect_ms`.
const PINGS: usize = 20;

/// Cells the simulator probe runs at a time, one thread each: as many as
/// the benchmark's `CE_THREADS`.
const PROBE_THREADS: usize = 2;

/// Most results inserted into the scratch store for `store.insert_us`.
const STORE_INSERTS: usize = 200;

/// Repetitions of the timed single calls (`write_atomic`, CSV render).
const REPEATS: usize = 20;

/// Trace-cache traffic since `before`.
pub fn trace_cache(report: &mut Report, before: TraceCacheStats) {
    let after = trace_cache_stats();
    report.metric(
        "workloads.trace_cache_misses",
        (after.misses - before.misses) as f64,
        "count",
    );
    report.metric(
        "workloads.trace_cache_evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    );
}

/// Runner metrics over the runner's own telemetry journals: the traced
/// passes of a sweep workload, or every job the daemon executed.
pub fn runner(report: &mut Report, journals: &[PathBuf]) -> Result<(), String> {
    let (mut busy_us, mut capacity_us, mut ok_attempts, mut failed_attempts, mut failed_cells) =
        (0u64, 0.0f64, 0usize, 0usize, 0usize);
    for path in journals {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let health =
            HealthReport::from_journal(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        busy_us += health.busy_us();
        capacity_us += health.threads as f64 * health.sweep_wall_us as f64;
        ok_attempts += health.completed - health.resumed;
        failed_attempts += health.errors_by_category.values().sum::<usize>();
        failed_cells += health.failed;
    }
    let sweeps = journals.len().max(1) as f64;
    report.metric("runner.cell_wall_sum_s", busy_us as f64 / 1e6 / sweeps, "s");
    report.metric(
        "runner.idle_frac",
        1.0 - busy_us as f64 / capacity_us,
        "ratio",
    );
    let cells = (ok_attempts + failed_cells).max(1);
    report.metric(
        "runner.attempts_per_cell",
        (ok_attempts + failed_attempts) as f64 / cells as f64,
        "ratio",
    );
    Ok(())
}

/// Checkpoint metrics: the run's results replayed into a scratch journal,
/// and the run's main artifact rewritten atomically.
pub fn checkpoint(
    ctx: &Ctx,
    report: &mut Report,
    results: &[TimedResult],
    artifact: &str,
) -> Result<(), String> {
    let t = &ctx.tracer;
    let spec = CheckpointSpec {
        path: ctx.scratch.join("replay.ckpt.jsonl"),
        resume: false,
    };
    let appends = t.span("checkpoint.record", 0, 0, |_| -> Result<Vec<f64>, String> {
        let (mut journal, _) =
            Journal::open(&spec, sweep_id(&[], 0, Default::default()), results.len())
                .map_err(|e| format!("scratch journal: {e}"))?;
        let mut walls = Vec::with_capacity(results.len());
        for (i, result) in results.iter().enumerate() {
            let (appended, wall) = timed(|| journal.record(i, result));
            appended.map_err(|e| format!("scratch journal append: {e}"))?;
            walls.push(us(wall));
        }
        journal.finish();
        Ok(walls)
    })?;
    if !appends.is_empty() {
        report.metric("checkpoint.append_us", median(&appends), "us");
    }
    let path = ctx.scratch.join("replay.csv");
    let writes = t.span("checkpoint.write_atomic", 0, 0, |_| {
        (0..REPEATS)
            .map(|_| {
                let (written, wall) = timed(|| write_atomic(&path, artifact));
                written
                    .map(|()| us(wall))
                    .map_err(|e| format!("writing {}: {e}", path.display()))
            })
            .collect::<Result<Vec<f64>, String>>()
    })?;
    report.metric("checkpoint.write_atomic_us", median(&writes), "us");
    Ok(())
}

/// Service metrics from a running daemon and the jobs the loop (or the
/// probe) sent it.
pub fn service(
    ctx: &Ctx,
    report: &mut Report,
    daemon: &Daemon,
    jobs: &[&JobTimes],
) -> Result<(), String> {
    let mut pings = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        pings.push(ms(ctx
            .tracer
            .span("service.ping", 0, 0, |_| service::ping(daemon.socket()))?));
    }
    report.metric("service.connect_ms", median(&pings), "ms");
    let admits: Vec<f64> = jobs.iter().map(|j| ms(j.admit)).collect();
    let execs: Vec<f64> = jobs.iter().map(|j| ms(j.exec)).collect();
    report.metric("service.admit_ms", median(&admits), "ms");
    report.metric("service.exec_ms", median(&execs), "ms");
    let hits: usize = jobs.iter().map(|j| j.outcome.cache_hits).sum();
    let cells: usize = jobs.iter().map(|j| j.cells).sum();
    report.metric(
        "store.hit_ratio",
        hits as f64 / cells.max(1) as f64,
        "ratio",
    );
    Ok(())
}

/// Store and fsck metrics from the audit of a stopped daemon's state,
/// plus inserts of the served entries into a scratch store. Returns every
/// result the daemon's store served.
pub fn state(
    ctx: &Ctx,
    report: &mut Report,
    audit: StateAudit,
) -> Result<Vec<TimedResult>, String> {
    if !audit.lookups_us.is_empty() {
        report.metric("store.lookup_us_p50", median(&audit.lookups_us), "us");
        report.metric(
            "store.lookup_us_p99",
            percentile(&audit.lookups_us, 99.0),
            "us",
        );
    }
    let code = manifest::code_version();
    let scratch = ResultStore::open(&ctx.scratch.join("scratch-store"))
        .map_err(|e| format!("opening the scratch store: {e}"))?;
    let inserts = ctx.tracer.span("store.insert", 0, 0, |_| {
        audit
            .served
            .iter()
            .take(STORE_INSERTS)
            .map(|(key, result)| {
                let (inserted, wall) = timed(|| scratch.insert(key, &code, result));
                inserted
                    .map(|()| us(wall))
                    .map_err(|e| format!("scratch store insert: {e}"))
            })
            .collect::<Result<Vec<f64>, String>>()
    })?;
    if !inserts.is_empty() {
        report.metric("store.insert_us", median(&inserts), "us");
    }
    report.metric("fsck.s", audit.fsck.as_secs_f64(), "s");
    Ok(audit.served.into_iter().map(|(_, result)| result).collect())
}

/// The probes every workload runs: emulation, delay evaluation, the
/// simulator's phases, fig17 rendering, and explorer scoring. `explored`
/// is the `explore-full` pass's summary; elsewhere the explorer probe
/// sweeps the tiny grid.
pub fn common(
    ctx: &Ctx,
    report: &mut Report,
    pins: &Pins,
    explored: Option<&SweepSummary>,
) -> Result<(), String> {
    emulation(ctx, report)?;
    delay(ctx, report);
    simulator(ctx, report, pins)?;
    explorer(ctx, report, explored)
}

/// Uncached trace generation of the seven kernels.
fn emulation(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let (insts, wall) = ctx.tracer.span("workloads.trace_benchmark", 0, 0, |_| {
        timed(|| {
            Benchmark::all().into_iter().try_fold(0usize, |n, b| {
                Ok::<usize, String>(
                    n + trace_benchmark(b, ctx.cap)
                        .map_err(|e| format!("tracing {b}: {e}"))?
                        .len(),
                )
            })
        })
    });
    report.metric(
        "workloads.emulate_minsts_per_s",
        insts? as f64 / wall.as_secs_f64() / 1e6,
        "Minst/s",
    );
    Ok(())
}

/// `MachineClock::try_compute` over the explorer's full grid in every
/// technology, repeated for at least 200 ms.
fn delay(ctx: &Ctx, report: &mut Report) {
    let params: Vec<_> = explore::grid(GridScale::Full)
        .iter()
        .map(|p| explore::machine_params(&p.cfg))
        .collect();
    let techs = Technology::all();
    let (evals, wall) = ctx.tracer.span("delay.try_compute", 0, 0, |_| {
        timed(|| {
            let start = Instant::now();
            let mut evals = 0u64;
            while evals == 0 || start.elapsed() < Duration::from_millis(200) {
                for mp in &params {
                    for tech in &techs {
                        let _ = black_box(MachineClock::try_compute(tech, black_box(mp)));
                        evals += 1;
                    }
                }
            }
            evals
        })
    });
    report.metric(
        "delay.evals_per_s",
        evals as f64 / wall.as_secs_f64(),
        "1/s",
    );
}

fn family(scheduler: SchedulerKind) -> &'static str {
    match scheduler {
        SchedulerKind::CentralWindow { .. } => "central",
        SchedulerKind::SteeredWindows { .. } => "steered",
        SchedulerKind::Fifos { .. } => "fifo",
    }
}

/// One fig17 cell run with `cfg`, once profiled and once not: the profiled
/// result, its phase profile and wall, then the unprofiled result and wall.
type CellRun = (SimStats, PhaseProfile, Duration, SimStats, Duration);

fn run_cell(
    ctx: &Ctx,
    parent: SpanId,
    bench: Benchmark,
    cfg: SimConfig,
) -> Result<CellRun, String> {
    let t = &ctx.tracer;
    let trace = trace_cached(bench, ctx.cap).map_err(|e| format!("tracing {bench}: {e}"))?;
    let sim = || Simulator::try_new(cfg).map_err(|e| e.to_string());
    let (profiled, p_wall) = t.span("sim.try_run_profiled", parent, 0, |_| {
        timed(|| sim()?.try_run_profiled(&trace).map_err(|e| e.to_string()))
    });
    let (plain, u_wall) = t.span("sim.try_run", parent, 0, |_| {
        timed(|| sim()?.try_run(&trace).map_err(|e| e.to_string()))
    });
    let (stats, profile) = profiled?;
    Ok((stats, profile, p_wall, plain?, u_wall))
}

/// Every fig17 cell re-run with the plan's options, once profiled and once
/// not, [`PROBE_THREADS`] cells at a time, each on one thread; then the
/// fig17 CSV rendered from the unprofiled results.
fn simulator(ctx: &Ctx, report: &mut Report, pins: &Pins) -> Result<(), String> {
    let t = &ctx.tracer;
    let plan = api::plan(SweepKind::Fig17);
    let mut phases = [Duration::ZERO; 6];
    let names = ["fetch", "dispatch", "wakeup", "select", "execute", "commit"];
    let (mut profiled_wall, mut plain_wall) = (Duration::ZERO, Duration::ZERO);
    let mut families: BTreeMap<&str, (u64, Duration)> = BTreeMap::new();
    let mut cells = Vec::with_capacity(plan.jobs.len());
    let mut runs = t.span("sim.fig17_cells", 0, 0, |span| {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..PROBE_THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(bench, mut cfg)) = plan.jobs.get(i) else {
                                return mine;
                            };
                            cfg.attribution |= plan.run.attribution;
                            mine.push((i, run_cell(ctx, span, bench, cfg)));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("a simulator probe thread panicked"))
                .collect::<Vec<_>>()
        })
    });
    runs.sort_by_key(|(i, _)| *i);
    for (i, run) in runs {
        let (bench, cfg) = plan.jobs[i];
        let (stats, profile, p_wall, plain, u_wall) = run?;
        report.gate(stats.fingerprint() == plain.fingerprint(), || {
            format!(
                "profiling changed the result of {bench} on {:?}",
                cfg.scheduler
            )
        });
        for (slot, (_, d)) in phases.iter_mut().zip(profile.rows()) {
            *slot += d;
        }
        profiled_wall += p_wall;
        plain_wall += u_wall;
        let entry = families.entry(family(cfg.scheduler)).or_default();
        entry.0 += plain.cycles;
        entry.1 += u_wall;
        cells.push(Some(TimedResult {
            stats: plain,
            sampled: None,
            wall: u_wall,
        }));
    }
    for (name, d) in names.iter().zip(phases) {
        report.metric(&format!("sim.{name}_s"), d.as_secs_f64(), "s");
    }
    let phase_sum: Duration = phases.iter().sum();
    report.metric(
        "sim.phase_coverage",
        phase_sum.as_secs_f64() / profiled_wall.as_secs_f64(),
        "ratio",
    );
    report.metric(
        "sim.profile_overhead",
        profiled_wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0,
        "ratio",
    );
    for (name, (cycles, wall)) in &families {
        report.metric(
            &format!("sim.mcycles_per_s.{name}"),
            *cycles as f64 / wall.as_secs_f64() / 1e6,
            "Mcycle/s",
        );
    }
    let walls = cells.iter().flatten().map(|c| c.wall);
    report.metric(
        "sim.max_cell_s",
        walls.clone().max().unwrap_or_default().as_secs_f64(),
        "s",
    );

    let summary = SweepSummary {
        total_cycles: cells.iter().flatten().map(|c| c.stats.cycles).sum(),
        min_cell_wall: walls.clone().min().unwrap_or_default(),
        max_cell_wall: walls.max().unwrap_or_default(),
        cells,
        failures: Vec::new(),
        resumed: 0,
        sweep_wall: plain_wall,
        serial_cell_wall: plain_wall,
        threads: 1,
        schedule: (0..plan.jobs.len()).collect(),
    };
    gates::check_fig17_cycles(report, ctx.cap, &summary);
    let renders: Vec<(String, Duration)> = t.span("render.fig17_csv", 0, 0, |_| {
        (0..REPEATS)
            .map(|_| timed(|| api::fig17_csv(&summary)))
            .collect()
    });
    pins.check(report, "fig17_organizations.csv", ctx.cap, &renders[0].0);
    let walls: Vec<f64> = renders.iter().map(|(_, w)| us(*w)).collect();
    report.metric("render.fig17_csv_us", median(&walls), "us");
    Ok(())
}

/// Explorer scoring and rendering over `explored` (the full grid), or
/// over a tiny-grid sweep run here; also the sampled simulation rate of
/// that sweep's cells.
fn explorer(ctx: &Ctx, report: &mut Report, explored: Option<&SweepSummary>) -> Result<(), String> {
    let t = &ctx.tracer;
    let (scale, summary) = match explored {
        Some(summary) => (GridScale::Full, summary.clone()),
        None => {
            let jobs = explore::explore_jobs(GridScale::Tiny);
            let opts = SweepOptions {
                run: api::plan(SweepKind::ExploreTiny).run,
                ..SweepOptions::default()
            };
            let summary = t
                .span("runner.run_sweep_ft", 0, 0, |_| {
                    run_sweep_ft(&jobs, ctx.cap, &opts)
                })
                .map_err(|e| format!("tiny explore sweep: {e}"))?;
            report.gate(summary.all_ok(), || {
                "the tiny explore sweep failed cells".to_owned()
            });
            (GridScale::Tiny, summary)
        }
    };
    let insts: u64 = summary.ok_cells().map(|c| c.stats.committed).sum();
    let wall: Duration = summary.ok_cells().map(|c| c.wall).sum();
    report.metric(
        "sim.sampled_minsts_per_s",
        insts as f64 / wall.as_secs_f64() / 1e6,
        "Minst/s",
    );
    let (scored, wall) = t.span("explore.score", 0, 0, |_| {
        timed(|| explore::score(scale, false, Some(summary)))
    });
    report.metric("explore.score_s", wall.as_secs_f64(), "s");
    let (_, wall) = t.span("render.explore_csv", 0, 0, |_| {
        timed(|| {
            (
                explore::pareto_csv(&scored),
                explore::tab02_explore_csv(&scored),
            )
        })
    });
    report.metric("render.explore_csv_ms", ms(wall), "ms");
    Ok(())
}
