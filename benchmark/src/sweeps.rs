//! The sweep workloads. `fig17-full` regenerates Figure 17 as
//! `fig17_organizations --out` does; `explore-full` runs the explorer's
//! full sampled grid as `ce-explore --out` does. Each pass checkpoints,
//! renders, writes its CSVs atomically, and writes the run manifest; the
//! seven kernel traces are generated and fingerprinted in set-up.

use std::path::{Path, PathBuf};

use ce_bench::api::{self, SweepKind};
use ce_bench::checkpoint::{write_atomic, CheckpointSpec};
use ce_bench::explore::{self, ExploreOptions, ExploreReport, GridScale};
use ce_bench::manifest;
use ce_bench::runner::{cell_weights, run_sweep_ft, Job, SweepOptions, SweepSummary};
use ce_bench::telemetry::{Telemetry, TelemetryConfig};
use ce_workloads::{trace_cache_stats, trace_cached, Benchmark};

use crate::gates::{self, Pins};
use crate::host::clocked;
use crate::layers;
use crate::measure::{peak_rss_mb, timed, Report};
use crate::span::{SpanId, Tracer};
use crate::{closed_loop, service, Ctx, Loop};

/// Generates and fingerprints the seven kernel traces at the cap, filling
/// the process-wide trace and fingerprint memos every pass reads. Returns
/// its wall time in seconds at the reference host's speed.
pub fn set_up(ctx: &Ctx) -> Result<f64, String> {
    let ((done, wall), host) = clocked(|| {
        timed(|| {
            ctx.tracer.span("bench.setup", 0, 0, |_| {
                Benchmark::all().into_iter().try_for_each(|b| {
                    trace_cached(b, ctx.cap).map_err(|e| format!("tracing {b}: {e}"))?;
                    manifest::trace_fingerprint(b, ctx.cap).map(drop)
                })
            })
        })
    });
    done?;
    Ok(host.at_reference(wall.as_secs_f64()))
}

/// A telemetry journal for a traced pass (the runner metrics read it),
/// or the disabled handle.
fn telemetry(
    journal: Option<PathBuf>,
    name: &str,
    jobs: &[Job],
    cap: u64,
) -> Result<Telemetry, String> {
    let Some(path) = journal else {
        return Ok(Telemetry::disabled());
    };
    let config = TelemetryConfig {
        name: name.to_owned(),
        journal: Some(path),
        ..TelemetryConfig::default()
    };
    Telemetry::create(&config, cell_weights(jobs, cap), cap)
        .map_err(|e| format!("telemetry journal: {e}"))
}

fn all_ok(summary: &SweepSummary, what: &str) -> Result<(), String> {
    match summary.failures.first() {
        None if summary.all_ok() => Ok(()),
        first => Err(format!(
            "{what}: {} cells failed, first: {first:?}",
            summary.failures.len()
        )),
    }
}

fn write(t: &Tracer, parent: SpanId, path: &Path, content: &str) -> Result<(), String> {
    t.span("checkpoint.write_atomic", parent, 0, |_| {
        write_atomic(path, content)
    })
    .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// One Figure 17 regeneration.
fn fig17_pass(
    ctx: &Ctx,
    t: &Tracer,
    journal: Option<PathBuf>,
) -> Result<(SweepSummary, String), String> {
    t.span("bench.pass", 0, 0, |pass| {
        let plan = t.span("api.plan", pass, 0, |_| api::plan(SweepKind::Fig17));
        let out = ctx.scratch.join("fig17_organizations.csv");
        let opts = SweepOptions {
            run: plan.run,
            checkpoint: Some(CheckpointSpec::for_output(&out, false)),
            telemetry: telemetry(journal, "fig17_organizations", &plan.jobs, ctx.cap)?,
            ..SweepOptions::default()
        };
        let summary = t
            .span("runner.run_sweep_ft", pass, 0, |_| {
                run_sweep_ft(&plan.jobs, ctx.cap, &opts)
            })
            .map_err(|e| format!("fig17 checkpoint journal: {e}"))?;
        all_ok(&summary, "fig17")?;
        let csv = t.span("render.fig17_csv", pass, 0, |_| api::fig17_csv(&summary));
        write(t, pass, &out, &csv)?;
        t.span("manifest.write", pass, 0, |_| {
            let manifest_out = manifest::manifest_path(&out);
            let tool = "fig17_organizations";
            manifest::write_manifest(
                &manifest_out,
                tool,
                &plan.jobs,
                ctx.cap,
                plan.run,
                &summary,
                &[&out],
            )
        })?;
        Ok((summary, csv))
    })
}

/// One full-grid explorer pass; returns the report and both CSVs.
fn explore_pass(
    ctx: &Ctx,
    t: &Tracer,
    journal: Option<PathBuf>,
) -> Result<(ExploreReport, String, String), String> {
    t.span("bench.pass", 0, 0, |pass| {
        let out = ctx.scratch.join("pareto.csv");
        let jobs = explore::explore_jobs(GridScale::Full);
        let opts = ExploreOptions {
            scale: GridScale::Full,
            exact: false,
            max_insts: ctx.cap,
            checkpoint: Some(CheckpointSpec::for_output(&out, false)),
            telemetry: telemetry(journal, "ce-explore", &jobs, ctx.cap)?,
        };
        let report = t
            .span("explore.explore", pass, 0, |_| explore::explore(&opts))
            .map_err(|e| format!("explore checkpoint journal: {e}"))?;
        let summary = report
            .summary
            .as_ref()
            .ok_or("the explorer simulated nothing")?;
        all_ok(summary, "explore")?;
        let (pareto, tab02) = t.span("render.explore_csv", pass, 0, |_| {
            (
                explore::pareto_csv(&report),
                explore::tab02_explore_csv(&report),
            )
        });
        let tab02_out = explore::tab02_path(&out);
        write(t, pass, &out, &pareto)?;
        write(t, pass, &tab02_out, &tab02)?;
        t.span("manifest.write", pass, 0, |_| {
            let manifest_out = manifest::manifest_path(&out);
            let paths: [&Path; 2] = [&out, &tab02_out];
            manifest::write_manifest(
                &manifest_out,
                "ce-explore",
                &report.jobs,
                ctx.cap,
                report.run,
                summary,
                &paths,
            )
        })?;
        Ok((report, pareto, tab02))
    })
}

/// Runs `pass` in the traced loop with one telemetry journal per pass,
/// and returns the loop and the journals.
fn traced_loop<T: Send>(
    ctx: &Ctx,
    pass: impl Fn(Option<PathBuf>) -> Result<T, String> + Sync,
) -> (Loop<T>, Vec<PathBuf>) {
    let mut count = [0usize];
    let run = closed_loop(ctx.window, 1, &mut count, |n| {
        *n += 1;
        pass(Some(ctx.scratch.join(format!("pass-{n}.telemetry.jsonl"))))
    });
    let journals = (1..=count[0])
        .map(|n| ctx.scratch.join(format!("pass-{n}.telemetry.jsonl")))
        .collect();
    (run, journals)
}

/// Every pass must produce the same bytes, and those bytes must pass the
/// artifact gates.
fn check_passes<'a>(
    report: &mut Report,
    pins: &Pins,
    cap: u64,
    name: &str,
    csvs: impl Iterator<Item = &'a String>,
) {
    let csvs: Vec<&String> = csvs.collect();
    report.gate(csvs.windows(2).all(|w| w[0] == w[1]), || {
        format!("{name}: passes produced different bytes")
    });
    if let Some(first) = csvs.first() {
        pins.check(report, name, cap, first);
    }
}

/// `fig17-full`.
pub fn fig17(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let pins = Pins::load()?;
    let setup_s = set_up(ctx)?;
    let off = Tracer::new(false);
    let mut first_rss = [None];
    let untraced = closed_loop(ctx.window, 1, &mut first_rss, |rss| {
        let pass = fig17_pass(ctx, &off, None)?;
        if rss.is_none() {
            *rss = Some(peak_rss_mb()?);
        }
        Ok(pass)
    });
    untraced.account(report);
    check_fig17(report, &pins, ctx.cap, &untraced);
    if !ctx.trace {
        let [rss] = first_rss;
        return untraced.end_to_end(ctx, report, setup_s, rss.unwrap_or(f64::NAN));
    }

    let before = trace_cache_stats();
    let (traced, journals) = traced_loop(ctx, |journal| fig17_pass(ctx, &ctx.tracer, journal));
    layers::trace_cache(report, before);
    traced.account(report);
    check_fig17(report, &pins, ctx.cap, &traced);
    traced.trace_overhead(ctx, &untraced, report);
    let (_, (summary, csv)) = traced.ops.last().ok_or("no traced fig17 pass completed")?;
    layers::runner(report, &journals)?;
    let results: Vec<_> = summary.ok_cells().cloned().collect();
    layers::checkpoint(ctx, report, &results, csv)?;
    probe_layers(ctx, report, &pins, None)
}

/// The layers a sweep does not reach: the service probe's daemon, then
/// the probes every workload runs.
fn probe_layers(
    ctx: &Ctx,
    report: &mut Report,
    pins: &Pins,
    explored: Option<&SweepSummary>,
) -> Result<(), String> {
    let (daemon, jobs) = service::probe(ctx)?;
    layers::service(ctx, report, &daemon, &jobs.iter().collect::<Vec<_>>())?;
    let audit = service::stop_and_audit(ctx, report, daemon)?;
    layers::state(ctx, report, audit)?;
    layers::common(ctx, report, pins, explored)
}

fn check_fig17(report: &mut Report, pins: &Pins, cap: u64, run: &Loop<(SweepSummary, String)>) {
    check_passes(
        report,
        pins,
        cap,
        "fig17_organizations.csv",
        run.ops.iter().map(|(_, (_, csv))| csv),
    );
    if let Some((_, (summary, _))) = run.ops.first() {
        gates::check_fig17_cycles(report, cap, summary);
    }
}

/// `explore-full`.
pub fn explore(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let pins = Pins::load()?;
    let setup_s = set_up(ctx)?;
    let off = Tracer::new(false);
    // Only the first pass's CSVs are kept, and every later pass is compared
    // with them as it ends, so the loop holds one pass's output however
    // many passes run.
    let mut first = [None];
    let untraced = closed_loop(ctx.window, 1, &mut first, |first| {
        let (_, pareto, tab02) = explore_pass(ctx, &off, None)?;
        match first {
            None => *first = Some((pareto, tab02, peak_rss_mb()?)),
            Some((p, t, _)) if (&*p, &*t) != (&pareto, &tab02) => {
                return Err("explore: a pass produced different CSV bytes".into())
            }
            Some(_) => {}
        }
        Ok(())
    });
    untraced.account(report);
    let [first] = first;
    if let Some((pareto, tab02, _)) = &first {
        pins.check(report, "pareto.csv", ctx.cap, pareto);
        pins.check(report, "tab02_explore.csv", ctx.cap, tab02);
    }
    if !ctx.trace {
        let rss = first.map_or(f64::NAN, |(_, _, rss)| rss);
        return untraced.end_to_end(ctx, report, setup_s, rss);
    }

    let before = trace_cache_stats();
    let (traced, journals) = traced_loop(ctx, |journal| explore_pass(ctx, &ctx.tracer, journal));
    layers::trace_cache(report, before);
    traced.account(report);
    let passes = traced
        .ops
        .iter()
        .map(|(_, (_, pareto, tab02))| (pareto, tab02));
    check_passes(
        report,
        &pins,
        ctx.cap,
        "pareto.csv",
        passes.clone().map(|(p, _)| p),
    );
    check_passes(
        report,
        &pins,
        ctx.cap,
        "tab02_explore.csv",
        passes.map(|(_, t)| t),
    );
    traced.trace_overhead(ctx, &untraced, report);
    let (_, (explored, pareto, _)) = traced
        .ops
        .last()
        .ok_or("no traced explore pass completed")?;
    let summary = explored
        .summary
        .as_ref()
        .ok_or("the explorer simulated nothing")?;
    layers::runner(report, &journals)?;
    let results: Vec<_> = summary.ok_cells().cloned().collect();
    layers::checkpoint(ctx, report, &results, pareto)?;
    probe_layers(ctx, report, &pins, Some(summary))
}
