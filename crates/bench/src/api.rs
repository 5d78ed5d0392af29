//! The typed host-API boundary between experiment front-ends.
//!
//! Four front-ends run sweeps: the per-figure CLI binaries
//! (`fig13_ipc`, `fig15_clustered`, …), the `ce-explore` design-space
//! explorer, `make_report`, and the `cesimd` experiment service. They
//! must be *provably the same computation* — the acceptance bar is
//! byte-identical CSVs no matter which front door a sweep came through.
//! This module is how: every preset's job grid, [`RunOptions`], and CSV
//! renderer lives here exactly once (the three CLI front-ends run them
//! through one driver, [`crate::cli::drive`]), and the wire types
//! ([`JobSpec`], [`JobEvent`], [`JobOutcome`]) the daemon and `cesimctl`
//! exchange resolve onto those same plans.
//!
//! ## Wire protocol (newline-delimited JSON over a Unix socket)
//!
//! A client sends one request line and reads event lines until the
//! connection closes:
//!
//! ```text
//! → {"op": "submit", "spec": {"sweep": "fig13"}}
//! ← {"ev": "accepted", "job": 3, "cells": 14, "degraded": false}
//! ← {"ev": "cell", "job": 3, "cell": 0, "source": "cache"}
//! ← {"ev": "cell", "job": 3, "cell": 1, "source": "run"}
//! ...
//! ← {"ev": "done", "job": 3, "ok": 14, "failed": 0, ...,
//!    "artifacts": [{"name": "fig13_ipc.csv", "content": "benchmark,..."}]}
//! ```
//!
//! Other ops: `{"op": "status"}`, `{"op": "ping"}`, `{"op": "shutdown"}`.
//! Failures come back as `{"ev": "error", "kind": "...", "message": ...}`
//! with the kinds the exit-discipline greps for: `overloaded` (admission
//! refused), `proto` (unparseable, oversized, or unknown request — the
//! connection stays open and the daemon keeps serving), `config-invalid`
//! (unknown preset/machine/benchmark), `io` (daemon-side disk failure).
//!
//! A custom sweep names cells explicitly, using the [`machine`] registry
//! vocabulary `cesim --machine` shares:
//!
//! ```text
//! {"op": "submit", "spec": {"cells": [{"bench": "compress", "machine": "window"}],
//!  "attribution": true, "max_insts": 20000}}
//! ```

use std::fmt::Write as _;

use ce_core::analysis::{MachineSpec, Speedup};
use ce_delay::{FeatureSize, Technology};
use ce_sim::{machine, SamplingConfig, SimConfig, StallCause};
use ce_workloads::Benchmark;

use crate::explore::{self, GridScale};
use crate::json::{self, Json};
use crate::runner::{grid, Job, RunOptions, SweepSummary};

/// The preset sweeps the service and the CLI binaries both know, by
/// stable wire name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    /// Figure 13: baseline window vs dependence-based FIFOs (8-way).
    Fig13,
    /// Figure 15: baseline window vs 2×4 clustered FIFOs + speedup.
    Fig15,
    /// Figure 17: the five clustered organizations of Section 5.6.
    Fig17,
    /// Scheduler occupancy and stall anatomy across four organizations.
    Occupancy,
    /// The design-space explorer on its CI grid (sampled).
    ExploreTiny,
    /// The design-space explorer on the full grid (sampled).
    ExploreFull,
}

impl SweepKind {
    /// All presets, in a stable order.
    pub fn all() -> [SweepKind; 6] {
        [
            SweepKind::Fig13,
            SweepKind::Fig15,
            SweepKind::Fig17,
            SweepKind::Occupancy,
            SweepKind::ExploreTiny,
            SweepKind::ExploreFull,
        ]
    }

    /// The stable wire name (`{"sweep": "<name>"}`).
    pub fn name(self) -> &'static str {
        match self {
            SweepKind::Fig13 => "fig13",
            SweepKind::Fig15 => "fig15",
            SweepKind::Fig17 => "fig17",
            SweepKind::Occupancy => "occupancy",
            SweepKind::ExploreTiny => "explore-tiny",
            SweepKind::ExploreFull => "explore-full",
        }
    }

    /// Looks a preset up by wire name.
    pub fn from_name(name: &str) -> Option<SweepKind> {
        SweepKind::all().into_iter().find(|k| k.name() == name)
    }
}

/// The Figure 13 machine pair, labels included (the `fig13_ipc` binary
/// and the service both plan from this).
pub fn fig13_machines() -> [(&'static str, SimConfig); 2] {
    [("window", machine::baseline_8way()), ("fifos", machine::dependence_8way())]
}

/// The Figure 15 machine pair.
pub fn fig15_machines() -> [(&'static str, SimConfig); 2] {
    [("window", machine::baseline_8way()), ("2x4", machine::clustered_fifos_8way())]
}

/// The four organizations of the occupancy report.
pub fn occupancy_machines() -> [(&'static str, SimConfig); 4] {
    [
        ("window", machine::baseline_8way()),
        ("fifos", machine::dependence_8way()),
        ("2c-fifos", machine::clustered_fifos_8way()),
        ("2c-windows", machine::clustered_windows_dispatch_8way()),
    ]
}

/// A preset's exact computation: the job grid and per-cell options.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// The cells, in the order the renderers consume them.
    pub jobs: Vec<Job>,
    /// Per-cell run options (part of the cache key — attribution and
    /// sampling change results, so they change identity).
    pub run: RunOptions,
}

/// The plan for a preset — the single source of truth the CLI binaries
/// and the service share.
pub fn plan(kind: SweepKind) -> SweepPlan {
    let attributed = RunOptions { attribution: true, ..RunOptions::default() };
    match kind {
        SweepKind::Fig13 => SweepPlan { jobs: grid(&fig13_machines()), run: attributed },
        SweepKind::Fig15 => {
            SweepPlan { jobs: grid(&fig15_machines()), run: RunOptions::default() }
        }
        SweepKind::Fig17 => {
            SweepPlan { jobs: grid(&machine::figure17_machines()), run: attributed }
        }
        SweepKind::Occupancy => {
            SweepPlan { jobs: grid(&occupancy_machines()), run: attributed }
        }
        SweepKind::ExploreTiny | SweepKind::ExploreFull => {
            let scale = explore_scale(kind).expect("explore kind");
            SweepPlan { jobs: explore::explore_jobs(scale), run: explore::run_options(false) }
        }
    }
}

/// The grid scale behind an explore preset (`None` for figure presets).
pub fn explore_scale(kind: SweepKind) -> Option<GridScale> {
    match kind {
        SweepKind::ExploreTiny => Some(GridScale::Tiny),
        SweepKind::ExploreFull => Some(GridScale::Full),
        _ => None,
    }
}

/// `results/fig13_ipc.csv`, byte-for-byte what the `fig13_ipc` binary
/// writes. Precondition (all renderers): `summary.all_ok()` over the
/// preset's [`plan`].
pub fn fig13_csv(summary: &SweepSummary) -> String {
    let mut csv = String::from("benchmark,window_ipc,dependence_ipc\n");
    let mut results = summary.ok_cells().map(|r| &r.stats);
    for bench in Benchmark::all() {
        let win = results.next().expect("window cell");
        let dep = results.next().expect("fifos cell");
        let _ = writeln!(csv, "{},{:.3},{:.3}", bench.name(), win.ipc(), dep.ipc());
    }
    csv
}

/// The Section 5.5 clock-adjusted speedup of each kernel's Figure 15
/// pair at 0.18 µm, in benchmark order.
pub fn fig15_speedups(summary: &SweepSummary) -> Vec<Speedup> {
    let tech = Technology::new(FeatureSize::U018);
    let ipcs: Vec<f64> = summary.ok_cells().map(|r| r.stats.ipc()).collect();
    ipcs.chunks(2)
        .map(|pair| {
            Speedup::combine(&tech, MachineSpec::paper_dependence_machine(), pair[0], pair[1])
        })
        .collect()
}

/// `results/fig15_clustered.csv`, byte-for-byte what the
/// `fig15_clustered` binary writes.
pub fn fig15_csv(summary: &SweepSummary) -> String {
    let mut csv = String::from("benchmark,window_ipc,clustered_ipc,ic_bypass_pct,speedup\n");
    let mut results = summary.ok_cells().map(|r| &r.stats);
    for (bench, s) in Benchmark::all().into_iter().zip(fig15_speedups(summary)) {
        let win = results.next().expect("window cell");
        let dep = results.next().expect("clustered cell");
        let _ = writeln!(
            csv,
            "{},{:.3},{:.3},{:.1},{:.3}",
            bench.name(),
            win.ipc(),
            dep.ipc(),
            dep.intercluster_bypass_frequency() * 100.0,
            s.speedup
        );
    }
    csv
}

/// The short column label of a Figure 17 organization in console tables.
pub fn fig17_short_name(name: &str) -> &str {
    match name {
        "1-cluster.1window" => "ideal",
        "2-cluster.FIFOs.dispatch_steer" => "fifo-disp",
        "2-cluster.windows.dispatch_steer" => "win-disp",
        "2-cluster.1window.exec_steer" => "exec-steer",
        "2-cluster.windows.random_steer" => "random",
        other => other,
    }
}

/// `results/fig17_organizations.csv`, byte-for-byte what the
/// `fig17_organizations` binary writes.
pub fn fig17_csv(summary: &SweepSummary) -> String {
    let machines = machine::figure17_machines();
    let mut csv = String::from("benchmark,machine,ipc,ic_bypass_pct\n");
    let mut results = summary.ok_cells().map(|r| &r.stats);
    for bench in Benchmark::all() {
        for (name, _) in &machines {
            let stats = results.next().expect("one result per cell");
            let _ = writeln!(
                csv,
                "{},{},{:.3},{:.1}",
                bench.name(),
                name,
                stats.ipc(),
                stats.intercluster_bypass_frequency() * 100.0
            );
        }
    }
    csv
}

/// The `occupancy` binary's CSV (`results/occupancy.csv` by default;
/// not committed).
pub fn occupancy_csv(summary: &SweepSummary) -> String {
    let machines = occupancy_machines();
    let mut csv = String::from(
        "benchmark,machine,ipc,occupancy,sched_stalls,inflight_stalls,preg_stalls,\
         idle_pct,operand_pct,fifohead_pct,empty_pct\n",
    );
    let mut results = summary.ok_cells().map(|r| &r.stats);
    for bench in Benchmark::all() {
        for (name, cfg) in &machines {
            let stats = results.next().expect("one result per cell");
            let slots = cfg.issue_width as u64 * stats.cycles;
            let pct = |cause: StallCause| {
                stats.stall_breakdown.get(cause) as f64 / slots as f64 * 100.0
            };
            let _ = writeln!(
                csv,
                "{},{},{:.3},{:.1},{},{},{},{:.1},{:.1},{:.1},{:.1}",
                bench.name(),
                name,
                stats.ipc(),
                stats.mean_occupancy(),
                stats.scheduler_stalls,
                stats.inflight_stalls,
                stats.preg_stalls,
                stats.idle_issue_fraction() * 100.0,
                pct(StallCause::OperandWait),
                pct(StallCause::FifoHeadNotReady),
                pct(StallCause::EmptyWindow)
            );
        }
    }
    csv
}

/// `results/stall_report.csv` from the [`SweepKind::Fig17`] plan: per
/// cell, cycles, issued and issue slots, the used-slot share, and the
/// issue slots charged to each stall cause.
pub fn stall_report_csv(summary: &SweepSummary) -> String {
    let mut csv = String::from("benchmark,machine,cycles,issued,issue_slots,used_pct");
    for cause in StallCause::ALL {
        let _ = write!(csv, ",{}", cause.key());
    }
    csv.push('\n');
    let machines = machine::figure17_machines();
    let mut results = summary.ok_cells().map(|r| &r.stats);
    for bench in Benchmark::all() {
        for (name, cfg) in &machines {
            let stats = results.next().expect("one result per cell");
            let slots = cfg.issue_width as u64 * stats.cycles;
            let _ = write!(
                csv,
                "{},{},{},{},{},{:.2}",
                bench.name(),
                name,
                stats.cycles,
                stats.issued,
                slots,
                stats.issued as f64 / slots as f64 * 100.0
            );
            for cause in StallCause::ALL {
                let _ = write!(csv, ",{}", stats.stall_breakdown.get(cause));
            }
            csv.push('\n');
        }
    }
    csv
}

/// The artifact set a completed preset sweep produces, as `(file name,
/// content)` pairs — the same bytes the corresponding CLI binary writes
/// next to its manifest. Precondition: `summary.all_ok()`.
pub fn preset_artifacts(kind: SweepKind, summary: &SweepSummary) -> Vec<(String, String)> {
    match kind {
        SweepKind::Fig13 => vec![("fig13_ipc.csv".into(), fig13_csv(summary))],
        SweepKind::Fig15 => vec![("fig15_clustered.csv".into(), fig15_csv(summary))],
        SweepKind::Fig17 => vec![("fig17_organizations.csv".into(), fig17_csv(summary))],
        SweepKind::Occupancy => vec![("occupancy.csv".into(), occupancy_csv(summary))],
        SweepKind::ExploreTiny | SweepKind::ExploreFull => {
            let scale = explore_scale(kind).expect("explore kind");
            let report = explore::score(scale, false, Some(summary.clone()));
            vec![
                ("pareto.csv".into(), explore::pareto_csv(&report)),
                ("tab02_explore.csv".into(), explore::tab02_explore_csv(&report)),
            ]
        }
    }
}

/// One explicitly-named cell of a custom sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// The benchmark, by [`Benchmark::name`].
    pub bench: Benchmark,
    /// The machine, by [`machine::MACHINE_NAMES`] vocabulary.
    pub machine: String,
}

/// What a client asked the service to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepRequest {
    /// A named preset ([`plan`] defines the computation).
    Preset(SweepKind),
    /// An explicit cell list with its own options.
    Cells {
        /// The cells, in submission order.
        cells: Vec<CellSpec>,
        /// Enable stall attribution on every cell.
        attribution: bool,
        /// Run cells under default-geometry sampled simulation.
        sampled: bool,
    },
}

/// A job submission: what to run and under which limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The sweep to run.
    pub request: SweepRequest,
    /// Per-benchmark instruction cap; `None` uses the daemon's ambient
    /// [`crate::max_insts`].
    pub max_insts: Option<u64>,
    /// Per-cell wall-clock deadline, milliseconds (maps onto
    /// [`crate::runner::RunPolicy::cell_timeout`]).
    pub deadline_ms: Option<u64>,
    /// Allow the daemon to degrade this job to sampled mode under queue
    /// pressure instead of rejecting it.
    pub allow_degraded: bool,
    /// Display tag for telemetry and logs (defaults to the preset name
    /// or `cells`).
    pub tag: Option<String>,
}

impl JobSpec {
    /// A preset submission with defaults.
    pub fn preset(kind: SweepKind) -> JobSpec {
        JobSpec {
            request: SweepRequest::Preset(kind),
            max_insts: None,
            deadline_ms: None,
            allow_degraded: false,
            tag: None,
        }
    }

    /// The display name used for telemetry journals and logs.
    pub fn display_name(&self) -> String {
        if let Some(tag) = &self.tag {
            return tag.clone();
        }
        match &self.request {
            SweepRequest::Preset(kind) => kind.name().to_owned(),
            SweepRequest::Cells { .. } => "cells".to_owned(),
        }
    }

    /// Resolves the spec into the concrete computation: job list and run
    /// options. `degraded` forces sampled mode (the admission-control
    /// pressure valve); it is the caller's duty to only set it when
    /// [`JobSpec::allow_degraded`] permits.
    ///
    /// # Errors
    ///
    /// A message naming the unknown machine/benchmark, or an empty cell
    /// list.
    pub fn resolve(&self, degraded: bool) -> Result<SweepPlan, String> {
        let mut plan = match &self.request {
            SweepRequest::Preset(kind) => plan(*kind),
            SweepRequest::Cells { cells, attribution, sampled } => {
                if cells.is_empty() {
                    return Err("a cells sweep needs at least one cell".into());
                }
                let mut jobs = Vec::with_capacity(cells.len());
                for cell in cells {
                    let cfg = machine::by_name(&cell.machine)
                        .ok_or_else(|| format!("unknown machine `{}`", cell.machine))?;
                    jobs.push((cell.bench, cfg));
                }
                SweepPlan {
                    jobs,
                    run: RunOptions {
                        attribution: *attribution,
                        sampled: sampled.then(SamplingConfig::default),
                    },
                }
            }
        };
        if degraded {
            plan.run.sampled = Some(SamplingConfig::default());
        }
        Ok(plan)
    }

    /// The artifacts of a completed run of this spec. Degraded runs
    /// produce no artifacts for figure presets (their CSVs would not be
    /// the committed bytes); explore presets and custom sweeps render
    /// normally — sampling is their stated mode.
    pub fn artifacts(&self, degraded: bool, summary: &SweepSummary) -> Vec<(String, String)> {
        match &self.request {
            SweepRequest::Preset(kind) => {
                if degraded && explore_scale(*kind).is_none() {
                    return Vec::new();
                }
                preset_artifacts(*kind, summary)
            }
            SweepRequest::Cells { cells, .. } => {
                let mut csv = String::from("benchmark,machine,ipc,cycles,committed\n");
                for (cell, result) in cells.iter().zip(summary.ok_cells()) {
                    let _ = writeln!(
                        csv,
                        "{},{},{:.3},{},{}",
                        cell.bench.name(),
                        cell.machine,
                        result.stats.ipc(),
                        result.stats.cycles,
                        result.stats.committed
                    );
                }
                vec![("cells.csv".into(), csv)]
            }
        }
    }

    /// Serializes the spec as one JSON object (the `spec` field of a
    /// submit request, and the WAL's record of the job).
    pub fn to_json(&self) -> String {
        let mut body = String::new();
        match &self.request {
            SweepRequest::Preset(kind) => {
                let _ = write!(body, "\"sweep\": \"{}\"", kind.name());
            }
            SweepRequest::Cells { cells, attribution, sampled } => {
                let cells_json = cells
                    .iter()
                    .map(|c| {
                        format!(
                            "{{\"bench\": \"{}\", \"machine\": \"{}\"}}",
                            c.bench.name(),
                            json::escape(&c.machine)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = write!(
                    body,
                    "\"cells\": [{cells_json}], \"attribution\": {attribution}, \
                     \"sampled\": {sampled}"
                );
            }
        }
        if let Some(n) = self.max_insts {
            let _ = write!(body, ", \"max_insts\": {n}");
        }
        if let Some(ms) = self.deadline_ms {
            let _ = write!(body, ", \"deadline_ms\": {ms}");
        }
        if self.allow_degraded {
            body.push_str(", \"allow_degraded\": true");
        }
        if let Some(tag) = &self.tag {
            let _ = write!(body, ", \"tag\": \"{}\"", json::escape(tag));
        }
        format!("{{{body}}}")
    }

    /// Parses a spec object (the inverse of [`JobSpec::to_json`]).
    ///
    /// # Errors
    ///
    /// A message naming what is missing or unknown.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        let request = if let Some(name) = doc.at("sweep").and_then(Json::as_str) {
            SweepRequest::Preset(
                SweepKind::from_name(name).ok_or_else(|| format!("unknown sweep `{name}`"))?,
            )
        } else if let Some(cells) = doc.at("cells").and_then(Json::as_arr) {
            let mut parsed = Vec::with_capacity(cells.len());
            for cell in cells {
                let bench_name = cell
                    .at("bench")
                    .and_then(Json::as_str)
                    .ok_or("cell without `bench`")?;
                let bench = Benchmark::from_name(bench_name)
                    .ok_or_else(|| format!("unknown benchmark `{bench_name}`"))?;
                let machine = cell
                    .at("machine")
                    .and_then(Json::as_str)
                    .ok_or("cell without `machine`")?
                    .to_owned();
                parsed.push(CellSpec { bench, machine });
            }
            SweepRequest::Cells {
                cells: parsed,
                attribution: doc.at("attribution").and_then(Json::as_bool).unwrap_or(false),
                sampled: doc.at("sampled").and_then(Json::as_bool).unwrap_or(false),
            }
        } else {
            return Err("spec needs `sweep` or `cells`".into());
        };
        Ok(JobSpec {
            request,
            max_insts: doc.at("max_insts").and_then(Json::as_u64),
            deadline_ms: doc.at("deadline_ms").and_then(Json::as_u64),
            allow_degraded: doc.at("allow_degraded").and_then(Json::as_bool).unwrap_or(false),
            tag: doc.at("tag").and_then(Json::as_str).map(str::to_owned),
        })
    }
}

/// Where a settled cell's result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSource {
    /// Served from the content-addressed result store.
    Cache,
    /// Freshly simulated this job.
    Run,
}

impl CellSource {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            CellSource::Cache => "cache",
            CellSource::Run => "run",
        }
    }
}

/// The terminal summary of a job, carried inline in the `done` event so
/// a client needs no filesystem access to the daemon's state directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobOutcome {
    /// Cells with results.
    pub ok: usize,
    /// Cells that failed (structured failure strings below).
    pub failed: usize,
    /// Cells served from the result store.
    pub cache_hits: usize,
    /// Cells that had to simulate.
    pub cache_misses: usize,
    /// Whether the job ran degraded (sampled under queue pressure).
    pub degraded: bool,
    /// `(file name, content)` artifact pairs (empty when cells failed).
    pub artifacts: Vec<(String, String)>,
    /// Human-readable per-cell failure reports.
    pub failures: Vec<String>,
}

/// One event on a job's stream, daemon → client.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// The job passed admission and is queued.
    Accepted {
        /// Daemon-assigned job id.
        job: u64,
        /// Cells the resolved plan contains.
        cells: usize,
        /// Whether admission degraded the job to sampled mode.
        degraded: bool,
    },
    /// One cell settled (planning classified it as a cache hit, or a
    /// worker finished simulating it).
    Cell {
        /// Daemon-assigned job id.
        job: u64,
        /// Input-order cell index.
        cell: usize,
        /// Cache or fresh run.
        source: CellSource,
    },
    /// The job finished.
    Done {
        /// Daemon-assigned job id.
        job: u64,
        /// The full outcome, artifacts inline.
        outcome: JobOutcome,
    },
    /// The request failed; `kind` is machine-readable (`overloaded`,
    /// `proto`, `config-invalid`, `io`).
    Error {
        /// Stable error kind.
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

impl JobEvent {
    /// Serializes the event as one wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            JobEvent::Accepted { job, cells, degraded } => format!(
                "{{\"ev\": \"accepted\", \"job\": {job}, \"cells\": {cells}, \
                 \"degraded\": {degraded}}}"
            ),
            JobEvent::Cell { job, cell, source } => format!(
                "{{\"ev\": \"cell\", \"job\": {job}, \"cell\": {cell}, \
                 \"source\": \"{}\"}}",
                source.name()
            ),
            JobEvent::Done { job, outcome } => {
                let artifacts = outcome
                    .artifacts
                    .iter()
                    .map(|(name, content)| {
                        format!(
                            "{{\"name\": \"{}\", \"content\": \"{}\"}}",
                            json::escape(name),
                            json::escape(content)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                let failures = outcome
                    .failures
                    .iter()
                    .map(|f| format!("\"{}\"", json::escape(f)))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "{{\"ev\": \"done\", \"job\": {job}, \"ok\": {}, \"failed\": {}, \
                     \"cache_hits\": {}, \"cache_misses\": {}, \"degraded\": {}, \
                     \"artifacts\": [{artifacts}], \"failures\": [{failures}]}}",
                    outcome.ok,
                    outcome.failed,
                    outcome.cache_hits,
                    outcome.cache_misses,
                    outcome.degraded,
                )
            }
            JobEvent::Error { kind, message } => format!(
                "{{\"ev\": \"error\", \"kind\": \"{}\", \"message\": \"{}\"}}",
                json::escape(kind),
                json::escape(message)
            ),
        }
    }

    /// Parses one wire line (the inverse of [`JobEvent::to_json`]).
    ///
    /// # Errors
    ///
    /// A message naming what is malformed.
    pub fn from_json(doc: &Json) -> Result<JobEvent, String> {
        let ev = doc.at("ev").and_then(Json::as_str).ok_or("event without `ev`")?;
        let num = |key: &str| {
            doc.at(key).and_then(Json::as_u64).ok_or_else(|| format!("missing `{key}`"))
        };
        Ok(match ev {
            "accepted" => JobEvent::Accepted {
                job: num("job")?,
                cells: num("cells")? as usize,
                degraded: doc.at("degraded").and_then(Json::as_bool).unwrap_or(false),
            },
            "cell" => JobEvent::Cell {
                job: num("job")?,
                cell: num("cell")? as usize,
                source: match doc.at("source").and_then(Json::as_str) {
                    Some("cache") => CellSource::Cache,
                    Some("run") => CellSource::Run,
                    other => return Err(format!("bad cell source {other:?}")),
                },
            },
            "done" => {
                let mut artifacts = Vec::new();
                for a in doc.at("artifacts").and_then(Json::as_arr).unwrap_or(&[]) {
                    let name =
                        a.at("name").and_then(Json::as_str).ok_or("artifact without name")?;
                    let content = a
                        .at("content")
                        .and_then(Json::as_str)
                        .ok_or("artifact without content")?;
                    artifacts.push((name.to_owned(), content.to_owned()));
                }
                let failures = doc
                    .at("failures")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Json::as_str)
                    .map(str::to_owned)
                    .collect();
                JobEvent::Done {
                    job: num("job")?,
                    outcome: JobOutcome {
                        ok: num("ok")? as usize,
                        failed: num("failed")? as usize,
                        cache_hits: num("cache_hits")? as usize,
                        cache_misses: num("cache_misses")? as usize,
                        degraded: doc.at("degraded").and_then(Json::as_bool).unwrap_or(false),
                        artifacts,
                        failures,
                    },
                }
            }
            "error" => JobEvent::Error {
                kind: doc
                    .at("kind")
                    .and_then(Json::as_str)
                    .ok_or("error without kind")?
                    .to_owned(),
                message: doc
                    .at("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned(),
            },
            other => return Err(format!("unknown event `{other}`")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_sweep_ft, SweepOptions};

    /// Every preset's wire name round-trips, and every plan is non-empty
    /// with the options the corresponding binary uses (attribution for
    /// fig13/fig17/occupancy, plain for fig15, sampled for explore).
    #[test]
    fn preset_names_and_plans() {
        for kind in SweepKind::all() {
            assert_eq!(SweepKind::from_name(kind.name()), Some(kind));
            let plan = plan(kind);
            assert!(!plan.jobs.is_empty(), "{kind:?}");
        }
        assert_eq!(SweepKind::from_name("nope"), None);
        assert!(plan(SweepKind::Fig13).run.attribution);
        assert!(!plan(SweepKind::Fig15).run.attribution);
        assert!(plan(SweepKind::Fig17).run.attribution);
        assert!(plan(SweepKind::Occupancy).run.attribution);
        assert!(plan(SweepKind::ExploreTiny).run.sampled.is_some());
        assert_eq!(plan(SweepKind::Fig13).jobs.len(), 14);
        assert_eq!(plan(SweepKind::Fig17).jobs.len(), 35);
    }

    /// Specs round-trip through their JSON wire form, including custom
    /// cells with options.
    #[test]
    fn job_specs_round_trip() {
        let preset = JobSpec {
            max_insts: Some(20_000),
            deadline_ms: Some(5_000),
            allow_degraded: true,
            tag: Some("nightly \"q\"".into()),
            ..JobSpec::preset(SweepKind::ExploreTiny)
        };
        let parsed = JobSpec::from_json(&Json::parse(&preset.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, preset);
        assert_eq!(parsed.display_name(), "nightly \"q\"");

        let cells = JobSpec {
            request: SweepRequest::Cells {
                cells: vec![
                    CellSpec { bench: Benchmark::Compress, machine: "window".into() },
                    CellSpec { bench: Benchmark::Li, machine: "fifos".into() },
                ],
                attribution: true,
                sampled: false,
            },
            max_insts: None,
            deadline_ms: None,
            allow_degraded: false,
            tag: None,
        };
        let parsed = JobSpec::from_json(&Json::parse(&cells.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, cells);
        assert_eq!(parsed.display_name(), "cells");

        let bad = Json::parse("{\"sweep\": \"nope\"}").unwrap();
        assert!(JobSpec::from_json(&bad).is_err());
        let empty = Json::parse("{}").unwrap();
        assert!(JobSpec::from_json(&empty).is_err());
    }

    /// Resolution maps machine names through the registry, rejects
    /// unknowns, and the degraded flag forces sampled mode.
    #[test]
    fn resolution_and_degradation() {
        let spec = JobSpec {
            request: SweepRequest::Cells {
                cells: vec![CellSpec { bench: Benchmark::Compress, machine: "window".into() }],
                attribution: false,
                sampled: false,
            },
            ..JobSpec::preset(SweepKind::Fig13)
        };
        let plan = spec.resolve(false).unwrap();
        assert_eq!(plan.jobs.len(), 1);
        assert!(plan.run.sampled.is_none());
        let degraded = spec.resolve(true).unwrap();
        assert!(degraded.run.sampled.is_some());

        let bad = JobSpec {
            request: SweepRequest::Cells {
                cells: vec![CellSpec { bench: Benchmark::Compress, machine: "warp".into() }],
                attribution: false,
                sampled: false,
            },
            ..spec.clone()
        };
        let err = bad.resolve(false).unwrap_err();
        assert!(err.contains("warp"), "{err}");
    }

    /// The shared renderers produce the same bytes the binaries' inline
    /// loops produce — pinned here for fig13 by re-deriving the CSV from
    /// the same summary the renderer consumes.
    #[test]
    fn fig13_renderer_matches_inline_derivation() {
        let plan = plan(SweepKind::Fig13);
        let summary = run_sweep_ft(
            &plan.jobs,
            2_000,
            &SweepOptions { run: plan.run, ..SweepOptions::default() },
        )
        .unwrap();
        assert!(summary.all_ok());
        let csv = fig13_csv(&summary);
        let mut expect = String::from("benchmark,window_ipc,dependence_ipc\n");
        let mut results = summary.ok_cells().map(|r| &r.stats);
        for bench in Benchmark::all() {
            let win = results.next().unwrap();
            let dep = results.next().unwrap();
            let _ = writeln!(expect, "{},{:.3},{:.3}", bench.name(), win.ipc(), dep.ipc());
        }
        assert_eq!(csv, expect);
        let arts = JobSpec::preset(SweepKind::Fig13).artifacts(false, &summary);
        assert_eq!(arts.len(), 1);
        assert_eq!(arts[0].0, "fig13_ipc.csv");
        assert_eq!(arts[0].1, csv);
        // A degraded figure preset withholds its artifacts.
        assert!(JobSpec::preset(SweepKind::Fig13).artifacts(true, &summary).is_empty());
    }

    /// Events round-trip, artifacts (with embedded CSV newlines) intact.
    #[test]
    fn job_events_round_trip() {
        let events = [
            JobEvent::Accepted { job: 7, cells: 14, degraded: false },
            JobEvent::Cell { job: 7, cell: 3, source: CellSource::Cache },
            JobEvent::Cell { job: 7, cell: 4, source: CellSource::Run },
            JobEvent::Done {
                job: 7,
                outcome: JobOutcome {
                    ok: 13,
                    failed: 1,
                    cache_hits: 9,
                    cache_misses: 5,
                    degraded: true,
                    artifacts: vec![("a.csv".into(), "h1,h2\n1,2\n".into())],
                    failures: vec!["cell 5 (li): timeout: too slow".into()],
                },
            },
            JobEvent::Error { kind: "overloaded".into(), message: "queue full (8 jobs)".into() },
        ];
        for ev in &events {
            let line = ev.to_json();
            let parsed = JobEvent::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(&parsed, ev, "{line}");
        }
    }
}
