//! Closed-loop design-space explorer: clock from the delay models, IPC
//! from the simulator, BIPS as the objective.
//!
//! The paper's closing argument (Section 6) is that microarchitects must
//! optimize the *product* of clock speed and IPC, not either alone. The
//! repo already measures both sides separately — `ce-delay` prices the
//! critical structures, `ce-sim` prices the IPC cost of simplifying them —
//! and this module finally closes the loop: it enumerates the joint design
//! space
//!
//! * issue width × {central window size | FIFO count × depth | steered
//!   window shape} × cluster count × steering heuristic (the simulator
//!   side), crossed with
//! * technology node 0.8/0.35/0.18 µm (the delay side),
//!
//! computing for every point the clock period implied by
//! [`MachineClock`], the harmonic-mean IPC over the seven bundled kernels
//! (sampled simulation by default, exact with `--full`), and the resulting
//! **BIPS = IPC × 1000 / clock_ps** (instructions per nanosecond, i.e.
//! billions of instructions per second at the modeled clock).
//!
//! ## Skip taxonomy — no silent holes
//!
//! A joint grid necessarily contains corners one side cannot price. Every
//! such point appears in the output as a **structured skip**, never a
//! panic and never a silently missing row:
//!
//! * `skip-delay` — the delay model refused the geometry
//!   ([`DelayError`], e.g. a window outside the modeled domain);
//! * `skip-sim` — the simulator refused the configuration
//!   ([`SimConfig::validate`], e.g. more than 128 issue FIFOs).
//!
//! Both grids deliberately include one probe of each kind, so the smoke
//! test can assert the skip machinery works by counting exactly the
//! expected skips.
//!
//! ## Fault tolerance
//!
//! The IPC half runs through [`run_sweep_ft`], so the explorer inherits
//! the checkpoint journal (kill it mid-sweep, rerun with `--resume`, get
//! byte-identical CSVs) and the longest-first parallel runner
//! (`CE_THREADS` scales it, results never depend on worker count).

use std::path::PathBuf;

use ce_delay::{DelayError, FeatureSize, MachineClock, MachineParams, SchedulerGeometry, Technology};
use ce_sim::{machine, SamplingConfig, SchedulerKind, SimConfig, SteeringPolicy};
use ce_workloads::Benchmark;

use crate::checkpoint::CheckpointSpec;
use crate::runner::{run_sweep_ft, Job, RunOptions, RunPolicy, SweepOptions, SweepSummary};
use crate::telemetry::Telemetry;
use std::fmt::Write as _;

/// Which slice of the joint design space to enumerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridScale {
    /// The five Figure 17 organizations, the unclustered FIFO machine,
    /// and the two skip probes — small enough for CI smoke runs, rich
    /// enough to exercise every code path (8 organizations, 24 design
    /// points, 6 of them structured skips).
    Tiny,
    /// The full joint space: widths {2,4,8,16} × clusters {1,2} ×
    /// {5 central windows, 9 FIFO shapes × 4 steering heuristics,
    /// 4 steered-window shapes × 2 heuristics} plus the probes —
    /// 394 organizations, 1182 design points across the three
    /// technologies.
    Full,
}

impl std::str::FromStr for GridScale {
    type Err = String;
    fn from_str(s: &str) -> Result<GridScale, String> {
        match s {
            "tiny" => Ok(GridScale::Tiny),
            "full" => Ok(GridScale::Full),
            other => Err(format!("unknown grid `{other}` (expected tiny or full)")),
        }
    }
}

/// One candidate organization: a simulator configuration plus the stable
/// label the CSVs key on.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// Stable machine-readable label, e.g. `w8.c2.fifo4x8.dep`.
    pub label: String,
    /// The simulator half of the point.
    pub cfg: SimConfig,
}

/// Short stable label for a scheduler shape (`win64`, `swin8x4`,
/// `fifo4x8`).
fn scheduler_label(s: SchedulerKind) -> String {
    match s {
        SchedulerKind::CentralWindow { size } => format!("win{size}"),
        SchedulerKind::SteeredWindows { fifos_per_cluster, fifo_depth } => {
            format!("swin{fifos_per_cluster}x{fifo_depth}")
        }
        SchedulerKind::Fifos { fifos_per_cluster, depth } => {
            format!("fifo{fifos_per_cluster}x{depth}")
        }
    }
}

/// Short stable label for a steering heuristic.
fn steering_label(s: SteeringPolicy) -> &'static str {
    match s {
        SteeringPolicy::Dependence => "dep",
        SteeringPolicy::Random { .. } => "rand",
        SteeringPolicy::RoundRobin => "rr",
        SteeringPolicy::LoadBalanced => "lb",
    }
}

/// Builds one design point from the baseline machine: the fetch and
/// retire bandwidths scale with the issue width (Table 3's 8-way machine
/// fetches 8 and retires 16), everything else keeps its Table 3 value.
fn point(
    issue_width: usize,
    clusters: usize,
    scheduler: SchedulerKind,
    steering: SteeringPolicy,
) -> DesignPoint {
    let cfg = SimConfig {
        issue_width,
        fetch_width: issue_width,
        retire_width: 2 * issue_width,
        clusters,
        scheduler,
        steering,
        ..machine::baseline_8way()
    };
    DesignPoint {
        label: format!(
            "w{issue_width}.c{clusters}.{}.{}",
            scheduler_label(scheduler),
            steering_label(steering)
        ),
        cfg,
    }
}

/// The two deliberate skip probes, present in every grid: one point only
/// the delay model refuses (2048-entry window, outside
/// [`ce_delay::error::domain::WINDOW_SIZE`]) and one point only the
/// simulator refuses (96 FIFOs × 2 clusters, over its 128-FIFO bitmap).
/// They pin the skip taxonomy: 3 `skip-delay` rows + 3 `skip-sim` rows
/// per run, one per technology.
fn skip_probes() -> [DesignPoint; 2] {
    [
        point(8, 1, SchedulerKind::CentralWindow { size: 2048 }, SteeringPolicy::Dependence),
        point(
            8,
            2,
            SchedulerKind::Fifos { fifos_per_cluster: 96, depth: 4 },
            SteeringPolicy::Dependence,
        ),
    ]
}

/// Enumerates the design points of a grid, probes included, in the fixed
/// order the CSVs use.
pub fn grid(scale: GridScale) -> Vec<DesignPoint> {
    let mut points = Vec::new();
    match scale {
        GridScale::Tiny => {
            // The five Figure 17 organizations in grid vocabulary, plus
            // the paper's unclustered FIFO machine.
            points.push(point(
                8,
                1,
                SchedulerKind::CentralWindow { size: 64 },
                SteeringPolicy::Dependence,
            ));
            points.push(point(
                8,
                1,
                SchedulerKind::Fifos { fifos_per_cluster: 8, depth: 8 },
                SteeringPolicy::Dependence,
            ));
            points.push(point(
                8,
                2,
                SchedulerKind::Fifos { fifos_per_cluster: 4, depth: 8 },
                SteeringPolicy::Dependence,
            ));
            points.push(point(
                8,
                2,
                SchedulerKind::SteeredWindows { fifos_per_cluster: 8, fifo_depth: 4 },
                SteeringPolicy::Dependence,
            ));
            points.push(point(
                8,
                2,
                SchedulerKind::CentralWindow { size: 64 },
                SteeringPolicy::Dependence,
            ));
            points.push(point(
                8,
                2,
                SchedulerKind::SteeredWindows { fifos_per_cluster: 1, fifo_depth: 32 },
                SteeringPolicy::Random { seed: 0xce11 },
            ));
        }
        GridScale::Full => {
            let random = SteeringPolicy::Random { seed: 0xce11 };
            for issue_width in [2usize, 4, 8, 16] {
                for clusters in [1usize, 2] {
                    // Central windows: steering is execution-driven (the
                    // window ignores the dispatch heuristic), so one
                    // steering entry suffices.
                    for size in [16usize, 32, 64, 128, 256] {
                        points.push(point(
                            issue_width,
                            clusters,
                            SchedulerKind::CentralWindow { size },
                            SteeringPolicy::Dependence,
                        ));
                    }
                    // Dependence-based FIFO machines × every heuristic.
                    for fifos_per_cluster in [2usize, 4, 8] {
                        for depth in [4usize, 8, 16] {
                            for steering in [
                                SteeringPolicy::Dependence,
                                SteeringPolicy::LoadBalanced,
                                SteeringPolicy::RoundRobin,
                                random,
                            ] {
                                points.push(point(
                                    issue_width,
                                    clusters,
                                    SchedulerKind::Fifos { fifos_per_cluster, depth },
                                    steering,
                                ));
                            }
                        }
                    }
                    // Steered 32-entry windows, from many shallow
                    // conceptual FIFOs down to one deep one (the §5.6.3
                    // random-steer shape).
                    for (fifos_per_cluster, fifo_depth) in [(8usize, 4usize), (4, 8), (2, 16), (1, 32)]
                    {
                        for steering in [SteeringPolicy::Dependence, random] {
                            points.push(point(
                                issue_width,
                                clusters,
                                SchedulerKind::SteeredWindows { fifos_per_cluster, fifo_depth },
                                steering,
                            ));
                        }
                    }
                }
            }
        }
    }
    points.extend(skip_probes());
    points
}

/// Maps a simulator configuration onto the delay model's view of the same
/// machine: total scheduler capacity and whether wakeup is a CAM window
/// or a reservation table. Steered windows are flexible windows to the
/// delay model — their FIFO discipline exists only in the steering
/// heuristic, not in the issue hardware.
pub fn machine_params(cfg: &SimConfig) -> MachineParams {
    let (window_size, geometry) = match cfg.scheduler {
        SchedulerKind::CentralWindow { size } => (size, SchedulerGeometry::Window),
        SchedulerKind::SteeredWindows { fifos_per_cluster, fifo_depth } => {
            (fifos_per_cluster * fifo_depth * cfg.clusters, SchedulerGeometry::Window)
        }
        SchedulerKind::Fifos { fifos_per_cluster, depth } => (
            fifos_per_cluster * depth * cfg.clusters,
            SchedulerGeometry::Fifos { fifos_per_cluster },
        ),
    };
    MachineParams {
        issue_width: cfg.issue_width,
        clusters: cfg.clusters,
        window_size,
        geometry,
    }
}

/// Why a design point was not scored, and the evidence.
#[derive(Debug, Clone)]
pub enum Skip {
    /// The delay model refused the geometry for this technology.
    Delay(DelayError),
    /// The simulator refused the configuration (technology-independent).
    Sim(String),
}

impl Skip {
    /// Stable status column value (`skip-delay` / `skip-sim`).
    pub fn status(&self) -> &'static str {
        match self {
            Skip::Delay(_) => "skip-delay",
            Skip::Sim(_) => "skip-sim",
        }
    }

    /// Human-readable reason, comma-sanitized for CSV embedding.
    pub fn reason(&self) -> String {
        match self {
            Skip::Delay(e) => e.to_string().replace(',', ";"),
            Skip::Sim(msg) => msg.replace(',', ";"),
        }
    }
}

/// A fully-scored design point in one technology.
#[derive(Debug, Clone)]
pub struct Scored {
    /// The delay roll-up (rename / window logic / bypass, ps).
    pub clock: MachineClock,
    /// Harmonic-mean IPC over the seven kernels.
    pub ipc: f64,
    /// Total instructions simulated across the seven kernels (sampling
    /// provenance: what the IPC estimate covers).
    pub sim_insts: u64,
    /// BIPS = IPC × 1000 / clock_ps.
    pub bips: f64,
    /// Set during frontier marking: some other scored point in the same
    /// technology has clock ≤ and IPC ≥ with at least one strict.
    pub dominated: bool,
}

/// One row of `pareto.csv`: a design point in one technology, scored or
/// skipped.
#[derive(Debug, Clone)]
pub struct Row {
    /// Index into the grid (rows of one point share it).
    pub point: usize,
    /// The technology node.
    pub tech: FeatureSize,
    /// Scored, or skipped with evidence.
    pub outcome: Result<Scored, Skip>,
}

/// Everything one explorer invocation produced.
#[derive(Debug)]
pub struct ExploreReport {
    /// The enumerated grid, in row order.
    pub points: Vec<DesignPoint>,
    /// One row per point × technology, grid-major.
    pub rows: Vec<Row>,
    /// The sweep summary of the IPC half (`None` when every point was
    /// skipped and no simulation ran).
    pub summary: Option<SweepSummary>,
    /// Whether IPC came from sampled runs (`false` = exact `--full`).
    pub sampled: bool,
    /// The IPC sweep's job list (simulatable point × kernel, the grid the
    /// summary indexes) and per-cell options — what a caller needs to
    /// write a [`crate::manifest`] for the run.
    pub jobs: Vec<Job>,
    /// Per-cell run options the sweep used.
    pub run: RunOptions,
}

/// How to run the explorer.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Grid scale.
    pub scale: GridScale,
    /// Use exact full-detail simulation instead of sampled estimation.
    pub exact: bool,
    /// Per-benchmark instruction cap (callers pass [`crate::max_insts`]).
    pub max_insts: u64,
    /// Checkpoint the IPC sweep here (`None` disables journaling — unit
    /// tests).
    pub checkpoint: Option<CheckpointSpec>,
    /// Engine telemetry sink for the IPC sweep (disabled by default; see
    /// [`crate::telemetry`]).
    pub telemetry: Telemetry,
}

/// The indices of the grid points that become simulation jobs: valid for
/// the simulator and clockable by at least one technology.
fn simulated_indices(points: &[DesignPoint]) -> Vec<usize> {
    let techs = Technology::all();
    (0..points.len())
        .filter(|&i| {
            points[i].cfg.validate().is_ok() && {
                let mp = machine_params(&points[i].cfg);
                techs.iter().any(|t| MachineClock::try_compute(t, &mp).is_ok())
            }
        })
        .collect()
}

/// The grid points [`explore`] simulates, in sweep order: every point
/// except the structured skips. `diffcheck --grid` checks exactly these
/// against the oracle.
pub fn simulated_points(scale: GridScale) -> Vec<DesignPoint> {
    let points = grid(scale);
    simulated_indices(&points).into_iter().map(|i| points[i].clone()).collect()
}

/// The exact sweep jobs [`explore`] will run for this grid scale, in
/// sweep order: every (simulatable point × kernel) cell. Exposed so the
/// `ce-explore` binary can build telemetry ETA weights and the manifest
/// cache key from the same job list the explorer uses.
pub fn explore_jobs(scale: GridScale) -> Vec<Job> {
    let benches = Benchmark::all();
    simulated_points(scale)
        .into_iter()
        .flat_map(|p| benches.iter().map(move |&b| (b, p.cfg)))
        .collect()
}

/// The IPC sweep's per-cell options: sampled at the default geometry, or
/// exact.
pub fn run_options(exact: bool) -> RunOptions {
    RunOptions { sampled: (!exact).then(SamplingConfig::default), ..RunOptions::default() }
}

/// Runs the explorer: enumerate, price the delay side, sweep the IPC
/// side (through the fault-tolerant runner), score, and mark the
/// per-technology Pareto frontier.
///
/// # Errors
///
/// Only checkpoint-journal I/O errors. Simulation failures surface in
/// `report.summary.failures` (and the caller must then withhold the
/// CSVs, matching the [`crate::cli::drive`] policy); grid corners the
/// models refuse are structured skips in `report.rows`, not errors.
pub fn explore(opts: &ExploreOptions) -> std::io::Result<ExploreReport> {
    let jobs = explore_jobs(opts.scale);
    let run = run_options(opts.exact);
    let summary = if jobs.is_empty() {
        None
    } else {
        Some(run_sweep_ft(
            &jobs,
            opts.max_insts,
            &SweepOptions {
                run,
                policy: RunPolicy::default(),
                checkpoint: opts.checkpoint.clone(),
                telemetry: opts.telemetry.clone(),
                ..SweepOptions::default()
            },
        )?)
    };
    Ok(score(opts.scale, opts.exact, summary))
}

/// Scores a (possibly absent) sweep summary into the full explorer
/// report: price the delay side, fold per-cell IPC into harmonic means,
/// and mark the Pareto frontier. Pure — everything except the sweep
/// itself — so the experiment service can produce byte-identical
/// `pareto.csv`/`tab02_explore.csv` from a summary it assembled out of
/// cached cells. `summary`, when present, must come from a sweep over
/// exactly [`explore_jobs`]`(scale)` with the [`RunOptions`] this
/// function derives from `exact` (that is: what [`explore`] runs).
pub fn score(scale: GridScale, exact: bool, summary: Option<SweepSummary>) -> ExploreReport {
    let points = grid(scale);
    let techs = Technology::all();

    // Delay side first: it is pure and cheap, and pricing it up front
    // means a point no technology can clock (or the simulator refuses)
    // never becomes a simulation job — the sweep proper starts only with
    // cells that can succeed.
    let delay: Vec<[Result<MachineClock, DelayError>; 3]> = points
        .iter()
        .map(|p| {
            let mp = machine_params(&p.cfg);
            [
                MachineClock::try_compute(&techs[0], &mp),
                MachineClock::try_compute(&techs[1], &mp),
                MachineClock::try_compute(&techs[2], &mp),
            ]
        })
        .collect();
    let sim_valid: Vec<Result<(), String>> =
        points.iter().map(|p| p.cfg.validate()).collect();

    // The IPC half's geometry: the sweep (run by [`explore`], or
    // assembled from the result store by the service) covers exactly
    // (simulatable point × kernel).
    let benches = Benchmark::all();
    let simulated = simulated_indices(&points);
    debug_assert_eq!(
        simulated,
        (0..points.len())
            .filter(|&i| sim_valid[i].is_ok() && delay[i].iter().any(Result::is_ok))
            .collect::<Vec<_>>(),
        "explore_jobs and explore must agree on the simulated set"
    );
    let jobs: Vec<Job> = simulated
        .iter()
        .flat_map(|&i| {
            let cfg = points[i].cfg;
            benches.iter().map(move |&b| (b, cfg))
        })
        .collect();
    let run = run_options(exact);

    // Score: harmonic-mean IPC per simulated point (the paper's Figure 13
    // aggregates the same way — slow kernels must not be averaged away).
    let n_bench = benches.len();
    let mut ipc_hm: Vec<Option<(f64, u64)>> = vec![None; points.len()];
    if let Some(summary) = &summary {
        for (slot, &i) in simulated.iter().enumerate() {
            let cells = &summary.cells[slot * n_bench..(slot + 1) * n_bench];
            if cells.iter().all(Option::is_some) {
                let mut inv_sum = 0.0;
                let mut insts = 0u64;
                for cell in cells.iter().flatten() {
                    inv_sum += cell.stats.cycles as f64 / cell.stats.committed as f64;
                    insts += cell.stats.committed;
                }
                ipc_hm[i] = Some((n_bench as f64 / inv_sum, insts));
            }
        }
    }

    let mut rows = Vec::with_capacity(points.len() * 3);
    for (i, _) in points.iter().enumerate() {
        for (t, tech) in techs.iter().enumerate() {
            let outcome = match (&delay[i][t], &sim_valid[i], &ipc_hm[i]) {
                (Err(e), _, _) => Err(Skip::Delay(e.clone())),
                (Ok(_), Err(msg), _) => Err(Skip::Sim(msg.clone())),
                (Ok(clock), Ok(()), Some((ipc, insts))) => {
                    let clock_ps = clock.clock_ps();
                    Ok(Scored {
                        clock: *clock,
                        ipc: *ipc,
                        sim_insts: *insts,
                        bips: ipc * 1000.0 / clock_ps,
                        dominated: false,
                    })
                }
                // Valid on both sides but its sweep cells failed: surface
                // it as a sim skip so the row is never silently absent
                // (the caller still sees the failure in the summary and
                // withholds the CSVs).
                (Ok(_), Ok(()), None) => {
                    Err(Skip::Sim("simulation cells failed; see sweep failures".into()))
                }
            };
            rows.push(Row { point: i, tech: tech.feature(), outcome });
        }
    }
    mark_frontier(&mut rows);

    ExploreReport { points, rows, summary, sampled: !exact, jobs, run }
}

/// Marks `dominated` on every scored row: within one technology, a point
/// is dominated when some other scored point has clock ≤ and IPC ≥ with
/// at least one strict. The surviving rows are the Pareto frontier of
/// the clock/IPC trade — exactly the curve Section 6 says architects
/// must optimize along.
fn mark_frontier(rows: &mut [Row]) {
    for tech in FeatureSize::all() {
        let scored: Vec<(usize, f64, f64)> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.tech == tech)
            .filter_map(|(k, r)| {
                r.outcome.as_ref().ok().map(|s| (k, s.clock.clock_ps(), s.ipc))
            })
            .collect();
        for &(k, clock, ipc) in &scored {
            let dominated = scored.iter().any(|&(other, oc, oi)| {
                other != k && oc <= clock && oi >= ipc && (oc < clock || oi > ipc)
            });
            if let Ok(s) = &mut rows[k].outcome {
                s.dominated = dominated;
            }
        }
    }
}

/// Builds `pareto.csv`: every design point × technology with full
/// provenance — geometry, per-structure delays, IPC, BIPS, frontier
/// membership, and the skip taxonomy for refused corners.
pub fn pareto_csv(report: &ExploreReport) -> String {
    let mut csv = String::from(
        "label,tech_um,issue_width,clusters,scheduler,steering,window_size,mode,\
         status,reason,rename_ps,window_logic_ps,bypass_ps,clock_ps,critical,\
         sim_insts,ipc_hmean,bips,frontier\n",
    );
    let mode = if report.sampled { "sampled" } else { "exact" };
    for row in &report.rows {
        let p = &report.points[row.point];
        let mp = machine_params(&p.cfg);
        let head = format!(
            "{},{},{},{},{},{},{},{mode}",
            p.label,
            row.tech.micrometers(),
            p.cfg.issue_width,
            p.cfg.clusters,
            scheduler_label(p.cfg.scheduler),
            steering_label(p.cfg.steering),
            mp.window_size,
        );
        match &row.outcome {
            Ok(s) => {
                let _ = writeln!(
                    csv,
                    "{head},ok,,{:.1},{:.1},{:.1},{:.1},{},{},{:.4},{:.4},{}",
                    s.clock.rename_ps,
                    s.clock.window_logic_ps,
                    s.clock.bypass_ps,
                    s.clock.clock_ps(),
                    s.clock.critical(),
                    s.sim_insts,
                    s.ipc,
                    s.bips,
                    u8::from(!s.dominated),
                );
            }
            Err(skip) => {
                let _ = writeln!(csv, "{head},{},{},,,,,,,,,", skip.status(), skip.reason());
            }
        }
    }
    csv
}

/// The five Figure 17 organization labels in grid vocabulary, paired
/// with the paper's names — the anchor rows of `tab02_explore.csv`.
pub fn paper_organizations() -> [(&'static str, &'static str); 5] {
    [
        ("w8.c1.win64.dep", "1-cluster.1window"),
        ("w8.c2.fifo4x8.dep", "2-cluster.FIFOs.dispatch_steer"),
        ("w8.c2.swin8x4.dep", "2-cluster.windows.dispatch_steer"),
        ("w8.c2.win64.dep", "2-cluster.1window.exec_steer"),
        ("w8.c2.swin1x32.rand", "2-cluster.windows.random_steer"),
    ]
}

/// Builds `tab02_explore.csv`: a Table 2-style per-technology roll-up
/// extending the paper's §5.6 organizations with the explorer's verdict —
/// each paper organization's delays, IPC, and BIPS, plus the best-BIPS
/// point the grid found in that technology. When a paper organization is
/// not in the grid (tiny runs always carry them; a future pruned grid
/// might not) it is simply absent rather than fabricated.
pub fn tab02_explore_csv(report: &ExploreReport) -> String {
    let mut csv = String::from(
        "tech_um,role,paper_name,label,rename_ps,window_logic_ps,bypass_ps,clock_ps,\
         ipc_hmean,bips,frontier\n",
    );
    let find = |label: &str| report.points.iter().position(|p| p.label == label);
    for tech in FeatureSize::all() {
        let row_of = |idx: usize| {
            report.rows.iter().find(|r| r.point == idx && r.tech == tech)
        };
        let mut emit = |role: &str, name: &str, idx: usize| {
            if let Some(row) = row_of(idx) {
                if let Ok(s) = &row.outcome {
                    let _ = writeln!(
                        csv,
                        "{},{role},{name},{},{:.1},{:.1},{:.1},{:.1},{:.4},{:.4},{}",
                        tech.micrometers(),
                        report.points[idx].label,
                        s.clock.rename_ps,
                        s.clock.window_logic_ps,
                        s.clock.bypass_ps,
                        s.clock.clock_ps(),
                        s.ipc,
                        s.bips,
                        u8::from(!s.dominated),
                    );
                }
            }
        };
        for (label, paper_name) in paper_organizations() {
            if let Some(idx) = find(label) {
                emit("paper-5.6", paper_name, idx);
            }
        }
        // The explorer's winner: highest BIPS in this technology (first
        // in grid order on an exact tie, so the table is deterministic).
        let mut best: Option<(usize, f64)> = None;
        for row in report.rows.iter().filter(|r| r.tech == tech) {
            if let Ok(s) = &row.outcome {
                if best.is_none_or(|(_, b)| s.bips > b) {
                    best = Some((row.point, s.bips));
                }
            }
        }
        if let Some((idx, _)) = best {
            emit("explored-best", "-", idx);
        }
    }
    csv
}

/// Counts the rows of each status, for logs and smoke assertions:
/// `(ok, skip_delay, skip_sim)`.
pub fn row_census(report: &ExploreReport) -> (usize, usize, usize) {
    let mut ok = 0;
    let mut skip_delay = 0;
    let mut skip_sim = 0;
    for row in &report.rows {
        match &row.outcome {
            Ok(_) => ok += 1,
            Err(Skip::Delay(_)) => skip_delay += 1,
            Err(Skip::Sim(_)) => skip_sim += 1,
        }
    }
    (ok, skip_delay, skip_sim)
}

/// The default output path of `ce-explore` (`tab02_explore.csv` lands
/// next to it).
pub const DEFAULT_OUT: &str = "results/pareto.csv";

/// The companion winner-table path, next to `out`.
pub fn tab02_path(out: &std::path::Path) -> PathBuf {
    out.with_file_name("tab02_explore.csv")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_documented_shape() {
        let tiny = grid(GridScale::Tiny);
        assert_eq!(tiny.len(), 8, "6 organizations + 2 probes");
        let full = grid(GridScale::Full);
        // 4 widths × 2 cluster counts × (5 windows + 3×3×4 FIFO shapes +
        // 4×2 steered windows) + 2 probes.
        assert_eq!(full.len(), 4 * 2 * (5 + 36 + 8) + 2);
        for g in [&tiny, &full] {
            let mut labels: Vec<&str> = g.iter().map(|p| p.label.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), g.len(), "duplicate labels in grid");
        }
        // Every §5.6 organization is present in both grids.
        for (label, _) in paper_organizations() {
            for g in [&tiny, &full] {
                assert!(g.iter().any(|p| p.label == label), "{label} missing");
            }
        }
    }

    #[test]
    fn non_probe_grid_points_are_simulatable_and_clockable() {
        // Structured skips must come only from the deliberate probes:
        // every other full-grid point validates on the sim side and
        // prices on the delay side in every technology.
        let probes: Vec<String> = skip_probes().iter().map(|p| p.label.clone()).collect();
        for p in grid(GridScale::Full) {
            if probes.contains(&p.label) {
                continue;
            }
            assert!(p.cfg.validate().is_ok(), "{}: {:?}", p.label, p.cfg.validate());
            let mp = machine_params(&p.cfg);
            for tech in Technology::all() {
                assert!(
                    MachineClock::try_compute(&tech, &mp).is_ok(),
                    "{} in {tech}: {:?}",
                    p.label,
                    MachineClock::try_compute(&tech, &mp)
                );
            }
        }
    }

    #[test]
    fn machine_params_maps_every_scheduler_shape() {
        let p = point(8, 2, SchedulerKind::CentralWindow { size: 64 }, SteeringPolicy::Dependence);
        let mp = machine_params(&p.cfg);
        assert_eq!(mp.window_size, 64);
        assert_eq!(mp.geometry, SchedulerGeometry::Window);

        let p = point(
            8,
            2,
            SchedulerKind::SteeredWindows { fifos_per_cluster: 8, fifo_depth: 4 },
            SteeringPolicy::Dependence,
        );
        let mp = machine_params(&p.cfg);
        assert_eq!(mp.window_size, 64, "8×4 per cluster × 2 clusters");
        assert_eq!(mp.geometry, SchedulerGeometry::Window, "steered windows are CAM windows");

        let p = point(
            8,
            2,
            SchedulerKind::Fifos { fifos_per_cluster: 4, depth: 8 },
            SteeringPolicy::Dependence,
        );
        let mp = machine_params(&p.cfg);
        assert_eq!(mp.window_size, 64);
        assert_eq!(mp.geometry, SchedulerGeometry::Fifos { fifos_per_cluster: 4 });
        assert_eq!(mp.issue_width, 8);
        assert_eq!(mp.clusters, 2);
    }

    /// End-to-end over the tiny grid at a small cap: every row accounted
    /// for, exactly the probes skip, the frontier is genuinely
    /// non-dominated, and the CSVs are well-formed.
    #[test]
    fn tiny_explore_scores_skips_and_marks_a_consistent_frontier() {
        let report = explore(&ExploreOptions {
            scale: GridScale::Tiny,
            exact: false,
            max_insts: 3_000,
            checkpoint: None,
            telemetry: Telemetry::default(),
        })
        .expect("no journal, no I/O");
        assert_eq!(report.rows.len(), 8 * 3, "every point × technology has a row");
        let (ok, skip_delay, skip_sim) = row_census(&report);
        assert_eq!((ok, skip_delay, skip_sim), (18, 3, 3));
        assert!(report.summary.as_ref().is_some_and(SweepSummary::all_ok));

        // Frontier sanity: no frontier row is dominated by any other row
        // of its technology, and every dominated row has a dominator on
        // the frontier.
        for tech in FeatureSize::all() {
            let scored: Vec<&Scored> = report
                .rows
                .iter()
                .filter(|r| r.tech == tech)
                .filter_map(|r| r.outcome.as_ref().ok())
                .collect();
            assert!(!scored.is_empty());
            assert!(scored.iter().any(|s| !s.dominated), "an empty frontier is impossible");
            for s in &scored {
                let dominators: Vec<&&Scored> = scored
                    .iter()
                    .filter(|o| {
                        o.clock.clock_ps() <= s.clock.clock_ps()
                            && o.ipc >= s.ipc
                            && (o.clock.clock_ps() < s.clock.clock_ps() || o.ipc > s.ipc)
                    })
                    .collect();
                assert_eq!(s.dominated, !dominators.is_empty());
                if s.dominated {
                    assert!(
                        dominators.iter().any(|d| !d.dominated),
                        "a dominated point must be dominated by a frontier point"
                    );
                }
            }
        }

        // Every §5.6 organization scored, and the frontier contains or
        // dominates each of them (the acceptance criterion).
        for (label, _) in paper_organizations() {
            let idx = report.points.iter().position(|p| p.label == label).unwrap();
            for tech in FeatureSize::all() {
                let row = report
                    .rows
                    .iter()
                    .find(|r| r.point == idx && r.tech == tech)
                    .unwrap();
                let s = row.outcome.as_ref().unwrap_or_else(|e| {
                    panic!("{label} in {tech:?} skipped: {}", e.reason())
                });
                let covered = report
                    .rows
                    .iter()
                    .filter(|r| r.tech == tech)
                    .filter_map(|r| r.outcome.as_ref().ok())
                    .any(|o| {
                        !o.dominated && o.clock.clock_ps() <= s.clock.clock_ps() && o.ipc >= s.ipc
                    });
                assert!(covered, "{label} in {tech:?} neither on nor under the frontier");
            }
        }

        // CSV shape: rectangular, all rows present, probes visible.
        let csv = pareto_csv(&report);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 1 + 24);
        let cols = lines[0].split(',').count();
        for line in &lines {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
        assert_eq!(csv.matches(",skip-delay,").count(), 3);
        assert_eq!(csv.matches(",skip-sim,").count(), 3);
        assert!(!csv.contains("[min"), "DelayError commas must be sanitized");

        let tab = tab02_explore_csv(&report);
        let tab_lines: Vec<&str> = tab.trim_end().lines().collect();
        // 5 paper organizations + 1 winner, per technology.
        assert_eq!(tab_lines.len(), 1 + 3 * 6);
        for line in &tab_lines {
            assert_eq!(line.split(',').count(), tab_lines[0].split(',').count());
        }
        assert_eq!(tab.matches("explored-best").count(), 3);
    }

    /// `--full` (exact) and sampled runs agree on shape and on which
    /// points score; at a cap under one detailed region they agree on
    /// the IPC numbers too (the short-trace degeneration makes sampling
    /// exact).
    #[test]
    fn exact_mode_matches_sampled_mode_at_short_caps() {
        let run = |exact| {
            explore(&ExploreOptions {
                scale: GridScale::Tiny,
                exact,
                max_insts: 800,
                checkpoint: None,
                telemetry: Telemetry::default(),
            })
            .expect("no journal, no I/O")
        };
        let sampled = run(false);
        let exact = run(true);
        assert!(sampled.sampled && !exact.sampled);
        for (s, e) in sampled.rows.iter().zip(&exact.rows) {
            match (&s.outcome, &e.outcome) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.ipc, b.ipc, "point {}", s.point);
                    assert_eq!(a.bips, b.bips);
                    assert_eq!(a.dominated, b.dominated);
                }
                (Err(a), Err(b)) => assert_eq!(a.status(), b.status()),
                other => panic!("outcome shape diverged: {other:?}"),
            }
        }
    }
}
