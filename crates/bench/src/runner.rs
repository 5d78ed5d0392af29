//! Fault-tolerant parallel experiment runner.
//!
//! Every experiment binary reduces to the same shape: a list of
//! `(benchmark, machine configuration)` cells, each simulated
//! independently. This module fans that list across a worker pool
//! ([`std::thread::scope`]; no external crates) and returns results **in
//! input order**, so callers consume them exactly as their old serial
//! loops did.
//!
//! Determinism: the simulator is a pure function of `(config, trace)` and
//! traces come from the process-wide [`trace_cached`] memo, so the result
//! vector is byte-identical regardless of worker count or completion
//! order — `CE_THREADS=1` and `CE_THREADS=32` produce the same output
//! (`tests/runner_determinism.rs` pins this).
//!
//! ## Fault tolerance
//!
//! A sweep is hours of compute; one bad cell must cost one cell, not the
//! sweep. Failures are classified into a [`RunError`] taxonomy and
//! contained per cell:
//!
//! - **Panic isolation** — each cell runs under
//!   [`std::panic::catch_unwind`] on a worker thread named `ce-cell-*`; a
//!   process-wide panic hook keeps those threads' panics off stderr (the
//!   failure is *reported*, in the result, not *printed* mid-table).
//!   [`pool`] is that executor on its own, for every other grid of the
//!   harness: `diffcheck`'s cells and the simulator-fault campaign of
//!   [`crate::fault`] run on it too.
//! - **Deadlines** — [`RunPolicy::cell_timeout`] arms the simulator's
//!   cycle-loop deadline so a pathological cell returns
//!   [`Timeout`](RunError::Timeout) instead of hanging a worker.
//! - **Retry with backoff** — transient failures (only timeouts qualify)
//!   get up to `MAX_ATTEMPTS` (3) attempts with exponential backoff from
//!   `BACKOFF_BASE` (50 ms); deterministic failures are never retried.
//! - **Quarantine** — once a job fails deterministically, later cells with
//!   the *same* `(benchmark, config)` fail fast with the recorded error
//!   instead of re-running a known-bad input. A worker that draws a job
//!   identical to one still in flight waits for that cell to settle, so
//!   every duplicate of a failing job is quarantined, however the
//!   workers race.
//! - **Checkpoint/resume** — [`run_sweep_ft`] journals each completed cell
//!   (see [`crate::checkpoint`]) so a killed sweep resumes where it died.
//!
//! Worker count comes from the `CE_THREADS` environment variable,
//! defaulting to [`std::thread::available_parallelism`] — sweeps are
//! parallel out of the box. Workers pull cells **longest-first** (see
//! [`schedule_order`]): cost-sorted dispatch keeps the expensive
//! gcc/m88ksim central-window cells off the tail, so the idle tail with
//! `T` workers is bounded by one short cell instead of one long one. The
//! dispatch order and thread count are surfaced in [`SweepSummary`]; the
//! order is a pure function of the jobs and the cap, and run manifests
//! record the thread count.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use ce_sim::{
    try_run_sampled, ConfigError, SampleError, SampledStats, SamplingConfig, SimConfig, SimError,
    SimStats, Simulator,
};
use ce_workloads::{trace_cached, Benchmark};

use crate::checkpoint::{sweep_id, CheckpointSpec, Journal};
use crate::telemetry::{Event, Telemetry};

/// One unit of simulation work: a benchmark kernel on a machine config.
pub type Job = (Benchmark, SimConfig);

/// Why one cell of a sweep failed. The taxonomy separates *whose fault it
/// was* (a bad config, a bad input file, a simulator bug, a resource
/// limit, a correctness violation) because each category has a different
/// remedy, a different retry policy, and a different exit code upstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The configuration failed validation ([`Simulator::try_new`]).
    ConfigInvalid(String),
    /// The workload could not be traced or its trace file was rejected.
    TraceCorrupt(String),
    /// The cell panicked — a simulator bug, contained to this cell.
    CellPanic(String),
    /// The cell exceeded its deadline (or deadlocked) before finishing.
    Timeout(String),
    /// The invariant checker found the simulated state inconsistent.
    CheckerViolation(String),
    /// A checkpoint, journal, or result-store write failed at the disk
    /// layer (disk full, permissions, torn volume). Carries the
    /// [`std::io::ErrorKind`] so callers can distinguish recoverable
    /// conditions without string matching.
    Io { kind: std::io::ErrorKind, message: String },
}

impl RunError {
    /// Stable machine-readable category name (reports, CI greps).
    pub fn category(&self) -> &'static str {
        match self {
            RunError::ConfigInvalid(_) => "config-invalid",
            RunError::TraceCorrupt(_) => "trace-corrupt",
            RunError::CellPanic(_) => "cell-panic",
            RunError::Timeout(_) => "timeout",
            RunError::CheckerViolation(_) => "checker-violation",
            RunError::Io { .. } => "io",
        }
    }

    /// The underlying message, without the category prefix.
    pub fn message(&self) -> &str {
        match self {
            RunError::ConfigInvalid(m)
            | RunError::TraceCorrupt(m)
            | RunError::CellPanic(m)
            | RunError::Timeout(m)
            | RunError::CheckerViolation(m) => m,
            RunError::Io { message, .. } => message,
        }
    }

    /// Wraps a disk-layer failure, preserving the [`std::io::ErrorKind`]
    /// and naming what was being written when it failed.
    pub fn io(context: &str, e: &std::io::Error) -> RunError {
        RunError::Io { kind: e.kind(), message: format!("{context}: {e}") }
    }

    /// Whether retrying the same cell could plausibly succeed. Only
    /// timeouts qualify: wall-clock deadlines depend on machine load,
    /// while config, trace, panic, and checker failures are deterministic
    /// functions of the input and would fail identically again. I/O
    /// failures are *not* retried per-cell — a full disk fails every
    /// subsequent write too, and retrying just burns the backoff budget.
    pub fn is_transient(&self) -> bool {
        matches!(self, RunError::Timeout(_))
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.category(), self.message())
    }
}

impl std::error::Error for RunError {}

/// Maps a structured simulator error onto the runner taxonomy.
fn classify_sim_error(e: &SimError) -> RunError {
    match e {
        SimError::Checker { .. } => RunError::CheckerViolation(e.to_string()),
        // A deadlock is "the cell did not finish within its cycle budget" —
        // operationally the same as a deadline: the cell is aborted and the
        // sweep moves on.
        SimError::Deadlock { .. } | SimError::DeadlineExceeded { .. } => {
            RunError::Timeout(e.to_string())
        }
    }
}

/// Classifies a caught panic payload. Panics that are really checker or
/// deadlock reports funneled through `panic!` (the legacy
/// [`Simulator::run`] path, the oracle's deadlock assertion) keep their
/// category; everything else is a contained simulator bug.
fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> RunError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panicked with a non-string payload".to_string());
    if msg.contains("invariant checker") {
        RunError::CheckerViolation(msg)
    } else if msg.contains("deadlock at cycle") {
        RunError::Timeout(msg)
    } else {
        RunError::CellPanic(msg)
    }
}

/// Per-run knobs applied uniformly to every job of a sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunOptions {
    /// Enable the stall-attribution accountant on every cell (fills
    /// `SimStats::stall_breakdown`; timing is unchanged, wall time pays a
    /// small bookkeeping cost).
    pub attribution: bool,
    /// Run every cell under sampled simulation with this geometry instead
    /// of a full detailed run (see [`ce_sim::run_sampled`]). The cell's
    /// [`TimedResult::stats`] then carries the *estimated* cycle count and
    /// the whole-trace instruction count (so `SimStats::ipc` is the
    /// sampled IPC estimate), with the full [`SampledStats`] in
    /// [`TimedResult::sampled`]. Sampled cells are not bounded by
    /// [`RunPolicy::cell_timeout`] — the detailed windows they run are a
    /// small fraction of a full run. Changing this (like any option)
    /// changes the sweep id, so exact and sampled journals never mix.
    pub sampled: Option<SamplingConfig>,
}

/// Attempts per cell for *transient* failures. Deterministic failures
/// always fail on the first attempt.
const MAX_ATTEMPTS: u32 = 3;

/// The sleep before retry `k` is `BACKOFF_BASE × 2^(k−1)`.
const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Failure-handling policy for a sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunPolicy {
    /// Per-cell wall-clock deadline; `None` (the default) lets cells run
    /// to completion.
    pub cell_timeout: Option<Duration>,
}

/// A completed [`Job`] with its wall-clock cost.
#[derive(Debug, Clone)]
pub struct TimedResult {
    /// The simulation statistics (deterministic per job). For a sampled
    /// cell ([`RunOptions::sampled`]) only `cycles` (the estimate) and
    /// `committed` (the whole trace) are populated; the detailed counters
    /// of the measurement windows are not whole-trace quantities and are
    /// left zero rather than reported misleadingly.
    pub stats: SimStats,
    /// The sampling measurement behind `stats`, when the cell ran under
    /// [`RunOptions::sampled`]; `None` for exact cells.
    pub sampled: Option<SampledStats>,
    /// Wall time of the simulation proper (excludes trace generation).
    pub wall: Duration,
}

impl TimedResult {
    /// Simulation throughput for this cell, in millions of simulated
    /// cycles per wall-clock second.
    pub fn mcycles_per_s(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.stats.cycles as f64 / secs / 1e6
        } else {
            0.0
        }
    }
}

/// One failed cell of a sweep: what failed, why, and how hard the runner
/// tried before giving up.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Input-order index of the cell.
    pub index: usize,
    /// The benchmark half of the job (the config half is `jobs[index].1`).
    pub bench: Benchmark,
    /// The classified failure.
    pub error: RunError,
    /// Attempts actually made (0 when quarantined — never run at all).
    pub attempts: u32,
    /// `Some(i)` if this cell never ran because the identical job already
    /// failed deterministically at cell `i`.
    pub quarantined_after: Option<usize>,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.quarantined_after {
            Some(first) => write!(
                f,
                "cell {} ({}): quarantined, identical job failed at cell {first}: {}",
                self.index, self.bench, self.error
            ),
            None => write!(
                f,
                "cell {} ({}): {} ({} attempt{})",
                self.index,
                self.bench,
                self.error,
                self.attempts,
                if self.attempts == 1 { "" } else { "s" }
            ),
        }
    }
}

/// A callback invoked from worker threads as each *freshly simulated*
/// cell completes (never for cells recovered from a checkpoint or
/// supplied via [`SweepOptions::prefill`]). The experiment service hangs
/// its result-store inserts off this hook: the store is its only cell
/// record, so every finished cell is durable the moment it exists.
#[derive(Clone, Default)]
pub struct CellHook(pub Option<CellHookFn>);

/// The shared callback type inside a [`CellHook`].
pub type CellHookFn = std::sync::Arc<dyn Fn(usize, &TimedResult) + Send + Sync>;

impl CellHook {
    /// Wraps a closure into a hook.
    pub fn new(f: impl Fn(usize, &TimedResult) + Send + Sync + 'static) -> CellHook {
        CellHook(Some(std::sync::Arc::new(f)))
    }

    /// Invokes the hook if one is set.
    pub fn call(&self, index: usize, result: &TimedResult) {
        if let Some(f) = &self.0 {
            f(index, result);
        }
    }
}

impl fmt::Debug for CellHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() { "CellHook(set)" } else { "CellHook(none)" })
    }
}

/// How [`run_sweep_ft`] should run: per-cell options, failure policy, and
/// optional checkpointing.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Per-cell simulation options.
    pub run: RunOptions,
    /// Failure-handling policy.
    pub policy: RunPolicy,
    /// Journal completed cells here (and resume from it when its `resume`
    /// flag is set). `None` disables checkpointing.
    pub checkpoint: Option<CheckpointSpec>,
    /// Engine telemetry sink (see [`crate::telemetry`]). The default
    /// disabled handle costs one branch per would-be event; enabled
    /// telemetry observes timing only and can never change results.
    /// Deliberately *not* part of [`RunOptions`]: the sweep id and the
    /// cache key hash those, and observability must not invalidate
    /// checkpoints.
    pub telemetry: Telemetry,
    /// Cells already known from an external source (the content-addressed
    /// result store, or an earlier plan of the same process):
    /// `prefill[i] = Some(r)` marks cell `i` as done before the sweep
    /// starts. Like a checkpoint-recovered cell it is not simulated and
    /// emits `CellResumed`; unlike one it does not count toward
    /// [`SweepSummary::resumed`], which counts journal recovery only.
    /// Empty (the default) prefills nothing; otherwise the length must
    /// equal the job count. Checkpoint recovery wins where both supply a
    /// cell.
    pub prefill: Vec<Option<TimedResult>>,
    /// Invoked as each freshly simulated cell completes (see
    /// [`CellHook`]); never called for prefilled or journal-recovered
    /// cells, so a store writer behind it cannot re-store served entries.
    pub on_cell: CellHook,
}

/// Aggregate result of one sweep, as returned by [`run_sweep_ft`] /
/// [`run_sweep`]. All durations are wall time of the simulations alone
/// (trace generation is memoized and excluded); cells recovered from a
/// checkpoint contribute their journaled wall times.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Per-cell results, in input order; `None` where the cell failed
    /// (see [`failures`](SweepSummary::failures) for why).
    pub cells: Vec<Option<TimedResult>>,
    /// Every failed cell, in input order. Empty on a fully-clean sweep.
    pub failures: Vec<CellFailure>,
    /// How many cells were recovered from the checkpoint journal instead
    /// of being re-simulated.
    pub resumed: usize,
    /// Wall time of the whole parallel sweep.
    pub sweep_wall: Duration,
    /// Sum of the individual cell wall times (what a serial run would
    /// roughly cost).
    pub serial_cell_wall: Duration,
    /// Total simulated cycles across all completed cells.
    pub total_cycles: u64,
    /// Fastest completed cell ([`Duration::ZERO`] if none completed).
    pub min_cell_wall: Duration,
    /// Slowest completed cell (the sweep's critical path lower bound).
    pub max_cell_wall: Duration,
    /// Worker threads the sweep ran with.
    pub threads: usize,
    /// The longest-cell-first dispatch order actually used: `schedule[k]`
    /// is the input-order index of the `k`-th cell handed to a worker.
    pub schedule: Vec<usize>,
}

impl SweepSummary {
    /// The completed cells, in input order.
    pub fn ok_cells(&self) -> impl Iterator<Item = &TimedResult> {
        self.cells.iter().flatten()
    }

    /// Whether every cell completed.
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty() && self.cells.iter().all(Option::is_some)
    }

    /// Aggregate throughput: total simulated cycles over summed cell wall
    /// time, in millions of cycles per second. This is the simulator's
    /// single-thread speed, independent of how many workers ran.
    pub fn sim_mcycles_per_s(&self) -> f64 {
        let secs = self.serial_cell_wall.as_secs_f64();
        if secs > 0.0 {
            self.total_cycles as f64 / secs / 1e6
        } else {
            0.0
        }
    }
}

/// Estimated relative cost of one cell, for scheduling only. Dominant
/// term: how many instructions the cell will actually simulate (the
/// kernel's natural length, clamped by the cap). Windowed schedulers scan
/// wider wakeup/select structures per cycle than the FIFO machines, so
/// they get a constant weighting on top. Exactness is irrelevant — the
/// estimate only decides *queue order*, never results.
fn cell_cost((bench, cfg): &Job, max_insts: u64) -> u64 {
    let insts = bench.approx_dynamic_insts().min(max_insts);
    let weight = match cfg.scheduler {
        ce_sim::SchedulerKind::Fifos { .. } => 2,
        _ => 3,
    };
    insts * weight
}

/// Longest-cell-first queue order for a sweep: indices into `jobs`,
/// sorted by estimated cost, descending (stable, so equal-cost cells keep
/// input order). Workers pull cells in this order, which keeps the
/// expensive gcc/m88ksim central-window cells off the tail of the sweep —
/// with `T` workers, the worst idle tail is one *short* cell instead of
/// one long one. Results are still returned in input order; this is purely
/// the dispatch sequence, a pure function of the jobs and the cap.
pub fn schedule_order(jobs: &[Job], max_insts: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cell_cost(&jobs[i], max_insts)));
    order
}

/// The per-cell cost estimates behind [`schedule_order`], in input order.
/// The telemetry progress line weights its ETA with these — the same
/// estimates that decide dispatch order — so progress tracks simulated
/// work, not cell count.
pub fn cell_weights(jobs: &[Job], max_insts: u64) -> Vec<u64> {
    jobs.iter().map(|job| cell_cost(job, max_insts)).collect()
}

/// Worker-pool size: `CE_THREADS` if set to a positive integer, else the
/// machine's available parallelism.
pub fn threads() -> usize {
    std::env::var("CE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Installs (once, process-wide) a panic hook that suppresses the default
/// stderr report for worker threads named `ce-cell-*`. Their panics are
/// caught, classified, and *returned*; printing a backtrace mid-sweep
/// would interleave garbage into experiment tables. All other threads
/// keep the previous hook's behaviour.
fn install_cell_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_cell = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("ce-cell"));
            if !in_cell {
                previous(info);
            }
        }));
    });
}

/// Runs `f`, returning a panic as the error [`classify_panic`] makes of
/// it. On a [`pool`] worker the panic also stays off stderr.
pub(crate) fn contain<T>(f: impl FnOnce() -> T) -> Result<T, RunError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(classify_panic)
}

/// The harness's one worker pool. Runs `work(i, worker)` once for every
/// index `i` of `order`, a permutation of `0..order.len()`, on
/// `threads().min(n)` workers named `ce-cell-*` that take the indices in
/// the order given. Results come back in index order. Each item runs
/// under [`contain`]: a panicking item is its own `Err`, off stderr, and
/// every other item still runs.
pub fn pool<T: Send>(
    order: &[usize],
    work: impl Fn(usize, usize) -> T + Sync,
) -> Vec<Result<T, RunError>> {
    install_cell_panic_hook();
    let n = order.len();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, RunError>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let (next, slots, work) = (&next, &slots, &work);
        for w in 0..threads().min(n.max(1)) {
            std::thread::Builder::new()
                .name(format!("ce-cell-{w}"))
                .spawn_scoped(scope, move || {
                    while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let result = contain(|| work(i, w));
                        *slots[i].lock().expect("result slot poisoned") = Some(result);
                    }
                })
                .expect("spawning worker thread");
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot poisoned").expect("order covers 0..n"))
        .collect()
}

/// Maps a sampled-run error onto the runner taxonomy: invalid machine
/// configurations and invalid sampling geometries are both the caller's
/// configuration at fault; window failures classify like any sim error.
fn classify_sample_error(e: &SampleError) -> RunError {
    match e {
        SampleError::Config(_) | SampleError::Sampling(_) => {
            RunError::ConfigInvalid(e.to_string())
        }
        SampleError::Sim(sim) => classify_sim_error(sim),
    }
}

/// Runs one cell once: validate, trace, arm the deadline, simulate under
/// [`contain`]. With `sampled` set the cell runs the sampled estimator
/// instead of a full detailed run (no deadline: the detailed windows are a
/// bounded fraction of the trace).
fn run_cell(
    bench: Benchmark,
    cfg: SimConfig,
    max_insts: u64,
    timeout: Option<Duration>,
    sampled: Option<SamplingConfig>,
) -> Result<TimedResult, RunError> {
    cfg.validate().map_err(|msg| RunError::ConfigInvalid(ConfigError(msg).to_string()))?;
    let trace = trace_cached(bench, max_insts)
        .map_err(|e| RunError::TraceCorrupt(format!("tracing failed: {e}")))?;
    if let Some(sampling) = sampled {
        let start = Instant::now();
        let s = contain(|| try_run_sampled(cfg, &trace, sampling))?
            .map_err(|e| classify_sample_error(&e))?;
        return Ok(TimedResult {
            stats: SimStats {
                cycles: s.est_cycles,
                committed: s.total_insts,
                ..SimStats::default()
            },
            sampled: Some(s),
            wall: start.elapsed(),
        });
    }
    let mut sim = Simulator::new(cfg);
    if let Some(limit) = timeout {
        sim.set_deadline(limit);
    }
    let start = Instant::now();
    let stats = contain(move || sim.try_run(&trace))?.map_err(|e| classify_sim_error(&e))?;
    Ok(TimedResult { stats, sampled: None, wall: start.elapsed() })
}

/// [`run_cell`] under the retry policy, narrated to the telemetry sink:
/// every attempt gets a start/end span (the end marked `last` when no
/// retry follows) and every retry sleep a backoff event. Returns the
/// final outcome and how many attempts were made.
fn run_cell_with_retry(
    cell: usize,
    worker: usize,
    (bench, cfg): Job,
    max_insts: u64,
    policy: &RunPolicy,
    sampled: Option<SamplingConfig>,
    tel: &Telemetry,
) -> (Result<TimedResult, RunError>, u32) {
    let mut attempt = 1;
    loop {
        if tel.enabled() {
            tel.emit(Event::AttemptStart { cell, bench, worker, attempt });
        }
        let start = Instant::now();
        let outcome = run_cell(bench, cfg, max_insts, policy.cell_timeout, sampled);
        let retrying = matches!(&outcome, Err(e) if e.is_transient() && attempt < MAX_ATTEMPTS);
        if tel.enabled() {
            tel.emit(Event::AttemptEnd {
                cell,
                worker,
                attempt,
                outcome: match &outcome {
                    Ok(_) => "ok",
                    Err(e) => e.category(),
                },
                wall_us: u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
                cycles: outcome.as_ref().map_or(0, |r| r.stats.cycles),
                last: !retrying,
            });
        }
        if !retrying {
            return (outcome, attempt);
        }
        let sleep = BACKOFF_BASE * 2u32.pow(attempt - 1);
        if tel.enabled() {
            tel.emit(Event::Backoff {
                cell,
                worker,
                attempt,
                sleep_us: u64::try_from(sleep.as_micros()).unwrap_or(u64::MAX),
            });
        }
        std::thread::sleep(sleep);
        attempt += 1;
    }
}

/// Final state of one dispatched cell.
struct CellOutcome {
    result: Result<TimedResult, RunError>,
    attempts: u32,
    quarantined_after: Option<usize>,
}

/// The sweep executor behind [`run_sweep_ft`]: runs `jobs` on the
/// [`pool`] longest-first, skipping cells where `skip[i]` (already
/// recovered), quarantining known-bad jobs, and calling `on_done` (under
/// no locks of its own) as each cell completes so the caller can journal
/// it. Slots for skipped cells come back `None`.
fn execute<F>(
    jobs: &[Job],
    max_insts: u64,
    run: RunOptions,
    policy: &RunPolicy,
    skip: &[bool],
    tel: &Telemetry,
    on_done: F,
) -> Vec<Option<CellOutcome>>
where
    F: Fn(usize, &TimedResult) + Sync,
{
    // Quarantine by job: its deterministic failure (first failing cell,
    // error), or `None` while an instance is in flight; `settled` wakes
    // the workers waiting on an in-flight duplicate.
    let quarantine: Mutex<HashMap<Job, Option<(usize, RunError)>>> = Mutex::default();
    let settled = Condvar::new();
    let outcomes = pool(&schedule_order(jobs, max_insts), |i, w| {
        if skip[i] {
            return None;
        }
        let (bench, mut cfg) = jobs[i];
        cfg.attribution |= run.attribution;
        let known_bad = settled
            .wait_while(quarantine.lock().expect("quarantine poisoned"), |q| {
                matches!(q.get(&jobs[i]), Some(None))
            })
            .expect("quarantine poisoned")
            .entry(jobs[i])
            .or_insert(None) // claims the job unless it failed
            .clone();
        if let Some((first, error)) = known_bad {
            if tel.enabled() {
                tel.emit(Event::Quarantined { cell: i, worker: w, first });
            }
            let quarantined_after = Some(first);
            return Some(CellOutcome { result: Err(error), attempts: 0, quarantined_after });
        }
        let (result, attempts) =
            run_cell_with_retry(i, w, (bench, cfg), max_insts, policy, run.sampled, tel);
        let mut q = quarantine.lock().expect("quarantine poisoned");
        match &result {
            Err(e) if !e.is_transient() => q.insert(jobs[i], Some((i, e.clone()))),
            _ => q.remove(&jobs[i]),
        };
        drop(q);
        settled.notify_all();
        if let Ok(r) = &result {
            on_done(i, r);
        }
        Some(CellOutcome { result, attempts, quarantined_after: None })
    });
    // A panic outside the contained attempt (in `on_done`, say) fails
    // its cell like any other error.
    outcomes
        .into_iter()
        .map(|outcome| {
            outcome.unwrap_or_else(|error| {
                Some(CellOutcome { result: Err(error), attempts: 1, quarantined_after: None })
            })
        })
        .collect()
}

/// Runs a sweep with aggregate wall-clock accounting: the all-or-nothing
/// convenience over [`run_sweep_ft`].
///
/// It runs under the default [`RunPolicy`] with no checkpointing and
/// **panics on the first failed cell**, so on return every slot of
/// `cells` is `Some`. Callers that want failures reported instead use
/// [`run_sweep_ft`].
///
/// # Panics
///
/// Panics on any failed cell, naming it. Panics if `jobs` is empty (a
/// sweep with no cells has no meaningful summary).
pub fn run_sweep(jobs: &[Job], max_insts: u64, opts: RunOptions) -> SweepSummary {
    let summary = run_sweep_ft(
        jobs,
        max_insts,
        &SweepOptions { run: opts, ..SweepOptions::default() },
    )
    .expect("no checkpoint, no I/O to fail");
    if let Some(failure) = summary.failures.first() {
        panic!("{failure}");
    }
    summary
}

/// Runs a sweep fault-tolerantly: failed cells are classified and
/// reported in [`SweepSummary::failures`] while the rest of the grid
/// completes; with [`SweepOptions::checkpoint`] set, completed cells are
/// journaled as they finish and a resumed invocation re-simulates only
/// the unfinished ones. The journal is deleted after a fully-successful
/// sweep (nothing left to resume); on a sweep with failures it is kept so
/// a fixed rerun with `resume` still skips the good cells.
///
/// # Errors
///
/// Only checkpoint-journal I/O errors. Simulation failures are *results*
/// (in `failures`), never `Err`.
///
/// # Panics
///
/// Panics if `jobs` is empty (a sweep with no cells has no meaningful
/// summary).
pub fn run_sweep_ft(
    jobs: &[Job],
    max_insts: u64,
    opts: &SweepOptions,
) -> std::io::Result<SweepSummary> {
    assert!(!jobs.is_empty(), "run_sweep needs at least one job");
    let start = Instant::now();

    let (journal, mut recovered) = match &opts.checkpoint {
        Some(spec) => {
            let id = sweep_id(jobs, max_insts, opts.run);
            let (journal, recovered) = Journal::open(spec, id, jobs.len())?;
            (Some(Mutex::new(journal)), recovered)
        }
        None => (None, vec![None; jobs.len()]),
    };
    let resumed = recovered.iter().flatten().count();
    if !opts.prefill.is_empty() {
        assert_eq!(
            opts.prefill.len(),
            jobs.len(),
            "prefill length must match the job count"
        );
        for (slot, pre) in recovered.iter_mut().zip(&opts.prefill) {
            if slot.is_none() {
                slot.clone_from(pre);
            }
        }
    }
    let skip: Vec<bool> = recovered.iter().map(Option::is_some).collect();

    let tel = &opts.telemetry;
    if tel.enabled() {
        tel.emit(Event::SweepBegin {
            cells: jobs.len(),
            threads: threads().min(jobs.len()),
            resumed: skip.iter().filter(|&&s| s).count(),
            max_insts,
        });
        for (i, cell) in recovered.iter().enumerate() {
            if let Some(r) = cell {
                tel.emit(Event::CellResumed {
                    cell: i,
                    wall_us: u64::try_from(r.wall.as_micros()).unwrap_or(u64::MAX),
                });
            }
        }
    }

    let journal_err: Mutex<Option<std::io::Error>> = Mutex::new(None);
    let outcomes = execute(jobs, max_insts, opts.run, &opts.policy, &skip, tel, |i, result| {
        opts.on_cell.call(i, result);
        if let Some(journal) = &journal {
            let write_start = Instant::now();
            let recorded = journal.lock().expect("journal poisoned").record(i, result);
            if let Err(e) = recorded {
                journal_err.lock().expect("journal error slot").get_or_insert(e);
            } else if tel.enabled() {
                // Only a record that landed proves the cell durable.
                tel.emit(Event::CheckpointWrite {
                    cell: i,
                    write_us: u64::try_from(write_start.elapsed().as_micros())
                        .unwrap_or(u64::MAX),
                });
            }
        }
    });
    if let Some(e) = journal_err.into_inner().expect("journal error slot") {
        return Err(e);
    }

    let mut cells = recovered;
    let mut failures = Vec::new();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let Some(outcome) = outcome else { continue }; // recovered or prefilled
        match outcome.result {
            Ok(result) => cells[i] = Some(result),
            Err(error) => failures.push(CellFailure {
                index: i,
                bench: jobs[i].0,
                error,
                attempts: outcome.attempts,
                quarantined_after: outcome.quarantined_after,
            }),
        }
    }
    let sweep_wall = start.elapsed();

    if failures.is_empty() {
        if let Some(journal) = journal {
            journal.into_inner().expect("journal poisoned").finish();
        }
    }

    if tel.enabled() {
        tel.emit(Event::SweepEnd {
            ok: cells.iter().flatten().count(),
            failed: failures.len(),
            wall_us: u64::try_from(sweep_wall.as_micros()).unwrap_or(u64::MAX),
        });
    }

    let ok = || cells.iter().flatten();
    let serial_cell_wall = ok().map(|c| c.wall).sum();
    let total_cycles = ok().map(|c| c.stats.cycles).sum();
    let min_cell_wall = ok().map(|c| c.wall).min().unwrap_or(Duration::ZERO);
    let max_cell_wall = ok().map(|c| c.wall).max().unwrap_or(Duration::ZERO);
    Ok(SweepSummary {
        cells,
        failures,
        resumed,
        sweep_wall,
        serial_cell_wall,
        total_cycles,
        min_cell_wall,
        max_cell_wall,
        threads: threads().min(jobs.len()),
        schedule: schedule_order(jobs, max_insts),
    })
}

/// Convenience: the full `machines × benchmarks` grid in row-major
/// (benchmark-major) order, matching the serial loops the experiment
/// binaries used to run.
pub fn grid(machines: &[(&'static str, SimConfig)]) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(machines.len() * 7);
    for bench in Benchmark::all() {
        for (_, cfg) in machines {
            jobs.push((bench, *cfg));
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_is_positive() {
        assert!(threads() >= 1);
    }

    /// The dispatch order is a cost-descending permutation of the input:
    /// every index appears exactly once, costs never increase along it,
    /// and equal-cost cells keep input order (stable sort), so the same
    /// jobs always produce the same recorded schedule.
    #[test]
    fn schedule_order_is_a_stable_longest_first_permutation() {
        use ce_sim::machine;
        let jobs = grid(&machine::figure17_machines());
        let order = schedule_order(&jobs, u64::MAX);
        let mut seen = vec![false; jobs.len()];
        for &i in &order {
            assert!(!seen[i], "index {i} dispatched twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "some cell never dispatched");
        for pair in order.windows(2) {
            let (a, b) = (cell_cost(&jobs[pair[0]], u64::MAX), cell_cost(&jobs[pair[1]], u64::MAX));
            assert!(a > b || (a == b && pair[0] < pair[1]), "order not stable-descending");
        }
        // The most expensive kernel on a windowed machine goes first; the
        // cheapest kernel on a FIFO machine goes last.
        assert_eq!(jobs[order[0]].0, Benchmark::M88ksim);
        assert_eq!(jobs[*order.last().unwrap()].0, Benchmark::Compress);
        // An instruction cap collapses the kernel-length differences.
        let capped = schedule_order(&jobs, 1_000);
        for pair in capped.windows(2) {
            assert!(
                cell_cost(&jobs[pair[0]], 1_000) >= cell_cost(&jobs[pair[1]], 1_000),
                "capped order not cost-descending"
            );
        }
    }

    /// A bad grid cell must be reported — classified, by name — while its
    /// neighbours still run: an invalid corner of a sweep used to panic a
    /// worker thread and take the whole parallel run down with it.
    #[test]
    fn bad_cells_fail_individually_not_collectively() {
        use ce_sim::machine;
        let mut bad = machine::baseline_8way();
        bad.bpred.history_bits = 40;
        let jobs = vec![
            (Benchmark::Compress, machine::baseline_8way()),
            (Benchmark::Li, bad),
            (Benchmark::Compress, machine::dependence_8way()),
        ];
        let summary = run_sweep_ft(&jobs, 2_000, &SweepOptions::default()).unwrap();
        assert!(summary.cells[0].is_some());
        assert!(summary.cells[2].is_some());
        assert_eq!(summary.failures.len(), 1);
        assert_eq!(summary.failures[0].index, 1);
        let err = &summary.failures[0].error;
        assert!(matches!(err, RunError::ConfigInvalid(_)), "{err}");
        assert_eq!(err.category(), "config-invalid");
        assert!(!err.is_transient());
        assert!(err.to_string().contains("history"), "{err}");
    }

    /// Attribution requested through [`RunOptions`] fills the breakdown
    /// without perturbing the timing result, and [`run_sweep`]'s
    /// aggregates are consistent with its cells.
    #[test]
    fn attribution_option_fills_breakdown_without_changing_timing() {
        use ce_sim::machine;
        let jobs = vec![
            (Benchmark::Compress, machine::baseline_8way()),
            (Benchmark::Compress, machine::clustered_fifos_8way()),
        ];
        let plain = run_sweep(&jobs, 5_000, RunOptions::default());
        let summary =
            run_sweep(&jobs, 5_000, RunOptions { attribution: true, ..RunOptions::default() });
        assert_eq!(summary.cells.len(), jobs.len());
        assert!(summary.all_ok());
        assert_eq!(summary.resumed, 0);
        let mut total_cycles = 0;
        for (i, (cell, base)) in summary.ok_cells().zip(plain.ok_cells()).enumerate() {
            assert_eq!(cell.stats.fingerprint(), base.stats.fingerprint(), "cell {i}");
            assert!(cell.stats.stall_breakdown.reconciles(
                jobs[i].1.issue_width,
                cell.stats.cycles,
                cell.stats.issued
            ));
            assert!(base.stats.stall_breakdown.is_empty(), "cell {i} charged without opt-in");
            assert!(cell.wall >= summary.min_cell_wall && cell.wall <= summary.max_cell_wall);
            total_cycles += cell.stats.cycles;
        }
        assert_eq!(summary.total_cycles, total_cycles);
        assert_eq!(
            summary.serial_cell_wall,
            summary.ok_cells().map(|c| c.wall).sum::<Duration>()
        );
        assert!(summary.sim_mcycles_per_s() > 0.0);
    }

    /// Sampled sweeps flow through the same worker pool: each cell's
    /// estimate matches a direct `try_run_sampled` call, the measurement
    /// detail rides along in `TimedResult::sampled`, and an invalid
    /// sampling geometry classifies as config-invalid instead of
    /// panicking a worker.
    #[test]
    fn sampled_cells_match_direct_estimates_and_classify_bad_geometry() {
        use ce_sim::machine;
        let jobs = vec![
            (Benchmark::Compress, machine::baseline_8way()),
            (Benchmark::Compress, machine::clustered_fifos_8way()),
        ];
        let sampling = SamplingConfig::default();
        let opts = RunOptions { sampled: Some(sampling), ..RunOptions::default() };
        let summary = run_sweep(&jobs, 20_000, opts);
        for (i, r) in summary.cells.iter().enumerate() {
            let r = r.as_ref().expect("sampled cell runs");
            let trace = trace_cached(jobs[i].0, 20_000).unwrap();
            let direct = try_run_sampled(jobs[i].1, &trace, sampling).unwrap();
            assert_eq!(r.sampled, Some(direct), "cell {i}");
            assert_eq!(r.stats.cycles, direct.est_cycles, "cell {i}");
            assert_eq!(r.stats.committed, direct.total_insts, "cell {i}");
        }

        let bad = RunOptions {
            sampled: Some(SamplingConfig { window_insts: 0, ..SamplingConfig::default() }),
            ..RunOptions::default()
        };
        let summary =
            run_sweep_ft(&jobs[..1], 2_000, &SweepOptions { run: bad, ..SweepOptions::default() })
                .unwrap();
        let err = &summary.failures[0].error;
        assert_eq!(err.category(), "config-invalid");
        assert!(err.to_string().contains("sampling"), "{err}");
    }

    #[test]
    fn results_arrive_in_input_order() {
        use ce_sim::machine;
        let jobs = vec![
            (Benchmark::Compress, machine::baseline_8way()),
            (Benchmark::Li, machine::baseline_8way()),
            (Benchmark::Compress, machine::dependence_8way()),
        ];
        let parallel = run_sweep(&jobs, 5_000, RunOptions::default());
        assert_eq!(parallel.cells.len(), jobs.len());
        for (i, (bench, cfg)) in jobs.iter().enumerate() {
            let trace = trace_cached(*bench, 5_000).unwrap();
            let serial = Simulator::new(*cfg).run(&trace);
            let cell = parallel.cells[i].as_ref().expect("run_sweep fills every cell");
            assert_eq!(cell.stats, serial, "job {i} out of order or nondeterministic");
        }
    }

    /// An I/O failure keeps its [`std::io::ErrorKind`], classifies under
    /// the stable `io` category, and is never retried (a full disk fails
    /// every attempt identically).
    #[test]
    fn io_errors_are_structured_and_not_transient() {
        let disk_full =
            std::io::Error::new(std::io::ErrorKind::StorageFull, "no space left on device");
        let err = RunError::io("result store write", &disk_full);
        assert_eq!(err.category(), "io");
        assert!(!err.is_transient());
        assert!(err.message().contains("result store write"), "{err}");
        let RunError::Io { kind, .. } = &err else { panic!("wrong variant: {err}") };
        assert_eq!(*kind, std::io::ErrorKind::StorageFull);
        assert!(err.to_string().starts_with("io: "), "{err}");
    }

    /// Prefilled cells are skipped like checkpoint-recovered ones: they
    /// are never re-simulated and the `on_cell` hook fires only for the
    /// cells that actually ran. With no checkpoint nothing is resumed:
    /// `resumed` counts journal recovery, not cells supplied from
    /// elsewhere.
    #[test]
    fn prefill_skips_cells_and_on_cell_sees_only_fresh_ones() {
        use ce_sim::machine;
        let jobs = vec![
            (Benchmark::Compress, machine::baseline_8way()),
            (Benchmark::Li, machine::baseline_8way()),
        ];
        let full = run_sweep(&jobs, 2_000, RunOptions::default());
        let canned = full.cells[0].clone().unwrap();

        let fresh = std::sync::Arc::new(Mutex::new(Vec::new()));
        let hook_log = std::sync::Arc::clone(&fresh);
        let summary = run_sweep_ft(
            &jobs,
            2_000,
            &SweepOptions {
                prefill: vec![Some(canned.clone()), None],
                on_cell: CellHook::new(move |i, _| {
                    hook_log.lock().unwrap().push(i);
                }),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert!(summary.all_ok());
        assert_eq!(summary.resumed, 0, "a prefilled cell is not a resumed one");
        assert_eq!(summary.cells[0].as_ref().unwrap().wall, canned.wall);
        assert_eq!(
            summary.cells[1].as_ref().unwrap().stats.fingerprint(),
            full.cells[1].as_ref().unwrap().stats.fingerprint()
        );
        assert_eq!(*fresh.lock().unwrap(), vec![1], "hook must see only the fresh cell");
    }

    /// The pool contains a panicking item to that item: it comes back as
    /// an error carrying the panic message, off stderr, while every other
    /// item completes, and results arrive in index order whatever the
    /// dispatch order.
    #[test]
    fn pool_contains_a_panicking_item_and_keeps_index_order() {
        let order = [3, 1, 4, 0, 2];
        let results = pool(&order, |i, _| {
            assert_ne!(i, 4, "item {i} blew up");
            i * 10
        });
        assert_eq!(results.len(), order.len());
        for (i, result) in results.iter().enumerate() {
            match result {
                Ok(value) => assert_eq!(*value, i * 10, "slot {i} holds another item"),
                Err(e) => {
                    assert_eq!(i, 4, "only the panicking item fails: {e}");
                    assert_eq!(e.category(), "cell-panic");
                    assert!(e.message().contains("item 4 blew up"), "{e}");
                }
            }
        }
        assert!(results[4].is_err());
        assert!(pool(&[], |i, _| i).is_empty());
    }

    #[test]
    fn panic_payload_classification() {
        let checker = classify_panic(Box::new(
            "invariant checker: 1 violation(s) by cycle 3:\n  x".to_string(),
        ));
        assert_eq!(checker.category(), "checker-violation");
        let deadlock = classify_panic(Box::new("deadlock at cycle 99".to_string()));
        assert_eq!(deadlock.category(), "timeout");
        assert!(deadlock.is_transient());
        let bug = classify_panic(Box::new("index out of bounds"));
        assert_eq!(bug.category(), "cell-panic");
        let opaque = classify_panic(Box::new(42_u32));
        assert!(opaque.message().contains("non-string"), "{opaque}");
    }
}
