//! The service workloads, run against an in-process `cesimd`
//! (`ce_bench::service::run` on a thread) over its Unix socket. Clients
//! speak the wire protocol directly and open one connection per job, as
//! `cesimctl` does.
//!
//! * `service-warm` is the read path: set-up cold-submits every preset,
//!   then two closed-loop clients resubmit seeded presets, each served
//!   entirely from the result store.
//! * `service-cold` is the write path: one closed-loop client submits
//!   seeded presets at instruction caps never used before in the run, so
//!   every cell is a fresh cache key.

use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ce_bench::api::{self, JobEvent, JobOutcome, JobSpec, SweepKind};
use ce_bench::fsck;
use ce_bench::json::Json;
use ce_bench::manifest;
use ce_bench::runner::{run_sweep_ft, SweepOptions, TimedResult};
use ce_bench::service::{self, ServiceConfig};
use ce_bench::store::{Lookup, ResultStore};
use ce_workloads::trace_cache_stats;

use crate::gates::Pins;
use crate::host::clocked;
use crate::layers;
use crate::load::{cold_jobs, warm_jobs, COLD_WARM_UP_CAP, PRESETS};
use crate::measure::{self, timed, Report};
use crate::span::{SpanId, Tracer};
use crate::{closed_loop, Ctx, Loop};

/// Closed-loop clients of `service-warm`.
const WARM_CLIENTS: u64 = 2;

/// Cold jobs whose artifacts are re-derived locally after the loop.
const VERIFIED_COLD_JOBS: usize = 5;

/// How long a client waits for the daemon's next event.
const EVENT_TIMEOUT: Duration = Duration::from_secs(120);

/// Numbers jobs across clients, so the spans of one job share an id.
static JOB_NUMBER: AtomicU64 = AtomicU64::new(1);

/// A daemon running on a thread of this process. Dropping it shuts the
/// daemon down and joins the thread.
pub struct Daemon {
    socket: PathBuf,
    state: PathBuf,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl Daemon {
    /// Starts a daemon on a fresh state directory under `dir` and waits
    /// until its socket accepts connections.
    pub fn start(dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        let state = dir.join("state");
        let config = ServiceConfig {
            quiet: true,
            ..ServiceConfig::new(socket.clone(), state.clone())
        };
        let thread = std::thread::Builder::new()
            .name("cesimd".into())
            .spawn(move || service::run(config))
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut daemon = Daemon {
            socket,
            state,
            thread: Some(thread),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        while UnixStream::connect(&daemon.socket).is_err() {
            if daemon.thread.as_ref().is_some_and(JoinHandle::is_finished) {
                let thread = daemon.thread.take().expect("checked above");
                let outcome = thread
                    .join()
                    .map_err(|_| "the daemon thread panicked".to_owned());
                return Err(format!(
                    "daemon exited at start-up: {:?}",
                    outcome.and_then(|r| r)
                ));
            }
            if Instant::now() > deadline {
                return Err("daemon socket never accepted a connection".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(daemon)
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    pub fn state(&self) -> &Path {
        &self.state
    }

    /// Shuts the daemon down (it drains accepted jobs first) and joins it.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        // Without an acknowledged shutdown the thread may never end, so it
        // is joined only after the daemon has said it is stopping.
        let reply = request(&self.socket, "{\"op\": \"shutdown\"}")?;
        if reply.at("ev").and_then(Json::as_str) != Some("stopping") {
            return Err(format!("shutdown answered with {reply:?}"));
        }
        thread
            .join()
            .map_err(|_| "the daemon thread panicked".to_owned())?
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

fn connect(socket: &Path) -> Result<UnixStream, String> {
    let stream =
        UnixStream::connect(socket).map_err(|e| format!("connecting {}: {e}", socket.display()))?;
    stream
        .set_read_timeout(Some(EVENT_TIMEOUT))
        .map_err(|e| format!("socket: {e}"))?;
    Ok(stream)
}

fn read_json(reader: &mut BufReader<&UnixStream>) -> Result<Json, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("daemon closed the connection".into()),
        Ok(_) => Json::parse(&line).map_err(|e| format!("bad event line {line:?}: {e}")),
        Err(e) => Err(format!("reading from the daemon: {e}")),
    }
}

/// Sends one request line on a new connection and returns the first reply.
fn request(socket: &Path, line: &str) -> Result<Json, String> {
    let stream = connect(socket)?;
    (&stream)
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("sending: {e}"))?;
    read_json(&mut BufReader::new(&stream))
}

/// One `ping` on a new connection: connect, then wait for `pong`.
pub fn ping(socket: &Path) -> Result<Duration, String> {
    let (reply, wall) = timed(|| request(socket, "{\"op\": \"ping\"}"));
    match reply?.at("ev").and_then(Json::as_str) {
        Some("pong") => Ok(wall),
        other => Err(format!("ping answered with {other:?}")),
    }
}

/// One finished job as its client saw it.
pub struct JobTimes {
    /// Submit sent → `accepted` received.
    pub admit: Duration,
    /// `accepted` → `done`.
    pub exec: Duration,
    /// Cells the daemon planned for the job.
    pub cells: usize,
    pub outcome: JobOutcome,
}

impl JobTimes {
    /// Fails unless every planned cell settled and the job ran as asked.
    fn settled(&self, what: &str) -> Result<(), String> {
        let o = &self.outcome;
        if o.failed == 0 && o.ok == self.cells && !o.degraded {
            Ok(())
        } else {
            Err(format!(
                "{what}: {} of {} cells ok: {:?}",
                o.ok, self.cells, o.failures
            ))
        }
    }

    fn artifact(&self, name: &str) -> Option<&str> {
        self.outcome
            .artifacts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.as_str())
    }
}

/// A preset submission at an explicit instruction cap.
pub fn preset_spec(kind: SweepKind, cap: u64) -> JobSpec {
    JobSpec {
        max_insts: Some(cap),
        ..JobSpec::preset(kind)
    }
}

/// Submits one job on a new connection and reads its events to `done`.
/// Its spans (`service.connect`, `service.admit`, `service.exec`) sit
/// under one `bench.job` span and share the job's number.
pub fn submit(
    socket: &Path,
    spec: &JobSpec,
    t: &Tracer,
    parent: SpanId,
) -> Result<JobTimes, String> {
    let job = JOB_NUMBER.fetch_add(1, Ordering::Relaxed);
    t.span("bench.job", parent, job, |span| {
        let stream = t.span("service.connect", span, job, |_| connect(socket))?;
        let mut reader = BufReader::new(&stream);
        let (cells, admit) = t.span("service.admit", span, job, |_| {
            let start = Instant::now();
            let line = format!("{{\"op\": \"submit\", \"spec\": {}}}\n", spec.to_json());
            (&stream)
                .write_all(line.as_bytes())
                .map_err(|e| format!("sending: {e}"))?;
            match next_event(&mut reader)? {
                JobEvent::Accepted { cells, .. } => Ok((cells, start.elapsed())),
                other => Err(format!("expected `accepted`, got {other:?}")),
            }
        })?;
        let (outcome, exec) = t.span("service.exec", span, job, |_| {
            timed(|| loop {
                match next_event(&mut reader)? {
                    JobEvent::Cell { .. } => {}
                    JobEvent::Done { outcome, .. } => return Ok(outcome),
                    other => return Err(format!("unexpected event {other:?}")),
                }
            })
        });
        Ok(JobTimes {
            admit,
            exec,
            cells,
            outcome: outcome?,
        })
    })
}

fn next_event(reader: &mut BufReader<&UnixStream>) -> Result<JobEvent, String> {
    match JobEvent::from_json(&read_json(reader)?)? {
        JobEvent::Error { kind, message } => Err(format!("error[{kind}]: {message}")),
        event => Ok(event),
    }
}

/// The service-layer probe of the sweep workloads: a daemon on a scratch
/// state directory, one cold `fig13` submission at the run's cap, then
/// cache-served resubmissions of it.
pub fn probe(ctx: &Ctx) -> Result<(Daemon, Vec<JobTimes>), String> {
    let daemon = Daemon::start(&ctx.scratch.join("probe"))?;
    let spec = preset_spec(SweepKind::Fig13, ctx.cap);
    let mut jobs = Vec::new();
    for _ in 0..11 {
        let job = submit(daemon.socket(), &spec, &ctx.tracer, 0)?;
        job.settled("fig13 probe job")?;
        jobs.push(job);
    }
    Ok((daemon, jobs))
}

/// Every telemetry journal the daemon wrote (one per job execution).
fn journals(state: &Path) -> Result<Vec<PathBuf>, String> {
    let dir = state.join("telemetry");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("listing {}: {e}", dir.display()))?
        .flatten()
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Starts a daemon on a fresh state directory and readies it with
/// `prepare`. Returns it and the set-up's wall time in seconds at the
/// reference host's speed.
fn set_up(
    ctx: &Ctx,
    prepare: impl Fn(&Daemon, SpanId) -> Result<(), String>,
) -> Result<(Daemon, f64), String> {
    let ((started, wall), host) = clocked(|| {
        timed(|| {
            ctx.tracer.span("bench.setup", 0, 0, |span| {
                let daemon = Daemon::start(&ctx.scratch.join("daemon"))?;
                prepare(&daemon, span)?;
                Ok::<Daemon, String>(daemon)
            })
        })
    });
    Ok((started?, host.at_reference(wall.as_secs_f64())))
}

/// Submits every preset once at `cap`.
fn submit_presets(ctx: &Ctx, daemon: &Daemon, span: SpanId, cap: u64) -> Result<(), String> {
    for kind in PRESETS {
        submit(daemon.socket(), &preset_spec(kind, cap), &ctx.tracer, span)?
            .settled(kind.name())?;
    }
    Ok(())
}

/// The set-up of `service-warm`: a daemon that has run every preset once,
/// cold, at the cap.
pub fn warm_set_up(ctx: &Ctx) -> Result<(Daemon, f64), String> {
    set_up(ctx, |daemon, span| {
        submit_presets(ctx, daemon, span, ctx.cap)
    })
}

/// The set-up of `service-cold`: a daemon that has run every preset once
/// at [`COLD_WARM_UP_CAP`], so the loop's first jobs do not pay the
/// process's and the daemon's first-use costs.
pub fn cold_set_up(ctx: &Ctx) -> Result<(Daemon, f64), String> {
    set_up(ctx, |daemon, span| {
        submit_presets(ctx, daemon, span, COLD_WARM_UP_CAP)
    })
}

/// A stopped daemon's state directory, read as a restart would read it.
pub struct StateAudit {
    /// Every entry the result store served, with its key.
    pub served: Vec<(String, TimedResult)>,
    /// The wall time of each `ResultStore::lookup`, µs.
    pub lookups_us: Vec<f64>,
    /// The wall time of `fsck::fsck` over the state directory.
    pub fsck: Duration,
}

/// Stops the daemon (it drains accepted jobs first) and gates its state:
/// the result store must serve every entry it holds, and `fsck` must find
/// nothing to quarantine.
pub fn stop_and_audit(
    ctx: &Ctx,
    report: &mut Report,
    daemon: Daemon,
) -> Result<StateAudit, String> {
    let t = &ctx.tracer;
    let state = daemon.state().to_owned();
    daemon.stop()?;
    let store =
        ResultStore::open(&state.join("store")).map_err(|e| format!("opening the store: {e}"))?;
    let mut keys: Vec<String> = std::fs::read_dir(store.root())
        .map_err(|e| format!("listing the store: {e}"))?
        .flatten()
        .filter_map(|entry| {
            let path = entry.path();
            (path.extension()? == "json").then(|| path.file_stem()?.to_str().map(str::to_owned))?
        })
        .collect();
    keys.sort();
    let code = manifest::code_version();
    let mut audit = StateAudit {
        served: Vec::with_capacity(keys.len()),
        lookups_us: Vec::with_capacity(keys.len()),
        fsck: Duration::ZERO,
    };
    t.span("store.lookup", 0, 0, |_| {
        for key in &keys {
            let (found, wall) = timed(|| store.lookup(key, &code));
            audit.lookups_us.push(measure::us(wall));
            if let Lookup::Hit(result) = found {
                audit.served.push((key.clone(), *result));
            }
        }
    });
    report.gate(!keys.is_empty() && audit.served.len() == keys.len(), || {
        format!(
            "the daemon's store served {} of its {} entries",
            audit.served.len(),
            keys.len()
        )
    });
    let (fscked, wall) = t.span("fsck.fsck", 0, 0, |_| timed(|| fsck::fsck(&state, false)));
    let fscked = fscked.map_err(|e| format!("fsck: {e}"))?;
    report.gate(fscked.clean(), || {
        format!("fsck of the daemon state: {fscked}")
    });
    audit.fsck = wall;
    Ok(audit)
}

/// `service-warm`: the read path.
pub fn warm(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let pins = Pins::load()?;
    let (daemon, setup_s) = warm_set_up(ctx)?;

    let mut clients: Vec<_> = (0..WARM_CLIENTS).map(|c| warm_jobs(ctx.seed, c)).collect();
    let untraced = warm_loop(ctx, &pins, &daemon, &Tracer::new(false), &mut clients);
    untraced.account(report);
    if !ctx.trace {
        untraced.end_to_end(ctx, report, setup_s, measure::peak_rss_mb()?)?;
        return stop_and_audit(ctx, report, daemon).map(drop);
    }

    let before = trace_cache_stats();
    let traced = warm_loop(ctx, &pins, &daemon, &ctx.tracer, &mut clients);
    layers::trace_cache(report, before);
    traced.account(report);
    traced.trace_overhead(ctx, &untraced, report);
    let fig17 = submit(
        daemon.socket(),
        &preset_spec(SweepKind::Fig17, ctx.cap),
        &ctx.tracer,
        0,
    )?;
    let artifact = fig17
        .artifact("fig17_organizations.csv")
        .ok_or("a fig17 job returned no fig17_organizations.csv")?
        .to_owned();
    let jobs: Vec<&JobTimes> = traced.ops.iter().map(|(_, job)| job).collect();
    layer_metrics(ctx, report, &pins, daemon, &jobs, &artifact)
}

/// The per-layer metrics of a service workload: the daemon's service,
/// store, fsck and runner layers after the traced loop, checkpoint writes
/// of `artifact`, and the probes every workload runs.
fn layer_metrics(
    ctx: &Ctx,
    report: &mut Report,
    pins: &Pins,
    daemon: Daemon,
    jobs: &[&JobTimes],
    artifact: &str,
) -> Result<(), String> {
    let journals = journals(daemon.state())?;
    layers::service(ctx, report, &daemon, jobs)?;
    let audit = stop_and_audit(ctx, report, daemon)?;
    let results = layers::state(ctx, report, audit)?;
    layers::runner(report, &journals)?;
    layers::checkpoint(ctx, report, &results, artifact)?;
    layers::common(ctx, report, pins, None)
}

/// The warm loop: each client resubmits its seeded presets, every cell
/// must be served from the result store, and every fig17 artifact must be
/// the bytes `fig17-full` produces at the same cap. Artifacts are dropped
/// once checked, so the process's memory does not grow with the job count.
fn warm_loop(
    ctx: &Ctx,
    pins: &Pins,
    daemon: &Daemon,
    t: &Tracer,
    clients: &mut [impl Iterator<Item = SweepKind> + Send],
) -> Loop<JobTimes> {
    closed_loop(ctx.window, PRESETS.len(), clients, |jobs| {
        let kind = jobs.next().expect("warm job streams are endless");
        let mut job = submit(daemon.socket(), &preset_spec(kind, ctx.cap), t, 0)?;
        job.settled(kind.name())?;
        if job.outcome.cache_misses > 0 {
            return Err(format!(
                "warm {} job missed the cache on {} cells",
                kind.name(),
                job.outcome.cache_misses
            ));
        }
        if let Some(csv) = job.artifact("fig17_organizations.csv") {
            pins.verify("fig17_organizations.csv", ctx.cap, csv)?;
        }
        job.outcome.artifacts.clear();
        Ok(job)
    })
}

/// `service-cold`: the write path.
pub fn cold(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let pins = Pins::load()?;
    let (daemon, setup_s) = cold_set_up(ctx)?;

    let mut stream = [cold_jobs(ctx.seed)];
    let untraced = cold_loop(ctx, &daemon, &Tracer::new(false), &mut stream);
    untraced.account(report);
    if !ctx.trace {
        // Measured before the local verification sweeps add their own.
        untraced.end_to_end(ctx, report, setup_s, measure::peak_rss_mb()?)?;
        stop_and_audit(ctx, report, daemon)?;
        return verify_cold(report, &untraced);
    }

    let before = trace_cache_stats();
    let traced = cold_loop(ctx, &daemon, &ctx.tracer, &mut stream);
    layers::trace_cache(report, before);
    traced.account(report);
    traced.trace_overhead(ctx, &untraced, report);
    let artifact = traced
        .ops
        .first()
        .and_then(|(_, (job, _, _))| job.outcome.artifacts.first())
        .map(|(_, c)| c.clone())
        .unwrap_or_default();
    let jobs: Vec<&JobTimes> = traced.ops.iter().map(|(_, (job, _, _))| job).collect();
    layer_metrics(ctx, report, &pins, daemon, &jobs, &artifact)?;
    verify_cold(report, &untraced)
}

/// The cold loop: one client submits its seeded `(preset, cap)` stream,
/// and no cell may be served from the result store.
fn cold_loop(
    ctx: &Ctx,
    daemon: &Daemon,
    t: &Tracer,
    stream: &mut [impl Iterator<Item = (SweepKind, u64)> + Send],
) -> Loop<(JobTimes, SweepKind, u64)> {
    closed_loop(ctx.window, PRESETS.len(), stream, |jobs| {
        let (kind, cap) = jobs.next().ok_or("the cold job stream used up its caps")?;
        let job = submit(daemon.socket(), &preset_spec(kind, cap), t, 0)?;
        job.settled(kind.name())?;
        match job.outcome.cache_hits {
            0 => Ok((job, kind, cap)),
            hits => Err(format!(
                "cold {} job at cap {cap} hit the cache on {hits} cells",
                kind.name()
            )),
        }
    })
}

/// The first cold jobs' artifacts must equal a local run of the same
/// preset at the same cap.
fn verify_cold(report: &mut Report, run: &Loop<(JobTimes, SweepKind, u64)>) -> Result<(), String> {
    for (_, (job, kind, cap)) in run.ops.iter().take(VERIFIED_COLD_JOBS) {
        let plan = api::plan(*kind);
        let summary = run_sweep_ft(
            &plan.jobs,
            *cap,
            &SweepOptions {
                run: plan.run,
                ..SweepOptions::default()
            },
        )
        .map_err(|e| format!("local {} sweep: {e}", kind.name()))?;
        report.gate(summary.all_ok(), || {
            format!("local {} sweep at cap {cap} failed", kind.name())
        });
        if summary.all_ok() {
            report.gate(
                api::preset_artifacts(*kind, &summary) == job.outcome.artifacts,
                || {
                    format!(
                        "cold {} job at cap {cap}: artifacts differ from a local run",
                        kind.name()
                    )
                },
            );
        }
    }
    Ok(())
}
