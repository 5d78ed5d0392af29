//! `cesimd` — the crash-safe experiment service.
//!
//! A persistent daemon that accepts sweep submissions over a Unix domain
//! socket (newline-delimited JSON, protocol in [`crate::api`]), executes
//! them through the same fault-tolerant [`run_sweep_ft`] substrate the
//! CLI binaries use, and serves repeated cells from the on-disk
//! content-addressed [`ResultStore`]. The state directory layout:
//!
//! ```text
//! <state>/jobs.jsonl                      write-ahead job journal (WAL)
//! <state>/store/<cell-key>.json           content-addressed cell results
//! <state>/ckpt/job-<id>.ckpt.jsonl        per-job cell checkpoint journal
//! <state>/telemetry/job-<id>.exec-<k>.jsonl  one telemetry journal per
//!                                         *execution* (k bumps on restart)
//! <state>/artifacts/job-<id>/<name>       rendered CSVs + manifest.json
//! ```
//!
//! ## Crash-recovery state machine
//!
//! Every job passes through exactly three durable states:
//!
//! 1. **submitted** — appended (and fsynced) to the WAL *before* the
//!    client sees `accepted`. A `kill -9` after this point cannot lose
//!    the job. The WAL is a [`crate::journal`] file tagged `ce_jobs_wal`:
//!    if the append or its fsync fails, the record is rolled back before
//!    the client hears `error[io]`, so a refused job leaves nothing to
//!    replay and its id goes to the next submission.
//! 2. **running** — cells settle into two idempotent stores as they
//!    finish: the per-job checkpoint journal (one append per cell, a torn
//!    final line dropped on resume) and the content-addressed result
//!    store (atomic tempfile + rename per cell). A `kill -9` mid-cell
//!    loses at most the in-flight cells' partial work.
//! 3. **done** — artifacts written, `done` appended to the WAL.
//!
//! On startup the WAL is compacted: `submitted`-without-`done` jobs are
//! re-enqueued headless (no client connection; results land in the store
//! and artifact directory as normal), everything else is dropped. A
//! re-enqueued job re-runs **nothing** that already settled: completed
//! cells come back from its checkpoint journal and from the result
//! store, so the replayed execution simulates only the cells that were
//! actually in flight when the daemon died — and its CSVs are
//! byte-identical because cell results are deterministic and u64
//! counters round-trip losslessly through both stores.
//!
//! ## Admission control and degradation
//!
//! The queue is bounded ([`ServiceConfig::max_pending`]); beyond it
//! clients get a structured `error[overloaded]` instead of latency.
//! Between [`ServiceConfig::degrade_pending`] and the bound, a job that
//! opted in (`allow_degraded`) is downgraded to sampled simulation — the
//! explicit pressure valve: an answer now, flagged `degraded`, never a
//! silently different exact answer. Per-job deadlines, retry with
//! exponential backoff, and quarantine are inherited from
//! [`run_sweep_ft`]'s [`RunPolicy`].
//!
//! ## Shutdown
//!
//! SIGTERM (or the `shutdown` op) stops *admission* immediately, then
//! drains every already-accepted job before exiting, so a clean shutdown
//! leaves no `submitted` WAL entries behind. `kill -9` is the tested
//! path, not an error: the WAL replay above covers it.

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use ce_workloads::trace_cache_stats;

use crate::api::{CellSource, JobEvent, JobOutcome, JobSpec};
use crate::checkpoint::{write_atomic, CheckpointSpec};
use crate::journal::{Appender, Format};
use crate::json::Json;
use crate::manifest::{self, cell_key_with};
use crate::runner::{
    cell_weights, run_sweep_ft, CellHook, RunPolicy, SweepOptions,
};
use crate::store::{Lookup, ResultStore};
use crate::telemetry::{Event, Telemetry, TelemetryConfig, TelemetrySink as _};

/// Daemon configuration (one value per `cesimd` flag).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The Unix socket path to listen on.
    pub socket: PathBuf,
    /// The state directory (WAL, store, journals, artifacts).
    pub state_dir: PathBuf,
    /// Hard admission bound: queued + running jobs ≥ this → reject.
    pub max_pending: usize,
    /// Soft pressure mark: at or beyond it, jobs that allow it degrade
    /// to sampled mode.
    pub degrade_pending: usize,
    /// Suppress informational stderr lines.
    pub quiet: bool,
}

impl ServiceConfig {
    /// A config with the default admission bounds (8 hard, 4 soft).
    pub fn new(socket: PathBuf, state_dir: PathBuf) -> ServiceConfig {
        ServiceConfig { socket, state_dir, max_pending: 8, degrade_pending: 4, quiet: false }
    }
}

/// An admission decision (see [`admission`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Run as requested.
    Accept,
    /// Run now, but in sampled mode (the job allowed it and the queue is
    /// past the soft mark).
    Degrade,
    /// Queue full: reject with `error[overloaded]`.
    Reject,
}

/// The pure admission policy: `pending` is queued + running jobs at
/// decision time. Rejection is unconditional at the hard bound;
/// degradation needs the job's opt-in.
pub fn admission(
    pending: usize,
    max_pending: usize,
    degrade_pending: usize,
    allow_degraded: bool,
) -> Admission {
    if pending >= max_pending {
        Admission::Reject
    } else if pending >= degrade_pending && allow_degraded {
        Admission::Degrade
    } else {
        Admission::Accept
    }
}

/// One WAL entry still owed an execution.
#[derive(Debug, Clone)]
pub struct WalJob {
    /// Daemon-assigned job id (stable across restarts).
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Whether admission degraded it (preserved so a replay runs the
    /// *same* computation, hence reproduces the same bytes).
    pub degraded: bool,
}

/// The write-ahead job journal: tag `ce_jobs_wal`, one `submitted` or
/// `done` record per line.
pub(crate) const WAL: Format<WalRecord> = Format { tag: "ce_jobs_wal", decode: decode_wal };

/// One WAL record: a job accepted, or the job with this id settled.
pub(crate) enum WalRecord {
    Submitted(WalJob),
    Done(u64),
}

fn decode_wal(doc: Json) -> Option<WalRecord> {
    let id = doc.at("job")?.as_u64()?;
    match doc.at("state")?.as_str()? {
        "submitted" => Some(WalRecord::Submitted(WalJob {
            id,
            spec: JobSpec::from_json(doc.at("spec")?).ok()?,
            degraded: doc.at("degraded").and_then(Json::as_bool).unwrap_or(false),
        })),
        "done" => Some(WalRecord::Done(id)),
        _ => None,
    }
}

pub(crate) fn wal_header(next_id: u64) -> String {
    WAL.header(&format!("\"next\": {next_id}"))
}

/// Parses WAL bytes into the jobs still pending (submitted without done)
/// plus the next free job id.
///
/// Ids must stay monotonic across daemon generations — compaction drops
/// `done` records, so without a high-water mark a restarted daemon would
/// reuse ids (and their artifact/telemetry paths). The mark lives in the
/// header (`next`) and is raised past any id seen in the records.
///
/// Under the journal module's torn-tail rule a damaged **final** line —
/// the `kill -9` mid-append signature — is dropped silently, while damage
/// anywhere else discards the whole journal (better to forget jobs loudly
/// than to replay a mangled one).
///
/// # Errors
///
/// A message describing the corruption (caller warns and starts fresh).
pub(crate) fn parse_wal(bytes: &[u8]) -> Result<(Vec<WalJob>, u64), String> {
    let parsed = WAL.parse(bytes)?;
    let mut next_id = parsed.header.and_then(|h| h.at("next")?.as_u64()).unwrap_or(1).max(1);
    let mut pending: Vec<WalJob> = Vec::new();
    for record in parsed.records {
        match record {
            WalRecord::Submitted(job) => {
                next_id = next_id.max(job.id + 1);
                pending.push(job);
            }
            WalRecord::Done(id) => {
                next_id = next_id.max(id + 1);
                pending.retain(|j| j.id != id);
            }
        }
    }
    Ok((pending, next_id))
}

/// Opens the WAL, recovering pending jobs and the id high-water mark,
/// and compacting the file (header + one `submitted` record per
/// survivor) so replayed history never accretes.
fn open_wal(path: &Path) -> std::io::Result<(Appender, Vec<WalJob>, u64)> {
    let bytes = std::fs::read(path).unwrap_or_default();
    let (pending, next_id) = parse_wal(&bytes).unwrap_or_else(|e| {
        eprintln!("cesimd: warning: discarding job journal: {e}");
        (Vec::new(), 1)
    });
    let mut compact = wal_header(next_id);
    compact.push('\n');
    for job in &pending {
        compact.push_str(&submitted_record(job.id, &job.spec, job.degraded));
        compact.push('\n');
    }
    write_atomic(path, &compact)?;
    // The WAL is the durability boundary of the `submitted` state: fsync
    // every record, not just flush, so `accepted` is never sent for a job
    // a power cut could forget. One fsync per job, not per cell.
    let wal = Appender::resume(path, compact.len() as u64, true)?;
    Ok((wal, pending, next_id))
}

pub(crate) fn submitted_record(id: u64, spec: &JobSpec, degraded: bool) -> String {
    format!(
        "{{\"job\": {id}, \"state\": \"submitted\", \"degraded\": {degraded}, \
         \"spec\": {}}}",
        spec.to_json()
    )
}

pub(crate) fn done_record(id: u64) -> String {
    format!("{{\"job\": {id}, \"state\": \"done\"}}")
}

/// Set by the SIGTERM handler and the `shutdown` op; polled by the
/// accept loop.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_signum: i32) {
    STOP.store(true, Ordering::SeqCst);
}

extern "C" {
    // Typed handler pointer (not libc's usize soup): all the handler does
    // is store to an atomic, which is async-signal-safe.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

const SIGTERM: i32 = 15;

fn install_sigterm() {
    unsafe {
        signal(SIGTERM, on_term);
    }
}

/// One admitted job: the spec plus (for live submissions) the event
/// channel back to the client. WAL-recovered jobs run headless.
struct QueuedJob {
    id: u64,
    spec: JobSpec,
    degraded: bool,
    events: Option<mpsc::Sender<JobEvent>>,
}

struct QueueState {
    queue: VecDeque<QueuedJob>,
    running: usize,
    next_id: u64,
    stop: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    work: Condvar,
    config: ServiceConfig,
    store: Arc<ResultStore>,
    wal: Mutex<Appender>,
}

/// Runs the daemon until SIGTERM / `shutdown` (drains the queue first).
///
/// # Errors
///
/// Socket/state-directory setup failures only; everything after startup
/// is reported per connection or per job.
pub fn run(config: ServiceConfig) -> Result<(), String> {
    // Audit-and-repair before any loader touches the state dir: orphaned
    // tempfiles are swept and corrupt files quarantined (bytes
    // preserved under <state>/quarantine/), so every file the WAL,
    // store, and checkpoint loaders then see is one their recovery
    // rules actually cover.
    let audit = crate::fsck::fsck(&config.state_dir, true)
        .map_err(|e| format!("startup fsck: {e}"))?;
    if !config.quiet && (!audit.clean() || audit.count(crate::fsck::FileClass::OrphanTemp) > 0)
    {
        eprintln!("{audit}");
    }
    for sub in ["ckpt", "telemetry", "artifacts"] {
        std::fs::create_dir_all(config.state_dir.join(sub))
            .map_err(|e| format!("creating state dir: {e}"))?;
    }
    let store = Arc::new(
        ResultStore::open(&config.state_dir.join("store"))
            .map_err(|e| format!("opening result store: {e}"))?,
    );
    let (wal, recovered, next_id) = open_wal(&config.state_dir.join("jobs.jsonl"))
        .map_err(|e| format!("opening job journal: {e}"))?;
    if !recovered.is_empty() && !config.quiet {
        eprintln!("cesimd: resuming {} interrupted job(s)", recovered.len());
    }

    // The socket path must be fresh; a stale file from a kill -9'd
    // predecessor would make bind fail.
    let _ = std::fs::remove_file(&config.socket);
    let listener = UnixListener::bind(&config.socket)
        .map_err(|e| format!("binding {}: {e}", config.socket.display()))?;
    listener.set_nonblocking(true).map_err(|e| format!("socket: {e}"))?;
    install_sigterm();
    STOP.store(false, Ordering::SeqCst);

    let shared = Arc::new(Shared {
        state: Mutex::new(QueueState {
            queue: recovered
                .into_iter()
                .map(|j| QueuedJob { id: j.id, spec: j.spec, degraded: j.degraded, events: None })
                .collect(),
            running: 0,
            next_id,
            stop: false,
        }),
        work: Condvar::new(),
        config: config.clone(),
        store,
        wal: Mutex::new(wal),
    });

    let executor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("ce-executor".into())
            .spawn(move || executor_loop(&shared))
            .map_err(|e| format!("spawning executor: {e}"))?
    };

    if !config.quiet {
        eprintln!("cesimd: listening on {}", config.socket.display());
    }
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if STOP.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("ce-conn".into())
                    .spawn(move || handle_connection(stream, &shared))
                {
                    connections.push(handle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
                connections.retain(|h| !h.is_finished());
            }
            Err(e) => {
                eprintln!("cesimd: accept: {e}");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }

    // Drain: no new admissions (STOP gates them), run everything already
    // accepted, then leave. Connection threads end once their jobs do.
    {
        let mut state = shared.state.lock().expect("service state");
        state.stop = true;
        shared.work.notify_all();
        if !config.quiet {
            eprintln!(
                "cesimd: draining {} job(s) before exit",
                state.queue.len() + state.running
            );
        }
    }
    let _ = executor.join();
    for handle in connections {
        let _ = handle.join();
    }
    let _ = std::fs::remove_file(&config.socket);
    Ok(())
}

fn executor_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("service state");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.running += 1;
                    break job;
                }
                if state.stop {
                    return;
                }
                state = shared.work.wait(state).expect("service state");
            }
        };
        process_job(shared, job);
        let mut state = shared.state.lock().expect("service state");
        state.running -= 1;
    }
}

/// Longest request line the daemon buffers. A hostile (or broken) client
/// streaming an endless line must cost bounded memory: past this the
/// line is discarded to its newline and answered with `error[proto]`.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// One read attempt's outcome (see [`read_request`]).
enum Request {
    /// A complete line, within the cap.
    Line(String),
    /// The line exceeded [`MAX_REQUEST_LINE`]; it was discarded up to
    /// and including its newline (or EOF), and the connection is still
    /// usable.
    Oversized,
    /// The client went away (EOF, error, or daemon shutdown).
    Gone,
}

/// Reads one newline-terminated request line, tolerating the socket's
/// read timeout (so shutdown is never blocked on a silent client) and
/// capping line length (so a hostile client cannot balloon memory).
/// `spill` carries bytes read past a previous line's newline, so a
/// client that pipelines several requests in one burst loses none of
/// them — even when one of the burst's lines was oversized.
fn read_request(stream: &mut UnixStream, spill: &mut VecDeque<u8>) -> Request {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut line: Vec<u8> = Vec::new();
    let mut oversized = false;
    let mut chunk = [0u8; 1024];
    loop {
        while let Some(b) = spill.pop_front() {
            if b == b'\n' {
                return if oversized {
                    Request::Oversized
                } else {
                    Request::Line(String::from_utf8_lossy(&line).into_owned())
                };
            }
            if oversized {
                continue; // keep draining the hostile line
            }
            line.push(b);
            if line.len() > MAX_REQUEST_LINE {
                oversized = true;
                line.clear();
            }
        }
        if STOP.load(Ordering::SeqCst) && line.is_empty() && !oversized {
            return Request::Gone;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Request::Gone,
            Ok(n) => spill.extend(chunk[..n].iter().copied()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return Request::Gone,
        }
    }
}

fn send_line(stream: &mut UnixStream, line: &str) {
    // A vanished client must not take the daemon (or the job) with it.
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}

fn send_event(stream: &mut UnixStream, ev: &JobEvent) {
    send_line(stream, &ev.to_json());
}

/// Serves one client connection until it hangs up. Protocol faults —
/// unparseable JSON, unknown ops, oversized lines — are answered with a
/// structured `error[proto]` event and the connection (and daemon) stay
/// alive: a hostile or buggy client must never cost more than its own
/// request.
fn handle_connection(mut stream: UnixStream, shared: &Shared) {
    let proto_error = |stream: &mut UnixStream, message: String| {
        send_event(stream, &JobEvent::Error { kind: "proto".into(), message });
    };
    let mut spill = VecDeque::new();
    loop {
        let line = match read_request(&mut stream, &mut spill) {
            Request::Gone => return,
            Request::Oversized => {
                proto_error(
                    &mut stream,
                    format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                );
                continue;
            }
            Request::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue; // blank lines are harmless keep-alive noise
        }
        let Ok(doc) = Json::parse(&line) else {
            proto_error(&mut stream, "unparseable request (not a JSON object)".into());
            continue;
        };
        match doc.at("op").and_then(Json::as_str) {
            Some("ping") => send_line(&mut stream, "{\"ev\": \"pong\"}"),
            Some("status") => {
                let (pending, running) = {
                    let state = shared.state.lock().expect("service state");
                    (state.queue.len(), state.running)
                };
                send_line(
                    &mut stream,
                    &format!(
                        "{{\"ev\": \"status\", \"queued\": {pending}, \"running\": {running}, \
                         \"store_entries\": {}}}",
                        shared.store.len()
                    ),
                );
            }
            Some("shutdown") => {
                STOP.store(true, Ordering::SeqCst);
                send_line(&mut stream, "{\"ev\": \"stopping\"}");
            }
            Some("submit") => handle_submit(&mut stream, shared, &doc),
            other => proto_error(&mut stream, format!("unknown op {other:?}")),
        }
    }
}

fn handle_submit(stream: &mut UnixStream, shared: &Shared, doc: &Json) {
    let fail = |stream: &mut UnixStream, kind: &str, message: String| {
        send_event(stream, &JobEvent::Error { kind: kind.into(), message });
    };
    let Some(spec_doc) = doc.at("spec") else {
        return fail(stream, "proto", "submit without `spec`".into());
    };
    let spec = match JobSpec::from_json(spec_doc) {
        Ok(spec) => spec,
        Err(e) => return fail(stream, "config-invalid", e),
    };
    // Resolve up front: reject unknown machines/benches before the job
    // occupies a queue slot, and learn the cell count for `accepted`.
    let undegraded = match spec.resolve(false) {
        Ok(plan) => plan,
        Err(e) => return fail(stream, "config-invalid", e),
    };

    // Admission + WAL + enqueue happen under one short critical section;
    // event streaming below runs lock-free so the executor can work.
    let (id, degraded, rx) = {
        let mut state = shared.state.lock().expect("service state");
        if state.stop || STOP.load(Ordering::SeqCst) {
            return fail(stream, "overloaded", "daemon is draining for shutdown".into());
        }
        let pending = state.queue.len() + state.running;
        let decision = admission(
            pending,
            shared.config.max_pending,
            shared.config.degrade_pending,
            spec.allow_degraded,
        );
        // Degrading a job that is already sampled changes nothing; keep
        // its flag honest.
        let degraded = decision == Admission::Degrade && undegraded.run.sampled.is_none();
        if decision == Admission::Reject {
            return fail(
                stream,
                "overloaded",
                format!("queue full ({pending} pending, bound {})", shared.config.max_pending),
            );
        }
        let id = state.next_id;
        // WAL first: `accepted` must never outrun durability.
        if let Err(e) = shared
            .wal
            .lock()
            .expect("wal")
            .append(submitted_record(id, &spec, degraded))
        {
            return fail(stream, "io", format!("job journal: {e}"));
        }
        state.next_id += 1;
        let (tx, rx) = mpsc::channel();
        state.queue.push_back(QueuedJob {
            id,
            spec: spec.clone(),
            degraded,
            events: Some(tx),
        });
        shared.work.notify_one();
        (id, degraded, rx)
    };
    send_event(
        stream,
        &JobEvent::Accepted { job: id, cells: undegraded.jobs.len(), degraded },
    );
    // Stream the job's events until the executor drops the sender.
    for ev in rx {
        send_event(stream, &ev);
    }
}

/// Executes one admitted job end to end. Never panics the daemon: all
/// failures become structured events and the WAL keeps its invariants.
fn process_job(shared: &Shared, job: QueuedJob) {
    let sender = job.events.clone();
    let send = |ev: JobEvent| {
        if let Some(tx) = &sender {
            let _ = tx.send(ev);
        }
    };
    let plan = match job.spec.resolve(job.degraded) {
        Ok(plan) => plan,
        Err(e) => {
            send(JobEvent::Error { kind: "config-invalid".into(), message: e });
            let _ = shared.wal.lock().expect("wal").append(done_record(job.id));
            return;
        }
    };
    let max_insts = job.spec.max_insts.unwrap_or_else(crate::max_insts);
    let code = manifest::code_version();
    let state_dir = &shared.config.state_dir;

    // One telemetry journal per *execution*: a restarted job gets
    // exec-1, exec-2, … so a test (or operator) can prove which cells
    // each attempt actually simulated.
    let tel_dir = state_dir.join("telemetry");
    let exec = (0u32..)
        .find(|k| !tel_dir.join(format!("job-{}.exec-{k}.jsonl", job.id)).exists())
        .unwrap_or(0);
    let telemetry = Telemetry::create(
        &TelemetryConfig {
            name: format!("job-{}:{}", job.id, job.spec.display_name()),
            journal: Some(tel_dir.join(format!("job-{}.exec-{exec}.jsonl", job.id))),
            chrome_out: None,
            progress: false,
        },
        cell_weights(&plan.jobs, max_insts),
        max_insts,
    )
    .unwrap_or_else(|e| {
        eprintln!("cesimd: warning: job {} telemetry: {e}", job.id);
        Telemetry::disabled()
    });

    // Plan cache service: compute every cell's identity key, serve hits
    // from the store, and leave misses for the sweep.
    let mut keys = Vec::with_capacity(plan.jobs.len());
    let mut prefill = Vec::with_capacity(plan.jobs.len());
    for (i, cell_job) in plan.jobs.iter().enumerate() {
        let key = match cell_key_with(&code, cell_job, max_insts, plan.run) {
            Ok(key) => key,
            Err(e) => {
                send(JobEvent::Error { kind: "io".into(), message: format!("cell {i}: {e}") });
                let _ = shared.wal.lock().expect("wal").append(done_record(job.id));
                return;
            }
        };
        match shared.store.lookup(&key, &code) {
            Lookup::Hit(result) => {
                telemetry.emit(Event::CacheHit { cell: i });
                send(JobEvent::Cell { job: job.id, cell: i, source: CellSource::Cache });
                prefill.push(Some(*result));
            }
            Lookup::Miss | Lookup::Stale => {
                telemetry.emit(Event::CacheMiss { cell: i });
                prefill.push(None);
            }
        }
        keys.push(key);
    }
    let cache_hits = prefill.iter().flatten().count();
    let cache_misses = prefill.len() - cache_hits;

    // Freshly simulated cells flow into the store (atomic per cell) and
    // to the client the moment they finish.
    let io_error: Arc<Mutex<Option<String>>> = Arc::default();
    let hook = {
        let store = Arc::clone(&shared.store);
        let keys = keys.clone();
        let code = code.clone();
        let io_error = Arc::clone(&io_error);
        // Sender is !Sync; the hook runs on every worker thread.
        let sender = sender.clone().map(Mutex::new);
        let id = job.id;
        CellHook::new(move |i, result| {
            if let Err(e) = store.insert(&keys[i], &code, result) {
                let mut slot = io_error.lock().expect("io error slot");
                slot.get_or_insert_with(|| format!("storing cell {i}: {e}"));
            }
            if let Some(tx) = &sender {
                let _ = tx
                    .lock()
                    .expect("event sender")
                    .send(JobEvent::Cell { job: id, cell: i, source: CellSource::Run });
            }
        })
    };

    let opts = SweepOptions {
        run: plan.run,
        policy: RunPolicy {
            cell_timeout: job.spec.deadline_ms.map(Duration::from_millis),
            ..RunPolicy::default()
        },
        // The cell checkpoint journal survives kill -9 and feeds the
        // replayed execution; `resume: true` is unconditional because a
        // fresh job simply has no journal yet.
        checkpoint: Some(CheckpointSpec::for_output(
            &state_dir.join("ckpt").join(format!("job-{}.csv", job.id)),
            true,
        )),
        telemetry: telemetry.clone(),
        prefill,
        on_cell: hook,
    };
    let evictions_before = trace_cache_stats().evictions;
    let summary = match run_sweep_ft(&plan.jobs, max_insts, &opts) {
        Ok(summary) => summary,
        Err(e) => {
            // Checkpoint-journal I/O failure: the job is NOT marked done,
            // so a restart (or the next daemon) retries it.
            send(JobEvent::Error { kind: "io".into(), message: format!("checkpoint: {e}") });
            return;
        }
    };
    let evicted = trace_cache_stats().evictions.saturating_sub(evictions_before);
    if evicted > 0 {
        telemetry.emit(Event::TraceEvicted { count: evicted });
    }

    let mut artifacts = Vec::new();
    if summary.all_ok() {
        artifacts = job.spec.artifacts(job.degraded, &summary);
        let dir = state_dir.join("artifacts").join(format!("job-{}", job.id));
        let mut paths = Vec::with_capacity(artifacts.len());
        for (name, content) in &artifacts {
            let path = dir.join(name);
            if let Err(e) = write_atomic(&path, content) {
                let mut slot = io_error.lock().expect("io error slot");
                slot.get_or_insert_with(|| format!("writing {}: {e}", path.display()));
            }
            paths.push(path);
        }
        if !paths.is_empty() {
            let path_refs: Vec<&Path> = paths.iter().map(PathBuf::as_path).collect();
            if let Err(e) = manifest::write_manifest(
                &dir.join("manifest.json"),
                &format!("cesimd:{}", job.spec.display_name()),
                &plan.jobs,
                max_insts,
                plan.run,
                &summary,
                &path_refs,
            ) {
                let mut slot = io_error.lock().expect("io error slot");
                slot.get_or_insert_with(|| format!("manifest: {e}"));
            }
        }
    }

    if let Err(e) = shared.wal.lock().expect("wal").append(done_record(job.id)) {
        let mut slot = io_error.lock().expect("io error slot");
        slot.get_or_insert_with(|| format!("job journal: {e}"));
    }
    if let Some(message) = io_error.lock().expect("io error slot").take() {
        send(JobEvent::Error { kind: "io".into(), message });
    }
    send(JobEvent::Done {
        job: job.id,
        outcome: JobOutcome {
            ok: summary.cells.iter().flatten().count(),
            failed: summary.failures.len(),
            cache_hits,
            cache_misses,
            degraded: job.degraded,
            artifacts,
            failures: summary.failures.iter().map(|f| f.to_string()).collect(),
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{SweepKind, SweepRequest};
    use crate::iofault::{with_plan, FailPlan, FaultClass};

    /// The admission policy table: hard bound rejects unconditionally,
    /// the soft mark degrades only with opt-in, and below it everything
    /// is accepted as-is.
    #[test]
    fn admission_policy_table() {
        assert_eq!(admission(0, 8, 4, false), Admission::Accept);
        assert_eq!(admission(3, 8, 4, true), Admission::Accept);
        assert_eq!(admission(4, 8, 4, false), Admission::Accept);
        assert_eq!(admission(4, 8, 4, true), Admission::Degrade);
        assert_eq!(admission(7, 8, 4, true), Admission::Degrade);
        assert_eq!(admission(8, 8, 4, true), Admission::Reject);
        assert_eq!(admission(8, 8, 4, false), Admission::Reject);
        assert_eq!(admission(0, 0, 0, false), Admission::Reject);
    }

    fn spec() -> JobSpec {
        JobSpec::preset(SweepKind::Fig13)
    }

    /// WAL parsing: done cancels submitted, and the next-id high-water
    /// mark survives both records and the header. (The torn-tail shapes
    /// are in `fsck`'s loader agreement table.)
    #[test]
    fn wal_parse_recovers_pending_and_the_id_mark() {
        let mut text = format!("{}\n", wal_header(1));
        text.push_str(&submitted_record(1, &spec(), false));
        text.push('\n');
        text.push_str(&submitted_record(2, &spec(), true));
        text.push('\n');
        text.push_str(&done_record(1));
        text.push('\n');
        let (pending, next_id) = parse_wal(text.as_bytes()).unwrap();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].id, 2);
        assert!(pending[0].degraded);
        assert_eq!(next_id, 3, "the mark clears every id in the records");
        assert!(matches!(
            pending[0].spec.request,
            SweepRequest::Preset(SweepKind::Fig13)
        ));

        // A compacted journal carries the mark even with no records left:
        // ids never rewind across daemon generations.
        let (pending, next_id) = parse_wal(format!("{}\n", wal_header(9)).as_bytes()).unwrap();
        assert!(pending.is_empty());
        assert_eq!(next_id, 9);
    }

    fn wal_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ce-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("jobs.jsonl")
    }

    /// A torn `submitted` append is rolled back, so the retry that
    /// `handle_submit` makes under the same id lands on a clean line: the
    /// accepted job survives a restart, and so does the one before it.
    #[test]
    fn torn_wal_append_is_rolled_back_before_the_retry() {
        let path = wal_path("torn");
        let (mut wal, _, _) = open_wal(&path).unwrap();
        wal.append(submitted_record(1, &spec(), false)).unwrap();
        let (torn, _) = with_plan(FailPlan::one(0, FaultClass::TornWrite), || {
            wal.append(submitted_record(2, &spec(), false))
        });
        assert!(torn.is_err(), "the client is refused");
        wal.append(submitted_record(2, &spec(), false)).unwrap();
        drop(wal);

        let (_, pending, next_id) = open_wal(&path).unwrap();
        assert_eq!(pending.iter().map(|j| j.id).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(next_id, 3);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// A failed fsync refuses the job, and its record is rolled back: the
    /// different spec accepted next under the same id is the only job a
    /// restart replays.
    #[test]
    fn failed_wal_fsync_leaves_no_record_behind() {
        let path = wal_path("fsync");
        let (mut wal, _, next_id) = open_wal(&path).unwrap();
        assert_eq!(next_id, 1);
        // Op 0 is the append's write, op 1 its fsync.
        let (refused, _) = with_plan(FailPlan::one(1, FaultClass::FailedFsync), || {
            wal.append(submitted_record(1, &spec(), false))
        });
        assert!(refused.is_err(), "the client is refused");
        let accepted = JobSpec::preset(SweepKind::Fig15);
        wal.append(submitted_record(1, &accepted, true)).unwrap();
        drop(wal);

        let (_, pending, next_id) = open_wal(&path).unwrap();
        assert_eq!(pending.len(), 1, "only the accepted job replays");
        assert!(matches!(pending[0].spec.request, SweepRequest::Preset(SweepKind::Fig15)));
        assert!(pending[0].degraded);
        assert_eq!(next_id, 2);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// The nastier journal shapes: a torn header with intact records
    /// after it is an integrity failure (the id mark is gone, so the
    /// records cannot be trusted), the header's high-water mark wins
    /// over lower record ids, and a fault injected into the compaction
    /// rename leaves the original journal byte-identical on disk.
    #[test]
    fn wal_edge_cases() {
        // A torn header with records after it is NOT the kill -9 torn
        // tail: discard loudly rather than replay unanchored ids.
        let mut text = String::from("{\"ce_jobs_w\n");
        text.push_str(&submitted_record(1, &spec(), false));
        text.push('\n');
        assert!(parse_wal(text.as_bytes()).is_err());

        // The header mark outranks every record id (compaction wrote
        // it after handing out ids 1..100; the records just lag).
        let mut text = format!("{}\n", wal_header(100));
        text.push_str(&submitted_record(3, &spec(), true));
        text.push('\n');
        let (pending, next_id) = parse_wal(text.as_bytes()).unwrap();
        assert_eq!(pending.len(), 1);
        assert_eq!(next_id, 100, "the mark never rewinds");

        // Interrupted compaction: write_atomic's rename is its op 3;
        // fail it and the pre-compaction journal must still be on disk
        // byte for byte, with a clean reopen recovering everything.
        let dir = std::env::temp_dir().join(format!("ce-wal-edge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let mut text = format!("{}\n", wal_header(1));
        text.push_str(&submitted_record(1, &spec(), false));
        text.push('\n');
        std::fs::write(&path, &text).unwrap();
        let (result, ops) = crate::iofault::with_plan(
            crate::iofault::FailPlan::one(3, crate::iofault::FaultClass::Eio),
            || open_wal(&path),
        );
        assert!(result.is_err(), "the compaction failure must propagate");
        assert_eq!(ops, 4, "create, write, sync, then the faulted rename");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            text,
            "the original journal survives an interrupted compaction untouched"
        );
        let (_, pending, next_id) = open_wal(&path).unwrap();
        assert_eq!(pending.len(), 1);
        assert_eq!(next_id, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// open_wal compacts: done jobs disappear from the rewritten file,
    /// and appends after recovery land on a clean journal even when the
    /// previous instance died mid-append.
    #[test]
    fn wal_open_compacts_and_appends_cleanly() {
        let dir = std::env::temp_dir().join(format!("ce-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let mut text = format!("{}\n", wal_header(1));
        text.push_str(&submitted_record(5, &spec(), false));
        text.push('\n');
        text.push_str(&done_record(5));
        text.push('\n');
        text.push_str(&submitted_record(6, &spec(), false));
        text.push('\n');
        text.push_str("{\"job\": 7, \"sta"); // torn tail
        std::fs::write(&path, &text).unwrap();

        let (mut wal, pending, next_id) = open_wal(&path).unwrap();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].id, 6);
        assert_eq!(next_id, 7);
        wal.append(done_record(6)).unwrap();
        wal.append(submitted_record(7, &spec(), false)).unwrap();

        // A second recovery sees exactly job 7 and keeps ids monotonic.
        let (mut wal, pending, next_id) = open_wal(&path).unwrap();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].id, 7);
        assert_eq!(next_id, 8);
        wal.append(done_record(7)).unwrap();

        // Even after everything completes, a later generation never
        // hands out an id below the mark.
        let (_, pending, next_id) = open_wal(&path).unwrap();
        assert!(pending.is_empty());
        assert_eq!(next_id, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
