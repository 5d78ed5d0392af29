//! Engine telemetry: sweep → job → cell span tracing for the experiment
//! runner, mirroring the simulator's `ProbeSink` discipline — **zero cost
//! when disabled**, and never able to change results when enabled.
//!
//! The simulator got deep observability in PR 3 (probe events, stall
//! attribution, pipeview); this module gives the *experiment engine* the
//! same treatment. A [`Telemetry`] handle is threaded through
//! [`run_sweep_ft`](crate::runner::run_sweep_ft) and emits one
//! [`Event`] per state transition of every cell: dispatch (queue wait is
//! the gap from sweep begin to first attempt), attempt start/end, retry
//! backoff, quarantine, durable record (checkpoint append or store
//! insert), and sweep begin/end.
//!
//! Three consumers share the one event stream, each optional:
//!
//! * **JSONL journal** — a [`crate::journal`] file tagged `ce_telemetry`,
//!   one event per line, appended as it happens. A `kill -9` loses at
//!   most the line in flight, which [`HealthReport::from_journal`] drops
//!   under the journal module's torn-tail rule; a failed append is rolled
//!   back, so it costs that one event and never the ones after it. The
//!   `sweephealth` binary aggregates these into a health report.
//! * **Live progress line** — a single self-overwriting stderr line with
//!   percent done and an ETA weighted by
//!   [`schedule_order`](crate::runner::schedule_order)'s per-cell cost
//!   estimates, so seven cheap cells don't read as 7× the progress of one
//!   gcc central-window cell.
//! * **Chrome `trace_event` export** — a Perfetto-loadable JSON timeline
//!   with one lane per `ce-cell-*` worker, written atomically at sweep
//!   end. Stragglers, retry storms, and the longest-first dispatch order
//!   become visually auditable.
//!
//! The disabled path is a single `Option` check per event
//! ([`Telemetry::default`] carries no allocation), and no consumer ever
//! touches result data: CSVs and fingerprints are byte-identical with
//! telemetry on or off (`tests/telemetry.rs` pins this).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ce_workloads::Benchmark;

use crate::checkpoint::write_atomic;
use crate::journal::{Appender, Format};
use crate::json::{self, Json};

/// The telemetry journal: tag `ce_telemetry`, one `(t_us, event)` per
/// record.
pub const FORMAT: Format<(u64, Json)> = Format { tag: "ce_telemetry", decode: decode_event };

/// One structured engine event. Timestamps are added by the sink
/// (microseconds since the [`Telemetry`] handle was created); every
/// event is self-contained so journal lines never need joining to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The sweep is about to dispatch work (after checkpoint recovery).
    SweepBegin {
        /// Total cells in the sweep.
        cells: usize,
        /// Worker threads about to run.
        threads: usize,
        /// Cells not simulated: recovered from the checkpoint journal or
        /// prefilled (in cesimd, served from the result store), one
        /// `CellResumed` each.
        resumed: usize,
        /// Per-benchmark instruction cap.
        max_insts: u64,
    },
    /// A cell was recovered from the checkpoint journal, or prefilled
    /// (in cesimd: served from the result store), instead of run;
    /// `wall_us` is its recorded simulation wall time.
    CellResumed {
        /// Input-order cell index.
        cell: usize,
        /// Recorded wall time of the original run, µs.
        wall_us: u64,
    },
    /// A worker started one attempt of a cell. The gap between
    /// `SweepBegin` and a cell's first `AttemptStart` is its queue wait.
    AttemptStart {
        /// Input-order cell index.
        cell: usize,
        /// The benchmark half of the job.
        bench: Benchmark,
        /// Worker index (thread `ce-cell-{worker}`).
        worker: usize,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The attempt finished. `outcome` is `"ok"` or the
    /// [`RunError`](crate::runner::RunError) category; `last` is false
    /// only when a retry of the same cell will follow.
    AttemptEnd {
        /// Input-order cell index.
        cell: usize,
        /// Worker index.
        worker: usize,
        /// 1-based attempt number.
        attempt: u32,
        /// `"ok"` or a `RunError` category name.
        outcome: &'static str,
        /// Wall time of this attempt, µs.
        wall_us: u64,
        /// Simulated cycles (0 on failure).
        cycles: u64,
        /// Whether this settles the cell (no retry follows).
        last: bool,
    },
    /// A transient failure is being retried after this sleep.
    Backoff {
        /// Input-order cell index.
        cell: usize,
        /// Worker index.
        worker: usize,
        /// The attempt that just failed.
        attempt: u32,
        /// Exponential-backoff sleep before the next attempt, µs.
        sleep_us: u64,
    },
    /// The cell failed fast because an identical job already failed
    /// deterministically at cell `first`.
    Quarantined {
        /// Input-order cell index.
        cell: usize,
        /// Worker index.
        worker: usize,
        /// The cell whose failure poisoned this job.
        first: usize,
    },
    /// A durable record of this freshly simulated cell exists: a CLI
    /// sweep's checkpoint append, or cesimd's store insert, succeeded.
    CheckpointWrite {
        /// Input-order cell index recorded.
        cell: usize,
        /// Wall time of the append or insert, µs.
        write_us: u64,
    },
    /// The sweep finished (success or not); the sink flushes, clears the
    /// progress line, and writes the Chrome trace on this event.
    SweepEnd {
        /// Cells with results (resumed included).
        ok: usize,
        /// Cells that failed.
        failed: usize,
        /// Wall time of the whole sweep, µs.
        wall_us: u64,
    },
    /// A cell was served from the content-addressed result store instead
    /// of being simulated (the experiment service emits these while
    /// planning a job).
    CacheHit {
        /// Input-order cell index.
        cell: usize,
    },
    /// A cell missed the result store and will be simulated. A stale
    /// entry (written by a different code version) counts as a miss — it
    /// is never silently served.
    CacheMiss {
        /// Input-order cell index.
        cell: usize,
    },
    /// The shared trace LRU evicted entries; `count` is the eviction
    /// delta since the previous report (the service emits one per job).
    TraceEvicted {
        /// Evictions since the last `TraceEvicted` event.
        count: u64,
    },
}

impl Event {
    /// Stable machine-readable event name (the journal's `ev` field).
    pub fn name(&self) -> &'static str {
        match self {
            Event::SweepBegin { .. } => "sweep-begin",
            Event::CellResumed { .. } => "cell-resumed",
            Event::AttemptStart { .. } => "attempt-start",
            Event::AttemptEnd { .. } => "attempt-end",
            Event::Backoff { .. } => "backoff",
            Event::Quarantined { .. } => "quarantined",
            Event::CheckpointWrite { .. } => "checkpoint-write",
            Event::SweepEnd { .. } => "sweep-end",
            Event::CacheHit { .. } => "cache-hit",
            Event::CacheMiss { .. } => "cache-miss",
            Event::TraceEvicted { .. } => "trace-evicted",
        }
    }
}

/// Every [`Event::name`]: the `ev` values a journal record may carry.
const EVENT_NAMES: [&str; 11] = [
    "sweep-begin", "cell-resumed", "attempt-start", "attempt-end", "backoff", "quarantined",
    "checkpoint-write", "sweep-end", "cache-hit", "cache-miss", "trace-evicted",
];

/// Decodes one journal line: its timestamp and a known event name.
fn decode_event(doc: Json) -> Option<(u64, Json)> {
    let t_us = doc.at("t_us")?.as_u64()?;
    let known = EVENT_NAMES.contains(&doc.at("ev")?.as_str()?);
    known.then_some((t_us, doc))
}

/// How to build a [`Telemetry`] handle. All consumers default off; a
/// config with nothing enabled produces the zero-cost disabled handle.
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// Sweep name for the journal header and progress line.
    pub name: String,
    /// Write the JSONL event journal here.
    pub journal: Option<PathBuf>,
    /// Write a Chrome `trace_event` JSON here at sweep end.
    pub chrome_out: Option<PathBuf>,
    /// Render the live stderr progress line.
    pub progress: bool,
}

/// The telemetry handle threaded through
/// [`SweepOptions`](crate::runner::SweepOptions). Cheap to clone
/// (`Arc`), `Default` is the disabled handle: one pointer-sized `None`,
/// one branch per would-be event, no allocation.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately opaque: SweepOptions derives Debug, and telemetry
        // state must never leak into anything a caller might hash.
        f.write_str(if self.inner.is_some() { "Telemetry(on)" } else { "Telemetry(off)" })
    }
}

struct Inner {
    name: String,
    epoch: Instant,
    journal: Option<Mutex<Appender>>,
    chrome_out: Option<PathBuf>,
    recorder: Option<Mutex<Vec<(u64, Event)>>>,
    progress: Option<Mutex<Progress>>,
    /// Per-cell cost estimates (same scale as
    /// [`schedule_order`](crate::runner::schedule_order)) for the ETA.
    weights: Vec<u64>,
}

impl Telemetry {
    /// The disabled handle (same as `Telemetry::default()`).
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// Consumes one event. Never panics and never influences results.
    pub fn emit(&self, ev: Event) {
        if let Some(inner) = &self.inner {
            inner.observe(ev);
        }
    }

    /// Whether events are observed at all (lets hot paths skip argument
    /// construction; the disabled handle answers in one branch).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Builds a handle per `config`. `weights` are the per-cell cost
    /// estimates (from [`crate::runner::cell_weights`]) the progress ETA
    /// uses; `max_insts` is recorded in the journal header. Returns the
    /// disabled handle when no consumer is requested.
    ///
    /// # Errors
    ///
    /// I/O errors creating the journal file (the one consumer that opens
    /// a file eagerly — failing *later* would silently drop telemetry the
    /// user asked for).
    pub fn create(
        config: &TelemetryConfig,
        weights: Vec<u64>,
        max_insts: u64,
    ) -> std::io::Result<Telemetry> {
        if config.journal.is_none() && config.chrome_out.is_none() && !config.progress {
            return Ok(Telemetry::default());
        }
        let journal = match &config.journal {
            Some(path) => {
                // Through the I/O fault seam like every durability path:
                // an injected fault here fails telemetry *creation*
                // loudly (the caller asked for a journal it cannot have)
                // while per-event append faults later are swallowed.
                let fields = format!(
                    "\"name\": \"{}\", \"cells\": {}, \"max_insts\": {max_insts}",
                    json::escape(&config.name),
                    weights.len(),
                );
                Some(Mutex::new(Appender::create(path, &FORMAT.header(&fields), false)?))
            }
            None => None,
        };
        let total_weight = weights.iter().sum::<u64>().max(1);
        Ok(Telemetry {
            inner: Some(Arc::new(Inner {
                name: config.name.clone(),
                epoch: Instant::now(),
                journal,
                chrome_out: config.chrome_out.clone(),
                recorder: config.chrome_out.is_some().then(|| Mutex::new(Vec::new())),
                progress: config.progress.then(|| {
                    Mutex::new(Progress {
                        total_cells: weights.len(),
                        done_cells: 0,
                        failed_cells: 0,
                        total_weight,
                        done_weight: 0,
                        last_render_us: None,
                    })
                }),
                weights,
            })),
        })
    }
}

impl Inner {
    fn observe(&self, ev: Event) {
        // Saturating far beyond any real sweep; stays u64 for the journal.
        let t_us = u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        if let Some(journal) = &self.journal {
            // Telemetry I/O failures must never fail a sweep: swallow
            // them. The appender rolls a failed line back, so the journal
            // simply loses that one event (or, if the rollback fails too,
            // ends early on a torn tail every reader drops).
            if let Ok(mut log) = journal.lock() {
                let _ = log.append(event_json(t_us, &ev));
            }
        }
        if let Some(recorder) = &self.recorder {
            if let Ok(mut events) = recorder.lock() {
                events.push((t_us, ev));
            }
        }
        if let Some(progress) = &self.progress {
            if let Ok(mut p) = progress.lock() {
                p.observe(t_us, &ev, &self.name, &self.weights);
            }
        }
        if matches!(ev, Event::SweepEnd { .. }) {
            self.export_chrome_trace();
        }
    }

    /// Writes the Chrome trace (if requested) from the recorded events.
    /// Failures warn on stderr instead of failing the sweep.
    fn export_chrome_trace(&self) {
        let (Some(path), Some(recorder)) = (&self.chrome_out, &self.recorder) else {
            return;
        };
        let Ok(events) = recorder.lock() else { return };
        let json = chrome_trace_json(&self.name, &events);
        if let Err(e) = write_atomic(path, &json) {
            eprintln!("{}: warning: writing Chrome trace {}: {e}", self.name, path.display());
        }
    }
}

/// Serializes one event as a journal line (no trailing newline).
fn event_json(t_us: u64, ev: &Event) -> String {
    let body = match *ev {
        Event::SweepBegin { cells, threads, resumed, max_insts } => format!(
            "\"cells\": {cells}, \"threads\": {threads}, \"resumed\": {resumed}, \
             \"max_insts\": {max_insts}"
        ),
        Event::CellResumed { cell, wall_us } => {
            format!("\"cell\": {cell}, \"wall_us\": {wall_us}")
        }
        Event::AttemptStart { cell, bench, worker, attempt } => format!(
            "\"cell\": {cell}, \"bench\": \"{}\", \"worker\": {worker}, \"attempt\": {attempt}",
            bench.name()
        ),
        Event::AttemptEnd { cell, worker, attempt, outcome, wall_us, cycles, last } => format!(
            "\"cell\": {cell}, \"worker\": {worker}, \"attempt\": {attempt}, \
             \"outcome\": \"{outcome}\", \"wall_us\": {wall_us}, \"cycles\": {cycles}, \
             \"last\": {last}"
        ),
        Event::Backoff { cell, worker, attempt, sleep_us } => format!(
            "\"cell\": {cell}, \"worker\": {worker}, \"attempt\": {attempt}, \
             \"sleep_us\": {sleep_us}"
        ),
        Event::Quarantined { cell, worker, first } => {
            format!("\"cell\": {cell}, \"worker\": {worker}, \"first\": {first}")
        }
        Event::CheckpointWrite { cell, write_us } => {
            format!("\"cell\": {cell}, \"write_us\": {write_us}")
        }
        Event::SweepEnd { ok, failed, wall_us } => {
            format!("\"ok\": {ok}, \"failed\": {failed}, \"wall_us\": {wall_us}")
        }
        Event::CacheHit { cell } | Event::CacheMiss { cell } => format!("\"cell\": {cell}"),
        Event::TraceEvicted { count } => format!("\"count\": {count}"),
    };
    format!("{{\"t_us\": {t_us}, \"ev\": \"{}\", {body}}}", ev.name())
}

/// Live progress state. Rendering is throttled to ~10 Hz so tight sweeps
/// of tiny cells don't spend their time repainting a terminal line.
struct Progress {
    total_cells: usize,
    done_cells: usize,
    failed_cells: usize,
    total_weight: u64,
    done_weight: u64,
    last_render_us: Option<u64>,
}

impl Progress {
    fn observe(&mut self, t_us: u64, ev: &Event, name: &str, weights: &[u64]) {
        let settle = |p: &mut Progress, cell: usize, failed: bool| {
            p.done_cells += 1;
            p.failed_cells += usize::from(failed);
            p.done_weight += weights.get(cell).copied().unwrap_or(1);
        };
        match *ev {
            Event::SweepBegin { .. } => self.render(t_us, name, true),
            Event::CellResumed { cell, .. } => {
                settle(self, cell, false);
                self.render(t_us, name, false);
            }
            Event::AttemptEnd { cell, outcome, last: true, .. } => {
                settle(self, cell, outcome != "ok");
                self.render(t_us, name, false);
            }
            Event::Quarantined { cell, .. } => {
                settle(self, cell, true);
                self.render(t_us, name, false);
            }
            Event::SweepEnd { .. } => {
                // Clear the line so the binary's ordinary stderr epilogue
                // ("wrote results/…") starts at column 0.
                let mut err = std::io::stderr().lock();
                let _ = write!(err, "\r\x1b[2K");
                let _ = err.flush();
            }
            _ => {}
        }
    }

    fn render(&mut self, t_us: u64, name: &str, force: bool) {
        let due = force
            || self.done_cells == self.total_cells
            || self.last_render_us.is_none_or(|last| t_us.saturating_sub(last) >= 100_000);
        if !due {
            return;
        }
        self.last_render_us = Some(t_us);
        let pct = self.done_weight as f64 / self.total_weight as f64 * 100.0;
        let elapsed_s = t_us as f64 / 1e6;
        let eta = if self.done_weight == 0 || self.done_cells == self.total_cells {
            "--".to_owned()
        } else {
            let remaining = (self.total_weight - self.done_weight) as f64;
            format!("{:.0}s", elapsed_s * remaining / self.done_weight as f64)
        };
        let failures = if self.failed_cells > 0 {
            format!("  {} failed", self.failed_cells)
        } else {
            String::new()
        };
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r\x1b[2K{name}: {}/{} cells  {pct:5.1}%  elapsed {elapsed_s:.1}s  \
             eta {eta}{failures}",
            self.done_cells, self.total_cells
        );
        let _ = err.flush();
    }
}

/// Synthetic Chrome-trace lane ids for non-worker activity.
const CHECKPOINT_TID: u64 = 1_000;
const RESUMED_TID: u64 = 1_001;
const CACHE_TID: u64 = 1_002;

/// Renders recorded events as Chrome `trace_event` JSON (the
/// `{"traceEvents": [...]}` object format Perfetto and `chrome://tracing`
/// load directly). One lane per worker thread, named `ce-cell-N` to match
/// the real thread names; attempts are complete (`X`) spans, retries and
/// quarantines instant (`i`) markers, checkpoint appends and resumed
/// cells their own lanes.
fn chrome_trace_json(name: &str, events: &[(u64, Event)]) -> String {
    let mut out: Vec<String> = Vec::new();
    out.push(format!(
        "{{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \
         \"args\": {{\"name\": \"ce-sweep {}\"}}}}",
        json::escape(name)
    ));
    let mut workers: Vec<usize> = events
        .iter()
        .filter_map(|(_, ev)| match ev {
            Event::AttemptStart { worker, .. }
            | Event::AttemptEnd { worker, .. }
            | Event::Backoff { worker, .. }
            | Event::Quarantined { worker, .. } => Some(*worker),
            _ => None,
        })
        .collect();
    workers.sort_unstable();
    workers.dedup();
    for &w in &workers {
        out.push(format!(
            "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {w}, \"name\": \"thread_name\", \
             \"args\": {{\"name\": \"ce-cell-{w}\"}}}}"
        ));
    }
    for (tid, label) in [
        (CHECKPOINT_TID, "checkpoint"),
        (RESUMED_TID, "resumed"),
        (CACHE_TID, "result-cache"),
    ] {
        if events.iter().any(|(_, ev)| match ev {
            Event::CheckpointWrite { .. } => tid == CHECKPOINT_TID,
            Event::CellResumed { .. } => tid == RESUMED_TID,
            Event::CacheHit { .. } | Event::CacheMiss { .. } | Event::TraceEvicted { .. } => {
                tid == CACHE_TID
            }
            _ => false,
        }) {
            out.push(format!(
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"{label}\"}}}}"
            ));
        }
    }

    // Workers run attempts serially, so pairing is one open span per lane.
    let mut open: HashMap<usize, (u64, usize, Benchmark, u32)> = HashMap::new();
    for &(t_us, ev) in events {
        match ev {
            Event::SweepBegin { cells, threads, resumed, .. } => out.push(format!(
                "{{\"ph\": \"i\", \"pid\": 1, \"tid\": 0, \"ts\": {t_us}, \"s\": \"p\", \
                 \"name\": \"sweep-begin\", \"args\": {{\"cells\": {cells}, \
                 \"threads\": {threads}, \"resumed\": {resumed}}}}}"
            )),
            Event::SweepEnd { ok, failed, .. } => out.push(format!(
                "{{\"ph\": \"i\", \"pid\": 1, \"tid\": 0, \"ts\": {t_us}, \"s\": \"p\", \
                 \"name\": \"sweep-end\", \"args\": {{\"ok\": {ok}, \"failed\": {failed}}}}}"
            )),
            Event::AttemptStart { cell, bench, worker, attempt } => {
                open.insert(worker, (t_us, cell, bench, attempt));
            }
            Event::AttemptEnd { cell, worker, attempt, outcome, cycles, .. } => {
                let (start, _, bench, _) = open
                    .remove(&worker)
                    .unwrap_or((t_us, cell, Benchmark::Compress, attempt));
                out.push(format!(
                    "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {worker}, \"ts\": {start}, \
                     \"dur\": {}, \"name\": \"{} cell {cell}\", \"cat\": \"cell\", \
                     \"args\": {{\"attempt\": {attempt}, \"outcome\": \"{outcome}\", \
                     \"cycles\": {cycles}}}}}",
                    t_us.saturating_sub(start),
                    bench.name(),
                ));
            }
            Event::Backoff { cell, worker, attempt, sleep_us } => out.push(format!(
                "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {worker}, \"ts\": {t_us}, \
                 \"s\": \"t\", \"name\": \"backoff cell {cell}\", \
                 \"args\": {{\"attempt\": {attempt}, \"sleep_us\": {sleep_us}}}}}"
            )),
            Event::Quarantined { cell, worker, first } => out.push(format!(
                "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {worker}, \"ts\": {t_us}, \
                 \"s\": \"t\", \"name\": \"quarantined cell {cell}\", \
                 \"args\": {{\"first\": {first}}}}}"
            )),
            Event::CheckpointWrite { cell, write_us } => out.push(format!(
                "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {CHECKPOINT_TID}, \
                 \"ts\": {}, \"dur\": {write_us}, \"name\": \"journal cell {cell}\", \
                 \"cat\": \"checkpoint\", \"args\": {{}}}}",
                t_us.saturating_sub(write_us)
            )),
            Event::CellResumed { cell, wall_us } => out.push(format!(
                "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {RESUMED_TID}, \"ts\": {t_us}, \
                 \"s\": \"t\", \"name\": \"resumed cell {cell}\", \
                 \"args\": {{\"wall_us\": {wall_us}}}}}"
            )),
            Event::CacheHit { cell } => out.push(format!(
                "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {CACHE_TID}, \"ts\": {t_us}, \
                 \"s\": \"t\", \"name\": \"cache-hit cell {cell}\", \"args\": {{}}}}"
            )),
            Event::CacheMiss { cell } => out.push(format!(
                "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {CACHE_TID}, \"ts\": {t_us}, \
                 \"s\": \"t\", \"name\": \"cache-miss cell {cell}\", \"args\": {{}}}}"
            )),
            Event::TraceEvicted { count } => out.push(format!(
                "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {CACHE_TID}, \"ts\": {t_us}, \
                 \"s\": \"t\", \"name\": \"trace-evicted\", \
                 \"args\": {{\"count\": {count}}}}}"
            )),
        }
    }
    format!(
        "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
        out.join(",\n")
    )
}

/// Aggregate health view of one telemetry journal — what `sweephealth`
/// prints. Built purely from the JSONL text, so it works on journals from
/// live, killed, and resumed sweeps alike.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Sweep name from the journal header.
    pub name: String,
    /// Total cells the sweep was dispatching.
    pub cells: usize,
    /// Instruction cap from the header.
    pub max_insts: u64,
    /// Worker threads (0 until a `sweep-begin` is seen).
    pub threads: usize,
    /// Cells with results: settled `ok` attempts plus resumed cells.
    pub completed: usize,
    /// Cells that settled in failure (quarantines included).
    pub failed: usize,
    /// Cells not simulated: recovered from the checkpoint journal or
    /// prefilled (in cesimd, served from the result store).
    pub resumed: usize,
    /// Retry sleeps taken (one per `backoff` event).
    pub retries: usize,
    /// Cells failed fast by quarantine.
    pub quarantined: usize,
    /// Failed attempts by `RunError` category.
    pub errors_by_category: BTreeMap<String, usize>,
    /// `(cell, wall_us)` of every completed cell, journal order. Resumed
    /// cells carry their journaled wall, so a killed-and-resumed sweep
    /// reports the same per-cell costs as an uninterrupted one.
    pub cell_walls_us: Vec<(usize, u64)>,
    /// Attempt wall time by worker (busy time, µs).
    pub worker_busy_us: BTreeMap<usize, u64>,
    /// Cells with a `checkpoint-write` event: this execution made each
    /// durable, so no later execution may simulate it again.
    pub checkpointed: BTreeSet<usize>,
    /// Total checkpoint write wall, µs.
    pub ckpt_write_us: u64,
    /// Sweep wall from `sweep-end` (else the last event timestamp), µs.
    pub sweep_wall_us: u64,
    /// Whether a `sweep-end` event was seen (false = killed mid-sweep).
    pub ended: bool,
    /// Cells served from the content-addressed result store.
    pub cache_hits: usize,
    /// Cells that missed the result store (stale entries included).
    pub cache_misses: usize,
    /// Trace-LRU evictions reported (`trace-evicted` counts summed).
    pub trace_evictions: u64,
}

impl HealthReport {
    /// Parses a telemetry journal under the journal module's torn-tail
    /// rule: a damaged final line (the `kill -9` signature) is dropped,
    /// an empty journal reports nothing, and damage anywhere else is an
    /// error — a health report from bytes we cannot trust would mislead.
    ///
    /// # Errors
    ///
    /// A message naming the damaged line.
    pub fn from_journal(text: &str) -> Result<HealthReport, String> {
        let parsed = FORMAT.parse(text.as_bytes())?;
        let header = parsed.header.as_ref();
        let field = |key: &str| header.and_then(|h| h.at(key));
        let mut report = HealthReport {
            name: field("name").and_then(Json::as_str).unwrap_or("?").to_owned(),
            cells: field("cells").and_then(Json::as_u64).unwrap_or(0) as usize,
            max_insts: field("max_insts").and_then(Json::as_u64).unwrap_or(0),
            ..HealthReport::default()
        };
        for (t_us, doc) in &parsed.records {
            report.absorb(*t_us, doc);
        }
        if !report.ended {
            report.sweep_wall_us = parsed.records.last().map_or(0, |&(t_us, _)| t_us);
        }
        Ok(report)
    }

    /// Folds one decoded event line into the running aggregates.
    fn absorb(&mut self, t_us: u64, doc: &Json) {
        let num = |key: &str| doc.at(key).and_then(Json::as_u64);
        match doc.at("ev").and_then(Json::as_str).unwrap_or_default() {
            "sweep-begin" => {
                self.threads = num("threads").unwrap_or(0) as usize;
            }
            "cell-resumed" => {
                let cell = num("cell").unwrap_or(0) as usize;
                self.resumed += 1;
                self.completed += 1;
                self.cell_walls_us.push((cell, num("wall_us").unwrap_or(0)));
            }
            "attempt-end" => {
                let worker = num("worker").unwrap_or(0) as usize;
                let wall_us = num("wall_us").unwrap_or(0);
                *self.worker_busy_us.entry(worker).or_insert(0) += wall_us;
                let outcome =
                    doc.at("outcome").and_then(Json::as_str).unwrap_or("?").to_owned();
                let last = doc.at("last").and_then(Json::as_bool).unwrap_or(true);
                if outcome == "ok" {
                    self.completed += 1;
                    self.cell_walls_us.push((num("cell").unwrap_or(0) as usize, wall_us));
                } else {
                    *self.errors_by_category.entry(outcome).or_insert(0) += 1;
                    if last {
                        self.failed += 1;
                    }
                }
            }
            "backoff" => self.retries += 1,
            "quarantined" => {
                self.quarantined += 1;
                self.failed += 1;
            }
            "checkpoint-write" => {
                self.checkpointed.insert(num("cell").unwrap_or(0) as usize);
                self.ckpt_write_us += num("write_us").unwrap_or(0);
            }
            "sweep-end" => {
                self.ended = true;
                self.sweep_wall_us = num("wall_us").unwrap_or(t_us);
            }
            "cache-hit" => self.cache_hits += 1,
            "cache-miss" => self.cache_misses += 1,
            "trace-evicted" => self.trace_evictions += num("count").unwrap_or(0),
            // `attempt-start` adds nothing; decode_event admits no other name.
            _ => {}
        }
    }

    /// Completed cells per wall-clock second.
    pub fn cells_per_sec(&self) -> f64 {
        let secs = self.sweep_wall_us as f64 / 1e6;
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }

    /// Summed attempt wall across workers, µs (the sweep's serial cost).
    pub fn busy_us(&self) -> u64 {
        self.worker_busy_us.values().sum()
    }

    /// Worker utilization: busy time over `threads × sweep wall`.
    pub fn utilization(&self) -> f64 {
        let capacity = self.threads as f64 * self.sweep_wall_us as f64;
        if capacity > 0.0 {
            self.busy_us() as f64 / capacity
        } else {
            0.0
        }
    }

    /// The ideal (perfectly packed) wall for this work: busy time divided
    /// across the workers, µs.
    pub fn ideal_wall_us(&self) -> u64 {
        if self.threads == 0 {
            return self.busy_us();
        }
        self.busy_us() / self.threads as u64
    }

    /// The `n` slowest completed cells, cost-descending.
    pub fn stragglers(&self, n: usize) -> Vec<(usize, u64)> {
        let mut cells = self.cell_walls_us.clone();
        cells.sort_by_key(|&(cell, wall)| (std::cmp::Reverse(wall), cell));
        cells.truncate(n);
        cells
    }

    /// Whether the journal describes a finished, fully-successful sweep.
    pub fn healthy(&self) -> bool {
        self.ended && self.failed == 0 && self.completed == self.cells
    }

    /// Renders the human-readable report `sweephealth` prints.
    pub fn render(&self, top: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sweep {}: {}/{} cells completed, {} failed, {} resumed \
             ({} retries, {} quarantined){}",
            self.name,
            self.completed,
            self.cells,
            self.failed,
            self.resumed,
            self.retries,
            self.quarantined,
            if self.ended { "" } else { "  [no sweep-end: killed mid-run]" },
        );
        let _ = writeln!(
            out,
            "wall {:.3}s, ideal {:.3}s ({} workers, {:.0}% utilization), \
             {:.1} cells/s",
            self.sweep_wall_us as f64 / 1e6,
            self.ideal_wall_us() as f64 / 1e6,
            self.threads,
            self.utilization() * 100.0,
            self.cells_per_sec(),
        );
        if !self.checkpointed.is_empty() {
            let _ = writeln!(
                out,
                "checkpoint: {} cells written, {:.1} ms total ({:.0} µs mean)",
                self.checkpointed.len(),
                self.ckpt_write_us as f64 / 1e3,
                self.ckpt_write_us as f64 / self.checkpointed.len() as f64,
            );
        }
        if self.cache_hits + self.cache_misses > 0 {
            let total = self.cache_hits + self.cache_misses;
            let _ = writeln!(
                out,
                "result cache: {} hits, {} misses ({:.0}% hit rate)",
                self.cache_hits,
                self.cache_misses,
                self.cache_hits as f64 / total as f64 * 100.0,
            );
        }
        if self.trace_evictions > 0 {
            let _ = writeln!(out, "trace cache: {} eviction(s)", self.trace_evictions);
        }
        for (category, count) in &self.errors_by_category {
            let _ = writeln!(out, "errors[{category}]: {count} attempt(s)");
        }
        let stragglers = self.stragglers(top);
        if !stragglers.is_empty() {
            let _ = writeln!(out, "straggler top-{}:", stragglers.len());
            for (cell, wall) in stragglers {
                let _ = writeln!(out, "  cell {cell:>4}  {:.3}s", wall as f64 / 1e6);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal_of(events: &[(u64, Event)]) -> String {
        let mut text = String::from(
            "{\"ce_telemetry\": 1, \"name\": \"t\", \"cells\": 3, \"max_insts\": 500}\n",
        );
        for (t, ev) in events {
            text.push_str(&event_json(*t, ev));
            text.push('\n');
        }
        text
    }

    fn sample_events() -> Vec<(u64, Event)> {
        vec![
            (0, Event::SweepBegin { cells: 3, threads: 2, resumed: 1, max_insts: 500 }),
            (1, Event::CellResumed { cell: 0, wall_us: 900 }),
            (
                2,
                Event::AttemptStart {
                    cell: 1,
                    bench: Benchmark::Compress,
                    worker: 0,
                    attempt: 1,
                },
            ),
            (
                500,
                Event::AttemptEnd {
                    cell: 1,
                    worker: 0,
                    attempt: 1,
                    outcome: "timeout",
                    wall_us: 498,
                    cycles: 0,
                    last: false,
                },
            ),
            (501, Event::Backoff { cell: 1, worker: 0, attempt: 1, sleep_us: 50 }),
            (
                600,
                Event::AttemptStart {
                    cell: 1,
                    bench: Benchmark::Compress,
                    worker: 0,
                    attempt: 2,
                },
            ),
            (
                900,
                Event::AttemptEnd {
                    cell: 1,
                    worker: 0,
                    attempt: 2,
                    outcome: "ok",
                    wall_us: 300,
                    cycles: 1234,
                    last: true,
                },
            ),
            (905, Event::CheckpointWrite { cell: 1, write_us: 4 }),
            (950, Event::Quarantined { cell: 2, worker: 1, first: 1 }),
            (1000, Event::SweepEnd { ok: 2, failed: 1, wall_us: 1000 }),
        ]
    }

    /// Every event kind round-trips through its JSON line into the
    /// aggregates the health report derives from it.
    #[test]
    fn health_report_aggregates_a_full_journal() {
        let report = HealthReport::from_journal(&journal_of(&sample_events())).unwrap();
        assert_eq!(report.name, "t");
        assert_eq!((report.cells, report.max_insts), (3, 500));
        assert_eq!(report.threads, 2);
        assert_eq!(report.completed, 2, "one resumed + one ok");
        assert_eq!(report.resumed, 1);
        assert_eq!(report.failed, 1, "the quarantined cell");
        assert_eq!(report.retries, 1);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.errors_by_category.get("timeout"), Some(&1));
        assert_eq!(report.checkpointed, BTreeSet::from([1]));
        assert_eq!(report.ckpt_write_us, 4);
        assert_eq!(report.sweep_wall_us, 1000);
        assert!(report.ended);
        assert!(!report.healthy(), "a failed cell is unhealthy");
        assert_eq!(report.cell_walls_us, vec![(0, 900), (1, 300)]);
        assert_eq!(report.stragglers(1), vec![(0, 900)]);
        assert_eq!(report.worker_busy_us.get(&0), Some(&798));
        assert!(report.utilization() > 0.0);
        let rendered = report.render(3);
        assert!(rendered.contains("2/3 cells completed"), "{rendered}");
        assert!(rendered.contains("errors[timeout]"), "{rendered}");
    }

    /// Cache events aggregate into the health report: hits and misses
    /// count cells, trace evictions sum their deltas, and the render
    /// surfaces both — while journals without cache events keep their old
    /// output (the lines are elided entirely).
    #[test]
    fn cache_events_aggregate_and_render() {
        let mut events = sample_events();
        events.insert(1, (1, Event::CacheHit { cell: 0 }));
        events.insert(2, (1, Event::CacheHit { cell: 1 }));
        events.insert(3, (1, Event::CacheMiss { cell: 2 }));
        events.push((1001, Event::TraceEvicted { count: 2 }));
        events.push((1002, Event::TraceEvicted { count: 3 }));
        let report = HealthReport::from_journal(&journal_of(&events)).unwrap();
        assert_eq!(report.cache_hits, 2);
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.trace_evictions, 5);
        let rendered = report.render(0);
        assert!(rendered.contains("result cache: 2 hits, 1 misses (67% hit rate)"), "{rendered}");
        assert!(rendered.contains("trace cache: 5 eviction(s)"), "{rendered}");

        let plain = HealthReport::from_journal(&journal_of(&sample_events())).unwrap();
        assert_eq!(plain.cache_hits + plain.cache_misses, 0);
        let rendered = plain.render(0);
        assert!(!rendered.contains("result cache"), "{rendered}");
        assert!(!rendered.contains("trace cache"), "{rendered}");
    }

    /// A torn event is rolled back on the live handle, so the events
    /// emitted after it still land on clean lines and count. (The
    /// torn-tail shapes themselves are in `fsck`'s loader agreement
    /// table.)
    #[test]
    fn torn_event_append_is_rolled_back() {
        use crate::iofault::{with_plan, FailPlan, FaultClass};
        let dir = std::env::temp_dir().join(format!("ce-tel-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.tel.jsonl");
        let config = TelemetryConfig {
            name: "t".into(),
            journal: Some(path.clone()),
            chrome_out: None,
            progress: false,
        };
        let tel = Telemetry::create(&config, vec![1, 2, 3], 500).unwrap();
        tel.emit(Event::CacheHit { cell: 0 });
        let ((), _) = with_plan(FailPlan::one(0, FaultClass::TornWrite), || {
            tel.emit(Event::CacheHit { cell: 1 });
        });
        tel.emit(Event::CacheHit { cell: 2 });
        tel.emit(Event::CacheMiss { cell: 1 });
        let report =
            HealthReport::from_journal(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!((report.cache_hits, report.cache_misses), (2, 1), "only the torn event is lost");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A journal without `sweep-end` (killed) still reports, timing the
    /// sweep to its last observed event.
    #[test]
    fn killed_journal_reports_without_sweep_end() {
        let events = &sample_events()[..8]; // stop before quarantine + end
        let report = HealthReport::from_journal(&journal_of(events)).unwrap();
        assert!(!report.ended);
        assert_eq!(report.sweep_wall_us, 905, "last event timestamp");
        assert_eq!(report.failed, 0);
        assert!(!report.healthy(), "unended sweeps are never healthy");
    }

    /// The Chrome exporter pairs starts with ends per worker lane and
    /// names every lane; the output is a single parseable JSON object.
    #[test]
    fn chrome_trace_is_valid_and_pairs_spans() {
        let json = chrome_trace_json("t", &sample_events());
        let doc = Json::parse(&json).expect("chrome trace parses");
        let events = doc.at("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.at("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        // Two attempt spans + one checkpoint append.
        assert_eq!(spans.len(), 3);
        let cell_span = spans
            .iter()
            .find(|e| e.at("name").and_then(Json::as_str) == Some("compress cell 1"))
            .expect("attempt span named by benchmark and cell");
        assert_eq!(cell_span.at("ts").and_then(Json::as_u64), Some(2));
        assert_eq!(cell_span.at("dur").and_then(Json::as_u64), Some(498));
        assert!(events.iter().any(|e| {
            e.at("name").and_then(Json::as_str) == Some("thread_name")
                && e.at("args.name").and_then(Json::as_str) == Some("ce-cell-0")
        }));
        assert!(events.iter().any(|e| {
            e.at("name").and_then(Json::as_str) == Some("backoff cell 1")
        }));
    }

    /// A name with a quote, a backslash and a newline, as a daemon
    /// client's tag can carry.
    const QUOTED: &str = "job-1:my \"run\" \\\nnext";

    /// The journal header escapes the sweep's name: the journal stays
    /// valid and its health report reads the name back verbatim.
    #[test]
    fn a_quoted_name_round_trips_through_the_journal() {
        let dir = std::env::temp_dir().join(format!("ce-tel-quoted-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.tel.jsonl");
        let config = TelemetryConfig {
            name: QUOTED.into(),
            journal: Some(path.clone()),
            chrome_out: None,
            progress: false,
        };
        let tel = Telemetry::create(&config, vec![1], 500).unwrap();
        tel.emit(Event::SweepEnd { ok: 1, failed: 0, wall_us: 1 });
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(FORMAT.classify(&bytes), crate::journal::JournalClass::Valid);
        let report = HealthReport::from_journal(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(report.name, QUOTED);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The Chrome trace escapes the process name it is given.
    #[test]
    fn chrome_trace_escapes_the_process_name() {
        let json = chrome_trace_json(QUOTED, &sample_events());
        let doc = Json::parse(&json).expect("chrome trace parses");
        let events = doc.at("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        let process = events
            .iter()
            .find(|e| e.at("name").and_then(Json::as_str) == Some("process_name"))
            .expect("a process_name record");
        let want = format!("ce-sweep {QUOTED}");
        assert_eq!(process.at("args.name").and_then(Json::as_str), Some(want.as_str()));
    }

    /// A disabled handle is inert: no allocation behind it, `enabled`
    /// false, emits are no-ops.
    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.enabled());
        tel.emit(Event::SweepEnd { ok: 0, failed: 0, wall_us: 0 });
        assert_eq!(format!("{tel:?}"), "Telemetry(off)");
    }

    /// A live handle journals exactly what was emitted, flushed per line.
    #[test]
    fn live_handle_journals_events() {
        let dir = std::env::temp_dir().join(format!("ce-tel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.tel.jsonl");
        let tel = Telemetry::create(
            &TelemetryConfig {
                name: "t".into(),
                journal: Some(path.clone()),
                chrome_out: None,
                progress: false,
            },
            vec![1, 2, 3],
            500,
        )
        .unwrap();
        assert!(tel.enabled());
        assert_eq!(format!("{tel:?}"), "Telemetry(on)");
        for (_, ev) in sample_events() {
            tel.emit(ev);
        }
        let report =
            HealthReport::from_journal(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(report.completed, 2);
        assert_eq!(report.cells, 3);
        assert!(report.ended);
        std::fs::remove_dir_all(&dir).ok();
    }
}
