//! The durability half of `cechaos`: the deterministic I/O fault grid
//! over the durability stack (its second phase), plus the fuzz corpus
//! its daemon storm (the third phase) replays.
//!
//! ## The zero-corruption contract
//!
//! Every fault the [`crate::iofault`] seam can inject — `ENOSPC`, `EIO`,
//! a torn write, a failed fsync, a crash at an exact I/O boundary — must
//! land in one of two honest verdicts (the table in [`crate::campaign`]
//! defines every verdict):
//!
//! * **`detected`**: the write path surfaced an error (or the process
//!   died), and re-running the workload on the damaged state directory
//!   converges to byte-identical results.
//! * **`unchanged`**: no error surfaced (the fault hit redundant work,
//!   e.g. an fsync whose durability was never subsequently needed) *and*
//!   the final bytes still converge.
//!
//! What must never happen is **`silent`** (no error, wrong bytes) or
//! **`unrecovered`** (error surfaced, but recovery cannot reproduce the
//! reference bytes); both are violations, which fail `cechaos`.
//!
//! ## The grid
//!
//! [`durability_workload`] drives every durability-critical shape the
//! service owns — an atomic CSV write, the job WAL's own records through
//! the [`journal`](crate::journal) appender with an fsync each, a
//! checkpoint [`Journal`](crate::checkpoint::Journal) cycle, and
//! content-addressed store inserts — through the fault seam on a single
//! thread, so the seam's op counter gives a stable *horizon* (the number
//! of fault-eligible operations). The grid is then exhaustive: every
//! non-crash fault class × every op index, in-process via
//! [`crate::iofault::with_plan`]. Crash cases need a process to die, so
//! `cechaos` runs the same workload in a subprocess (its `--worker`
//! mode) with `CE_IOFAULT=crash@K` and classifies the wreckage with
//! [`classify_crash_case`]. Horizon 27 ops × 5 classes ⇒ 135 cases,
//! past the ≥ 100 the acceptance contract asks for, with zero
//! flakiness: the grid is a pure function of the workload.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use ce_sim::SimStats;

use crate::campaign::{Case, Verdict};
use crate::checkpoint::{write_atomic, CheckpointSpec, Journal};
use crate::iofault::{self, FailPlan, FaultClass};
use crate::runner::TimedResult;
use crate::store::ResultStore;

/// The CSV the workload writes atomically (stands in for a rendered
/// figure table).
const WORKLOAD_CSV: &str = "benchmark,ipc\ncompress,1.234\nli,1.567\n";

/// A deterministic [`TimedResult`] fixture (used by the workload and by
/// the fault-injection integration tests).
pub fn synthetic_result(k: u64) -> TimedResult {
    let stats = SimStats {
        cycles: 1_000 + k,
        committed: 900 + k,
        issued: 950 + k,
        ..SimStats::default()
    };
    TimedResult { stats, sampled: None, wall: Duration::from_micros(10 + k) }
}

/// One pass over every durability-critical write shape the service
/// owns, all through the [`crate::iofault`] seam, all on the calling
/// thread (so a thread-local [`FailPlan`] sees every operation):
///
/// 1. a rendered CSV via [`write_atomic`] (create → write → fsync →
///    rename),
/// 2. the job WAL: its header and a `submitted` + `done` pair, written
///    with the service's own record builders through the journal
///    appender, one fsync per record as `cesimd` does,
/// 3. a checkpoint [`Journal`] open/record/finish cycle (resuming
///    whatever a previous faulted pass left behind, exactly like a
///    restarted sweep), and
/// 4. three content-addressed store inserts.
///
/// Deterministic end state: re-running this on *any* prefix of its own
/// damage must converge to byte-identical files — that is the property
/// the grid checks.
///
/// # Errors
///
/// The first injected (or real) I/O error.
pub fn durability_workload(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    write_atomic(&dir.join("results.csv"), WORKLOAD_CSV)?;

    #[cfg(unix)] // the WAL belongs to the daemon, which needs Unix sockets
    {
        use crate::api::{JobSpec, SweepKind};
        use crate::service::{done_record, submitted_record, wal_header};
        let spec = JobSpec::preset(SweepKind::Fig13);
        let mut wal = crate::journal::Appender::create(
            &dir.join("jobs.jsonl"),
            &wal_header(2),
            true,
        )?;
        wal.append(submitted_record(1, &spec, false))?;
        wal.append(done_record(1))?;
    }

    let ckpt = CheckpointSpec { path: dir.join("ckpt").join("w.ckpt.jsonl"), resume: true };
    let (mut journal, _recovered) = Journal::open(&ckpt, 0xCE05, 3)?;
    for cell in 0..3usize {
        journal.record(cell, &synthetic_result(cell as u64))?;
    }
    journal.finish();

    let store = ResultStore::open(&dir.join("store"))?;
    for k in 0..3u64 {
        store.insert(&format!("{k:016x}"), "chaos-v1", &synthetic_result(k))?;
    }
    Ok(())
}

/// Reference bytes plus op horizon, measured from one clean run.
#[derive(Debug, Clone)]
pub struct GridContext {
    /// Fault-eligible ops in one clean workload pass.
    pub horizon: u64,
    /// Relative path → bytes of the converged state.
    pub reference: BTreeMap<String, Vec<u8>>,
}

/// Runs the workload cleanly under `root/ref` and captures the
/// reference snapshot and op horizon.
///
/// # Errors
///
/// Real I/O errors (nothing is injected here).
pub fn grid_context(root: &Path) -> std::io::Result<GridContext> {
    let ref_dir = root.join("ref");
    let _ = std::fs::remove_dir_all(&ref_dir);
    let (result, horizon) =
        iofault::with_plan(FailPlan::default(), || durability_workload(&ref_dir));
    result?;
    Ok(GridContext { horizon, reference: snapshot(&ref_dir)? })
}

/// Relative path → bytes for every file under `dir`, quarantine
/// excluded (impounded bytes are evidence, not state).
///
/// # Errors
///
/// Directory-walk or read errors.
pub fn snapshot(dir: &Path) -> std::io::Result<BTreeMap<String, Vec<u8>>> {
    let mut map = BTreeMap::new();
    snapshot_into(dir, dir, &mut map)?;
    Ok(map)
}

fn snapshot_into(
    root: &Path,
    dir: &Path,
    map: &mut BTreeMap<String, Vec<u8>>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            if path.file_name().is_some_and(|n| n == "quarantine") {
                continue;
            }
            snapshot_into(root, &path, map)?;
        } else {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .into_owned();
            map.insert(rel, std::fs::read(&path)?);
        }
    }
    Ok(())
}

/// First divergence between a case's final state and the reference, if
/// any — the evidence line for a `silent` or `unrecovered` verdict.
fn diverges(
    got: &BTreeMap<String, Vec<u8>>,
    want: &BTreeMap<String, Vec<u8>>,
) -> Option<String> {
    for (path, bytes) in want {
        match got.get(path) {
            None => return Some(format!("{path} missing after recovery")),
            Some(b) if b != bytes => return Some(format!("{path} bytes differ")),
            Some(_) => {}
        }
    }
    got.keys().find(|p| !want.contains_key(*p)).map(|p| format!("unexpected file {p}"))
}

/// Repairs and re-runs a damaged case directory, then compares against
/// the reference: the shared back half of every case. Returns the
/// divergence, if any.
fn recover_and_compare(dir: &Path, ctx: &GridContext) -> std::io::Result<Option<String>> {
    // The daemon's startup discipline in miniature: audit-and-repair
    // first (sweeps crash-orphaned tempfiles), then let the loaders
    // replay whatever remains.
    let audit = crate::fsck::fsck(dir, true)?;
    if !audit.clean() {
        // A single injected fault must never manufacture damage the
        // loaders cannot classify as recoverable.
        return Ok(Some(format!(
            "fsck quarantined {} file(s) after a single fault",
            audit.count(crate::fsck::FileClass::Quarantined)
        )));
    }
    durability_workload(dir)?;
    Ok(diverges(&snapshot(dir)?, &ctx.reference))
}

/// Runs one non-crash fault case in-process: inject `class` at op
/// `index`, then repair, re-run, and compare.
///
/// # Errors
///
/// Real I/O errors from the recovery machinery (injected faults are the
/// *subject*, never an error).
pub fn run_fault_case(
    root: &Path,
    class: FaultClass,
    index: u64,
    ctx: &GridContext,
) -> std::io::Result<Case> {
    assert!(class != FaultClass::Crash, "crash cases need a subprocess");
    let start = Instant::now();
    let dir = root.join(format!("{}-{index}", class.name()));
    let _ = std::fs::remove_dir_all(&dir);
    let (outcome, ops) =
        iofault::with_plan(FailPlan::one(index, class), || durability_workload(&dir));
    let fired = ops > index;
    let surfaced = outcome.err().map(|e| e.to_string());
    let divergence = recover_and_compare(&dir, ctx)?;
    let verdict = match (fired, &surfaced, &divergence) {
        (false, _, None) => Verdict::NotFired,
        (true, Some(_), None) => Verdict::Detected,
        (true, None, None) => Verdict::Unchanged,
        (true, None, Some(_)) => Verdict::Silent,
        (_, _, Some(_)) => Verdict::Unrecovered,
    };
    let detail = divergence
        .or(surfaced)
        .unwrap_or_else(|| "no error, bytes converged".into());
    let name = format!("op={index}");
    Ok(Case { class: class.name(), name, verdict, detail, wall: start.elapsed() })
}

/// Classifies a crash case after the subprocess ran: `crashed` is
/// whether the worker died abnormally (the expected result of
/// `CE_IOFAULT=crash@K` with `K` inside the horizon). The case's wall
/// time covers the recovery alone; the subprocess ran before the call.
///
/// # Errors
///
/// Real I/O errors from the recovery machinery.
pub fn classify_crash_case(
    dir: &Path,
    index: u64,
    crashed: bool,
    ctx: &GridContext,
) -> std::io::Result<Case> {
    let start = Instant::now();
    let divergence = recover_and_compare(dir, ctx)?;
    let verdict = match (crashed, &divergence) {
        // A crash is its own detection: the process death is loud.
        (true, None) => Verdict::Detected,
        (false, None) => Verdict::NotFired,
        (_, Some(_)) => Verdict::Unrecovered,
    };
    let detail = divergence.unwrap_or_else(|| {
        if crashed { "worker aborted; recovery converged".into() } else { "beyond horizon".into() }
    });
    let (class, name) = (FaultClass::Crash.name(), format!("op={index}"));
    Ok(Case { class, name, verdict, detail, wall: start.elapsed() })
}

/// The full in-process half of the grid: every non-crash class × every
/// op index inside the horizon. (`cechaos` adds the crash column via
/// its worker subprocesses.)
///
/// # Errors
///
/// Real I/O errors only.
pub fn fault_grid(root: &Path, ctx: &GridContext) -> std::io::Result<Vec<Case>> {
    let mut cases = Vec::new();
    for class in FaultClass::ALL {
        if class == FaultClass::Crash {
            continue;
        }
        for index in 0..ctx.horizon {
            cases.push(run_fault_case(root, class, index, ctx)?);
        }
    }
    Ok(cases)
}

/// The seeded protocol-fuzz corpus: `count` request lines derived from
/// `seed`, mixing malformed JSON, binary junk, wrong-shape documents,
/// unknown ops, and (index 0, always) a line longer than `max_line`
/// (pass the daemon's `MAX_REQUEST_LINE`) — every one of which the
/// daemon must answer with `error[proto]` while staying up.
/// Deterministic per seed, so a failing line is reproducible from the
/// campaign banner.
pub fn fuzz_corpus(seed: u64, count: usize, max_line: usize) -> Vec<String> {
    use rand::{Rng, SeedableRng, StdRng};
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF022);
    let mut corpus = Vec::with_capacity(count);
    for i in 0..count {
        let line = match if i == 0 { 0 } else { rng.gen_range(0u32..6) } {
            // Oversized: a syntactically fine request the length cap
            // must reject without reading it all into memory.
            0 => format!(
                "{{\"op\": \"submit\", \"pad\": \"{}\"}}",
                "x".repeat(max_line + 1)
            ),
            // Truncated JSON (a torn client write).
            1 => "{\"op\": \"subm".into(),
            // Binary junk that is not JSON at all.
            2 => (0..rng.gen_range(1usize..64))
                .map(|_| char::from(rng.gen_range(33u8..126)))
                .collect(),
            // Valid JSON, not an object.
            3 => format!("[{}, {}]", rng.gen_range(0u32..99), rng.gen_range(0u32..99)),
            // Unknown op.
            4 => format!("{{\"op\": \"op-{}\"}}", rng.gen_range(0u32..1000)),
            // Submit with a spec the resolver must reject — wrong shape,
            // not wrong values, so it is a proto error, not config.
            _ => "{\"op\": \"submit\", \"spec\": 42}".into(),
        };
        corpus.push(line);
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ce-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The workload is deterministic and self-converging: two clean runs
    /// produce byte-identical snapshots, and the horizon is wide enough
    /// to give the campaign its ≥ 100 cases (5 classes × horizon).
    #[test]
    fn workload_is_deterministic_and_horizon_spans_the_campaign() {
        let dir = root("det");
        let a = grid_context(&dir.join("a")).unwrap();
        let b = grid_context(&dir.join("b")).unwrap();
        assert_eq!(a.horizon, b.horizon);
        assert_eq!(a.reference, b.reference);
        assert!(
            a.horizon * 5 >= 100,
            "horizon {} × 5 classes must give ≥ 100 cases",
            a.horizon
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A small slice of the real grid, one case per non-crash class, at
    /// an index that is mid-workload for all of them: every fault must
    /// resolve to `detected` or `unchanged` — never a violation.
    #[test]
    fn grid_slice_upholds_the_contract() {
        let dir = root("slice");
        let ctx = grid_context(&dir).unwrap();
        for class in
            [FaultClass::Enospc, FaultClass::Eio, FaultClass::TornWrite, FaultClass::FailedFsync]
        {
            for index in [0, 5, ctx.horizon - 1] {
                let case = run_fault_case(&dir, class, index, &ctx).unwrap();
                assert!(
                    !case.verdict.is_violation(),
                    "{} at {}: {} ({})",
                    class.name(),
                    index,
                    case.verdict.name(),
                    case.detail
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Beyond-horizon indices are `not-fired`, and the report renders the
    /// gate line the smoke job greps for.
    #[test]
    fn beyond_horizon_is_not_fired_and_reports_render() {
        let dir = root("beyond");
        let ctx = grid_context(&dir).unwrap();
        let case = run_fault_case(&dir, FaultClass::Eio, ctx.horizon + 10, &ctx).unwrap();
        assert_eq!(case.verdict, Verdict::NotFired);

        let report = crate::campaign::Report { tool: "cechaos", cases: vec![case] };
        let text = report.to_string();
        assert!(text.contains("0 violation(s)"), "{text}");
        assert!(report.violations().next().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fuzz corpus is deterministic per seed and always leads with
    /// the oversized line.
    #[test]
    fn fuzz_corpus_is_seeded_and_oversized_first() {
        let cap = 64 * 1024;
        let a = fuzz_corpus(7, 12, cap);
        let b = fuzz_corpus(7, 12, cap);
        let c = fuzz_corpus(8, 12, cap);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 12);
        assert!(a[0].len() > cap);
        assert!(a.iter().all(|line| !line.contains('\n')));
    }
}
