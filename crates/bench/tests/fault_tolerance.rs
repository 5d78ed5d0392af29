//! End-to-end contracts of the fault-tolerant sweep engine: panic
//! isolation, deadline + retry policy, quarantine of deterministic
//! failures, checkpoint resume, and the headline guarantee — a sweep
//! killed with SIGKILL mid-run resumes to a **byte-identical** CSV,
//! re-executing only the unfinished cells.

use ce_bench::checkpoint::CheckpointSpec;
use ce_bench::json::Json;
use ce_bench::runner::{self, RunPolicy, SweepOptions};
use ce_sim::{machine, FaultKind, FaultSpec};
use ce_workloads::Benchmark;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const INSTS: u64 = 2_000;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ce-ft-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A cell that unwinds mid-simulation must come back as a classified
/// `RunError`, and its neighbours must complete untouched.
#[test]
fn panicking_cell_is_isolated_and_classified() {
    let good = machine::baseline_8way();
    let mut bad = good;
    bad.fault = Some(FaultSpec { kind: FaultKind::PanicCell, at_cycle: 50 });

    let jobs = [
        (Benchmark::Compress, good),
        (Benchmark::Compress, bad),
        (Benchmark::Li, good),
    ];
    let summary = runner::run_sweep_ft(&jobs, INSTS, &SweepOptions::default()).expect("no journal");
    assert!(summary.cells[0].is_some(), "{:?}", summary.failures);
    assert!(summary.cells[2].is_some(), "{:?}", summary.failures);
    assert_eq!(summary.failures.len(), 1, "only the panic cell fails");
    let failure = &summary.failures[0];
    assert_eq!(failure.index, 1);
    let err = &failure.error;
    assert_eq!(err.category(), "cell-panic", "{err}");
    assert!(err.message().contains("fault"), "{err}");
}

/// A cell that blows its deadline is a transient failure: retried up to
/// the attempt budget, then reported as a timeout.
#[test]
fn deadline_is_enforced_with_bounded_retries() {
    let jobs = [(Benchmark::Compress, machine::baseline_8way())];
    let opts = SweepOptions {
        policy: RunPolicy { cell_timeout: Some(Duration::from_nanos(1)) },
        ..SweepOptions::default()
    };
    let summary = runner::run_sweep_ft(&jobs, 500_000, &opts).expect("no journal in play");
    assert_eq!(summary.failures.len(), 1);
    let failure = &summary.failures[0];
    assert_eq!(failure.error.category(), "timeout", "{failure}");
    assert!(failure.error.is_transient());
    assert_eq!(failure.attempts, 3, "{failure}");
}

/// Two identical deterministically-failing jobs: the first burns its
/// attempts, the second is quarantined without re-running.
#[test]
fn deterministic_failures_are_quarantined() {
    let mut bad = machine::baseline_8way();
    bad.bpred.history_bits = 99; // config-invalid, deterministic
    let jobs = [(Benchmark::Compress, bad), (Benchmark::Compress, bad)];
    let summary =
        runner::run_sweep_ft(&jobs, INSTS, &SweepOptions::default()).expect("no journal");
    assert_eq!(summary.failures.len(), 2);
    let by_index =
        |i: usize| summary.failures.iter().find(|f| f.index == i).expect("failure present");
    assert_eq!(by_index(0).quarantined_after, None);
    assert_eq!(by_index(1).quarantined_after, Some(0), "{}", by_index(1));
    assert_eq!(by_index(1).error.category(), "config-invalid");
}

/// A sweep with a failing cell keeps its journal; re-running with
/// `resume` replays the finished cells from disk (same stats, `resumed`
/// counted) and re-executes only the failure.
#[test]
fn journal_resume_replays_finished_cells() {
    let dir = temp_dir("resume");
    let out = dir.join("sweep.csv");

    let good = machine::baseline_8way();
    let mut bad = good;
    bad.fault = Some(FaultSpec { kind: FaultKind::PanicCell, at_cycle: 50 });
    let jobs =
        [(Benchmark::Compress, good), (Benchmark::Li, good), (Benchmark::Compress, bad)];

    let opts = |resume| SweepOptions {
        checkpoint: Some(CheckpointSpec::for_output(&out, resume)),
        ..SweepOptions::default()
    };
    let first = runner::run_sweep_ft(&jobs, INSTS, &opts(false)).expect("journal io");
    assert_eq!(first.failures.len(), 1);
    assert_eq!(first.resumed, 0);
    let ckpt = dir.join("sweep.ckpt.jsonl");
    assert!(ckpt.exists(), "journal must survive a failed sweep");

    let second = runner::run_sweep_ft(&jobs, INSTS, &opts(true)).expect("journal io");
    assert_eq!(second.resumed, 2, "both good cells replay from the journal");
    assert_eq!(second.failures.len(), 1, "the bad cell re-runs and fails again");
    for i in [0, 1] {
        assert_eq!(
            first.cells[i].as_ref().expect("ran").stats.fingerprint(),
            second.cells[i].as_ref().expect("replayed").stats.fingerprint(),
            "cell {i} changed across resume"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// `fig13_ipc --out OUT` at the 20k cap on one thread, output discarded,
/// under the code version `code`.
fn fig13(out: &Path, code: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig13_ipc"));
    cmd.env("CE_MAX_INSTS", "20000")
        .env("CE_THREADS", "1")
        .env("CE_CODE_VERSION", code)
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

/// Starts `sweep`, SIGKILLs it as soon as its checkpoint journal `ckpt`
/// holds one record, before its CSV lands, and returns the journal as the
/// kill left it.
fn kill_after_first_cell(sweep: &mut Command, ckpt: &Path) -> String {
    let mut child = sweep.spawn().expect("sweep spawns");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let cells_done = std::fs::read_to_string(ckpt)
            .map(|s| s.lines().count().saturating_sub(1))
            .unwrap_or(0);
        if cells_done >= 1 {
            break;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("sweep finished before it could be killed ({status}); cap too small");
        }
        assert!(Instant::now() < deadline, "no checkpoint record after 120s");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
    std::fs::read_to_string(ckpt).expect("journal survives the kill")
}

/// The headline guarantee, end to end on a real sweep binary: SIGKILL
/// the process mid-sweep, re-run with `--resume`, and the final CSV is
/// byte-identical to an uninterrupted run's.
#[test]
fn sigkill_then_resume_reproduces_the_csv_byte_for_byte() {
    let dir = temp_dir("kill");
    let reference_csv = dir.join("reference.csv");
    let killed_csv = dir.join("killed.csv");

    // Uninterrupted reference run.
    let status = fig13(&reference_csv, "kill").status().expect("fig13 runs");
    assert!(status.success());
    let reference = std::fs::read(&reference_csv).expect("reference CSV");

    // Interrupted run, then a resume that finishes the sweep, replaying
    // what the journal holds.
    let ckpt = dir.join("killed.ckpt.jsonl");
    let journal_before = kill_after_first_cell(&mut fig13(&killed_csv, "kill"), &ckpt);
    assert!(!killed_csv.exists(), "CSV must not exist after a killed sweep");
    let status = fig13(&killed_csv, "kill").arg("--resume").status().expect("fig13 resumes");
    assert!(status.success());
    let resumed = std::fs::read(&killed_csv).expect("resumed CSV");
    assert_eq!(
        resumed, reference,
        "resumed CSV differs from the uninterrupted run"
    );
    // Sanity: the resume genuinely reused the journal rather than
    // starting over (the journal is deleted only after a clean finish).
    assert!(!ckpt.exists(), "journal should be cleaned up after the clean resume");
    assert!(
        journal_before.lines().count() >= 2,
        "kill happened before any record was journaled"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A journal resumes only under the build that wrote it: the code version
/// is part of the sweep's identity, so `--resume` under another version
/// re-runs every cell and the manifest records `"resumed": 0`, while a
/// resume under the same version still replays the journal.
#[test]
fn resume_under_another_code_version_replays_nothing() {
    let dir = temp_dir("codever");
    let csv = dir.join("fig13.csv");
    let ckpt = dir.join("fig13.ckpt.jsonl");
    let resume = |code: &str| {
        let status = fig13(&csv, code).arg("--resume").status().expect("fig13 resumes");
        assert!(status.success());
        let text = std::fs::read_to_string(dir.join("fig13.manifest.json")).expect("manifest");
        Json::parse(&text).expect("manifest parses").at("resumed").and_then(Json::as_u64)
    };

    kill_after_first_cell(&mut fig13(&csv, "build-a"), &ckpt);
    assert_eq!(resume("build-b"), Some(0), "another build's cells resumed");
    kill_after_first_cell(&mut fig13(&csv, "build-a"), &ckpt);
    let resumed = resume("build-a");
    assert!(resumed >= Some(1), "the same build resumed {resumed:?} cells");

    std::fs::remove_dir_all(&dir).ok();
}
