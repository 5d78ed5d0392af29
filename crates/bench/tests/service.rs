//! End-to-end tests for the `cesimd` experiment service: byte-identity
//! with the CLI binaries, content-addressed cache service on resubmit,
//! incremental re-sweep after a config change, `kill -9` crash recovery
//! with no duplicate cell execution, a restart on a rebuilt binary that
//! replays nothing the old build computed, a quoted job tag that leaves
//! the state directory clean, and `error[overloaded]` backpressure.
//!
//! All daemon interaction goes through the real binaries
//! (`CARGO_BIN_EXE_*`), so these tests exercise the protocol, the WAL,
//! and the exit-code discipline exactly as an operator would.
#![cfg(unix)]

mod common;

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ce_bench::telemetry::HealthReport;
use common::{ctl, daemon, exec_profile, shutdown, temp_dir, wait_ready, INSTS};

fn read_csv(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The headline acceptance tests, serialized against one daemon: the
/// service's fig13 CSV is byte-identical to the standalone binary's, an
/// identical resubmission is fully cache-served (no simulation at all),
/// and after changing one machine in the grid only that machine's cells
/// re-run.
#[test]
fn service_csv_matches_cli_and_resubmit_is_cache_served() {
    let dir = temp_dir("cache");
    let state = dir.join("state");
    let socket = dir.join("d.sock");

    // Reference: the standalone binary, same instruction cap.
    let ref_csv = dir.join("reference.csv");
    let status = Command::new(env!("CARGO_BIN_EXE_fig13_ipc"))
        .env("CE_MAX_INSTS", INSTS)
        .env("CE_THREADS", "1")
        .arg("--out")
        .arg(&ref_csv)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("fig13_ipc runs");
    assert!(status.success());
    let reference = read_csv(&ref_csv);

    let mut d = daemon(&state, &socket).spawn().expect("cesimd spawns");
    wait_ready(&socket, &mut d);

    // First submission: all 14 cells simulate; bytes match the CLI.
    let art1 = dir.join("art1");
    let out = ctl(&socket)
        .args(["submit", "fig13", "--artifacts"])
        .arg(&art1)
        .output()
        .expect("cesimctl runs");
    assert!(out.status.success(), "submit failed: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        read_csv(&art1.join("fig13_ipc.csv")),
        reference,
        "service CSV differs from the standalone binary's"
    );
    let (written, hits) = exec_profile(&state.join("telemetry/job-1.exec-0.jsonl"));
    assert_eq!(written.len(), 14, "every cell simulates on a cold store");
    assert_eq!(hits, 0);
    // The store is the daemon's only cell record: no other state kind.
    let mut layout: Vec<String> = std::fs::read_dir(&state)
        .expect("state dir")
        .map(|e| e.expect("state dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    layout.sort();
    assert_eq!(layout, ["artifacts", "jobs.jsonl", "store", "telemetry"]);

    // Identical resubmission: 100% cache-served, still byte-identical.
    let art2 = dir.join("art2");
    let out = ctl(&socket)
        .args(["submit", "fig13", "--artifacts"])
        .arg(&art2)
        .output()
        .expect("cesimctl runs");
    assert!(out.status.success());
    assert_eq!(read_csv(&art2.join("fig13_ipc.csv")), reference);
    let journal2 = state.join("telemetry/job-2.exec-0.jsonl");
    let (written, hits) = exec_profile(&journal2);
    assert!(written.is_empty(), "resubmission must not simulate: {written:?}");
    assert_eq!(hits, 14, "all 14 cells served from the result store");

    // sweephealth surfaces the cache economics (the CI gate greps this).
    let out = Command::new(env!("CARGO_BIN_EXE_sweephealth"))
        .arg(&journal2)
        .output()
        .expect("sweephealth runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("cache_hits=14 cache_misses=0"),
        "sweephealth must report the cache split:\n{text}"
    );

    // Incremental re-sweep: swap one machine in the grid. fig13 covered
    // window+fifos with attribution on; clustered-fifos is new, so of
    // these two cells exactly one simulates.
    let out = ctl(&socket)
        .args([
            "submit-cells",
            "compress:window,compress:clustered-fifos",
            "--attribution",
        ])
        .output()
        .expect("cesimctl runs");
    assert!(out.status.success(), "submit-cells failed: {}", String::from_utf8_lossy(&out.stderr));
    let (written, hits) = exec_profile(&state.join("telemetry/job-3.exec-0.jsonl"));
    assert_eq!(hits, 1, "the unchanged cell is cache-served");
    assert_eq!(written.len(), 1, "only the changed cell re-runs");

    shutdown(&socket, &mut d);
    std::fs::remove_dir_all(&dir).ok();
}

/// The crash half of the recovery tests: a daemon run as code version
/// `before` is SIGKILLed once a fig17 job has settled cells in the result
/// store, and a daemon run as `after` restarts on the same state
/// directory and finishes the job headless, with a CSV byte-identical to
/// the standalone binary's. Returns the state directory and the restarted
/// daemon, still serving on `dir/d.sock`.
fn crash_fig17_job_and_restart(dir: &Path, before: &str, after: &str) -> (PathBuf, Child) {
    let state = dir.join("state");
    let socket = dir.join("d.sock");

    // Reference: the standalone fig17 binary (35 cells, attribution on).
    let ref_csv = dir.join("reference.csv");
    let status = Command::new(env!("CARGO_BIN_EXE_fig17_organizations"))
        .env("CE_MAX_INSTS", INSTS)
        .env("CE_THREADS", "1")
        .arg("--out")
        .arg(&ref_csv)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("fig17 runs");
    assert!(status.success());
    let reference = read_csv(&ref_csv);

    let mut d =
        daemon(&state, &socket).env("CE_CODE_VERSION", before).spawn().expect("cesimd spawns");
    wait_ready(&socket, &mut d);

    // Submit without waiting: the client streams events until the daemon
    // dies under it.
    let mut client = ctl(&socket)
        .args(["submit", "fig17", "--quiet"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("cesimctl spawns");

    // Kill as soon as the store holds two settled cells but well before
    // all 35 are done. With one worker thread the second entry lands
    // after the first cell's `checkpoint-write` event, so the first
    // execution's journal proves at least one cell.
    let store = state.join("store");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let cells_done = std::fs::read_dir(&store)
            .map(|dir| {
                dir.flatten().filter(|e| e.path().extension().is_some_and(|x| x == "json")).count()
            })
            .unwrap_or(0);
        if cells_done >= 2 {
            break;
        }
        if let Some(status) = d.try_wait().expect("try_wait") {
            panic!("cesimd exited before it could be killed: {status}");
        }
        assert!(Instant::now() < deadline, "no store entry after 120s");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        !state.join("artifacts/job-1/manifest.json").exists(),
        "job finished before the kill; the window is too small"
    );
    d.kill().expect("SIGKILL"); // Child::kill is SIGKILL on unix
    d.wait().expect("reap daemon");
    let _ = client.wait();

    // Restart on the same state: the WAL re-enqueues job 1 headless.
    let mut d =
        daemon(&state, &socket).env("CE_CODE_VERSION", after).spawn().expect("cesimd restarts");
    wait_ready(&socket, &mut d);
    let manifest = state.join("artifacts/job-1/manifest.json");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !manifest.exists() {
        if let Some(status) = d.try_wait().expect("try_wait") {
            panic!("restarted cesimd exited early: {status}");
        }
        assert!(Instant::now() < deadline, "resumed job never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        read_csv(&state.join("artifacts/job-1/fig17_organizations.csv")),
        reference,
        "resumed job's CSV differs from an uninterrupted run"
    );
    (state, d)
}

/// The crash-recovery contract: `kill -9` the daemon mid-job, restart it
/// on the same state directory, and the job completes headless with a
/// CSV byte-identical to the standalone binary's — and the two
/// executions' telemetry journals prove no cell was simulated twice.
#[test]
fn kill_nine_mid_job_resumes_without_duplicate_execution() {
    let dir = temp_dir("kill9");
    let (state, mut d) = crash_fig17_job_and_restart(&dir, "build-a", "build-a");

    // No duplicate execution: the cells each execution settled by
    // simulation are disjoint, and together they cover the whole grid
    // (nothing was lost, nothing ran twice).
    let (first, _) = exec_profile(&state.join("telemetry/job-1.exec-0.jsonl"));
    let (second, hits) = exec_profile(&state.join("telemetry/job-1.exec-1.jsonl"));
    assert!(!first.is_empty(), "the kill landed before any cell settled");
    assert!(
        first.is_disjoint(&second),
        "cells simulated twice across the restart: {:?}",
        first.intersection(&second).collect::<Vec<_>>()
    );
    assert_eq!(
        first.union(&second).count(),
        35,
        "executions must jointly cover all 35 cells (first {first:?}, second {second:?})"
    );
    // Every cell the first execution settled is in the result store (its
    // `checkpoint-write` event follows the insert), so the replay serves
    // them as cache hits.
    assert!(
        hits >= first.len(),
        "replay saw {hits} store hits but execution 0 settled {} cells",
        first.len()
    );

    shutdown(&dir.join("d.sock"), &mut d);
    std::fs::remove_dir_all(&dir).ok();
}

/// A daemon restarted on a rebuilt binary serves nothing the old build
/// computed: the store's entries belong to another code version, so the
/// replayed execution resumes no cell, the store serves none, and every
/// one of the 35 cells is simulated again.
#[test]
fn a_restart_on_another_build_resumes_nothing() {
    let dir = temp_dir("rebuild");
    let (state, mut d) = crash_fig17_job_and_restart(&dir, "build-a", "build-b");

    let journal = state.join("telemetry/job-1.exec-1.jsonl");
    let text = std::fs::read_to_string(&journal).expect("replayed execution's journal");
    let health = HealthReport::from_journal(&text).expect("journal parses");
    assert_eq!(health.resumed, 0, "another build's cells resumed");
    let (written, hits) = exec_profile(&journal);
    assert_eq!(written.len(), 35, "every cell simulates again: {written:?}");
    assert_eq!(hits, 0, "the store served another build's cells");

    shutdown(&dir.join("d.sock"), &mut d);
    std::fs::remove_dir_all(&dir).ok();
}

/// A client's tag reaches the daemon's telemetry header and the job's
/// manifest escaped: after a submission tagged with a quote, a backslash
/// and a newline, `cesimd --fsck` finds nothing to quarantine and
/// `sweephealth` reads the job's journal back under that name.
#[test]
fn a_quoted_tag_leaves_a_clean_state_dir() {
    let dir = temp_dir("tag");
    let state = dir.join("state");
    let socket = dir.join("d.sock");
    let tag = "my \"run\" \\\nnext";
    let mut d = daemon(&state, &socket).spawn().expect("cesimd spawns");
    wait_ready(&socket, &mut d);
    let out = ctl(&socket)
        .args(["submit", "fig13", "--quiet", "--tag", tag])
        .output()
        .expect("cesimctl runs");
    assert!(out.status.success(), "submit failed: {}", String::from_utf8_lossy(&out.stderr));
    shutdown(&socket, &mut d);

    let fsck = Command::new(env!("CARGO_BIN_EXE_cesimd"))
        .arg("--fsck")
        .arg("--state")
        .arg(&state)
        .output()
        .expect("cesimd --fsck runs");
    let stdout = String::from_utf8_lossy(&fsck.stdout);
    assert!(fsck.status.success(), "fsck found damage:\n{stdout}");
    let health = Command::new(env!("CARGO_BIN_EXE_sweephealth"))
        .arg(state.join("telemetry/job-1.exec-0.jsonl"))
        .output()
        .expect("sweephealth runs");
    let stdout = String::from_utf8_lossy(&health.stdout);
    assert!(health.status.success(), "sweephealth:\n{stdout}");
    assert!(stdout.contains(&format!("sweep job-1:{tag}: 14/14 cells")), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Bounded admission: with a zero-slot queue every submission gets a
/// structured `error[overloaded]` and cesimctl exits 1 (experiment
/// failure, not protocol error).
#[test]
fn overloaded_queue_rejects_with_structured_backpressure() {
    let dir = temp_dir("overload");
    let state = dir.join("state");
    let socket = dir.join("d.sock");
    let mut d = daemon(&state, &socket)
        .args(["--max-pending", "0"])
        .spawn()
        .expect("cesimd spawns");
    wait_ready(&socket, &mut d);

    let out = ctl(&socket).args(["submit", "fig13"]).output().expect("cesimctl runs");
    assert_eq!(out.status.code(), Some(1), "backpressure is exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error[overloaded]"), "missing structured error:\n{stderr}");

    shutdown(&socket, &mut d);
    std::fs::remove_dir_all(&dir).ok();
}
