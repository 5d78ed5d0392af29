//! End-to-end tests for the `cesimd` experiment service: byte-identity
//! with the CLI binaries, content-addressed cache service on resubmit,
//! incremental re-sweep after a config change, `kill -9` crash recovery
//! with no duplicate cell execution, and `error[overloaded]`
//! backpressure.
//!
//! All daemon interaction goes through the real binaries
//! (`CARGO_BIN_EXE_*`), so these tests exercise the protocol, the WAL,
//! and the exit-code discipline exactly as an operator would.
#![cfg(unix)]

mod common;

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

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

/// The crash-recovery contract: `kill -9` the daemon mid-job, restart it
/// on the same state directory, and the job completes headless with a
/// CSV byte-identical to the standalone binary's — and the two
/// executions' telemetry journals prove no cell was simulated twice.
#[test]
fn kill_nine_mid_job_resumes_without_duplicate_execution() {
    let dir = temp_dir("kill9");
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

    let mut d = daemon(&state, &socket).spawn().expect("cesimd spawns");
    wait_ready(&socket, &mut d);

    // Submit without waiting: the client streams events until the daemon
    // dies under it.
    let mut client = ctl(&socket)
        .args(["submit", "fig17", "--quiet"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("cesimctl spawns");

    // Kill as soon as the checkpoint journal holds at least one settled
    // cell but well before all 35 are done (one worker thread).
    let ckpt = state.join("ckpt/job-1.ckpt.jsonl");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let cells_done = std::fs::read_to_string(&ckpt)
            .map(|s| s.lines().count().saturating_sub(1))
            .unwrap_or(0);
        if cells_done >= 1 {
            break;
        }
        if let Some(status) = d.try_wait().expect("try_wait") {
            panic!("cesimd exited before it could be killed: {status}");
        }
        assert!(Instant::now() < deadline, "no checkpoint record after 120s");
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
    let mut d = daemon(&state, &socket).spawn().expect("cesimd restarts");
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
    // Every cell the first execution settled also landed in the result
    // store (atomic insert precedes the journal record), so the replay
    // sees them as cache hits on top of the journal recovery.
    assert!(
        hits >= first.len(),
        "replay saw {hits} store hits but execution 0 settled {} cells",
        first.len()
    );

    shutdown(&socket, &mut d);
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
