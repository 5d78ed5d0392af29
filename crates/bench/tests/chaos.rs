//! Chaos end-to-end tests: the storm-proofing contract exercised
//! through the real binaries.
//!
//! - an injected crash fault (`CE_IOFAULT=crash@K`) kills the daemon
//!   mid-job; a restart recovers the job with **zero duplicate
//!   simulation** and a resubmission is fully cache-served,
//! - the seeded protocol fuzz corpus is rejected line by line with
//!   structured errors while the connection (and daemon) stay alive,
//! - orphaned `*.tmp` files are swept at daemon startup,
//! - `cesimd --fsck` honors its exit discipline: 0 clean, 1 corruption
//!   found (quarantined, bytes preserved),
//! - the `cechaos --grid-only` campaign (simulator faults, then the I/O
//!   fault grid) passes end to end (the crash column spawns real
//!   aborting subprocesses).

#![cfg(unix)]

mod common;

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ce_bench::chaos::fuzz_corpus;
use ce_bench::json::Json;
use ce_bench::service::MAX_REQUEST_LINE;
use common::{ctl, daemon, exec_profile, shutdown, temp_dir, wait_ready};

/// One-line request on a fresh connection; the first response line.
fn request_line(socket: &Path, line: &str) -> Option<String> {
    let mut stream = UnixStream::connect(socket).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    stream.write_all(line.as_bytes()).ok()?;
    stream.write_all(b"\n").ok()?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).ok()?;
    (!response.is_empty()).then(|| response.trim().to_owned())
}

/// Polls `status` until the daemon reports no queued and no running
/// jobs (WAL-recovered work included).
fn wait_drained(socket: &Path) {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if let Some(line) = request_line(socket, "{\"op\": \"status\"}") {
            let doc = Json::parse(&line).expect("status is JSON");
            let queued = doc.at("queued").and_then(Json::as_u64).unwrap_or(0);
            let running = doc.at("running").and_then(Json::as_u64).unwrap_or(0);
            if queued == 0 && running == 0 {
                return;
            }
        }
        assert!(Instant::now() < deadline, "recovered jobs never drained");
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn fsck(state: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cesimd"))
        .arg("--fsck")
        .arg("--state")
        .arg(state)
        .output()
        .expect("cesimd --fsck runs")
}

/// Crash fault class, end to end: `CE_IOFAULT=crash@25` aborts the
/// daemon mid-job (after the WAL owns it), the state dir audits clean,
/// a restart finishes the job without re-simulating any durable cell,
/// and a resubmission is 100% cache-served.
#[test]
fn injected_crash_recovers_with_zero_duplicate_simulation() {
    let dir = temp_dir("crash");
    let state = dir.join("state");
    let socket = dir.join("d.sock");

    let mut d = daemon(&state, &socket)
        .env("CE_IOFAULT", "crash@25")
        .spawn()
        .expect("cesimd spawns");
    wait_ready(&socket, &mut d);
    // The submit dies with the daemon; all we need is the WAL record.
    let _ = ctl(&socket)
        .args(["submit", "fig13", "--quiet"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    let status = d.wait().expect("reaped");
    assert_eq!(status.code(), None, "the injected crash must kill by signal: {status}");

    // The wreckage audits clean: torn tails and orphans at worst.
    let audit = fsck(&state);
    assert!(
        audit.status.success(),
        "post-crash fsck found corruption:\n{}",
        String::from_utf8_lossy(&audit.stdout)
    );

    // Restart (fault disarmed): the WAL replays the job to completion.
    let mut d = daemon(&state, &socket).spawn().expect("cesimd restarts");
    wait_ready(&socket, &mut d);
    wait_drained(&socket);

    // Zero duplicate simulation across the two executions of job 1.
    let (first, _) = exec_profile(&state.join("telemetry/job-1.exec-0.jsonl"));
    let (second, _) = exec_profile(&state.join("telemetry/job-1.exec-1.jsonl"));
    assert!(
        first.is_disjoint(&second),
        "cells simulated twice across the crash: {:?}",
        first.intersection(&second).collect::<Vec<_>>()
    );
    assert_eq!(first.len() + second.len(), 14, "all 14 cells settled exactly once");

    // A resubmission simulates nothing at all.
    let out = ctl(&socket).args(["submit", "fig13"]).output().expect("resubmit");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let (written, hits) = exec_profile(&state.join("telemetry/job-2.exec-0.jsonl"));
    assert!(written.is_empty(), "resubmission re-simulated {written:?}");
    assert_eq!(hits, 14);

    shutdown(&socket, &mut d);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: the seeded fuzz corpus — oversized line first, then torn
/// JSON, binary junk, wrong-shape ops — is rejected with structured
/// error events, and the *same connection* then serves a ping and a
/// real submission. The daemon never dies and never goes silent.
#[test]
fn protocol_fuzz_rejected_and_connection_survives() {
    let dir = temp_dir("fuzz");
    let state = dir.join("state");
    let socket = dir.join("d.sock");
    let mut d = daemon(&state, &socket).spawn().expect("cesimd spawns");
    wait_ready(&socket, &mut d);

    let stream = UnixStream::connect(&socket).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let corpus = fuzz_corpus(0xF022, 12, MAX_REQUEST_LINE);
    assert!(corpus[0].len() > MAX_REQUEST_LINE, "index 0 is the oversized probe");
    for (i, line) in corpus.iter().enumerate() {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut response = String::new();
        let n = reader.read_line(&mut response).expect("daemon answers fuzz");
        assert!(n > 0, "connection died on fuzz line {i}");
        let doc = Json::parse(response.trim())
            .unwrap_or_else(|e| panic!("fuzz line {i} drew a non-JSON response: {e}"));
        assert_eq!(
            doc.at("ev").and_then(Json::as_str),
            Some("error"),
            "fuzz line {i} was not rejected: {response}"
        );
        let kind = doc.at("kind").and_then(Json::as_str).unwrap_or("");
        assert!(
            kind == "proto" || kind == "config-invalid",
            "fuzz line {i} drew unexpected error kind {kind:?}"
        );
    }

    // The same connection still works: ping, then a real single-cell
    // sweep streamed to done.
    writer.write_all(b"{\"op\": \"ping\"}\n").unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert!(response.contains("pong"), "ping after fuzz: {response}");

    writer
        .write_all(
            b"{\"op\": \"submit\", \"spec\": {\"cells\": \
              [{\"bench\": \"compress\", \"machine\": \"window\"}]}}\n",
        )
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "stream died mid-job");
        let doc = Json::parse(line.trim()).unwrap();
        match doc.at("ev").and_then(Json::as_str) {
            Some("done") => break,
            Some("error") => panic!("submission after fuzz failed: {line}"),
            _ => assert!(Instant::now() < deadline, "job never finished"),
        }
    }

    shutdown(&socket, &mut d);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite regression: orphaned `*.tmp` files (a crash between
/// tempfile creation and rename) are swept at daemon startup — both
/// the bare `.tmp` suffix and the `.tmp.<pid>` infix shape.
#[test]
fn orphan_tmp_files_swept_on_startup() {
    let dir = temp_dir("orphans");
    let state = dir.join("state");
    let socket = dir.join("d.sock");
    std::fs::create_dir_all(state.join("store")).unwrap();
    let orphans = [
        state.join("results.csv.tmp.4242"),
        state.join("store/feedbeef.json.tmp.99"),
        state.join("store/stale.tmp"),
    ];
    for path in &orphans {
        std::fs::write(path, "half-written").unwrap();
    }

    let mut d = daemon(&state, &socket).spawn().expect("cesimd spawns");
    wait_ready(&socket, &mut d);
    for path in &orphans {
        assert!(!path.exists(), "{} survived the startup sweep", path.display());
    }
    shutdown(&socket, &mut d);

    // Orphans are hygiene, not corruption: fsck on such a dir exits 0.
    std::fs::write(&orphans[0], "half-written").unwrap();
    let out = fsck(&state);
    assert!(out.status.success(), "orphans alone must not fail fsck");
    assert!(!orphans[0].exists(), "--fsck sweeps orphans too");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: the `--fsck` exit discipline. A clean dir exits 0; a
/// corrupt store entry exits 1 and is *moved* to quarantine with its
/// bytes preserved; the repaired dir then exits 0.
#[test]
fn fsck_exit_discipline_and_quarantine() {
    let dir = temp_dir("fsck");
    let state = dir.join("state");
    std::fs::create_dir_all(state.join("store")).unwrap();

    let out = fsck(&state);
    assert!(out.status.success(), "clean dir must exit 0");

    let bad = state.join("store/00000000000000aa.json");
    std::fs::write(&bad, "{\"ce_result\": 1, \"key\": \"mismatched\"}").unwrap();
    let out = fsck(&state);
    assert_eq!(out.status.code(), Some(1), "corruption must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[fsck]"), "structured report expected:\n{stdout}");
    assert!(!bad.exists(), "the corrupt entry must leave the store");
    let quarantined: Vec<_> = std::fs::read_dir(state.join("quarantine"))
        .expect("quarantine dir")
        .flatten()
        .collect();
    assert_eq!(quarantined.len(), 1, "bytes preserved in quarantine");
    assert_eq!(
        std::fs::read_to_string(quarantined[0].path()).unwrap(),
        "{\"ce_result\": 1, \"key\": \"mismatched\"}"
    );

    let out = fsck(&state);
    assert!(out.status.success(), "after quarantine the dir audits clean");
    std::fs::remove_dir_all(&dir).ok();
}

/// Both deterministic phases through the real campaign binary: the
/// seeded simulator faults, then every I/O class × every op index (the
/// crash column spawns worker subprocesses that really abort), ≥100
/// grid cases, zero violations.
#[test]
fn cechaos_grid_campaign_passes() {
    let dir = temp_dir("grid");
    let out = Command::new(env!("CARGO_BIN_EXE_cechaos"))
        .args(["--grid-only", "--seed", "1", "--state"])
        .arg(&dir)
        .output()
        .expect("cechaos runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "grid campaign failed:\n{stdout}");
    assert!(stdout.contains("campaign PASSED"), "{stdout}");
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
