//! Daemon helpers shared by the `cesimd` end-to-end suites
//! (`tests/service.rs`, `tests/chaos.rs`): a scratch directory, the
//! daemon and client commands, readiness and clean shutdown, and the
//! per-execution cell profile of a telemetry journal.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ce_bench::json::Json;

/// Small instruction cap so cells finish in milliseconds but a
/// multi-cell sweep still takes long enough to kill mid-flight.
pub const INSTS: &str = "20000";

/// A fresh, empty scratch directory for one test.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ce-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The daemon, pinned to one worker thread so sweeps progress cell by
/// cell (deterministic kill windows), with no I/O fault armed unless a
/// test sets `CE_IOFAULT` itself.
pub fn daemon(state: &Path, socket: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cesimd"));
    cmd.env("CE_MAX_INSTS", INSTS)
        .env("CE_THREADS", "1")
        .env_remove("CE_IOFAULT")
        .arg("--state")
        .arg(state)
        .arg("--socket")
        .arg(socket)
        .arg("--quiet")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

/// `cesimctl` against `socket`.
pub fn ctl(socket: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cesimctl"));
    cmd.env("CE_MAX_INSTS", INSTS).arg("--socket").arg(socket);
    cmd
}

/// Waits until the daemon answers `ping` (socket bound and accepting).
pub fn wait_ready(socket: &Path, child: &mut Child) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let ok = ctl(socket)
            .arg("ping")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map(|s| s.success())
            .unwrap_or(false);
        if ok {
            return;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("cesimd exited during startup: {status}");
        }
        assert!(Instant::now() < deadline, "cesimd never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Asks the daemon to drain and waits for a clean exit.
pub fn shutdown(socket: &Path, child: &mut Child) {
    let _ = ctl(socket)
        .arg("shutdown")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    let status = child.wait().expect("cesimd reaped");
    assert!(status.success(), "cesimd shutdown was not clean: {status}");
}

/// The set of cells a telemetry journal proves were *settled by
/// simulation* in that execution (checkpoint-write events), plus its
/// cache-hit count. Torn tails are tolerated like every journal reader.
pub fn exec_profile(journal: &Path) -> (std::collections::BTreeSet<u64>, usize) {
    let text = std::fs::read_to_string(journal)
        .unwrap_or_else(|e| panic!("reading {}: {e}", journal.display()));
    let mut written = std::collections::BTreeSet::new();
    let mut hits = 0usize;
    for line in text.lines().skip(1) {
        let Ok(doc) = Json::parse(line) else { continue };
        match doc.at("ev").and_then(Json::as_str) {
            Some("checkpoint-write") => {
                written.insert(doc.at("cell").and_then(Json::as_u64).expect("cell"));
            }
            Some("cache-hit") => hits += 1,
            _ => {}
        }
    }
    (written, hits)
}
