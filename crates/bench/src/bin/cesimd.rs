//! `cesimd` — the persistent experiment daemon.
//!
//! ```text
//! cesimd [--socket PATH] [--state DIR] [--max-pending N] [--quiet] [--fsck]
//!
//!   --socket PATH       Unix socket to listen on
//!                       (default: <state>/cesimd.sock)
//!   --state DIR         state directory: job WAL, result store,
//!                       telemetry journals, artifacts
//!                       (default: cesimd-state)
//!   --max-pending N     reject submissions beyond N pending jobs (8);
//!                       from N/2 (rounded up) on, degrade opt-in jobs to
//!                       sampled mode
//!   --quiet             suppress informational stderr lines
//!   --fsck              audit and repair the state dir, print the
//!                       report, and exit without serving
//! ```
//!
//! Protocol, store layout, and the crash-recovery contract are
//! documented in `ce_bench::service` and DESIGN.md. Talk to it with
//! `cesimctl`. Stop it with SIGTERM (drains, then exits 0); `kill -9`
//! is recoverable — the next start resumes every interrupted job, its
//! settled cells served from the result store. Every start runs the
//! same audit as `--fsck` first (`ce_bench::fsck`): orphaned tempfiles
//! are swept and corrupt files are moved to `<state>/quarantine/`
//! before any loader touches them.
//!
//! Exit codes: 0 clean shutdown (or clean `--fsck`), 1 `--fsck` found
//! corruption (quarantined, bytes preserved), 2 startup/usage errors
//! (reported as a structured `error[io]`/usage line).
//!
//! `CE_IOFAULT` (e.g. `eio@3,torn@10,crash@25`) arms the deterministic
//! I/O fault-injection seam for chaos testing; see `ce_bench::iofault`.

#[cfg(unix)]
fn main() -> std::process::ExitCode {
    use ce_bench::service::{run, ServiceConfig};
    use std::path::PathBuf;

    // The socket defaults to one inside the state dir, set after parsing.
    let mut config = ServiceConfig::new(PathBuf::new(), PathBuf::from("cesimd-state"));
    let mut socket: Option<PathBuf> = None;
    let mut fsck_only = false;

    let mut args = std::env::args().skip(1);
    let usage = || {
        eprintln!("usage: cesimd [--socket PATH] [--state DIR] [--max-pending N] [--quiet] [--fsck]");
        std::process::ExitCode::from(2)
    };
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().ok_or_else(|| format!("{what} requires a value"))
        };
        let result: Result<(), String> = (|| {
            match arg.as_str() {
                "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
                "--state" => config.state_dir = PathBuf::from(value("--state")?),
                "--max-pending" => {
                    config.max_pending = value("--max-pending")?
                        .parse()
                        .map_err(|e| format!("bad --max-pending: {e}"))?;
                }
                "--quiet" => config.quiet = true,
                "--fsck" => fsck_only = true,
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown argument `{other}`")),
            }
            Ok(())
        })();
        if let Err(msg) = result {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            return usage();
        }
    }

    // Arm the deterministic I/O fault seam (chaos campaigns set
    // CE_IOFAULT); a bad spec is a usage error, not a silent no-op.
    if let Err(e) = ce_bench::iofault::arm_global_from_env() {
        eprintln!("error: CE_IOFAULT: {e}");
        return usage();
    }

    if fsck_only {
        return match ce_bench::fsck::fsck(&config.state_dir, true) {
            Ok(report) => {
                println!("{report}");
                if report.clean() {
                    std::process::ExitCode::SUCCESS
                } else {
                    std::process::ExitCode::from(1)
                }
            }
            Err(e) => {
                eprintln!("cesimd: error[io]: fsck: {e}");
                std::process::ExitCode::from(2)
            }
        };
    }

    config.socket = socket.unwrap_or_else(|| config.state_dir.join("cesimd.sock"));
    match run(config) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cesimd: error[io]: {e}");
            std::process::ExitCode::from(2)
        }
    }
}

#[cfg(not(unix))]
fn main() -> std::process::ExitCode {
    eprintln!("cesimd: error[io]: Unix domain sockets are unavailable on this platform");
    std::process::ExitCode::from(2)
}
