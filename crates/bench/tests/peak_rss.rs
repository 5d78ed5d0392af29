//! Peak-memory gate: regenerating Figure 17 at the default cap
//! (`fig17_organizations --out`, every kernel run to completion) must stay
//! under 32 MiB resident. The seven kernel traces dominate that peak: at
//! 40 bytes per dynamic instruction it read 92 MiB, at the decode-once
//! encoding's 8 about 22.
//!
//! The peak is the `ru_maxrss` that `getrusage(RUSAGE_CHILDREN)` reports
//! for this process's waited-for children, which is that one child's:
//! keep this the only test in its binary. It runs a full default-cap
//! sweep, so it is ignored by a plain `cargo test`; CI runs it in its own
//! step, in release:
//! `cargo test --release -p ce-bench --test peak_rss -- --ignored`.

use std::process::{Command, Stdio};

/// `struct rusage` as getrusage(2) fills it on 64-bit Linux: two `struct
/// timeval`s, then fourteen `long` counters, `ru_maxrss` (KiB) first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const LIMIT_MIB: f64 = 32.0;

#[test]
#[ignore = "runs the default-cap Figure 17 sweep; run in release with --ignored"]
fn fig17_at_the_default_cap_peaks_under_32_mib() {
    let dir = std::env::temp_dir().join(format!("ce-peak-rss-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // Two workers, as the benchmark's fig17-full workload runs it.
    let status = Command::new(env!("CARGO_BIN_EXE_fig17_organizations"))
        .arg("--out")
        .arg(dir.join("fig17_organizations.csv"))
        .arg("--quiet")
        .env_remove("CE_MAX_INSTS")
        .env("CE_THREADS", "2")
        .stdout(Stdio::null())
        .status()
        .expect("run fig17_organizations");
    std::fs::remove_dir_all(&dir).ok();
    assert!(status.success(), "fig17_organizations failed: {status}");
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, correctly laid out out-parameter for the
    // duration of the call.
    let got = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(got, 0, "getrusage failed: {}", std::io::Error::last_os_error());
    let peak_mib = usage.maxrss as f64 / 1024.0;
    assert!(
        peak_mib <= LIMIT_MIB,
        "fig17_organizations peaked at {peak_mib:.1} MiB resident (limit {LIMIT_MIB} MiB)"
    );
    eprintln!("fig17_organizations peak RSS: {peak_mib:.1} MiB");
}
