//! End-to-end tests of the `cesim` command-line driver.

use std::process::Command;

fn cesim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cesim"))
}

#[test]
fn runs_a_benchmark_and_reports_ipc() {
    let out = cesim()
        .args(["--machine", "fifos", "--bench", "compress", "--max-insts", "20000"])
        .output()
        .expect("cesim runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("machine: fifos"), "{stdout}");
    assert!(stdout.contains("IPC:"), "{stdout}");
    assert!(stdout.contains("instructions: 20000"), "{stdout}");
}

#[test]
fn clustered_machine_reports_intercluster_traffic() {
    let out = cesim()
        .args(["--machine", "clustered-fifos", "--bench", "li", "--max-insts", "20000"])
        .output()
        .expect("cesim runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("inter-cluster bypasses"), "{stdout}");
}

#[test]
fn schedule_flag_prints_records_and_diagram() {
    let out = cesim()
        .args(["--bench", "go", "--max-insts", "200", "--schedule"])
        .output()
        .expect("cesim runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dispatch"), "{stdout}");
    assert!(stdout.contains("pipeline diagram"), "{stdout}");
}

/// The streamed save writes exactly `format_trace`'s text, and replaying
/// it prints the same statistics as simulating the kernel directly.
#[test]
fn trace_save_and_replay_roundtrip() {
    let dir = std::env::temp_dir().join(format!("cesim-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("t.trace");

    let save = cesim()
        .args(["--bench", "m88ksim", "--max-insts", "5000"])
        .arg("--save-trace")
        .arg(&trace_path)
        .output()
        .expect("save runs");
    assert!(save.status.success());
    let saved = std::fs::read_to_string(&trace_path).expect("saved trace");
    let trace = ce_workloads::trace_benchmark(ce_workloads::Benchmark::M88ksim, 5000).unwrap();
    assert!(saved == ce_workloads::trace_io::format_trace(&trace), "saved bytes differ");

    let replay = cesim()
        .args(["--machine", "window"])
        .arg("--trace")
        .arg(&trace_path)
        .output()
        .expect("replay runs");
    assert!(replay.status.success());
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(stdout.contains("instructions: 5000"), "{stdout}");
    let direct = cesim()
        .args(["--machine", "window", "--bench", "m88ksim", "--max-insts", "5000"])
        .output()
        .expect("direct run");
    assert_eq!(stdout, String::from_utf8_lossy(&direct.stdout));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn assembles_and_runs_a_user_program() {
    let dir = std::env::temp_dir().join(format!("cesim-asm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let asm_path = dir.join("p.s");
    std::fs::write(&asm_path, "li t0, 64\nloop: addiu t0, t0, -1\nbnez t0, loop\nhalt\n")
        .expect("write asm");

    let out = cesim().arg("--asm").arg(&asm_path).output().expect("cesim runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("instructions: 130"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt trace file must produce a clean line-numbered error and a
/// failure exit code — not a mid-simulation panic (loads without
/// addresses used to survive parsing and blow up inside the issue path).
#[test]
fn corrupt_trace_fails_cleanly() {
    let dir = std::env::temp_dir().join(format!("cesim-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    // A load with its memory-address field missing.
    let lw = ce_isa::encode(&ce_isa::Instruction::mem(
        ce_isa::Opcode::Lw,
        ce_isa::Reg::new(4),
        0,
        ce_isa::Reg::new(29),
    ));
    let no_addr = dir.join("no-addr.trace");
    std::fs::write(&no_addr, format!("ce-trace v1 completed=true\n400000 {lw:x} 400004 0\n"))
        .expect("write trace");
    let out = cesim().arg("--trace").arg(&no_addr).output().expect("cesim runs");
    assert!(!out.status.success(), "missing address must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("trace line 2"), "{stderr}");
    assert!(stderr.contains("memory address"), "{stderr}");

    // Garbage header.
    let bad_header = dir.join("bad-header.trace");
    std::fs::write(&bad_header, "not a trace\n").expect("write trace");
    let out = cesim().arg("--trace").arg(&bad_header).output().expect("cesim runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad header"));

    std::fs::remove_dir_all(&dir).ok();
}

/// `--metrics` writes a schema-tagged JSON document whose attribution
/// section reconciles, and prints the stall table; `--pipeview` writes a
/// Kanata log a pipeline viewer can open. One run exercises both.
#[test]
fn metrics_and_pipeview_outputs() {
    let dir = std::env::temp_dir().join(format!("cesim-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics_path = dir.join("m.json");
    let pipeview_path = dir.join("p.log");

    let out = cesim()
        .args(["--machine", "clustered-fifos", "--bench", "li", "--max-insts", "20000"])
        .arg("--metrics")
        .arg(&metrics_path)
        .arg("--pipeview")
        .arg(&pipeview_path)
        .output()
        .expect("cesim runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stall attribution"), "{stdout}");
    assert!(stdout.contains("fifo_head_not_ready"), "{stdout}");

    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics written");
    assert!(metrics.contains("\"schema\": \"ce-sim.metrics.v1\""), "{metrics}");
    assert!(metrics.contains("\"machine\": \"clustered-fifos\""), "{metrics}");
    assert!(metrics.contains("\"workload\": \"li\""), "{metrics}");
    assert!(metrics.contains("\"issue_slots\""), "{metrics}");

    let pipeview = std::fs::read_to_string(&pipeview_path).expect("pipeview written");
    assert!(pipeview.starts_with("Kanata\t0004\n"), "bad header");
    // Stage opens, retires, and cycle advances are all present.
    for needle in ["\nC=\t", "\nS\t", "\nE\t", "\nR\t", "\nC\t"] {
        assert!(pipeview.contains(needle), "missing {needle:?}");
    }

    // Without --metrics, no attribution table and no charged slots.
    let out = cesim()
        .args(["--machine", "clustered-fifos", "--bench", "li", "--max-insts", "20000"])
        .output()
        .expect("cesim runs");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("stall attribution"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_arguments_fail_with_usage() {
    let out = cesim().args(["--machine", "bogus"]).output().expect("cesim runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");

    let out = cesim().args(["--max-insts", "not-a-number"]).output().expect("cesim runs");
    assert_eq!(out.status.code(), Some(2));

    // A malformed fault spec is a usage error too, with the kind list.
    let out = cesim().args(["--inject", "bogus@5"]).output().expect("cesim runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --inject"), "{stderr}");
    assert!(stderr.contains("early-select"), "{stderr}");
}

/// A checker violation must surface as exit code 3 with a structured
/// one-line `error[checker-violation]` on stderr — not a panic with a
/// backtrace. `stats-corrupt` is always caught by the end-of-run
/// reconciliation, so the outcome is deterministic.
#[test]
fn injected_fault_aborts_with_structured_error() {
    let out = cesim()
        .args(["--bench", "compress", "--max-insts", "5000", "--check"])
        .args(["--inject", "stats-corrupt@0"])
        .output()
        .expect("cesim runs");
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error[checker-violation]:"), "{stderr}");
    assert!(stderr.contains("invariant checker"), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "one line expected: {stderr}");

    // The same fault with the checker off corrupts only the `issued`
    // counter — the run itself completes (exit 0). This is exactly the
    // silent-skew scenario --check exists to rule out.
    let out = cesim()
        .args(["--bench", "compress", "--max-insts", "5000"])
        .args(["--inject", "stats-corrupt@0"])
        .output()
        .expect("cesim runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

/// The checker rides along cleanly on a healthy run: same stats, exit 0.
#[test]
fn check_flag_passes_on_a_clean_run() {
    let out = cesim()
        .args(["--bench", "compress", "--max-insts", "5000", "--check"])
        .output()
        .expect("cesim runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("IPC:"));
}

/// A missing trace file is an input error (exit 1) with a one-line
/// `error:` message naming the path.
#[test]
fn unreadable_trace_file_fails_with_exit_1() {
    let out = cesim()
        .args(["--trace", "/nonexistent/no-such.trace"])
        .output()
        .expect("cesim runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: reading /nonexistent/no-such.trace"), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "one line expected: {stderr}");
}
