//! Exit-code contracts of the CI gate tools (`metrics_check`, and the
//! verification gates `diffcheck`, `sampling_check`, `delaycheck` and
//! `cechaos`) and of the sweep front ends (`make_report`, and the flags
//! every sweep binary shares): 0 pass, 1 gate failure, 2
//! missing/malformed input or a usage error — so a workflow can
//! distinguish "the gate tripped" from "the gate never ran".

use std::path::PathBuf;
use std::process::Command;

fn metrics_check() -> Command {
    Command::new(env!("CARGO_BIN_EXE_metrics_check"))
}

fn schema_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/metrics.schema.json")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ce-cli-tools-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn metrics_check_distinguishes_validation_failures_from_broken_inputs() {
    let dir = temp_dir("metrics");

    // A syntactically valid document that fails validation: exit 1.
    let wrong = dir.join("wrong.json");
    std::fs::write(&wrong, r#"{"schema": "something-else"}"#).expect("write");
    let out = metrics_check().arg(&wrong).arg(schema_path()).output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("problem(s)"));

    // Missing document: exit 2.
    let out = metrics_check()
        .arg(dir.join("absent.json"))
        .arg(schema_path())
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("absent.json"));

    // Malformed document: exit 2.
    let garbled = dir.join("garbled.json");
    std::fs::write(&garbled, "][").expect("write");
    let out = metrics_check().arg(&garbled).arg(schema_path()).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("parsing"));

    // No arguments at all: usage, exit 2.
    let out = metrics_check().output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    std::fs::remove_dir_all(&dir).ok();
}

/// Runs a verification gate at a short cap; returns its exit code and
/// its stdout and stderr together.
fn gate(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .env("CE_MAX_INSTS", "20000")
        .output()
        .expect("gate runs");
    let text = String::from_utf8_lossy(&out.stdout).into_owned()
        + &String::from_utf8_lossy(&out.stderr);
    (out.status.code(), text)
}

/// The verification gates share `ce_bench::campaign`'s exit rule: 0 no
/// violation, 1 any violation, 2 a usage error, never the code a
/// divergence would draw.
#[test]
fn verification_gates_share_one_exit_rule() {
    let diffcheck = env!("CARGO_BIN_EXE_diffcheck");
    let sampling = env!("CARGO_BIN_EXE_sampling_check");
    let delaycheck = env!("CARGO_BIN_EXE_delaycheck");
    let cechaos = env!("CARGO_BIN_EXE_cechaos");
    let usage_errors: [(&str, &[&str]); 8] = [
        (diffcheck, &["--grid", "nope"]),
        (diffcheck, &["--grid"]),
        (diffcheck, &["nosuchkernel"]),
        (sampling, &["--bench", "nosuchkernel"]),
        (sampling, &["--max-err", "x"]),
        (delaycheck, &["--bogus"]),
        (cechaos, &["--bogus"]),
        (cechaos, &["--seed", "x"]),
    ];
    for (bin, args) in usage_errors {
        let (code, text) = gate(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}:\n{text}");
    }

    // A bound no estimate can meet: each Figure 17 organization fails on
    // the one kernel, with one error line each, and the gate trips with 1.
    let (code, text) = gate(sampling, &["--max-err", "0"]);
    assert_eq!(code, Some(1), "{text}");
    assert_eq!(text.lines().filter(|l| l.contains("error[")).count(), 5, "{text}");
    for (machine, _) in ce_sim::machine::figure17_machines() {
        let line = format!("sampling_check: error[fail]: compress {machine}: ");
        assert!(text.contains(&line), "{text}");
    }

    let (code, text) = gate(sampling, &["--max-err", "1"]);
    assert_eq!(code, Some(0), "{text}");
    let out = temp_dir("delaycheck").join("anchors.csv");
    let (code, text) = gate(delaycheck, &["--out", out.to_str().expect("UTF-8 path")]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("delaycheck: 35 case(s): 35 pass, 0 violation(s)"), "{text}");
    std::fs::remove_dir_all(out.parent().expect("temp dir")).ok();
}

/// `make_report` follows the same exit rule: a flag or a second
/// positional argument is a usage error that creates nothing, and an
/// output directory it cannot create is an `error[io]`, not a panic.
#[test]
fn make_report_refuses_usage_errors_and_reports_io_failures() {
    let dir = temp_dir("make-report");
    let make_report = || {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_make_report"));
        cmd.current_dir(&dir);
        cmd
    };
    let usage_errors: [&[&str]; 3] = [&["--help"], &["-o", "out"], &["one", "two"]];
    for args in usage_errors {
        let out = make_report().args(args).output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        let created: Vec<_> = std::fs::read_dir(&dir).expect("dir").collect();
        assert!(created.is_empty(), "{args:?} created {created:?}");
    }

    // A directory under a regular file cannot be created, even by root.
    let file = dir.join("file");
    std::fs::write(&file, "").expect("write");
    let out = make_report().arg(file.join("report")).output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("make_report: error[io]: "), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every sweep binary parses the same flags, and the explorer's own
/// (`--full`, `--grid`) stay its own: a usage error exits 2 before any
/// cell runs.
#[test]
fn sweep_binaries_refuse_flags_they_do_not_own() {
    let fig13 = env!("CARGO_BIN_EXE_fig13_ipc");
    let explore = env!("CARGO_BIN_EXE_ce-explore");
    let usage_errors: [(&str, &[&str]); 6] = [
        (fig13, &["--full"]),
        (fig13, &["--grid", "tiny"]),
        (fig13, &["--manifest", "elsewhere/m.json"]),
        (explore, &["--grid", "huge"]),
        (explore, &["--grid"]),
        (explore, &["--bogus"]),
    ];
    for (bin, args) in usage_errors {
        let (code, text) = gate(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}:\n{text}");
        assert!(text.contains("usage: [--out PATH] [--resume] "), "{bin} {args:?}:\n{text}");
    }
}

/// `cesimd` derives its degrade mark from `--max-pending`, so the flag
/// that used to set it is a usage error. (`--fsck` on an absent state
/// directory would exit 0 at once if the flag were still taken.)
#[test]
fn cesimd_refuses_the_degrade_pending_flag() {
    let state = temp_dir("cesimd-flags").join("absent");
    let out = Command::new(env!("CARGO_BIN_EXE_cesimd"))
        .args(["--degrade-pending", "4", "--fsck", "--state"])
        .arg(&state)
        .output()
        .expect("cesimd runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("usage: cesimd"), "{stderr}");
    std::fs::remove_dir_all(state.parent().expect("temp dir")).ok();
}
