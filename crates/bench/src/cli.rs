//! One driver for every sweep binary, from parsed flags to exit code.
//!
//! Every sweep binary accepts the same flags:
//!
//! ```text
//! --out PATH        write the result CSV to PATH (default results/<name>.csv)
//! --resume          resume from PATH's checkpoint journal, re-simulating only
//!                   unfinished cells
//! --telemetry PATH  write the JSONL engine-telemetry journal to PATH
//! --trace-out PATH  write a Chrome trace_event timeline (Perfetto) to PATH
//! --progress        force the live progress line on (default: on when
//!                   stderr is a TTY and not resuming)
//! --quiet           suppress the progress line and info messages
//! ```
//!
//! (`ce-explore` adds `--full` and `--grid` through
//! [`SweepArgs::parse_with`]; `make_report` builds one [`SweepArgs`] per
//! figure from its output directory), and runs through [`drive`], which owns
//! every step after parsing: the telemetry handle, the checkpoint journal
//! next to `--out`, the sweep, the `resumed N of M cells` line, and one
//! end-of-sweep policy. A fully-successful sweep writes every artifact
//! atomically, writes one content-addressed [`manifest`](crate::manifest)
//! naming them all as `<stem>.manifest.json` beside the CSV (its
//! verifiers look for the artifacts there), and deletes the journal; a
//! sweep with failures writes **no** artifact and no manifest, keeps the
//! journal for a later `--resume`, reports every failure with its
//! [`RunError`](crate::runner::RunError) category, and exits 1. I/O
//! errors exit 2.

use std::io::IsTerminal as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::api::SweepPlan;
use crate::checkpoint::{write_atomic, CheckpointSpec};
use crate::explore::ExploreReport;
use crate::manifest;
use crate::runner::{cell_weights, run_sweep_ft, SweepOptions, SweepSummary, TimedResult};
use crate::telemetry::{Telemetry, TelemetryConfig};

/// The usage fragment for the shared observability flags.
const OBS_USAGE: &str = "[--telemetry PATH] [--trace-out PATH] [--progress] [--quiet]";

/// The shared observability flags every sweep/explore binary accepts.
#[derive(Debug, Clone, Default)]
pub struct ObsFlags {
    /// `--telemetry PATH`: write the JSONL engine-telemetry journal.
    pub telemetry: Option<PathBuf>,
    /// `--trace-out PATH`: write a Chrome `trace_event` timeline.
    pub trace_out: Option<PathBuf>,
    /// `--progress`: force the live progress line on.
    pub progress: bool,
    /// `--quiet`: no progress line, no info messages (failures still
    /// print — errors are not chatter).
    pub quiet: bool,
}

impl ObsFlags {
    /// Tries to consume `arg` (and its value, if any) as one of the
    /// shared observability flags. Returns `false` when the flag is not
    /// ours — the caller then reports it unrecognized.
    ///
    /// # Errors
    ///
    /// A message naming the incomplete argument.
    fn try_match(
        &mut self,
        arg: &str,
        args: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--telemetry" => {
                self.telemetry =
                    Some(PathBuf::from(args.next().ok_or("--telemetry needs a path argument")?));
            }
            "--trace-out" => {
                self.trace_out =
                    Some(PathBuf::from(args.next().ok_or("--trace-out needs a path argument")?));
            }
            "--progress" => self.progress = true,
            "--quiet" => self.quiet = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Validates flag combinations after parsing.
    fn validate(&self) -> Result<(), String> {
        if self.progress && self.quiet {
            return Err("--progress conflicts with --quiet".into());
        }
        Ok(())
    }

    /// Whether the live progress line should render: forced on by
    /// `--progress`, forced off by `--quiet`, otherwise on exactly when
    /// stderr is a TTY and the run is not a `--resume` replay (resumed
    /// runs are usually scripted recovery; their logs should stay clean).
    pub fn progress_enabled(&self, resume: bool) -> bool {
        if self.quiet {
            return false;
        }
        self.progress || (std::io::stderr().is_terminal() && !resume)
    }
}

/// Parsed sweep-binary arguments.
#[derive(Debug, Clone)]
pub struct SweepArgs {
    /// Result CSV path.
    pub out: PathBuf,
    /// Resume from the checkpoint journal next to `out`.
    pub resume: bool,
    /// Shared observability flags.
    pub obs: ObsFlags,
}

impl SweepArgs {
    /// Parses `std::env::args`, exiting with code 2 and a usage message on
    /// anything unrecognized.
    pub fn parse(default_out: &str) -> SweepArgs {
        SweepArgs::parse_with(default_out, "", |_, _| Ok(false))
    }

    /// [`SweepArgs::parse`] for a binary with flags of its own: `extra`
    /// sees every argument the shared flags do not claim, with the rest
    /// of the arguments for its value, and returns whether it took it;
    /// `usage` names those flags in the usage line.
    pub fn parse_with(
        default_out: &str,
        usage: &str,
        extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> SweepArgs {
        match SweepArgs::try_parse_with(std::env::args().skip(1), default_out, extra) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!(
                    "usage: [--out PATH] [--resume] {usage}{OBS_USAGE}   \
                     (default --out {default_out})"
                );
                std::process::exit(2);
            }
        }
    }

    /// [`SweepArgs::parse_with`] over an explicit argument iterator.
    ///
    /// # Errors
    ///
    /// A message naming the unrecognized or incomplete argument, or
    /// `extra`'s own.
    pub fn try_parse_with(
        mut args: impl Iterator<Item = String>,
        default_out: &str,
        mut extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> Result<SweepArgs, String> {
        let mut out = PathBuf::from(default_out);
        let mut resume = false;
        let mut obs = ObsFlags::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--resume" => resume = true,
                "--out" => {
                    out = PathBuf::from(
                        args.next().ok_or("--out needs a path argument")?,
                    );
                }
                other => {
                    if !obs.try_match(other, &mut args)? && !extra(other, &mut args)? {
                        return Err(format!("unrecognized argument `{other}`"));
                    }
                }
            }
        }
        obs.validate()?;
        Ok(SweepArgs { out, resume, obs })
    }

    /// The checkpoint spec for this invocation (journal lives next to the
    /// CSV as `<stem>.ckpt.jsonl`).
    pub fn checkpoint(&self) -> CheckpointSpec {
        CheckpointSpec::for_output(&self.out, self.resume)
    }
}

/// Parsed arguments of the report-style binaries (the delay figure/table
/// binaries), which take only `--out` — they have no checkpoint journal
/// because the delay models are pure functions with no cells to resume.
#[derive(Debug, Clone)]
pub struct OutArgs {
    /// Result CSV path.
    pub out: PathBuf,
}

impl OutArgs {
    /// Parses `std::env::args`, exiting with code 2 and a usage message on
    /// anything unrecognized.
    pub fn parse(default_out: &str) -> OutArgs {
        match OutArgs::try_parse(std::env::args().skip(1), default_out) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!("usage: [--out PATH]   (default --out {default_out})");
                std::process::exit(2);
            }
        }
    }

    /// [`OutArgs::parse`] over an explicit argument iterator.
    ///
    /// # Errors
    ///
    /// A message naming the unrecognized or incomplete argument.
    pub fn try_parse(
        args: impl Iterator<Item = String>,
        default_out: &str,
    ) -> Result<OutArgs, String> {
        let mut out = PathBuf::from(default_out);
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--out" => {
                    out = PathBuf::from(
                        args.next().ok_or("--out needs a path argument")?,
                    );
                }
                other => return Err(format!("unrecognized argument `{other}`")),
            }
        }
        Ok(OutArgs { out })
    }
}

/// Finishes a report-style binary: on `Ok` writes the CSV atomically
/// (tempfile + rename); on `Err` writes nothing and reports the model
/// failure. Exit codes mirror [`drive`]: 0 clean, 1 the models
/// refused to evaluate, 2 I/O errors.
pub fn finish_report(
    name: &str,
    csv: Result<String, impl std::fmt::Display>,
    out: &Path,
) -> ExitCode {
    match csv {
        Ok(csv) => {
            if let Err(e) = write_atomic(out, &csv) {
                eprintln!("{name}: error[io]: writing {}: {e}", out.display());
                return ExitCode::from(2);
            }
            eprintln!("{name}: wrote {}", out.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{name}: error: {e}; no CSV written");
            ExitCode::from(1)
        }
    }
}

/// What [`drive`] reads from a finished sweep.
pub trait SweepOutput {
    /// The runner's summary of the sweep's cells.
    fn summary(&self) -> &SweepSummary;
}

impl SweepOutput for SweepSummary {
    fn summary(&self) -> &SweepSummary {
        self
    }
}

impl SweepOutput for ExploreReport {
    fn summary(&self) -> &SweepSummary {
        self.summary.as_ref().expect("both explorer grids simulate cells")
    }
}

/// [`drive`] with the runner's [`run_sweep_ft`] as the sweep: the figure
/// binaries and `make_report`.
pub fn drive_plan(
    name: &str,
    args: &SweepArgs,
    plan: &SweepPlan,
    render: impl FnOnce(&SweepSummary) -> Vec<(String, String)>,
) -> ExitCode {
    drive(
        name,
        args,
        plan,
        Vec::new(),
        |max_insts, opts| run_sweep_ft(&plan.jobs, max_insts, &opts),
        render,
    )
}

/// The sweep driver: runs `plan` under the telemetry and checkpoint
/// `args` ask for, applies the end-of-sweep policy of the module docs,
/// and returns the exit code: 0 clean, 1 cell failures, 2 I/O errors.
///
/// `prefill` is [`SweepOptions::prefill`]: cells this process already
/// simulated (`make_report` shares cells between its plans), or empty.
/// They are neither simulated again nor reported as resumed.
/// `sweep` runs the cells, given the instruction cap and the
/// [`SweepOptions`] (the plan's run options, the checkpoint, the
/// telemetry, the prefill): [`run_sweep_ft`], or
/// [`crate::explore::explore`] for `ce-explore`. `render` sees only a
/// sweep without failures; it prints the binary's console table and
/// returns its artifacts as `(file name, content)` pairs. The first
/// lands at `--out`, the others next to it under their own names, and
/// the manifest next to `--out` vouches for every one with the cache key
/// of `(code version, traces, configs, options)`.
pub fn drive<R: SweepOutput>(
    name: &str,
    args: &SweepArgs,
    plan: &SweepPlan,
    prefill: Vec<Option<TimedResult>>,
    sweep: impl FnOnce(u64, SweepOptions) -> std::io::Result<R>,
    render: impl FnOnce(&R) -> Vec<(String, String)>,
) -> ExitCode {
    let max_insts = crate::max_insts();
    let config = TelemetryConfig {
        name: name.to_owned(),
        journal: args.obs.telemetry.clone(),
        chrome_out: args.obs.trace_out.clone(),
        progress: args.obs.progress_enabled(args.resume),
    };
    let weights = cell_weights(&plan.jobs, max_insts);
    let telemetry = match Telemetry::create(&config, weights, max_insts) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{name}: error[io]: telemetry journal: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = SweepOptions {
        run: plan.run,
        checkpoint: Some(args.checkpoint()),
        telemetry,
        prefill,
        ..SweepOptions::default()
    };
    let output = match sweep(max_insts, opts) {
        Ok(output) => output,
        Err(e) => {
            eprintln!("{name}: error[io]: checkpoint journal: {e}");
            return ExitCode::from(2);
        }
    };
    let summary = output.summary();
    if summary.resumed > 0 && !args.obs.quiet {
        eprintln!(
            "{name}: resumed {} of {} cells from {}",
            summary.resumed,
            summary.cells.len(),
            args.checkpoint().path.display()
        );
    }
    if !summary.failures.is_empty() {
        for failure in &summary.failures {
            eprintln!("{name}: error: {failure}");
        }
        eprintln!(
            "{name}: {} of {} cells failed; no CSV written, checkpoint kept for --resume",
            summary.failures.len(),
            summary.cells.len()
        );
        return ExitCode::from(1);
    }
    let mut paths = Vec::new();
    for (file, content) in render(&output) {
        let path = if paths.is_empty() { args.out.clone() } else { args.out.with_file_name(file) };
        if let Err(e) = write_atomic(&path, &content) {
            eprintln!("{name}: error[io]: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        if !args.obs.quiet {
            eprintln!("{name}: wrote {}", path.display());
        }
        paths.push(path);
    }
    let manifest_out = manifest::manifest_path(&args.out);
    let artifacts: Vec<&Path> = paths.iter().map(PathBuf::as_path).collect();
    let manifest = manifest::write_manifest(
        &manifest_out,
        name,
        &plan.jobs,
        max_insts,
        plan.run,
        summary,
        &artifacts,
    );
    if let Err(e) = manifest {
        eprintln!("{name}: error[io]: manifest: {e}");
        return ExitCode::from(2);
    }
    if !args.obs.quiet {
        eprintln!("{name}: wrote {}", manifest_out.display());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SweepArgs, String> {
        SweepArgs::try_parse_with(args.iter().map(|s| s.to_string()), "results/x.csv", |_, _| {
            Ok(false)
        })
    }

    #[test]
    fn defaults_and_flags() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.out, PathBuf::from("results/x.csv"));
        assert!(!a.resume);
        let a = parse(&["--resume", "--out", "/tmp/y.csv"]).unwrap();
        assert!(a.resume);
        assert_eq!(a.out, PathBuf::from("/tmp/y.csv"));
        assert!(a.checkpoint().path.ends_with("y.ckpt.jsonl"));
    }

    #[test]
    fn rejects_unknown_and_incomplete_args() {
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("frobnicate"));
        assert!(parse(&["--out"]).unwrap_err().contains("path"));
    }

    /// A binary's own flags (here `ce-explore`'s) go through the hook;
    /// the shared flags still parse around them, and a flag neither
    /// claims is still refused.
    #[test]
    fn extra_flags_parse_through_the_hook() {
        use crate::explore::GridScale;
        let parse = |args: &[&str]| {
            let (mut grid, mut full) = (GridScale::Full, false);
            let parsed = SweepArgs::try_parse_with(
                args.iter().map(|s| s.to_string()),
                "results/pareto.csv",
                |flag, rest| {
                    match flag {
                        "--full" => full = true,
                        "--grid" => grid = rest.next().ok_or("--grid needs a scale")?.parse()?,
                        _ => return Ok(false),
                    }
                    Ok(true)
                },
            );
            parsed.map(|a| (a, grid, full))
        };
        let (a, grid, full) = parse(&[]).unwrap();
        assert_eq!(a.out, PathBuf::from("results/pareto.csv"));
        assert!(!a.resume && !full);
        assert_eq!(grid, GridScale::Full);

        let (a, grid, full) =
            parse(&["--grid", "tiny", "--full", "--resume", "--out", "/tmp/p.csv", "--quiet"])
                .unwrap();
        assert!(a.resume && full && a.obs.quiet);
        assert_eq!(grid, GridScale::Tiny);
        assert!(a.checkpoint().path.ends_with("p.ckpt.jsonl"));

        assert!(parse(&["--grid", "huge"]).unwrap_err().contains("huge"));
        assert!(parse(&["--grid"]).unwrap_err().contains("scale"));
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("frobnicate"));
        assert!(self::parse(&["--full"]).unwrap_err().contains("full"), "no hook, no --full");
    }

    fn parse_out(args: &[&str]) -> Result<OutArgs, String> {
        OutArgs::try_parse(args.iter().map(|s| s.to_string()), "results/x.csv")
    }

    #[test]
    fn out_args_defaults_and_flags() {
        assert_eq!(parse_out(&[]).unwrap().out, PathBuf::from("results/x.csv"));
        assert_eq!(
            parse_out(&["--out", "/tmp/y.csv"]).unwrap().out,
            PathBuf::from("/tmp/y.csv")
        );
        assert!(parse_out(&["--resume"]).unwrap_err().contains("resume"));
        assert!(parse_out(&["--out"]).unwrap_err().contains("path"));
    }

    #[test]
    fn obs_flags_parse() {
        let a = parse(&[
            "--telemetry", "/tmp/t.jsonl", "--trace-out", "/tmp/t.trace.json", "--quiet",
        ])
        .unwrap();
        assert_eq!(a.obs.telemetry, Some(PathBuf::from("/tmp/t.jsonl")));
        assert_eq!(a.obs.trace_out, Some(PathBuf::from("/tmp/t.trace.json")));
        assert!(a.obs.quiet && !a.obs.progress);
        assert!(parse(&["--progress"]).unwrap().obs.progress);

        assert!(parse(&["--telemetry"]).unwrap_err().contains("path"));
        assert!(parse(&["--progress", "--quiet"]).unwrap_err().contains("conflicts"));
    }

    #[test]
    fn progress_rules() {
        // Test processes have no TTY on stderr, so auto mode is off and
        // only the explicit flags matter.
        let auto = ObsFlags::default();
        assert!(!auto.progress_enabled(false), "no TTY in tests");
        let forced = ObsFlags { progress: true, ..ObsFlags::default() };
        assert!(forced.progress_enabled(false));
        assert!(forced.progress_enabled(true), "explicit --progress wins over --resume");
        let quiet = ObsFlags { quiet: true, ..ObsFlags::default() };
        assert!(!quiet.progress_enabled(false));
    }

    fn quiet_args(out: PathBuf) -> SweepArgs {
        SweepArgs { out, resume: false, obs: ObsFlags { quiet: true, ..ObsFlags::default() } }
    }

    /// A successful sweep writes its first artifact at `--out`, the rest
    /// next to it, and one schema-tagged manifest that hashes them all.
    #[test]
    fn drive_writes_every_artifact_and_one_manifest() {
        use ce_workloads::Benchmark;
        let dir = std::env::temp_dir().join(format!("ce-drive-ok-{}", std::process::id()));
        let plan = SweepPlan {
            jobs: vec![(Benchmark::Compress, ce_sim::machine::baseline_8way())],
            run: crate::runner::RunOptions::default(),
        };
        let code = drive_plan("mini", &quiet_args(dir.join("mini.csv")), &plan, |summary| {
            assert_eq!(summary.cells.len(), 1);
            vec![("ignored.csv".into(), "a,b\n".into()), ("extra.csv".into(), "c\n".into())]
        });
        assert_eq!(code, ExitCode::SUCCESS);
        assert_eq!(std::fs::read_to_string(dir.join("mini.csv")).unwrap(), "a,b\n");
        assert_eq!(std::fs::read_to_string(dir.join("extra.csv")).unwrap(), "c\n");
        assert!(!dir.join("mini.ckpt.jsonl").exists(), "a clean sweep drops its journal");
        let manifest_text = std::fs::read_to_string(dir.join("mini.manifest.json")).unwrap();
        let doc = crate::json::Json::parse(&manifest_text).unwrap();
        use crate::json::Json;
        assert_eq!(
            doc.at("schema").and_then(Json::as_str),
            Some(crate::manifest::MANIFEST_SCHEMA)
        );
        assert_eq!(doc.at("cells").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.at("artifacts.0.bytes").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.at("artifacts.1.bytes").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.at("cache_key").and_then(Json::as_str).map(str::len), Some(16));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sweep with a failed cell renders nothing, writes nothing, keeps
    /// its journal for `--resume`, and exits 1.
    #[test]
    fn drive_withholds_every_artifact_on_cell_failures() {
        use ce_workloads::Benchmark;
        let dir = std::env::temp_dir().join(format!("ce-drive-fail-{}", std::process::id()));
        let bad = ce_sim::SimConfig { issue_width: 0, ..ce_sim::machine::baseline_8way() };
        let plan = SweepPlan {
            jobs: vec![
                (Benchmark::Compress, ce_sim::machine::baseline_8way()),
                (Benchmark::Compress, bad),
            ],
            run: crate::runner::RunOptions::default(),
        };
        let code = drive_plan("mini", &quiet_args(dir.join("mini.csv")), &plan, |_| {
            unreachable!("a failed sweep is never rendered")
        });
        assert_eq!(code, ExitCode::from(1));
        assert!(!dir.join("mini.csv").exists() && !dir.join("mini.manifest.json").exists());
        assert!(dir.join("mini.ckpt.jsonl").exists(), "the journal stays for --resume");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_report_writes_on_ok_and_not_on_err() {
        let dir = std::env::temp_dir().join(format!("ce-finish-report-{}", std::process::id()));
        let out = dir.join("ok.csv");
        let code = finish_report("t", Ok::<_, String>("a,b\n1,2\n".into()), &out);
        assert_eq!(code, ExitCode::SUCCESS);
        assert_eq!(std::fs::read_to_string(&out).unwrap(), "a,b\n1,2\n");

        let out = dir.join("err.csv");
        let code = finish_report("t", Err::<String, _>("model refused"), &out);
        assert_eq!(code, ExitCode::from(1));
        assert!(!out.exists(), "no CSV on model failure");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
