//! Writes every experiment's data as CSV under `results/`, ready for
//! plotting — one file per paper artifact plus a `summary.csv` with the
//! headline numbers.
//!
//! ```text
//! cargo run --release -p ce-bench --bin make_report [output-dir]
//! ```
//!
//! The simulator CSVs come from the Figure 13, 15 and 17 plans, run
//! through the same sweep driver and `api` renderers as the figure
//! binaries, each with its manifest next to its CSV; `summary.csv` rides
//! with the Figure 15 sweep it takes its mean speedup from. A cell two
//! plans share (same benchmark, machine and run options, so the same
//! cell key) is simulated once: later plans take it from the earlier
//! one's results. Exit codes: 0 clean, 1 a model refused or a cell
//! failed, 2 a usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use ce_bench::api::{self, SweepKind};
use ce_bench::cli::{self, ObsFlags, SweepArgs};
use ce_bench::delay_csv;
use ce_bench::runner::{run_sweep_ft, Job, RunOptions, SweepOptions, SweepSummary, TimedResult};
use ce_core::analysis::mean_improvement;
use ce_delay::pipeline::ClockComparison;
use ce_delay::{FeatureSize, Technology};

/// The simulator presets, each with the name of the CSV it writes first.
const SWEEPS: [(SweepKind, &str); 3] = [
    (SweepKind::Fig13, "fig13_ipc.csv"),
    (SweepKind::Fig15, "fig15_clustered.csv"),
    (SweepKind::Fig17, "fig17_organizations.csv"),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = match args.as_slice() {
        [] => PathBuf::from("results"),
        [dir] if !dir.starts_with('-') => PathBuf::from(dir),
        _ => {
            eprintln!("usage: make_report [OUTPUT-DIR]   (default results)");
            return ExitCode::from(2);
        }
    };

    // The same canonical builders the standalone figure/table binaries
    // use, so both regeneration paths stay byte-identical.
    for (name, csv) in [
        ("fig03_rename.csv", delay_csv::fig03_rename()),
        ("fig05_wakeup.csv", delay_csv::fig05_wakeup()),
        ("fig06_wakeup_scaling.csv", delay_csv::fig06_wakeup_scaling()),
        ("fig08_select.csv", delay_csv::fig08_select()),
        ("tab01_bypass.csv", delay_csv::tab01_bypass()),
        ("tab02_overall.csv", delay_csv::tab02_overall()),
        ("tab04_restable.csv", delay_csv::tab04_restable()),
    ] {
        let code = cli::finish_report("make_report", csv, &dir.join(name));
        if code != ExitCode::SUCCESS {
            return code;
        }
    }

    // Every cell simulated so far, with the run options it ran under.
    let mut done: Vec<(Job, RunOptions, TimedResult)> = Vec::new();
    for (kind, csv) in SWEEPS {
        let args = SweepArgs { out: dir.join(csv), resume: false, obs: ObsFlags::default() };
        let plan = api::plan(kind);
        let prefill: Vec<Option<TimedResult>> = plan
            .jobs
            .iter()
            .map(|job| {
                done.iter().find(|(j, run, _)| j == job && *run == plan.run).map(|d| d.2.clone())
            })
            .collect();
        let shared = prefill.iter().flatten().count();
        if shared > 0 {
            eprintln!(
                "make_report: {shared} of {} cells for {csv} shared with an earlier plan",
                plan.jobs.len()
            );
        }
        let sweep = |max_insts, opts: SweepOptions| run_sweep_ft(&plan.jobs, max_insts, &opts);
        let code = cli::drive("make_report", &args, &plan, prefill, sweep, |summary| {
            done.extend(plan.jobs.iter().zip(&summary.cells).filter_map(|(job, cell)| {
                cell.clone().map(|r| (*job, plan.run, r))
            }));
            let mut artifacts = api::preset_artifacts(kind, summary);
            if kind == SweepKind::Fig15 {
                artifacts.push(("summary.csv".into(), summary_csv(summary)));
            }
            artifacts
        });
        if code != ExitCode::SUCCESS {
            return code;
        }
    }
    ExitCode::SUCCESS
}

/// `summary.csv`: the 0.18 µm clock comparison and the mean clock-adjusted
/// speedup of the Figure 15 sweep, each next to the paper's value.
fn summary_csv(fig15: &SweepSummary) -> String {
    let cmp = ClockComparison::compute(&Technology::new(FeatureSize::U018), 8, 64, 2);
    format!(
        "metric,value,paper\n\
         clock_ratio_018um,{:.3},1.25\n\
         optimistic_clock_improvement,{:.3},0.39\n\
         mean_speedup_improvement,{:.3},0.16\n",
        cmp.conservative_speedup(),
        cmp.optimistic_improvement(),
        mean_improvement(&api::fig15_speedups(fig15))
    )
}
