//! `ce-explore` — closed-loop design-space exploration (Section 6).
//!
//! Enumerates issue width × scheduler geometry × cluster count × steering
//! across the three technology nodes, scores every point with
//! BIPS = IPC × 1000 / clock_ps (clock from the delay models, IPC from
//! the simulator — sampled by default, exact with `--full`), and writes:
//!
//! * `results/pareto.csv` — every design point with delay/IPC/BIPS
//!   provenance, a structured skip status for refused corners, and a
//!   per-technology Pareto frontier flag;
//! * `results/tab02_explore.csv` — a Table 2-style roll-up extending the
//!   paper's §5.6 organizations with the best-BIPS point the grid found;
//! * `results/pareto.manifest.json` — the content-addressed run manifest
//!   vouching for both CSVs (see `ce_bench::manifest`).
//!
//! It runs through the sweep driver every sweep binary shares
//! (`ce_bench::cli::drive`), with `explore::explore` as its sweep: the
//! IPC sweep checkpoints next to the output CSV (kill it at any point and
//! rerun with `--resume` for byte-identical results), a cell failure
//! writes neither CSV and keeps the journal, and the shared
//! observability flags behave as everywhere else.
//!
//! ```text
//! usage: [--out PATH] [--resume] [--full] [--grid tiny|full]
//!        [--telemetry PATH] [--trace-out PATH] [--progress] [--quiet]
//! ```

use std::process::ExitCode;

use ce_bench::api::SweepPlan;
use ce_bench::cli::{self, SweepArgs};
use ce_bench::explore::{
    self, explore, explore_jobs, pareto_csv, row_census, tab02_explore_csv, ExploreOptions,
    GridScale,
};
use ce_bench::runner::SweepOptions;

fn main() -> ExitCode {
    let (mut scale, mut exact) = (GridScale::Full, false);
    let args = SweepArgs::parse_with(
        explore::DEFAULT_OUT,
        "[--full] [--grid tiny|full] ",
        |flag, rest| {
            match flag {
                "--full" => exact = true,
                "--grid" => {
                    scale = rest
                        .next()
                        .ok_or("--grid needs a scale argument (tiny|full)")?
                        .parse()?;
                }
                _ => return Ok(false),
            }
            Ok(true)
        },
    );
    let plan = SweepPlan { jobs: explore_jobs(scale), run: explore::run_options(exact) };
    let sweep = |max_insts, opts: SweepOptions| {
        let (checkpoint, telemetry) = (opts.checkpoint, opts.telemetry);
        explore(&ExploreOptions { scale, exact, max_insts, checkpoint, telemetry })
    };
    cli::drive("ce-explore", &args, &plan, Vec::new(), sweep, |report| {
        if !args.obs.quiet {
            let (ok, skip_delay, skip_sim) = row_census(report);
            eprintln!(
                "ce-explore: {} design points × 3 technologies: {ok} scored, \
                 {skip_delay} skip-delay, {skip_sim} skip-sim ({} mode)",
                report.points.len(),
                if report.sampled { "sampled" } else { "exact" }
            );
        }
        vec![
            ("pareto.csv".into(), pareto_csv(report)),
            ("tab02_explore.csv".into(), tab02_explore_csv(report)),
        ]
    })
}
