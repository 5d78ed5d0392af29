//! Sampled-vs-full IPC error check — the CI smoke gate for sampled
//! simulation.
//!
//! ```text
//! cargo run --release -p ce-bench --bin sampling_check -- \
//!     [--bench NAME|all] [--max-err F]
//! ```
//!
//! Runs each requested kernel both ways on the baseline machine — a full
//! detailed run and a sampled run with the default
//! [`SamplingConfig`] geometry — and grades each kernel as one `pass`
//! or `fail` case of a [`campaign`](ce_bench::campaign) report: `fail`
//! when its estimated cycle count is off by more than `--max-err`
//! (default 0.02, the 2% bound the sampling error model in DESIGN.md
//! promises), or when it cannot be traced or sampled at all.
//! `CE_MAX_INSTS` applies as everywhere in `ce-bench`.
//!
//! Exit codes: 0 within bounds, 1 any kernel failed, 2 usage error. A
//! failing kernel prints one line like
//!
//! ```text
//! sampling_check: error[fail]: sampling li: ... err +0.0312 (bound 0.0200)
//! ```

use ce_bench::campaign::{refuse, Case, Report, Verdict};
use ce_sim::{machine, run_sampled, SamplingConfig, SimConfig, Simulator};
use ce_workloads::Benchmark;
use std::process::ExitCode;
use std::time::Instant;

/// Grades one kernel: full versus sampled cycles against `max_err`.
fn grade(bench: Benchmark, cfg: SimConfig, cap: u64, max_err: f64) -> (Verdict, String) {
    let trace = match ce_workloads::trace_cached(bench, cap) {
        Ok(trace) => trace,
        Err(e) => return (Verdict::Fail, format!("tracing failed: {e}")),
    };
    let full_start = Instant::now();
    let full = Simulator::new(cfg).run(&trace);
    let full_wall = full_start.elapsed();
    let sampled_start = Instant::now();
    let sampled = match run_sampled(cfg, &trace, SamplingConfig::default()) {
        Ok(sampled) => sampled,
        Err(e) => return (Verdict::Fail, format!("sampling failed: {e}")),
    };
    let sampled_wall = sampled_start.elapsed();
    let err = sampled.cycle_error_vs(full.cycles);
    let detail = format!(
        "full {:>8} cyc (ipc {:.3}, {:.2}s)  sampled {:>8} cyc (ipc {:.3}, {:.2}s)  \
         [{} windows, {:.0}% detailed]  err {:+.4} (bound {max_err:.4})",
        full.cycles,
        full.ipc(),
        full_wall.as_secs_f64(),
        sampled.est_cycles,
        sampled.est_ipc(),
        sampled_wall.as_secs_f64(),
        sampled.windows,
        sampled.detailed_insts as f64 / sampled.total_insts as f64 * 100.0,
        err,
    );
    (Verdict::check(err.abs() <= max_err), detail)
}

fn main() -> ExitCode {
    let usage = |msg: &str| {
        eprintln!("usage: sampling_check [--bench NAME|all] [--max-err F]");
        refuse("sampling_check", "usage", msg)
    };
    let mut benches: Vec<Benchmark> = vec![Benchmark::Compress];
    let mut max_err = 0.02_f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => {
                let Some(name) = args.next() else {
                    return usage("--bench needs a value");
                };
                if name == "all" {
                    benches = Benchmark::all().to_vec();
                } else {
                    let Some(b) = Benchmark::all().into_iter().find(|b| b.name() == name)
                    else {
                        return usage(&format!("unknown benchmark `{name}`"));
                    };
                    benches = vec![b];
                }
            }
            "--max-err" => {
                let Some(value) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage("--max-err needs a number");
                };
                max_err = value;
            }
            other => return usage(&format!("unexpected argument `{other}`")),
        }
    }

    let cap = ce_bench::max_insts();
    let cfg = machine::baseline_8way();
    let mut report = Report::new("sampling_check");
    for bench in benches {
        let start = Instant::now();
        let (verdict, detail) = grade(bench, cfg, cap, max_err);
        let (class, name) = ("sampling", bench.name().to_owned());
        report.cases.push(Case { class, name, verdict, detail, wall: start.elapsed() });
    }
    println!("{report}");
    report.exit_code()
}
