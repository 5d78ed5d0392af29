//! Sampled-vs-full IPC error check — the CI smoke gate for sampled
//! simulation.
//!
//! ```text
//! cargo run --release -p ce-bench --bin sampling_check -- \
//!     [--bench NAME|all] [--max-err F]
//! ```
//!
//! Runs each requested kernel both ways on every Figure 17 organization,
//! as the runner's own cells ([`ce_bench::verify::sampling_cases`]): one
//! exact sweep and one sampled sweep with the default
//! [`SamplingConfig`](ce_sim::SamplingConfig) geometry, the path the
//! explorer's results take. Each (organization, kernel) cell is one
//! `pass` or `fail` case of a [`campaign`](ce_bench::campaign) report,
//! tallied per kernel: `fail` when its estimated cycle count is off by
//! more than `--max-err` (default 0.02, the 2% bound the sampling error
//! model in DESIGN.md promises), or when either of its runs failed, with
//! the runner's error. `CE_MAX_INSTS` applies as everywhere in `ce-bench`.
//!
//! Exit codes: 0 within bounds, 1 any cell failed, 2 usage error. A
//! failing cell prints one line like
//!
//! ```text
//! sampling_check: error[fail]: li 1-cluster.1window: ... err +0.0312 (bound 0.0200)
//! ```

use ce_bench::campaign::{refuse, Report};
use ce_bench::runner::Job;
use ce_bench::verify::sampling_cases;
use ce_sim::machine;
use ce_workloads::Benchmark;
use std::process::ExitCode;

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

    let cells: Vec<(String, Job)> = benches
        .iter()
        .flat_map(|&b| machine::figure17_machines().map(|(m, cfg)| (m.to_owned(), (b, cfg))))
        .collect();
    let mut report = Report::new("sampling_check");
    report.cases = sampling_cases(&cells, ce_bench::max_insts(), max_err);
    println!("{report}");
    report.exit_code()
}
