//! Writes every experiment's data as CSV under `results/`, ready for
//! plotting — one file per paper artifact plus a `summary.csv` with the
//! headline numbers.
//!
//! ```text
//! cargo run --release -p ce-bench --bin make_report [output-dir]
//! ```

use ce_bench::checkpoint::write_atomic;
use ce_bench::{delay_csv, runner};
use ce_core::analysis::{mean_improvement, MachineSpec, Speedup};
use ce_delay::pipeline::ClockComparison;
use ce_delay::{FeatureSize, Technology};
use ce_sim::machine;
use ce_workloads::Benchmark;
use std::fmt::Write as _;
use std::path::Path;

fn write_csv(dir: &Path, name: &str, content: &str) {
    let path = dir.join(name);
    write_atomic(&path, content)
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn main() {
    let dir_arg = std::env::args().nth(1).unwrap_or_else(|| "results".to_owned());
    let dir = Path::new(&dir_arg);
    std::fs::create_dir_all(dir).expect("create output directory");

    // ---- delay-model artifacts ------------------------------------------
    // The same canonical builders the standalone figure/table binaries use,
    // so both regeneration paths stay byte-identical.
    for (name, csv) in [
        ("fig03_rename.csv", delay_csv::fig03_rename()),
        ("fig05_wakeup.csv", delay_csv::fig05_wakeup()),
        ("fig06_wakeup_scaling.csv", delay_csv::fig06_wakeup_scaling()),
        ("fig08_select.csv", delay_csv::fig08_select()),
        ("tab01_bypass.csv", delay_csv::tab01_bypass()),
        ("tab02_overall.csv", delay_csv::tab02_overall()),
        ("tab04_restable.csv", delay_csv::tab04_restable()),
    ] {
        let csv = csv.unwrap_or_else(|e| panic!("building {name}: {e}"));
        write_csv(dir, name, &csv);
    }
    let t018 = Technology::new(FeatureSize::U018);

    // ---- simulator artifacts --------------------------------------------
    println!("running simulations (this loads and runs all seven kernels)…");
    let fig17_machines = machine::figure17_machines();
    let mut jobs: Vec<runner::Job> = Vec::new();
    for bench in Benchmark::all() {
        jobs.push((bench, machine::baseline_8way()));
        jobs.push((bench, machine::dependence_8way()));
        jobs.push((bench, machine::clustered_fifos_8way()));
        for (_, cfg) in &fig17_machines {
            jobs.push((bench, *cfg));
        }
    }
    let sweep = runner::run_sweep(&jobs, ce_bench::max_insts(), runner::RunOptions::default());
    let mut results = sweep.ok_cells().map(|cell| cell.stats.clone());

    let mut fig13 = String::from("benchmark,window_ipc,dependence_ipc\n");
    let mut fig15 = String::from("benchmark,window_ipc,clustered_ipc,ic_bypass_pct,speedup\n");
    let mut fig17 = String::from("benchmark,machine,ipc,ic_bypass_pct\n");
    let mut speedups = Vec::new();
    for bench in Benchmark::all() {
        let win = results.next().expect("window cell");
        let dep = results.next().expect("fifos cell");
        let _ = writeln!(fig13, "{},{:.3},{:.3}", bench.name(), win.ipc(), dep.ipc());

        let clustered = results.next().expect("clustered cell");
        let s = Speedup::combine(
            &t018,
            MachineSpec::paper_dependence_machine(),
            win.ipc(),
            clustered.ipc(),
        );
        let _ = writeln!(
            fig15,
            "{},{:.3},{:.3},{:.1},{:.3}",
            bench.name(),
            win.ipc(),
            clustered.ipc(),
            clustered.intercluster_bypass_frequency() * 100.0,
            s.speedup
        );
        speedups.push(s);

        for (name, _) in &fig17_machines {
            let stats = results.next().expect("fig17 cell");
            let _ = writeln!(
                fig17,
                "{},{},{:.3},{:.1}",
                bench.name(),
                name,
                stats.ipc(),
                stats.intercluster_bypass_frequency() * 100.0
            );
        }
    }
    write_csv(dir, "fig13_ipc.csv", &fig13);
    write_csv(dir, "fig15_clustered.csv", &fig15);
    write_csv(dir, "fig17_organizations.csv", &fig17);

    // ---- summary ----------------------------------------------------------
    let cmp = ClockComparison::compute(&t018, 8, 64, 2);
    let mut summary = String::from("metric,value,paper\n");
    let _ = writeln!(summary, "clock_ratio_018um,{:.3},1.25", cmp.conservative_speedup());
    let _ = writeln!(
        summary,
        "optimistic_clock_improvement,{:.3},0.39",
        cmp.optimistic_improvement()
    );
    let _ = writeln!(
        summary,
        "mean_speedup_improvement,{:.3},0.16",
        mean_improvement(&speedups)
    );
    write_csv(dir, "summary.csv", &summary);
}
