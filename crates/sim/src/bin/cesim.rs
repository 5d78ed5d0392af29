//! `cesim` — command-line driver for the timing simulator.
//!
//! ```text
//! cesim [--machine NAME] [--bench NAME | --asm FILE] [--max-insts N]
//!       [--schedule | --profile]
//!
//!   --machine    window | fifos | clustered-fifos | clustered-windows |
//!                exec-steer | random          (default: window)
//!   --bench      compress|gcc|go|li|m88ksim|perl|vortex  (default: compress)
//!   --asm FILE   assemble and run FILE instead of a bundled benchmark
//!   --trace FILE replay a saved trace file instead of emulating
//!   --max-insts  dynamic instruction cap      (default: 2000000)
//!   --schedule   print the first 32 issue records
//!   --profile    print a per-phase wall-clock cost breakdown
//!   --save-trace FILE  write the dynamic trace to FILE and exit
//!   --metrics FILE     write a ce-sim.metrics.v1 JSON report (enables
//!                      stall attribution and prints the breakdown)
//!   --pipeview FILE    write a Konata-compatible pipeline trace
//!   --check            run with the invariant checker on
//!   --inject KIND@CYCLE  plant a scheduler fault (see `cesim --help`)
//! ```
//!
//! Exit codes: 0 success, 1 input/config error (unreadable trace, bad
//! assembly, invalid machine config), 2 usage error, 3 simulation
//! aborted (checker violation, deadlock, or deadline) — reported as a
//! structured one-line `error[KIND]: ...` on stderr, never a panic.

use ce_sim::{machine, FaultSpec, KonataWriter, SimConfig, Simulator};
use ce_workloads::{Benchmark, Emulator, Trace};
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;

fn machine_by_name(name: &str) -> Option<SimConfig> {
    machine::by_name(name)
}

fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    Benchmark::from_name(name)
}

struct Options {
    config: SimConfig,
    machine_name: String,
    source: Source,
    max_insts: u64,
    schedule: bool,
    profile: bool,
    save_trace: Option<String>,
    metrics: Option<String>,
    pipeview: Option<String>,
    check: bool,
    inject: Option<FaultSpec>,
}

enum Source {
    Bench(Benchmark),
    Asm(String),
    TraceFile(String),
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        config: machine::baseline_8way(),
        machine_name: "window".to_owned(),
        source: Source::Bench(Benchmark::Compress),
        max_insts: 2_000_000,
        schedule: false,
        profile: false,
        save_trace: None,
        metrics: None,
        pipeview: None,
        check: false,
        inject: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().ok_or_else(|| format!("{what} requires a value"))
        };
        match arg.as_str() {
            "--machine" => {
                let name = value("--machine")?;
                opts.config = machine_by_name(&name)
                    .ok_or_else(|| format!("unknown machine `{name}`"))?;
                opts.machine_name = name;
            }
            "--bench" => {
                let name = value("--bench")?;
                let bench = benchmark_by_name(&name)
                    .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
                opts.source = Source::Bench(bench);
            }
            "--asm" => opts.source = Source::Asm(value("--asm")?),
            "--trace" => opts.source = Source::TraceFile(value("--trace")?),
            "--save-trace" => opts.save_trace = Some(value("--save-trace")?),
            "--metrics" => opts.metrics = Some(value("--metrics")?),
            "--pipeview" => opts.pipeview = Some(value("--pipeview")?),
            "--max-insts" => {
                opts.max_insts = value("--max-insts")?
                    .parse()
                    .map_err(|e| format!("bad --max-insts: {e}"))?;
            }
            "--schedule" => opts.schedule = true,
            "--profile" => opts.profile = true,
            "--check" => opts.check = true,
            "--inject" => {
                let spec = value("--inject")?;
                opts.inject = Some(
                    FaultSpec::parse(&spec).map_err(|e| format!("bad --inject: {e}"))?,
                );
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.profile && opts.schedule {
        return Err("--profile and --schedule are mutually exclusive".into());
    }
    Ok(opts)
}

fn load_trace(source: &Source, max_insts: u64) -> Result<Arc<Trace>, String> {
    match source {
        // The process-wide cache is shared with any library code that also
        // needs this kernel (and makes repeat loads free).
        Source::Bench(b) => ce_workloads::trace_cached(*b, max_insts)
            .map_err(|e| format!("running {b}: {e}")),
        Source::Asm(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {path}: {e}"))?;
            let program =
                ce_isa::asm::assemble(&text).map_err(|e| format!("assembling {path}: {e}"))?;
            let mut emu = Emulator::new(&program);
            emu.run(max_insts).map(Arc::new).map_err(|e| format!("emulating {path}: {e}"))
        }
        Source::TraceFile(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {path}: {e}"))?;
            ce_workloads::trace_io::parse_trace(&text).map(Arc::new).map_err(|e| e.to_string())
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!(
                "usage: cesim [--machine window|fifos|clustered-fifos|clustered-windows|\
                 exec-steer|random] [--bench NAME | --asm FILE | --trace FILE] \
                 [--max-insts N] [--schedule | --profile] [--save-trace FILE] \
                 [--metrics FILE] [--pipeview FILE] [--check] [--inject KIND@CYCLE]"
            );
            return ExitCode::from(2);
        }
    };
    let trace = match load_trace(&opts.source, opts.max_insts) {
        Ok(t) => t,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &opts.save_trace {
        let saved = std::fs::File::create(path).and_then(|file| {
            let mut out = BufWriter::new(file);
            ce_workloads::trace_io::write_trace(&trace, &mut out)?;
            out.flush()
        });
        if let Err(e) = saved {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {} instructions to {path}", trace.len());
        return ExitCode::SUCCESS;
    }

    let mut config = opts.config;
    if opts.metrics.is_some() {
        // The metrics report carries the stall breakdown, so the
        // accountant rides along (observation only; timing is unchanged).
        config.attribution = true;
    }
    if opts.check {
        config.check = true;
    }
    config.fault = opts.inject;
    let mut sim = match Simulator::try_new(config) {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &opts.pipeview {
        match std::fs::File::create(path) {
            Ok(file) => sim.attach_probe(Box::new(KonataWriter::new(BufWriter::new(file)))),
            Err(e) => {
                eprintln!("error: creating {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let run = if opts.profile {
        sim.try_run_profiled(&trace)
            .map(|(stats, profile)| (stats, Vec::new(), Some(profile)))
    } else {
        sim.try_run_traced(&trace).map(|(stats, schedule)| (stats, schedule, None))
    };
    let (stats, schedule, profile) = match run {
        Ok(run) => run,
        Err(e) => {
            // One structured line, newlines flattened, so scripts can
            // match `error[...]` without multi-line parsing.
            let text = e.to_string();
            let flat: Vec<&str> = text.lines().map(str::trim).collect();
            eprintln!("error[{}]: {}", e.kind(), flat.join("; "));
            return ExitCode::from(3);
        }
    };
    println!("machine: {}", opts.machine_name);
    println!("instructions: {} ({} cycles)", stats.committed, stats.cycles);
    println!("IPC: {:.3}", stats.ipc());
    println!(
        "branches: {} ({:.1}% predicted)",
        stats.branches,
        stats.branch_accuracy() * 100.0
    );
    println!(
        "loads/stores: {}/{} (D-cache miss rate {:.1}%, {} forwarded loads)",
        stats.loads,
        stats.stores,
        stats.dcache_miss_rate() * 100.0,
        stats.forwarded_loads
    );
    if opts.config.clusters > 1 {
        println!(
            "inter-cluster bypasses: {:.1}% of instructions",
            stats.intercluster_bypass_frequency() * 100.0
        );
    }
    println!(
        "dispatch stalls: {} scheduler, {} in-flight, {} registers",
        stats.scheduler_stalls, stats.inflight_stalls, stats.preg_stalls
    );
    println!("mean scheduler occupancy: {:.1}", stats.mean_occupancy());

    if config.attribution {
        let slots = config.issue_width as u64 * stats.cycles;
        println!();
        println!(
            "stall attribution ({} issue slots = {} wide x {} cycles; {:.1}% used):",
            slots,
            config.issue_width,
            stats.cycles,
            if slots == 0 { 0.0 } else { stats.issued as f64 / slots as f64 * 100.0 }
        );
        for (cause, n) in stats.stall_breakdown.rows() {
            println!(
                "  {:<20} {:>12}  ({:>5.1}% of slots)",
                cause.key(),
                n,
                if slots == 0 { 0.0 } else { n as f64 / slots as f64 * 100.0 }
            );
        }
    }

    if let Some(profile) = &profile {
        let total = profile.total();
        println!();
        println!(
            "phase profile ({:.3}s instrumented, {:.0} ns/cycle):",
            total.as_secs_f64(),
            if stats.cycles == 0 { 0.0 } else { total.as_secs_f64() * 1e9 / stats.cycles as f64 }
        );
        for (name, cost) in profile.rows() {
            println!(
                "  {:<10} {:>9.3} ms  ({:>5.1}%)",
                name,
                cost.as_secs_f64() * 1e3,
                if total.is_zero() { 0.0 } else { cost.as_secs_f64() / total.as_secs_f64() * 100.0 }
            );
        }
    }

    let workload = match &opts.source {
        Source::Bench(b) => b.name().to_owned(),
        Source::Asm(path) | Source::TraceFile(path) => path.clone(),
    };
    if let Some(path) = &opts.metrics {
        let doc = ce_sim::metrics_json(&opts.machine_name, &workload, &config, &stats);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote metrics to {path}");
    }
    if let Some(path) = &opts.pipeview {
        println!("wrote pipeline trace to {path}");
    }

    if opts.schedule {
        println!();
        println!("{:>6} {:>10} {:>8} {:>8} {:>9} {:>8}", "seq", "pc", "dispatch", "issue", "complete", "cluster");
        for rec in schedule.iter().take(32) {
            println!(
                "{:>6} {:>#10x} {:>8} {:>8} {:>9} {:>8}",
                rec.seq, rec.pc, rec.dispatched_at, rec.issued_at, rec.completed_at, rec.cluster
            );
        }
        println!();
        println!("pipeline diagram (first 32 instructions; D=dispatch, .=wait, E/digit=execute):");
        let head: Vec<_> = schedule.iter().take(32).copied().collect();
        print!("{}", ce_sim::viz::render_schedule(&head, opts.config.clusters));
    }
    ExitCode::SUCCESS
}
