//! `ce-benchmark` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! ce-benchmark --workload <fig17-full|explore-full|service-warm|service-cold>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each invocation runs one workload in its
//! own process: it sets up, runs closed-loop operations back to back until
//! `--seconds` have passed, checks every output against its correctness
//! gates, and prints each metric as `name value unit`, then one JSON
//! summary as the last line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the loop untraced and then traced, each for a third of
//! the window, probes every layer, reports the per-layer metrics, and
//! writes a Chrome trace of the spans to `benchmark/out/`. Any failed gate
//! exits 1. Each workload has its own
//! instruction cap (see [`Workload::cap`]); `CE_MAX_INSTS` sets one cap for
//! them all. Only caps with pinned digests in `benchmark/pins.json` pass
//! the gates.
//!
//! `--setup-only` runs just the workload's set-up and prints its time in
//! seconds; an untraced run starts itself that way to take its extra
//! `setup_s` samples in fresh processes.
//!
//! CPU-bound timings are reported at the reference host's speed, measured
//! alongside by [`host::HostClock`]; see `benchmark/README.md`.

mod gates;
mod host;
mod layers;
mod load;
mod measure;
mod service;
mod span;
mod sweeps;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use measure::Report;
use span::Tracer;

/// Set-up samples per untraced run; `setup_s` is their median. The run's
/// own set-up is the first; the others repeat it in fresh child processes,
/// so every sample starts from empty process-wide caches, as the first does.
const SETUP_SAMPLES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fig17Full,
    ExploreFull,
    ServiceWarm,
    ServiceCold,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Fig17Full,
        Workload::ExploreFull,
        Workload::ServiceWarm,
        Workload::ServiceCold,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Fig17Full => "fig17-full",
            Workload::ExploreFull => "explore-full",
            Workload::ServiceWarm => "service-warm",
            Workload::ServiceCold => "service-cold",
        }
    }

    /// `service-warm` jobs wait out the daemon's 25 ms accept poll and do
    /// little else, so their latency does not follow the host's speed;
    /// every other loop is CPU work.
    fn host_bound(self) -> bool {
        self != Workload::ServiceWarm
    }

    /// The instruction cap of the workload's sweeps, warm presets and layer
    /// probes. Only `fig17-full` runs the kernels to completion, at the
    /// default cap. There, one explorer pass takes 40 to 50 s, longer than
    /// a measurement window, and a warm set-up 6 s, which every run pays
    /// once per `setup_s` sample. The others run at the CI cap, where an
    /// explorer pass takes about 3 s. `service-cold` draws its jobs' caps
    /// from [`load::COLD_CAPS`].
    fn cap(self) -> u64 {
        match self {
            Workload::Fig17Full => ce_bench::DEFAULT_MAX_INSTS,
            _ => CI_CAP,
        }
    }
}

/// The instruction cap the repository's committed figure CSVs and CI use.
const CI_CAP: u64 = 20_000;

/// What every workload needs from the command line and environment.
pub struct Ctx {
    /// The workload's name, as `--workload` takes it.
    pub workload: &'static str,
    pub seed: u64,
    /// How long each measured loop runs: the whole `--seconds` in an
    /// untraced run. A traced run gives a third of it to each of its two
    /// loops, leaving about a third for the layer probes, so that it lasts
    /// about as long as an untraced run.
    pub window: Duration,
    /// The instruction cap of the sweeps, the warm presets and the layer
    /// probes.
    pub cap: u64,
    /// Per-run scratch directory inside the checkout, removed at exit.
    pub scratch: PathBuf,
    /// Whether this is a traced (`--trace 1`) run.
    pub trace: bool,
    /// Whether the measured loop's time is host CPU work, so that its
    /// timings are reported at the reference host's speed. Set-up always
    /// is.
    pub host_bound: bool,
    /// Records the spans of the traced loop and the layer probes;
    /// disabled in a `--trace 0` run.
    pub tracer: Tracer,
}

/// One measured loop: per-operation wall times and results.
pub struct Loop<T> {
    pub ops: Vec<(Duration, T)>,
    /// Each operation's latency, ms, at the reference host's speed, in the
    /// order of `ops`.
    pub at_reference_ms: Vec<f64>,
    pub errors: Vec<String>,
    pub wall: Duration,
    /// The host's speed while the loop ran.
    pub host: host::HostSpeed,
}

impl<T> Loop<T> {
    /// Folds the loop's operation counts and failures into the report.
    pub fn account(&self, report: &mut Report) {
        report.attempted += (self.ops.len() + self.errors.len()) as u64;
        report.failed += self.errors.len() as u64;
        report.gate_failures.extend(self.errors.iter().cloned());
    }

    /// Operation latencies, ms, scaled to the reference host's speed when
    /// the workload is host-bound.
    fn latencies_ms(&self, ctx: &Ctx) -> Vec<f64> {
        if ctx.host_bound {
            self.at_reference_ms.clone()
        } else {
            self.ops.iter().map(|(d, _)| measure::ms(*d)).collect()
        }
    }

    /// The loop's wall time, s, scaled when the workload is host-bound by
    /// the factor that scaled its operations' summed latency.
    fn wall_s(&self, ctx: &Ctx) -> f64 {
        let wall = self.wall.as_secs_f64();
        if !ctx.host_bound {
            return wall;
        }
        let host_ms: f64 = self.ops.iter().map(|(d, _)| measure::ms(*d)).sum();
        wall * self.at_reference_ms.iter().sum::<f64>() / host_ms
    }

    fn median_ms(&self, ctx: &Ctx) -> f64 {
        let latencies = self.latencies_ms(ctx);
        if latencies.is_empty() {
            f64::NAN
        } else {
            measure::median(&latencies)
        }
    }

    /// Reports the end-to-end metrics of an untraced loop. `own_setup_s`
    /// is this run's set-up; the other `setup_s` samples are taken here.
    /// `peak_rss_mb` is the workload's peak resident set, read where the
    /// workload defines it.
    pub fn end_to_end(
        &self,
        ctx: &Ctx,
        report: &mut Report,
        own_setup_s: f64,
        peak_rss_mb: f64,
    ) -> Result<(), String> {
        report.metric("setup_s", setup_s(ctx, own_setup_s)?, "s");
        let latencies = self.latencies_ms(ctx);
        if !latencies.is_empty() {
            report.metric("job_p50_ms", measure::median(&latencies), "ms");
            let per_s = latencies.len() as f64 / self.wall_s(ctx);
            report.metric("jobs_per_s", per_s, "1/s");
        }
        report.metric("peak_rss_mb", peak_rss_mb, "MB");
        Ok(())
    }

    /// Reports how much slower this traced loop's median job was than the
    /// untraced loop's, and the host-clock kernel's time during the
    /// untraced loop.
    pub fn trace_overhead<U>(&self, ctx: &Ctx, untraced: &Loop<U>, report: &mut Report) {
        let overhead = self.median_ms(ctx) / untraced.median_ms(ctx) - 1.0;
        report.metric("bench.trace_overhead", overhead, "ratio");
        report.metric("host.kernel_ms", untraced.host.kernel_ms(), "ms");
    }
}

/// Runs a closed loop: one thread per client state, each sending its next
/// operation as soon as the previous one completes, until `window` has
/// passed. Each client stops only after a whole number of `block`s of
/// operations (at least one), so a run's job mix never depends on where
/// the window happened to end.
pub fn closed_loop<S: Send, T: Send>(
    window: Duration,
    block: usize,
    clients: &mut [S],
    op: impl Fn(&mut S) -> Result<T, String> + Sync,
) -> Loop<T> {
    let start = Instant::now();
    let (per_client, host) = host::clocked(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|state| {
                    let op = &op;
                    scope.spawn(move || {
                        let (mut ops, mut starts, mut errors) =
                            (Vec::new(), Vec::new(), Vec::new());
                        loop {
                            let begun = Instant::now();
                            let (outcome, wall) = measure::timed(|| op(state));
                            match outcome {
                                Ok(value) => {
                                    ops.push((wall, value));
                                    starts.push(begun);
                                }
                                Err(e) => errors.push(e),
                            }
                            let done = ops.len() + errors.len();
                            if done % block == 0 && start.elapsed() >= window {
                                return (ops, starts, errors);
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        })
    });
    let mut merged = Loop {
        ops: Vec::new(),
        at_reference_ms: Vec::new(),
        errors: Vec::new(),
        wall: start.elapsed(),
        host,
    };
    for (ops, starts, errors) in per_client {
        let scaled = ops
            .iter()
            .zip(starts)
            .map(|((wall, _), begun)| merged.host.op_at_reference(begun, *wall));
        merged.at_reference_ms.extend(scaled);
        merged.ops.extend(ops);
        merged.errors.extend(errors);
    }
    merged
}

/// `setup_s`: the median of this run's own set-up (`own`, seconds) and
/// `SETUP_SAMPLES - 1` more, each in a child process started with
/// `--setup-only`. The children run one after another, after the measured
/// loop, so they never share the machine with it.
pub fn setup_s(ctx: &Ctx, own: f64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating ce-benchmark: {e}"))?;
    let seed = ctx.seed.to_string();
    let mut samples = vec![own];
    for _ in 1..SETUP_SAMPLES {
        let out = Command::new(&exe)
            .args(["--workload", ctx.workload, "--seed", &seed, "--setup-only"])
            .output()
            .map_err(|e| format!("starting a set-up process: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        match stdout.lines().last().map(|line| line.parse::<f64>()) {
            Some(Ok(sample)) if out.status.success() => samples.push(sample),
            _ => {
                return Err(format!(
                    "set-up process failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                ))
            }
        }
    }
    Ok(measure::median(&samples))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

const USAGE: &str = "usage: ce-benchmark --workload <fig17-full|explore-full|service-warm|\
                     service-cold> --seed <n> (--seconds <s> --trace <0|1> | --setup-only)";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if setup_only {
        seconds = seconds.or(Some(1));
        trace = trace.or(Some(false));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        setup_only,
    })
}

/// `--setup-only`: one set-up of the workload, its wall time in seconds on
/// stdout.
fn set_up_only(ctx: &Ctx, workload: Workload) -> Result<f64, String> {
    match workload {
        Workload::Fig17Full | Workload::ExploreFull => sweeps::set_up(ctx),
        Workload::ServiceWarm => service::warm_set_up(ctx).and_then(|(d, s)| d.stop().map(|()| s)),
        Workload::ServiceCold => service::cold_set_up(ctx).and_then(|(d, s)| d.stop().map(|()| s)),
    }
}

extern "C" {
    fn sync();
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ce-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Write-back left over from earlier processes (a previous run deleting
    // its scratch directory) would otherwise land in this run's first
    // fsyncs, which the service set-ups time.
    // SAFETY: sync(2) takes no arguments, cannot fail, and touches no
    // memory of this process.
    unsafe { sync() };
    // The machine this benchmark is tuned for has two cores.
    std::env::set_var("CE_THREADS", "2");
    let workload = args.workload.name();
    let ctx = Ctx {
        workload,
        seed: args.seed,
        window: Duration::from_secs(args.seconds) / if args.trace { 3 } else { 1 },
        cap: match std::env::var_os("CE_MAX_INSTS") {
            Some(_) => ce_bench::max_insts(),
            None => args.workload.cap(),
        },
        scratch: PathBuf::from(format!("benchmark/out/run-{}", std::process::id())),
        trace: args.trace,
        host_bound: args.workload.host_bound(),
        tracer: Tracer::new(args.trace),
    };
    let created = std::fs::create_dir_all(&ctx.scratch)
        .map_err(|e| format!("creating {}: {e}", ctx.scratch.display()));
    if args.setup_only {
        let result = created.and_then(|()| set_up_only(&ctx, args.workload));
        let _ = std::fs::remove_dir_all(&ctx.scratch);
        return match result {
            Ok(seconds) => {
                println!("{seconds}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ce-benchmark: error[gate]: {e}");
                ExitCode::from(1)
            }
        };
    }
    let mut report = Report::default();
    let result = created.and_then(|()| match args.workload {
        Workload::Fig17Full => sweeps::fig17(&ctx, &mut report),
        Workload::ExploreFull => sweeps::explore(&ctx, &mut report),
        Workload::ServiceWarm => service::warm(&ctx, &mut report),
        Workload::ServiceCold => service::cold(&ctx, &mut report),
    });
    if let Err(e) = result {
        report.gate_failures.push(e);
    }
    if ctx.trace {
        let path = format!("benchmark/out/{workload}.seed{}.trace.json", args.seed);
        if let Err(e) = std::fs::write(&path, ctx.tracer.chrome_json(workload, args.seed)) {
            report.gate_failures.push(format!("writing {path}: {e}"));
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.scratch);

    for failure in &report.gate_failures {
        eprintln!("ce-benchmark: error[gate]: {failure}");
    }
    let mut metrics = Vec::new();
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    let correct = report.gate_failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// JSON has no NaN or infinity; a metric that could not be measured is
/// written as `null` (and its workload has already failed a gate).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}
