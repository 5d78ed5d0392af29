//! `cesimctl` — client for the `cesimd` experiment daemon.
//!
//! ```text
//! cesimctl [--socket PATH] ping
//! cesimctl [--socket PATH] status
//! cesimctl [--socket PATH] shutdown
//! cesimctl [--socket PATH] submit SWEEP [options]
//! cesimctl [--socket PATH] submit-cells BENCH:MACHINE[,BENCH:MACHINE...]
//!          [--attribution] [--sampled] [options]
//!
//!   SWEEP            fig13 | fig15 | fig17 | occupancy | explore-tiny |
//!                    explore-full
//!   options:
//!     --max-insts N      per-benchmark instruction cap (daemon default)
//!     --deadline-ms N    per-cell wall-clock deadline
//!     --allow-degraded   permit sampled degradation under queue pressure
//!     --tag NAME         display tag for telemetry/logs
//!     --artifacts DIR    write the returned artifact files into DIR
//!     --quiet            suppress per-cell progress lines
//! ```
//!
//! Exit codes follow the suite's discipline: 0 clean, 1 experiment
//! failures (failed cells, `error[overloaded]` backpressure), 2
//! usage/protocol/I-O errors. Daemon-side failures arrive as structured
//! `error[KIND]` events and are reprinted verbatim.

#[cfg(unix)]
mod ctl {
    use ce_bench::api::{CellSpec, JobEvent, JobSpec, SweepKind, SweepRequest};
    use ce_bench::json::Json;
    use ce_bench::service::request_line;
    use ce_workloads::Benchmark;
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::os::unix::net::UnixStream;
    use std::path::{Path, PathBuf};
    use std::process::ExitCode;

    const USAGE: &str = "usage: cesimctl [--socket PATH] \
        (ping | status | shutdown | submit SWEEP [options] | \
        submit-cells BENCH:MACHINE[,...] [--attribution] [--sampled] [options])\n\
        options: [--max-insts N] [--deadline-ms N] [--allow-degraded] \
        [--tag NAME] [--artifacts DIR] [--quiet]";

    struct Options {
        socket: PathBuf,
        command: Command,
        artifacts: Option<PathBuf>,
        quiet: bool,
    }

    enum Command {
        Ping,
        Status,
        Shutdown,
        Submit(JobSpec),
    }

    fn parse_cells(list: &str) -> Result<Vec<CellSpec>, String> {
        list.split(',')
            .map(|cell| {
                let (bench, machine) = cell
                    .split_once(':')
                    .ok_or_else(|| format!("cell `{cell}` is not BENCH:MACHINE"))?;
                Ok(CellSpec {
                    bench: Benchmark::from_name(bench)
                        .ok_or_else(|| format!("unknown benchmark `{bench}`"))?,
                    machine: machine.to_owned(),
                })
            })
            .collect()
    }

    fn parse_args() -> Result<Options, String> {
        let mut socket = PathBuf::from("cesimd-state/cesimd.sock");
        let mut artifacts = None;
        let mut quiet = false;
        let mut command: Option<Command> = None;
        let mut attribution = false;
        let mut sampled = false;
        let mut max_insts = None;
        let mut deadline_ms = None;
        let mut allow_degraded = false;
        let mut tag = None;

        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value = |what: &str| {
                args.next().ok_or_else(|| format!("{what} requires a value"))
            };
            match arg.as_str() {
                "--socket" => socket = PathBuf::from(value("--socket")?),
                "--artifacts" => artifacts = Some(PathBuf::from(value("--artifacts")?)),
                "--quiet" => quiet = true,
                "--attribution" => attribution = true,
                "--sampled" => sampled = true,
                "--allow-degraded" => allow_degraded = true,
                "--max-insts" => {
                    max_insts = Some(
                        value("--max-insts")?
                            .parse()
                            .map_err(|e| format!("bad --max-insts: {e}"))?,
                    );
                }
                "--deadline-ms" => {
                    deadline_ms = Some(
                        value("--deadline-ms")?
                            .parse()
                            .map_err(|e| format!("bad --deadline-ms: {e}"))?,
                    );
                }
                "--tag" => tag = Some(value("--tag")?),
                "--help" | "-h" => return Err(String::new()),
                "ping" if command.is_none() => command = Some(Command::Ping),
                "status" if command.is_none() => command = Some(Command::Status),
                "shutdown" if command.is_none() => command = Some(Command::Shutdown),
                "submit" if command.is_none() => {
                    let name = value("submit")?;
                    let kind = SweepKind::from_name(&name)
                        .ok_or_else(|| format!("unknown sweep `{name}`"))?;
                    command = Some(Command::Submit(JobSpec::preset(kind)));
                }
                "submit-cells" if command.is_none() => {
                    let cells = parse_cells(&value("submit-cells")?)?;
                    command = Some(Command::Submit(JobSpec {
                        request: SweepRequest::Cells { cells, attribution: false, sampled: false },
                        max_insts: None,
                        deadline_ms: None,
                        allow_degraded: false,
                        tag: None,
                    }));
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        let mut command = command.ok_or("no command given")?;
        if let Command::Submit(spec) = &mut command {
            spec.max_insts = max_insts;
            spec.deadline_ms = deadline_ms;
            spec.allow_degraded = allow_degraded;
            spec.tag = tag;
            if let SweepRequest::Cells { attribution: a, sampled: s, .. } = &mut spec.request {
                *a = attribution;
                *s = sampled;
            }
        }
        Ok(Options { socket, command, artifacts, quiet })
    }

    /// One-line ops: send, print the single reply, succeed if any reply
    /// came back.
    fn simple_op(socket: &Path, op: &str) -> ExitCode {
        match request_line(socket, &format!("{{\"op\": \"{op}\"}}")) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cesimctl: error[io]: {}: {e}", socket.display());
                ExitCode::from(2)
            }
        }
    }

    fn submit(opts: &Options, spec: &JobSpec) -> ExitCode {
        let line = format!("{{\"op\": \"submit\", \"spec\": {}}}", spec.to_json());
        let request = || -> std::io::Result<BufReader<UnixStream>> {
            let mut stream = UnixStream::connect(&opts.socket)?;
            stream.write_all(format!("{line}\n").as_bytes())?;
            Ok(BufReader::new(stream))
        };
        let reader = match request() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cesimctl: error[io]: connecting {}: {e}", opts.socket.display());
                return ExitCode::from(2);
            }
        };
        let mut exit = ExitCode::from(2); // no `done`/`error` = protocol failure
        for line in reader.lines() {
            let Ok(line) = line else { break };
            let event = Json::parse(&line)
                .map_err(|e| e.to_string())
                .and_then(|doc| JobEvent::from_json(&doc));
            match event {
                Ok(JobEvent::Accepted { job, cells, degraded }) => {
                    if !opts.quiet {
                        eprintln!(
                            "cesimctl: job {job} accepted ({cells} cells{})",
                            if degraded { ", degraded to sampled mode" } else { "" }
                        );
                    }
                }
                Ok(JobEvent::Cell { cell, source, .. }) => {
                    if !opts.quiet {
                        eprintln!("cesimctl: cell {cell}: {}", source.name());
                    }
                }
                Ok(JobEvent::Error { kind, message }) => {
                    eprintln!("cesimctl: error[{kind}]: {message}");
                    // I/O and protocol problems are exit 2; backpressure
                    // and experiment failures are exit 1.
                    exit = if kind == "overloaded" { ExitCode::from(1) } else { ExitCode::from(2) };
                    if kind != "io" {
                        break; // terminal: the daemon sends nothing further
                    }
                }
                Ok(JobEvent::Done { job, outcome }) => {
                    if !opts.quiet {
                        eprintln!(
                            "cesimctl: job {job} done: {} ok, {} failed \
                             ({} cached, {} simulated)",
                            outcome.ok, outcome.failed, outcome.cache_hits, outcome.cache_misses
                        );
                    }
                    for failure in &outcome.failures {
                        eprintln!("cesimctl: error: {failure}");
                    }
                    let mut io_failed = false;
                    for (name, content) in &outcome.artifacts {
                        match &opts.artifacts {
                            Some(dir) => {
                                let path = dir.join(name);
                                if let Err(e) =
                                    ce_bench::checkpoint::write_atomic(&path, content)
                                {
                                    eprintln!(
                                        "cesimctl: error[io]: writing {}: {e}",
                                        path.display()
                                    );
                                    io_failed = true;
                                } else if !opts.quiet {
                                    eprintln!("cesimctl: wrote {}", path.display());
                                }
                            }
                            None => print!("{content}"),
                        }
                    }
                    exit = if io_failed {
                        ExitCode::from(2)
                    } else if outcome.failed > 0 {
                        ExitCode::from(1)
                    } else {
                        ExitCode::SUCCESS
                    };
                    break;
                }
                Err(e) => {
                    eprintln!("cesimctl: error[io]: bad event line: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        exit
    }

    pub fn main() -> ExitCode {
        let opts = match parse_args() {
            Ok(opts) => opts,
            Err(msg) => {
                if !msg.is_empty() {
                    eprintln!("error: {msg}");
                }
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        };
        match &opts.command {
            Command::Ping => simple_op(&opts.socket, "ping"),
            Command::Status => simple_op(&opts.socket, "status"),
            Command::Shutdown => simple_op(&opts.socket, "shutdown"),
            Command::Submit(spec) => submit(&opts, spec),
        }
    }
}

#[cfg(unix)]
fn main() -> std::process::ExitCode {
    ctl::main()
}

#[cfg(not(unix))]
fn main() -> std::process::ExitCode {
    eprintln!("cesimctl: error[io]: Unix domain sockets are unavailable on this platform");
    std::process::ExitCode::from(2)
}
