//! `cechaos` — the seeded chaos campaign for the simulator stack and
//! the experiment service.
//!
//! ```text
//! cechaos [--seed N] [--clients N] [--rounds N] [--state DIR]
//!         [--grid-only] [--keep]
//!
//!   --seed N     campaign seed (default 0xCE5EED); same seed → same
//!                simulator faults, same fuzz corpus, same kill schedule
//!   --clients N  concurrent protocol clients per storm round (3)
//!   --rounds N   storm rounds (2)
//!   --state DIR  campaign scratch directory (default: a temp dir,
//!                removed on success)
//!   --grid-only  run only the two deterministic phases, skip the
//!                daemon storm (no cesimd binary needed)
//!   --keep       keep the state directory even on success
//! ```
//!
//! Three phases, graded into one `ce_bench::campaign` report:
//!
//! 1. **Simulator faults** — `ce_bench::fault`'s seeded campaign: trace
//!    corruptions, config perturbations and scheduler injections, none
//!    of which may be `silent`.
//!
//! 2. **I/O fault grid** — every injectable fault class at every I/O
//!    operation index of the durability workload: ENOSPC, EIO, torn
//!    writes, failed fsyncs in-process, and crash points via worker
//!    subprocesses (`CE_IOFAULT=crash@K` aborts the worker at exactly
//!    op K). Every case must be `detected` or `unchanged`, with
//!    recovery converging to byte-identical files (`ce_bench::chaos`).
//!    ≥ 100 cases by construction, checked as a case of its own.
//!
//! 3. **Daemon storm** — `--rounds` rounds of: spawn `cesimd` (some
//!    rounds with an injected I/O fault plan, some with a crash point),
//!    hammer it with `--clients` concurrent clients running overlapping
//!    sweeps, seeded protocol fuzz, and mid-stream disconnects, then
//!    kill it (`SIGKILL`/`SIGTERM`/its own injected crash). Afterwards:
//!    `cesimd --fsck` must exit 0, a clean daemon must drain every
//!    WAL-recovered job, resubmitting every spec twice must return
//!    byte-identical artifacts with the second pass fully cache-served,
//!    and the per-job telemetry journals must prove **no cell was ever
//!    simulated twice** across daemon generations. Each of these gates
//!    is a `storm` case.
//!
//! Exit codes: 0 no violation, 1 any violation (each printed as an
//! `error[<verdict>]` line), 2 usage or campaign-infrastructure errors.

#[cfg(unix)]
fn main() -> std::process::ExitCode {
    unix::main()
}

#[cfg(not(unix))]
fn main() -> std::process::ExitCode {
    ce_bench::campaign::refuse("cechaos", "io", "the chaos campaign needs Unix domain sockets")
}

#[cfg(unix)]
mod unix {
    use std::collections::BTreeSet;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::path::{Path, PathBuf};
    use std::process::{Child, Command, ExitCode, Stdio};
    use std::time::{Duration, Instant};

    use ce_bench::api::JobEvent;
    use ce_bench::campaign::{refuse, Case, Report, Verdict};
    use ce_bench::chaos::{
        classify_crash_case, durability_workload, fault_grid, fuzz_corpus, grid_context,
    };
    use ce_bench::fault;
    use ce_bench::iofault::{self, FaultClass};
    use ce_bench::json::Json;
    use ce_bench::service::{request_line, wait_idle, MAX_REQUEST_LINE};
    use ce_bench::telemetry::HealthReport;
    use rand::{Rng, SeedableRng, StdRng};

    struct Options {
        seed: u64,
        clients: usize,
        rounds: usize,
        state: Option<PathBuf>,
        grid_only: bool,
        keep: bool,
    }

    pub fn main() -> ExitCode {
        let mut opts = Options {
            seed: 0xCE5EED,
            clients: 3,
            rounds: 2,
            state: None,
            grid_only: false,
            keep: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value = |what: &str| {
                args.next().ok_or_else(|| format!("{what} requires a value"))
            };
            let result: Result<(), String> = (|| {
                match arg.as_str() {
                    // Hidden: the crash-grid subprocess. Arms CE_IOFAULT
                    // and runs the durability workload; a crash@K plan
                    // aborts it at exactly op K.
                    "--worker" => {
                        let dir = PathBuf::from(value("--worker")?);
                        return Err(worker(&dir));
                    }
                    "--seed" => {
                        opts.seed = parse_num(&value("--seed")?, "--seed")?;
                    }
                    "--clients" => {
                        opts.clients =
                            parse_num(&value("--clients")?, "--clients")?.max(1) as usize;
                    }
                    "--rounds" => {
                        opts.rounds = parse_num(&value("--rounds")?, "--rounds")? as usize;
                    }
                    "--state" => opts.state = Some(PathBuf::from(value("--state")?)),
                    "--grid-only" => opts.grid_only = true,
                    "--keep" => opts.keep = true,
                    "--help" | "-h" => return Err(String::new()),
                    other => return Err(format!("unknown argument `{other}`")),
                }
                Ok(())
            })();
            if let Err(msg) = result {
                if msg == "worker-ok" {
                    return ExitCode::SUCCESS;
                }
                eprintln!(
                    "usage: cechaos [--seed N] [--clients N] [--rounds N] [--state DIR] \
                     [--grid-only] [--keep]"
                );
                if msg.is_empty() {
                    return ExitCode::from(2);
                }
                return refuse("cechaos", "usage", msg);
            }
        }
        let state = opts.state.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("cechaos-{}", std::process::id()))
        });
        let mut report = Report::new("cechaos");
        let result = campaign(&opts, &state, &mut report.cases);
        println!("{report}");
        if let Err(e) = result {
            return refuse("cechaos", "io", e);
        }
        let passed = report.violations().next().is_none();
        if passed && !opts.keep && opts.state.is_none() {
            let _ = std::fs::remove_dir_all(&state);
        }
        println!("cechaos: campaign {}", if passed { "PASSED" } else { "FAILED" });
        report.exit_code()
    }

    fn parse_num(text: &str, what: &str) -> Result<u64, String> {
        let text = text.trim();
        let parsed = match text.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => text.parse(),
        };
        parsed.map_err(|e| format!("bad {what}: {e}"))
    }

    /// The `--worker` subprocess body; returns a sentinel error string
    /// so the argument loop can short-circuit cleanly.
    fn worker(dir: &Path) -> String {
        if let Err(e) = iofault::arm_global_from_env() {
            return format!("worker: {e}");
        }
        match durability_workload(dir) {
            Ok(()) => "worker-ok".into(),
            // A surfaced injected error is a *successful* worker run —
            // the campaign classifies the on-disk state, not our exit.
            Err(_) => "worker-ok".into(),
        }
    }

    /// Runs the phases in order, grading into `cases`; an `Err` is an
    /// infrastructure failure, not a verdict.
    fn campaign(opts: &Options, state: &Path, cases: &mut Vec<Case>) -> Result<(), String> {
        std::fs::create_dir_all(state).map_err(|e| format!("state dir: {e}"))?;
        println!(
            "cechaos: seed {:#x}, state {}, {} client(s) × {} round(s)",
            opts.seed,
            state.display(),
            opts.clients,
            opts.rounds
        );
        cases.extend(fault::run_campaign(opts.seed));
        grid_phase(&state.join("grid"), cases).map_err(|e| format!("grid: {e}"))?;
        if !opts.grid_only {
            storm_phase(opts, &state.join("service"), cases)?;
        }
        Ok(())
    }

    /// Phase 2: the exhaustive I/O fault grid — in-process classes via
    /// thread-local plans, crash points via worker subprocesses — then
    /// its case floor.
    fn grid_phase(root: &Path, cases: &mut Vec<Case>) -> std::io::Result<()> {
        let ctx = grid_context(root)?;
        let first = cases.len();
        cases.extend(fault_grid(root, &ctx)?);
        let me = std::env::current_exe()?;
        for index in 0..ctx.horizon {
            let start = Instant::now();
            let dir = root.join(format!("crash-{index}"));
            let _ = std::fs::remove_dir_all(&dir);
            let status = Command::new(&me)
                .arg("--worker")
                .arg(&dir)
                .env("CE_IOFAULT", format!("crash@{index}"))
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()?;
            // abort() dies by signal; a normal exit means the plan never
            // fired (index at/beyond the horizon).
            let crashed = status.code().is_none();
            let case = classify_crash_case(&dir, index, crashed, &ctx)?;
            cases.push(Case { wall: start.elapsed(), ..case });
        }
        let grid = cases.len() - first;
        cases.push(Case {
            class: "grid",
            name: "case floor".into(),
            verdict: Verdict::check(grid >= 100),
            detail: format!("{grid} I/O fault cases over {} ops (≥ 100 required)", ctx.horizon),
            wall: Duration::ZERO,
        });
        Ok(())
    }

    // ---- Phase 3: the daemon storm ----------------------------------

    /// The overlapping job mix. Small sweeps (instruction cap set by the
    /// campaign) so every round sees submissions, kills, and completions.
    fn spec_pool() -> Vec<(&'static str, String)> {
        vec![
            ("fig13", "{\"op\": \"submit\", \"spec\": {\"sweep\": \"fig13\"}}".into()),
            (
                "cells-a",
                "{\"op\": \"submit\", \"spec\": {\"cells\": [\
                 {\"bench\": \"compress\", \"machine\": \"window\"}, \
                 {\"bench\": \"li\", \"machine\": \"fifos\"}], \
                 \"attribution\": true}}"
                    .into(),
            ),
            (
                "cells-b",
                "{\"op\": \"submit\", \"spec\": {\"cells\": [\
                 {\"bench\": \"go\", \"machine\": \"clustered-fifos\"}], \
                 \"tag\": \"storm\"}}"
                    .into(),
            ),
        ]
    }

    fn cesimd() -> Result<PathBuf, String> {
        let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = me.parent().ok_or("cechaos has no parent directory")?;
        let path = dir.join("cesimd");
        if path.exists() {
            Ok(path)
        } else {
            Err(format!("cesimd not found next to cechaos ({})", path.display()))
        }
    }

    fn insts() -> String {
        std::env::var("CE_MAX_INSTS").unwrap_or_else(|_| "20000".into())
    }

    fn spawn_daemon(
        bin: &Path,
        state: &Path,
        socket: &Path,
        iofault: Option<&str>,
    ) -> std::io::Result<Child> {
        let mut cmd = Command::new(bin);
        cmd.env("CE_MAX_INSTS", insts())
            .env("CE_THREADS", "2")
            .env_remove("CE_IOFAULT")
            .arg("--state")
            .arg(state)
            .arg("--socket")
            .arg(socket)
            .arg("--quiet")
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(plan) = iofault {
            cmd.env("CE_IOFAULT", plan);
        }
        cmd.spawn()
    }

    fn wait_ready(socket: &Path, child: &mut Child) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if request_line(socket, "{\"op\": \"ping\"}").is_ok_and(|r| r.contains("pong")) {
                return Ok(());
            }
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("cesimd exited during startup: {status}"));
            }
            if Instant::now() > deadline {
                return Err("cesimd never became ready".into());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// How one storm client's fuzz lines were answered. `proto_breaks`
    /// counts the violations: a fuzz line that was NOT rejected with a
    /// structured error event while the daemon was still alive.
    /// (Malformed lines draw `error[proto]`; a well-formed submit with
    /// a nonsense spec draws `error[config-invalid]` — both count as
    /// the daemon holding the line.) Disconnects are storm weather.
    #[derive(Debug, Default)]
    struct ClientTally {
        proto_errors: usize,
        proto_breaks: usize,
    }

    /// One storm client: seeded behavior — protocol fuzz, then a
    /// submission it either streams to completion or abandons
    /// mid-stream. All I/O failures are expected storm weather (the
    /// daemon is being killed under us).
    fn storm_client(socket: &Path, seed: u64) -> ClientTally {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tally = ClientTally::default();
        let pool = spec_pool();

        let Ok(stream) = UnixStream::connect(socket) else {
            return tally;
        };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(120)));
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return tally,
        };
        let mut reader = BufReader::new(stream);

        // Seeded fuzz prelude on the same connection the real submit
        // will use: proves error[proto] does not poison the stream.
        for line in fuzz_corpus(seed, rng.gen_range(1usize..4), MAX_REQUEST_LINE) {
            if writer.write_all(line.as_bytes()).is_err()
                || writer.write_all(b"\n").is_err()
            {
                return tally;
            }
            let mut response = String::new();
            match reader.read_line(&mut response) {
                Ok(0) | Err(_) => return tally,
                Ok(_) => {
                    let rejected = Json::parse(response.trim()).is_ok_and(|doc| {
                        doc.at("ev").and_then(Json::as_str) == Some("error")
                    });
                    if rejected {
                        tally.proto_errors += 1;
                    } else {
                        tally.proto_breaks += 1;
                    }
                }
            }
        }

        let (_, submit) = &pool[rng.gen_range(0usize..pool.len())];
        let abandon = rng.gen_range(0u32..3) == 0;
        if writer.write_all(submit.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
            return tally;
        }
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return tally,
                Ok(_) => {}
            }
            let Ok(doc) = Json::parse(line.trim()) else { continue };
            match doc.at("ev").and_then(Json::as_str) {
                // Mid-stream disconnect: drop the connection while the
                // job runs. The WAL owns the job now.
                Some("accepted") if abandon => return tally,
                Some("done" | "error") => return tally,
                _ => {}
            }
        }
    }

    /// A completed job's `(name, content)` artifacts plus its
    /// (cache_hits, cache_misses) split.
    type DoneOutcome = (Vec<(String, String)>, usize, usize);

    /// Submits `line` and streams to `done`, returning the artifacts
    /// and cache split, or why the daemon did not get there.
    fn submit_to_done(socket: &Path, line: &str) -> Result<DoneOutcome, String> {
        let io = |e: std::io::Error| e.to_string();
        let stream = UnixStream::connect(socket).map_err(io)?;
        stream.set_read_timeout(Some(Duration::from_secs(600))).map_err(io)?;
        let mut writer = stream.try_clone().map_err(io)?;
        let mut reader = BufReader::new(stream);
        writer.write_all(line.as_bytes()).map_err(io)?;
        writer.write_all(b"\n").map_err(io)?;
        let mut buf = String::new();
        loop {
            buf.clear();
            if reader.read_line(&mut buf).map_err(io)? == 0 {
                return Err("the stream ended before `done`".into());
            }
            let doc = Json::parse(buf.trim()).map_err(|e| e.to_string())?;
            match JobEvent::from_json(&doc)? {
                JobEvent::Done { outcome, .. } => {
                    return Ok((outcome.artifacts, outcome.cache_hits, outcome.cache_misses))
                }
                JobEvent::Error { kind, message } => return Err(format!("{kind}: {message}")),
                _ => {}
            }
        }
    }

    /// Kills the daemon per the round's seeded schedule and reaps it.
    fn kill_daemon(child: &mut Child, socket: &Path, method: u32) {
        match method {
            // SIGKILL: the hard crash the WAL and journals exist for.
            0 => {
                let _ = child.kill();
            }
            // SIGTERM: drain-and-exit; jobs finish, queue empties.
            1 => {
                let _ = Command::new("kill")
                    .arg("-TERM")
                    .arg(child.id().to_string())
                    .status();
            }
            // The daemon's own injected crash plan will (probably) kill
            // it; give it time, then make sure.
            _ => {
                let deadline = Instant::now() + Duration::from_secs(60);
                while Instant::now() < deadline {
                    match child.try_wait() {
                        Ok(Some(_)) | Err(_) => break,
                        Ok(None) => std::thread::sleep(Duration::from_millis(50)),
                    }
                }
                let _ = child.kill();
            }
        }
        let _ = request_line(socket, "{\"op\": \"ping\"}"); // nudge the accept loop
        let _ = child.wait();
    }

    /// Every `job J cell C` that more than one execution of job J
    /// settled by simulation, as each execution's telemetry journal
    /// proves with its checkpoint-write events.
    ///
    /// # Errors
    ///
    /// A journal that cannot be read or parsed: it proves nothing, so the
    /// duplicate-simulation gate must not pass on it.
    fn duplicate_simulations(state: &Path) -> Result<Vec<String>, String> {
        let (mut settled, mut duplicates) = (BTreeSet::new(), Vec::new());
        let Ok(entries) = std::fs::read_dir(state.join("telemetry")) else {
            return Ok(duplicates);
        };
        let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for path in paths {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            // job-<id>.exec-<k>.jsonl
            let Some(id) = name
                .strip_prefix("job-")
                .and_then(|r| r.split('.').next())
                .and_then(|id| id.parse::<u64>().ok())
            else {
                continue;
            };
            let health = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| HealthReport::from_journal(&text))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            for cell in health.checkpointed {
                if !settled.insert((id, cell)) {
                    duplicates.push(format!("job {id} cell {cell}"));
                }
            }
        }
        Ok(duplicates)
    }

    /// A storm gate as a `pass`/`fail` case timed from `start`.
    fn storm_case(name: impl Into<String>, held: bool, detail: String, start: Instant) -> Case {
        let (name, wall) = (name.into(), start.elapsed());
        Case { class: "storm", name, verdict: Verdict::check(held), detail, wall }
    }

    fn fsck_gate(bin: &Path, state: &Path, when: &str) -> Case {
        let start = Instant::now();
        let out = Command::new(bin)
            .arg("--fsck")
            .arg("--state")
            .arg(state)
            .output();
        let (held, detail) = match out {
            Ok(out) => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                if out.status.success() {
                    (true, format!("clean ({})", stdout.lines().last().unwrap_or("")))
                } else {
                    let report = stdout.lines().collect::<Vec<_>>().join(" | ");
                    (false, format!("found corruption: {report}"))
                }
            }
            Err(e) => (false, format!("did not run: {e}")),
        };
        storm_case(format!("fsck {when}"), held, detail, start)
    }

    fn storm_phase(opts: &Options, state: &Path, cases: &mut Vec<Case>) -> Result<(), String> {
        let bin = cesimd()?;
        let socket = state.join("d.sock");

        for round in 0..opts.rounds {
            let start = Instant::now();
            let mut rng = StdRng::seed_from_u64(opts.seed ^ ((round as u64 + 1) << 32));
            // Some rounds storm a faulted daemon: a mid-stream I/O error
            // or a crash point injected into its write paths.
            let fault_plan = match rng.gen_range(0u32..3) {
                0 => None,
                1 => {
                    let class = [
                        FaultClass::Enospc,
                        FaultClass::Eio,
                        FaultClass::TornWrite,
                        FaultClass::FailedFsync,
                    ][rng.gen_range(0usize..4)];
                    Some(format!("{}@{}", class.name(), rng.gen_range(5u64..150)))
                }
                _ => Some(format!("crash@{}", rng.gen_range(20u64..200))),
            };
            let crash_armed = fault_plan.as_deref().is_some_and(|p| p.starts_with("crash"));
            println!(
                "cechaos: round {}: daemon fault plan: {}",
                round + 1,
                fault_plan.as_deref().unwrap_or("none")
            );
            let mut daemon = spawn_daemon(&bin, state, &socket, fault_plan.as_deref())
                .map_err(|e| format!("spawning cesimd: {e}"))?;
            if let Err(e) = wait_ready(&socket, &mut daemon) {
                // A crash plan can fire during startup I/O — that IS the
                // chaos; recovery is judged at the end.
                if crash_armed {
                    println!("cechaos: round {}: daemon crashed at startup ({e})", round + 1);
                    continue;
                }
                return Err(e);
            }

            let mut clients = Vec::new();
            for c in 0..opts.clients {
                let socket = socket.clone();
                let seed = opts.seed ^ ((round as u64) << 16) ^ (c as u64 + 1);
                clients.push(std::thread::spawn(move || storm_client(&socket, seed)));
            }
            std::thread::sleep(Duration::from_millis(rng.gen_range(200u64..900)));
            let method = if crash_armed { 2 } else { rng.gen_range(0u32..2) };
            kill_daemon(&mut daemon, &socket, method);

            let (mut refused, mut proto_breaks) = (0, 0);
            for client in clients {
                let tally = client.join().map_err(|_| "client thread panicked")?;
                refused += tally.proto_errors;
                proto_breaks += tally.proto_breaks;
            }
            // Fuzz responses can be cut off by the kill (EOF counts as a
            // disconnect, not a break), so any break here means a live
            // daemon answered fuzz with a non-error event.
            cases.push(storm_case(
                format!("round {} fuzz", round + 1),
                proto_breaks == 0,
                format!("{refused} fuzz line(s) refused with an error event, {proto_breaks} not"),
                start,
            ));
        }

        // Gate 1: the wreckage audits clean (torn tails and orphaned
        // tempfiles are fine; quarantine-worthy corruption is not).
        cases.push(fsck_gate(&bin, state, "after storm"));

        // Gate 2: a clean daemon drains every WAL-recovered job, then
        // every spec resubmitted twice returns byte-identical artifacts
        // with the second pass fully cache-served.
        let mut daemon = spawn_daemon(&bin, state, &socket, None)
            .map_err(|e| format!("spawning recovery cesimd: {e}"))?;
        wait_ready(&socket, &mut daemon)?;
        wait_idle(&socket, Duration::from_secs(600))
            .map_err(|e| format!("recovery daemon: {e}"))?;
        println!("cechaos: recovery daemon drained every WAL-recovered job");

        for (name, line) in &spec_pool() {
            let start = Instant::now();
            let runs = submit_to_done(&socket, line)
                .and_then(|first| Ok((first, submit_to_done(&socket, line)?)));
            let (held, detail) = match runs {
                Ok(((art1, _, _), (art2, hits2, misses2))) => (
                    art1 == art2 && misses2 == 0,
                    format!(
                        "run 2's artifacts {} run 1's; run 2 served {hits2} cell(s) from the \
                         store and simulated {misses2}",
                        if art1 == art2 { "are byte-identical to" } else { "differ from" }
                    ),
                ),
                Err(e) => (false, format!("convergence resubmission failed: {e}")),
            };
            cases.push(storm_case(format!("{name} resubmission"), held, detail, start));
        }

        // Gate 3: zero duplicate simulation — across every daemon
        // generation, no job ever simulated the same cell twice.
        let start = Instant::now();
        let (held, detail) = match duplicate_simulations(state) {
            Ok(duplicates) => (
                duplicates.is_empty(),
                format!(
                    "{} cell(s) simulated in more than one execution: [{}]",
                    duplicates.len(),
                    duplicates.join(", ")
                ),
            ),
            Err(e) => (false, format!("unreadable telemetry journal: {e}")),
        };
        cases.push(storm_case("duplicate simulation", held, detail, start));

        let start = Instant::now();
        let _ = request_line(&socket, "{\"op\": \"shutdown\"}");
        let status = daemon.wait().map_err(|e| format!("reaping cesimd: {e}"))?;
        let detail = format!("recovery daemon {status}");
        cases.push(storm_case("recovery daemon exit", status.success(), detail, start));

        // Gate 4: the final state still audits clean.
        cases.push(fsck_gate(&bin, state, "after convergence"));
        Ok(())
    }
}
