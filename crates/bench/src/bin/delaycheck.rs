//! delaycheck — the delay-model verification gate.
//!
//! Runs three campaigns against `ce-delay` and writes one combined report:
//!
//! 1. **Anchors** — every value the paper prints (Tables 1/2/4, Figures
//!    3/5/6, Sections 5.3/5.5) evaluated against the current calibration,
//!    each with its recorded tolerance ([`ce_delay::anchors`]).
//! 2. **Shapes** — the growth-shape assertions (rename/bypass quadratic in
//!    issue width, wakeup linear+quadratic in window size, selection
//!    step-logarithmic) verified by exact finite differences.
//! 3. **Domain fuzz** — a seeded corpus of adversarial parameters thrown
//!    at every `try_compute` path under `catch_unwind`, proving the
//!    checked APIs return `Result` instead of panicking, and that the
//!    corpus straddles the accept/reject boundary.
//!
//! ```text
//! cargo run --release -p ce-bench --bin delaycheck [--out PATH]
//! ```
//!
//! Every anchor, shape and the fuzz corpus is one `pass` or `fail` case
//! of a [`campaign`](ce_bench::campaign) report. Writes
//! `results/delay_anchor_report.csv` atomically (CI diffs it against the
//! committed copy). Exit codes: 0 all campaigns pass, 1 gate failure
//! (drift, broken shape, or a panic out of a checked path), 2 usage or
//! I/O errors.

use ce_bench::campaign::{refuse, Case, Report, Verdict};
use ce_bench::checkpoint::write_atomic;
use ce_bench::cli::OutArgs;
use ce_delay::bypass::{BypassDelay, BypassParams};
use ce_delay::cache::{CacheDelay, CacheParams};
use ce_delay::pipeline::ClockComparison;
use ce_delay::regfile::{RegfileDelay, RegfileParams};
use ce_delay::rename::{RenameDelay, RenameParams, RenameScheme};
use ce_delay::restable::{ResTableDelay, ResTableParams};
use ce_delay::select::{SelectDelay, SelectParams};
use ce_delay::wakeup::{WakeupDelay, WakeupParams};
use ce_delay::{anchors, DelayError, PipelineDelays, Technology};
use rand::{Rng, SeedableRng, StdRng};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Adversarial parameter palette: boundary values, plausible values, and
/// far-out-of-domain garbage.
fn wild(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..6usize) {
        0 => 0,
        1 => 1,
        2 => rng.gen_range(2..9usize),
        3 => rng.gen_range(9..129usize),
        4 => rng.gen_range(129..5000usize),
        _ => rng.gen_range(5000..2_000_000usize),
    }
}

/// Outcome counts of the domain-fuzz campaign.
#[derive(Debug, Default)]
struct FuzzTally {
    cases: usize,
    accepted: usize,
    rejected: usize,
    panics: usize,
}

fn tally(tally: &mut FuzzTally, result: std::thread::Result<Result<(), DelayError>>) {
    tally.cases += 1;
    match result {
        Ok(Ok(())) => tally.accepted += 1,
        Ok(Err(_)) => tally.rejected += 1,
        Err(_) => tally.panics += 1,
    }
}

fn fuzz_domains(cases_per_structure: usize) -> FuzzTally {
    let mut rng = StdRng::seed_from_u64(0xde1a);
    let mut t = FuzzTally::default();
    let techs = Technology::all();
    for _ in 0..cases_per_structure {
        let tech = techs[rng.gen_range(0..techs.len())];

        let p = RenameParams {
            issue_width: wild(&mut rng),
            physical_regs: wild(&mut rng),
            scheme: if rng.gen_range(0..2usize) == 0 {
                RenameScheme::Ram
            } else {
                RenameScheme::Cam
            },
        };
        tally(&mut t, std::panic::catch_unwind(|| {
            RenameDelay::try_compute(&tech, &p).map(|_| ())
        }));

        let p = WakeupParams::new(wild(&mut rng), wild(&mut rng));
        tally(&mut t, std::panic::catch_unwind(|| {
            WakeupDelay::try_compute(&tech, &p).map(|_| ())
        }));

        let p = SelectParams {
            window_size: wild(&mut rng),
            arbiter_fanin: wild(&mut rng),
            grants: wild(&mut rng),
        };
        tally(&mut t, std::panic::catch_unwind(|| {
            SelectDelay::try_compute(&tech, &p).map(|_| ())
        }));

        let p = BypassParams {
            issue_width: wild(&mut rng),
            pipestages_after_exec: wild(&mut rng),
        };
        tally(&mut t, std::panic::catch_unwind(|| {
            BypassDelay::try_compute(&tech, &p).map(|_| ())
        }));

        let p = ResTableParams { issue_width: wild(&mut rng), physical_regs: wild(&mut rng) };
        tally(&mut t, std::panic::catch_unwind(|| {
            ResTableDelay::try_compute(&tech, &p).map(|_| ())
        }));

        let p = RegfileParams {
            registers: wild(&mut rng),
            ports: wild(&mut rng),
            bits: wild(&mut rng),
        };
        tally(&mut t, std::panic::catch_unwind(|| {
            RegfileDelay::try_compute(&tech, &p).map(|_| ())
        }));

        let p = CacheParams {
            bytes: wild(&mut rng),
            ways: wild(&mut rng),
            line_bytes: wild(&mut rng),
            ports: wild(&mut rng),
        };
        tally(&mut t, std::panic::catch_unwind(|| {
            CacheDelay::try_compute(&tech, &p).map(|_| ())
        }));

        let (iw, w, clusters) = (wild(&mut rng), wild(&mut rng), wild(&mut rng));
        tally(&mut t, std::panic::catch_unwind(move || {
            PipelineDelays::try_compute(&tech, iw, w)
                .and_then(|d| d.try_stages_at(w as f64).map(|_| d))
                .and_then(|_| ClockComparison::try_compute(&tech, iw, w, clusters))
                .map(|_| ())
        }));
    }
    t
}

/// A `pass`/`fail` case for `check`, and the CSV status column's spelling.
fn case(class: &'static str, name: &str, pass: bool, detail: String) -> (Case, &'static str) {
    let (name, wall) = (name.to_owned(), Duration::ZERO);
    let case = Case { class, name, verdict: Verdict::check(pass), detail, wall };
    (case, if pass { "pass" } else { "FAIL" })
}

fn main() -> ExitCode {
    let args = OutArgs::parse("results/delay_anchor_report.csv");
    let mut csv =
        String::from("kind,id,artifact,unit,expected,got,residual_pct,tol_pct,status\n");
    let mut report = Report::new("delaycheck");

    match anchors::evaluate_all() {
        Ok(checks) => {
            for c in &checks {
                let (a, resid, tol) =
                    (&c.anchor, c.residual_frac * 100.0, c.anchor.tol_frac * 100.0);
                let detail = format!(
                    "expected {:.3} {}, got {:.3}, residual {resid:.1}% (tolerance {tol:.0}%)",
                    a.expected, a.unit, c.got
                );
                let (case, status) = case("anchor", a.id, c.pass, detail);
                report.cases.push(case);
                let _ = writeln!(
                    csv,
                    "anchor,{},{},{},{:.4},{:.4},{resid:.2},{tol:.0},{status}",
                    a.id,
                    a.artifact.replace(',', ";"),
                    a.unit,
                    a.expected,
                    c.got,
                );
            }
        }
        Err(e) => report.cases.push(case("anchor", "evaluation", false, e.to_string()).0),
    }

    match anchors::verify_shapes() {
        Ok(shapes) => {
            for s in &shapes {
                let (case, status) = case("shape", s.id, s.pass, s.detail.clone());
                report.cases.push(case);
                let _ = writeln!(csv, "shape,{},{},,,,,,{status}", s.id, s.structure);
            }
        }
        Err(e) => report.cases.push(case("shape", "verification", false, e.to_string()).0),
    }

    // Checked paths must not panic, and the corpus must exercise both
    // sides of the validation boundary.
    let start = Instant::now();
    let t = fuzz_domains(250);
    let balanced = t.accepted > t.cases / 20 && t.rejected > t.cases / 20;
    let detail = format!(
        "{} cases: {} accepted, {} rejected, {} panics",
        t.cases, t.accepted, t.rejected, t.panics
    );
    let (fuzz, status) = case("fuzz", "domain_campaign", t.panics == 0 && balanced, detail);
    report.cases.push(Case { wall: start.elapsed(), ..fuzz });
    let _ = writeln!(
        csv,
        "fuzz,domain_campaign,,cases,{},{},,,{status}",
        t.cases,
        t.cases - t.panics
    );

    if let Err(e) = write_atomic(&args.out, &csv) {
        return refuse("delaycheck", "io", format!("writing {}: {e}", args.out.display()));
    }
    eprintln!("delaycheck: wrote {}", args.out.display());
    println!("{report}");
    report.exit_code()
}
