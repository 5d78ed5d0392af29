//! One verdict vocabulary, one report and one exit rule for every
//! verification gate: `cechaos` (the simulator faults of
//! [`crate::fault`], the I/O fault grid of [`crate::chaos`] and the
//! daemon storm), `diffcheck`, `sampling_check` and `delaycheck`.
//!
//! A [`Report`] prints, in order: one line per case, one tally line per
//! class, one `<tool>: error[<verdict>]: …` line per violation, and the
//! summary `<tool>: N case(s): … V violation(s)`. Exit codes: 0 no
//! violation and 1 any violation ([`Report::exit_code`]); 2 a usage or
//! infrastructure error ([`refuse`]), so CI can tell a typo from a
//! divergence.
//!
//! Each verdict means one thing wherever it is printed:
//!
//! | verdict | meaning | violation |
//! |---|---|---|
//! | `pass` | a check held: bit-identical to the oracle, error within bound, anchor within tolerance, fuzz corpus panic-free and balanced, a storm gate held | no |
//! | `fail` | a check did not hold | **yes** |
//! | `detected` | a layer reported the injected fault (parser, validator, invariant checker, surfaced I/O error, contained panic, process death), and any recovery converged | no |
//! | `unchanged` | nothing reported the fault, and the result is bit-identical to the clean run | no |
//! | `visible` | the fault produced a different but valid input, and the checked stack ran it cleanly | no |
//! | `not-fired` | the plan provably never fired: its op index lies past the workload's horizon | no |
//! | `silent` | the result changed and nothing reported it | **yes** |
//! | `unrecovered` | the fault was reported, but recovery did not converge | **yes** |

use std::fmt;
use std::process::ExitCode;
use std::time::Duration;

/// How one case came out; the module docs define each verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A check held.
    Pass,
    /// A check did not hold.
    Fail,
    /// A layer reported the injected fault, and any recovery converged.
    Detected,
    /// Nothing reported the fault; the result is bit-identical.
    Unchanged,
    /// A different but valid input, which the checked stack ran cleanly.
    Visible,
    /// The fault plan provably never fired.
    NotFired,
    /// The result changed and nothing reported it.
    Silent,
    /// The fault was reported, but recovery did not converge.
    Unrecovered,
}

impl Verdict {
    /// Every verdict, in the order tallies list them.
    pub const ALL: [Verdict; 8] = [
        Verdict::Pass,
        Verdict::Fail,
        Verdict::Detected,
        Verdict::Unchanged,
        Verdict::Visible,
        Verdict::NotFired,
        Verdict::Silent,
        Verdict::Unrecovered,
    ];

    /// `Pass` when the check held, `Fail` when it did not.
    pub fn check(held: bool) -> Verdict {
        if held {
            Verdict::Pass
        } else {
            Verdict::Fail
        }
    }

    /// Stable lowercase name, as reports print it.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Detected => "detected",
            Verdict::Unchanged => "unchanged",
            Verdict::Visible => "visible",
            Verdict::NotFired => "not-fired",
            Verdict::Silent => "silent",
            Verdict::Unrecovered => "unrecovered",
        }
    }

    /// Whether this verdict fails the gate.
    pub fn is_violation(self) -> bool {
        matches!(self, Verdict::Fail | Verdict::Silent | Verdict::Unrecovered)
    }
}

/// One graded case.
#[derive(Debug, Clone)]
pub struct Case {
    /// What it is tallied under: a fault class (`trace`, `torn`), a gate
    /// family (`anchor`, `storm`), or a kernel.
    pub class: &'static str,
    /// What was injected or checked, e.g. `bit-flip seed=7`.
    pub name: String,
    /// How it came out.
    pub verdict: Verdict,
    /// The evidence: the reporting error, measurement or divergence. The
    /// report prints it on one line, folding line breaks into `; `.
    pub detail: String,
    /// Wall time; zero when the case was not timed on its own.
    pub wall: Duration,
}

/// Every case one gate graded, in grading order.
#[derive(Debug, Clone)]
pub struct Report {
    /// The gate's name, which leads its tally, error and summary lines.
    pub tool: &'static str,
    /// The cases.
    pub cases: Vec<Case>,
}

impl Report {
    /// An empty report for `tool`.
    pub fn new(tool: &'static str) -> Report {
        Report { tool, cases: Vec::new() }
    }

    /// The cases that fail the gate.
    pub fn violations(&self) -> impl Iterator<Item = &Case> {
        self.cases.iter().filter(|c| c.verdict.is_violation())
    }

    /// The exit rule: 0 with no violation, 1 with any.
    pub fn exit_code(&self) -> ExitCode {
        if self.violations().next().is_none() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }
}

/// The exit rule's third code, for a gate that could not run: prints
/// `<tool>: error[<kind>]: <message>` on stderr and returns 2. `kind` is
/// `usage` for bad arguments and `io` for broken machinery.
pub fn refuse(tool: &str, kind: &str, message: impl fmt::Display) -> ExitCode {
    eprintln!("{tool}: error[{kind}]: {message}");
    ExitCode::from(2)
}

/// "3 detected, 1 unchanged": the non-zero verdict counts among `cases`.
fn tally<'a>(cases: impl Iterator<Item = &'a Case> + Clone) -> String {
    let counts = Verdict::ALL.into_iter().filter_map(|v| {
        let n = cases.clone().filter(|c| c.verdict == v).count();
        (n > 0).then(|| format!("{n} {}", v.name()))
    });
    counts.collect::<Vec<_>>().join(", ")
}

/// A case's detail on one line: each line break folds into `; `.
fn one_line(case: &Case) -> String {
    case.detail.lines().map(str::trim).collect::<Vec<_>>().join("; ")
}

/// The one renderer: case lines, class tallies, violations, summary.
impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let class_w = self.cases.iter().map(|c| c.class.len()).max().unwrap_or(0);
        let name_w = self.cases.iter().map(|c| c.name.len()).max().unwrap_or(0);
        for c in &self.cases {
            let (verdict, class, name, detail) = (c.verdict.name(), c.class, &c.name, one_line(c));
            let line = format!("{verdict:<11} {class:<class_w$}  {name:<name_w$}  {detail}");
            writeln!(f, "{}", line.trim_end())?;
        }
        let mut classes: Vec<&str> = Vec::new();
        for c in &self.cases {
            if !classes.contains(&c.class) {
                classes.push(c.class);
            }
        }
        for class in classes {
            let of_class = self.cases.iter().filter(|c| c.class == class);
            let wall: Duration = of_class.clone().map(|c| c.wall).sum();
            let n = of_class.clone().count();
            write!(f, "{}: {class}: {n} case(s): {}", self.tool, tally(of_class))?;
            if !wall.is_zero() {
                write!(f, " ({:.2} s)", wall.as_secs_f64())?;
            }
            writeln!(f)?;
        }
        for c in self.violations() {
            let (tool, verdict) = (self.tool, c.verdict.name());
            writeln!(f, "{tool}: error[{verdict}]: {} {}: {}", c.class, c.name, one_line(c))?;
        }
        let counts = tally(self.cases.iter());
        write!(
            f,
            "{}: {} case(s): {counts}{}{} violation(s)",
            self.tool,
            self.cases.len(),
            if counts.is_empty() { "" } else { ", " },
            self.violations().count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names are a published interface (CI logs, greps): pin each
    /// one, and which of them fail a gate.
    #[test]
    fn verdict_names_and_violations_are_pinned() {
        let pinned = [
            ("pass", false),
            ("fail", true),
            ("detected", false),
            ("unchanged", false),
            ("visible", false),
            ("not-fired", false),
            ("silent", true),
            ("unrecovered", true),
        ];
        assert_eq!(Verdict::ALL.len(), pinned.len());
        for (verdict, (name, violation)) in Verdict::ALL.into_iter().zip(pinned) {
            assert_eq!(verdict.name(), name);
            assert_eq!(verdict.is_violation(), violation, "{name}");
        }
        assert_eq!(Verdict::check(true), Verdict::Pass);
        assert_eq!(Verdict::check(false), Verdict::Fail);
    }

    fn case(class: &'static str, name: &str, verdict: Verdict, detail: &str) -> Case {
        let wall = Duration::from_millis(10);
        Case { class, name: name.into(), verdict, detail: detail.into(), wall }
    }

    #[test]
    fn report_renders_cases_tallies_violations_then_summary() {
        let mut report = Report::new("gate");
        report.cases = vec![
            case("trace", "bit-flip seed=0", Verdict::Detected, "parser: line 3"),
            case("trace", "truncate seed=1", Verdict::Silent, "fingerprint diverged"),
            case("storm", "fsck", Verdict::Pass, ""),
        ];
        let text = report.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "detected    trace  bit-flip seed=0  parser: line 3",
                "silent      trace  truncate seed=1  fingerprint diverged",
                "pass        storm  fsck",
                "gate: trace: 2 case(s): 1 detected, 1 silent (0.02 s)",
                "gate: storm: 1 case(s): 1 pass (0.01 s)",
                "gate: error[silent]: trace truncate seed=1: fingerprint diverged",
                "gate: 3 case(s): 1 pass, 1 detected, 1 silent, 1 violation(s)",
            ]
        );
        assert_eq!(report.exit_code(), ExitCode::from(1));

        report.cases.remove(1);
        assert!(report.to_string().ends_with("gate: 2 case(s): 1 pass, 1 detected, 0 violation(s)"));
        assert_eq!(report.exit_code(), ExitCode::SUCCESS);
        assert_eq!(Report::new("gate").to_string(), "gate: 0 case(s): 0 violation(s)");
    }

    /// A multi-line detail, such as an invariant checker's violation
    /// list, folds into one line on both its case and its error line.
    #[test]
    fn a_multi_line_detail_renders_on_one_line() {
        let mut report = Report::new("gate");
        let detail = "invariant checker: 2 violation(s)\n  cycle 31 seq 57: skipped";
        report.cases = vec![case("sched", "early-select", Verdict::Fail, detail)];
        let text = report.to_string();
        let folded = "invariant checker: 2 violation(s); cycle 31 seq 57: skipped";
        assert_eq!(
            text.lines().take(3).collect::<Vec<_>>(),
            [
                format!("fail        sched  early-select  {folded}"),
                "gate: sched: 1 case(s): 1 fail (0.01 s)".to_owned(),
                format!("gate: error[fail]: sched early-select: {folded}"),
            ]
        );
    }
}
