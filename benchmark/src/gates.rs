//! Correctness gates: every artifact a run produces must match its pinned
//! digest and any committed copy made at the same instruction cap, and
//! every fig17 cell must reproduce the cycle counts `results/BENCH_sim.json`
//! records. A failed gate voids the run.

use std::collections::BTreeMap;

use ce_bench::json::Json;
use ce_bench::manifest::Fnv64;
use ce_bench::runner::SweepSummary;
use ce_sim::machine;
use ce_workloads::Benchmark;

use crate::measure::Report;

/// Pinned fnv64 digests, keyed `<artifact>@<instruction cap>`.
pub const PINS: &str = "benchmark/pins.json";

const BENCH_SIM: &str = "results/BENCH_sim.json";

/// Committed artifacts and the cap each was generated at.
const COMMITTED: [(&str, u64, &str); 3] = [
    (
        "fig17_organizations.csv",
        20_000,
        "results/fig17_organizations.csv",
    ),
    ("pareto.csv", 2_000_000, "results/pareto.csv"),
    ("tab02_explore.csv", 2_000_000, "results/tab02_explore.csv"),
];

pub fn fnv_hex(text: &str) -> String {
    let mut h = Fnv64::default();
    h.eat(text.as_bytes());
    h.hex()
}

/// The pinned digests.
pub struct Pins(BTreeMap<String, String>);

impl Pins {
    pub fn load() -> Result<Pins, String> {
        let text = std::fs::read_to_string(PINS).map_err(|e| format!("reading {PINS}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("parsing {PINS}: {e}"))?;
        let obj = doc
            .as_obj()
            .ok_or_else(|| format!("{PINS} is not an object"))?;
        let mut pins = BTreeMap::new();
        for (key, value) in obj {
            let digest = value
                .as_str()
                .ok_or_else(|| format!("{PINS}: {key} is not a string"))?;
            pins.insert(key.clone(), digest.to_owned());
        }
        Ok(Pins(pins))
    }

    /// Gates one artifact: its digest must equal the pin for this cap, and
    /// where the repository commits the artifact at this cap, the bytes
    /// must equal the committed file.
    pub fn check(&self, report: &mut Report, name: &str, cap: u64, content: &str) {
        if let Err(e) = self.verify(name, cap, content) {
            report.gate(false, || e);
        }
    }

    /// [`Pins::check`] as a result: the first way the artifact fails.
    pub fn verify(&self, name: &str, cap: u64, content: &str) -> Result<(), String> {
        let digest = fnv_hex(content);
        match self.0.get(&format!("{name}@{cap}")) {
            Some(pin) if *pin == digest => {}
            Some(pin) => return Err(format!("{name} at cap {cap}: fnv64 {digest}, pinned {pin}")),
            None => {
                return Err(format!(
                    "{name} at cap {cap}: fnv64 {digest}, no pin in {PINS}"
                ))
            }
        }
        for (committed, at, path) in COMMITTED {
            if committed == name && at == cap {
                let bytes =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                if bytes != content {
                    return Err(format!("{name} at cap {cap} differs from committed {path}"));
                }
            }
        }
        Ok(())
    }
}

/// Gates a fig17 sweep against the per-cell cycle counts in
/// `results/BENCH_sim.json` when that snapshot was taken at `cap`.
pub fn check_fig17_cycles(report: &mut Report, cap: u64, summary: &SweepSummary) {
    let doc = match std::fs::read_to_string(BENCH_SIM)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(e) => return report.gate(false, || format!("reading {BENCH_SIM}: {e}")),
    };
    if doc.at("max_insts").and_then(Json::as_u64) != Some(cap) {
        return;
    }
    let recorded = doc.at("cells").and_then(Json::as_arr).unwrap_or(&[]);
    let machines = machine::figure17_machines();
    let names = Benchmark::all()
        .into_iter()
        .flat_map(|b| machines.iter().map(move |(m, _)| (b.name(), *m)));
    let mut checked = 0;
    for ((cell, (bench, machine)), entry) in summary.cells.iter().zip(names).zip(recorded) {
        let want = (
            entry.at("benchmark").and_then(Json::as_str),
            entry.at("machine").and_then(Json::as_str),
        );
        let cycles = cell.as_ref().map(|r| r.stats.cycles);
        let pinned = entry.at("cycles").and_then(Json::as_u64);
        report.gate(
            want == (Some(bench), Some(machine)) && cycles == pinned,
            || {
                format!(
                    "fig17 {bench}/{machine}: cycles {cycles:?}, {BENCH_SIM} records {pinned:?}"
                )
            },
        );
        checked += 1;
    }
    report.gate(
        checked == summary.cells.len() && checked == recorded.len(),
        || {
            format!(
                "fig17 has {} cells, {BENCH_SIM} records {}",
                summary.cells.len(),
                recorded.len()
            )
        },
    );
}
