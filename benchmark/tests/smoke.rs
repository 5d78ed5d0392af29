//! CI-scale smoke test of the benchmark: every workload at a 20 000
//! instruction cap and a one-second window, untraced and traced. Each run
//! must pass its gates and print every metric `BENCHMARK.json` names, with
//! a finite value and its unit; a tampered pinned digest must fail a run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ce_bench::json::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_owned()
}

fn run(checkout: &Path, workload: &str, trace: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ce-benchmark"))
        .current_dir(checkout)
        .env("CE_MAX_INSTS", "20000")
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("running ce-benchmark")
}

fn summary(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn names<'a>(doc: &'a Json, list: &str) -> Vec<&'a Json> {
    doc.at(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no `{list}` list"))
        .iter()
        .collect()
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_gates() {
    let root = repo_root();
    let text =
        std::fs::read_to_string(root.join("BENCHMARK.json")).expect("reading BENCHMARK.json");
    let bench = Json::parse(&text).expect("parsing BENCHMARK.json");
    for workload in names(&bench, "workloads") {
        let workload = workload
            .at("name")
            .and_then(Json::as_str)
            .expect("workload name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = run(&root, workload, trace);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stderr}"
            );
            let doc = summary(&out);
            assert_eq!(
                doc.at("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}"
            );
            assert_eq!(
                doc.at("failed").and_then(Json::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(doc
                .at("attempted")
                .and_then(Json::as_u64)
                .is_some_and(|n| n >= 1));
            let reported = doc
                .at("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object");
            let stdout = String::from_utf8_lossy(&out.stdout);
            for metric in names(&bench, list) {
                let name = metric
                    .at("name")
                    .and_then(Json::as_str)
                    .expect("metric name");
                let unit = metric
                    .at("unit")
                    .and_then(Json::as_str)
                    .expect("metric unit");
                let line = stdout
                    .lines()
                    .find(|l| l.split(' ').next() == Some(name))
                    .unwrap_or_else(|| panic!("{workload} --trace {trace}: no `{name}` line"));
                let fields: Vec<&str> = line.split(' ').collect();
                assert_eq!(fields.len(), 3, "{line}");
                let value: f64 = fields[1].parse().unwrap_or_else(|e| panic!("{line}: {e}"));
                assert!(value.is_finite(), "{line}");
                assert_eq!(fields[2], unit, "{line}");
                let json = reported
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} missing from JSON"));
                assert_eq!(
                    json.at("value").and_then(Json::as_f64),
                    Some(value),
                    "{name}"
                );
                assert_eq!(json.at("unit").and_then(Json::as_str), Some(unit), "{name}");
            }
        }
    }
}

#[test]
fn a_tampered_pin_fails_the_run() {
    let root = repo_root();
    let checkout = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("tampered-checkout");
    let _ = std::fs::remove_dir_all(&checkout);
    for dir in ["benchmark", "results"] {
        std::fs::create_dir_all(checkout.join(dir)).expect("creating the checkout");
    }
    for file in ["results/fig17_organizations.csv", "results/BENCH_sim.json"] {
        std::fs::copy(root.join(file), checkout.join(file)).expect("copying a committed result");
    }
    let pins = std::fs::read_to_string(root.join("benchmark/pins.json")).expect("reading pins");
    let doc = Json::parse(&pins).expect("parsing pins");
    let pin = doc
        .as_obj()
        .and_then(|pins| pins.get("fig17_organizations.csv@20000"))
        .and_then(Json::as_str)
        .expect("a fig17 pin at the CI cap");
    let tampered = pins.replace(pin, "0123456789abcdef");
    std::fs::write(checkout.join("benchmark/pins.json"), tampered).expect("writing tampered pins");

    let out = run(&checkout, "fig17-full", "0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a tampered pin must fail the run");
    assert!(stderr.contains("pinned 0123456789abcdef"), "{stderr}");
    assert_eq!(
        summary(&out).at("correct").and_then(Json::as_bool),
        Some(false)
    );
    let _ = std::fs::remove_dir_all(&checkout);
}
