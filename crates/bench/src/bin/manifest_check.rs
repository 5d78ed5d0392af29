//! `manifest_check` — validates a run manifest against the committed
//! schema, CI's gate that the provenance chain never silently rots.
//!
//! ```text
//! manifest_check MANIFEST SCHEMA [--verify-artifacts]
//! ```
//!
//! Shape comes from the shared required-paths checker
//! ([`ce_bench::metrics_check::check_required`], the same machinery that
//! guards `ce-sim.metrics.v1`). On top of it, every hash field must be a
//! 16-hex-digit FNV-1a digest, and `--verify-artifacts` re-hashes each
//! listed artifact (resolved by file name next to the manifest, matching
//! how manifests are laid out) and compares size and digest — a CSV
//! edited after the fact fails here.
//!
//! Exit codes follow the repo contract: 0 valid, 1 validation problems
//! (each printed as `manifest_check: error: ...`), 2 I/O or usage.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ce_bench::json::Json;
use ce_bench::manifest::{verify_artifacts, ArtifactFault, MANIFEST_SCHEMA};
use ce_bench::metrics_check::check_required;

/// The schema-file tag this checker expects.
const SCHEMA_FILE_SCHEMA: &str = "ce-bench.manifest.schema.v1";

fn main() -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut verify_artifacts = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--verify-artifacts" => verify_artifacts = true,
            other if other.starts_with("--") => return usage(&format!("unrecognized `{other}`")),
            other => paths.push(PathBuf::from(other)),
        }
    }
    let [manifest_path, schema_path] = paths.as_slice() else {
        return usage("expected exactly MANIFEST and SCHEMA paths");
    };

    let doc = match load(manifest_path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("manifest_check: error: {}: {e}", manifest_path.display());
            return ExitCode::from(2);
        }
    };
    let schema = match load(schema_path) {
        Ok(schema) => schema,
        Err(e) => {
            eprintln!("manifest_check: error: {}: {e}", schema_path.display());
            return ExitCode::from(2);
        }
    };

    let mut problems = check_required(&doc, &schema, SCHEMA_FILE_SCHEMA, MANIFEST_SCHEMA);
    problems.extend(check_digests(&doc));
    if verify_artifacts {
        problems.extend(check_artifacts(&doc, manifest_path));
    }

    if problems.is_empty() {
        println!(
            "manifest_check: ok: {} valid ({} artifacts{})",
            manifest_path.display(),
            doc.at("artifacts").and_then(Json::as_arr).map_or(0, |a| a.len()),
            if verify_artifacts { ", content verified" } else { "" }
        );
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("manifest_check: error: {p}");
        }
        eprintln!(
            "manifest_check: {} invalid: {} problem(s)",
            manifest_path.display(),
            problems.len()
        );
        ExitCode::from(1)
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("manifest_check: error: {msg}");
    eprintln!("usage: manifest_check MANIFEST SCHEMA [--verify-artifacts]");
    ExitCode::from(2)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    Json::parse(&text).map_err(|e| format!("parse: {e}"))
}

/// Is `s` a 16-digit lowercase hex FNV-1a digest?
fn is_digest(s: &str) -> bool {
    s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

/// Every hash-carrying field must hold a canonical 16-hex digest.
fn check_digests(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let mut expect = |path: &str, value: Option<&str>| {
        if let Some(s) = value {
            if !is_digest(s) {
                problems.push(format!("`{path}` is not a 16-hex FNV digest: \"{s}\""));
            }
        }
    };
    expect("cache_key", doc.at("cache_key").and_then(Json::as_str));
    expect("sweep_id", doc.at("sweep_id").and_then(Json::as_str));
    for (i, b) in doc.at("benchmarks").and_then(Json::as_arr).into_iter().flatten().enumerate() {
        expect(
            &format!("benchmarks.{i}.trace_fingerprint"),
            b.at("trace_fingerprint").and_then(Json::as_str),
        );
    }
    for (i, c) in doc.at("configs").and_then(Json::as_arr).into_iter().flatten().enumerate() {
        expect(&format!("configs.{i}.fingerprint"), c.at("fingerprint").and_then(Json::as_str));
    }
    for (i, a) in doc.at("artifacts").and_then(Json::as_arr).into_iter().flatten().enumerate() {
        expect(&format!("artifacts.{i}.fnv64"), a.at("fnv64").and_then(Json::as_str));
    }
    problems
}

/// Re-hashes every listed artifact and compares against the manifest
/// ([`verify_artifacts`]: by file name next to the manifest, the layout
/// every producer writes).
fn check_artifacts(doc: &Json, manifest_path: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(artifacts) = doc.at("artifacts").and_then(Json::as_arr) else {
        return problems; // shape problems already reported
    };
    if artifacts.is_empty() {
        problems.push("artifacts list is empty".to_owned());
    }
    let dir = manifest_path.parent().unwrap_or(Path::new("."));
    for (i, checked) in verify_artifacts(doc, dir).into_iter().enumerate() {
        match checked {
            Ok(_) | Err(ArtifactFault::NoPath) => {} // shape problems already reported
            Err(ArtifactFault::Unreadable { path, error }) => {
                problems.push(format!("artifacts.{i}: reading {}: {error}", path.display()));
            }
            Err(ArtifactFault::Mismatch { found, bytes, fnv64 }) => {
                let file = found.path.display();
                if let Some(bytes) = bytes.filter(|&b| b != found.bytes) {
                    problems.push(format!(
                        "artifacts.{i}: {file} is {} bytes, manifest says {bytes}",
                        found.bytes
                    ));
                }
                if let Some(fnv) = fnv64.filter(|f| *f != found.fnv64) {
                    problems.push(format!(
                        "artifacts.{i}: {file} hashes to {}, manifest says {fnv}",
                        found.fnv64
                    ));
                }
            }
        }
    }
    problems
}
