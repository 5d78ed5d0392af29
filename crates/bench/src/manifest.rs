//! Content-addressed run manifests: provenance for every result CSV.
//!
//! Every sweep/explore binary writes a `*.manifest.json` atomically next
//! to its CSV, answering the two questions a result file cannot answer
//! for itself: *what exactly produced these bytes* and *would rerunning
//! reproduce them*. The manifest carries a **cache key** — an FNV-1a
//! hash over the three inputs the simulation is a pure function of:
//!
//! 1. **trace fingerprint** per benchmark — a hash of the serialized
//!    dynamic trace ([`ce_workloads::trace_io::write_trace`]'s exact
//!    bytes, streamed into the hash) at the sweep's instruction cap, so
//!    any change to a kernel, the emulator, or the cap changes the key;
//! 2. **config fingerprint** per machine — a hash of the full
//!    [`SimConfig`] debug form (every field participates, the same
//!    convention the checkpoint sweep id uses);
//! 3. **code version** — `CARGO_PKG_VERSION`, overridable with the
//!    `CE_CODE_VERSION` environment variable so CI can pin a git SHA.
//!
//! This is the exact key the planned `cesimd` result cache (ROADMAP
//! item 1) will look up: same key → the cached cells are valid; any
//! perturbation of trace, config, or code produces a different key and
//! forces a re-run. `tests/telemetry.rs` pins both directions.
//!
//! Manifests are validated in CI by the `manifest_check` binary against
//! the committed `results/manifest.schema.json` (the same
//! required-paths schema style as `results/metrics.schema.json`).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ce_sim::SimConfig;
use ce_workloads::{trace_cached, trace_io::write_trace, Benchmark};

use crate::checkpoint::write_atomic;
use crate::runner::{Job, RunOptions, SweepSummary};

/// Schema tag of every manifest document this module writes.
pub const MANIFEST_SCHEMA: &str = "ce-bench.manifest.v1";

/// Incremental FNV-1a (64-bit) — the repo's one hash, shared with the
/// checkpoint sweep id. `fmt::Write` and `io::Write` are implemented so
/// debug forms and streamed traces can be hashed without materializing
/// the string.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Folds bytes into the running hash.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn digest(&self) -> u64 {
        self.0
    }

    /// The digest as the repo's canonical 16-hex-digit form.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.eat(s.as_bytes());
        Ok(())
    }
}

impl std::io::Write for Fnv64 {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.eat(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Hashes one string through FNV-1a, returning the 16-hex form.
fn fnv_hex(text: &str) -> String {
    let mut h = Fnv64::default();
    h.eat(text.as_bytes());
    h.hex()
}

/// The code-version component of the cache key: the `CE_CODE_VERSION`
/// environment variable when set (CI pins the git SHA), else the crate
/// version baked in at compile time.
pub fn code_version() -> String {
    std::env::var("CE_CODE_VERSION").unwrap_or_else(|_| env!("CARGO_PKG_VERSION").to_owned())
}

/// Fingerprint of one benchmark's dynamic trace at an instruction cap:
/// FNV-1a over the exact serialized trace text, streamed into the hash
/// line by line so the text is never built. Memoized process-wide per
/// `(benchmark, cap)` — hashing a full-length trace still streams tens of
/// MB of text through the hash, and every manifest of a sweep asks for
/// the same seven.
///
/// # Errors
///
/// The trace generator's error, verbatim, if the kernel fails to trace.
pub fn trace_fingerprint(bench: Benchmark, max_insts: u64) -> Result<String, String> {
    static MEMO: Mutex<Option<HashMap<(Benchmark, u64), String>>> = Mutex::new(None);
    let mut memo = MEMO.lock().expect("trace fingerprint memo poisoned");
    let memo = memo.get_or_insert_with(HashMap::new);
    if let Some(hit) = memo.get(&(bench, max_insts)) {
        return Ok(hit.clone());
    }
    let trace = trace_cached(bench, max_insts).map_err(|e| e.to_string())?;
    let mut h = Fnv64::default();
    write_trace(&trace, &mut h).expect("hashing cannot fail");
    let fp = h.hex();
    memo.insert((bench, max_insts), fp.clone());
    Ok(fp)
}

/// Fingerprint of one machine configuration: FNV-1a over the full
/// [`SimConfig`] debug form (every field participates, like the
/// checkpoint sweep id).
pub fn config_fingerprint(cfg: &SimConfig) -> String {
    fnv_hex(&format!("{cfg:?}"))
}

/// The content-addressed cache key with every component explicit — the
/// pure function the property tests exercise. [`cache_key`] is the
/// environment-reading wrapper binaries use.
///
/// # Errors
///
/// Trace-generation errors from [`trace_fingerprint`].
pub fn cache_key_with(
    code_version: &str,
    jobs: &[Job],
    max_insts: u64,
    run: RunOptions,
) -> Result<String, String> {
    let mut h = Fnv64::default();
    h.eat(format!("code={code_version}\nmax_insts={max_insts}\nrun={run:?}\n").as_bytes());
    for (bench, cfg) in jobs {
        h.eat(
            format!(
                "job bench={} trace={} config={}\n",
                bench.name(),
                trace_fingerprint(*bench, max_insts)?,
                config_fingerprint(cfg),
            )
            .as_bytes(),
        );
    }
    Ok(h.hex())
}

/// The cache key for a sweep as invoked: [`cache_key_with`] under the
/// ambient [`code_version`].
///
/// # Errors
///
/// Trace-generation errors from [`trace_fingerprint`].
pub fn cache_key(jobs: &[Job], max_insts: u64, run: RunOptions) -> Result<String, String> {
    cache_key_with(&code_version(), jobs, max_insts, run)
}

/// The content-addressed key for a *single cell* — what the experiment
/// service's result store indexes by. Same components as the sweep-level
/// [`cache_key_with`] (code version, instruction cap, run options, trace
/// fingerprint, config fingerprint), hashed for one job, with a distinct
/// domain prefix so a one-cell sweep key and its cell key never collide.
///
/// # Errors
///
/// Trace-generation errors from [`trace_fingerprint`].
pub fn cell_key_with(
    code_version: &str,
    (bench, cfg): &Job,
    max_insts: u64,
    run: RunOptions,
) -> Result<String, String> {
    let mut h = Fnv64::default();
    h.eat(
        format!(
            "cell code={code_version}\nmax_insts={max_insts}\nrun={run:?}\n\
             bench={} trace={} config={}\n",
            bench.name(),
            trace_fingerprint(*bench, max_insts)?,
            config_fingerprint(cfg),
        )
        .as_bytes(),
    );
    Ok(h.hex())
}

/// The cell key as invoked: [`cell_key_with`] under the ambient
/// [`code_version`].
///
/// # Errors
///
/// Trace-generation errors from [`trace_fingerprint`].
pub fn cell_key(job: &Job, max_insts: u64, run: RunOptions) -> Result<String, String> {
    cell_key_with(&code_version(), job, max_insts, run)
}

/// One result file the manifest vouches for.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The path as the producing binary knew it (manifests sit next to
    /// their artifacts, so the file name alone also resolves).
    pub path: PathBuf,
    /// Size in bytes.
    pub bytes: u64,
    /// FNV-1a of the file content, 16-hex.
    pub fnv64: String,
}

impl Artifact {
    /// Describes a just-written result file.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file back.
    pub fn describe(path: &Path) -> std::io::Result<Artifact> {
        let content = std::fs::read(path)?;
        let mut h = Fnv64::default();
        h.eat(&content);
        Ok(Artifact { path: path.to_path_buf(), bytes: content.len() as u64, fnv64: h.hex() })
    }
}

/// The conventional manifest path for a result file:
/// `results/foo.csv` → `results/foo.manifest.json`.
pub fn manifest_path(out: &Path) -> PathBuf {
    let stem = out.file_stem().and_then(|s| s.to_str()).unwrap_or("sweep");
    out.with_file_name(format!("{stem}.manifest.json"))
}

/// Renders the manifest document for a completed sweep.
///
/// # Errors
///
/// Trace-generation errors from the cache-key computation.
pub fn manifest_json(
    tool: &str,
    jobs: &[Job],
    max_insts: u64,
    run: RunOptions,
    summary: &SweepSummary,
    artifacts: &[Artifact],
) -> Result<String, String> {
    let code = code_version();
    let key = cache_key_with(&code, jobs, max_insts, run)?;
    let sweep = crate::checkpoint::sweep_id(jobs, max_insts, run);

    // Unique benchmarks in first-appearance order, with trace fingerprints.
    let mut benches: Vec<Benchmark> = Vec::new();
    for (bench, _) in jobs {
        if !benches.contains(bench) {
            benches.push(*bench);
        }
    }
    let bench_rows = benches
        .iter()
        .map(|&b| {
            Ok(format!(
                "    {{\"name\": \"{}\", \"trace_fingerprint\": \"{}\"}}",
                b.name(),
                trace_fingerprint(b, max_insts)?
            ))
        })
        .collect::<Result<Vec<_>, String>>()?
        .join(",\n");

    // Unique configs in first-appearance order, with cell counts.
    let mut configs: Vec<(String, usize)> = Vec::new();
    for (_, cfg) in jobs {
        let fp = config_fingerprint(cfg);
        match configs.iter_mut().find(|(f, _)| *f == fp) {
            Some((_, count)) => *count += 1,
            None => configs.push((fp, 1)),
        }
    }
    let config_rows = configs
        .iter()
        .map(|(fp, count)| format!("    {{\"fingerprint\": \"{fp}\", \"cells\": {count}}}"))
        .collect::<Vec<_>>()
        .join(",\n");

    let artifact_rows = artifacts
        .iter()
        .map(|a| {
            format!(
                "    {{\"path\": \"{}\", \"bytes\": {}, \"fnv64\": \"{}\"}}",
                a.path.display(),
                a.bytes,
                a.fnv64
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    Ok(format!(
        "{{\n\
         \x20 \"schema\": \"{MANIFEST_SCHEMA}\",\n\
         \x20 \"tool\": \"{tool}\",\n\
         \x20 \"code_version\": \"{code}\",\n\
         \x20 \"max_insts\": {max_insts},\n\
         \x20 \"run_options\": \"{run:?}\",\n\
         \x20 \"cache_key\": \"{key}\",\n\
         \x20 \"sweep_id\": \"{sweep:016x}\",\n\
         \x20 \"cells\": {},\n\
         \x20 \"threads\": {},\n\
         \x20 \"resumed\": {},\n\
         \x20 \"sweep_wall_s\": {:.6},\n\
         \x20 \"serial_cell_wall_s\": {:.6},\n\
         \x20 \"benchmarks\": [\n{bench_rows}\n  ],\n\
         \x20 \"configs\": [\n{config_rows}\n  ],\n\
         \x20 \"artifacts\": [\n{artifact_rows}\n  ]\n\
         }}\n",
        summary.cells.len(),
        summary.threads,
        summary.resumed,
        summary.sweep_wall.as_secs_f64(),
        summary.serial_cell_wall.as_secs_f64(),
    ))
}

/// Writes a manifest for a successful sweep next to its artifacts,
/// atomically. This is the one call sweep binaries make; it bundles
/// artifact description, rendering, and the atomic write.
///
/// # Errors
///
/// A message covering either trace-generation or I/O failure — callers
/// report it and exit 2; the result CSV itself is already safely written.
pub fn write_manifest(
    path: &Path,
    tool: &str,
    jobs: &[Job],
    max_insts: u64,
    run: RunOptions,
    summary: &SweepSummary,
    artifact_paths: &[&Path],
) -> Result<(), String> {
    let artifacts = artifact_paths
        .iter()
        .map(|p| Artifact::describe(p).map_err(|e| format!("reading {}: {e}", p.display())))
        .collect::<Result<Vec<_>, String>>()?;
    let doc = manifest_json(tool, jobs, max_insts, run, summary, &artifacts)?;
    write_atomic(path, &doc).map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_sim::machine;

    fn jobs() -> Vec<Job> {
        vec![
            (Benchmark::Compress, machine::baseline_8way()),
            (Benchmark::Li, machine::baseline_8way()),
            (Benchmark::Compress, machine::dependence_8way()),
        ]
    }

    #[test]
    fn fnv_matches_the_checkpoint_convention() {
        // Same constants as checkpoint::sweep_id: empty input is the
        // offset basis; the hex form is 16 lowercase digits.
        assert_eq!(Fnv64::default().digest(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::default();
        h.eat(b"a");
        assert_eq!(h.hex().len(), 16);
        use std::fmt::Write as _;
        let mut via_fmt = Fnv64::default();
        write!(via_fmt, "a").unwrap();
        assert_eq!(via_fmt.digest(), h.digest());
    }

    /// Cell keys are deterministic, sensitive to every component (code
    /// version, cap, run options, bench, config), and domain-separated
    /// from the sweep-level key of the same single-job sweep.
    #[test]
    fn cell_keys_track_every_component() {
        let job = (Benchmark::Compress, machine::baseline_8way());
        let run = RunOptions::default();
        let base = cell_key_with("v1", &job, 2_000, run).unwrap();
        assert_eq!(base, cell_key_with("v1", &job, 2_000, run).unwrap());
        assert_eq!(base.len(), 16);
        assert_ne!(base, cell_key_with("v2", &job, 2_000, run).unwrap());
        assert_ne!(base, cell_key_with("v1", &job, 3_000, run).unwrap());
        let attributed = RunOptions { attribution: true, ..RunOptions::default() };
        assert_ne!(base, cell_key_with("v1", &job, 2_000, attributed).unwrap());
        let other = (Benchmark::Li, machine::baseline_8way());
        assert_ne!(base, cell_key_with("v1", &other, 2_000, run).unwrap());
        let reconfigured = (Benchmark::Compress, machine::dependence_8way());
        assert_ne!(base, cell_key_with("v1", &reconfigured, 2_000, run).unwrap());
        let sweep = cache_key_with("v1", std::slice::from_ref(&job), 2_000, run).unwrap();
        assert_ne!(base, sweep, "cell and sweep keys must not collide");
    }

    #[test]
    fn trace_fingerprints_are_stable_and_cap_sensitive() {
        let a = trace_fingerprint(Benchmark::Compress, 2_000).unwrap();
        assert_eq!(a, trace_fingerprint(Benchmark::Compress, 2_000).unwrap());
        assert_eq!(a.len(), 16);
        assert_ne!(a, trace_fingerprint(Benchmark::Compress, 3_000).unwrap());
        assert_ne!(a, trace_fingerprint(Benchmark::Li, 2_000).unwrap());
    }

    #[test]
    fn config_fingerprints_track_every_field() {
        let base = machine::baseline_8way();
        let mut tweaked = base;
        tweaked.physical_regs += 1;
        assert_eq!(config_fingerprint(&base), config_fingerprint(&base));
        assert_ne!(config_fingerprint(&base), config_fingerprint(&tweaked));
    }

    /// The cache key is a pure function of (code, trace, config, options):
    /// identical inputs agree; perturbing any one component disagrees.
    #[test]
    fn cache_key_stability_and_perturbation() {
        let jobs = jobs();
        let key = cache_key_with("v1", &jobs, 2_000, RunOptions::default()).unwrap();
        assert_eq!(key, cache_key_with("v1", &jobs, 2_000, RunOptions::default()).unwrap());
        assert_eq!(key.len(), 16);

        // Code perturbation.
        assert_ne!(key, cache_key_with("v2", &jobs, 2_000, RunOptions::default()).unwrap());
        // Trace perturbation (the cap changes every trace's content).
        assert_ne!(key, cache_key_with("v1", &jobs, 2_001, RunOptions::default()).unwrap());
        // Config perturbation.
        let mut tweaked = jobs.clone();
        tweaked[1].1.physical_regs += 8;
        assert_ne!(key, cache_key_with("v1", &tweaked, 2_000, RunOptions::default()).unwrap());
        // Option perturbation (sampled vs exact must never share a key).
        let sampled = RunOptions {
            sampled: Some(ce_sim::SamplingConfig::default()),
            ..RunOptions::default()
        };
        assert_ne!(key, cache_key_with("v1", &jobs, 2_000, sampled).unwrap());
    }

    #[test]
    fn manifest_paths_sit_next_to_results() {
        assert_eq!(
            manifest_path(Path::new("results/fig17_organizations.csv")),
            PathBuf::from("results/fig17_organizations.manifest.json")
        );
    }

    #[test]
    fn artifact_description_hashes_content() {
        let dir = std::env::temp_dir().join(format!("ce-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.csv");
        std::fs::write(&path, "a,b\n1,2\n").unwrap();
        let a = Artifact::describe(&path).unwrap();
        assert_eq!(a.bytes, 8);
        assert_eq!(a.fnv64, fnv_hex("a,b\n1,2\n"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
