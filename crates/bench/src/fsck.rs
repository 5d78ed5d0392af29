//! `cesimd --fsck`: the state-directory recovery auditor.
//!
//! Every durable file the experiment service writes has a loader that
//! already knows how to recover it — the journals drop a torn final line
//! under [`crate::journal`]'s one torn-tail rule, the store deletes
//! unparseable entries. What none of those loaders do is *account* for
//! what they found: a daemon that silently discards a corrupt journal has
//! honored the zero-corruption contract but hidden the evidence. `fsck`
//! walks a state directory and classifies **every** file against the
//! format its location claims — each journal through the very
//! [`Format::parse`](crate::journal::Format::parse) its loader runs, so
//! the audit and the loader can never disagree:
//!
//! | class | meaning | action (`fix`) |
//! |---|---|---|
//! | `valid` | parses completely | none |
//! | `torn-tail` | only the final line is damaged — the `kill -9` mid-append signature — or the journal is empty; the loader recovers everything before it | none (recoverable as-is) |
//! | `orphan-temp` | a `*.tmp.<pid>` left by a crash between create and rename | deleted |
//! | `quarantined` | damage a loader would have to guess about | moved to `<state>/quarantine/`, bytes preserved |
//!
//! Quarantine — not deletion — is the point: recovery code may start
//! fresh (exactly what the loaders would do anyway), but the damaged
//! bytes survive for a post-mortem, and the report says so out loud via
//! `error[fsck]` lines. The daemon runs `fsck` with `fix` on every
//! startup, *before* opening the WAL; `cesimd --fsck` runs it standalone
//! and exits `0` (clean) or `1` (something was quarantined).
//!
//! Scanned formats, which are everything the daemon writes: `jobs.jsonl`
//! (WAL), `telemetry/*.jsonl` (event journals), `store/*.json`
//! (content-addressed results, embedded key checked against the
//! filename), and `artifacts/job-*/manifest.json` with every artifact's
//! size and FNV-64 re-verified against the manifest's record. Files
//! fsck has no format for (the socket, the quarantine area itself,
//! anything an older build left) are left alone.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::journal::JournalClass;
use crate::json::Json;
use crate::manifest::{verify_artifacts, ArtifactFault};

/// What `fsck` concluded about one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Parses completely in the format its location claims.
    Valid,
    /// Only the final line is damaged (`kill -9` mid-append); loaders
    /// recover every complete record before it.
    TornTail,
    /// A `*.tmp.*` tempfile orphaned by a crash between create and
    /// rename; removed under `fix`.
    OrphanTemp,
    /// Damage before the final line, a key mismatch, or a hash mismatch:
    /// moved to `<state>/quarantine/` under `fix`, never served.
    Quarantined,
}

impl FileClass {
    /// The report label (`valid`, `torn-tail`, `orphan-temp`,
    /// `quarantined`).
    pub fn name(self) -> &'static str {
        match self {
            FileClass::Valid => "valid",
            FileClass::TornTail => "torn-tail",
            FileClass::OrphanTemp => "orphan-temp",
            FileClass::Quarantined => "quarantined",
        }
    }
}

/// One audited file.
#[derive(Debug, Clone)]
pub struct FsckItem {
    /// The file as found (pre-quarantine path).
    pub path: PathBuf,
    /// Its classification.
    pub class: FileClass,
    /// One line of why (empty for routine `valid`).
    pub detail: String,
}

/// The full audit: one [`FsckItem`] per classified file.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Every classified file, in scan order.
    pub items: Vec<FsckItem>,
    /// Whether repairs (orphan removal, quarantine moves) were applied.
    pub fixed: bool,
}

impl FsckReport {
    /// Number of files in the given class.
    pub fn count(&self, class: FileClass) -> usize {
        self.items.iter().filter(|i| i.class == class).count()
    }

    /// A clean state dir: nothing needed quarantining. Torn tails and
    /// orphaned tempfiles do **not** spoil cleanliness — they are the
    /// expected residue of a crash, and recovery handles them.
    pub fn clean(&self) -> bool {
        self.count(FileClass::Quarantined) == 0
    }
}

/// The report's human form: one line per non-valid file, `error[fsck]`
/// for each quarantined one, and a closing tally. Valid files are
/// counted but not listed — a healthy store with ten thousand entries
/// should audit in one line.
impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for item in &self.items {
            match item.class {
                FileClass::Valid => {}
                FileClass::Quarantined => writeln!(
                    f,
                    "error[fsck]: quarantined {}: {}",
                    item.path.display(),
                    item.detail
                )?,
                class => writeln!(
                    f,
                    "fsck: {}: {}: {}",
                    class.name(),
                    item.path.display(),
                    item.detail
                )?,
            }
        }
        write!(
            f,
            "fsck: {} file(s): {} valid, {} torn-tail, {} orphan-temp, {} quarantined",
            self.items.len(),
            self.count(FileClass::Valid),
            self.count(FileClass::TornTail),
            self.count(FileClass::OrphanTemp),
            self.count(FileClass::Quarantined),
        )
    }
}

/// Audits a service state directory. With `fix`, orphaned tempfiles are
/// removed and corrupt files are moved (bytes intact) to
/// `<state>/quarantine/`; without it the report is an observation only.
///
/// A missing state dir is a clean (empty) audit — a daemon's first
/// start has nothing to recover.
///
/// # Errors
///
/// Real I/O errors walking directories or moving files into quarantine.
/// A file that *reads* badly is never an error — that is a
/// classification.
pub fn fsck(state_dir: &Path, fix: bool) -> std::io::Result<FsckReport> {
    let mut report = FsckReport { items: Vec::new(), fixed: fix };
    if !state_dir.exists() {
        return Ok(report);
    }

    // Orphaned tempfiles can sit anywhere write_atomic runs, so sweep
    // the whole tree for them first; format checks then skip them.
    let mut temps = Vec::new();
    walk(state_dir, &mut |path| {
        if is_tempfile(path) {
            temps.push(path.to_path_buf());
        }
        Ok(())
    })?;
    for path in temps {
        if fix {
            std::fs::remove_file(&path)?;
        }
        report.items.push(FsckItem {
            path,
            class: FileClass::OrphanTemp,
            detail: "tempfile orphaned between create and rename".into(),
        });
    }

    for (path, class) in journals(state_dir) {
        let (class, detail) = match class {
            JournalClass::Valid => (FileClass::Valid, ""),
            JournalClass::TornTail => {
                (FileClass::TornTail, "torn final line; loader drops it and replays the rest")
            }
            JournalClass::Corrupt => {
                (FileClass::Quarantined, "damage before the final line; cannot be trusted")
            }
        };
        record(state_dir, fix, &mut report, &path, class, detail)?;
    }
    audit_store(state_dir, fix, &mut report)?;
    audit_artifacts(state_dir, fix, &mut report)?;
    Ok(report)
}

/// Depth-first walk over regular files, skipping the quarantine area
/// (already-impounded files must not be re-audited or re-moved).
fn walk(
    dir: &Path,
    visit: &mut impl FnMut(&Path) -> std::io::Result<()>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let kind = entry.file_type()?;
        if kind.is_dir() {
            if path.file_name().is_some_and(|n| n == "quarantine") {
                continue;
            }
            walk(&path, visit)?;
        } else if kind.is_file() {
            visit(&path)?;
        } // sockets, symlinks: not ours to judge
    }
    Ok(())
}

/// `foo.csv.tmp.1234` / `foo.tmp.1234` — the `write_atomic` tempfile
/// shape.
fn is_tempfile(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.ends_with(".tmp") || n.contains(".tmp."))
}

/// Moves a damaged file into `<state>/quarantine/`, preserving its
/// bytes under its original name (suffixed on collision).
fn quarantine(state_dir: &Path, path: &Path) -> std::io::Result<()> {
    let dir = state_dir.join("quarantine");
    std::fs::create_dir_all(&dir)?;
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let mut dest = dir.join(name);
    let mut n = 1;
    while dest.exists() {
        dest = dir.join(format!("{name}.{n}"));
        n += 1;
    }
    std::fs::rename(path, &dest)
}

/// Pushes one verdict, applying the quarantine move under `fix`.
fn record(
    state_dir: &Path,
    fix: bool,
    report: &mut FsckReport,
    path: &Path,
    class: FileClass,
    detail: &str,
) -> std::io::Result<()> {
    if class == FileClass::Quarantined && fix {
        quarantine(state_dir, path)?;
    }
    report.items.push(FsckItem {
        path: path.to_path_buf(),
        class,
        detail: detail.into(),
    });
    Ok(())
}

/// The state dir's journals, each with the structural verdict of the
/// parse its loader runs: the jobs WAL, then every telemetry journal.
fn journals(state_dir: &Path) -> Vec<(PathBuf, JournalClass)> {
    let read = |path: &Path| std::fs::read(path).unwrap_or_default();
    let mut found = Vec::new();
    #[cfg(unix)]
    {
        let wal = state_dir.join("jobs.jsonl");
        if wal.is_file() {
            found.push((wal.clone(), crate::service::WAL.classify(&read(&wal))));
        }
    }
    for path in files_in(&state_dir.join("telemetry")) {
        if path.extension().is_some_and(|x| x == "jsonl") {
            found.push((path.clone(), crate::telemetry::FORMAT.classify(&read(&path))));
        }
    }
    found
}

/// Store entries: each `<key>.json` must parse completely *and* embed
/// the key its filename claims. Store writes are atomic, so there is no
/// torn-tail grace here — anything short of valid is quarantined.
fn audit_store(
    state_dir: &Path,
    fix: bool,
    report: &mut FsckReport,
) -> std::io::Result<()> {
    let Ok(entries) = std::fs::read_dir(state_dir.join("store")) else {
        return Ok(());
    };
    let mut paths: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file() && !is_tempfile(p) && p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let key = path.file_stem().and_then(|s| s.to_str()).unwrap_or("").to_owned();
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        match crate::store::validate_entry_text(&text, &key) {
            Ok(()) => record(state_dir, fix, report, &path, FileClass::Valid, "")?,
            Err(why) => record(state_dir, fix, report, &path, FileClass::Quarantined, &why)?,
        }
    }
    Ok(())
}

/// Artifact directories: a `manifest.json` must parse, and every
/// artifact it lists must exist with the recorded byte count and FNV-64.
/// A mismatched artifact quarantines both the file *and* its manifest —
/// a manifest attesting to bytes that are gone is itself misleading. A
/// directory without a manifest is the in-flight shape (the WAL still
/// owes the job an execution that will rewrite it): torn-tail, not
/// corrupt.
fn audit_artifacts(
    state_dir: &Path,
    fix: bool,
    report: &mut FsckReport,
) -> std::io::Result<()> {
    let Ok(entries) = std::fs::read_dir(state_dir.join("artifacts")) else {
        return Ok(());
    };
    let mut dirs: Vec<PathBuf> =
        entries.flatten().map(|e| e.path()).filter(|p| p.is_dir()).collect();
    dirs.sort();
    for dir in dirs {
        audit_artifact_dir(&dir, state_dir, fix, report)?;
    }
    Ok(())
}

fn audit_artifact_dir(
    dir: &Path,
    state_dir: &Path,
    fix: bool,
    report: &mut FsckReport,
) -> std::io::Result<()> {
    let manifest = dir.join("manifest.json");
    let Ok(text) = std::fs::read_to_string(&manifest) else {
        for path in files_in(dir) {
            record(
                state_dir,
                fix,
                report,
                &path,
                FileClass::TornTail,
                "no manifest yet; the WAL replay rewrites this directory",
            )?;
        }
        return Ok(());
    };
    let doc = match Json::parse(&text) {
        Ok(doc) if doc.at("schema").and_then(Json::as_str)
            == Some(crate::manifest::MANIFEST_SCHEMA) => doc,
        _ => {
            // An unreadable manifest impeaches the whole directory: the
            // artifacts' provenance is exactly what it was attesting.
            record(
                state_dir,
                fix,
                report,
                &manifest,
                FileClass::Quarantined,
                "manifest unparseable or wrong schema",
            )?;
            for path in files_in(dir) {
                record(
                    state_dir,
                    fix,
                    report,
                    &path,
                    FileClass::TornTail,
                    "attested only by a quarantined manifest; replay rewrites it",
                )?;
            }
            return Ok(());
        }
    };
    let (mut bad, mut verified) = (Vec::new(), Vec::new());
    for checked in verify_artifacts(&doc, dir) {
        match checked {
            Ok(path) => verified.push(path),
            Err(ArtifactFault::NoPath) => {
                bad.push((manifest.clone(), "artifact entry without a path".to_owned()));
            }
            Err(ArtifactFault::Unreadable { path, .. }) => {
                bad.push((path, "listed in manifest but missing".to_owned()));
            }
            Err(ArtifactFault::Mismatch { found, .. }) => bad.push((
                found.path,
                format!(
                    "content does not match manifest ({} bytes, fnv64 {})",
                    found.bytes, found.fnv64
                ),
            )),
        }
    }
    if bad.is_empty() {
        record(state_dir, fix, report, &manifest, FileClass::Valid, "")?;
        for path in verified {
            record(state_dir, fix, report, &path, FileClass::Valid, "")?;
        }
    } else {
        for path in verified {
            record(state_dir, fix, report, &path, FileClass::Valid, "")?;
        }
        for (path, why) in bad {
            if path.exists() {
                record(state_dir, fix, report, &path, FileClass::Quarantined, &why)?;
            } else {
                report.items.push(FsckItem { path, class: FileClass::Quarantined, detail: why });
            }
        }
        record(
            state_dir,
            fix,
            report,
            &manifest,
            FileClass::Quarantined,
            "attests to artifacts that failed verification",
        )?;
    }
    Ok(())
}

fn files_in(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file() && !is_tempfile(p))
        .collect();
    paths.sort();
    paths
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ce-fsck-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn missing_state_dir_is_clean() {
        let report =
            fsck(Path::new("/nonexistent/ce-fsck-nowhere"), false).unwrap();
        assert!(report.clean());
        assert!(report.items.is_empty());
    }

    /// The orphan-sweep regression (satellite 1): tempfiles anywhere in
    /// the tree are reported, and removed only under `fix`.
    #[test]
    fn orphan_tempfiles_are_swept() {
        let dir = state("orphans");
        std::fs::create_dir_all(dir.join("store")).unwrap();
        let orphan = dir.join("store").join("00aa.tmp.9999");
        std::fs::write(&orphan, "half a file").unwrap();

        let report = fsck(&dir, false).unwrap();
        assert_eq!(report.count(FileClass::OrphanTemp), 1);
        assert!(orphan.exists(), "observe-only audit must not delete");
        assert!(report.clean(), "orphans are residue, not corruption");

        let report = fsck(&dir, true).unwrap();
        assert_eq!(report.count(FileClass::OrphanTemp), 1);
        assert!(!orphan.exists(), "fix sweeps the orphan");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Unix only: the WAL's loader lives in the daemon's module.
    #[cfg(unix)]
    mod agreement {
        use super::*;
        use crate::journal::tests::shapes;

        /// One journal kind: where it lives in a state dir, a header and
        /// two records its real writer produced, and its loader, reduced
        /// to how many records it keeps (`None`: it discards the journal).
        struct Kind {
            path: &'static str,
            lines: Vec<String>,
            load: fn(&[u8]) -> Option<usize>,
        }

        fn kinds(scratch: &Path) -> Vec<Kind> {
            use crate::telemetry::{Event, Telemetry, TelemetryConfig};
            let config = TelemetryConfig {
                name: "k".into(),
                journal: Some(scratch.join("k.tel.jsonl")),
                ..TelemetryConfig::default()
            };
            let tel = Telemetry::create(&config, vec![1, 1], 100).unwrap();
            tel.emit(Event::CacheHit { cell: 0 });
            tel.emit(Event::CacheHit { cell: 1 });
            let spec_json = crate::api::JobSpec::preset(crate::api::SweepKind::Fig13);
            vec![
                Kind {
                    path: "jobs.jsonl",
                    lines: vec![
                        crate::service::wal_header(3),
                        crate::service::submitted_record(1, &spec_json, false),
                        crate::service::submitted_record(2, &spec_json, false),
                    ],
                    load: |b| Some(crate::service::parse_wal(b).ok()?.0.len()),
                },
                Kind {
                    path: "telemetry/job-1.exec-0.jsonl",
                    lines: std::fs::read_to_string(scratch.join("k.tel.jsonl"))
                        .unwrap()
                        .lines()
                        .map(str::to_owned)
                        .collect(),
                    load: |b| {
                        let text = std::str::from_utf8(b).ok()?;
                        Some(crate::telemetry::HealthReport::from_journal(text).ok()?.cache_hits)
                    },
                },
            ]
        }

        /// The loader/`fsck` agreement table: every journal kind the
        /// daemon writes and `fsck` read the same fixtures to the same
        /// verdict — records kept with the file left in place (valid, or
        /// a dropped torn tail), or the journal discarded and
        /// quarantined, bytes intact. (The CLI's checkpoint journal is
        /// held to the same shapes in `checkpoint`'s tests.)
        #[test]
        fn loaders_and_fsck_agree_on_every_journal_shape() {
            let root = state("agree");
            for kind in kinds(&root) {
                for (shape, text, kept, class) in shapes(&kind.lines) {
                    let class = match class {
                        JournalClass::Valid => FileClass::Valid,
                        JournalClass::TornTail => FileClass::TornTail,
                        JournalClass::Corrupt => FileClass::Quarantined,
                    };
                    let case = format!("{} / {shape}", kind.path);
                    let dir = state("agree-case");
                    let path = dir.join(kind.path);
                    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                    std::fs::write(&path, &text).unwrap();

                    assert_eq!((kind.load)(text.as_bytes()), kept, "{case}: loader");
                    let report = fsck(&dir, true).unwrap();
                    let item = report.items.iter().find(|i| i.path == path).expect("audited");
                    assert_eq!(item.class, class, "{case}: fsck");
                    if class == FileClass::Quarantined {
                        assert!(!path.exists(), "{case}: moved out of the state dir");
                        let name = path.file_name().unwrap();
                        let moved = std::fs::read(dir.join("quarantine").join(name)).unwrap();
                        assert_eq!(moved, text.as_bytes(), "{case}: bytes preserved");
                        assert!(report.to_string().contains("error[fsck]"), "{case}: loud");
                    } else {
                        assert!(report.clean() && path.exists(), "{case}: left for its loader");
                    }
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    /// A store entry renamed to another key must be caught even though
    /// it parses perfectly — serving it would answer the wrong cell.
    #[test]
    fn store_key_mismatch_is_quarantined() {
        let dir = state("store-key");
        let store = dir.join("store");
        std::fs::create_dir_all(&store).unwrap();
        std::fs::write(
            store.join("aaaa.json"),
            "{\"ce_result\": 1, \"key\": \"bbbb\", \"code_version\": \"v\", \
             \"wall_us\": 1, \"stats\": {}}",
        )
        .unwrap();
        let report = fsck(&dir, true).unwrap();
        assert_eq!(report.count(FileClass::Quarantined), 1);
        assert!(dir.join("quarantine").join("aaaa.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Artifact verification: a flipped byte in a CSV is caught by the
    /// manifest's FNV-64, and both the artifact and the manifest land in
    /// quarantine.
    #[test]
    fn artifact_hash_mismatch_quarantines_file_and_manifest() {
        let dir = state("artifact");
        let job = dir.join("artifacts").join("job-1");
        std::fs::create_dir_all(&job).unwrap();
        let csv = job.join("out.csv");
        std::fs::write(&csv, "a,b\n1,2\n").unwrap();
        let described = crate::manifest::Artifact::describe(&csv).unwrap();
        std::fs::write(
            job.join("manifest.json"),
            format!(
                "{{\"schema\": \"{}\", \"artifacts\": [{{\"path\": \"{}\", \
                 \"bytes\": {}, \"fnv64\": \"{}\"}}]}}",
                crate::manifest::MANIFEST_SCHEMA,
                csv.display(),
                described.bytes,
                described.fnv64
            ),
        )
        .unwrap();
        assert!(fsck(&dir, false).unwrap().clean(), "intact artifacts audit clean");

        std::fs::write(&csv, "a,b\n1,X\n").unwrap(); // flip a byte, same length
        let report = fsck(&dir, true).unwrap();
        assert_eq!(report.count(FileClass::Quarantined), 2, "{report}");
        assert!(!csv.exists());
        assert!(!job.join("manifest.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A manifest-less artifact directory is the in-flight shape — the
    /// job's WAL entry still owes an execution — so it is recoverable,
    /// not corrupt.
    #[test]
    fn manifestless_artifacts_are_torn_tail() {
        let dir = state("inflight");
        let job = dir.join("artifacts").join("job-2");
        std::fs::create_dir_all(&job).unwrap();
        std::fs::write(job.join("out.csv"), "partial").unwrap();
        let report = fsck(&dir, false).unwrap();
        assert_eq!(report.count(FileClass::TornTail), 1);
        assert!(report.clean());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
