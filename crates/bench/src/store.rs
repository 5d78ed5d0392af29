//! The on-disk content-addressed result store.
//!
//! One file per simulated cell, named by the cell's identity hash
//! ([`crate::manifest::cell_key_with`]): `<root>/<key>.json`. The key
//! already folds in the code version, the benchmark trace fingerprint,
//! the full config fingerprint, the instruction cap, and the run
//! options — so a lookup by key *is* the cache-validity check for
//! everything except one hazard: the key is a 64-bit hash, and an
//! entry written by an older code version could in principle collide
//! with a current key. Each entry therefore also records the
//! `code_version` string in the clear, and [`ResultStore::lookup`]
//! treats a mismatch as [`Lookup::Stale`] — the entry is deleted, never
//! silently served. (Each build's code version is a digest of the
//! simulating crates' sources; see [`crate::manifest::code_version`].)
//!
//! Entries are written with [`checkpoint::write_atomic`] (tempfile +
//! rename), so a `kill -9` mid-insert leaves either the old entry or
//! the complete new one, never a torn file. Unparseable entries read
//! back as misses and are deleted. The store takes the code version as
//! an explicit argument rather than reading the environment, so
//! parallel tests (and a daemon serving differently-pinned clients)
//! stay race-free.

use std::path::{Path, PathBuf};

use crate::checkpoint::{
    self, sampled_from_json, sampled_to_json, stats_from_json, stats_to_json,
};
use crate::json::{self, Json};
use crate::runner::TimedResult;
use std::time::Duration;

/// Format marker of a store entry.
const ENTRY_VERSION: u64 = 1;

/// A content-addressed store of completed cell results.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
}

/// Outcome of a store lookup.
#[derive(Debug, Clone)]
pub enum Lookup {
    /// A valid entry for this key and code version. Boxed: a result
    /// carries full stall/occupancy breakdowns, far larger than the
    /// data-free variants.
    Hit(Box<TimedResult>),
    /// No entry (or an unreadable one, which was discarded).
    Miss,
    /// An entry existed but was written by a different code version; it
    /// has been invalidated (deleted), not served.
    Stale,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// The directory-creation error.
    pub fn open(root: &Path) -> std::io::Result<ResultStore> {
        std::fs::create_dir_all(root)?;
        Ok(ResultStore { root: root.to_owned() })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.json"))
    }

    /// Looks a cell up by its identity key under the given code version.
    pub fn lookup(&self, key: &str, code_version: &str) -> Lookup {
        let path = self.entry_path(key);
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Lookup::Miss;
        };
        match parse_entry(&text) {
            Some((entry_code, result)) if entry_code == code_version => {
                Lookup::Hit(Box::new(result))
            }
            Some(_) => {
                // Written by another build: a 64-bit key collision across
                // versions must invalidate, not serve.
                let _ = std::fs::remove_file(&path);
                Lookup::Stale
            }
            None => {
                let _ = std::fs::remove_file(&path);
                Lookup::Miss
            }
        }
    }

    /// Stores a cell result under its identity key.
    ///
    /// # Errors
    ///
    /// The underlying write error (callers surface it as `error[io]`; a
    /// failed insert never corrupts an existing entry thanks to the
    /// atomic write).
    pub fn insert(
        &self,
        key: &str,
        code_version: &str,
        result: &TimedResult,
    ) -> std::io::Result<()> {
        let mut entry = format!(
            "{{\"ce_result\": {ENTRY_VERSION}, \"key\": \"{}\", \"code_version\": \"{}\", \
             \"wall_us\": {}, \"stats\": {}",
            json::escape(key),
            json::escape(code_version),
            result.wall.as_micros(),
            stats_to_json(&result.stats),
        );
        if let Some(sampled) = &result.sampled {
            entry.push_str(", \"sampled\": ");
            entry.push_str(&sampled_to_json(sampled));
        }
        entry.push('}');
        checkpoint::write_atomic(&self.entry_path(key), &entry)
    }

    /// Number of entries currently on disk.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.root)
            .map(|dir| {
                dir.flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Structural validation of one store entry's text against the key its
/// filename claims (`<key>.json`), for `fsck`: the entry must parse
/// completely *and* embed the same key — a mismatch means the file was
/// renamed, truncated-and-rewritten, or otherwise tampered with, and
/// serving it would silently answer the wrong cell.
///
/// # Errors
///
/// A one-line description of what is wrong.
pub fn validate_entry_text(text: &str, key: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("unparseable entry: {e}"))?;
    if doc.at("ce_result").and_then(Json::as_u64) != Some(ENTRY_VERSION) {
        return Err("missing or wrong ce_result version tag".into());
    }
    match doc.at("key").and_then(Json::as_str) {
        Some(embedded) if embedded == key => {}
        Some(embedded) => {
            return Err(format!("embedded key {embedded} does not match filename key {key}"))
        }
        None => return Err("entry has no embedded key".into()),
    }
    if parse_entry(text).is_none() {
        return Err("stats block incomplete or ill-typed".into());
    }
    Ok(())
}

fn parse_entry(text: &str) -> Option<(String, TimedResult)> {
    let doc = Json::parse(text).ok()?;
    if doc.at("ce_result").and_then(Json::as_u64) != Some(ENTRY_VERSION) {
        return None;
    }
    let code = doc.at("code_version").and_then(Json::as_str)?.to_owned();
    let stats = stats_from_json(doc.at("stats")?)?;
    let sampled = match doc.at("sampled") {
        Some(s) => Some(sampled_from_json(s)?),
        None => None,
    };
    let wall = Duration::from_micros(doc.at("wall_us").and_then(Json::as_u64)?);
    Some((code, TimedResult { stats, sampled, wall }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::cell_key_with;
    use crate::runner::{run_sweep_ft, RunOptions, SweepOptions};
    use ce_workloads::Benchmark;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ce-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn one_result() -> TimedResult {
        let jobs = vec![(Benchmark::Compress, ce_sim::machine::baseline_8way())];
        let summary = run_sweep_ft(&jobs, 2_000, &SweepOptions::default()).unwrap();
        summary.cells[0].clone().unwrap()
    }

    /// Round-trip through the store: stats (including histogram and
    /// stall breakdown) and wall time survive; a second lookup still
    /// hits; unknown keys miss.
    #[test]
    fn insert_then_lookup_round_trips() {
        let dir = tmpdir("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty());
        let result = one_result();
        let job = (Benchmark::Compress, ce_sim::machine::baseline_8way());
        let key = cell_key_with("v1", &job, 2_000, RunOptions::default()).unwrap();
        store.insert(&key, "v1", &result).unwrap();
        assert_eq!(store.len(), 1);
        match store.lookup(&key, "v1") {
            Lookup::Hit(got) => {
                assert_eq!(got.stats, result.stats);
                assert_eq!(got.sampled, result.sampled);
                assert_eq!(got.wall.as_micros(), result.wall.as_micros());
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(matches!(store.lookup("feedfacefeedface", "v1"), Lookup::Miss));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The stale-cache hazard regression (satellite 6): an entry written
    /// under one code version is *invalidated* — not served — when looked
    /// up under another, and the file is gone afterwards so the next
    /// lookup is a plain miss that will re-run the cell.
    #[test]
    fn code_version_change_invalidates_instead_of_serving() {
        let dir = tmpdir("stale");
        let store = ResultStore::open(&dir).unwrap();
        let result = one_result();
        store.insert("00deadbeef00", "build-A", &result).unwrap();
        assert!(matches!(store.lookup("00deadbeef00", "build-B"), Lookup::Stale));
        assert_eq!(store.len(), 0, "stale entry must be deleted");
        assert!(matches!(store.lookup("00deadbeef00", "build-B"), Lookup::Miss));
        // Same-version lookups still work end to end.
        store.insert("00deadbeef00", "build-B", &result).unwrap();
        assert!(matches!(store.lookup("00deadbeef00", "build-B"), Lookup::Hit(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Corrupt entries read back as misses and are cleaned up.
    #[test]
    fn corruption_is_a_miss() {
        let dir = tmpdir("corrupt");
        let store = ResultStore::open(&dir).unwrap();
        std::fs::write(store.root().join("abc.json"), "{\"ce_result\": 1, \"tr").unwrap();
        assert!(matches!(store.lookup("abc", "v1"), Lookup::Miss));
        assert_eq!(store.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
