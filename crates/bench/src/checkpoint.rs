//! Sweep checkpoint/resume: a journal of completed cells that survives
//! `kill -9`, plus atomic result-file writes.
//!
//! ## Journal format (`results/*.ckpt.jsonl`)
//!
//! A [`crate::journal`] file tagged `ce_sweep_ckpt`, one completed cell
//! per record:
//!
//! ```text
//! {"ce_sweep_ckpt": 1, "sweep": "<16-hex sweep id>", "cells": N}
//! {"cell": 3, "wall_us": 1234, "stats": {...every SimStats counter...}}
//! {"cell": 7, "wall_us": 99, "stats": {...}, "sampled": {...SampledStats...}}
//! …
//! ```
//!
//! Cells run under sampled simulation append a `"sampled"` block with the
//! full measurement ([`SampledStats`]); exact cells omit it. The sampling
//! geometry is part of the run options and therefore of the sweep id, so
//! an exact journal can never be replayed into a sampled sweep.
//!
//! The header pins a *sweep identity* — a hash over the job list, the
//! instruction cap, and the run options — so a stale journal from a
//! different sweep (or the same sweep at a different cap) is discarded
//! rather than replayed into the wrong grid. Each completed cell is
//! appended before the worker moves on, so a process killed mid-sweep
//! loses at most the cells in flight. Loading follows the journal
//! module's torn-tail rule: a damaged final line is dropped (and cut off
//! the file before the next append), damage anywhere else discards the
//! whole journal — resuming from bytes we cannot trust would be worse
//! than redoing the work. A failed append is rolled back on the spot, so
//! the sweep's later cells still journal cleanly.
//!
//! Statistics are journaled losslessly: every `u64` counter in
//! [`SimStats`] round-trips exactly (counters sit far below 2^53, the
//! reader's f64 mantissa limit), so a resumed sweep's CSV output is
//! **byte-identical** to an uninterrupted run — `tests/fault_tolerance.rs`
//! kills a real sweep binary mid-run and diffs the bytes to pin this.
//!
//! The journal is removed once the sweep completes with zero failures;
//! result CSVs themselves are written via [`write_atomic`]
//! (tempfile + rename), so readers never observe a half-written table.

use std::path::{Path, PathBuf};
use std::time::Duration;

use ce_sim::{SampledStats, SimStats, StallCause};

use crate::journal::{Appender, Format};
use crate::json::Json;
use crate::runner::{Job, RunOptions, TimedResult};

/// The checkpoint journal: tag `ce_sweep_ckpt`, one `(cell, result)` per
/// record.
pub const FORMAT: Format<(usize, TimedResult)> =
    Format { tag: "ce_sweep_ckpt", decode: decode_cell };

/// Where a sweep checkpoints, and whether to load what is already there.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Journal path (conventionally `results/<sweep>.ckpt.jsonl`).
    pub path: PathBuf,
    /// Load completed cells from an existing journal (`--resume`); when
    /// `false` any existing journal is overwritten.
    pub resume: bool,
}

impl CheckpointSpec {
    /// The conventional journal path for a result file:
    /// `results/foo.csv` → `results/foo.ckpt.jsonl`.
    pub fn for_output(out: &Path, resume: bool) -> CheckpointSpec {
        let stem = out.file_stem().and_then(|s| s.to_str()).unwrap_or("sweep");
        let path = out.with_file_name(format!("{stem}.ckpt.jsonl"));
        CheckpointSpec { path, resume }
    }
}

/// Identity of a sweep: an FNV-1a hash over the
/// [code version](crate::manifest::code_version), every job's debug form,
/// the instruction cap, and the run options. Two invocations of one build
/// with the same grid get the same id; any change to the build, grid, cap
/// or options changes it and invalidates old journals.
pub fn sweep_id(jobs: &[Job], max_insts: u64, opts: RunOptions) -> u64 {
    let mut h = crate::manifest::Fnv64::default();
    let code = crate::manifest::code_version();
    h.eat(format!("code={code} max_insts={max_insts} opts={opts:?}").as_bytes());
    for job in jobs {
        h.eat(format!("{job:?}").as_bytes());
    }
    h.digest()
}

/// An open, appendable sweep journal. Appends go through the
/// [`crate::journal`] appender one complete line at a time, so a failed
/// append never leaves a torn line for the next record to land on.
#[derive(Debug)]
pub struct Journal {
    log: Appender,
    path: PathBuf,
}

impl Journal {
    /// Opens the journal for a sweep: loads any completed cells recorded
    /// for the same sweep id (when `spec.resume`), then positions the
    /// file for appending. Returns the journal and the recovered cells
    /// (input-order slots, `None` where work remains).
    ///
    /// # Errors
    ///
    /// I/O errors creating, reading, or truncating the journal file. A
    /// journal that exists but fails validation (wrong sweep id, wrong
    /// cell count, mid-file corruption) is *not* an error — it is
    /// discarded and the sweep starts fresh.
    pub fn open(
        spec: &CheckpointSpec,
        id: u64,
        cells: usize,
    ) -> std::io::Result<(Journal, Vec<Option<TimedResult>>)> {
        let loaded = if spec.resume {
            std::fs::read(&spec.path).ok().and_then(|bytes| load(&bytes, id, cells))
        } else {
            None
        };
        let (log, recovered) = match loaded {
            // Resuming cuts a torn tail off before the first append.
            Some((recovered, len)) if len > 0 => {
                (Appender::resume(&spec.path, len, false)?, recovered)
            }
            _ => {
                let fields = format!("\"sweep\": \"{id:016x}\", \"cells\": {cells}");
                (Appender::create(&spec.path, &FORMAT.header(&fields), false)?, vec![None; cells])
            }
        };
        Ok((Journal { log, path: spec.path.clone() }, recovered))
    }

    /// Appends one completed cell as a single unbuffered write, so the
    /// record survives an immediate `kill -9`.
    ///
    /// # Errors
    ///
    /// I/O errors from the append (injected faults included); the failed
    /// record is rolled back, so the journal stays loadable.
    pub fn record(&mut self, cell: usize, result: &TimedResult) -> std::io::Result<()> {
        let sampled = match &result.sampled {
            Some(s) => format!(", \"sampled\": {}", sampled_to_json(s)),
            None => String::new(),
        };
        self.log.append(format!(
            "{{\"cell\": {cell}, \"wall_us\": {}, \"stats\": {}{sampled}}}",
            result.wall.as_micros(),
            stats_to_json(&result.stats)
        ))
    }

    /// Removes the journal — the sweep completed and its results were
    /// written, so there is nothing left to resume.
    pub fn finish(self) {
        drop(self.log);
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The cells a journal recovers for this sweep, plus the byte length of
/// its trusted prefix (0 for an empty journal, which holds no header to
/// append after). `None` when the journal belongs to another sweep or
/// cannot be trusted.
pub(crate) fn load(
    bytes: &[u8],
    id: u64,
    cells: usize,
) -> Option<(Vec<Option<TimedResult>>, u64)> {
    let parsed = FORMAT.parse(bytes).ok()?;
    let mut recovered: Vec<Option<TimedResult>> = vec![None; cells];
    let Some(header) = parsed.header else {
        return Some((recovered, 0));
    };
    if header.at("sweep").and_then(Json::as_str) != Some(format!("{id:016x}").as_str())
        || header.at("cells").and_then(Json::as_u64) != Some(cells as u64)
    {
        return None;
    }
    for (cell, result) in parsed.records {
        *recovered.get_mut(cell)? = Some(result);
    }
    Some((recovered, parsed.len))
}

/// Decodes one [`Journal::record`] line. A cell journaled without a
/// sampled block was an exact run; a present-but-malformed block is
/// damage like any other.
fn decode_cell(doc: Json) -> Option<(usize, TimedResult)> {
    let cell = usize::try_from(doc.at("cell")?.as_u64()?).ok()?;
    let wall = Duration::from_micros(doc.at("wall_us")?.as_u64()?);
    let stats = stats_from_json(doc.at("stats")?)?;
    let sampled = match doc.at("sampled") {
        Some(s) => Some(sampled_from_json(s)?),
        None => None,
    };
    Some((cell, TimedResult { stats, sampled, wall }))
}

/// Serializes every [`SimStats`] counter to a JSON object, losslessly.
pub(crate) fn stats_to_json(s: &SimStats) -> String {
    let hist =
        s.issue_histogram.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    let stalls = StallCause::ALL
        .iter()
        .map(|&c| s.stall_breakdown.get(c).to_string())
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"cycles\": {}, \"committed\": {}, \"issued\": {}, \"branches\": {}, \
         \"mispredictions\": {}, \"loads\": {}, \"stores\": {}, \"dcache_misses\": {}, \
         \"dcache_accesses\": {}, \"forwarded_loads\": {}, \"intercluster_bypasses\": {}, \
         \"dispatch_stall_cycles\": {}, \"scheduler_stalls\": {}, \"inflight_stalls\": {}, \
         \"preg_stalls\": {}, \"occupancy_sum\": {}, \"wrong_path_fetched\": {}, \
         \"wrong_path_issued\": {}, \"issue_histogram\": [{}], \"stall_breakdown\": [{}]}}",
        s.cycles,
        s.committed,
        s.issued,
        s.branches,
        s.mispredictions,
        s.loads,
        s.stores,
        s.dcache_misses,
        s.dcache_accesses,
        s.forwarded_loads,
        s.intercluster_bypasses,
        s.dispatch_stall_cycles,
        s.scheduler_stalls,
        s.inflight_stalls,
        s.preg_stalls,
        s.occupancy_sum,
        s.wrong_path_fetched,
        s.wrong_path_issued,
        hist,
        stalls,
    )
}

/// Serializes a [`SampledStats`] measurement to a JSON object,
/// losslessly (all counters are `u64`, well under the reader's 2^53
/// mantissa limit — and held exact as [`Json::Int`] anyway).
pub(crate) fn sampled_to_json(s: &SampledStats) -> String {
    format!(
        "{{\"total_insts\": {}, \"windows\": {}, \"detailed_insts\": {}, \
         \"measured_insts\": {}, \"measured_cycles\": {}, \"est_cycles\": {}, \
         \"exact\": {}}}",
        s.total_insts,
        s.windows,
        s.detailed_insts,
        s.measured_insts,
        s.measured_cycles,
        s.est_cycles,
        s.exact,
    )
}

/// Reads a [`sampled_to_json`] object back; `None` on any missing or
/// ill-typed field.
pub(crate) fn sampled_from_json(doc: &Json) -> Option<SampledStats> {
    let field = |name: &str| doc.at(name).and_then(Json::as_u64);
    Some(SampledStats {
        total_insts: field("total_insts")?,
        windows: u32::try_from(field("windows")?).ok()?,
        detailed_insts: field("detailed_insts")?,
        measured_insts: field("measured_insts")?,
        measured_cycles: field("measured_cycles")?,
        est_cycles: field("est_cycles")?,
        exact: doc.at("exact")?.as_bool()?,
    })
}

/// Reads a [`stats_to_json`] object back; `None` on any missing or
/// ill-typed field.
pub(crate) fn stats_from_json(doc: &Json) -> Option<SimStats> {
    let field = |name: &str| doc.at(name).and_then(Json::as_u64);
    let mut s = SimStats {
        cycles: field("cycles")?,
        committed: field("committed")?,
        issued: field("issued")?,
        branches: field("branches")?,
        mispredictions: field("mispredictions")?,
        loads: field("loads")?,
        stores: field("stores")?,
        dcache_misses: field("dcache_misses")?,
        dcache_accesses: field("dcache_accesses")?,
        forwarded_loads: field("forwarded_loads")?,
        intercluster_bypasses: field("intercluster_bypasses")?,
        dispatch_stall_cycles: field("dispatch_stall_cycles")?,
        scheduler_stalls: field("scheduler_stalls")?,
        inflight_stalls: field("inflight_stalls")?,
        preg_stalls: field("preg_stalls")?,
        occupancy_sum: field("occupancy_sum")?,
        wrong_path_fetched: field("wrong_path_fetched")?,
        wrong_path_issued: field("wrong_path_issued")?,
        ..SimStats::default()
    };
    let hist = doc.at("issue_histogram")?.as_arr()?;
    if hist.len() != s.issue_histogram.len() {
        return None;
    }
    for (slot, v) in s.issue_histogram.iter_mut().zip(hist) {
        *slot = v.as_u64()?;
    }
    let stalls = doc.at("stall_breakdown")?.as_arr()?;
    if stalls.len() != StallCause::COUNT {
        return None;
    }
    for (&cause, v) in StallCause::ALL.iter().zip(stalls) {
        s.stall_breakdown.charge(cause, v.as_u64()?);
    }
    Some(s)
}

/// Writes `content` to `path` atomically: tempfile in the same
/// directory, write, **fsync**, then rename over the target. Readers
/// (and a `kill -9`) never observe a half-written file, and the fsync
/// before the rename means the rename can never install a file whose
/// bytes a power cut could still lose.
///
/// Every step goes through [`crate::iofault`], so injected `ENOSPC`,
/// `EIO`, torn-write, and failed-fsync faults surface here as ordinary
/// errors — with the guarantee that a failure leaves the *old* target
/// intact and no tempfile behind (a crash between create and rename can
/// still orphan one; `cesimd --fsck` sweeps those).
///
/// # Errors
///
/// I/O errors from the write, fsync, or rename; the tempfile is cleaned
/// up on failure.
pub fn write_atomic(path: &Path, content: &str) -> std::io::Result<()> {
    create_parent(path)?;
    let tmp = path.with_extension(format!(
        "tmp.{}",
        std::process::id(),
    ));
    let result = (|| {
        let mut file = crate::iofault::create(&tmp)?;
        crate::iofault::write_all(&mut file, content.as_bytes())?;
        crate::iofault::sync(&file)?;
        drop(file);
        crate::iofault::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Creates the directory `path` sits in, if it names one.
pub(crate) fn create_parent(path: &Path) -> std::io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_workloads::Benchmark;
    use std::time::Duration;

    fn sample_stats(seed: u64) -> SimStats {
        let mut s = SimStats {
            cycles: 1000 + seed,
            committed: 2000 + seed,
            issued: 2000 + seed,
            occupancy_sum: u64::MAX / 3, // large counters must round-trip
            ..SimStats::default()
        };
        s.issue_histogram[3] = 17 + seed;
        s.stall_breakdown.charge(StallCause::OperandWait, 40 + seed);
        s
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ce-ckpt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn stats_round_trip_losslessly() {
        let s = sample_stats(3);
        let back = stats_from_json(&Json::parse(&stats_to_json(&s)).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn journal_records_and_resumes() {
        let dir = temp_dir("resume");
        let spec = CheckpointSpec::for_output(&dir.join("t.csv"), true);
        assert!(spec.path.ends_with("t.ckpt.jsonl"));

        let (mut j, recovered) = Journal::open(&spec, 42, 3).unwrap();
        assert!(recovered.iter().all(Option::is_none));
        j.record(1, &TimedResult { stats: sample_stats(1), sampled: None, wall: Duration::from_micros(7) })
            .unwrap();
        drop(j); // simulate dying mid-sweep

        let (_j, recovered) = Journal::open(&spec, 42, 3).unwrap();
        assert!(recovered[0].is_none() && recovered[2].is_none());
        let got = recovered[1].as_ref().expect("cell 1 recovered");
        assert_eq!(got.stats, sample_stats(1));
        assert_eq!(got.wall, Duration::from_micros(7));

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sampled cell's measurement block round-trips exactly alongside
    /// its stats, and exact cells keep journaling without one — the two
    /// kinds coexist in one journal.
    #[test]
    fn sampled_cells_round_trip_through_the_journal() {
        let dir = temp_dir("sampled");
        let spec = CheckpointSpec::for_output(&dir.join("t.csv"), true);
        let sampled = SampledStats {
            total_insts: 1_000_000,
            windows: 326,
            detailed_insts: 250_000,
            measured_insts: 166_912,
            measured_cycles: 61_234,
            est_cycles: 366_894,
            exact: false,
        };
        let (mut j, _) = Journal::open(&spec, 11, 2).unwrap();
        j.record(
            0,
            &TimedResult {
                stats: sample_stats(0),
                sampled: Some(sampled),
                wall: Duration::from_micros(3),
            },
        )
        .unwrap();
        j.record(1, &TimedResult { stats: sample_stats(1), sampled: None, wall: Duration::ZERO })
            .unwrap();
        drop(j);

        let (_j, recovered) = Journal::open(&spec, 11, 2).unwrap();
        let got = recovered[0].as_ref().expect("sampled cell recovered");
        assert_eq!(got.sampled, Some(sampled));
        assert_eq!(got.stats, sample_stats(0));
        assert_eq!(got.wall, Duration::from_micros(3));
        assert!(recovered[1].as_ref().expect("exact cell recovered").sampled.is_none());

        std::fs::remove_dir_all(&dir).ok();
    }

    /// The loader keeps records exactly where the format's classifier
    /// (what `fsck` reports for a journal of this format) calls the file
    /// valid or torn-tail, and discards it exactly where it says corrupt.
    #[test]
    fn load_agrees_with_the_classifier_on_every_journal_shape() {
        use crate::journal::JournalClass;
        let dir = temp_dir("shapes");
        let spec = CheckpointSpec { path: dir.join("k.ckpt.jsonl"), resume: false };
        let (mut j, _) = Journal::open(&spec, 0xA6EE, 2).unwrap();
        for cell in 0..2 {
            let result = TimedResult { stats: sample_stats(cell), sampled: None, wall: Duration::ZERO };
            j.record(cell as usize, &result).unwrap();
        }
        let text = std::fs::read_to_string(&spec.path).unwrap();
        let lines: Vec<String> = text.lines().map(str::to_owned).collect();
        for (shape, bytes, kept, class) in crate::journal::tests::shapes(&lines) {
            let loaded = load(bytes.as_bytes(), 0xA6EE, 2);
            assert_eq!(loaded.map(|(cells, _)| cells.iter().flatten().count()), kept, "{shape}");
            assert_eq!(FORMAT.classify(bytes.as_bytes()), class, "{shape}");
            assert_eq!(kept.is_none(), class == JournalClass::Corrupt, "{shape}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_sweep_id_or_geometry_discards_the_journal() {
        let dir = temp_dir("mismatch");
        let spec = CheckpointSpec::for_output(&dir.join("t.csv"), true);
        let (mut j, _) = Journal::open(&spec, 42, 3).unwrap();
        j.record(0, &TimedResult { stats: sample_stats(0), sampled: None, wall: Duration::ZERO }).unwrap();
        drop(j);

        let (_j, recovered) = Journal::open(&spec, 43, 3).unwrap(); // different sweep
        assert!(recovered.iter().all(Option::is_none));
        let (_j, recovered) = Journal::open(&spec, 42, 4).unwrap(); // different grid
        assert!(recovered.iter().all(Option::is_none));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_off_truncates() {
        let dir = temp_dir("trunc");
        let spec = CheckpointSpec::for_output(&dir.join("t.csv"), true);
        let (mut j, _) = Journal::open(&spec, 9, 2).unwrap();
        j.record(0, &TimedResult { stats: sample_stats(0), sampled: None, wall: Duration::ZERO }).unwrap();
        drop(j);

        let fresh = CheckpointSpec { resume: false, ..spec.clone() };
        let (_j, recovered) = Journal::open(&fresh, 9, 2).unwrap();
        assert!(recovered.iter().all(Option::is_none));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_id_tracks_grid_cap_and_options() {
        let jobs: Vec<Job> =
            vec![(Benchmark::Compress, ce_sim::machine::baseline_8way())];
        let other: Vec<Job> =
            vec![(Benchmark::Li, ce_sim::machine::baseline_8way())];
        let a = sweep_id(&jobs, 1000, RunOptions::default());
        assert_eq!(a, sweep_id(&jobs, 1000, RunOptions::default()), "stable");
        assert_ne!(a, sweep_id(&other, 1000, RunOptions::default()));
        assert_ne!(a, sweep_id(&jobs, 2000, RunOptions::default()));
        assert_ne!(
            a,
            sweep_id(&jobs, 1000, RunOptions { attribution: true, ..RunOptions::default() })
        );
        // An exact journal must never satisfy a sampled resume (or vice
        // versa): the sampling geometry is part of the sweep identity.
        assert_ne!(
            a,
            sweep_id(
                &jobs,
                1000,
                RunOptions {
                    sampled: Some(ce_sim::SamplingConfig::default()),
                    ..RunOptions::default()
                }
            )
        );
    }

    #[test]
    fn write_atomic_replaces_content() {
        let dir = temp_dir("atomic");
        let path = dir.join("out.csv");
        write_atomic(&path, "a,b\n1,2\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        write_atomic(&path, "new\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new\n");
        assert!(
            std::fs::read_dir(&dir).unwrap().count() == 1,
            "no tempfile left behind"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
