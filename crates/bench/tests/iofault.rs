//! Fault-injection integration tests: one end-to-end scenario per
//! non-crash fault class, each driving a real durability flow of the
//! experiment service through the `ce_bench::iofault` seam. (The crash
//! class needs a process to die; its end-to-end coverage lives in
//! `tests/chaos.rs` and the `cechaos` grid.)
//!
//! The shared shape: arm a thread-local [`FailPlan`], run the real
//! code path, assert the error surfaces *and* that the on-disk state is
//! either untouched or recoverable — then re-run disarmed and assert
//! convergence to the same bytes a never-faulted run produces.

use std::path::PathBuf;

use ce_bench::chaos::synthetic_result;
use ce_bench::checkpoint::{self, write_atomic, CheckpointSpec, Journal};
use ce_bench::iofault::{with_plan, FailPlan, FaultClass};
use ce_bench::journal::JournalClass;
use ce_bench::store::{Lookup, ResultStore};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ce-iofault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tmpfiles(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp"))
        .collect()
}

/// ENOSPC against a result-store insert: the error surfaces with the
/// real OS code, the store stays entry-free and tempfile-free, and a
/// disarmed retry converges to a servable entry.
#[test]
fn enospc_store_insert_fails_clean_and_retry_converges() {
    let dir = temp_dir("enospc");
    let store = ResultStore::open(&dir).unwrap();
    let result = synthetic_result(7);

    let (outcome, ops) = with_plan(FailPlan::one(0, FaultClass::Enospc), || {
        store.insert("00000000000000aa", "chaos-v1", &result)
    });
    let err = outcome.expect_err("the injected ENOSPC must surface");
    assert_eq!(err.raw_os_error(), Some(28), "ENOSPC, the real errno");
    assert!(ops >= 1, "the plan fired");
    assert_eq!(store.len(), 0, "no partial entry");
    assert_eq!(tmpfiles(&dir), Vec::<String>::new(), "no orphaned tempfile");

    store.insert("00000000000000aa", "chaos-v1", &result).unwrap();
    match store.lookup("00000000000000aa", "chaos-v1") {
        Lookup::Hit(got) => assert_eq!(got.stats.cycles, result.stats.cycles),
        other => panic!("expected a hit after the retry, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// EIO against a checkpoint-journal append: the record call errors, but
/// every previously recorded cell survives and a resumed journal
/// recovers them — the restarted sweep re-simulates only the lost cell.
#[test]
fn eio_journal_append_keeps_prior_records_resumable() {
    let dir = temp_dir("eio");
    let spec = CheckpointSpec::for_output(&dir.join("sweep.csv"), true);
    let id = 0xBEEF;

    let (mut journal, recovered) = Journal::open(&spec, id, 3).unwrap();
    assert!(recovered.iter().all(Option::is_none));
    journal.record(0, &synthetic_result(0)).unwrap();

    // Op 0 of the faulted scope is the very next append.
    let (outcome, _) = with_plan(FailPlan::one(0, FaultClass::Eio), || {
        journal.record(1, &synthetic_result(1))
    });
    assert_eq!(
        outcome.expect_err("the injected EIO must surface").raw_os_error(),
        Some(5)
    );
    drop(journal);

    let (mut journal, recovered) = Journal::open(&spec, id, 3).unwrap();
    assert!(recovered[0].is_some(), "cell 0 survived the faulted append");
    assert!(recovered[1].is_none(), "the faulted cell is owed again");
    journal.record(1, &synthetic_result(1)).unwrap();
    journal.record(2, &synthetic_result(2)).unwrap();
    drop(journal);

    let (_, recovered) = Journal::open(&spec, id, 3).unwrap();
    assert!(recovered.iter().all(Option::is_some), "full recovery after the retry");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn write against a journal append: the appender rolls the half
/// line back on the spot, so the file stays valid and the next append on
/// the same handle survives a resume. A torn tail left on disk by a
/// process that died mid-append is the tolerated kill -9 signature: the
/// classifier calls it torn-tail, and a resume drops it while keeping
/// every complete record.
#[test]
fn torn_journal_append_is_rolled_back() {
    let dir = temp_dir("torn");
    let spec = CheckpointSpec::for_output(&dir.join("sweep.csv"), true);
    let id = 0xF00D;

    let (mut journal, _) = Journal::open(&spec, id, 2).unwrap();
    journal.record(0, &synthetic_result(0)).unwrap();
    let (outcome, _) = with_plan(FailPlan::one(0, FaultClass::TornWrite), || {
        journal.record(1, &synthetic_result(1))
    });
    assert!(outcome.is_err(), "a torn write reports the short write as an error");
    let bytes = std::fs::read(&spec.path).unwrap();
    assert!(bytes.ends_with(b"\n"), "the torn half-line was rolled back");
    assert_eq!(checkpoint::FORMAT.classify(&bytes), JournalClass::Valid);
    journal.record(1, &synthetic_result(1)).unwrap();
    drop(journal);
    let (_, recovered) = Journal::open(&spec, id, 2).unwrap();
    assert!(recovered.iter().all(Option::is_some), "the retried record survives");

    // The kill -9 shape, written directly: record 1 cut short on disk.
    let complete = std::fs::read(&spec.path).unwrap();
    std::fs::write(&spec.path, &complete[..complete.len() - 20]).unwrap();
    assert_eq!(
        checkpoint::FORMAT.classify(&std::fs::read(&spec.path).unwrap()),
        JournalClass::TornTail
    );
    let (mut journal, recovered) = Journal::open(&spec, id, 2).unwrap();
    assert!(recovered[0].is_some(), "the complete record survives the torn tail");
    assert!(recovered[1].is_none(), "the torn record is dropped, not half-parsed");
    journal.record(1, &synthetic_result(1)).unwrap();
    drop(journal);
    let (_, recovered) = Journal::open(&spec, id, 2).unwrap();
    assert!(recovered.iter().all(Option::is_some));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Which cells a resume of a four-cell journal recovers.
fn resumed_cells(spec: &CheckpointSpec, id: u64) -> Vec<bool> {
    let (_, recovered) = Journal::open(spec, id, 4).unwrap();
    recovered.iter().map(Option::is_some).collect()
}

/// A torn record no longer swallows the records appended after it on
/// the same handle: the rollback puts them on clean lines, and a resume
/// recovers every record but the torn one.
#[test]
fn torn_record_keeps_later_records_resumable() {
    let dir = temp_dir("torn-later");
    let spec = CheckpointSpec::for_output(&dir.join("sweep.csv"), true);
    let id = 0xACE;

    let (mut journal, _) = Journal::open(&spec, id, 4).unwrap();
    journal.record(0, &synthetic_result(0)).unwrap();
    let (torn, _) = with_plan(FailPlan::one(0, FaultClass::TornWrite), || {
        journal.record(1, &synthetic_result(1))
    });
    assert!(torn.is_err());
    journal.record(2, &synthetic_result(2)).unwrap();
    journal.record(3, &synthetic_result(3)).unwrap();
    drop(journal);

    assert_eq!(resumed_cells(&spec, id), [true, false, true, true]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// When the rollback of a failed append fails too, the handle refuses
/// every later append without writing a byte, and a resume still
/// recovers every record written before the fault.
#[test]
fn failed_rollback_refuses_later_appends() {
    let dir = temp_dir("rollback");
    let spec = CheckpointSpec::for_output(&dir.join("sweep.csv"), true);
    let id = 0xD1E;

    let (mut journal, _) = Journal::open(&spec, id, 4).unwrap();
    journal.record(0, &synthetic_result(0)).unwrap();
    // Op 0 is the torn write, op 1 the rollback's truncation.
    let plan = FailPlan { faults: vec![(0, FaultClass::TornWrite), (1, FaultClass::Eio)] };
    let (outcome, ops) = with_plan(plan, || journal.record(1, &synthetic_result(1)));
    assert!(outcome.is_err());
    assert_eq!(ops, 2, "the write, then the failed rollback");
    let torn = std::fs::read(&spec.path).unwrap();

    let (later, ops) = with_plan(FailPlan::default(), || {
        [journal.record(2, &synthetic_result(2)), journal.record(3, &synthetic_result(3))]
    });
    assert!(later.iter().all(Result::is_err), "the handle refuses appends");
    assert_eq!(ops, 0, "a refused append touches nothing");
    assert_eq!(std::fs::read(&spec.path).unwrap(), torn, "nothing written after the fault");
    drop(journal);

    assert_eq!(resumed_cells(&spec, id), [true, false, false, false]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed fsync against an atomic file write: the destination keeps
/// its old bytes (rename never ran), no tempfile is left behind, and
/// the disarmed retry publishes the new content.
#[test]
fn failed_fsync_write_atomic_preserves_old_content() {
    let dir = temp_dir("fsync");
    let path = dir.join("results.csv");
    write_atomic(&path, "old,content\n").unwrap();

    // write_atomic is create(0) → write(1) → fsync(2) → rename(3).
    let (outcome, ops) = with_plan(FailPlan::one(2, FaultClass::FailedFsync), || {
        write_atomic(&path, "new,content\n")
    });
    assert!(outcome.is_err(), "the fsync failure must surface, not be swallowed");
    assert_eq!(ops, 3, "the rename after the failed fsync never ran");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "old,content\n");
    assert_eq!(tmpfiles(&dir), Vec::<String>::new(), "the tempfile was cleaned up");

    write_atomic(&path, "new,content\n").unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "new,content\n");
    let _ = std::fs::remove_dir_all(&dir);
}
