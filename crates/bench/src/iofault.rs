//! Deterministic, seeded I/O fault injection for the persistence layer.
//!
//! PR 4 proved the *simulator* holds a zero-silent-faults contract by
//! injecting faults into its own state machine. This module is the
//! environment-side analogue: a thin seam over the filesystem primitives
//! every durability-critical write path uses (`create`, `write`,
//! `fsync`, `rename`, `truncate`), with a [`FailPlan`] that makes chosen
//! operations fail the way real storage fails — `ENOSPC`, `EIO`, a short/torn
//! write that leaves a prefix on disk, an fsync that returns an error
//! after the data was buffered, or a hard crash (`abort`, the in-process
//! equivalent of `kill -9`) at an exact operation index.
//!
//! ## The seam
//!
//! All fault-eligible paths call the wrappers here instead of `std::fs`
//! directly: [`crate::checkpoint::write_atomic`] (and through it the
//! result store, manifests, and rendered CSVs) and the
//! [`journal`](crate::journal) appender behind the checkpoint, the job
//! WAL, and telemetry — whose rollback of a failed append and cut of a
//! torn tail are both a [`truncate`]. Each wrapper asks
//! [`tick`] whether the *armed plan* — if any — injects a fault at the
//! current operation index; when nothing is armed the wrappers are a
//! single relaxed atomic load away from plain `std::fs` calls.
//!
//! ## Arming
//!
//! Two scopes, so in-process campaigns and subprocess daemons both stay
//! deterministic:
//!
//! * [`with_plan`] installs a plan **thread-locally** and runs a
//!   closure — the tool for unit tests and the in-process chaos grid
//!   ([`crate::chaos`]); concurrent tests on other threads are never
//!   affected.
//! * [`arm_global_from_env`] arms a plan **process-wide** from the
//!   `CE_IOFAULT` environment variable (`class@index` terms, e.g.
//!   `CE_IOFAULT=eio@3,torn@10,crash@25`) — how `cechaos` injects
//!   faults into a spawned `cesimd` without recompiling anything.
//!
//! Operation indices count *fault-eligible* operations in arming order
//! (thread-local plans count only their own thread's operations), so a
//! plan is reproducible: same seed → same plan → same faults at the
//! same calls.

use std::fs::File;
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The injectable fault classes. Every class maps to a way real storage
/// fails underneath a correct program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// `ENOSPC`: the write (or rename, or create) fails with "no space
    /// left on device"; nothing is written.
    Enospc,
    /// `EIO`: a hard I/O error; nothing is written.
    Eio,
    /// A short/torn write: a *prefix* of the data reaches the file, then
    /// the operation fails. The torn bytes stay on disk — exactly what a
    /// power cut mid-`write(2)` leaves for recovery to find.
    TornWrite,
    /// The data is buffered but `fsync` reports failure; the caller must
    /// treat the data as not durable.
    FailedFsync,
    /// Hard process death (`abort`) *before* the operation executes —
    /// the in-process equivalent of `kill -9` at an exact I/O boundary.
    Crash,
}

impl FaultClass {
    /// All injectable classes, campaign order.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::Enospc,
        FaultClass::Eio,
        FaultClass::TornWrite,
        FaultClass::FailedFsync,
        FaultClass::Crash,
    ];

    /// Stable lowercase name (the `CE_IOFAULT` spelling).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Enospc => "enospc",
            FaultClass::Eio => "eio",
            FaultClass::TornWrite => "torn",
            FaultClass::FailedFsync => "fsync",
            FaultClass::Crash => "crash",
        }
    }

    /// Parses the `CE_IOFAULT` spelling.
    pub fn from_name(name: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|c| c.name() == name)
    }

    /// The `std::io::Error` this class surfaces as (`Crash` never
    /// returns; `TornWrite` reports `EIO` after leaving its prefix).
    fn error(self) -> std::io::Error {
        match self {
            // ENOSPC = 28, EIO = 5 on every Unix this repo targets; the
            // raw constructor keeps the real OS error message.
            FaultClass::Enospc => std::io::Error::from_raw_os_error(28),
            FaultClass::Eio | FaultClass::TornWrite => std::io::Error::from_raw_os_error(5),
            FaultClass::FailedFsync => std::io::Error::from_raw_os_error(5),
            FaultClass::Crash => unreachable!("crash aborts instead of erroring"),
        }
    }
}

/// A deterministic plan: which operation indices fail, and how.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailPlan {
    /// `(operation index, class)` injections. `Crash` entries abort the
    /// process when their index is reached.
    pub faults: Vec<(u64, FaultClass)>,
}

impl FailPlan {
    /// A plan injecting one fault at one operation index.
    pub fn one(index: u64, class: FaultClass) -> FailPlan {
        FailPlan { faults: vec![(index, class)] }
    }

    /// Parses the `CE_IOFAULT` grammar: comma-separated `class@index`
    /// terms (`eio@3,torn@10,crash@25`).
    ///
    /// # Errors
    ///
    /// A message naming the bad term.
    pub fn parse(spec: &str) -> Result<FailPlan, String> {
        let mut faults = Vec::new();
        for term in spec.split(',').filter(|t| !t.trim().is_empty()) {
            let (class, index) = term
                .trim()
                .split_once('@')
                .ok_or_else(|| format!("`{term}` is not class@index"))?;
            let class = FaultClass::from_name(class)
                .ok_or_else(|| format!("unknown fault class `{class}`"))?;
            let index =
                index.parse().map_err(|e| format!("bad index in `{term}`: {e}"))?;
            faults.push((index, class));
        }
        Ok(FailPlan { faults })
    }

    /// Renders the plan back to the `CE_IOFAULT` grammar.
    pub fn to_spec(&self) -> String {
        self.faults
            .iter()
            .map(|(i, c)| format!("{}@{i}", c.name()))
            .collect::<Vec<_>>()
            .join(",")
    }

    fn at(&self, index: u64) -> Option<FaultClass> {
        self.faults.iter().find(|(i, _)| *i == index).map(|(_, c)| c).copied()
    }
}

/// An armed plan plus its operation counter.
#[derive(Debug)]
struct Armed {
    plan: FailPlan,
    ops: AtomicU64,
}

/// Fast path gate: false ⇒ no plan is armed anywhere (neither globally
/// nor on any thread), and every wrapper is a passthrough.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);
/// How many thread-local plans are currently armed (keeps `ANY_ARMED`
/// honest when scopes nest across threads).
static LOCAL_ARMED: AtomicU64 = AtomicU64::new(0);
static GLOBAL: Mutex<Option<Armed>> = Mutex::new(None);

thread_local! {
    static LOCAL: std::cell::RefCell<Option<Armed>> = const { std::cell::RefCell::new(None) };
}

/// Arms `plan` process-wide from the `CE_IOFAULT` environment variable,
/// if set. Call once at binary startup (before any guarded I/O) so
/// operation indices are reproducible. Returns the armed plan, if any.
///
/// # Errors
///
/// The parse error for a malformed `CE_IOFAULT` value — callers should
/// refuse to start rather than run with a half-understood plan.
pub fn arm_global_from_env() -> Result<Option<FailPlan>, String> {
    match std::env::var("CE_IOFAULT") {
        Ok(spec) if !spec.trim().is_empty() => {
            let plan = FailPlan::parse(&spec).map_err(|e| format!("CE_IOFAULT: {e}"))?;
            *GLOBAL.lock().expect("iofault plan") =
                Some(Armed { plan: plan.clone(), ops: AtomicU64::new(0) });
            ANY_ARMED.store(true, Ordering::SeqCst);
            Ok(Some(plan))
        }
        _ => Ok(None),
    }
}

/// Runs `f` with `plan` armed for the **current thread only**, then
/// disarms. Operations on other threads are never faulted, so parallel
/// tests stay independent. Returns `f`'s result plus the number of
/// fault-eligible operations the closure performed (how campaigns learn
/// a workload's op horizon).
pub fn with_plan<T>(plan: FailPlan, f: impl FnOnce() -> T) -> (T, u64) {
    LOCAL.with(|slot| {
        *slot.borrow_mut() = Some(Armed { plan, ops: AtomicU64::new(0) });
    });
    LOCAL_ARMED.fetch_add(1, Ordering::SeqCst);
    ANY_ARMED.store(true, Ordering::SeqCst);
    let out = f();
    let ops = LOCAL.with(|slot| {
        let armed = slot.borrow_mut().take();
        armed.map_or(0, |a| a.ops.load(Ordering::SeqCst))
    });
    if LOCAL_ARMED.fetch_sub(1, Ordering::SeqCst) == 1
        && GLOBAL.lock().expect("iofault plan").is_none()
    {
        ANY_ARMED.store(false, Ordering::SeqCst);
    }
    (out, ops)
}

/// Counts one fault-eligible operation and returns the injected class,
/// if the armed plan (thread-local first, then global) has one at this
/// index. `Crash` does not return: it aborts the process, the exact
/// in-process analogue of `kill -9` at this I/O boundary.
fn tick() -> Option<FaultClass> {
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let hit = LOCAL.with(|slot| {
        slot.borrow().as_ref().map(|armed| {
            let index = armed.ops.fetch_add(1, Ordering::SeqCst);
            armed.plan.at(index)
        })
    });
    let fault = match hit {
        Some(fault) => fault, // a local plan owns this thread entirely
        None => {
            let guard = GLOBAL.lock().expect("iofault plan");
            guard.as_ref().and_then(|armed| {
                let index = armed.ops.fetch_add(1, Ordering::SeqCst);
                armed.plan.at(index)
            })
        }
    };
    if fault == Some(FaultClass::Crash) {
        // Flush nothing, unwind nothing: recovery must cope with
        // whatever is on disk right now.
        std::process::abort();
    }
    fault
}

/// Creates (truncating) a file through the fault seam.
///
/// # Errors
///
/// The injected fault, or the real `File::create` error.
pub fn create(path: &Path) -> std::io::Result<File> {
    if let Some(fault) = tick() {
        return Err(fault.error());
    }
    File::create(path)
}

/// Opens a file for appending through the fault seam.
///
/// # Errors
///
/// The injected fault, or the real open error.
pub fn open_append(path: &Path) -> std::io::Result<File> {
    if let Some(fault) = tick() {
        return Err(fault.error());
    }
    std::fs::OpenOptions::new().append(true).open(path)
}

/// Writes all of `bytes` through the fault seam. [`FaultClass::TornWrite`]
/// writes roughly half the bytes, then fails — the torn prefix stays in
/// the file for recovery to deal with.
///
/// # Errors
///
/// The injected fault, or the real write error.
pub fn write_all(file: &mut File, bytes: &[u8]) -> std::io::Result<()> {
    match tick() {
        Some(FaultClass::TornWrite) => {
            let torn = bytes.len() / 2;
            file.write_all(&bytes[..torn])?;
            Err(FaultClass::TornWrite.error())
        }
        Some(fault) => Err(fault.error()),
        None => file.write_all(bytes),
    }
}

/// `fsync` (data) through the fault seam. A [`FaultClass::FailedFsync`]
/// injection reports failure *without* syncing — the data may or may not
/// survive a crash, which is precisely the ambiguity callers must treat
/// as "not durable".
///
/// # Errors
///
/// The injected fault, or the real `sync_data` error.
pub fn sync(file: &File) -> std::io::Result<()> {
    if let Some(fault) = tick() {
        return Err(fault.error());
    }
    file.sync_data()
}

/// Renames through the fault seam (a rename cannot be torn — POSIX makes
/// it atomic — so [`FaultClass::TornWrite`] degrades to a plain failure).
///
/// # Errors
///
/// The injected fault, or the real rename error.
pub fn rename(from: &Path, to: &Path) -> std::io::Result<()> {
    if let Some(fault) = tick() {
        return Err(fault.error());
    }
    std::fs::rename(from, to)
}

/// Truncates `file` to `len` bytes and seeks there (a file from
/// [`create`] has no `O_APPEND`, so a bare `set_len` would leave the next
/// write past a hole of NULs). A truncation cannot be torn, so
/// [`FaultClass::TornWrite`] degrades to a plain failure.
///
/// # Errors
///
/// The injected fault, or the real `set_len`/seek error.
pub fn truncate(file: &mut File, len: u64) -> std::io::Result<()> {
    if let Some(fault) = tick() {
        return Err(fault.error());
    }
    file.set_len(len)?;
    file.seek(SeekFrom::Start(len)).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ce-iofault-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn plan_grammar_round_trips() {
        let plan = FailPlan::parse("eio@3, torn@10,crash@25").unwrap();
        assert_eq!(
            plan.faults,
            vec![
                (3, FaultClass::Eio),
                (10, FaultClass::TornWrite),
                (25, FaultClass::Crash)
            ]
        );
        assert_eq!(plan.to_spec(), "eio@3,torn@10,crash@25");
        assert_eq!(FailPlan::parse(&plan.to_spec()).unwrap(), plan);
        assert!(FailPlan::parse("bogus@1").is_err());
        assert!(FailPlan::parse("eio").is_err());
        assert!(FailPlan::parse("eio@x").is_err());
        assert_eq!(FailPlan::parse("").unwrap(), FailPlan::default());
        for class in FaultClass::ALL {
            assert_eq!(FaultClass::from_name(class.name()), Some(class));
        }
    }

    /// The seam's core semantics: faults fire at exactly their op index,
    /// torn writes leave a prefix, failed fsyncs report failure, and the
    /// op counter reports the workload's horizon.
    #[test]
    fn faults_fire_at_exact_indices() {
        let dir = tmp("indices");
        let path = dir.join("a.bin");

        // Op 0 = create, op 1 = write: fail the write with ENOSPC.
        let ((), ops) = with_plan(FailPlan::one(1, FaultClass::Enospc), || {
            let mut f = create(&path).expect("create is op 0, unfaulted");
            let err = write_all(&mut f, b"hello world!").expect_err("op 1 faults");
            assert_eq!(err.raw_os_error(), Some(28), "ENOSPC");
        });
        assert_eq!(ops, 2);
        assert_eq!(std::fs::read(&path).unwrap(), b"", "ENOSPC writes nothing");

        // Torn write: exactly half the payload lands, then EIO.
        let ((), _) = with_plan(FailPlan::one(1, FaultClass::TornWrite), || {
            let mut f = create(&path).unwrap();
            let err = write_all(&mut f, b"hello world!").expect_err("torn");
            assert_eq!(err.raw_os_error(), Some(5));
        });
        assert_eq!(std::fs::read(&path).unwrap(), b"hello ", "torn prefix remains");

        // Failed fsync: data written, durability denied.
        let ((), _) = with_plan(FailPlan::one(2, FaultClass::FailedFsync), || {
            let mut f = create(&path).unwrap();
            write_all(&mut f, b"abc").unwrap();
            assert!(sync(&f).is_err());
        });
        assert_eq!(std::fs::read(&path).unwrap(), b"abc");

        // No plan: everything passes through.
        let mut f = create(&path).unwrap();
        write_all(&mut f, b"clean").unwrap();
        sync(&f).unwrap();
        drop(f);
        rename(&path, &dir.join("b.bin")).unwrap();
        assert_eq!(std::fs::read(dir.join("b.bin")).unwrap(), b"clean");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Thread-local arming never leaks to other threads: a sibling
    /// thread's I/O through the seam is unfaulted while ours is armed.
    #[test]
    fn local_plans_do_not_cross_threads() {
        let dir = tmp("threads");
        let ((), _) = with_plan(FailPlan::one(0, FaultClass::Eio), || {
            assert!(create(&dir.join("mine.txt")).is_err(), "armed here");
            let theirs = dir.join("theirs.txt");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut f = create(&theirs).expect("sibling thread unfaulted");
                    write_all(&mut f, b"ok").expect("sibling write unfaulted");
                })
                .join()
                .unwrap();
            });
            assert_eq!(std::fs::read(&theirs).unwrap(), b"ok");
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
