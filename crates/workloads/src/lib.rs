//! # ce-workloads — benchmark kernels, functional emulation, and traces
//!
//! The paper evaluates its microarchitectures on seven SPEC'95 integer
//! benchmarks (compress, gcc, go, li, m88ksim, perl, vortex) run under a
//! modified SimpleScalar. Neither the binaries nor the toolchain are
//! available, so this crate substitutes **seven hand-written assembly
//! kernels** with the same behavioural character as their namesakes —
//! run-length encoding, an expression-evaluator state machine, 2-D board
//! scanning, cons-cell list processing, an instruction-set interpreter,
//! string hashing, and a record-store with a search tree — each executed by
//! an [`Emulator`] to produce the dynamic instruction
//! [`Trace`] that drives the timing simulator.
//!
//! A [`synthetic`] generator is also provided for stress tests and property
//! tests: it fabricates statistically-shaped instruction streams
//! (operation mix, dependence distances, branch bias) without needing a
//! program at all.
//!
//! ## Example
//!
//! ```
//! use ce_workloads::{Benchmark, trace_benchmark};
//!
//! let trace = trace_benchmark(Benchmark::Compress, 10_000)?;
//! assert!(trace.len() > 1_000);
//! # Ok::<(), ce_workloads::WorkloadError>(())
//! ```

pub mod emulator;
pub mod fault;
pub mod memory;
pub mod programs;
pub mod shrink;
pub mod stats;
pub mod synthetic;
pub mod trace;
pub mod trace_io;

pub use emulator::{EmuError, Emulator};
pub use fault::{corrupt_trace_text, TraceCorruption};
pub use memory::Memory;
pub use programs::Benchmark;
pub use trace::{DynInst, Trace, TraceSlice};
pub use trace_io::{parse_trace, parse_trace_with, ParseLimits, TraceParseError};

use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Error produced when building or running a workload.
#[derive(Debug)]
pub enum WorkloadError {
    /// The kernel source failed to assemble (a bug in this crate).
    Asm(ce_isa::asm::AsmError),
    /// The kernel faulted while executing.
    Emu(EmuError),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Asm(e) => write!(f, "kernel failed to assemble: {e}"),
            WorkloadError::Emu(e) => write!(f, "kernel faulted: {e}"),
        }
    }
}

impl Error for WorkloadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WorkloadError::Asm(e) => Some(e),
            WorkloadError::Emu(e) => Some(e),
        }
    }
}

impl From<ce_isa::asm::AsmError> for WorkloadError {
    fn from(e: ce_isa::asm::AsmError) -> WorkloadError {
        WorkloadError::Asm(e)
    }
}

impl From<EmuError> for WorkloadError {
    fn from(e: EmuError) -> WorkloadError {
        WorkloadError::Emu(e)
    }
}

/// Assembles and executes a benchmark kernel, returning up to `max_insts`
/// dynamic instructions of trace.
///
/// This is the one-call path from a [`Benchmark`] name to the input the
/// timing simulator consumes (the paper ran each benchmark for at most
/// 0.5 B instructions; the kernels here complete in far fewer).
///
/// # Errors
///
/// Returns [`WorkloadError`] if the kernel fails to assemble or faults —
/// either indicates a bug in the bundled kernels.
pub fn trace_benchmark(benchmark: Benchmark, max_insts: u64) -> Result<Trace, WorkloadError> {
    let program = benchmark.program()?;
    let mut emu = Emulator::new(&program);
    Ok(emu.run(max_insts)?)
}

/// Aggregate counters of a [`TraceLru`] (see [`trace_cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCacheStats {
    /// Lookups that found their entry resident.
    pub hits: u64,
    /// Lookups that had to generate (first touch, or re-touch after an
    /// eviction).
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
}

/// A bounded, process-shareable LRU of generated traces.
///
/// The experiment service keeps one of these alive across many jobs, so
/// recently-used `(benchmark, max_insts)` traces are shared between jobs
/// while cold ones are dropped instead of accumulating without bound (a
/// long-running daemon sweeping many instruction caps would otherwise
/// retain every trace it ever generated). Eviction removes the map entry
/// only; worker threads still holding the `Arc<Trace>` keep it alive
/// until they finish, so eviction can never invalidate an in-flight cell.
///
/// A per-entry lock (not the map lock) is held during generation, so
/// different benchmarks can be emulated concurrently; threads racing on
/// the *same* key block on that entry and share the single generation.
pub struct TraceLru {
    cap: usize,
    inner: std::sync::Mutex<LruInner>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
    evictions: std::sync::atomic::AtomicU64,
}

type LruKey = (Benchmark, u64);
type LruEntry = Arc<std::sync::Mutex<Option<Arc<Trace>>>>;

#[derive(Default)]
struct LruInner {
    /// Monotonic use counter; the entry with the smallest tick is the
    /// least recently used.
    tick: u64,
    map: std::collections::HashMap<LruKey, (u64, LruEntry)>,
}

impl TraceLru {
    /// An empty cache retaining at most `cap` traces (`cap` is clamped to
    /// at least 1 — a cache that can hold nothing would serialize every
    /// lookup through regeneration).
    pub fn new(cap: usize) -> TraceLru {
        TraceLru {
            cap: cap.max(1),
            inner: std::sync::Mutex::new(LruInner::default()),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
            evictions: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The memoized trace for `(benchmark, max_insts)`, generating it on a
    /// miss. A hit is counted when the entry was resident at lookup time
    /// (even if its generation is still in flight on another thread).
    ///
    /// # Errors
    ///
    /// Propagates [`WorkloadError`] from generation. Failures are not
    /// cached; a later call retries.
    pub fn get(
        &self,
        benchmark: Benchmark,
        max_insts: u64,
    ) -> Result<Arc<Trace>, WorkloadError> {
        use std::sync::atomic::Ordering;
        let key = (benchmark, max_insts);
        let entry: LruEntry = {
            let mut inner = self.inner.lock().expect("trace cache map poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some((last_used, entry)) = inner.map.get_mut(&key) {
                *last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(entry)
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let entry = LruEntry::default();
                inner.map.insert(key, (tick, Arc::clone(&entry)));
                if inner.map.len() > self.cap {
                    let victim = inner
                        .map
                        .iter()
                        .filter(|(k, _)| **k != key)
                        .min_by_key(|(_, (last_used, _))| *last_used)
                        .map(|(k, _)| *k);
                    if let Some(victim) = victim {
                        inner.map.remove(&victim);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                entry
            }
        };

        let mut slot = entry.lock().expect("trace cache entry poisoned");
        if let Some(trace) = slot.as_ref() {
            return Ok(Arc::clone(trace));
        }
        let trace = Arc::new(trace_benchmark(benchmark, max_insts)?);
        *slot = Some(Arc::clone(&trace));
        Ok(trace)
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> TraceCacheStats {
        use std::sync::atomic::Ordering;
        TraceCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Resident entries (in-flight generations included).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace cache map poisoned").map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide trace cache behind [`trace_cached`]. Capacity comes
/// from `CE_TRACE_CACHE_CAP` (read once, default 32 — comfortably above
/// any single sweep's distinct `(benchmark, cap)` set, small enough that
/// a daemon cycling through many caps stays bounded).
fn global_trace_cache() -> &'static TraceLru {
    static CACHE: std::sync::OnceLock<TraceLru> = std::sync::OnceLock::new();
    CACHE.get_or_init(|| {
        let cap = std::env::var("CE_TRACE_CACHE_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n: &usize| n > 0)
            .unwrap_or(32);
        TraceLru::new(cap)
    })
}

/// Like [`trace_benchmark`], but memoized process-wide in a bounded LRU
/// (see [`TraceLru`]): every experiment binary, test, and worker thread
/// that asks for the same `(benchmark, max_insts)` pair shares one
/// immutable [`Trace`], generated once no matter how many threads race on
/// the first request.
///
/// # Errors
///
/// Propagates [`WorkloadError`] from generation. Failures are not cached;
/// a later call retries.
pub fn trace_cached(benchmark: Benchmark, max_insts: u64) -> Result<Arc<Trace>, WorkloadError> {
    global_trace_cache().get(benchmark, max_insts)
}

/// Counters of the process-wide trace cache. The experiment service
/// reports the eviction delta per job through its telemetry journal.
pub fn trace_cache_stats() -> TraceCacheStats {
    global_trace_cache().stats()
}

#[cfg(test)]
mod cache_tests {
    use super::*;

    #[test]
    fn trace_cached_shares_one_trace_per_key() {
        let a = trace_cached(Benchmark::Compress, 3_000).unwrap();
        let b = trace_cached(Benchmark::Compress, 3_000).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same key must share one Arc<Trace>");

        let c = trace_cached(Benchmark::Compress, 4_000).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "different caps are different entries");

        let fresh = trace_benchmark(Benchmark::Compress, 3_000).unwrap();
        assert_eq!(*a, fresh, "cached trace must equal a fresh generation");
    }

    /// The LRU bound holds: a capacity-2 cache keeps the two most
    /// recently used entries, evicts the coldest, counts every hit, miss,
    /// and eviction, and still serves valid traces after eviction (at the
    /// cost of a regeneration).
    #[test]
    fn trace_lru_evicts_coldest_and_accounts() {
        let lru = TraceLru::new(2);
        let a1 = lru.get(Benchmark::Compress, 1_000).unwrap();
        lru.get(Benchmark::Li, 1_000).unwrap();
        assert_eq!(lru.stats(), TraceCacheStats { hits: 0, misses: 2, evictions: 0 });
        assert_eq!(lru.len(), 2);

        // Touch compress so li becomes the LRU victim.
        let a2 = lru.get(Benchmark::Compress, 1_000).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2), "hit must share the resident Arc");
        lru.get(Benchmark::Go, 1_000).unwrap();
        assert_eq!(lru.stats(), TraceCacheStats { hits: 1, misses: 3, evictions: 1 });
        assert_eq!(lru.len(), 2, "capacity bound respected");

        // li was evicted: re-touching it regenerates (a miss) and evicts
        // the new coldest entry (compress).
        let li = lru.get(Benchmark::Li, 1_000).unwrap();
        assert_eq!(*li, trace_benchmark(Benchmark::Li, 1_000).unwrap());
        assert_eq!(lru.stats(), TraceCacheStats { hits: 1, misses: 4, evictions: 2 });

        // The evicted Arc held above is still alive and intact.
        assert_eq!(*a1, trace_benchmark(Benchmark::Compress, 1_000).unwrap());
    }

    #[test]
    fn global_stats_are_visible() {
        let before = trace_cache_stats();
        trace_cached(Benchmark::Compress, 2_222).unwrap();
        trace_cached(Benchmark::Compress, 2_222).unwrap();
        let after = trace_cache_stats();
        assert!(after.hits + after.misses >= before.hits + before.misses + 2);
    }

    #[test]
    fn trace_cached_is_threadsafe_and_generates_once() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| trace_cached(Benchmark::Li, 2_500).unwrap())
            })
            .collect();
        let traces: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for t in &traces[1..] {
            assert!(Arc::ptr_eq(&traces[0], t));
        }
    }
}
