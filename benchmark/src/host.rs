//! The host's speed, measured while a workload runs.
//!
//! The benchmark's reference machine is a VM on a shared host, whose cores
//! run up to half again slower for seconds to minutes at a time while other
//! tenants load them. The guest sees no steal time: a slowed core simply
//! takes longer, in wall time and in CPU time alike. A [`HostClock`] runs a
//! fixed calibration kernel on a thread of its own, briefly and
//! periodically, for as long as the work it shadows, and records the
//! kernel's thread CPU time. Time the guest spends running other threads
//! is not counted, so the samples track the host's speed and not the
//! workload's own load. The kernel is this crate's own code, so no change
//! to the repository's crates can speed it up or slow it down.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::measure::median;

/// The kernel's median thread CPU time on the reference machine (two
/// vCPUs of an Intel Xeon VM) with nothing else running, ms. Timings
/// scaled by [`HostSpeed::at_reference`] read as they would there at that
/// speed.
pub const REFERENCE_KERNEL_MS: f64 = 1.92;

/// Pause between two kernel runs.
const PERIOD: Duration = Duration::from_millis(50);

/// The least span of samples an operation is scaled by: about twenty
/// samples, centred on operations shorter than this.
const OP_SPAN: Duration = Duration::from_secs(1);

/// Kernel steps per sample, about 2 ms of work on the reference machine.
const STEPS: u32 = 250_000;

/// Table size, in `u32`s: 16 KiB, which fits the first-level cache and
/// reloads in microseconds after a pause or a switch to another thread.
/// A sample therefore times the core, not how much of the table the
/// workload's own cache traffic evicted: the kernel's median is the same
/// beside a fig17 sweep as alone.
const TABLE: usize = 1 << 12;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used.
fn thread_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant the kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A fixed mix of what a simulator does: data-dependent loads and stores,
/// hard-to-predict branches, and integer arithmetic.
fn kernel(table: &mut [u32], seed: u64) -> u64 {
    let mask = table.len() - 1;
    let mut x = seed | 1;
    let mut i = 0usize;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = table[i];
        if (v ^ x as u32) & 3 == 0 {
            acc = acc.wrapping_add(u64::from(v));
            table[i] = v.wrapping_add(x as u32);
        } else if v & 8 != 0 {
            acc ^= x;
        } else {
            acc = acc.wrapping_mul(3).wrapping_add(1);
        }
        i = (v as usize ^ (x as usize >> 11)) & mask;
    }
    acc
}

/// The kernel's thread CPU time, ms, per sample taken while some work ran,
/// with the instant each sample ended.
pub struct HostSpeed {
    samples: Vec<(Instant, f64)>,
}

impl HostSpeed {
    /// The kernel's median CPU time, ms.
    pub fn kernel_ms(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        median(&all)
    }

    /// A host time measured alongside these samples, scaled to the
    /// reference machine's speed.
    pub fn at_reference(&self, host_time: f64) -> f64 {
        host_time * REFERENCE_KERNEL_MS / self.kernel_ms()
    }

    /// One operation's wall time, ms, scaled to the reference machine's
    /// speed by the samples taken while it ran, widened to [`OP_SPAN`].
    /// The host's speed drifts within a loop, so this tracks it closer
    /// than scaling every operation by the loop's median.
    pub fn op_at_reference(&self, start: Instant, wall: Duration) -> f64 {
        let pad = OP_SPAN.saturating_sub(wall) / 2;
        let from = start.checked_sub(pad).unwrap_or(start);
        let to = start + wall + pad;
        let during: Vec<f64> = self
            .samples
            .iter()
            .filter(|(at, _)| (from..=to).contains(at))
            .map(|&(_, ms)| ms)
            .collect();
        let kernel = if during.is_empty() {
            self.kernel_ms()
        } else {
            median(&during)
        };
        wall.as_secs_f64() * 1e3 * REFERENCE_KERNEL_MS / kernel
    }
}

/// Samples the host's speed on a thread of its own until finished.
pub struct HostClock {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(Instant, f64)>>,
}

impl HostClock {
    pub fn start() -> HostClock {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("host-clock".into())
            .spawn(move || {
                let mut table: Vec<u32> = (0..TABLE as u32)
                    .map(|i| i.wrapping_mul(0x9e37_79b9))
                    .collect();
                let mut samples = Vec::new();
                // At least one sample, however short the work it shadows.
                loop {
                    let start = thread_cpu_time();
                    black_box(kernel(&mut table, samples.len() as u64));
                    let ms = (thread_cpu_time() - start).as_secs_f64() * 1e3;
                    samples.push((Instant::now(), ms));
                    if flag.load(Ordering::Relaxed) {
                        return samples;
                    }
                    std::thread::park_timeout(PERIOD);
                }
            })
            .expect("spawning the host-clock thread");
        HostClock { stop, thread }
    }

    /// Stops sampling and returns the samples.
    pub fn finish(self) -> HostSpeed {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.thread().unpark();
        HostSpeed {
            samples: self.thread.join().expect("the host-clock thread panicked"),
        }
    }
}

/// Runs `f` with a [`HostClock`] alongside.
pub fn clocked<T>(f: impl FnOnce() -> T) -> (T, HostSpeed) {
    let clock = HostClock::start();
    let out = f();
    (out, clock.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clock_samples_while_work_runs() {
        let start = Instant::now();
        let ((), speed) = clocked(|| std::thread::sleep(Duration::from_millis(600)));
        assert!(speed.samples.len() >= 8);
        assert!(speed.samples.iter().all(|&(_, ms)| ms > 0.0));
        let scaled = speed.at_reference(1.0);
        assert!(scaled.is_finite() && scaled > 0.0);
        let op = speed.op_at_reference(start, Duration::from_millis(10));
        assert!(op.is_finite() && op > 0.0);

        let ((), speed) = clocked(|| ());
        assert!(!speed.samples.is_empty());
        // An operation with no sample near it falls back to all of them.
        let later = Instant::now() + Duration::from_secs(10);
        let op = speed.op_at_reference(later, Duration::from_millis(1));
        assert!((op - speed.at_reference(1.0)).abs() < 1e-9);
    }
}
