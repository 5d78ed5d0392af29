//! What one run collects: metrics, correctness-gate failures, and the
//! operation counts, plus the statistics helpers the workloads share.

use std::time::{Duration, Instant};

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value, unit)` in the order they were measured.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// One line per failed correctness gate; any entry voids the run.
    pub gate_failures: Vec<String>,
    /// Operations (sweep regenerations or service jobs) attempted in the
    /// measured loops.
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a correctness gate; `detail` is only built on failure.
    pub fn gate(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(detail());
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
