//! Set-associative data cache timing model (Table 3: 32 KB, 2-way,
//! write-back, write-allocate, 32-byte lines, LRU).
//!
//! Only hit/miss timing matters to the simulator; data values come from
//! the functional trace. Write-backs of dirty victims are modeled for the
//! statistics but add no latency (an unbounded write buffer, as in the
//! SimpleScalar configuration the paper uses).

use crate::config::DcacheConfig;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u32,
    valid: bool,
    dirty: bool,
    /// Higher = more recently used.
    lru: u64,
}

const INVALID: Line = Line { tag: 0, valid: false, dirty: false, lru: 0 };

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// The line was fetched; `writeback` reports whether a dirty victim
    /// was evicted.
    Miss {
        /// A dirty line was evicted.
        writeback: bool,
    },
}

/// The data cache.
///
/// ```
/// use ce_sim::config::DcacheConfig;
/// use ce_sim::dcache::{Access, Dcache};
///
/// let mut cache = Dcache::new(DcacheConfig::default());
/// assert!(matches!(cache.access(0x1000_0000, false), Access::Miss { .. }));
/// assert_eq!(cache.access(0x1000_0000, false), Access::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Dcache {
    config: DcacheConfig,
    /// Every line, set-major: set `s` is `lines[s * ways..(s + 1) * ways]`.
    /// One allocation, because a sampled run builds a cache per detailed
    /// window only to replace it with the warmed one.
    lines: Vec<Line>,
    set_count: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Dcache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics unless line size and set count are powers of two and the
    /// geometry divides evenly.
    pub fn new(config: DcacheConfig) -> Dcache {
        assert!(config.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(config.ways > 0, "need at least one way");
        let lines = config.bytes / config.line_bytes;
        assert!(
            lines.is_multiple_of(config.ways),
            "geometry must divide evenly into sets"
        );
        let set_count = lines / config.ways;
        assert!(set_count.is_power_of_two(), "set count must be a power of two");
        Dcache {
            config,
            lines: vec![INVALID; lines],
            set_count,
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> DcacheConfig {
        self.config
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.set_count
    }

    fn split(&self, addr: u32) -> (usize, u32) {
        let line = addr as usize / self.config.line_bytes;
        (line % self.set_count, (line / self.set_count) as u32)
    }

    /// Performs a load or store access, updating LRU and dirty state.
    pub fn access(&mut self, addr: u32, is_store: bool) -> Access {
        self.clock += 1;
        let (set_idx, tag) = self.split(addr);
        let ways = self.config.ways;
        let set = &mut self.lines[set_idx * ways..(set_idx + 1) * ways];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.clock;
            line.dirty |= is_store;
            self.hits += 1;
            return Access::Hit;
        }

        self.misses += 1;
        // Victim: invalid line if any, else least recently used.
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
            .expect("ways > 0");
        let writeback = victim.valid && victim.dirty;
        if writeback {
            self.writebacks += 1;
        }
        *victim = Line { tag, valid: true, dirty: is_store, lru: self.clock };
        Access::Miss { writeback }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Miss rate in [0, 1]; 0 when no accesses have happened.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> Dcache {
        Dcache::new(DcacheConfig::default())
    }

    #[test]
    fn geometry_matches_table3() {
        let c = cache();
        // 32 KB / 32 B lines / 2 ways = 512 sets.
        assert_eq!(c.set_count(), 512);
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = cache();
        assert!(matches!(c.access(0x1000_0000, false), Access::Miss { writeback: false }));
        assert_eq!(c.access(0x1000_0000, false), Access::Hit);
        assert_eq!(c.access(0x1000_001F, false), Access::Hit, "same 32-byte line");
        assert!(matches!(c.access(0x1000_0020, false), Access::Miss { .. }), "next line");
    }

    #[test]
    fn lru_evicts_oldest_way() {
        let mut c = cache();
        let set_stride = (512 * 32) as u32; // same set, different tag
        c.access(0x1000_0000, false);
        c.access(0x1000_0000 + set_stride, false);
        // Touch the first line so the second becomes LRU.
        c.access(0x1000_0000, false);
        // A third tag evicts the second line.
        c.access(0x1000_0000 + 2 * set_stride, false);
        assert_eq!(c.access(0x1000_0000, false), Access::Hit, "MRU line survived");
        assert!(matches!(
            c.access(0x1000_0000 + set_stride, false),
            Access::Miss { .. }
        ));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = cache();
        let set_stride = (512 * 32) as u32;
        c.access(0x2000_0000, true); // store: allocate dirty
        c.access(0x2000_0000 + set_stride, false);
        let third = c.access(0x2000_0000 + 2 * set_stride, false);
        assert_eq!(third, Access::Miss { writeback: true });
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn miss_rate_accounting() {
        let mut c = cache();
        c.access(0x3000_0000, false);
        c.access(0x3000_0000, false);
        c.access(0x3000_0000, false);
        c.access(0x3000_0000, false);
        assert_eq!(c.hits(), 3);
        assert_eq!(c.misses(), 1);
        assert!((c.miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = cache();
        // Stream over 64 KB twice: no reuse fits in 32 KB.
        for pass in 0..2 {
            for line in 0..2048u32 {
                c.access(0x4000_0000 + line * 32, false);
            }
            if pass == 0 {
                assert_eq!(c.misses(), 2048);
            }
        }
        assert!(c.miss_rate() > 0.99);
    }
}
