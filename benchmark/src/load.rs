//! The deterministic load generator: every job sequence the service
//! workloads send is a pure function of `--seed`, and the daemon receives
//! only the resulting `JobSpec`s.
//!
//! Seed 1 is the tuning seed; claims are checked on the held-out seed 2.

use ce_bench::api::SweepKind;

/// The presets a service client submits: every figure preset plus the
/// explorer's CI grid. `explore-full` is left out because one cold run
/// of it outlasts a whole measurement window.
pub const PRESETS: [SweepKind; 5] = [
    SweepKind::Fig13,
    SweepKind::Fig15,
    SweepKind::Fig17,
    SweepKind::Occupancy,
    SweepKind::ExploreTiny,
];

/// The half-open range cold jobs draw their instruction caps from: wide
/// enough that no run uses up its caps, narrow enough that a job's work
/// hardly depends on the cap it drew, so the latency percentiles of a
/// ten-second run repeat across seeds.
pub const COLD_CAPS: std::ops::Range<u64> = 30_000..32_000;

/// The cap of `service-cold`'s warm-up block: outside [`COLD_CAPS`], so no
/// cell the warm-up stores is ever a measured job's cache key.
pub const COLD_WARM_UP_CAP: u64 = COLD_CAPS.start - 1;

/// SplitMix64: small, fast, and enough to spread seeds over job streams.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next();
        rng
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// An endless preset stream in blocks of [`PRESETS`], each block in its
/// own shuffled order. Every preset comes up equally often, so the job
/// mix of a short run does not depend on the seed; only the order does.
fn preset_blocks(mut rng: Rng) -> impl Iterator<Item = SweepKind> {
    std::iter::repeat_with(move || {
        let mut block = PRESETS;
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        block
    })
    .flatten()
}

/// The endless preset stream of one warm-workload client: resubmits of
/// the presets the set-up already ran, so every cell is cache-served.
pub fn warm_jobs(seed: u64, client: u64) -> impl Iterator<Item = SweepKind> {
    preset_blocks(Rng::new(seed, client + 1))
}

/// The cold-workload job stream: a preset and an instruction cap per job,
/// caps drawn from [`COLD_CAPS`] without replacement so every cell of every
/// job is a fresh cache key. The stream ends once the range is used up.
pub fn cold_jobs(seed: u64) -> impl Iterator<Item = (SweepKind, u64)> {
    let mut rng = Rng::new(seed, 0);
    let mut caps: Vec<u64> = COLD_CAPS.collect();
    let mut drawn = 0;
    let caps = std::iter::from_fn(move || {
        if drawn == caps.len() {
            return None;
        }
        // One step of a Fisher-Yates shuffle per job.
        let pick = drawn + rng.below((caps.len() - drawn) as u64) as usize;
        caps.swap(drawn, pick);
        drawn += 1;
        Some(caps[drawn - 1])
    });
    preset_blocks(Rng::new(seed, u64::MAX)).zip(caps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let a: Vec<_> = cold_jobs(1).take(200).collect();
        assert_eq!(a, cold_jobs(1).take(200).collect::<Vec<_>>());
        assert_ne!(a, cold_jobs(2).take(200).collect::<Vec<_>>());

        let w: Vec<_> = warm_jobs(1, 0).take(200).collect();
        assert_eq!(w, warm_jobs(1, 0).take(200).collect::<Vec<_>>());
        assert_ne!(w, warm_jobs(2, 0).take(200).collect::<Vec<_>>());
        assert_ne!(
            w,
            warm_jobs(1, 1).take(200).collect::<Vec<_>>(),
            "clients share a stream"
        );
    }

    #[test]
    fn caps_are_never_reused_and_stay_in_range() {
        let caps: Vec<u64> = cold_jobs(7).map(|(_, cap)| cap).collect();
        assert_eq!(caps.len(), (COLD_CAPS.end - COLD_CAPS.start) as usize);
        assert!(caps.iter().all(|cap| COLD_CAPS.contains(cap)));
        assert_eq!(caps.iter().collect::<HashSet<_>>().len(), caps.len());
    }

    #[test]
    fn every_block_holds_each_preset_once() {
        let cold: Vec<&str> = cold_jobs(3)
            .take(100)
            .map(|(kind, _)| kind.name())
            .collect();
        let warm: Vec<&str> = warm_jobs(3, 0).take(100).map(SweepKind::name).collect();
        for stream in [cold, warm] {
            for block in stream.chunks(PRESETS.len()) {
                assert_eq!(
                    block.iter().collect::<HashSet<_>>().len(),
                    PRESETS.len(),
                    "{block:?}"
                );
            }
        }
    }
}
