//! Deterministic trace-file corruption — the injection half of the
//! `trace_io` robustness story.
//!
//! [`corrupt_trace_text`] applies one seeded, reproducible mutation to a
//! serialized trace: a flipped bit in a random byte, a truncation
//! mid-file, a dropped line, or a duplicated line — the classic ways a
//! trace on disk goes bad (torn writes, bad sectors, buggy producers).
//! The fault campaign in `ce-bench` (`cechaos`'s first phase) feeds the
//! mutated text back through
//! [`parse_trace`](crate::trace_io::parse_trace) and asserts every
//! corruption is either *detected* (rejected with a line-numbered
//! error), *visible* (it parses into a different, self-consistently
//! valid trace — the file still means exactly what it says), or
//! *unchanged* (the bytes changed but the parsed trace did not, e.g.
//! whitespace).

use rand::{Rng, SeedableRng, StdRng};
use std::fmt;

/// One kind of file-level trace corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCorruption {
    /// Flip one bit of one byte.
    BitFlip,
    /// Cut the file off at a random byte offset (a torn write).
    Truncate,
    /// Delete one whole line (a dropped op).
    DropLine,
    /// Repeat one whole line (a duplicated op).
    DuplicateLine,
}

impl TraceCorruption {
    /// Every corruption kind, for campaign generators.
    pub const ALL: [TraceCorruption; 4] = [
        TraceCorruption::BitFlip,
        TraceCorruption::Truncate,
        TraceCorruption::DropLine,
        TraceCorruption::DuplicateLine,
    ];

    /// Short stable name (campaign reports).
    pub fn name(self) -> &'static str {
        match self {
            TraceCorruption::BitFlip => "bit-flip",
            TraceCorruption::Truncate => "truncate",
            TraceCorruption::DropLine => "drop-line",
            TraceCorruption::DuplicateLine => "duplicate-line",
        }
    }
}

impl fmt::Display for TraceCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Applies one seeded corruption to a serialized trace, returning the
/// mutated text. Deterministic: the same `(text, kind, seed)` always
/// produces the same bytes. The result is *not* guaranteed to be
/// invalid — proving the parser classifies each outcome correctly is
/// the campaign's job, not this function's.
///
/// Byte-level mutations land on ASCII, so the result is always valid
/// UTF-8 (the trace format is pure ASCII to begin with).
pub fn corrupt_trace_text(text: &str, kind: TraceCorruption, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        TraceCorruption::BitFlip => {
            let mut bytes = text.as_bytes().to_vec();
            if bytes.is_empty() {
                return text.to_string();
            }
            let pos = rng.gen_range(0..bytes.len());
            // Flip within the low 7 bits so the byte stays ASCII and the
            // result stays valid UTF-8.
            let bit = rng.gen_range(0u32..7);
            bytes[pos] ^= 1 << bit;
            String::from_utf8(bytes).expect("ASCII in, ASCII out")
        }
        TraceCorruption::Truncate => {
            if text.is_empty() {
                return String::new();
            }
            let mut cut = rng.gen_range(0..text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1; // trace text is ASCII; this guards odd inputs
            }
            text[..cut].to_string()
        }
        TraceCorruption::DropLine => {
            let lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                return text.to_string();
            }
            let victim = rng.gen_range(0..lines.len());
            let mut out = String::with_capacity(text.len());
            for (i, l) in lines.iter().enumerate() {
                if i != victim {
                    out.push_str(l);
                    out.push('\n');
                }
            }
            out
        }
        TraceCorruption::DuplicateLine => {
            let lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                return text.to_string();
            }
            let victim = rng.gen_range(0..lines.len());
            let mut out = String::with_capacity(text.len() + lines[victim].len() + 1);
            for (i, l) in lines.iter().enumerate() {
                out.push_str(l);
                out.push('\n');
                if i == victim {
                    out.push_str(l);
                    out.push('\n');
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "ce-trace v1 completed=true\n400000 24080040 400004 0\n";

    #[test]
    fn corruption_is_deterministic() {
        for kind in TraceCorruption::ALL {
            for seed in 0..20 {
                let a = corrupt_trace_text(SAMPLE, kind, seed);
                let b = corrupt_trace_text(SAMPLE, kind, seed);
                assert_eq!(a, b, "{kind} seed {seed}");
            }
        }
    }

    #[test]
    fn bit_flip_changes_exactly_one_byte() {
        let out = corrupt_trace_text(SAMPLE, TraceCorruption::BitFlip, 7);
        assert_eq!(out.len(), SAMPLE.len());
        let diffs = SAMPLE.bytes().zip(out.bytes()).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
    }

    #[test]
    fn truncate_shortens() {
        let out = corrupt_trace_text(SAMPLE, TraceCorruption::Truncate, 3);
        assert!(out.len() < SAMPLE.len());
        assert!(SAMPLE.starts_with(&out));
    }

    #[test]
    fn line_mutations_change_the_line_count() {
        let dropped = corrupt_trace_text(SAMPLE, TraceCorruption::DropLine, 1);
        assert_eq!(dropped.lines().count(), SAMPLE.lines().count() - 1);
        let duplicated = corrupt_trace_text(SAMPLE, TraceCorruption::DuplicateLine, 1);
        assert_eq!(duplicated.lines().count(), SAMPLE.lines().count() + 1);
    }

    #[test]
    fn empty_input_is_returned_unchanged() {
        for kind in TraceCorruption::ALL {
            assert_eq!(corrupt_trace_text("", kind, 0), "");
        }
    }
}
