//! Seeded fuzz-style corpus for the trace parser: no input — random
//! bytes, corrupted real traces, or pathological line shapes — may ever
//! panic. Errors must be `TraceParseError` values, successes must
//! re-format and re-parse to the same trace.
//!
//! This is a deterministic corpus (fixed seeds through the vendored
//! `rand` compat crate), so a failure reproduces exactly in CI.

use ce_workloads::{
    corrupt_trace_text, parse_trace, parse_trace_with, trace_cached, Benchmark, ParseLimits,
    TraceCorruption,
};
use rand::{Rng, SeedableRng, StdRng};

/// Random byte soup, biased toward trace-adjacent characters so lines
/// frequently get deep into the parser before failing.
fn random_input(rng: &mut StdRng) -> String {
    const ALPHABET: &[u8] = b"0123456789abcdefx ce-trav1=#.\n\t lw sw completed=true";
    let with_header = rng.gen_range(0..4usize) != 0;
    let mut s = String::new();
    if with_header {
        s.push_str("ce-trace v1 completed=true\n");
    }
    let len = rng.gen_range(0..400usize);
    for _ in 0..len {
        if rng.gen_range(0..50usize) == 0 {
            // Occasional raw non-ASCII to exercise UTF-8 boundaries.
            s.push('λ');
        } else {
            s.push(ALPHABET[rng.gen_range(0..ALPHABET.len())] as char);
        }
    }
    s
}

#[test]
fn random_bytes_never_panic_the_parser() {
    let mut rng = StdRng::seed_from_u64(0xf422);
    for case in 0..400 {
        let input = random_input(&mut rng);
        match parse_trace(&input) {
            // A parse that succeeds must round-trip through the
            // formatter (the parser may not fabricate state).
            Ok(trace) => {
                let text = ce_workloads::trace_io::format_trace(&trace);
                let again = parse_trace(&text).unwrap_or_else(|e| {
                    panic!("case {case}: round-trip re-parse failed: {e}")
                });
                assert_eq!(
                    trace.iter().collect::<Vec<_>>(),
                    again.iter().collect::<Vec<_>>(),
                    "case {case}"
                );
            }
            // An error is fine — it just must carry a line number.
            Err(e) => assert!(e.line > 0, "case {case}: error without a line: {e}"),
        }
    }
}

/// Every corruption kind applied to a real benchmark trace yields either
/// a clean parse error or a well-formed (possibly different) trace —
/// never a panic. This is the same corpus shape `cechaos`'s
/// simulator-fault phase sweeps, run here against the parser alone.
#[test]
fn corrupted_real_traces_never_panic_the_parser() {
    let trace = trace_cached(Benchmark::Compress, 3_000).expect("trace");
    let text = ce_workloads::trace_io::format_trace(&trace);
    let kinds = [
        TraceCorruption::BitFlip,
        TraceCorruption::Truncate,
        TraceCorruption::DropLine,
        TraceCorruption::DuplicateLine,
    ];
    let mut parsed_ok = 0usize;
    let mut rejected = 0usize;
    for kind in kinds {
        for seed in 0..25u64 {
            let bad = corrupt_trace_text(&text, kind, 0x5eed ^ (seed << 4) ^ kind as u64);
            match parse_trace(&bad) {
                Ok(_) => parsed_ok += 1,
                Err(e) => {
                    rejected += 1;
                    assert!(e.line > 0, "{kind:?}/{seed}: error without a line: {e}");
                }
            }
        }
    }
    // The corpus must actually exercise both paths.
    assert!(rejected > 0, "no corruption was rejected ({parsed_ok} parsed)");
    assert!(parsed_ok > 0, "every corruption was rejected ({rejected} rejected)");
}

/// The configurable limits must trip as errors, not as allocation blowups
/// or panics, on adversarially long lines and oversized op counts.
#[test]
fn parse_limits_reject_oversized_inputs_cleanly() {
    let long_line = format!("ce-trace v1 completed=true\n{}\n", "4".repeat(10_000));
    let tight = ParseLimits { max_line_bytes: 256, max_ops: 8 };
    let err = parse_trace_with(&long_line, tight).expect_err("line over the limit");
    assert!(err.to_string().contains("line"), "{err}");

    let trace = trace_cached(Benchmark::Compress, 200).expect("trace");
    let text = ce_workloads::trace_io::format_trace(&trace);
    let err = parse_trace_with(&text, tight).expect_err("ops over the limit");
    assert!(err.to_string().contains("8"), "{err}");
}
