//! The streamed trace serializer is pinned to the original `format!`
//! rendering of the text format, and the trace fingerprint to FNV-1a of
//! that text. Cell keys, manifests and every stored `cesimd` result are
//! keyed on these fingerprints, so a silent change to either would turn
//! every stored result into a cache miss — and the pinned CSVs, which
//! carry no fingerprints, would not notice.

use ce_bench::manifest::{trace_fingerprint, Fnv64};
use ce_isa::{encode, Instruction, Opcode, Reg};
use ce_workloads::shrink::shrink_trace;
use ce_workloads::synthetic::{generate, SyntheticConfig};
use ce_workloads::trace_io::{format_trace, write_trace};
use ce_workloads::{parse_trace, trace_benchmark, Benchmark, DynInst, Trace};

/// The text format as first written, with one `format!` per line.
fn reference_text(trace: &Trace) -> String {
    let mut out = format!("ce-trace v1 completed={}\n", trace.is_completed());
    for d in trace {
        out.push_str(&format!(
            "{:x} {:x} {:x} {}",
            d.pc,
            encode(&d.inst),
            d.next_pc,
            u8::from(d.taken)
        ));
        if let Some(addr) = d.mem_addr {
            out.push_str(&format!(" {addr:x}"));
        }
        out.push('\n');
    }
    out
}

/// FNV-1a (64-bit) in the 16-hex form, written out independently of
/// `Fnv64`.
fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Asserts two renderings are byte-identical, naming the first line that
/// differs rather than dumping megabytes of text.
fn assert_same_bytes(what: &str, got: &[u8], want: &[u8]) {
    if got == want {
        return;
    }
    let at = got.iter().zip(want).take_while(|(a, b)| a == b).count();
    let line = want[..at].iter().filter(|&&b| b == b'\n').count() + 1;
    panic!(
        "{what}: bytes differ at offset {at} (line {line}); lengths {} vs {}",
        got.len(),
        want.len()
    );
}

/// The streamed bytes, the collected `String` and the reference text
/// agree, and streaming into `Fnv64`, as the trace fingerprint does,
/// gives FNV-1a of them. Returns that fingerprint.
fn check(what: &str, trace: &Trace) -> String {
    let want = reference_text(trace);
    let mut streamed = Vec::new();
    write_trace(trace, &mut streamed).unwrap();
    assert_same_bytes(&format!("{what} (write_trace)"), &streamed, want.as_bytes());
    let collected = format_trace(trace);
    assert_same_bytes(&format!("{what} (format_trace)"), collected.as_bytes(), want.as_bytes());
    let fp = fnv1a_hex(want.as_bytes());
    let mut hashed = Fnv64::default();
    write_trace(trace, &mut hashed).unwrap();
    assert_eq!(hashed.hex(), fp, "{what}");
    fp
}

#[test]
fn kernel_traces_match_the_reference_at_every_cap() {
    for bench in Benchmark::all() {
        for cap in [1, 200, 20_000] {
            let what = format!("{bench} at cap {cap}");
            let trace = trace_benchmark(bench, cap).unwrap();
            let fp = check(&what, &trace);
            assert_eq!(trace_fingerprint(bench, cap).unwrap(), fp, "{what}");
            // Compared as text: the decoder sign-extends the logical
            // immediates the assembler keeps zero-extended (`andi`, `ori`),
            // which encode to the same word.
            let text = format_trace(&trace);
            assert!(format_trace(&parse_trace(&text).unwrap()) == text, "{what}");
        }
    }
}

/// The seven CI-cap fingerprints as the `format!` serializer produced
/// them. Every stored result cached at this cap is keyed on these.
#[test]
fn ci_cap_fingerprints_are_pinned() {
    let pinned = [
        (Benchmark::Compress, "710a4230d670a160"),
        (Benchmark::Gcc, "59475cd5be30938a"),
        (Benchmark::Go, "4d541615e40c1a82"),
        (Benchmark::Li, "59793e4ef7be81ea"),
        (Benchmark::M88ksim, "0ce37ab6d23f6066"),
        (Benchmark::Perl, "cad4150a898d1dde"),
        (Benchmark::Vortex, "d2af7fab8e87828a"),
    ];
    for (bench, want) in pinned {
        assert_eq!(trace_fingerprint(bench, 20_000).unwrap(), want, "{bench}");
    }
}

#[test]
fn synthetic_and_shrunk_traces_match_the_reference() {
    let synthetic = generate(&SyntheticConfig::default(), 5_000);
    check("synthetic", &synthetic);
    assert_eq!(parse_trace(&format_trace(&synthetic)).unwrap(), synthetic);

    let shrunk = shrink_trace(&synthetic, |t| {
        t.iter().filter(|d| d.mem_addr.is_some()).count() >= 3 && t.iter().any(|d| d.taken)
    });
    assert!(shrunk.len() < synthetic.len());
    check("shrunk", &shrunk);
}

#[test]
fn empty_and_uncompleted_traces_match_the_reference() {
    let empty = Trace::new();
    check("empty", &empty);
    let mut empty_completed = Trace::new();
    empty_completed.mark_completed();
    check("empty, completed", &empty_completed);

    let uncompleted = trace_benchmark(Benchmark::Li, 100).unwrap();
    assert!(!uncompleted.is_completed());
    check("uncompleted", &uncompleted);
}

/// Field extremes: zero renders as one digit, `u32::MAX` as eight, a
/// zero memory address is still written, and a set taken flag is `1`.
#[test]
fn hand_built_edge_records_match_the_reference() {
    let record =
        |pc, inst, next_pc, taken, mem_addr| DynInst { seq: 0, pc, inst, next_pc, taken, mem_addr };
    let lw = Instruction::mem(Opcode::Lw, Reg::new(4), -1, Reg::new(29));
    let sw = Instruction::mem(Opcode::Sw, Reg::new(31), 0, Reg::new(31));
    let beq = Instruction::branch2(Opcode::Beq, Reg::new(1), Reg::new(2), -4);
    let mut trace: Trace = [
        record(0, Instruction::NOP, 4, false, None),
        record(u32::MAX, Instruction::jr(Reg::RA), u32::MAX, true, None),
        record(0, lw, 0, false, Some(0)),
        record(u32::MAX, sw, 0, false, Some(u32::MAX)),
        record(0x40_0010, beq, 0x40_0004, true, None),
        record(0x10, Instruction::HALT, 0x14, false, None),
    ]
    .into_iter()
    .collect();
    check("hand-built", &trace);
    assert_eq!(parse_trace(&format_trace(&trace)).unwrap(), trace);
    trace.mark_completed();
    check("hand-built, completed", &trace);
}
