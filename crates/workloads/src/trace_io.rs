//! Trace serialization: a simple line-oriented text format so traces can
//! be generated once (emulation is cheap but not free) and replayed into
//! many simulator configurations, or exchanged with other tools.
//!
//! Format:
//!
//! ```text
//! ce-trace v1 completed=true
//! <pc> <word> <next_pc> <taken> [<mem_addr>]
//! …
//! ```
//!
//! with all numeric fields in lowercase hex without leading zeros. The
//! instruction is stored as its 32-bit encoding, so the file is
//! self-contained and the decoder validates it on load.
//!
//! [`write_trace`] is the one serializer: it renders each line into a
//! stack buffer and hands it to any [`Write`] sink, so a trace can be
//! saved through a buffered file without its text ever existing as one
//! string. [`format_trace`] collects the same bytes into a `String`.
//! (The manifest's trace fingerprint does not read the text; it hashes
//! the records, see [`Trace::write_canonical`].)

use crate::trace::{DynInst, Trace};
use ce_isa::{decode, encode};
use std::error::Error;
use std::fmt;
use std::io::{self, Write};

/// Error from [`parse_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl Error for TraceParseError {}

fn err(line: usize, message: impl Into<String>) -> TraceParseError {
    TraceParseError { line, message: message.into() }
}

/// Resource ceilings for [`parse_trace_with`] — the defence against
/// adversarial or corrupt trace files. A well-formed line is under 50
/// bytes and a trace holds one op per line, so a multi-kilobyte line or
/// a file promising more ops than the run could ever consume is garbage;
/// rejecting it fast (with a line number) beats swapping the machine to
/// death materializing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Longest acceptable line in bytes (default 4096).
    pub max_line_bytes: usize,
    /// Most ops a file may carry (default 64 Mi — ~128× the default
    /// sweep cap of 2 M instructions, well past any real experiment).
    pub max_ops: usize,
}

impl Default for ParseLimits {
    fn default() -> ParseLimits {
        ParseLimits { max_line_bytes: 4096, max_ops: 64 << 20 }
    }
}

/// Longest canonical op line: four 8-digit hex fields, the taken flag,
/// four separators and the newline.
const MAX_LINE: usize = 4 * 8 + 1 + 4 + 1;

/// Appends `value` as lowercase hex without leading zeros (`0` for zero)
/// at `buf[at..]`, returning the index just past it.
fn put_hex(buf: &mut [u8; MAX_LINE], at: usize, value: u32) -> usize {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let len = (32 - (value | 1).leading_zeros()).div_ceil(4) as usize;
    for i in 0..len {
        buf[at + len - 1 - i] = DIGITS[(value >> (4 * i)) as usize & 0xf];
    }
    at + len
}

/// Renders one op's line (newline included) into `buf`, returning its
/// length.
fn put_line(buf: &mut [u8; MAX_LINE], d: &DynInst) -> usize {
    let mut at = put_hex(buf, 0, d.pc);
    buf[at] = b' ';
    at = put_hex(buf, at + 1, encode(&d.inst));
    buf[at] = b' ';
    at = put_hex(buf, at + 1, d.next_pc);
    buf[at] = b' ';
    buf[at + 1] = if d.taken { b'1' } else { b'0' };
    at += 2;
    if let Some(addr) = d.mem_addr {
        buf[at] = b' ';
        at = put_hex(buf, at + 1, addr);
    }
    buf[at] = b'\n';
    at + 1
}

/// Streams a trace's text into `out`: the header, then one write per op
/// line. The bytes are exactly those of [`format_trace`].
///
/// # Errors
///
/// The first error `out` returns.
pub fn write_trace<W: Write + ?Sized>(trace: &Trace, out: &mut W) -> io::Result<()> {
    writeln!(out, "ce-trace v1 completed={}", trace.is_completed())?;
    let mut line = [0u8; MAX_LINE];
    for d in trace {
        let len = put_line(&mut line, &d);
        out.write_all(&line[..len])?;
    }
    Ok(())
}

/// Serializes a trace to the text format, collecting [`write_trace`]'s
/// output.
pub fn format_trace(trace: &Trace) -> String {
    let mut out = Vec::with_capacity(trace.len() * 32);
    write_trace(trace, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("the trace format is ASCII")
}

/// Parses the text format back into a [`Trace`], under the default
/// [`ParseLimits`].
///
/// # Errors
///
/// Returns [`TraceParseError`] naming the offending line for format,
/// encoding, or field errors.
pub fn parse_trace(text: &str) -> Result<Trace, TraceParseError> {
    parse_trace_with(text, ParseLimits::default())
}

/// Parses the text format back into a [`Trace`], rejecting lines longer
/// than `limits.max_line_bytes` and files with more than
/// `limits.max_ops` operations before they can exhaust memory.
///
/// # Errors
///
/// Returns [`TraceParseError`] naming the offending line for format,
/// encoding, field, or limit errors.
pub fn parse_trace_with(text: &str, limits: ParseLimits) -> Result<Trace, TraceParseError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| err(1, "empty input"))?;
    if header.len() > limits.max_line_bytes {
        return Err(err(1, format!("line exceeds {} bytes", limits.max_line_bytes)));
    }
    let completed = match header.trim() {
        "ce-trace v1 completed=true" => true,
        "ce-trace v1 completed=false" => false,
        other => return Err(err(1, format!("bad header `{other}`"))),
    };

    let mut trace = Trace::new();
    for (idx, raw) in lines {
        let line = idx + 1;
        if raw.len() > limits.max_line_bytes {
            return Err(err(line, format!("line exceeds {} bytes", limits.max_line_bytes)));
        }
        let l = raw.trim();
        if l.is_empty() {
            continue;
        }
        if trace.len() >= limits.max_ops {
            return Err(err(line, format!("trace exceeds {} operations", limits.max_ops)));
        }
        let fields: Vec<&str> = l.split_ascii_whitespace().collect();
        if !(4..=5).contains(&fields.len()) {
            return Err(err(line, format!("expected 4–5 fields, got {}", fields.len())));
        }
        let hex = |s: &str, what: &str| {
            u32::from_str_radix(s, 16).map_err(|_| err(line, format!("bad {what} `{s}`")))
        };
        let pc = hex(fields[0], "pc")?;
        let word = hex(fields[1], "instruction word")?;
        let next_pc = hex(fields[2], "next pc")?;
        let taken = match fields[3] {
            "0" => false,
            "1" => true,
            other => return Err(err(line, format!("bad taken flag `{other}`"))),
        };
        let mem_addr = match fields.get(4) {
            Some(s) => Some(hex(s, "memory address")?),
            None => None,
        };
        let inst = decode(word).map_err(|e| err(line, e.to_string()))?;
        // The simulator relies on every load/store carrying its effective
        // address (it panics deep in the issue path otherwise), so enforce
        // the contract here with a line number while the file is at hand.
        let is_mem = matches!(
            inst.opcode.kind(),
            ce_isa::OperationKind::Load | ce_isa::OperationKind::Store
        );
        if is_mem && mem_addr.is_none() {
            return Err(err(
                line,
                format!("{} without a memory address (5th field)", inst.opcode),
            ));
        }
        if !is_mem && mem_addr.is_some() {
            return Err(err(
                line,
                format!("memory address on non-memory instruction {}", inst.opcode),
            ));
        }
        trace.push(DynInst { seq: 0, pc, inst, next_pc, taken, mem_addr });
    }
    if completed {
        trace.mark_completed();
    }
    trace.shrink_to_fit();
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_benchmark;
    use crate::Benchmark;

    #[test]
    fn roundtrips_a_real_trace() {
        let original = trace_benchmark(Benchmark::Compress, 5_000).unwrap();
        let text = format_trace(&original);
        let back = parse_trace(&text).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn roundtrips_completion_flag() {
        let truncated = trace_benchmark(Benchmark::Li, 100).unwrap();
        assert!(!truncated.is_completed());
        let back = parse_trace(&format_trace(&truncated)).unwrap();
        assert!(!back.is_completed());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let back = parse_trace(&format_trace(&Trace::new())).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn rejects_bad_header() {
        let e = parse_trace("ce-trace v2 completed=true\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(parse_trace("").is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        let header = "ce-trace v1 completed=true\n";
        let e = parse_trace(&format!("{header}400000 zz 400004 0\n")).unwrap_err();
        assert!(e.message.contains("instruction word"));
        let e = parse_trace(&format!("{header}400000 1 400004\n")).unwrap_err();
        assert!(e.message.contains("fields"));
        let e = parse_trace(&format!("{header}400000 1 400004 7\n")).unwrap_err();
        assert!(e.message.contains("taken"));
        // Word 1 is an invalid encoding (SPECIAL with unknown funct).
        let e = parse_trace(&format!("{header}400000 1 400004 0\n")).unwrap_err();
        assert!(e.message.contains("invalid instruction"));
    }

    /// Regression test: a load/store line without its effective address
    /// used to parse fine and then panic the *simulator* mid-run
    /// (`loads carry addresses`); it must fail at parse time with the
    /// offending line number instead.
    #[test]
    fn rejects_memory_ops_without_addresses() {
        use ce_isa::{encode, Instruction, Opcode, Reg};
        let header = "ce-trace v1 completed=true\n";
        let lw = encode(&Instruction::mem(Opcode::Lw, Reg::new(4), 0, Reg::new(29)));
        let e = parse_trace(&format!("{header}400000 {lw:x} 400004 0\n")).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("memory address"), "{}", e.message);
        // With the address the same line is fine.
        assert!(parse_trace(&format!("{header}400000 {lw:x} 400004 0 10000000\n")).is_ok());

        let sw = encode(&Instruction::mem(Opcode::Sw, Reg::new(4), 0, Reg::new(29)));
        let e = parse_trace(&format!("{header}400000 {sw:x} 400004 0\n")).unwrap_err();
        assert!(e.message.contains("memory address"), "{}", e.message);
    }

    #[test]
    fn rejects_addresses_on_non_memory_ops() {
        use ce_isa::{encode, Instruction, Opcode, Reg};
        let header = "ce-trace v1 completed=true\n";
        let add = encode(&Instruction::rrr(Opcode::Addu, Reg::new(4), Reg::new(5), Reg::new(6)));
        let e = parse_trace(&format!("{header}400000 {add:x} 400004 0 10000000\n")).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("non-memory"), "{}", e.message);
    }

    /// Adversarial inputs must fail fast with a line number, not
    /// materialize unbounded state: a single multi-kilobyte line and a
    /// file promising more ops than the ceiling are both rejected.
    #[test]
    fn limits_reject_adversarial_inputs() {
        let limits = ParseLimits { max_line_bytes: 64, max_ops: 3 };

        let long = format!("ce-trace v1 completed=true\n{}\n", "a".repeat(1000));
        let e = parse_trace_with(&long, limits).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("64 bytes"), "{}", e.message);

        let long_header = "x".repeat(1000);
        let e = parse_trace_with(&long_header, limits).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("64 bytes"), "{}", e.message);

        let small = trace_benchmark(Benchmark::Compress, 200).unwrap();
        let text = format_trace(&small);
        let e = parse_trace_with(&text, limits).unwrap_err();
        assert_eq!(e.line, 2 + limits.max_ops);
        assert!(e.message.contains("3 operations"), "{}", e.message);

        // The same file parses under the default (generous) limits.
        assert!(parse_trace(&text).is_ok());
    }

    #[test]
    fn error_display_names_the_line() {
        let header = "ce-trace v1 completed=false\n";
        let e = parse_trace(&format!("{header}\nnot-hex\n")).unwrap_err();
        assert!(e.to_string().starts_with("trace line 3"));
    }
}
