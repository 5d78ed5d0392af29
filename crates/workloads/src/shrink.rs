//! Failing-trace minimization for differential testing.
//!
//! When an optimized simulator and the reference oracle disagree on a
//! 20 000-instruction trace, the mismatch report is useless for debugging
//! until the trace is cut down to the handful of instructions that actually
//! trigger the divergence. [`shrink_trace`] does that mechanically: given a
//! trace and a predicate that returns `true` while the failure still
//! reproduces, it returns a (locally) minimal sub-trace that still fails.
//!
//! The algorithm is the classic two-stage reducer:
//!
//! 1. **Prefix bisection** — timing divergences are usually triggered by
//!    one event and observable in the fingerprint forever after, so the
//!    shortest failing *prefix* is found first with a binary search. Every
//!    accepted cut is re-verified by calling the predicate, so a
//!    non-monotone failure can cost extra probes but never yields a
//!    non-failing result.
//! 2. **ddmin-style chunk removal** — delete aligned chunks from the
//!    middle, halving the chunk size whenever a full pass removes nothing,
//!    down to single instructions (1-minimality: no single remaining
//!    instruction can be removed without losing the failure).
//!
//! Removing instructions re-sequences the survivors densely (via
//! [`Trace::push`]), so the candidate handed to the predicate is always a
//! well-formed trace. The `completed` flag is preserved only while the
//! original final instruction (normally the `halt`) survives.

use crate::trace::{DynInst, Trace};

/// Rebuilds a trace from a subset of instructions, re-sequencing densely.
fn rebuild(insts: &[DynInst], original: &Trace) -> Trace {
    let mut t = Trace::new();
    for d in insts {
        t.push(*d);
    }
    let kept_last = match (insts.last(), original.iter().next_back()) {
        (Some(a), Some(b)) => *a == b,
        _ => false,
    };
    if original.is_completed() && kept_last {
        t.mark_completed();
    }
    t
}

/// Minimizes a failing trace.
///
/// `fails` must return `true` for any trace that still exhibits the failure
/// of interest (e.g. "the optimized simulator and the oracle disagree", or
/// "the invariant checker panics"). The input trace itself must fail;
/// if it does not, it is returned unchanged.
///
/// The result is guaranteed to satisfy `fails` and to be 1-minimal with
/// respect to single-instruction removal. The predicate is invoked
/// O(n log n) times in the typical case.
pub fn shrink_trace(trace: &Trace, mut fails: impl FnMut(&Trace) -> bool) -> Trace {
    if !fails(trace) {
        return trace.clone();
    }
    let mut kept: Vec<DynInst> = trace.iter().collect();

    // Stage 1: shortest failing prefix. `best` is always a verified-failing
    // length; the search only commits cuts the predicate confirms.
    let mut best = kept.len();
    let mut lo = 0usize;
    let mut hi = best;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if mid < best && fails(&rebuild(&kept[..mid], trace)) {
            best = mid;
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    kept.truncate(best);

    // Stage 2: ddmin-style chunk removal from the failing prefix.
    let mut chunk = kept.len().div_ceil(2).max(1);
    loop {
        let mut removed_any = false;
        let mut start = 0;
        while start < kept.len() {
            let end = (start + chunk).min(kept.len());
            // Never try removing the whole remaining trace.
            if end - start == kept.len() {
                start = end;
                continue;
            }
            let candidate: Vec<DynInst> =
                kept[..start].iter().chain(&kept[end..]).copied().collect();
            if fails(&rebuild(&candidate, trace)) {
                kept = candidate;
                removed_any = true;
                // Retry at the same offset: the next chunk slid into place.
            } else {
                start = end;
            }
        }
        if !removed_any {
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }

    rebuild(&kept, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_isa::{Instruction, Opcode, Reg};

    fn alu(pc: u32) -> DynInst {
        DynInst {
            seq: 0,
            pc,
            inst: Instruction::rrr(Opcode::Addu, Reg::new(8), Reg::new(9), Reg::new(10)),
            next_pc: pc + 4,
            taken: false,
            mem_addr: None,
        }
    }

    fn store(pc: u32, addr: u32) -> DynInst {
        DynInst {
            seq: 0,
            pc,
            inst: Instruction::mem(Opcode::Sw, Reg::new(8), 0, Reg::new(29)),
            next_pc: pc + 4,
            taken: false,
            mem_addr: Some(addr),
        }
    }

    fn build(insts: Vec<DynInst>) -> Trace {
        let mut t = Trace::new();
        for d in insts {
            t.push(d);
        }
        t.mark_completed();
        t
    }

    #[test]
    fn returns_input_when_predicate_never_fires() {
        let t = build((0..20).map(|i| alu(0x40_0000 + i * 4)).collect());
        let shrunk = shrink_trace(&t, |_| false);
        assert_eq!(shrunk, t);
    }

    #[test]
    fn shrinks_single_culprit_to_one_instruction() {
        // 100 filler ALUs with one store buried in the middle; the
        // "failure" is simply the store's presence.
        let mut insts: Vec<DynInst> = (0..100).map(|i| alu(0x40_0000 + i * 4)).collect();
        insts[57] = store(0x40_0000 + 57 * 4, 0x1000_0040);
        let t = build(insts);
        let fails = |c: &Trace| c.iter().any(|d| d.mem_addr == Some(0x1000_0040));
        let shrunk = shrink_trace(&t, fails);
        assert_eq!(shrunk.len(), 1, "exactly the culprit survives");
        assert_eq!(shrunk.get(0).unwrap().mem_addr, Some(0x1000_0040));
        assert_eq!(shrunk.get(0).unwrap().seq, 0, "survivors are re-sequenced");
    }

    #[test]
    fn shrinks_interacting_pair_and_stays_failing() {
        // The failure needs BOTH stores — ddmin must not drop either.
        let mut insts: Vec<DynInst> = (0..64).map(|i| alu(0x40_0000 + i * 4)).collect();
        insts[10] = store(0x40_0000 + 10 * 4, 0x1000_0000);
        insts[50] = store(0x40_0000 + 50 * 4, 0x1000_0004);
        let t = build(insts);
        let fails = |c: &Trace| {
            c.iter().any(|d| d.mem_addr == Some(0x1000_0000))
                && c.iter().any(|d| d.mem_addr == Some(0x1000_0004))
        };
        let shrunk = shrink_trace(&t, fails);
        assert!(fails(&shrunk), "result must still fail");
        assert_eq!(shrunk.len(), 2);
        // Relative order is preserved.
        assert_eq!(shrunk.get(0).unwrap().mem_addr, Some(0x1000_0000));
        assert_eq!(shrunk.get(1).unwrap().mem_addr, Some(0x1000_0004));
    }

    #[test]
    fn completion_flag_tracks_the_final_instruction() {
        let mut insts: Vec<DynInst> = (0..8).map(|i| alu(0x40_0000 + i * 4)).collect();
        insts[2] = store(0x40_0000 + 2 * 4, 0x1000_0000);
        let t = build(insts);
        // Failure ignores the tail, so the halt-position instruction is cut
        // and the shrunk trace must drop the completed flag.
        let shrunk =
            shrink_trace(&t, |c| c.iter().any(|d| d.mem_addr == Some(0x1000_0000)));
        assert_eq!(shrunk.len(), 1);
        assert!(!shrunk.is_completed());

        // Failure that pins the last instruction keeps the flag.
        let last_pc = 0x40_0000 + 7 * 4;
        let shrunk2 = shrink_trace(&t, |c| c.iter().next_back().is_some_and(|d| d.pc == last_pc));
        assert!(shrunk2.is_completed());
    }
}
