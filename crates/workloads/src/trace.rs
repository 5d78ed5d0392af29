//! Dynamic instruction traces — the interface between functional emulation
//! and timing simulation.
//!
//! A trace is stored decode-once: a table of the distinct static
//! instructions it executes (*sites*, `(pc, instruction)` pairs in
//! first-appearance order) and one 8-byte record per dynamic
//! instruction that points at its site. Everything else a [`DynInst`]
//! carries is derived on read:
//!
//! - `seq` is the record's index;
//! - `next_pc` is `pc + 4` when not taken, and when taken the site's
//!   static target (branches, `j`, `jal`) or the record's aux word
//!   (`jr`, `jalr`);
//! - `mem_addr` is the aux word for loads and stores, `None` otherwise.
//!
//! A pushed instruction those rules cannot reproduce (a synthetic or
//! corrupted one: a load without an address, a fall-through that does
//! not fall through) is kept verbatim in an exception list, so every
//! sequence reads back exactly.
//!
//! [`Trace::write_canonical`] streams the records themselves, for the
//! manifest's trace fingerprint.

use ce_isa::{encode, Instruction, Opcode, OperationKind};
use std::collections::HashMap;
use std::ops::{Bound, RangeBounds};

/// One dynamically executed instruction, with everything the timing
/// simulator needs: the decoded instruction, its control-flow outcome, and
/// its effective address if it touches memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    /// Position in the dynamic stream (0-based).
    pub seq: u64,
    /// Address of the instruction.
    pub pc: u32,
    /// The decoded instruction.
    pub inst: Instruction,
    /// Address of the instruction executed next (branch/jump outcome).
    pub next_pc: u32,
    /// For control transfers: whether the transfer was taken.
    pub taken: bool,
    /// For loads/stores: the effective byte address.
    pub mem_addr: Option<u32>,
}

impl DynInst {
    /// Whether this instruction is a conditional branch.
    pub fn is_conditional_branch(&self) -> bool {
        self.inst.opcode.is_conditional_branch()
    }

    /// Whether this instruction transfers control at all.
    pub fn is_control(&self) -> bool {
        self.inst.opcode.is_control()
    }
}

/// What a record's aux word holds for the instructions of one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Aux {
    /// Nothing; the aux word is zero.
    Unused,
    /// A load's or store's effective address.
    MemAddr,
    /// A `jr`'s or `jalr`'s taken target.
    JumpTarget,
}

/// One distinct static instruction, decoded once for every dynamic
/// record that points at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Site {
    pc: u32,
    inst: Instruction,
    /// `next_pc` of a taken record unless the target is the aux word.
    target: u32,
    aux: Aux,
}

impl Site {
    fn new(pc: u32, inst: Instruction) -> Site {
        let fallthrough = pc.wrapping_add(4);
        let (target, aux) = match inst.opcode.kind() {
            OperationKind::Load | OperationKind::Store => (fallthrough, Aux::MemAddr),
            OperationKind::Branch => {
                (fallthrough.wrapping_add((inst.imm as i64 * 4) as u32), Aux::Unused)
            }
            _ if matches!(inst.opcode, Opcode::Jr | Opcode::Jalr) => (0, Aux::JumpTarget),
            OperationKind::Jump => ((inst.imm as u32).wrapping_mul(4), Aux::Unused),
            _ => (fallthrough, Aux::Unused),
        };
        Site { pc, inst, target, aux }
    }

    /// The aux word a record of this site stores for `d`.
    #[inline]
    fn aux_of(&self, d: &DynInst) -> u32 {
        match self.aux {
            Aux::Unused => 0,
            Aux::MemAddr => d.mem_addr.unwrap_or(0),
            Aux::JumpTarget => d.next_pc,
        }
    }

    #[inline]
    fn next_pc(&self, taken: bool, aux: u32) -> u32 {
        if !taken {
            self.pc.wrapping_add(4)
        } else if self.aux == Aux::JumpTarget {
            aux
        } else {
            self.target
        }
    }

    #[inline]
    fn mem_addr(&self, aux: u32) -> Option<u32> {
        (self.aux == Aux::MemAddr).then_some(aux)
    }

    /// The dynamic instruction a record of this site stands for.
    #[inline(always)]
    fn expand(&self, seq: usize, taken: bool, aux: u32) -> DynInst {
        DynInst {
            seq: seq as u64,
            pc: self.pc,
            inst: self.inst,
            next_pc: self.next_pc(taken, aux),
            taken,
            mem_addr: self.mem_addr(aux),
        }
    }
}

/// One dynamic instruction: its site index shifted left by one with the
/// taken flag in bit 0, and the aux word. [`ESCAPE`] marks an exception,
/// whose aux word indexes the exception list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    key: u32,
    aux: u32,
}

/// The key of a record kept verbatim in the exception list.
const ESCAPE: u32 = u32::MAX;

/// Opens [`Trace::write_canonical`]'s stream; a new stream layout takes
/// a new tag.
const CANONICAL_TAG: &[u8] = b"ce-trace records v1\n";

/// Entries of the pc-keyed direct-mapped memo in front of the interning
/// map; a kernel's text is far smaller, so its pushes always hit.
const MEMO_SLOTS: usize = 1024;

/// The push side's site lookup: a memo slot per `pc` word in front of
/// the map from every site to its index. Reads never touch it.
#[derive(Debug, Clone)]
struct SiteIndex {
    memo: Vec<u32>,
    map: HashMap<(u32, Instruction), u32>,
}

impl SiteIndex {
    fn over(sites: &[Site]) -> SiteIndex {
        let mut index = SiteIndex { memo: vec![u32::MAX; MEMO_SLOTS], map: HashMap::new() };
        for (i, s) in sites.iter().enumerate() {
            index.map.insert((s.pc, s.inst), i as u32);
        }
        index
    }

    fn bytes(&self) -> usize {
        self.memo.capacity() * 4
            + self.map.capacity() * (std::mem::size_of::<((u32, Instruction), u32)>() + 1)
    }
}

/// An in-memory dynamic instruction trace, read by value.
///
/// ```
/// use ce_workloads::{trace_benchmark, Benchmark};
///
/// let trace = trace_benchmark(Benchmark::Li, 5_000)?;
/// // Sequence numbers are dense and ordered.
/// for (i, d) in trace.iter().enumerate() {
///     assert_eq!(d.seq, i as u64);
/// }
/// # Ok::<(), ce_workloads::WorkloadError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    sites: Vec<Site>,
    records: Vec<Record>,
    /// Pushed instructions the derivation rules cannot reproduce, in
    /// dynamic order.
    exceptions: Vec<DynInst>,
    completed: bool,
    /// Built on the first push, dropped by [`Trace::shrink_to_fit`].
    index: Option<SiteIndex>,
}

impl PartialEq for Trace {
    /// Two traces are equal when they read back the same instructions and
    /// completion flag; the encoding is a function of the pushed sequence.
    fn eq(&self, other: &Trace) -> bool {
        self.completed == other.completed
            && self.records == other.records
            && self.sites == other.sites
            && self.exceptions == other.exceptions
    }
}

impl Eq for Trace {}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends one instruction, assigning its sequence number.
    #[inline]
    pub fn push(&mut self, mut inst: DynInst) {
        inst.seq = self.records.len() as u64;
        let site = self.intern(inst.pc, inst.inst);
        let s = &self.sites[site as usize];
        let aux = s.aux_of(&inst);
        // The site fixes `pc` and `inst`, and `seq` is the index; an
        // address the site expects reads back as stored.
        let derives = (site < ESCAPE >> 1)
            & (s.next_pc(inst.taken, aux) == inst.next_pc)
            & (inst.mem_addr.is_some() == (s.aux == Aux::MemAddr));
        if derives {
            self.records.push(Record { key: site << 1 | inst.taken as u32, aux });
        } else {
            self.push_exception(inst);
        }
    }

    /// Keeps `inst` verbatim behind an escaped record.
    #[cold]
    #[inline(never)]
    fn push_exception(&mut self, inst: DynInst) {
        let aux = self.exceptions.len() as u32;
        self.exceptions.push(inst);
        self.records.push(Record { key: ESCAPE, aux });
    }

    /// The index of the `(pc, inst)` site: the memo slot of `pc` when it
    /// holds it, else the map's, appending the site on first sight.
    #[inline]
    fn intern(&mut self, pc: u32, inst: Instruction) -> u32 {
        let slot = (pc >> 2) as usize % MEMO_SLOTS;
        if let Some(index) = &self.index {
            let cached = index.memo[slot];
            if let Some(s) = self.sites.get(cached as usize) {
                if s.pc == pc && s.inst == inst {
                    return cached;
                }
            }
        }
        self.intern_slow(pc, inst, slot)
    }

    /// The map lookup behind a memo miss, building the index after a
    /// [`shrink_to_fit`](Self::shrink_to_fit).
    #[cold]
    #[inline(never)]
    fn intern_slow(&mut self, pc: u32, inst: Instruction, slot: usize) -> u32 {
        let index = self.index.get_or_insert_with(|| SiteIndex::over(&self.sites));
        let next = self.sites.len() as u32;
        let site = *index.map.entry((pc, inst)).or_insert(next);
        if site == next {
            self.sites.push(Site::new(pc, inst));
        }
        index.memo[slot] = site;
        site
    }

    /// Releases spare capacity and the push-side site index once a trace
    /// is built; a later [`push`](Self::push) rebuilds the index.
    pub fn shrink_to_fit(&mut self) {
        self.sites.shrink_to_fit();
        self.records.shrink_to_fit();
        self.exceptions.shrink_to_fit();
        self.index = None;
    }

    /// Heap bytes the trace holds: 8 per record, its site table, its
    /// exceptions and (until [`shrink_to_fit`](Self::shrink_to_fit)) the
    /// push-side site index, all counted at capacity (the index's hash
    /// map approximately).
    pub fn heap_bytes(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<Record>()
            + self.site_table_bytes()
            + self.exceptions.capacity() * std::mem::size_of::<DynInst>()
            + self.index.as_ref().map_or(0, SiteIndex::bytes)
    }

    /// Heap bytes of the site table alone.
    pub fn site_table_bytes(&self) -> usize {
        self.sites.capacity() * std::mem::size_of::<Site>()
    }

    /// Marks the trace as having reached the program's `halt` (rather than
    /// being truncated at an instruction budget).
    pub fn mark_completed(&mut self) {
        self.completed = true;
    }

    /// Whether the traced program ran to completion.
    pub fn is_completed(&self) -> bool {
        self.completed
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the instructions in dynamic order.
    pub fn iter(&self) -> Iter<'_> {
        self.slice(..).iter()
    }

    /// The instruction at a dynamic index.
    #[inline]
    pub fn get(&self, index: usize) -> Option<DynInst> {
        self.records.get(index).map(|&r| self.read(index, r))
    }

    /// A view of the instructions in `range`, which keep their sequence
    /// numbers.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds, as slicing does.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> TraceSlice<'_> {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len(),
        };
        assert!(start <= end && end <= self.len(), "trace range {start}..{end} out of bounds");
        TraceSlice { trace: self, start, end }
    }

    /// Writes the trace's canonical byte stream to `sink`, read straight
    /// from the records: a tag, then per record its key word, followed
    /// the first time a record uses a site by that site's `pc` and
    /// instruction word, and by the aux word when the site's kind carries
    /// one (an address, a `jr`/`jalr` target). An escaped record is
    /// followed by its instruction verbatim instead: `pc`, instruction
    /// word, `next_pc`, a flags word (bit 0 taken, bit 1 has an address)
    /// and the address. The completion flag comes last. Words are
    /// little-endian `u32`s.
    ///
    /// Sites are interned in first-push order and a record is built from
    /// its instruction alone, so the stream is a function of the pushed
    /// `DynInst` sequence and the completion flag: an emulated trace, its
    /// parsed text and a trace collected from its `iter()` stream the
    /// same bytes. Every record opens with its key, which tells a reader
    /// what follows it, so the stream splits back into its records.
    pub fn write_canonical(&self, mut sink: impl FnMut(&[u8])) {
        sink(CANONICAL_TAG);
        let mut seen = vec![false; self.sites.len()];
        for r in &self.records {
            sink(&r.key.to_le_bytes());
            if r.key == ESCAPE {
                let d = &self.exceptions[r.aux as usize];
                let flags = u32::from(d.taken) | u32::from(d.mem_addr.is_some()) << 1;
                for word in [d.pc, encode(&d.inst), d.next_pc, flags, d.mem_addr.unwrap_or(0)] {
                    sink(&word.to_le_bytes());
                }
                continue;
            }
            let index = (r.key >> 1) as usize;
            let site = &self.sites[index];
            if !seen[index] {
                seen[index] = true;
                sink(&site.pc.to_le_bytes());
                sink(&encode(&site.inst).to_le_bytes());
            }
            if site.aux != Aux::Unused {
                sink(&r.aux.to_le_bytes());
            }
        }
        sink(&[u8::from(self.completed)]);
    }

    /// Decodes the record at `seq`. An exception was stored with its
    /// sequence number already assigned.
    #[inline(always)]
    fn read(&self, seq: usize, r: Record) -> DynInst {
        if r.key == ESCAPE {
            self.exceptions[r.aux as usize]
        } else {
            self.sites[(r.key >> 1) as usize].expand(seq, r.key & 1 != 0, r.aux)
        }
    }
}

/// A contiguous range of a [`Trace`], read by value; its instructions
/// keep the trace's sequence numbers.
#[derive(Debug, Clone, Copy)]
pub struct TraceSlice<'a> {
    trace: &'a Trace,
    start: usize,
    end: usize,
}

impl<'a> TraceSlice<'a> {
    /// Number of instructions in the range.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Iterates over the range in dynamic order.
    pub fn iter(&self) -> Iter<'a> {
        let records = self.trace.records[self.start..self.end].iter().enumerate();
        Iter { trace: self.trace, start: self.start, records }
    }
}

/// By-value iterator over a trace or a [`TraceSlice`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    trace: &'a Trace,
    /// Sequence number of the range's first record.
    start: usize,
    records: std::iter::Enumerate<std::slice::Iter<'a, Record>>,
}

impl Iterator for Iter<'_> {
    type Item = DynInst;

    #[inline]
    fn next(&mut self) -> Option<DynInst> {
        let (i, &r) = self.records.next()?;
        Some(self.trace.read(self.start + i, r))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<DynInst> {
        let (i, &r) = self.records.next_back()?;
        Some(self.trace.read(self.start + i, r))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Trace {
    type Item = DynInst;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for TraceSlice<'a> {
    type Item = DynInst;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<DynInst> for Trace {
    fn from_iter<I: IntoIterator<Item = DynInst>>(iter: I) -> Trace {
        let mut trace = Trace::new();
        trace.extend(iter);
        trace
    }
}

impl Extend<DynInst> for Trace {
    fn extend<I: IntoIterator<Item = DynInst>>(&mut self, iter: I) {
        for inst in iter {
            self.push(inst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_isa::{Instruction, Opcode, Reg};

    fn dummy(pc: u32) -> DynInst {
        DynInst {
            seq: 999, // overwritten by push
            pc,
            inst: Instruction::NOP,
            next_pc: pc + 4,
            taken: false,
            mem_addr: None,
        }
    }

    #[test]
    fn push_assigns_dense_sequence_numbers() {
        let mut t = Trace::new();
        t.push(dummy(0x400000));
        t.push(dummy(0x400004));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0).unwrap().seq, 0);
        assert_eq!(t.get(1).unwrap().seq, 1);
    }

    #[test]
    fn completion_flag() {
        let mut t = Trace::new();
        assert!(!t.is_completed());
        t.mark_completed();
        assert!(t.is_completed());
    }

    #[test]
    fn collect_from_iterator() {
        let t: Trace = (0..5).map(|i| dummy(0x400000 + i * 4)).collect();
        assert_eq!(t.len(), 5);
        assert_eq!(t.iter().count(), 5);
    }

    #[test]
    fn repeated_sites_share_one_entry_and_derive_their_outcomes() {
        let beq = Instruction::branch2(Opcode::Beq, Reg::new(8), Reg::new(9), -2);
        let lw = Instruction::mem(Opcode::Lw, Reg::new(8), 0, Reg::new(29));
        let jr = Instruction::jr(Reg::RA);
        let mut input = Vec::new();
        for i in 0..100u32 {
            let taken = i % 3 != 0;
            input.push(DynInst {
                seq: 0,
                pc: 0x40_0000,
                inst: lw,
                next_pc: 0x40_0004,
                taken: false,
                mem_addr: Some(0x1000_0000 + 4 * i),
            });
            input.push(DynInst {
                seq: 0,
                pc: 0x40_0004,
                inst: beq,
                next_pc: if taken { 0x40_0000 } else { 0x40_0008 },
                taken,
                mem_addr: None,
            });
            input.push(DynInst {
                seq: 0,
                pc: 0x40_0008,
                inst: jr,
                next_pc: 0x40_1000 + 8 * i,
                taken: true,
                mem_addr: None,
            });
        }
        let t: Trace = input.iter().copied().collect();
        assert_eq!(t.sites.len(), 3);
        assert!(t.exceptions.is_empty(), "every record derives");
        for (i, (got, mut want)) in t.iter().zip(input).enumerate() {
            want.seq = i as u64;
            assert_eq!(got, want);
        }
    }
}
