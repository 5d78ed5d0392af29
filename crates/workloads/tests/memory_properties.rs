//! Property tests of `Memory`'s single-lookup halfword and word paths
//! against a byte-wise reference model. Accesses cluster on page
//! boundaries and on the wrap past `u32::MAX`, where an access falls back
//! to one page lookup per byte.

use ce_workloads::Memory;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: u32 = 1 << PAGE_SHIFT;

/// Page numbers the accesses cluster on: the first two pages, two
/// neighbours mid-space, and the top page, whose upper boundary is the
/// wrap past `u32::MAX`.
const PAGES: [u32; 5] = [0, 1, 0x7_ffff, 0x8_0000, 0xf_ffff];

/// Every byte on its own; a page is resident once any byte in it is
/// written.
#[derive(Default)]
struct Reference {
    bytes: HashMap<u32, u8>,
    pages: HashSet<u32>,
}

impl Reference {
    fn read(&self, addr: u32, len: u32) -> u32 {
        (0..len).rev().fold(0, |value, i| {
            let byte = self.bytes.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
            value << 8 | u32::from(byte)
        })
    }

    fn write(&mut self, addr: u32, len: u32, value: u32) {
        for i in 0..len {
            let at = addr.wrapping_add(i);
            self.bytes.insert(at, (value >> (8 * i)) as u8);
            self.pages.insert(at >> PAGE_SHIFT);
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Access {
    addr: u32,
    /// 1, 2 or 4 bytes.
    len: u32,
    /// `Some(value)` writes, `None` reads.
    write: Option<u32>,
}

fn arb_addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        // Within four bytes either side of a page's upper boundary.
        (0..PAGES.len(), 0u32..8)
            .prop_map(|(p, d)| (PAGES[p] << PAGE_SHIFT).wrapping_add(PAGE_SIZE - 4 + d)),
        // Anywhere in one of those pages.
        (0..PAGES.len(), 0..PAGE_SIZE).prop_map(|(p, off)| (PAGES[p] << PAGE_SHIFT) + off),
    ]
}

fn arb_access() -> impl Strategy<Value = Access> {
    (arb_addr(), 0u32..3, any::<u32>(), any::<bool>()).prop_map(|(addr, size, value, write)| {
        Access { addr, len: 1 << size, write: write.then_some(value) }
    })
}

/// Performs `a` on `mem`, returning the value read (0 for a write).
fn apply(mem: &mut Memory, a: Access) -> u32 {
    match (a.len, a.write) {
        (1, None) => u32::from(mem.read_byte(a.addr)),
        (2, None) => u32::from(mem.read_half(a.addr)),
        (_, None) => mem.read_word(a.addr),
        (1, Some(v)) => {
            mem.write_byte(a.addr, v as u8);
            0
        }
        (2, Some(v)) => {
            mem.write_half(a.addr, v as u16);
            0
        }
        (_, Some(v)) => {
            mem.write_word(a.addr, v);
            0
        }
    }
}

proptest! {
    /// Every read returns the reference's bytes, and the resident page
    /// count tracks exactly the pages written: reads never allocate.
    #[test]
    fn accesses_match_a_bytewise_reference(
        accesses in proptest::collection::vec(arb_access(), 1..300),
    ) {
        let mut mem = Memory::new();
        let mut reference = Reference::default();
        for a in accesses {
            let got = apply(&mut mem, a);
            match a.write {
                None => prop_assert_eq!(got, reference.read(a.addr, a.len), "{:?}", a),
                Some(v) => reference.write(a.addr, a.len, v),
            }
            prop_assert_eq!(mem.resident_pages(), reference.pages.len(), "{:?}", a);
        }
        for (&addr, &byte) in &reference.bytes {
            prop_assert_eq!(mem.read_byte(addr), byte, "byte {:#x}", addr);
        }
    }
}
