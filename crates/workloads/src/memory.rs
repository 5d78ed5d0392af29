//! Sparse byte-addressed memory for the functional emulator.

use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Offset of `addr` within its page.
fn offset(addr: u32) -> usize {
    addr as usize & (PAGE_SIZE - 1)
}

/// A sparse 32-bit byte-addressable memory.
///
/// Pages are allocated on first write and zero-filled, so programs may read
/// uninitialized memory (it reads as zero, as under SimpleScalar); reads
/// never allocate. Accesses may be unaligned; multi-byte values are
/// little-endian. A halfword or word inside one page costs one page lookup.
///
/// ```
/// use ce_workloads::Memory;
///
/// let mut mem = Memory::new();
/// mem.write_word(0x1000_0000, 0xdead_beef);
/// assert_eq!(mem.read_word(0x1000_0000), 0xdead_beef);
/// assert_eq!(mem.read_byte(0x1000_0003), 0xde);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u32, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte.
    pub fn read_byte(&self, addr: u32) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[offset(addr)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_byte(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[offset(addr)] = value;
    }

    /// Reads a little-endian halfword (may be unaligned).
    pub fn read_half(&self, addr: u32) -> u16 {
        u16::from_le_bytes(self.read(addr))
    }

    /// Writes a little-endian halfword (may be unaligned).
    pub fn write_half(&mut self, addr: u32, value: u16) {
        self.write(addr, value.to_le_bytes());
    }

    /// Reads a little-endian word (may be unaligned).
    pub fn read_word(&self, addr: u32) -> u32 {
        u32::from_le_bytes(self.read(addr))
    }

    /// Writes a little-endian word (may be unaligned).
    pub fn write_word(&mut self, addr: u32, value: u32) {
        self.write(addr, value.to_le_bytes());
    }

    /// The page holding `addr`, allocated zero-filled on first write.
    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// The `N` bytes from `addr` up: one page lookup when they share a
    /// page, else byte by byte (a page crossing, or a wrap past
    /// `u32::MAX`).
    fn read<const N: usize>(&self, addr: u32) -> [u8; N] {
        let off = offset(addr);
        if off + N > PAGE_SIZE {
            return std::array::from_fn(|i| self.read_byte(addr.wrapping_add(i as u32)));
        }
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[off..off + N].try_into().expect("N bytes in one page"),
            None => [0; N],
        }
    }

    /// Writes `bytes` from `addr` up, with [`read`](Self::read)'s page
    /// rule; only the pages written become resident.
    fn write<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) {
        let off = offset(addr);
        if off + N > PAGE_SIZE {
            for (i, b) in bytes.into_iter().enumerate() {
                self.write_byte(addr.wrapping_add(i as u32), b);
            }
            return;
        }
        self.page_mut(addr)[off..off + N].copy_from_slice(&bytes);
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn write_slice(&mut self, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_byte(addr.wrapping_add(i as u32), b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let mem = Memory::new();
        assert_eq!(mem.read_word(0x4000_0000), 0);
        assert_eq!(mem.read_byte(123), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn word_roundtrip_and_endianness() {
        let mut mem = Memory::new();
        mem.write_word(0x100, 0x0102_0304);
        assert_eq!(mem.read_byte(0x100), 0x04);
        assert_eq!(mem.read_byte(0x103), 0x01);
        assert_eq!(mem.read_half(0x100), 0x0304);
        assert_eq!(mem.read_word(0x100), 0x0102_0304);
    }

    #[test]
    fn unaligned_access_spanning_pages() {
        let mut mem = Memory::new();
        let boundary = 0x2000 - 2;
        mem.write_word(boundary, 0xaabb_ccdd);
        assert_eq!(mem.read_word(boundary), 0xaabb_ccdd);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn slice_write() {
        let mut mem = Memory::new();
        mem.write_slice(0x500, b"hello");
        assert_eq!(mem.read_byte(0x504), b'o');
    }

    #[test]
    fn address_wraparound_is_defined() {
        let mut mem = Memory::new();
        mem.write_word(u32::MAX - 1, 0x1122_3344);
        assert_eq!(mem.read_word(u32::MAX - 1), 0x1122_3344);
    }
}
