//! Paged sparse byte-addressed memory.

use mds_harness::hash::FxHashMap;
use mds_isa::Addr;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: Addr = (PAGE_SIZE as Addr) - 1;

/// Sparse 64-bit byte-addressed memory backed by 4 KiB pages.
///
/// Unmapped bytes read as zero; pages are allocated lazily on first write.
/// Words are little-endian and may be unaligned (the workloads keep them
/// aligned, but the emulator does not trap).
///
/// # Examples
///
/// ```
/// use mds_emu::Memory;
/// let mut m = Memory::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x2000), 0); // unmapped reads as zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    /// Materialized pages, keyed by page number.
    pages: FxHashMap<Addr, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Number of pages that have been materialized by writes.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte (zero for unmapped addresses).
    #[inline]
    pub fn read_u8(&self, addr: Addr) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte, materializing the page if needed.
    #[inline]
    pub fn write_u8(&mut self, addr: Addr, value: u8) {
        let page = self.page_mut(addr >> PAGE_SHIFT);
        page[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads a little-endian 64-bit word (may straddle pages).
    #[inline]
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let offset = (addr & PAGE_MASK) as usize;
        if offset + 8 <= PAGE_SIZE {
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(page) => {
                    u64::from_le_bytes(page[offset..offset + 8].try_into().expect("8 bytes"))
                }
                None => 0,
            }
        } else {
            let mut bytes = [0u8; 8];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as Addr));
            }
            u64::from_le_bytes(bytes)
        }
    }

    /// Writes a little-endian 64-bit word (may straddle pages).
    #[inline]
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        let offset = (addr & PAGE_MASK) as usize;
        if offset + 8 <= PAGE_SIZE {
            let page = self.page_mut(addr >> PAGE_SHIFT);
            page[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as Addr), *b);
            }
        }
    }

    /// Reads a word as `f64` (bit pattern).
    #[inline]
    pub fn read_f64(&self, addr: Addr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` word (bit pattern).
    #[inline]
    pub fn write_f64(&mut self, addr: Addr, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    fn page_mut(&mut self, page_no: Addr) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(page_no)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_harness::prelude::*;

    #[test]
    fn unmapped_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(12345), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn byte_write_read() {
        let mut m = Memory::new();
        m.write_u8(7, 0xab);
        assert_eq!(m.read_u8(7), 0xab);
        assert_eq!(m.read_u8(8), 0);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn word_straddles_page_boundary() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE as Addr - 4; // spans two pages
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn word_is_little_endian() {
        let mut m = Memory::new();
        m.write_u64(0, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(0), 0x08);
        assert_eq!(m.read_u8(7), 0x01);
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = Memory::new();
        m.write_f64(64, 3.25);
        assert_eq!(m.read_f64(64), 3.25);
    }

    properties! {
        #[test]
        fn write_then_read_anywhere(addr in 0u64..1u64 << 40, value: u64) {
            let mut m = Memory::new();
            m.write_u64(addr, value);
            prop_assert_eq!(m.read_u64(addr), value);
        }

        #[test]
        fn disjoint_writes_do_not_interfere(
            a in 0u64..1u64 << 30,
            delta in 8u64..1u64 << 20,
            va: u64,
            vb: u64,
        ) {
            let b = a + delta;
            let mut m = Memory::new();
            m.write_u64(a, va);
            m.write_u64(b, vb);
            prop_assert_eq!(m.read_u64(b), vb);
            if delta >= 8 {
                prop_assert_eq!(m.read_u64(a), va);
            }
        }
    }
}
