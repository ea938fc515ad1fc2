//! Sparse byte-addressable main memory.

use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// A sparse, paged, byte-addressable memory.
///
/// Unwritten bytes read as zero, so workload generators can lay out data
/// anywhere in a 64-bit address space without preallocating.
///
/// ```
/// let mut m = mom3d_mem::MainMemory::new();
/// m.write_bytes(0xFF00, &[1, 2, 3]);
/// assert_eq!(m.read_bytes(0xFF00, 4), vec![1, 2, 3, 0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MainMemory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl MainMemory {
    /// Bytes per page — the granularity of [`MainMemory::pages_sorted`]
    /// and [`MainMemory::write_page`].
    pub const PAGE_BYTES: usize = PAGE_SIZE;

    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident pages (for tests / footprint checks).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Resident pages as `(base_address, data)` in ascending address
    /// order — the deterministic enumeration workload-image
    /// serialization needs (hash-map order would make encodings of
    /// identical memories differ).
    pub fn pages_sorted(&self) -> Vec<(u64, &[u8; Self::PAGE_BYTES])> {
        let mut pages: Vec<(u64, &[u8; Self::PAGE_BYTES])> =
            self.pages.iter().map(|(&idx, data)| (idx << PAGE_SHIFT, &**data)).collect();
        pages.sort_unstable_by_key(|&(base, _)| base);
        pages
    }

    /// Installs one full page wholesale (the deserialization
    /// counterpart of [`MainMemory::pages_sorted`]; far cheaper than
    /// 4096 `write_u8` calls).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page-aligned.
    pub fn write_page(&mut self, base: u64, data: &[u8; Self::PAGE_BYTES]) {
        assert_eq!(base & (PAGE_SIZE as u64 - 1), 0, "page base must be page-aligned");
        self.pages.insert(base >> PAGE_SHIFT, Box::new(*data));
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        page[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut bytes = vec![0; len];
        self.read_into(addr, &mut bytes);
        bytes
    }

    /// Reads `buf.len()` bytes starting at `addr` into `buf`, one page
    /// lookup and one copy per page touched.
    pub fn read_into(&self, addr: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u64;
            let off = (a as usize) & (PAGE_SIZE - 1);
            let chunk = (PAGE_SIZE - off).min(buf.len() - done);
            match self.pages.get(&(a >> PAGE_SHIFT)) {
                Some(p) => buf[done..done + chunk].copy_from_slice(&p[off..off + chunk]),
                None => buf[done..done + chunk].fill(0),
            }
            done += chunk;
        }
    }

    /// Writes a byte slice starting at `addr`, one page lookup and one
    /// copy per page touched; every touched page becomes resident.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut done = 0usize;
        while done < bytes.len() {
            let a = addr + done as u64;
            let off = (a as usize) & (PAGE_SIZE - 1);
            let chunk = (PAGE_SIZE - off).min(bytes.len() - done);
            let page = self
                .pages
                .entry(a >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            page[off..off + chunk].copy_from_slice(&bytes[done..done + chunk]);
            done += chunk;
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr + 1)])
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read_into(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_into(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian scalar of `bytes` bytes (1–8), zero-extended.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is 0 or greater than 8.
    pub fn read_scalar(&self, addr: u64, bytes: u8) -> u64 {
        assert!((1..=8).contains(&bytes), "scalar width must be 1-8 bytes");
        let mut v = 0u64;
        for i in 0..bytes as u64 {
            v |= (self.read_u8(addr + i) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `bytes` bytes of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is 0 or greater than 8.
    pub fn write_scalar(&mut self, addr: u64, value: u64, bytes: u8) {
        assert!((1..=8).contains(&bytes), "scalar width must be 1-8 bytes");
        for i in 0..bytes as u64 {
            self.write_u8(addr + i, (value >> (8 * i)) as u8);
        }
    }

    // ---- single-lookup words --------------------------------------------
    //
    // The trace-specializing emulator reads and writes most words within
    // one page; these skip the chunk loop of `read_into`/`write_bytes`.

    /// Reads a little-endian `u64` with a single page lookup when the
    /// word lies within one page (falls back to [`MainMemory::read_u64`]
    /// across a page boundary). Bit-identical to `read_u64`.
    #[inline]
    pub fn read_u64_paged(&self, addr: u64) -> u64 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + 8 <= PAGE_SIZE {
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes")),
                None => 0,
            }
        } else {
            self.read_u64(addr)
        }
    }

    /// Writes a little-endian `u64` with a single page lookup when the
    /// word lies within one page. Like `write_u64`, always materializes
    /// the touched page(s).
    #[inline]
    pub fn write_u64_paged(&mut self, addr: u64, value: u64) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + 8 <= PAGE_SIZE {
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            page[off..off + 8].copy_from_slice(&value.to_le_bytes());
        } else {
            self.write_u64(addr, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = MainMemory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(0xFFFF_FFFF_FFFF_0000), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn rw_roundtrip_all_widths() {
        let mut m = MainMemory::new();
        m.write_u8(10, 0xAB);
        m.write_u16(20, 0xBEEF);
        m.write_u32(30, 0xDEAD_BEEF);
        m.write_u64(40, 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_u8(10), 0xAB);
        assert_eq!(m.read_u16(20), 0xBEEF);
        assert_eq!(m.read_u32(30), 0xDEAD_BEEF);
        assert_eq!(m.read_u64(40), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn cross_page_access() {
        let mut m = MainMemory::new();
        let addr = (1 << PAGE_SHIFT) - 4; // straddles the page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn scalar_widths() {
        let mut m = MainMemory::new();
        m.write_scalar(0, 0x1234_5678, 3);
        assert_eq!(m.read_scalar(0, 3), 0x34_5678);
        assert_eq!(m.read_u8(3), 0); // byte 3 untouched
        m.write_scalar(100, u64::MAX, 8);
        assert_eq!(m.read_scalar(100, 8), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "1-8 bytes")]
    fn scalar_zero_width_panics() {
        MainMemory::new().read_scalar(0, 0);
    }

    #[test]
    fn pages_sorted_and_write_page_round_trip() {
        let mut m = MainMemory::new();
        m.write_u64(0x5000, 0xAAAA);
        m.write_u64(0x1000, 0xBBBB);
        m.write_u8(0x9FFF, 7);
        let pages = m.pages_sorted();
        let bases: Vec<u64> = pages.iter().map(|&(b, _)| b).collect();
        assert_eq!(bases, vec![0x1000, 0x5000, 0x9000], "ascending page bases");
        let mut copy = MainMemory::new();
        for (base, data) in pages {
            copy.write_page(base, data);
        }
        assert_eq!(copy, m, "page-wise copy must be bit-identical");
        assert_eq!(copy.read_u64(0x5000), 0xAAAA);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn write_page_rejects_unaligned_base() {
        MainMemory::new().write_page(8, &[0u8; MainMemory::PAGE_BYTES]);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = MainMemory::new();
        m.write_u32(0, 0x0A0B_0C0D);
        assert_eq!(m.read_u8(0), 0x0D);
        assert_eq!(m.read_u8(3), 0x0A);
    }

    #[test]
    fn paged_u64_matches_per_byte_everywhere() {
        let mut m = MainMemory::new();
        for i in 0..2 * PAGE_SIZE as u64 {
            m.write_u8(0x1000 + i, (i % 251) as u8);
        }
        // Within a page, straddling the page boundary, and on absent pages.
        for addr in [0x1000, 0x1ffc, 0x1000 + PAGE_SIZE as u64 - 4, 0x9_0000] {
            let mut bytes = [0u8; 8];
            m.read_into_per_byte(addr, &mut bytes);
            assert_eq!(m.read_u64_paged(addr), u64::from_le_bytes(bytes), "read at {addr:#x}");
        }
        let mut a = m.clone();
        let mut b = m.clone();
        for (i, addr) in [0x1008u64, 0x1000 + PAGE_SIZE as u64 - 3, 0xA_0000].iter().enumerate() {
            let value = 0x1122_3344_5566_7788 * (i as u64 + 1);
            a.write_bytes_per_byte(*addr, &value.to_le_bytes());
            b.write_u64_paged(*addr, value);
        }
        assert_eq!(a, b, "single-lookup u64 writes must be bit-identical");
    }

    /// A range that runs past the last byte of the address space fares
    /// as under the per-byte reference: with overflow checks (debug
    /// builds) both panic, without them both wrap to address 0.
    #[test]
    fn a_range_past_the_top_of_the_address_space_matches_the_reference() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let payload = [1u8, 2, 3, 4, 5, 6];
        let mut fast = MainMemory::new();
        let mut slow = MainMemory::new();
        let wrote = catch_unwind(AssertUnwindSafe(|| fast.write_bytes(u64::MAX - 2, &payload)));
        let wrote_ref =
            catch_unwind(AssertUnwindSafe(|| slow.write_bytes_per_byte(u64::MAX - 2, &payload)));
        assert_eq!(wrote.is_ok(), wrote_ref.is_ok());
        assert_eq!(wrote.is_ok(), !cfg!(debug_assertions));
        if wrote.is_ok() {
            assert_eq!(fast, slow);
            assert_eq!(fast.read_bytes(u64::MAX - 2, 6), payload);
            assert_eq!(fast.read_bytes(0, 3), [4, 5, 6], "the range continued at address 0");
        }
    }

    /// The per-byte paths `read_into`, `read_bytes` and `write_bytes`
    /// took before they copied page-sized runs: one page lookup per byte.
    impl MainMemory {
        fn read_into_per_byte(&self, addr: u64, buf: &mut [u8]) {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = self.read_u8(addr + i as u64);
            }
        }

        fn write_bytes_per_byte(&mut self, addr: u64, bytes: &[u8]) {
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(addr + i as u64, *b);
            }
        }
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// A byte range: anywhere in four pages around `0x10_0000`
        /// (within one page, across pages, on resident and absent pages,
        /// empty), or ending at most 15 bytes below the last byte of the
        /// address space, often exactly at it.
        fn arb_range() -> impl Strategy<Value = (u64, usize)> {
            prop_oneof![
                (0u64..4 * PAGE_SIZE as u64, 0usize..2 * PAGE_SIZE + 2)
                    .prop_map(|(off, len)| (0x10_0000 + off, len)),
                (any::<bool>(), 0u64..16, 1usize..2 * PAGE_SIZE + 2).prop_map(
                    |(at_top, gap, len)| {
                        let gap = if at_top { 0 } else { gap };
                        (u64::MAX - (len as u64 - 1) - gap, len)
                    }
                ),
            ]
        }

        proptest! {
            /// Over memories with some resident pages, near the bottom
            /// and the top of the address space, the page-sized copies
            /// of `read_into`, `read_bytes` and `write_bytes` read what
            /// the per-byte paths read and leave the memory (its
            /// resident pages included) as they leave it.
            #[test]
            fn page_copies_match_per_byte_paths(
                resident in proptest::collection::vec((any::<bool>(), 0u64..4), 0..4),
                fill in any::<u8>(),
                ops in proptest::collection::vec((arb_range(), any::<u8>()), 1..8),
            ) {
                let mut base = MainMemory::new();
                for (top, page) in resident {
                    let first = if top { u64::MAX - 4 * PAGE_SIZE as u64 + 1 } else { 0x10_0000 };
                    let at = first + page * PAGE_SIZE as u64;
                    base.write_page(at, &[fill; PAGE_SIZE]);
                }
                let (mut fast, mut slow) = (base.clone(), base);
                for ((addr, len), seed) in ops {
                    let mut expected = vec![0xAA; len];
                    slow.read_into_per_byte(addr, &mut expected);
                    let mut got = vec![0x55; len];
                    fast.read_into(addr, &mut got);
                    prop_assert_eq!(&got, &expected, "read_into at {:#x}+{}", addr, len);
                    prop_assert_eq!(fast.read_bytes(addr, len), expected);
                    let payload: Vec<u8> =
                        (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
                    fast.write_bytes(addr, &payload);
                    slow.write_bytes_per_byte(addr, &payload);
                    prop_assert_eq!(&fast, &slow, "write_bytes at {:#x}+{}", addr, len);
                }
            }
        }
    }
}
