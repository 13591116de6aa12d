//! Architectural state and flat memory.

use csd_uops::UReg;
use mx86_isa::page::{self, PageMap, PAGE_BITS, PAGE_SIZE};
use mx86_isa::{Cc, Gpr, Xmm};

/// The architectural flags produced by flag-writing µops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Zero flag.
    pub zf: bool,
    /// Sign flag.
    pub sf: bool,
    /// Carry flag.
    pub cf: bool,
    /// Overflow flag.
    pub of: bool,
}

impl Flags {
    /// Evaluates a condition code against these flags.
    pub fn eval(&self, cc: Cc) -> bool {
        cc.eval(self.zf, self.sf, self.cf, self.of)
    }
}

/// Architectural plus decoder-internal register state.
///
/// The scalar/vector *temporaries* belong to the decoder, not the ISA: they
/// are scratch space for µop flows (including decoy and devectorized flows)
/// and are unobservable from software.
///
/// Every register of the µop namespace lives in one flat file indexed by
/// [`UReg::index`]: `lo` holds each register's value (the low half of a
/// vector register) and `hi` the high half of a vector register, so a
/// register access is one indexed load with no match on the register's
/// class. The `hi` slots of scalar registers stay zero.
#[derive(Debug, Clone)]
pub struct ArchState {
    lo: [u64; UReg::COUNT],
    hi: [u64; UReg::COUNT],
    /// Architectural flags.
    pub flags: Flags,
    /// Program counter.
    pub rip: u64,
}

impl ArchState {
    /// Zeroed state starting at `entry`.
    pub fn new(entry: u64) -> ArchState {
        ArchState {
            lo: [0; UReg::COUNT],
            hi: [0; UReg::COUNT],
            flags: Flags::default(),
            rip: entry,
        }
    }

    /// Reads a 64-bit register (low half for vector registers).
    #[inline]
    pub fn read(&self, r: UReg) -> u64 {
        self.lo[r.index()]
    }

    /// Writes a 64-bit register (low half for vector registers).
    #[inline]
    pub fn write(&mut self, r: UReg, v: u64) {
        self.lo[r.index()] = v;
    }

    /// Reads a full 128-bit vector register as (low, high) halves.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a vector register.
    #[inline]
    pub fn read_v(&self, r: UReg) -> (u64, u64) {
        assert!(r.is_vector(), "{r} is not a vector register");
        (self.lo[r.index()], self.hi[r.index()])
    }

    /// Writes a full 128-bit vector register from (low, high) halves.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a vector register.
    #[inline]
    pub fn write_v(&mut self, r: UReg, v: (u64, u64)) {
        assert!(r.is_vector(), "{r} is not a vector register");
        self.lo[r.index()] = v.0;
        self.hi[r.index()] = v.1;
    }

    /// Reads a GPR.
    #[inline]
    pub fn gpr(&self, g: Gpr) -> u64 {
        self.lo[UReg::Gpr(g).index()]
    }

    /// Writes a GPR.
    #[inline]
    pub fn set_gpr(&mut self, g: Gpr, v: u64) {
        self.lo[UReg::Gpr(g).index()] = v;
    }

    /// Reads an XMM register as (low, high) halves.
    pub fn xmm(&self, x: Xmm) -> (u64, u64) {
        self.read_v(UReg::Xmm(x))
    }

    /// Every GPR, in [`Gpr::ALL`] order.
    pub fn gprs(&self) -> [u64; Gpr::COUNT] {
        Gpr::ALL.map(|g| self.gpr(g))
    }

    /// Every XMM register as (low, high) halves, in register order.
    pub fn xmms(&self) -> [(u64, u64); Xmm::COUNT] {
        std::array::from_fn(|i| self.xmm(Xmm::new(i as u8)))
    }
}

/// The eight bytes of `page` from `off` (≤ `PAGE_SIZE - 8`), little-endian.
#[inline]
fn word(page: &[u8; PAGE_SIZE], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&page[off..off + 8]);
    u64::from_le_bytes(b)
}

/// The mask of the low `len` (≤ 8) bytes of a word.
#[inline]
fn low_bytes(len: u64) -> u64 {
    if len >= 8 {
        u64::MAX
    } else {
        (1 << (8 * len)) - 1
    }
}

/// Sparse, byte-addressed flat memory. Unmapped bytes read as zero.
///
/// Every access splits into per-page spans ([`page::spans`]), so one that
/// stays inside a page costs one page probe whatever its width. Addresses
/// wrap at the top of the address space, as effective addresses do.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: PageMap<Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_BITS)) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Reads `len` (≤ 8) bytes little-endian. When the eight bytes from
    /// `addr` lie in one page (all but the last seven bytes of a page),
    /// this is one page probe and one 8-byte load, masked to `len`
    /// bytes.
    #[inline]
    pub fn read_le(&self, addr: u64, len: u64) -> u64 {
        debug_assert!(len <= 8);
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + 8 > PAGE_SIZE {
            let mut buf = [0u8; 8];
            self.read_into(addr, &mut buf[..len as usize]);
            return u64::from_le_bytes(buf);
        }
        match self.pages.get(&(addr >> PAGE_BITS)) {
            Some(p) => word(p, off) & low_bytes(len),
            None => 0,
        }
    }

    /// Writes the low `len` (≤ 8) bytes of `v` little-endian, with the
    /// same in-page fast path as [`Memory::read_le`]: one probe and one
    /// 8-byte read-modify-write.
    #[inline]
    pub fn write_le(&mut self, addr: u64, len: u64, v: u64) {
        debug_assert!(len <= 8);
        let off = (addr as usize) & (PAGE_SIZE - 1);
        // An empty write maps no page.
        if off + 8 > PAGE_SIZE || len == 0 {
            self.write_bytes(addr, &v.to_le_bytes()[..len as usize]);
            return;
        }
        let p = self
            .pages
            .entry(addr >> PAGE_BITS)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]));
        let mask = low_bytes(len);
        let w = (word(p, off) & !mask) | (v & mask);
        p[off..off + 8].copy_from_slice(&w.to_le_bytes());
    }

    /// Reads a 128-bit value as (low, high) halves.
    pub fn read_u128(&self, addr: u64) -> (u64, u64) {
        (self.read_le(addr, 8), self.read_le(addr.wrapping_add(8), 8))
    }

    /// Writes a 128-bit value from (low, high) halves.
    pub fn write_u128(&mut self, addr: u64, v: (u64, u64)) {
        self.write_le(addr, 8, v.0);
        self.write_le(addr.wrapping_add(8), 8, v.1);
    }

    /// Copies a byte slice into memory at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut src = bytes;
        for (page, off, n) in page::spans(addr, bytes.len() as u64) {
            let (head, rest) = src.split_at(n);
            let p = self
                .pages
                .entry(page)
                .or_insert_with(|| Box::new([0; PAGE_SIZE]));
            p[off..off + n].copy_from_slice(head);
            src = rest;
        }
    }

    /// Reads `len` bytes into a vector.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Fills `out` from memory at `addr`.
    fn read_into(&self, addr: u64, out: &mut [u8]) {
        let mut dst = out;
        for (page, off, n) in page::spans(addr, dst.len() as u64) {
            let (head, rest) = dst.split_at_mut(n);
            match self.pages.get(&page) {
                Some(p) => head.copy_from_slice(&p[off..off + n]),
                None => head.fill(0),
            }
            dst = rest;
        }
    }

    /// Number of mapped pages (diagnostics).
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_roundtrip_le() {
        let mut m = Memory::new();
        m.write_le(0x1000, 8, 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_le(0x1000, 8), 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_le(0x1000, 4), 0x89AB_CDEF);
        assert_eq!(m.read_u8(0x1000), 0xEF);
        assert_eq!(m.read_u8(0x1007), 0x01);
    }

    #[test]
    fn unmapped_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_le(0xDEAD_0000, 8), 0);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        m.write_le(0xFFC, 8, u64::MAX);
        assert_eq!(m.read_le(0xFFC, 8), u64::MAX);
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn accesses_at_the_top_of_the_address_space_wrap() {
        let mut m = Memory::new();
        m.write_le(u64::MAX - 3, 8, 0x0807_0605_0403_0201);
        assert_eq!(m.read_le(u64::MAX - 3, 8), 0x0807_0605_0403_0201);
        assert_eq!(m.read_u8(u64::MAX), 0x04);
        assert_eq!(m.read_u8(0), 0x05);
        m.write_u128(u64::MAX - 7, (u64::MAX, 0x1122_3344_5566_7788));
        assert_eq!(m.read_u128(u64::MAX - 7), (u64::MAX, 0x1122_3344_5566_7788));
        assert_eq!(m.read_le(0, 8), 0x1122_3344_5566_7788);
        m.write_u128(u64::MAX - 11, (1, 2));
        assert_eq!(m.read_u128(u64::MAX - 11), (1, 2));
        m.write_bytes(u64::MAX - 1, &[9, 8, 7]);
        assert_eq!(m.read_bytes(u64::MAX - 1, 3), vec![9, 8, 7]);
        assert_eq!(m.mapped_pages(), 2);
    }

    /// Model-based test: memory against a byte map, over random reads and
    /// writes of every access width plus bulk copies, with addresses that
    /// straddle pages and wrap past `u64::MAX`.
    #[test]
    fn memory_matches_a_byte_map_oracle() {
        use std::collections::{BTreeMap, BTreeSet};
        let mut m = Memory::new();
        let mut oracle: BTreeMap<u64, u8> = BTreeMap::new();
        let mut pages = BTreeSet::new();
        let mut sm = csd_telemetry::SplitMix64::new(15);
        let mut rng = move |n: u64| sm.range_u64(0, n);
        let bases = [0, 0x7000, 0x1_0000_0000, u64::MAX - 0x1fff];
        for _ in 0..3000 {
            let a = bases[rng(4) as usize].wrapping_add(rng(0x2000));
            let len = [1, 2, 4, 8, 16, 1 + rng(5000)][rng(6) as usize];
            let bytes: Vec<u8> = (0..len).map(|_| rng(256) as u8).collect();
            let at = |i: u64| a.wrapping_add(i);
            if rng(2) == 0 {
                match len {
                    16 => {
                        let v = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
                        m.write_u128(a, (v(&bytes[..8]), v(&bytes[8..])));
                    }
                    1..=8 => {
                        let mut buf = [0u8; 8];
                        buf[..len as usize].copy_from_slice(&bytes);
                        m.write_le(a, len, u64::from_le_bytes(buf));
                    }
                    _ => m.write_bytes(a, &bytes),
                }
                for (i, &b) in bytes.iter().enumerate() {
                    oracle.insert(at(i as u64), b);
                    pages.insert(at(i as u64) >> PAGE_BITS);
                }
            }
            let want: Vec<u8> = (0..len)
                .map(|i| *oracle.get(&at(i)).unwrap_or(&0))
                .collect();
            let got = match len {
                16 => {
                    let (lo, hi) = m.read_u128(a);
                    [lo.to_le_bytes(), hi.to_le_bytes()].concat()
                }
                1..=8 => m.read_le(a, len).to_le_bytes()[..len as usize].to_vec(),
                _ => m.read_bytes(a, len as usize),
            };
            assert_eq!(got, want, "{a:#x}+{len}");
            assert_eq!(m.read_u8(a), want[0]);
            assert_eq!(m.mapped_pages(), pages.len());
        }
    }

    #[test]
    fn u128_roundtrip() {
        let mut m = Memory::new();
        m.write_u128(0x40, (1, 2));
        assert_eq!(m.read_u128(0x40), (1, 2));
    }

    #[test]
    fn state_vector_halves() {
        let mut s = ArchState::new(0);
        s.write_v(UReg::Xmm(Xmm::new(3)), (0xAA, 0xBB));
        assert_eq!(s.read(UReg::Xmm(Xmm::new(3))), 0xAA);
        s.write(UReg::Xmm(Xmm::new(3)), 0xCC);
        assert_eq!(s.read_v(UReg::Xmm(Xmm::new(3))), (0xCC, 0xBB));
    }

    #[test]
    fn temps_are_separate_from_gprs() {
        let mut s = ArchState::new(0);
        s.write(UReg::Tmp(0), 7);
        assert_eq!(s.gpr(Gpr::Rax), 0);
        assert_eq!(s.read(UReg::Tmp(0)), 7);
    }
}
