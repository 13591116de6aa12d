//! Page geometry and page-keyed maps for sparse address-space structures.
//!
//! Flat memory (`csd-pipeline`) and the DIFT taint shadow (`csd-dift`) are
//! both sparse maps from 4 KiB page numbers to page-sized payloads, probed
//! on every memory µop. Page numbers are trusted simulator values, not
//! attacker-chosen keys, so the standard library's DoS-resistant SipHash
//! buys nothing there. [`PageMap`] keys them with [`PageHasher`], a single
//! odd multiply, and [`spans`] splits an access into per-page pieces so an
//! access that stays inside one page costs one probe, not one per byte.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// log2 of the page size.
pub const PAGE_BITS: u32 = 12;
/// Bytes per page.
pub const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// A map keyed by page number (`addr >> PAGE_BITS`), hashed with
/// [`PageHasher`].
pub type PageMap<V> = HashMap<u64, V, BuildHasherDefault<PageHasher>>;

/// Multiply-hash for page numbers.
///
/// Multiplying by an odd constant is a bijection on the low bits, which
/// the table's bucket index is taken from, so consecutive pages never
/// collide; the high bits, which the table uses as a tag, get the mixed
/// product.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Splits the `len`-byte access at `addr` into per-page pieces
/// `(page, offset, n)`: `n` bytes starting at byte `offset` of page
/// `page`. Addresses wrap at the top of the address space, like effective
/// addresses do.
#[inline]
pub fn spans(addr: u64, len: u64) -> impl Iterator<Item = (u64, usize, usize)> {
    let mut addr = addr;
    let mut left = len;
    std::iter::from_fn(move || {
        if left == 0 {
            return None;
        }
        let off = (addr as usize) & (PAGE_SIZE - 1);
        let n = left.min((PAGE_SIZE - off) as u64);
        let span = (addr >> PAGE_BITS, off, n as usize);
        addr = addr.wrapping_add(n);
        left -= n;
        Some(span)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_page_access_is_one_span() {
        let s: Vec<_> = spans(0x1ff8, 8).collect();
        assert_eq!(s, vec![(1, 0xff8, 8)]);
    }

    #[test]
    fn straddling_access_splits_at_the_boundary() {
        let s: Vec<_> = spans(0xffc, 8).collect();
        assert_eq!(s, vec![(0, 0xffc, 4), (1, 0, 4)]);
        let s: Vec<_> = spans(0x800, 2 * PAGE_SIZE as u64).collect();
        assert_eq!(s, vec![(0, 0x800, 0x800), (1, 0, PAGE_SIZE), (2, 0, 0x800)]);
    }

    #[test]
    fn spans_wrap_at_the_top_of_the_address_space() {
        let s: Vec<_> = spans(u64::MAX - 2, 8).collect();
        assert_eq!(
            s,
            vec![(u64::MAX >> PAGE_BITS, PAGE_SIZE - 3, 3), (0, 0, 5)]
        );
    }

    #[test]
    fn empty_access_has_no_spans() {
        assert_eq!(spans(0x1234, 0).count(), 0);
    }

    #[test]
    fn consecutive_pages_hash_to_distinct_low_bits() {
        use std::hash::BuildHasher;
        let b = BuildHasherDefault::<PageHasher>::default();
        let low: std::collections::HashSet<u64> =
            (0..1024u64).map(|p| b.hash_one(p) & 1023).collect();
        assert_eq!(low.len(), 1024);
    }
}
