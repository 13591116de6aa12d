//! Deterministic pseudo-random number generation.
//!
//! The workspace cannot depend on the `rand` crate (offline builds), and
//! more importantly the experiment suite *wants* full control of its
//! streams: every task derives its own independent seed from one root
//! seed so results are reproducible regardless of scheduling.

/// Sebastiano Vigna's SplitMix64 generator: tiny, fast, full-period over
/// the 64-bit state, and plenty for plaintext randomization and property
/// tests (nothing here is cryptographic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// The next byte.
    pub fn next_u8(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// The next boolean.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        // Multiply-shift rejection-free mapping; the bias is < 2^-64 per
        // draw, irrelevant for simulation workloads.
        let span = hi - lo;
        lo + ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = (hi as i128 - lo as i128) as u64;
        lo.wrapping_add(((u128::from(self.next_u64()) * u128::from(span)) >> 64) as i64)
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Derives an independent task seed from a root seed and a task label.
///
/// FNV-1a over the label, mixed with the root through one SplitMix64
/// step, so `derive_seed(root, "sec/opt/aes-enc")` and
/// `derive_seed(root, "sec/opt/rsa-enc")` give uncorrelated streams while
/// remaining a pure function of `(root, label)` — the scheduling of a
/// parallel suite run can never leak into results.
pub fn derive_seed(root: u64, label: &str) -> u64 {
    SplitMix64::new(root ^ fnv1a64(label.as_bytes())).next_u64()
}

/// FNV-1a (64-bit) of `bytes`: the workspace's one non-cryptographic
/// content hash, behind [`derive_seed`], journal digests, corpus file
/// names and microcode checksums.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_and_seed_known_answers() {
        // Pinned: task seeds, journal digests and corpus file names are
        // all derived from these functions and must never drift.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            derive_seed(0xC5D_2018, "sec/opt/aes-enc"),
            0xabf5_0def_59c8_1f5e
        );
        assert_eq!(derive_seed(0, "table1"), 0x1548_d812_8b3c_1325);
    }

    #[test]
    fn deterministic_streams() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = SplitMix64::new(1);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        let mut r2 = SplitMix64::new(1);
        let mut buf2 = [0u8; 13];
        r2.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let i = r.range_i64(-5, 5);
            assert!((-5..5).contains(&i));
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn derived_seeds_differ_by_label_and_root() {
        assert_ne!(derive_seed(1, "a"), derive_seed(1, "b"));
        assert_ne!(derive_seed(1, "a"), derive_seed(2, "a"));
        assert_eq!(derive_seed(1, "a"), derive_seed(1, "a"));
    }
}
