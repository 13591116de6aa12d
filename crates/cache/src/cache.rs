//! A single set-associative cache.

use crate::stats::CacheStats;

/// Geometry of one cache level. Replacement is true LRU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two, at least 4).
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two sets or
    /// line size, a line under 4 bytes, or capacity not divisible by
    /// `ways * line_bytes`).
    pub fn sets(&self) -> usize {
        assert!(
            self.line_bytes.is_power_of_two() && self.line_bytes >= 4,
            "line size must be a power of two of at least 4 bytes"
        );
        let sets = self.size_bytes / (self.ways * self.line_bytes);
        assert!(
            sets * self.ways * self.line_bytes == self.size_bytes,
            "capacity not divisible by ways*line"
        );
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Line-word flag: the way holds a line. A zero word is an invalid way.
const VALID: u64 = 1;
/// Line-word flag: the line was written since it was filled.
const DIRTY: u64 = 2;

/// A set-associative cache tracking line presence (not data).
///
/// Addresses are byte addresses; the cache computes its own set split.
///
/// All state is one zero-initialised `Vec<u64>`. Set `s` owns the block
/// `[s * 2 * ways, (s + 1) * 2 * ways)`: first one line word per way (the
/// line's base address ORed with the `VALID` and `DIRTY` flags; zero means
/// invalid), then one LRU stamp per way. Stamps come from one clock per
/// cache, so within a set a larger stamp is a more recent touch. A fresh
/// cache is all zeros, which the allocator hands out as lazily-zeroed
/// pages: a set nobody touches costs no memory traffic.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    state: Vec<u64>,
    clock: u64,
    stats: CacheStats,
    set_shift: u32,
    set_mask: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        Cache {
            cfg,
            state: vec![0; 2 * sets * cfg.ways],
            clock: 0,
            stats: CacheStats::default(),
            set_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The set index for an address.
    #[inline]
    pub fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.set_shift) & self.set_mask) as usize
    }

    /// The base address of the line containing `addr`.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !((self.cfg.line_bytes as u64) - 1)
    }

    /// The line words and LRU stamps of the set containing `addr`.
    #[inline]
    fn set(&self, addr: u64) -> (&[u64], &[u64]) {
        let ways = self.cfg.ways;
        let base = self.set_of(addr) * 2 * ways;
        self.state[base..base + 2 * ways].split_at(ways)
    }

    #[inline]
    fn set_mut(&mut self, addr: u64) -> (&mut [u64], &mut [u64]) {
        let ways = self.cfg.ways;
        let base = self.set_of(addr) * 2 * ways;
        self.state[base..base + 2 * ways].split_at_mut(ways)
    }

    /// The way holding `addr`'s line, if any. The dirty bit is masked
    /// off, so one compare checks both the address and validity.
    #[inline]
    fn find(&self, addr: u64) -> Option<usize> {
        let want = self.line_addr(addr) | VALID;
        self.set(addr).0.iter().position(|&w| w & !DIRTY == want)
    }

    /// The way a fill into `addr`'s set replaces: the first invalid way,
    /// else the least recently touched one.
    fn victim(&self, addr: u64) -> usize {
        let (lines, stamps) = self.set(addr);
        lines.iter().position(|&w| w == 0).unwrap_or_else(|| {
            (1..stamps.len()).fold(0, |lru, w| if stamps[w] < stamps[lru] { w } else { lru })
        })
    }

    /// Marks `way` of `addr`'s set as the most recently touched.
    #[inline]
    fn touch(&mut self, addr: u64, way: usize) {
        self.clock += 1;
        let clock = self.clock;
        self.set_mut(addr).1[way] = clock;
    }

    /// Looks up `addr`; on a hit, updates replacement state and dirtiness.
    /// Returns whether the access hit. Does **not** fill on miss — callers
    /// fill explicitly via [`Cache::fill`] so multi-level logic stays
    /// outside the cache.
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        self.stats.accesses += 1;
        match self.find(addr) {
            Some(way) => {
                self.stats.hits += 1;
                self.touch(addr, way);
                if write {
                    self.set_mut(addr).0[way] |= DIRTY;
                }
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Checks presence without perturbing replacement state or stats.
    pub fn contains(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Whether the line containing `addr` is present and was written since
    /// it was filled. Non-perturbing, like [`Cache::contains`].
    pub fn is_dirty(&self, addr: u64) -> bool {
        self.find(addr)
            .is_some_and(|way| self.set(addr).0[way] & DIRTY != 0)
    }

    /// Inserts the line containing `addr`, evicting if necessary.
    /// Returns the base address of the evicted line, if a valid line was
    /// displaced (used for back-invalidation / write-back modeling).
    pub fn fill(&mut self, addr: u64, write: bool) -> Option<u64> {
        let dirty = if write { DIRTY } else { 0 };
        if let Some(way) = self.find(addr) {
            // Already present (e.g. filled by a racing path) — refresh.
            self.set_mut(addr).0[way] |= dirty;
            return None;
        }
        let way = self.victim(addr);
        let word = self.line_addr(addr) | VALID | dirty;
        let old = std::mem::replace(&mut self.set_mut(addr).0[way], word);
        self.touch(addr, way);
        (old != 0).then(|| {
            self.stats.evictions += 1;
            old & !(VALID | DIRTY)
        })
    }

    /// Removes the line containing `addr`. Returns whether it was present.
    pub fn flush_line(&mut self, addr: u64) -> bool {
        match self.find(addr) {
            Some(way) => {
                self.set_mut(addr).0[way] = 0;
                self.stats.flushes += 1;
                true
            }
            None => false,
        }
    }

    /// Invalidates the entire cache.
    pub fn flush_all(&mut self) {
        let ways = self.cfg.ways;
        for set in self.state.chunks_exact_mut(2 * ways) {
            set[..ways].fill(0);
        }
    }

    /// Addresses of all valid lines currently in the set containing `addr`.
    pub fn lines_in_set(&self, addr: u64) -> Vec<u64> {
        self.set(addr)
            .0
            .iter()
            .filter(|&&w| w != 0)
            .map(|&w| w & !(VALID | DIRTY))
            .collect()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (state is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x1000, false));
        c.fill(0x1000, false);
        assert!(c.access(0x1000, false));
        assert!(c.access(0x103f, false), "same line");
        assert!(!c.access(0x1040, false), "next line");
    }

    #[test]
    fn eviction_returns_victim_address() {
        let mut c = small();
        // Three lines mapping to the same set (stride = sets*line = 256).
        c.fill(0x0, false);
        c.fill(0x100, false);
        let evicted = c.fill(0x200, false);
        assert_eq!(evicted, Some(0x0), "LRU victim");
        assert!(!c.contains(0x0));
        assert!(c.contains(0x100) && c.contains(0x200));
    }

    #[test]
    fn lru_evicts_least_recent() {
        // One set of 4 ways; line `w * 64` lands in way `w`.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 4,
            line_bytes: 64,
            latency: 1,
        });
        for w in 0..4 {
            c.fill(w * 64, false);
        }
        c.access(0, false); // 1 is now LRU
        assert_eq!(c.victim(0), 1);
    }

    #[test]
    fn hit_refreshes_lru() {
        let mut c = small();
        c.fill(0x0, false);
        c.fill(0x100, false);
        assert!(c.access(0x0, false)); // refresh 0x0; 0x100 becomes LRU
        let evicted = c.fill(0x200, false);
        assert_eq!(evicted, Some(0x100));
    }

    #[test]
    fn flush_removes_line() {
        let mut c = small();
        c.fill(0x40, false);
        assert!(c.flush_line(0x7f), "flush by any addr within the line");
        assert!(!c.contains(0x40));
        assert!(!c.flush_line(0x40), "already gone");
    }

    #[test]
    fn contains_does_not_perturb() {
        let mut c = small();
        c.fill(0x0, false);
        c.fill(0x100, false);
        // Probing 0x0 must NOT refresh it.
        assert!(c.contains(0x0));
        let evicted = c.fill(0x200, false);
        assert_eq!(evicted, Some(0x0));
    }

    #[test]
    fn stats_track_accesses() {
        let mut c = small();
        c.access(0x0, false);
        c.fill(0x0, false);
        c.access(0x0, false);
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lines_in_set_reports_contents() {
        let mut c = small();
        c.fill(0x0, false);
        c.fill(0x100, false);
        let mut lines = c.lines_in_set(0x200);
        lines.sort_unstable();
        assert_eq!(lines, vec![0x0, 0x100]);
    }

    #[test]
    fn sets_geometry() {
        assert_eq!(small().config().sets(), 4);
        let l1 = CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
            latency: 4,
        };
        assert_eq!(l1.sets(), 64);
    }

    #[test]
    #[should_panic(expected = "at least 4 bytes")]
    fn lines_must_leave_room_for_the_flag_bits() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 16,
            ways: 4,
            line_bytes: 2,
            latency: 1,
        });
    }
}
