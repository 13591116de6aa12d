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

/// Where a [`Cache`] held a line when [`Cache::slot_of`] looked: the
/// index of its line word and the word it matched. Only meaningful for
/// the cache that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineSlot {
    word: usize,
    want: u64,
}

/// A set-associative cache tracking line presence (not data).
///
/// Addresses are byte addresses; the cache computes its own set split.
///
/// A set's state is a block of `2 * ways` words: first one line word per
/// way (the line's base address ORed with the `VALID` and `DIRTY` flags;
/// zero means invalid), then one LRU stamp per way. Stamps come from one
/// clock per cache, so within a set a larger stamp is a more recent
/// touch. Blocks live in one arena, `blocks`, and `dir` holds each set's
/// block offset into it. Block 0 stays all zeros and stands for every
/// set never filled: a zero word never matches a lookup (the wanted word
/// carries `VALID`), and an all-invalid set picks way 0 as its victim. A
/// set gets its own block on its first fill, so a cache holds, copies and
/// clones only the sets a run filled.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    dir: Vec<u32>,
    blocks: Vec<u64>,
    clock: u64,
    stats: CacheStats,
    set_shift: u32,
    set_mask: u64,
}

impl Clone for Cache {
    fn clone(&self) -> Cache {
        Cache {
            cfg: self.cfg,
            dir: self.dir.clone(),
            blocks: self.blocks.clone(),
            clock: self.clock,
            stats: self.stats,
            set_shift: self.set_shift,
            set_mask: self.set_mask,
        }
    }

    /// Reuses `self`'s directory and arena allocations.
    fn clone_from(&mut self, source: &Cache) {
        self.cfg = source.cfg;
        self.dir.clone_from(&source.dir);
        self.blocks.clone_from(&source.blocks);
        self.clock = source.clock;
        self.stats = source.stats;
        self.set_shift = source.set_shift;
        self.set_mask = source.set_mask;
    }
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::sets`])
    /// or its state would not fit 32-bit block offsets.
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        assert!(
            (sets + 1) * 2 * cfg.ways <= u32::MAX as usize,
            "cache state exceeds 32-bit block offsets"
        );
        Cache {
            cfg,
            dir: vec![0; sets],
            blocks: vec![0; 2 * cfg.ways],
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
        let base = self.dir[self.set_of(addr)] as usize;
        self.blocks[base..base + 2 * ways].split_at(ways)
    }

    /// Appends a zero block to the arena for `set`. Kept out of line:
    /// it runs once per set, and inlined it bloats every fill.
    #[cold]
    #[inline(never)]
    fn own_block(&mut self, set: usize) -> usize {
        let base = self.blocks.len();
        self.blocks.resize(base + 2 * self.cfg.ways, 0);
        self.dir[set] = base as u32;
        base
    }

    /// The block offset of `addr`'s set and the way holding its line, if
    /// any; the line word is at `base + way`.
    #[inline]
    fn find(&self, addr: u64) -> Option<(usize, usize)> {
        let base = self.dir[self.set_of(addr)] as usize;
        let want = self.line_addr(addr) | VALID;
        way_of(&self.blocks[base..base + self.cfg.ways], want).map(|way| (base, way))
    }

    /// Looks up `addr`; on a hit, updates replacement state and dirtiness.
    /// Returns whether the access hit. Does **not** fill on miss — the
    /// hierarchy fills explicitly (through the crate-private `insert`,
    /// since the miss already searched the set), so multi-level logic
    /// stays outside the cache.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        self.stats.accesses += 1;
        let ways = self.cfg.ways;
        let want = self.line_addr(addr) | VALID;
        let base = self.dir[self.set_of(addr)] as usize;
        // A set never filled borrows block 0 here, but no way of it
        // matches, so it is never written.
        let (lines, stamps) = self.blocks[base..base + 2 * ways].split_at_mut(ways);
        match way_of(lines, want) {
            Some(way) => {
                self.stats.hits += 1;
                self.clock += 1;
                stamps[way] = self.clock;
                if write {
                    lines[way] |= DIRTY;
                }
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Where the line containing `addr` sits, if present: a handle that
    /// [`Cache::holds`] and [`Cache::rehit`] use without searching the
    /// set again. Non-perturbing, like [`Cache::contains`].
    pub fn slot_of(&self, addr: u64) -> Option<LineSlot> {
        self.find(addr).map(|(base, way)| LineSlot {
            word: base + way,
            want: self.line_addr(addr) | VALID,
        })
    }

    /// Whether `slot` still holds the line it was taken for: no flush,
    /// back-invalidation or eviction has removed it since.
    #[inline]
    pub fn holds(&self, slot: LineSlot) -> bool {
        self.blocks[slot.word] & !DIRTY == slot.want
    }

    /// Counts `n` read hits on `slot`'s line at once: what `n` calls of
    /// [`Cache::access`] on the line do when each finds it present and no
    /// other access or fill of this cache comes between them. The counters
    /// move by `n`, the clock by `n` ticks, and the line takes the last
    /// stamp if the slot still holds it. A line removed since its last
    /// hit keeps no stamp worth setting: a fill overwrites an invalid
    /// way's stamp before any victim choice reads it.
    pub fn rehit(&mut self, slot: LineSlot, n: u64) {
        self.stats.accesses += n;
        self.stats.hits += n;
        self.clock += n;
        if self.holds(slot) {
            self.blocks[slot.word + self.cfg.ways] = self.clock;
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
            .is_some_and(|(base, way)| self.blocks[base + way] & DIRTY != 0)
    }

    /// Inserts the line containing `addr`, evicting if necessary.
    /// Returns the base address of the evicted line, if a valid line was
    /// displaced (used for back-invalidation / write-back modeling). A
    /// line already present only takes the dirty bit of a write.
    pub fn fill(&mut self, addr: u64, write: bool) -> Option<u64> {
        if let Some((base, way)) = self.find(addr) {
            if write {
                self.blocks[base + way] |= DIRTY;
            }
            return None;
        }
        self.insert(addr, write)
    }

    /// [`Cache::fill`] of a line known to be absent, as right after this
    /// cache's [`Cache::access`] of it missed: the set is not searched
    /// for the line again.
    pub(crate) fn insert(&mut self, addr: u64, write: bool) -> Option<u64> {
        debug_assert!(!self.contains(addr), "insert of a present line");
        let ways = self.cfg.ways;
        let dirty = if write { DIRTY } else { 0 };
        let word = self.line_addr(addr) | VALID | dirty;
        let set = self.set_of(addr);
        let base = match self.dir[set] {
            0 => self.own_block(set),
            base => base as usize,
        };
        let (lines, stamps) = self.blocks[base..base + 2 * ways].split_at_mut(ways);
        let way = victim(lines, stamps);
        let old = std::mem::replace(&mut lines[way], word);
        self.clock += 1;
        stamps[way] = self.clock;
        (old != 0).then(|| {
            self.stats.evictions += 1;
            old & !(VALID | DIRTY)
        })
    }

    /// Removes the line containing `addr`. Returns whether it was present.
    pub fn flush_line(&mut self, addr: u64) -> bool {
        match self.find(addr) {
            Some((base, way)) => {
                self.blocks[base + way] = 0;
                self.stats.flushes += 1;
                true
            }
            None => false,
        }
    }

    /// Invalidates the entire cache.
    pub fn flush_all(&mut self) {
        let ways = self.cfg.ways;
        // Block 0, the shared all-zero block, is never written.
        for block in self.blocks.chunks_exact_mut(2 * ways).skip(1) {
            block[..ways].fill(0);
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

/// The way of a set's `lines` holding the line word `want` (a line
/// address ORed with `VALID`). The dirty bit is masked off, so one
/// compare checks both the address and validity.
#[inline]
fn way_of(lines: &[u64], want: u64) -> Option<usize> {
    lines.iter().position(|&w| w & !DIRTY == want)
}

/// The way a fill into a set replaces: the first invalid way, else the
/// least recently touched one.
fn victim(lines: &[u64], stamps: &[u64]) -> usize {
    lines.iter().position(|&w| w == 0).unwrap_or_else(|| {
        (1..stamps.len()).fold(0, |lru, w| if stamps[w] < stamps[lru] { w } else { lru })
    })
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
        let (lines, stamps) = c.set(0);
        assert_eq!(victim(lines, stamps), 1);
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
    fn sets_own_a_block_only_once_filled() {
        // 64 sets x 8 ways: a block is 16 words.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
            latency: 4,
        });
        let owned = |c: &Cache| c.blocks.len() / 16;
        assert_eq!(owned(&c), 1, "a fresh cache owns only the zero block");
        for a in [0x0, 0x40, 0x1000, 0x2000] {
            assert!(!c.access(a, false));
            assert!(!c.contains(a) && !c.is_dirty(a));
        }
        assert_eq!(owned(&c), 1, "misses and probes own nothing");
        for (k, a) in [0x0u64, 0x40, 0x80].into_iter().enumerate() {
            c.fill(a, false);
            c.fill(a + 0x1000, true); // same set, second way
            assert_eq!(owned(&c), k + 2);
        }
        c.flush_all();
        assert_eq!(owned(&c), 4, "a flush keeps the blocks");
        assert!(c.blocks[..16].iter().all(|&w| w == 0), "block 0 stays zero");
    }

    #[test]
    fn clone_from_restores_exactly() {
        let mut snap = small();
        snap.fill(0x0, true);
        snap.fill(0x100, false);
        let mut live = small();
        for a in [0x40, 0x80, 0xc0, 0x140] {
            live.fill(a, false);
        }
        live.clone_from(&snap);
        assert_eq!(live.blocks, snap.blocks);
        assert_eq!(live.dir, snap.dir);
        assert!(live.is_dirty(0x0) && !live.contains(0x40));
        assert_eq!(live.fill(0x200, false), Some(0x0), "LRU came along");
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
