//! The multi-level memory hierarchy.

use crate::cache::{Cache, CacheConfig, LineSlot};
use crate::stats::HierarchyStats;

/// What kind of access is being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (L1I path).
    InstFetch,
    /// Data read (L1D path).
    DataRead,
    /// Data write (L1D path, write-allocate).
    DataWrite,
}

impl AccessKind {
    /// Whether this is a write.
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::DataWrite)
    }
}

/// The level at which an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    /// First-level cache (L1I or L1D).
    L1,
    /// Unified second level.
    L2,
    /// Last-level cache.
    Llc,
    /// Main memory.
    Memory,
}

/// Outcome of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total latency in cycles.
    pub latency: u64,
    /// Where the access was satisfied.
    pub level: HitLevel,
}

impl AccessResult {
    /// Whether the access hit in the first-level cache.
    pub fn l1_hit(&self) -> bool {
        self.level == HitLevel::L1
    }
}

/// Configuration of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// Main-memory access latency in cycles.
    pub memory_latency: u64,
    /// Whether the LLC is inclusive of the upper levels (evicting a line
    /// from the LLC back-invalidates L1/L2 copies).
    pub inclusive_llc: bool,
}

impl Default for HierarchyConfig {
    /// The paper's Sandy-Bridge-style baseline: 32 KiB 8-way L1I/L1D
    /// (4-cycle), 256 KiB 8-way L2 (12-cycle), 2 MiB 16-way LLC (30-cycle),
    /// 200-cycle memory, inclusive LLC, 64 B lines throughout.
    fn default() -> HierarchyConfig {
        let line = 64;
        HierarchyConfig {
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: line,
                latency: 4,
            },
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: line,
                latency: 4,
            },
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                ways: 8,
                line_bytes: line,
                latency: 12,
            },
            llc: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                ways: 16,
                line_bytes: line,
                latency: 30,
            },
            memory_latency: 200,
            inclusive_llc: true,
        }
    }
}

/// A three-level write-back memory hierarchy with `clflush` support.
///
/// Models line presence and timing. Victim and attacker programs that share
/// a core (time-sliced, as in same-core PRIME+PROBE) or a package
/// (FLUSH+RELOAD through the shared LLC) access the *same* hierarchy, which
/// is what makes the side channels — and the decoy defenses — observable.
#[derive(Debug)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    memory_accesses: u64,
}

impl Clone for Hierarchy {
    fn clone(&self) -> Hierarchy {
        Hierarchy {
            cfg: self.cfg,
            l1i: self.l1i.clone(),
            l1d: self.l1d.clone(),
            l2: self.l2.clone(),
            llc: self.llc.clone(),
            memory_accesses: self.memory_accesses,
        }
    }

    /// Reuses every level's allocations (see [`Cache`]'s `clone_from`).
    fn clone_from(&mut self, source: &Hierarchy) {
        self.cfg = source.cfg;
        self.l1i.clone_from(&source.l1i);
        self.l1d.clone_from(&source.l1d);
        self.l2.clone_from(&source.l2);
        self.llc.clone_from(&source.llc);
        self.memory_accesses = source.memory_accesses;
    }
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Hierarchy {
        Hierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            llc: Cache::new(cfg.llc),
            memory_accesses: 0,
            cfg,
        }
    }

    /// The hierarchy's configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Performs an access, filling all levels on the way back. Each level
    /// fills only after its own lookup missed, and nothing in between
    /// can bring the line in (a back-invalidation only removes lines), so
    /// fills insert without searching the set again.
    ///
    /// The L1 hit path is inlined into callers (the pipeline's fetch and
    /// load µops); everything below L1 runs out of line.
    #[inline]
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        let write = kind.is_write();
        let l1 = match kind {
            AccessKind::InstFetch => &mut self.l1i,
            _ => &mut self.l1d,
        };
        if l1.access(addr, write) {
            return AccessResult {
                latency: l1.config().latency,
                level: HitLevel::L1,
            };
        }
        self.access_below_l1(addr, kind, write)
    }

    /// An instruction fetch of `addr` ([`Hierarchy::access`] with
    /// [`AccessKind::InstFetch`]) that returns where the L1I holds the
    /// line afterwards (a hit found it there and a miss filled it), and
    /// the access's outcome.
    pub fn fetch(&mut self, addr: u64) -> (LineSlot, AccessResult) {
        let r = self.access(addr, AccessKind::InstFetch);
        let slot = self
            .l1i
            .slot_of(addr)
            .expect("a fetch leaves its line in the L1I");
        (slot, r)
    }

    /// Whether the L1I still holds the line of `slot` (see
    /// [`Cache::holds`]): an LLC eviction's back-invalidation or a
    /// `clflush` since the fetch that returned it would have removed it.
    #[inline]
    pub fn l1i_holds(&self, slot: LineSlot) -> bool {
        self.l1i.holds(slot)
    }

    /// Counts `n` more instruction fetches of `slot`'s line, each of which
    /// found it in the L1I with no other L1I access between them (see
    /// [`Cache::rehit`]). Only the L1I takes part in an L1I hit, so this
    /// is what `n` such [`Hierarchy::fetch`] calls do to the hierarchy.
    pub fn refetch(&mut self, slot: LineSlot, n: u64) {
        self.l1i.rehit(slot, n);
    }

    /// The rest of [`Hierarchy::access`] after an L1 miss.
    #[inline(never)]
    fn access_below_l1(&mut self, addr: u64, kind: AccessKind, write: bool) -> AccessResult {
        let l1 = match kind {
            AccessKind::InstFetch => &self.l1i,
            _ => &self.l1d,
        };
        let mut latency = l1.config().latency + self.l2.config().latency;
        if self.l2.access(addr, write) {
            self.fill_l1(addr, kind, write);
            return AccessResult {
                latency,
                level: HitLevel::L2,
            };
        }
        latency += self.llc.config().latency;
        if self.llc.access(addr, write) {
            self.l2.insert(addr, write);
            self.fill_l1(addr, kind, write);
            return AccessResult {
                latency,
                level: HitLevel::Llc,
            };
        }
        latency += self.cfg.memory_latency;
        self.memory_accesses += 1;
        if let Some(evicted) = self.llc.insert(addr, write) {
            if self.cfg.inclusive_llc {
                self.back_invalidate(evicted);
            }
        }
        self.l2.insert(addr, write);
        self.fill_l1(addr, kind, write);
        AccessResult {
            latency,
            level: HitLevel::Memory,
        }
    }

    fn fill_l1(&mut self, addr: u64, kind: AccessKind, write: bool) {
        match kind {
            AccessKind::InstFetch => {
                self.l1i.insert(addr, false);
            }
            _ => {
                self.l1d.insert(addr, write);
            }
        }
    }

    fn back_invalidate(&mut self, line_addr: u64) {
        self.l1i.flush_line(line_addr);
        self.l1d.flush_line(line_addr);
        self.l2.flush_line(line_addr);
    }

    /// `clflush`: removes the line containing `addr` from every level.
    pub fn flush(&mut self, addr: u64) {
        self.l1i.flush_line(addr);
        self.l1d.flush_line(addr);
        self.l2.flush_line(addr);
        self.llc.flush_line(addr);
    }

    /// Invalidates every level (e.g. between benchmark runs).
    pub fn flush_all(&mut self) {
        self.l1i.flush_all();
        self.l1d.flush_all();
        self.l2.flush_all();
        self.llc.flush_all();
    }

    /// Whether the line containing `addr` is present at any level
    /// (non-perturbing; for test assertions and attack ground truth).
    pub fn present_anywhere(&self, addr: u64) -> bool {
        self.l1i.contains(addr)
            || self.l1d.contains(addr)
            || self.l2.contains(addr)
            || self.llc.contains(addr)
    }

    /// Direct access to an individual level (for attack agents that reason
    /// about sets and ways).
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// The L1 data cache.
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The unified L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The last-level cache.
    pub fn llc(&self) -> &Cache {
        &self.llc
    }

    /// Aggregated statistics snapshot.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: *self.l1i.stats(),
            l1d: *self.l1d.stats(),
            l2: *self.l2.stats(),
            llc: *self.llc.stats(),
            memory_accesses: self.memory_accesses,
        }
    }

    /// Resets statistics at every level (cache state is untouched).
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
        self.memory_accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_decreases_with_locality() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        let cold = h.access(0x1000, AccessKind::DataRead);
        assert_eq!(cold.level, HitLevel::Memory);
        assert_eq!(cold.latency, 4 + 12 + 30 + 200);
        let warm = h.access(0x1000, AccessKind::DataRead);
        assert_eq!(warm.level, HitLevel::L1);
        assert_eq!(warm.latency, 4);
    }

    #[test]
    fn flush_forces_memory_access() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        h.access(0x2000, AccessKind::DataRead);
        h.flush(0x2000);
        assert!(!h.present_anywhere(0x2000));
        let r = h.access(0x2000, AccessKind::DataRead);
        assert_eq!(r.level, HitLevel::Memory);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        // Fill one L1D set (stride = 64 sets * 64 B = 4 KiB) beyond capacity.
        for i in 0..9u64 {
            h.access(0x10_0000 + i * 4096, AccessKind::DataRead);
        }
        // The first line was evicted from L1 but is still in L2.
        let r = h.access(0x10_0000, AccessKind::DataRead);
        assert_eq!(r.level, HitLevel::L2);
    }

    #[test]
    fn inst_and_data_paths_are_split() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        h.access(0x3000, AccessKind::InstFetch);
        assert!(h.l1i().contains(0x3000));
        assert!(!h.l1d().contains(0x3000));
        // Same line via the data path now hits in L2, not L1.
        let r = h.access(0x3000, AccessKind::DataRead);
        assert_eq!(r.level, HitLevel::L2);
    }

    #[test]
    fn inclusive_llc_back_invalidates() {
        // Tiny LLC to force LLC evictions quickly.
        let mut cfg = HierarchyConfig::default();
        cfg.llc.size_bytes = 8 * 1024; // 8 sets x 16 ways
        cfg.l2.size_bytes = 8 * 1024;
        let mut h = Hierarchy::new(cfg);
        let sets = cfg.llc.sets() as u64;
        let stride = sets * 64;
        // 17 lines in one LLC set: evicts the first.
        for i in 0..17u64 {
            h.access(0x40_0000 + i * stride, AccessKind::DataRead);
        }
        assert!(
            !h.present_anywhere(0x40_0000),
            "inclusive LLC eviction must purge upper levels"
        );
    }

    #[test]
    fn writes_mark_dirty_and_hit() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        h.access(0x5000, AccessKind::DataWrite);
        let r = h.access(0x5000, AccessKind::DataRead);
        assert!(r.l1_hit());
    }

    #[test]
    fn stats_roll_up() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        h.access(0x1000, AccessKind::DataRead);
        h.access(0x1000, AccessKind::DataRead);
        h.access(0x9000, AccessKind::InstFetch);
        let s = h.stats();
        assert_eq!(s.l1d.accesses, 2);
        assert_eq!(s.l1d.hits, 1);
        assert_eq!(s.l1i.accesses, 1);
        assert_eq!(s.memory_accesses, 2);
        h.reset_stats();
        assert_eq!(h.stats().l1d.accesses, 0);
    }
}
