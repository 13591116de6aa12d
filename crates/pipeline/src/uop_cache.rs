//! The micro-op cache (paper §III-A/B).
//!
//! An 8-way set-associative structure holding up to 1536 µops as lines of
//! six fused µops, indexed by 32-byte code window. Two constraints from the
//! real design are kept (paper §III-B): a 32-byte window may occupy at most
//! three ways, and instructions longer than six fused µops are not cached.
//!
//! CSD extends each way's tag with *context bits* identifying the decoder
//! (translation mode) that produced it: a window cached under one context
//! does not hit under another, creating (intentional) context conflict
//! misses instead of stale-translation streaming.

use csd::ContextId;

/// Statistics for the µop cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UopCacheStats {
    /// Window lookups.
    pub lookups: u64,
    /// Window hits (same window, same context).
    pub hits: u64,
    /// Lookups that found the window cached under a *different* context
    /// (counted as misses; the paper's artificial conflict misses).
    pub context_conflicts: u64,
    /// Windows inserted.
    pub inserts: u64,
    /// Windows rejected as uncacheable (over-long or custom flows).
    pub rejected: u64,
}

impl UopCacheStats {
    /// Hit rate over lookups, if any.
    pub fn hit_rate(&self) -> Option<f64> {
        (self.lookups > 0).then(|| self.hits as f64 / self.lookups as f64)
    }
}

impl csd_telemetry::ToJson for UopCacheStats {
    fn to_json(&self) -> csd_telemetry::Json {
        csd_telemetry::Json::obj([
            ("lookups", csd_telemetry::Json::from(self.lookups)),
            ("hits", csd_telemetry::Json::from(self.hits)),
            (
                "context_conflicts",
                csd_telemetry::Json::from(self.context_conflicts),
            ),
            ("inserts", csd_telemetry::Json::from(self.inserts)),
            ("rejected", csd_telemetry::Json::from(self.rejected)),
            ("hit_rate", csd_telemetry::Json::from(self.hit_rate())),
        ])
    }
}

/// One slot of a set: a resident window, or empty when `ways_used == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    window: u64,
    stamp: u64,
    fused_uops: u32,
    ways_used: u16,
    ctx: ContextId,
}

const EMPTY: Entry = Entry {
    window: 0,
    stamp: 0,
    fused_uops: 0,
    ways_used: 0,
    ctx: ContextId::Native,
};

/// Removes slot `i` of a set whose `len` resident windows sit packed at
/// its front: the last one moves into the hole. Returns the new count.
fn remove(set: &mut [Entry], i: usize, len: usize) -> usize {
    let last = len - 1;
    set[i] = set[last];
    set[last] = EMPTY;
    last
}

/// The micro-op cache model.
///
/// Timing- and occupancy-only: the µop *content* always comes from the decode path
/// (translations are deterministic), so the cache tracks which windows are
/// resident, under which context, and how many ways they occupy.
///
/// The state is one flat array of `sets × ways` slots, allocated by the
/// first insert (a core that never caches a window pays nothing for it).
/// A resident window fills one slot however many ways (lines) it
/// occupies, so a set never holds more windows than slots. Resident
/// windows sit packed at the front of their set, and a lookup stops at
/// the first empty slot. Their order carries no meaning: at most one
/// slot matches a `(window, context)` pair, and every lookup and insert
/// takes a fresh clock stamp, so the least-recent window is unique.
///
/// Successive instructions mostly share a window, so the cache remembers
/// the slot of its last hit: a lookup of the same `(window, context)`
/// pair goes straight to it. Only inserts and flushes move or drop a
/// resident window, and both forget the remembered slot.
#[derive(Debug, Clone)]
pub struct UopCache {
    slots: Vec<Entry>,
    last_hit: Option<(u64, ContextId, usize)>,
    sets: usize,
    ways: usize,
    line_uops: usize,
    max_lines: usize,
    clock: u64,
    stats: UopCacheStats,
}

impl UopCache {
    /// A µop cache with `sets` sets of `ways` ways, `line_uops` fused µops
    /// per line, and at most `max_lines` lines per window. A window can
    /// never occupy more lines than its set has ways, so a `max_lines`
    /// above `ways` caches no more than `max_lines == ways` does.
    pub fn new(sets: usize, ways: usize, line_uops: usize, max_lines: usize) -> UopCache {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways <= usize::from(u16::MAX), "way count must fit a u16");
        UopCache {
            slots: Vec::new(),
            last_hit: None,
            sets,
            ways,
            line_uops,
            max_lines: max_lines.min(ways),
            clock: 0,
            stats: UopCacheStats::default(),
        }
    }

    /// The 32-byte window address of a PC.
    pub fn window_of(pc: u64) -> u64 {
        pc >> 5
    }

    /// The index of `window`'s set's first slot.
    fn set_base(&self, window: u64) -> usize {
        (window as usize & (self.sets - 1)) * self.ways
    }

    /// The slots of `window`'s set (none before the first insert).
    fn set_mut(&mut self, window: u64) -> &mut [Entry] {
        if self.slots.is_empty() {
            return &mut [];
        }
        let base = self.set_base(window);
        &mut self.slots[base..base + self.ways]
    }

    /// Looks up a window under a context. A hit means the front end can
    /// stream this window's µops without the legacy pipeline. A repeat
    /// of the last hit is served inline; every other lookup scans the
    /// set out of line.
    #[inline]
    pub fn lookup(&mut self, window: u64, ctx: ContextId) -> bool {
        self.stats.lookups += 1;
        self.clock += 1;
        if let Some((w, c, i)) = self.last_hit {
            if w == window && c == ctx {
                self.slots[i].stamp = self.clock;
                self.stats.hits += 1;
                return true;
            }
        }
        self.scan(window, ctx)
    }

    /// `n` back-to-back lookups of one window under one context, with no
    /// insert or flush between them, at the cost of one: they all hit or
    /// all miss, every miss meets the same context conflict, and a hit
    /// window ends with the last of the `n` clock stamps.
    pub fn lookup_repeat(&mut self, window: u64, ctx: ContextId, n: u64) -> bool {
        let conflicts = self.stats.context_conflicts;
        let hit = self.lookup(window, ctx);
        let more = n.saturating_sub(1);
        self.stats.lookups += more;
        self.clock += more;
        if hit {
            self.stats.hits += more;
            if let Some((_, _, i)) = self.last_hit {
                self.slots[i].stamp = self.clock;
            }
        } else {
            self.stats.context_conflicts += more * (self.stats.context_conflicts - conflicts);
        }
        hit
    }

    /// [`UopCache::lookup`] past the remembered slot: searches the set.
    #[inline(never)]
    fn scan(&mut self, window: u64, ctx: ContextId) -> bool {
        let clock = self.clock;
        let base = self.set_base(window);
        let mut same_window_other_ctx = false;
        for (i, e) in self.set_mut(window).iter_mut().enumerate() {
            if e.ways_used == 0 {
                break;
            }
            if e.window == window {
                if e.ctx == ctx {
                    e.stamp = clock;
                    self.stats.hits += 1;
                    self.last_hit = Some((window, ctx, base + i));
                    return true;
                }
                same_window_other_ctx = true;
            }
        }
        if same_window_other_ctx {
            self.stats.context_conflicts += 1;
        }
        false
    }

    /// Inserts a decoded window. `fused_uops` is the window's total fused
    /// µop count; `cacheable` is false if any instruction's translation was
    /// not allowed in the µop cache. A window needing more than the
    /// per-window line limit (or than a set's ways) is rejected like an
    /// uncacheable one.
    pub fn insert(&mut self, window: u64, ctx: ContextId, fused_uops: u32, cacheable: bool) {
        self.last_hit = None;
        let lines = (fused_uops as usize).div_ceil(self.line_uops).max(1);
        let rejected = !cacheable || lines > self.max_lines;
        if rejected {
            self.stats.rejected += 1;
        } else {
            self.clock += 1;
            self.stats.inserts += 1;
            if self.slots.is_empty() {
                self.slots = vec![EMPTY; self.sets * self.ways];
            }
        }
        let stamp = self.clock;
        let ways = self.ways;
        let set = self.set_mut(window);
        let mut len = set.iter().take_while(|e| e.ways_used != 0).count();
        // A rebuild replaces the window's copy in this context; an
        // uncacheable one only invalidates it.
        if let Some(i) = set[..len]
            .iter()
            .position(|e| e.window == window && e.ctx == ctx)
        {
            len = remove(set, i, len);
        }
        if rejected {
            return;
        }
        let used: usize = set[..len].iter().map(|e| usize::from(e.ways_used)).sum();
        let mut free = ways - used;
        while free < lines {
            // Evict the least recently used window; `lines <= ways` means
            // one is resident whenever the set is short on ways.
            let lru = (0..len)
                .min_by_key(|&i| set[i].stamp)
                .expect("a set short on ways holds a window");
            free += usize::from(set[lru].ways_used);
            len = remove(set, lru, len);
        }
        // `len` windows fill at most `ways - lines` ways, so `len < ways`.
        set[len] = Entry {
            window,
            stamp,
            fused_uops,
            ways_used: lines as u16,
            ctx,
        };
    }

    /// Invalidates everything (e.g. on microcode update).
    pub fn flush(&mut self) {
        self.last_hit = None;
        self.slots.fill(EMPTY);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &UopCacheStats {
        &self.stats
    }

    /// Resets statistics (contents untouched).
    pub fn reset_stats(&mut self) {
        self.stats = UopCacheStats::default();
    }

    /// Total µops currently resident (diagnostics).
    pub fn resident_uops(&self) -> u32 {
        self.slots.iter().map(|e| e.fused_uops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> UopCache {
        UopCache::new(32, 8, 6, 3)
    }

    #[test]
    fn miss_then_hit_same_context() {
        let mut c = cache();
        assert!(!c.lookup(0x40, ContextId::Native));
        c.insert(0x40, ContextId::Native, 10, true);
        assert!(c.lookup(0x40, ContextId::Native));
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn context_mismatch_is_a_conflict_miss() {
        let mut c = cache();
        c.insert(0x40, ContextId::Native, 6, true);
        assert!(!c.lookup(0x40, ContextId::Devectorize));
        assert_eq!(c.stats().context_conflicts, 1);
        // Both contexts may co-reside (the paper's co-location benefit).
        c.insert(0x40, ContextId::Devectorize, 6, true);
        assert!(c.lookup(0x40, ContextId::Native));
        assert!(c.lookup(0x40, ContextId::Devectorize));
    }

    #[test]
    fn windows_over_three_lines_are_rejected() {
        let mut c = cache();
        c.insert(0x40, ContextId::Native, 19, true); // 4 lines
        assert!(!c.lookup(0x40, ContextId::Native));
        assert_eq!(c.stats().rejected, 1);
        c.insert(0x41, ContextId::Native, 18, true); // exactly 3 lines
        assert!(c.lookup(0x41, ContextId::Native));
    }

    #[test]
    fn windows_wider_than_the_set_are_rejected_not_a_panic() {
        // Three lines may be allowed per window, but a set has two ways.
        let mut c = UopCache::new(32, 2, 6, 3);
        c.insert(0x40, ContextId::Native, 12, true); // 2 lines: fits
        assert!(c.lookup(0x40, ContextId::Native));
        c.insert(0x40, ContextId::Native, 18, true); // 3 lines: cannot
        assert_eq!(c.stats().rejected, 1);
        assert_eq!(c.stats().inserts, 1);
        assert!(!c.lookup(0x40, ContextId::Native), "stale window must go");
        assert_eq!(c.resident_uops(), 0);
    }

    #[test]
    fn uncacheable_insert_purges_stale_copy() {
        let mut c = cache();
        c.insert(0x40, ContextId::Native, 6, true);
        assert!(c.lookup(0x40, ContextId::Native));
        c.insert(0x40, ContextId::Native, 6, false);
        assert!(!c.lookup(0x40, ContextId::Native), "stale window must go");
    }

    #[test]
    fn set_pressure_evicts_lru() {
        let mut c = cache();
        // Windows mapping to the same set: stride = 32 sets.
        let w = |i: u64| 0x100 + i * 32;
        for i in 0..4 {
            c.insert(w(i), ContextId::Native, 12, true); // 2 ways each
        }
        // 8 ways full; touch w(0) so w(1) is LRU.
        assert!(c.lookup(w(0), ContextId::Native));
        c.insert(w(4), ContextId::Native, 12, true);
        assert!(c.lookup(w(0), ContextId::Native));
        assert!(!c.lookup(w(1), ContextId::Native), "LRU window evicted");
        assert!(c.lookup(w(4), ContextId::Native));
    }

    #[test]
    fn reinsert_updates_entry_without_duplication() {
        let mut c = cache();
        c.insert(0x40, ContextId::Native, 6, true);
        c.insert(0x40, ContextId::Native, 12, true);
        assert_eq!(c.resident_uops(), 12);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = cache();
        c.insert(0x40, ContextId::Native, 6, true);
        c.flush();
        assert!(!c.lookup(0x40, ContextId::Native));
        assert_eq!(c.resident_uops(), 0);
    }

    #[test]
    fn window_of_pc() {
        assert_eq!(UopCache::window_of(0x1000), 0x80);
        assert_eq!(UopCache::window_of(0x101F), 0x80);
        assert_eq!(UopCache::window_of(0x1020), 0x81);
    }

    #[test]
    fn lookup_repeat_is_repeated_lookups() {
        let w = |i: u64| 0x100 + i * 32;
        for (window, ctx) in [
            (w(0), ContextId::Native),
            (w(1), ContextId::Native),
            (w(0), ContextId::Devectorize),
            (w(9), ContextId::Native),
        ] {
            for n in 1..5 {
                let mut one = cache();
                for i in 0..4 {
                    one.insert(w(i), ContextId::Native, 12, true);
                }
                let mut batch = one.clone();
                let hits: Vec<bool> = (0..n).map(|_| one.lookup(window, ctx)).collect();
                let hit = batch.lookup_repeat(window, ctx, n);
                assert!(hits.iter().all(|&h| h == hit));
                assert_eq!(batch.stats(), one.stats());
                // The same window is least recent afterwards on both.
                for c in [&mut one, &mut batch] {
                    c.insert(w(4), ContextId::Native, 12, true);
                }
                for i in 0..5 {
                    assert_eq!(
                        batch.lookup(w(i), ContextId::Native),
                        one.lookup(w(i), ContextId::Native)
                    );
                }
            }
        }
    }
}
