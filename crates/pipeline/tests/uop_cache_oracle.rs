//! Differential test of [`UopCache`] against a per-set list reference.
//!
//! The reference keeps, per set, a `Vec` of resident windows in insertion
//! order and replays the cache's documented behaviour directly: a lookup
//! hits on a `(window, context)` match and restamps it, and counts a
//! context conflict when only other contexts hold the window; an insert
//! retains every other entry, evicts the least recently stamped window
//! until enough ways are free and pushes the new one; a window over the
//! line limit (or wider than a set) or marked uncacheable is rejected and
//! purges its stale copy. Seeded `SplitMix64` op sequences drive both
//! over several geometries; every return value, every statistic and the
//! resident µop count must agree after every operation.

use csd::ContextId;
use csd_pipeline::{UopCache, UopCacheStats};
use csd_telemetry::SplitMix64;

const SEEDS: u64 = 12;
const OPS: usize = 4000;

#[derive(Debug, Clone, Copy)]
struct Entry {
    window: u64,
    ctx: ContextId,
    ways_used: usize,
    fused_uops: u32,
    stamp: u64,
}

struct Reference {
    sets: Vec<Vec<Entry>>,
    ways: usize,
    line_uops: usize,
    max_lines: usize,
    clock: u64,
    stats: UopCacheStats,
}

impl Reference {
    fn new(sets: usize, ways: usize, line_uops: usize, max_lines: usize) -> Reference {
        Reference {
            sets: vec![Vec::new(); sets],
            ways,
            line_uops,
            max_lines,
            clock: 0,
            stats: UopCacheStats::default(),
        }
    }

    fn set_of(&self, window: u64) -> usize {
        (window as usize) & (self.sets.len() - 1)
    }

    fn lookup(&mut self, window: u64, ctx: ContextId) -> bool {
        self.stats.lookups += 1;
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(window);
        let mut conflict = false;
        for e in &mut self.sets[set] {
            if e.window == window {
                if e.ctx == ctx {
                    e.stamp = clock;
                    self.stats.hits += 1;
                    return true;
                }
                conflict = true;
            }
        }
        if conflict {
            self.stats.context_conflicts += 1;
        }
        false
    }

    fn insert(&mut self, window: u64, ctx: ContextId, fused_uops: u32, cacheable: bool) {
        let lines = (fused_uops as usize).div_ceil(self.line_uops).max(1);
        let set = self.set_of(window);
        self.sets[set].retain(|e| !(e.window == window && e.ctx == ctx));
        if !cacheable || lines > self.max_lines || lines > self.ways {
            self.stats.rejected += 1;
            return;
        }
        self.clock += 1;
        let stamp = self.clock;
        let set = &mut self.sets[set];
        let mut free = self.ways - set.iter().map(|e| e.ways_used).sum::<usize>();
        while free < lines {
            let (lru, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .expect("a set short on ways holds a window");
            free += set.remove(lru).ways_used;
        }
        set.push(Entry {
            window,
            ctx,
            ways_used: lines,
            fused_uops,
            stamp,
        });
        self.stats.inserts += 1;
    }

    fn flush(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }

    fn resident_uops(&self) -> u32 {
        self.sets.iter().flatten().map(|e| e.fused_uops).sum()
    }
}

const CONTEXTS: [ContextId; 5] = [
    ContextId::Native,
    ContextId::Stealth,
    ContextId::Devectorize,
    ContextId::Custom(0),
    ContextId::Custom(1),
];

/// `(sets, ways, line_uops, max_lines)`: the default shape scaled down,
/// one way, a line limit equal to the ways, one above them (windows that
/// used to panic), and a single set.
const GEOMETRIES: [(usize, usize, usize, usize); 6] = [
    (4, 8, 6, 3),
    (2, 1, 6, 1),
    (4, 3, 6, 3),
    (4, 2, 6, 3),
    (1, 4, 4, 2),
    (8, 6, 6, 4),
];

fn run(seed: u64, (sets, ways, line_uops, max_lines): (usize, usize, usize, usize)) {
    let mut cache = UopCache::new(sets, ways, line_uops, max_lines);
    let mut reference = Reference::new(sets, ways, line_uops, max_lines);
    let mut rng = SplitMix64::new(seed);
    // Three windows per slot of the cache, so sets fill and evict.
    let windows = (3 * sets * ways) as u64;
    let max_fused = ((max_lines + 1) * line_uops + 2) as u64;
    for op in 0..OPS {
        let window = rng.range_u64(0, windows);
        let ctx = CONTEXTS[rng.range_usize(0, CONTEXTS.len())];
        let what = match rng.range_u64(0, 100) {
            0 => {
                cache.flush();
                reference.flush();
                "flush".to_string()
            }
            1..=49 => {
                let hit = cache.lookup(window, ctx);
                assert_eq!(
                    hit,
                    reference.lookup(window, ctx),
                    "seed {seed} op {op}: lookup {window:#x} {ctx:?}"
                );
                format!("lookup {window:#x} {ctx:?}")
            }
            _ => {
                let fused = rng.range_u64(0, max_fused + 1) as u32;
                let cacheable = rng.range_u64(0, 8) != 0;
                cache.insert(window, ctx, fused, cacheable);
                reference.insert(window, ctx, fused, cacheable);
                format!("insert {window:#x} {ctx:?} {fused} {cacheable}")
            }
        };
        assert_eq!(
            *cache.stats(),
            reference.stats,
            "seed {seed} op {op} ({what}): stats"
        );
        assert_eq!(
            cache.resident_uops(),
            reference.resident_uops(),
            "seed {seed} op {op} ({what}): resident µops"
        );
    }
    // The model and the reference saw real traffic of every kind.
    let s = reference.stats;
    assert!(
        s.hits > 0 && s.context_conflicts > 0 && s.inserts > 0 && s.rejected > 0,
        "{s:?}"
    );
}

#[test]
fn flat_uop_cache_matches_the_per_set_reference() {
    for geometry in GEOMETRIES {
        for seed in 0..SEEDS {
            run(seed * 0x9E37_79B9 + geometry.1 as u64, geometry);
        }
    }
}
