//! Differential test of [`Cache`] against a naive LRU reference.
//!
//! The reference keeps, per set, a recency-ordered list of `(tag, dirty)`
//! (least recent first) and replays the cache's documented behaviour
//! directly: a hit moves the line to the back, a fill appends and evicts
//! the front when the set is full, a fill of a present line only merges
//! its dirty bit, and flushes remove lines. Seeded `SplitMix64` op
//! sequences drive both at 1, 2, 4, 8 and 16 ways; every hit/miss, every
//! evicted address, the sorted contents and dirtiness of the touched set,
//! and the counters must agree after every operation.

use csd_cache::{Cache, CacheConfig, CacheStats};
use csd_telemetry::SplitMix64;

const LINE: u64 = 64;
const SETS: u64 = 4;
const SEEDS: u64 = 16;
const OPS: usize = 3000;

struct Reference {
    ways: usize,
    sets: Vec<Vec<(u64, bool)>>,
    stats: CacheStats,
}

impl Reference {
    fn new(ways: usize) -> Reference {
        Reference {
            ways,
            sets: vec![Vec::new(); SETS as usize],
            stats: CacheStats::default(),
        }
    }

    fn split(addr: u64) -> (usize, u64) {
        (((addr / LINE) % SETS) as usize, addr / LINE / SETS)
    }

    fn addr_of(set: usize, tag: u64) -> u64 {
        (tag * SETS + set as u64) * LINE
    }

    fn position(&self, addr: u64) -> Option<(usize, usize)> {
        let (set, tag) = Reference::split(addr);
        self.sets[set]
            .iter()
            .position(|&(t, _)| t == tag)
            .map(|i| (set, i))
    }

    fn access(&mut self, addr: u64, write: bool) -> bool {
        self.stats.accesses += 1;
        match self.position(addr) {
            Some((set, i)) => {
                self.stats.hits += 1;
                let (tag, dirty) = self.sets[set].remove(i);
                self.sets[set].push((tag, dirty || write));
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    fn fill(&mut self, addr: u64, write: bool) -> Option<u64> {
        if let Some((set, i)) = self.position(addr) {
            self.sets[set][i].1 |= write;
            return None;
        }
        let (set, tag) = Reference::split(addr);
        let lines = &mut self.sets[set];
        let evicted = (lines.len() == self.ways).then(|| {
            self.stats.evictions += 1;
            Reference::addr_of(set, lines.remove(0).0)
        });
        lines.push((tag, write));
        evicted
    }

    fn flush_line(&mut self, addr: u64) -> bool {
        match self.position(addr) {
            Some((set, i)) => {
                self.sets[set].remove(i);
                self.stats.flushes += 1;
                true
            }
            None => false,
        }
    }

    fn flush_all(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }

    /// `(line address, dirty)` of every line in `addr`'s set, sorted.
    fn contents(&self, addr: u64) -> Vec<(u64, bool)> {
        let set = Reference::split(addr).0;
        let mut v: Vec<_> = self.sets[set]
            .iter()
            .map(|&(tag, dirty)| (Reference::addr_of(set, tag), dirty))
            .collect();
        v.sort_unstable();
        v
    }
}

fn contents(c: &Cache, addr: u64) -> Vec<(u64, bool)> {
    let mut v: Vec<_> = c
        .lines_in_set(addr)
        .into_iter()
        .map(|a| (a, c.is_dirty(a)))
        .collect();
    v.sort_unstable();
    v
}

/// An address from a pool of `2 * ways + 1` lines per set, placed in one
/// of three regions so high tag bits (up to the top of the address space)
/// are exercised too.
fn addr(rng: &mut SplitMix64, ways: usize) -> u64 {
    let span = SETS * (2 * ways as u64 + 1) * LINE;
    let region = [0, 0x7FFF_0000_0000, 0u64.wrapping_sub(span)][rng.range_usize(0, 3)];
    region.wrapping_add(rng.range_u64(0, span))
}

fn run(ways: usize, seed: u64) {
    let mut c = Cache::new(CacheConfig {
        size_bytes: (SETS * LINE) as usize * ways,
        ways,
        line_bytes: LINE as usize,
        latency: 1,
    });
    let mut r = Reference::new(ways);
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9) ^ ways as u64);
    for op in 0..OPS {
        let a = addr(&mut rng, ways);
        let write = rng.range_u64(0, 2) == 1;
        let ctx = format!("ways {ways} seed {seed} op {op} addr {a:#x} write {write}");
        match rng.range_u64(0, 200) {
            0 => {
                c.flush_all();
                r.flush_all();
            }
            1..=100 => assert_eq!(c.access(a, write), r.access(a, write), "access: {ctx}"),
            101..=170 => assert_eq!(c.fill(a, write), r.fill(a, write), "fill: {ctx}"),
            _ => assert_eq!(c.flush_line(a), r.flush_line(a), "flush_line: {ctx}"),
        }
        assert_eq!(contents(&c, a), r.contents(a), "set contents: {ctx}");
        assert_eq!(*c.stats(), r.stats, "stats: {ctx}");
    }
    for set in 0..SETS {
        assert_eq!(
            contents(&c, set * LINE),
            r.contents(set * LINE),
            "ways {ways} seed {seed}: final set {set}"
        );
    }
}

#[test]
fn cache_matches_a_naive_lru_reference() {
    for ways in [1, 2, 4, 8, 16] {
        for seed in 0..SEEDS {
            run(ways, seed);
        }
    }
}
