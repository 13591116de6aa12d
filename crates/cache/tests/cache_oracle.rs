//! Differential test of [`Cache`] against a naive LRU reference.
//!
//! The reference keeps, per set, a recency-ordered list of `(tag, dirty)`
//! (least recent first) and replays the cache's documented behaviour
//! directly: a hit moves the line to the back, a fill appends and evicts
//! the front when the set is full, a fill of a present line only merges
//! its dirty bit, and flushes remove lines. Seeded `SplitMix64` op
//! sequences of `access`, `fill`, `flush_line`, `flush_all`, `contains`
//! and `is_dirty` drive both at 1, 4 and 16 sets and 1, 2, 4, 8 and 16
//! ways; every hit/miss, every evicted address, every probe, the sorted
//! contents (`lines_in_set`) and dirtiness of the touched set, and the
//! counters must agree after every operation. Halfway through, a clone
//! and a `clone_from` into a differently filled cache join the run and
//! must answer every later operation exactly as the original does.

use csd_cache::{Cache, CacheConfig, CacheStats};
use csd_telemetry::SplitMix64;

const LINE: u64 = 64;
const SEEDS: u64 = 16;
const OPS: usize = 3000;

struct Reference {
    ways: usize,
    sets: Vec<Vec<(u64, bool)>>,
    stats: CacheStats,
}

impl Reference {
    fn new(sets: usize, ways: usize) -> Reference {
        Reference {
            ways,
            sets: vec![Vec::new(); sets],
            stats: CacheStats::default(),
        }
    }

    fn split(&self, addr: u64) -> (usize, u64) {
        let sets = self.sets.len() as u64;
        (((addr / LINE) % sets) as usize, addr / LINE / sets)
    }

    fn addr_of(&self, set: usize, tag: u64) -> u64 {
        (tag * self.sets.len() as u64 + set as u64) * LINE
    }

    fn position(&self, addr: u64) -> Option<(usize, usize)> {
        let (set, tag) = self.split(addr);
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
        let (set, tag) = self.split(addr);
        let evicted = (self.sets[set].len() == self.ways).then(|| {
            self.stats.evictions += 1;
            let (tag, _) = self.sets[set].remove(0);
            self.addr_of(set, tag)
        });
        self.sets[set].push((tag, write));
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

    fn is_dirty(&self, addr: u64) -> bool {
        self.position(addr)
            .is_some_and(|(set, i)| self.sets[set][i].1)
    }

    /// `(line address, dirty)` of every line in `addr`'s set, sorted.
    fn contents(&self, addr: u64) -> Vec<(u64, bool)> {
        let set = self.split(addr).0;
        let mut v: Vec<_> = self.sets[set]
            .iter()
            .map(|&(tag, dirty)| (self.addr_of(set, tag), dirty))
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
fn addr(rng: &mut SplitMix64, sets: u64, ways: usize) -> u64 {
    let span = sets * (2 * ways as u64 + 1) * LINE;
    let region = [0, 0x7FFF_0000_0000, 0u64.wrapping_sub(span)][rng.range_usize(0, 3)];
    region.wrapping_add(rng.range_u64(0, span))
}

/// One operation's observable result.
#[derive(Debug, PartialEq)]
enum Outcome {
    Flushed,
    Hit(bool),
    Evicted(Option<u64>),
    Present(bool),
}

fn apply_cache(c: &mut Cache, kind: u64, a: u64, write: bool) -> Outcome {
    match kind {
        0 => {
            c.flush_all();
            Outcome::Flushed
        }
        1..=90 => Outcome::Hit(c.access(a, write)),
        91..=160 => Outcome::Evicted(c.fill(a, write)),
        161..=175 => Outcome::Present(c.flush_line(a)),
        176..=187 => Outcome::Present(c.contains(a)),
        _ => Outcome::Present(c.is_dirty(a)),
    }
}

fn apply_reference(r: &mut Reference, kind: u64, a: u64, write: bool) -> Outcome {
    match kind {
        0 => {
            r.flush_all();
            Outcome::Flushed
        }
        1..=90 => Outcome::Hit(r.access(a, write)),
        91..=160 => Outcome::Evicted(r.fill(a, write)),
        161..=175 => Outcome::Present(r.flush_line(a)),
        176..=187 => Outcome::Present(r.position(a).is_some()),
        _ => Outcome::Present(r.is_dirty(a)),
    }
}

fn run(sets: u64, ways: usize, seed: u64) {
    let cfg = CacheConfig {
        size_bytes: (sets * LINE) as usize * ways,
        ways,
        line_bytes: LINE as usize,
        latency: 1,
    };
    let mut c = Cache::new(cfg);
    let mut r = Reference::new(sets as usize, ways);
    // The clone and the `clone_from` target, from the halfway point on.
    let mut twins: Vec<Cache> = Vec::new();
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9) ^ (sets << 8) ^ ways as u64);
    for op in 0..OPS {
        if op == OPS / 2 {
            let mut reused = Cache::new(cfg);
            for k in 0..sets * ways as u64 + 3 {
                reused.fill(k * 3 * LINE, k % 2 == 0);
            }
            reused.clone_from(&c);
            twins = vec![c.clone(), reused];
        }
        let a = addr(&mut rng, sets, ways);
        let write = rng.range_u64(0, 2) == 1;
        let kind = rng.range_u64(0, 200);
        let ctx = format!(
            "sets {sets} ways {ways} seed {seed} op {op} kind {kind} addr {a:#x} write {write}"
        );
        let got = apply_cache(&mut c, kind, a, write);
        assert_eq!(got, apply_reference(&mut r, kind, a, write), "{ctx}");
        assert_eq!(contents(&c, a), r.contents(a), "set contents: {ctx}");
        assert_eq!(*c.stats(), r.stats, "stats: {ctx}");
        for (t, twin) in twins.iter_mut().enumerate() {
            assert_eq!(apply_cache(twin, kind, a, write), got, "twin {t}: {ctx}");
            assert_eq!(contents(twin, a), r.contents(a), "twin {t} contents: {ctx}");
            assert_eq!(twin.stats(), c.stats(), "twin {t} stats: {ctx}");
        }
    }
    for set in 0..sets {
        for cache in std::iter::once(&c).chain(&twins) {
            assert_eq!(
                contents(cache, set * LINE),
                r.contents(set * LINE),
                "sets {sets} ways {ways} seed {seed}: final set {set}"
            );
        }
    }
}

#[test]
fn cache_matches_a_naive_lru_reference() {
    for sets in [1, 4, 16] {
        for ways in [1, 2, 4, 8, 16] {
            for seed in 0..SEEDS {
                run(sets, ways, seed);
            }
        }
    }
}
