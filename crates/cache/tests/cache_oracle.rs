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
//!
//! A second, miss-heavy sequence drives a small three-level
//! [`Hierarchy`] against four reference caches composed the same way
//! (access each level in turn, fill every level that missed, and on an
//! LLC eviction back-invalidate the upper levels). Most accesses miss,
//! so this covers the fills the hierarchy makes right after a miss:
//! hit levels and latencies, LRU order, evictions, back-invalidation and
//! every level's counters must agree after every operation.

use csd_cache::{AccessKind, Cache, CacheConfig, CacheStats, Hierarchy, HierarchyConfig, HitLevel};
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

/// The reference hierarchy: one [`Reference`] per level.
struct RefHierarchy {
    l1i: Reference,
    l1d: Reference,
    l2: Reference,
    llc: Reference,
    memory_accesses: u64,
}

/// Hit latencies of the hierarchy under test, by level.
const LATENCY: [u64; 4] = [1, 3, 10, 50];

fn level(sets: u64, ways: usize, latency: u64) -> CacheConfig {
    CacheConfig {
        size_bytes: (sets * LINE) as usize * ways,
        ways,
        line_bytes: LINE as usize,
        latency,
    }
}

impl RefHierarchy {
    /// The access, and the LLC line it evicted, if any.
    fn access(&mut self, addr: u64, kind: AccessKind) -> ((u64, HitLevel), Option<u64>) {
        let write = kind == AccessKind::DataWrite;
        let inst = kind == AccessKind::InstFetch;
        let l1 = if inst { &mut self.l1i } else { &mut self.l1d };
        let mut latency = LATENCY[0];
        if l1.access(addr, write) {
            return ((latency, HitLevel::L1), None);
        }
        let mut evicted = None;
        latency += LATENCY[1];
        let level = if self.l2.access(addr, write) {
            HitLevel::L2
        } else {
            latency += LATENCY[2];
            if self.llc.access(addr, write) {
                self.l2.fill(addr, write);
                HitLevel::Llc
            } else {
                latency += LATENCY[3];
                self.memory_accesses += 1;
                evicted = self.llc.fill(addr, write);
                if let Some(line) = evicted {
                    for upper in [&mut self.l1i, &mut self.l1d, &mut self.l2] {
                        upper.flush_line(line);
                    }
                }
                self.l2.fill(addr, write);
                HitLevel::Memory
            }
        };
        let l1 = if inst { &mut self.l1i } else { &mut self.l1d };
        l1.fill(addr, write && !inst);
        ((latency, level), evicted)
    }

    fn flush(&mut self, addr: u64) {
        for level in [&mut self.l1i, &mut self.l1d, &mut self.l2, &mut self.llc] {
            level.flush_line(addr);
        }
    }
}

/// Every level's `(line, dirty)` contents of `addr`'s set, and its stats.
fn hierarchy_view(h: &Hierarchy, addr: u64) -> Vec<(Vec<(u64, bool)>, CacheStats)> {
    [h.l1i(), h.l1d(), h.l2(), h.llc()]
        .into_iter()
        .map(|c| (contents(c, addr), *c.stats()))
        .collect()
}

fn reference_view(r: &RefHierarchy, addr: u64) -> Vec<(Vec<(u64, bool)>, CacheStats)> {
    [&r.l1i, &r.l1d, &r.l2, &r.llc]
        .into_iter()
        .map(|c| (c.contents(addr), c.stats))
        .collect()
}

fn run_hierarchy(seed: u64) {
    // L1s: 2 sets x 2 ways; L2: 4 x 4; LLC: 8 x 4, inclusive. Addresses
    // come from 4x the LLC's capacity, so most accesses miss everywhere
    // and LLC evictions (with back-invalidation) are frequent.
    let cfg = HierarchyConfig {
        l1i: level(2, 2, LATENCY[0]),
        l1d: level(2, 2, LATENCY[0]),
        l2: level(4, 4, LATENCY[1]),
        llc: level(8, 4, LATENCY[2]),
        memory_latency: LATENCY[3],
        inclusive_llc: true,
    };
    let mut h = Hierarchy::new(cfg);
    let mut r = RefHierarchy {
        l1i: Reference::new(2, 2),
        l1d: Reference::new(2, 2),
        l2: Reference::new(4, 4),
        llc: Reference::new(8, 4),
        memory_accesses: 0,
    };
    let lines = 4 * 8 * 4;
    let mut rng = SplitMix64::new(seed ^ 0x4849_4552);
    let mut misses = 0;
    for op in 0..OPS {
        let a = rng.range_u64(0, lines) * LINE + rng.range_u64(0, LINE);
        let kind = rng.range_u64(0, 20);
        let ctx = format!("seed {seed} op {op} kind {kind} addr {a:#x}");
        let mut checked = vec![a];
        if kind == 0 {
            h.flush(a);
            r.flush(a);
        } else {
            let kind = [
                AccessKind::InstFetch,
                AccessKind::DataRead,
                AccessKind::DataWrite,
            ][(kind % 3) as usize];
            let got = h.access(a, kind);
            let (want, evicted) = r.access(a, kind);
            assert_eq!((got.latency, got.level), want, "{ctx}");
            misses += u64::from(got.level == HitLevel::Memory);
            checked.extend(evicted);
        }
        for addr in checked {
            assert_eq!(
                hierarchy_view(&h, addr),
                reference_view(&r, addr),
                "levels at {addr:#x}: {ctx}"
            );
        }
        assert_eq!(h.stats().memory_accesses, r.memory_accesses, "{ctx}");
    }
    assert!(misses > OPS as u64 / 2, "seed {seed}: only {misses} misses");
}

#[test]
fn hierarchy_fills_match_reference_caches_under_misses() {
    for seed in 0..SEEDS {
        run_hierarchy(seed);
    }
}

/// Repeated fetches of one code line, collapsed as the pipeline's block
/// path collapses them ([`Hierarchy::refetch`] while the L1I still holds
/// the line, a full [`Hierarchy::fetch`] otherwise), against the
/// reference replaying every fetch. Data accesses between the fetches
/// miss often enough that LLC evictions back-invalidate the code line,
/// and the line itself is flushed now and then. Outside the pending
/// count every level's contents and counters must agree after every
/// operation (the L1I's counters only once the count is charged), and a
/// final sweep that fills every L1I set twice over must evict lines in
/// the same LRU order.
fn run_refetch(seed: u64) {
    let cfg = HierarchyConfig {
        l1i: level(2, 2, LATENCY[0]),
        l1d: level(2, 2, LATENCY[0]),
        l2: level(4, 4, LATENCY[1]),
        llc: level(8, 4, LATENCY[2]),
        memory_latency: LATENCY[3],
        inclusive_llc: true,
    };
    let mut h = Hierarchy::new(cfg);
    let mut r = RefHierarchy {
        l1i: Reference::new(2, 2),
        l1d: Reference::new(2, 2),
        l2: Reference::new(4, 4),
        llc: Reference::new(8, 4),
        memory_accesses: 0,
    };
    let lines = 4 * 8 * 4;
    let mut rng = SplitMix64::new(seed ^ 0x5245_4649);
    let code = |rng: &mut SplitMix64| rng.range_u64(0, 8) * 8 * LINE;
    let mut line = code(&mut rng);
    let mut slot = None;
    let mut pending = 0u64;
    let (mut collapsed, mut invalidated) = (0u64, 0u64);
    for op in 0..OPS {
        let kind = rng.range_u64(0, 100);
        let ctx = format!("seed {seed} op {op} kind {kind} line {line:#x}");
        let mut checked = vec![line];
        match kind {
            0..=54 => {
                let (want, evicted) = r.access(line, AccessKind::InstFetch);
                checked.extend(evicted);
                match slot.filter(|&s| h.l1i_holds(s)) {
                    Some(_) => {
                        pending += 1;
                        collapsed += 1;
                    }
                    None => {
                        if let Some(s) = slot.filter(|_| pending > 0) {
                            h.refetch(s, pending);
                            invalidated += 1;
                        }
                        pending = 0;
                        let (s, got) = h.fetch(line);
                        assert_eq!((got.latency, got.level), want, "{ctx}");
                        slot = Some(s);
                    }
                }
            }
            55..=64 => {
                if let Some(s) = slot.filter(|_| pending > 0) {
                    h.refetch(s, pending);
                }
                pending = 0;
                slot = None;
                line = code(&mut rng);
                checked.push(line);
            }
            65..=94 => {
                let a = rng.range_u64(0, lines) * LINE;
                let kind = [AccessKind::DataRead, AccessKind::DataWrite][(kind % 2) as usize];
                let got = h.access(a, kind);
                let (want, evicted) = r.access(a, kind);
                assert_eq!((got.latency, got.level), want, "{ctx}");
                checked.push(a);
                checked.extend(evicted);
            }
            _ => {
                h.flush(line);
                r.flush(line);
            }
        }
        for addr in checked {
            let (mut got, want) = (hierarchy_view(&h, addr), reference_view(&r, addr));
            if pending > 0 {
                // The L1I's counters lag by the pending fetches.
                got[0].1 = want[0].1;
            }
            assert_eq!(got, want, "levels at {addr:#x}: {ctx}");
        }
        assert_eq!(h.stats().memory_accesses, r.memory_accesses, "{ctx}");
    }
    if let Some(s) = slot.filter(|_| pending > 0) {
        h.refetch(s, pending);
    }
    assert_eq!(
        hierarchy_view(&h, line),
        reference_view(&r, line),
        "seed {seed}: charged"
    );
    // Sweep fresh lines through every L1I set: each fill evicts the
    // least recently fetched line, so the order of the survivors shows.
    for k in 0..8 {
        let a = (lines + k) * LINE;
        h.access(a, AccessKind::InstFetch);
        r.access(a, AccessKind::InstFetch);
        for set in 0..2 {
            assert_eq!(
                contents(h.l1i(), set * LINE),
                r.l1i.contents(set * LINE),
                "seed {seed}: sweep {k} set {set}"
            );
        }
    }
    assert!(
        collapsed > OPS as u64 / 4,
        "seed {seed}: {collapsed} collapsed fetches"
    );
    assert!(
        invalidated > 0,
        "seed {seed}: the line never left the L1I mid-count"
    );
}

#[test]
fn collapsed_line_refetches_match_per_access_replay() {
    for seed in 0..SEEDS {
        run_refetch(seed);
    }
}
