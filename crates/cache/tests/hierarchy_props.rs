//! Property-based tests for cache and hierarchy invariants, driven by the
//! workspace's deterministic PRNG (`csd-telemetry`) instead of an external
//! framework: each property runs against a few hundred seeded random
//! cases, and a failing case's number identifies its seed.

use csd_cache::{AccessKind, Cache, CacheConfig, Hierarchy, HierarchyConfig, HitLevel};
use csd_telemetry::SplitMix64;

const CASES: u64 = 64;

fn small_cache() -> Cache {
    Cache::new(CacheConfig {
        size_bytes: 2048,
        ways: 4,
        line_bytes: 64,
        latency: 1,
    })
}

fn addr_vec(rng: &mut SplitMix64, max: u64, lo: usize, hi: usize) -> Vec<u64> {
    let n = rng.range_usize(lo, hi);
    (0..n).map(|_| rng.range_u64(0, max)).collect()
}

/// A fill makes the line present; presence implies the next access to
/// any byte of the line hits.
#[test]
fn fill_then_hit() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xF111 + case);
        let addrs = addr_vec(&mut rng, 1 << 16, 1, 200);
        let mut c = small_cache();
        for &a in &addrs {
            if !c.access(a, false) {
                c.fill(a, false);
            }
            assert!(c.contains(a), "case {case}: {a:#x} absent after fill");
            let same_line = (a & !0x3F) | (rng.range_u64(0, 64) & 0x3F);
            assert!(
                c.access(same_line, false),
                "case {case}: same line must hit"
            );
        }
    }
}

/// A set never holds more lines than its associativity.
#[test]
fn associativity_is_respected() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xA550 + case);
        let addrs = addr_vec(&mut rng, 1 << 16, 1, 300);
        let mut c = small_cache();
        for &a in &addrs {
            c.fill(a, false);
            assert!(
                c.lines_in_set(a).len() <= 4,
                "case {case}: set overflow at {a:#x}"
            );
        }
    }
}

/// Flushing a line removes exactly that line.
#[test]
fn flush_is_precise() {
    for case in 0..CASES * 4 {
        let mut rng = SplitMix64::new(0xF105 ^ case);
        let a = rng.range_u64(0, 1 << 16);
        let b = rng.range_u64(0, 1 << 16);
        let mut c = small_cache();
        c.fill(a, false);
        c.fill(b, false);
        c.flush_line(a);
        assert!(!c.contains(a), "case {case}");
        let same_line = (a & !0x3F) == (b & !0x3F);
        if !same_line {
            assert!(c.contains(b), "case {case}: flush of {a:#x} evicted {b:#x}");
        }
    }
}

/// Hierarchy latencies are strictly ordered by hit level, and a repeated
/// access never hits *further away* than the first.
#[test]
fn latency_monotonicity() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x1A7 + case);
        let addrs = addr_vec(&mut rng, 1 << 20, 1, 100);
        let mut h = Hierarchy::new(HierarchyConfig::default());
        for &a in &addrs {
            let first = h.access(a, AccessKind::DataRead);
            let second = h.access(a, AccessKind::DataRead);
            assert_eq!(
                second.level,
                HitLevel::L1,
                "case {case}: fill must promote to L1"
            );
            assert!(second.latency <= first.latency, "case {case}");
        }
    }
}

/// `clflush` purges every level, for any prior access pattern.
#[test]
fn flush_purges_everywhere() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xF75 + case);
        let warm = addr_vec(&mut rng, 1 << 16, 0, 50);
        let victim = rng.range_u64(0, 1 << 16);
        let mut h = Hierarchy::new(HierarchyConfig::default());
        for &a in &warm {
            h.access(a, AccessKind::DataRead);
        }
        h.access(victim, AccessKind::DataRead);
        h.flush(victim);
        assert!(!h.present_anywhere(victim), "case {case}");
        let r = h.access(victim, AccessKind::DataRead);
        assert_eq!(r.level, HitLevel::Memory, "case {case}");
    }
}

/// Stats conservation: `hits + misses == accesses` at every level, for
/// arbitrary read/write mixes.
#[test]
fn stats_conserve() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x57A7 + case);
        let addrs = addr_vec(&mut rng, 1 << 18, 1, 200);
        let mut h = Hierarchy::new(HierarchyConfig::default());
        for &a in &addrs {
            let kind = if a % 3 == 0 {
                AccessKind::DataWrite
            } else {
                AccessKind::DataRead
            };
            h.access(a, kind);
        }
        let s = h.stats();
        for lvl in [s.l1i, s.l1d, s.l2, s.llc] {
            assert_eq!(lvl.hits + lvl.misses, lvl.accesses, "case {case}");
        }
    }
}
