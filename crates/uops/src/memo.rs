//! Context-keyed decode memoization.
//!
//! The paper's µop cache works because translation is a pure function of
//! the instruction bytes and the *decoder context* (§3, Fig. 4). The
//! simulator-level analogue: once the CSD engine has decided what context a
//! macro-op decodes under, the materialized µop flow for a given
//! `(pc, context_key, tainted)` triple is deterministic and can be shared
//! across dynamic instances instead of being rebuilt.
//!
//! The table stores [`Arc`]-shared [`Translation`]s so a hit costs one
//! reference-count bump, not a `Vec<Uop>` clone. Entries are tagged with a
//! caller-supplied context discriminant; the caller re-runs its (cheap)
//! decision phase on every decode and only accepts a hit whose tag matches
//! the freshly decided context, which keeps memoization semantically
//! transparent even when the decision logic is stateful.
//!
//! Like the hardware structure it models, the table is a direct-mapped
//! array: the probe is one multiply-mix and one slot compare, a conflict
//! simply evicts, and there is no per-entry heap traffic. The decode
//! stage probes on every dynamic instruction, so a general-purpose hash
//! map (SipHash, bucket walks on flush) is measurable suite overhead.
//!
//! The table remembers the context key its entries were built under.
//! Context keys are monotonically increasing generations, so a probe
//! under a different key means the decoder configuration changed and
//! every cached flow is stale; the flush this implies is O(1) — slots
//! carry an epoch stamp and stale epochs read as vacant — rather than a
//! walk over the array.

use crate::Translation;
use std::sync::Arc;

/// Number of direct-mapped slots. Covers a sizeable working set of hot
/// program counters (loop bodies are far smaller) while keeping the
/// whole array cache-friendly; must be a power of two.
const SLOTS: usize = 4096;

/// SplitMix64-style finalizer used to spread program counters (typically
/// small, 4-byte-stride values) across the slot array.
#[inline]
fn slot_index(pc: u64, tainted: bool) -> usize {
    let mut x = (pc ^ (u64::from(tainted) << 63)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x >> 32) as usize & (SLOTS - 1)
}

/// A decoded µop flow: owned when freshly materialized, shared when it
/// came out of (or was just inserted into) the memo table.
///
/// `Deref`s to [`Translation`], so consumers are agnostic to the
/// difference. Keeping the owned case is not cosmetic: paths that cannot
/// be cached — the table disabled, or bypassed wholesale while a stealth
/// defense is enabled — materialize every decode, and forcing each of
/// those through an `Arc` would add a heap allocation per dynamic
/// instruction for sharing that never happens.
#[derive(Debug, Clone)]
pub enum UopFlow {
    /// Freshly materialized, exclusively owned by this outcome.
    Owned(Translation),
    /// Handed out of the memo table; shared across dynamic instances.
    Shared(Arc<Translation>),
}

impl std::ops::Deref for UopFlow {
    type Target = Translation;
    #[inline]
    fn deref(&self) -> &Translation {
        match self {
            UopFlow::Owned(t) => t,
            UopFlow::Shared(t) => t,
        }
    }
}

impl PartialEq for UopFlow {
    /// Flow equality is translation equality; whether either side happens
    /// to be shared is an implementation detail.
    fn eq(&self, other: &UopFlow) -> bool {
        **self == **other
    }
}

/// Counters for the decode-memoization table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups that returned a usable entry.
    pub hits: u64,
    /// Lookups that found nothing (or a stale-tagged entry).
    pub misses: u64,
    /// Decodes that skipped the table entirely (context-volatile
    /// translation: stealth enabled, where window transitions and
    /// watchdog re-arms roll the key faster than lines can be reused).
    pub bypasses: u64,
    /// Whole-table flushes caused by a context-generation change.
    pub invalidations: u64,
    /// Entries inserted.
    pub inserts: u64,
}

/// One memoized translation plus the metadata needed to replay the
/// bookkeeping a full decode would have performed.
#[derive(Debug, Clone)]
pub struct MemoEntry {
    /// The shared µop flow.
    pub translation: Arc<Translation>,
    /// Caller-defined context discriminant; a hit is only valid when this
    /// matches the context the caller just decided on.
    pub tag: u64,
    /// Total µops in the flow (cached so a hit never walks the µop vector).
    pub uops: u32,
    /// Decoy µops in the flow.
    pub decoy_uops: u32,
    /// µop count of the *native* translation this flow replaced (equal to
    /// `uops` unless the flow came from a rewriting decoder such as the
    /// devectorizer, which needs the delta for its expansion statistics).
    pub native_uops: u32,
}

/// One direct-mapped slot: the entry plus the probe tags that decide
/// whether it is visible (`epoch`) and a match (`pc`, `tainted`).
#[derive(Debug, Clone)]
struct Way {
    pc: u64,
    tainted: bool,
    epoch: u64,
    entry: MemoEntry,
}

/// A decode-memoization table keyed by `(pc, context_key, tainted)`.
///
/// The `context_key` component is implicit: the table holds entries for
/// exactly one key at a time and self-flushes when the key moves on,
/// which both bounds memory and makes invalidation O(1) per
/// configuration change instead of O(1) per lookup forever after. The
/// flush itself is logical — bumping an internal epoch makes every live
/// slot read as vacant — so [`DecodeMemo::reset`] (per-operation victim
/// restarts) and key rolls cost a few stores regardless of occupancy.
///
/// The slot array is allocated by the first [`DecodeMemo::probe`], not by
/// [`DecodeMemo::new`]: a core that never decodes through the table (a
/// stealth-mode core bypasses it, a short-lived core may halt first) does
/// not pay for it, and neither do clones of such a core.
#[derive(Debug, Clone, Default)]
pub struct DecodeMemo {
    key: u64,
    epoch: u64,
    live: usize,
    ways: Box<[Option<Way>]>,
    stats: MemoStats,
}

impl DecodeMemo {
    /// An empty table at context key 0. Allocates nothing.
    pub fn new() -> DecodeMemo {
        DecodeMemo::default()
    }

    /// Probes the slot for `pc` under `key`. A key change flushes the
    /// table first (counting an invalidation). Counting of the probe
    /// itself is deferred to the returned [`MemoSlot`], which the caller
    /// must consume as a hit, a fill, or a skip — the point of the handle
    /// is that a miss can materialize its translation and then cache it
    /// without locating the slot a second time.
    #[inline]
    pub fn probe(&mut self, pc: u64, key: u64, tainted: bool) -> MemoSlot<'_> {
        if self.ways.is_empty() {
            self.allocate();
        }
        self.roll_key(key);
        MemoSlot {
            idx: slot_index(pc, tainted),
            pc,
            tainted,
            memo: self,
        }
    }

    #[cold]
    fn allocate(&mut self) {
        self.ways = vec![None; SLOTS].into_boxed_slice();
    }

    /// Counts a decode that deliberately skipped the table.
    #[inline]
    pub fn note_bypass(&mut self) {
        self.stats.bypasses += 1;
    }

    #[inline]
    fn roll_key(&mut self, key: u64) {
        if key != self.key {
            self.key = key;
            if self.live > 0 {
                self.stats.invalidations += 1;
            }
            self.flush();
        }
    }

    /// Logically empties the table: stale epochs read as vacant.
    fn flush(&mut self) {
        self.epoch += 1;
        self.live = 0;
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Table counters.
    pub fn stats(&self) -> &MemoStats {
        &self.stats
    }

    /// Drops all entries (counters survive). Used on checkpoint restore,
    /// where the restored context generation may repeat values the table
    /// already saw under different machine state.
    pub fn clear_entries(&mut self) {
        self.key = 0;
        self.flush();
    }

    /// Resets the table's architectural state — counters and context key —
    /// as if freshly constructed, but keeps the cached lines warm.
    ///
    /// Keeping them is sound: every visible entry was materialized under
    /// the *current* decoder configuration (the epoch stamp flushes on any
    /// context-key roll, and [`DecodeMemo::clear_entries`] covers state
    /// rewinds), and a hit is still tag-checked against the freshly
    /// decided context on every probe. This is what makes per-operation
    /// victim restarts cheap: the second and later runs of a straight-line
    /// crypto kernel hit lines the first run filled, exactly like a
    /// hardware µop cache staying warm across repeated calls.
    pub fn reset(&mut self) {
        self.key = 0;
        self.stats = MemoStats::default();
    }
}

/// A probed table slot: the one-lookup handle for the decode stage's
/// probe → materialize → insert sequence.
///
/// Obtained from [`DecodeMemo::probe`]; the caller inspects the occupant
/// with [`MemoSlot::get`] and then consumes the slot with exactly one of
/// [`MemoSlot::hit`] (usable cached flow), [`MemoSlot::fill`] (miss,
/// cache the freshly materialized flow), or [`MemoSlot::skip`] (miss
/// whose result is not cacheable) so the table's counters stay truthful.
pub struct MemoSlot<'a> {
    idx: usize,
    pc: u64,
    tainted: bool,
    memo: &'a mut DecodeMemo,
}

impl MemoSlot<'_> {
    /// The entry occupying this slot, if any. Occupancy alone is not a
    /// hit: the caller must still match the entry's tag against the
    /// context it just decided on.
    #[inline]
    pub fn get(&self) -> Option<&MemoEntry> {
        match &self.memo.ways[self.idx] {
            Some(w)
                if w.epoch == self.memo.epoch && w.pc == self.pc && w.tainted == self.tainted =>
            {
                Some(&w.entry)
            }
            _ => None,
        }
    }

    /// Consumes the slot as a usable hit.
    #[inline]
    pub fn hit(self) {
        self.memo.stats.hits += 1;
    }

    /// Consumes the slot as a miss and caches `entry` in it, replacing a
    /// tag-stale or conflicting occupant if there was one.
    #[inline]
    pub fn fill(self, entry: MemoEntry) {
        let m = self.memo;
        m.stats.misses += 1;
        m.stats.inserts += 1;
        let way = &mut m.ways[self.idx];
        if !matches!(way, Some(w) if w.epoch == m.epoch) {
            m.live += 1;
        }
        *way = Some(Way {
            pc: self.pc,
            tainted: self.tainted,
            epoch: m.epoch,
            entry,
        });
    }

    /// Consumes the slot as a miss without caching anything (the decode
    /// turned out to produce a non-deterministic flow, e.g. a stealth
    /// window injected decoys after the probe).
    #[inline]
    pub fn skip(self) {
        self.memo.stats.misses += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate;
    use mx86_isa::{Gpr, Inst};

    fn entry(tag: u64) -> MemoEntry {
        let t = translate(
            &Inst::MovRI {
                dst: Gpr::Rax,
                imm: 1,
            },
            4,
        );
        let n = t.uops.len() as u32;
        MemoEntry {
            translation: Arc::new(t),
            tag,
            uops: n,
            decoy_uops: 0,
            native_uops: n,
        }
    }

    /// Probe-and-insert, as the decode stage does on a miss.
    fn fill(m: &mut DecodeMemo, pc: u64, key: u64, tainted: bool, e: MemoEntry) {
        m.probe(pc, key, tainted).fill(e);
    }

    /// Probe-as-lookup: consume the slot and report whether it held a
    /// usable entry's tag.
    fn lookup(m: &mut DecodeMemo, pc: u64, key: u64, tainted: bool) -> Option<u64> {
        let slot = m.probe(pc, key, tainted);
        match slot.get().map(|e| e.tag) {
            Some(tag) => {
                slot.hit();
                Some(tag)
            }
            None => {
                slot.skip();
                None
            }
        }
    }

    #[test]
    fn hit_after_fill_same_key() {
        let mut m = DecodeMemo::new();
        fill(&mut m, 0x100, 1, false, entry(7));
        assert_eq!(lookup(&mut m, 0x100, 1, false), Some(7));
        assert_eq!(m.stats().hits, 1);
        assert_eq!(m.stats().misses, 1);
        assert_eq!(m.stats().inserts, 1);
    }

    #[test]
    fn taint_is_part_of_the_key() {
        let mut m = DecodeMemo::new();
        fill(&mut m, 0x100, 1, false, entry(0));
        assert!(lookup(&mut m, 0x100, 1, true).is_none());
        assert!(lookup(&mut m, 0x100, 1, false).is_some());
    }

    #[test]
    fn key_change_flushes() {
        let mut m = DecodeMemo::new();
        fill(&mut m, 0x100, 1, false, entry(0));
        assert!(lookup(&mut m, 0x100, 2, false).is_none());
        assert_eq!(m.stats().invalidations, 1);
        assert_eq!(m.len(), 0);
        // Going back to an old key must not resurrect entries.
        assert!(lookup(&mut m, 0x100, 1, false).is_none());
    }

    #[test]
    fn fill_replaces_a_stale_occupant() {
        let mut m = DecodeMemo::new();
        fill(&mut m, 0x100, 1, false, entry(7));
        // Tag mismatch path: the occupant is unusable, so the decode
        // materializes and fills the same slot with the fresh flow.
        fill(&mut m, 0x100, 1, false, entry(9));
        assert_eq!(m.len(), 1);
        assert_eq!(lookup(&mut m, 0x100, 1, false), Some(9));
        assert_eq!(m.stats().misses, 2);
        assert_eq!(m.stats().inserts, 2);
    }

    #[test]
    fn conflicting_pc_evicts_without_growing() {
        let mut m = DecodeMemo::new();
        // Two pcs that map to the same direct-mapped slot: scan for a
        // colliding partner rather than hard-coding the hash layout.
        let base = 0x1000u64;
        let partner = (1..1_000_000u64)
            .map(|i| base + 4 * i)
            .find(|&pc| slot_index(pc, false) == slot_index(base, false))
            .expect("some pc collides within a million probes");
        fill(&mut m, base, 1, false, entry(1));
        fill(&mut m, partner, 1, false, entry(2));
        assert_eq!(m.len(), 1, "conflict evicts, never chains");
        assert!(lookup(&mut m, base, 1, false).is_none());
        assert_eq!(lookup(&mut m, partner, 1, false), Some(2));
    }

    #[test]
    fn skip_counts_a_miss_without_inserting() {
        let mut m = DecodeMemo::new();
        m.probe(0x100, 1, false).skip();
        assert!(m.is_empty());
        assert_eq!(m.stats().misses, 1);
        assert_eq!(m.stats().inserts, 0);
    }

    #[test]
    fn reset_restores_default_counters_but_keeps_lines_warm() {
        let mut m = DecodeMemo::new();
        fill(&mut m, 0x100, 0, false, entry(4));
        m.note_bypass();
        m.reset();
        assert_eq!(*m.stats(), MemoStats::default());
        // The decoder configuration did not change, so the line is still
        // valid and the first post-reset probe hits it.
        assert_eq!(lookup(&mut m, 0x100, 0, false), Some(4));
        // ... but any context-key roll after the reset flushes as usual.
        assert!(lookup(&mut m, 0x100, 1, false).is_none());
        assert_eq!(m.stats().invalidations, 1);
    }

    #[test]
    fn clear_entries_hides_lines_but_keeps_counters() {
        let mut m = DecodeMemo::new();
        fill(&mut m, 0x100, 3, false, entry(0));
        m.note_bypass();
        m.clear_entries();
        assert!(m.is_empty());
        assert_eq!(m.stats().bypasses, 1);
        // A rewound machine may repeat context keys under different state:
        // nothing from before the clear may resurface, same key or not.
        assert!(lookup(&mut m, 0x100, 3, false).is_none());
    }

    #[test]
    fn a_never_probed_table_is_empty_and_unallocated() {
        let m = DecodeMemo::new();
        assert_eq!(m.len(), 0);
        assert!(m.is_empty());
        assert!(m.ways.is_empty(), "new() must not allocate the slot array");
        assert_eq!(*m.stats(), MemoStats::default());
    }

    #[test]
    fn reset_and_clear_entries_on_a_never_probed_table_are_harmless() {
        let mut m = DecodeMemo::new();
        m.reset();
        m.clear_entries();
        m.reset();
        assert_eq!(m.len(), 0);
        assert_eq!(*m.stats(), MemoStats::default());
        assert!(m.ways.is_empty(), "housekeeping must not allocate");
        // The table still works afterwards.
        fill(&mut m, 0x100, 0, false, entry(5));
        assert_eq!(lookup(&mut m, 0x100, 0, false), Some(5));
    }

    #[test]
    fn first_probe_misses_then_fills_and_the_second_hits() {
        let mut m = DecodeMemo::new();
        let slot = m.probe(0x40, 2, true);
        assert!(slot.get().is_none(), "a fresh table has no occupant");
        slot.fill(entry(11));
        assert_eq!(m.ways.len(), SLOTS, "the first probe allocates");
        assert_eq!(m.len(), 1);
        assert_eq!(m.stats().misses, 1);
        assert_eq!(m.stats().inserts, 1);
        assert_eq!(
            m.stats().invalidations,
            0,
            "an empty table never invalidates"
        );
        assert_eq!(lookup(&mut m, 0x40, 2, true), Some(11));
        assert_eq!(m.stats().hits, 1);
    }
}
