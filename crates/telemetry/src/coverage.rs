//! Structural coverage counters for coverage-guided differential fuzzing.
//!
//! A [`CoverageMap`] is a fixed shape of cheap counters over the
//! decoder-visible structure the CSD engine exercises: which µop classes
//! were emitted under which translation context, which context-to-context
//! transitions the decode stream took, why the context key advanced, the
//! VPU gate states seen, stealth decoy-window sizes, decode-memo and
//! µop-cache probe outcomes, and (filled in by the harness) divergence
//! classes. Bins are deliberately coarse — the point is a stable,
//! deterministic fingerprint a fuzzer can compare across inputs, not a
//! profile.
//!
//! The map serializes through [`ToJson`] with stable names and only the
//! nonzero bins, so two runs that exercised the same structure produce
//! byte-identical JSON, and a committed baseline can be checked with
//! [`CoverageMap::missing_from_baseline`].
//!
//! [`CoverageSink`] adapts a shared map to the [`EventSink`] hook trait;
//! attach one to a core, and every event of its runs lands in the map
//! once the sink drops.

use crate::events::{
    ContextKeyEvent, DecodeEvent, EventSink, GateEvent, MemoProbeEvent, StealthWindowEvent,
    UopCacheEvent, UopDecodeEvent,
};
use crate::json::{Json, ToJson};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Number of translation-context tags (the µop-cache context-bit space:
/// native, stealth, devectorize, five folded custom modes).
pub const COV_CONTEXTS: usize = 8;

/// Number of µop coverage classes (one per µop-kind family; the mapping
/// from concrete µops lives in `csd-uops`).
pub const COV_UOP_CLASSES: usize = 28;

/// Number of context-key bump causes a run reports.
pub const COV_KEY_CAUSES: usize = 4;

/// Number of log2 bins for stealth decoy-window sizes.
pub const COV_DECOY_BINS: usize = 8;

/// Stable names for the µop coverage classes, indexed by class id. The
/// `csd-uops` crate's `Uop::coverage_class` must stay in range; a test
/// in `csd-difftest` (which sees both crates) pins the agreement.
pub const UOP_CLASS_NAMES: [&str; COV_UOP_CLASSES] = [
    "nop", "mov", "movimm", "alu", "mul", "falu", "divq", "divr", "ld", "st", "lea", "br", "jmp",
    "jmpreg", "pushimm", "push", "pop", "valu", "vld", "vst", "vmov", "vextract", "vinsert",
    "clflush", "rdtsc", "wrmsr", "rdmsr", "halt",
];

/// Name of a translation-context tag (`ContextId::bit` value).
pub fn context_name(ctx: u8) -> &'static str {
    match ctx {
        0 => "native",
        1 => "stealth",
        2 => "devec",
        3 => "custom0",
        4 => "custom1",
        5 => "custom2",
        6 => "custom3",
        _ => "custom4",
    }
}

/// Name of a µop coverage class, or `"unknown"` when out of range.
pub fn uop_class_name(class: u8) -> &'static str {
    UOP_CLASS_NAMES
        .get(class as usize)
        .copied()
        .unwrap_or("unknown")
}

/// Context-key bump causes carried by [`ContextKeyEvent::cause`]: the
/// bumps a run makes. Set-up calls outside a run (a microcode update, a
/// custom-mode switch, a VPU-policy change, a refresh, an MSR write)
/// advance the key without reporting.
pub mod key_cause {
    /// A retiring `wrmsr`.
    pub const MSR: u8 = 0;
    /// A stealth watchdog arm/disarm transition.
    pub const STEALTH_ARM: u8 = 1;
    /// A VPU gate-state change.
    pub const GATE: u8 = 2;
    /// A stealth decoy injection (window disarm at decode).
    pub const STEALTH_INJECT: u8 = 3;

    /// Stable name of a cause code.
    pub fn name(cause: u8) -> &'static str {
        match cause {
            MSR => "msr",
            STEALTH_ARM => "stealth-arm",
            GATE => "gate",
            _ => "stealth-inject",
        }
    }
}

/// Decode-memo probe outcomes carried by
/// [`MemoProbeEvent::outcome`].
pub mod memo_probe {
    /// The flow came from the flow table.
    pub const HIT: u8 = 0;
    /// The flow was built by this decode and stored in the table.
    pub const MISS: u8 = 1;
    /// The flow was built outside the table: a stealth injection, an MCU
    /// patch, or a decode with the table disabled.
    pub const BYPASS: u8 = 2;

    /// Stable name of an outcome code.
    pub fn name(outcome: u8) -> &'static str {
        match outcome {
            HIT => "hit",
            MISS => "miss",
            _ => "bypass",
        }
    }
}

/// The structural coverage map. See the module docs for the bin shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageMap {
    /// µop class × translation context occupancy.
    uop_mode: [[u64; COV_UOP_CLASSES]; COV_CONTEXTS],
    /// Decode-stream context-transition edges (from × to, self-edges
    /// included).
    ctx_edges: [[u64; COV_CONTEXTS]; COV_CONTEXTS],
    /// Context-key bump causes.
    key_causes: [u64; COV_KEY_CAUSES],
    /// VPU gate states observed (`[ungated, gated]` transitions-to).
    gate: [u64; 2],
    /// Stealth decoy-window sizes, log2-binned.
    decoy_bins: [u64; COV_DECOY_BINS],
    /// Decode-memo probe outcomes (`[hit, miss, bypass]`).
    memo: [u64; 3],
    /// µop-cache probe outcomes (`[miss, hit]`).
    ucache: [u64; 2],
    /// Divergence classes observed by the harness.
    divergence: BTreeMap<String, u64>,
    /// Context of the previous decode (edge-tracking cursor; not a bin,
    /// excluded from merge and serialization).
    last_ctx: Option<u8>,
}

impl Default for CoverageMap {
    fn default() -> CoverageMap {
        CoverageMap {
            uop_mode: [[0; COV_UOP_CLASSES]; COV_CONTEXTS],
            ctx_edges: [[0; COV_CONTEXTS]; COV_CONTEXTS],
            key_causes: [0; COV_KEY_CAUSES],
            gate: [0; 2],
            decoy_bins: [0; COV_DECOY_BINS],
            memo: [0; 3],
            ucache: [0; 2],
            divergence: BTreeMap::new(),
            last_ctx: None,
        }
    }
}

fn log2_bin(n: u64) -> usize {
    ((64 - n.max(1).leading_zeros() as usize) - 1).min(COV_DECOY_BINS - 1)
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Records a decoded macro-op's translation context (feeds the
    /// context-edge matrix).
    pub fn record_decode_context(&mut self, ctx: u8) {
        let ctx = (ctx as usize).min(COV_CONTEXTS - 1);
        if let Some(prev) = self.last_ctx {
            self.ctx_edges[prev as usize][ctx] += 1;
        }
        self.last_ctx = Some(ctx as u8);
    }

    /// Records one emitted µop of `class` under translation context `ctx`.
    pub fn record_uop(&mut self, ctx: u8, class: u8) {
        let ctx = (ctx as usize).min(COV_CONTEXTS - 1);
        let class = (class as usize).min(COV_UOP_CLASSES - 1);
        self.uop_mode[ctx][class] += 1;
    }

    /// Records a context-key bump and its cause.
    pub fn record_key_cause(&mut self, cause: u8) {
        self.key_causes[(cause as usize).min(COV_KEY_CAUSES - 1)] += 1;
    }

    /// Records a VPU gate transition into the gated or ungated state.
    pub fn record_gate(&mut self, gated: bool) {
        self.gate[usize::from(gated)] += 1;
    }

    /// Records a stealth decoy window of `decoys` µops (log2-binned).
    pub fn record_stealth_window(&mut self, decoys: u32) {
        self.decoy_bins[log2_bin(u64::from(decoys))] += 1;
    }

    /// Records a decode-memo probe outcome (see [`memo_probe`]).
    pub fn record_memo(&mut self, outcome: u8) {
        self.memo[(outcome as usize).min(2)] += 1;
    }

    /// Records a µop-cache probe outcome.
    pub fn record_ucache(&mut self, hit: bool) {
        self.ucache[usize::from(hit)] += 1;
    }

    /// Records one observed divergence of the named class.
    pub fn record_divergence(&mut self, class: &str) {
        *self.divergence.entry(class.to_string()).or_insert(0) += 1;
    }

    /// Iterates every bin as `(stable name, count)`, including zeros.
    fn bins_iter(&self) -> impl Iterator<Item = (String, u64)> + '_ {
        let uop = self.uop_mode.iter().enumerate().flat_map(|(c, row)| {
            row.iter().enumerate().map(move |(k, &n)| {
                (
                    format!("uop/{}/{}", context_name(c as u8), uop_class_name(k as u8)),
                    n,
                )
            })
        });
        let edges = self.ctx_edges.iter().enumerate().flat_map(|(a, row)| {
            row.iter().enumerate().map(move |(b, &n)| {
                (
                    format!("edge/{}>{}", context_name(a as u8), context_name(b as u8)),
                    n,
                )
            })
        });
        let causes = self
            .key_causes
            .iter()
            .enumerate()
            .map(|(c, &n)| (format!("key/{}", key_cause::name(c as u8)), n));
        let gate = self.gate.iter().enumerate().map(|(g, &n)| {
            (
                format!("gate/{}", if g == 1 { "gated" } else { "ungated" }),
                n,
            )
        });
        let decoys = self
            .decoy_bins
            .iter()
            .enumerate()
            .map(|(b, &n)| (format!("decoys/2^{b}"), n));
        let memo = self
            .memo
            .iter()
            .enumerate()
            .map(|(o, &n)| (format!("memo/{}", memo_probe::name(o as u8)), n));
        let ucache = self
            .ucache
            .iter()
            .enumerate()
            .map(|(h, &n)| (format!("ucache/{}", if h == 1 { "hit" } else { "miss" }), n));
        let div = self
            .divergence
            .iter()
            .map(|(k, &n)| (format!("divergence/{k}"), n));
        uop.chain(edges)
            .chain(causes)
            .chain(gate)
            .chain(decoys)
            .chain(memo)
            .chain(ucache)
            .chain(div)
    }

    /// Number of distinct nonzero bins.
    pub fn bins(&self) -> u64 {
        self.bins_iter().filter(|(_, n)| *n > 0).count() as u64
    }

    /// Total events recorded across all bins.
    pub fn events(&self) -> u64 {
        self.bins_iter().map(|(_, n)| n).sum()
    }

    /// Number of bins nonzero in `self` but zero (or absent) in `global`
    /// — the fuzzer's "is this input interesting" signal.
    pub fn new_bins(&self, global: &CoverageMap) -> u64 {
        let theirs: BTreeMap<String, u64> = global.bins_iter().collect();
        self.bins_iter()
            .filter(|(name, n)| *n > 0 && theirs.get(name).copied().unwrap_or(0) == 0)
            .count() as u64
    }

    /// Names of the bins nonzero in `self` but zero (or absent) in
    /// `global` — what [`CoverageMap::new_bins`] counts.
    pub fn new_bin_names(&self, global: &CoverageMap) -> Vec<String> {
        let theirs: BTreeMap<String, u64> = global.bins_iter().collect();
        self.bins_iter()
            .filter(|(name, n)| *n > 0 && theirs.get(name).copied().unwrap_or(0) == 0)
            .map(|(name, _)| name)
            .collect()
    }

    /// Whether every named bin is nonzero in `self` (the fuzzer's
    /// coverage-preserving shrink predicate).
    pub fn covers_all(&self, names: &[String]) -> bool {
        let ours: BTreeMap<String, u64> = self.bins_iter().collect();
        names.iter().all(|n| ours.get(n).copied().unwrap_or(0) > 0)
    }

    /// Folds another map's counts into this one (the edge cursor is not
    /// merged — it is per-run state, not coverage).
    pub fn merge(&mut self, other: &CoverageMap) {
        for (a, b) in self.uop_mode.iter_mut().zip(&other.uop_mode) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        for (a, b) in self.ctx_edges.iter_mut().zip(&other.ctx_edges) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        for (x, y) in self.key_causes.iter_mut().zip(&other.key_causes) {
            *x += y;
        }
        for (x, y) in self.gate.iter_mut().zip(&other.gate) {
            *x += y;
        }
        for (x, y) in self.decoy_bins.iter_mut().zip(&other.decoy_bins) {
            *x += y;
        }
        for (x, y) in self.memo.iter_mut().zip(&other.memo) {
            *x += y;
        }
        for (x, y) in self.ucache.iter_mut().zip(&other.ucache) {
            *x += y;
        }
        for (k, &n) in &other.divergence {
            *self.divergence.entry(k.clone()).or_insert(0) += n;
        }
    }

    /// Checks this map against a baseline coverage document (a previous
    /// [`CoverageMap::to_json`] dump): returns every bin name the
    /// baseline had nonzero that this map left at zero. Empty = coverage
    /// did not regress.
    pub fn missing_from_baseline(&self, baseline: &Json) -> Vec<String> {
        let Some(bins) = baseline.get("bins") else {
            return vec!["<baseline has no bins object>".to_string()];
        };
        let Json::Obj(members) = bins else {
            return vec!["<baseline bins is not an object>".to_string()];
        };
        let ours: BTreeMap<String, u64> = self.bins_iter().collect();
        members
            .iter()
            .filter(|(name, count)| {
                count.as_u64().unwrap_or(0) > 0 && ours.get(name).copied().unwrap_or(0) == 0
            })
            .map(|(name, _)| name.clone())
            .collect()
    }
}

impl ToJson for CoverageMap {
    /// Deterministic dump: schema tag, summary counts, then every
    /// nonzero bin under `"bins"` in a fixed section-then-index order.
    fn to_json(&self) -> Json {
        let bins: Vec<(String, Json)> = self
            .bins_iter()
            .filter(|(_, n)| *n > 0)
            .map(|(name, n)| (name, Json::from(n)))
            .collect();
        Json::obj([
            ("schema", Json::from("csd-cover/1")),
            ("bin_count", Json::from(bins.len() as u64)),
            ("events", Json::from(self.events())),
            ("bins", Json::obj(bins)),
        ])
    }
}

/// An [`EventSink`] that counts every observed event into a map of its
/// own and folds that map into a shared [`CoverageMap`] when dropped.
/// Attach one per core: the shared map is touched once per sink, not
/// once per event. Merging sums counters, so the folded map is the one
/// per-event updates would have built; each sink's decode-edge cursor
/// starts fresh, so an edge never spans two cores' runs.
pub struct CoverageSink {
    shared: Arc<Mutex<CoverageMap>>,
    local: CoverageMap,
}

impl CoverageSink {
    /// A sink folding into `map`.
    pub fn new(map: Arc<Mutex<CoverageMap>>) -> CoverageSink {
        CoverageSink {
            shared: map,
            local: CoverageMap::new(),
        }
    }
}

impl Drop for CoverageSink {
    fn drop(&mut self) {
        // A poisoned map just stops accumulating; coverage is advisory.
        if let Ok(mut m) = self.shared.lock() {
            m.merge(&self.local);
        }
    }
}

impl EventSink for CoverageSink {
    fn on_decode(&mut self, event: &DecodeEvent) {
        self.local.record_decode_context(event.context);
    }

    fn on_gate(&mut self, event: &GateEvent) {
        self.local.record_gate(event.gated);
    }

    fn on_stealth_window(&mut self, event: &StealthWindowEvent) {
        self.local.record_stealth_window(event.decoy_uops);
    }

    fn on_uop_decode(&mut self, event: &UopDecodeEvent) {
        self.local.record_uop(event.context, event.class);
    }

    fn on_memo_probe(&mut self, event: &MemoProbeEvent) {
        self.local.record_memo(event.outcome);
    }

    fn on_uop_cache(&mut self, event: &UopCacheEvent) {
        self.local.record_ucache(event.hit);
    }

    fn on_context_key(&mut self, event: &ContextKeyEvent) {
        self.local.record_key_cause(event.cause);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_has_no_bins_and_empty_dump_is_stable() {
        let m = CoverageMap::new();
        assert_eq!(m.bins(), 0);
        assert_eq!(m.events(), 0);
        let j = m.to_json().dump();
        assert_eq!(j, CoverageMap::new().to_json().dump());
        assert!(j.contains("csd-cover/1"));
    }

    #[test]
    fn recording_creates_named_bins() {
        let mut m = CoverageMap::new();
        m.record_uop(0, 8); // native/ld
        m.record_uop(1, 8); // stealth/ld
        m.record_decode_context(0);
        m.record_decode_context(1); // edge native>stealth
        m.record_key_cause(key_cause::MSR);
        m.record_gate(true);
        m.record_stealth_window(5); // 2^2 bin
        m.record_memo(memo_probe::HIT);
        m.record_ucache(false);
        m.record_divergence("flags");
        let dump = m.to_json().dump();
        for needle in [
            "uop/native/ld",
            "uop/stealth/ld",
            "edge/native>stealth",
            "key/msr",
            "gate/gated",
            "decoys/2^2",
            "memo/hit",
            "ucache/miss",
            "divergence/flags",
        ] {
            assert!(dump.contains(needle), "missing bin {needle} in {dump}");
        }
        assert_eq!(m.bins(), 9);
    }

    #[test]
    fn merge_and_new_bins() {
        let mut global = CoverageMap::new();
        global.record_uop(0, 0);
        let mut local = CoverageMap::new();
        local.record_uop(0, 0); // already covered
        local.record_uop(2, 3); // new: devec/alu
        assert_eq!(local.new_bins(&global), 1);
        global.merge(&local);
        assert_eq!(local.new_bins(&global), 0);
        assert_eq!(global.bins(), 2);
        assert_eq!(global.events(), 3);
    }

    #[test]
    fn baseline_regression_is_detected() {
        let mut baseline = CoverageMap::new();
        baseline.record_uop(0, 8);
        baseline.record_memo(memo_probe::MISS);
        let doc = baseline.to_json();

        let mut run = CoverageMap::new();
        run.record_uop(0, 8);
        let missing = run.missing_from_baseline(&doc);
        assert_eq!(missing, vec!["memo/miss".to_string()]);

        run.record_memo(memo_probe::MISS);
        run.record_uop(1, 1); // extra coverage never fails the check
        assert!(run.missing_from_baseline(&doc).is_empty());
    }

    #[test]
    fn sink_routes_events_into_the_shared_map() {
        let map = Arc::new(Mutex::new(CoverageMap::new()));
        let mut a = CoverageSink::new(Arc::clone(&map));
        let mut b = CoverageSink::new(Arc::clone(&map));
        a.on_uop_decode(&UopDecodeEvent {
            context: 0,
            class: 8,
        });
        b.on_context_key(&ContextKeyEvent {
            key: 1,
            cause: key_cause::GATE,
        });
        assert_eq!(map.lock().unwrap().bins(), 0, "counts fold in on drop");
        drop(a);
        assert_eq!(map.lock().unwrap().bins(), 1);
        drop(b);
        let m = map.lock().unwrap();
        assert_eq!(m.bins(), 2);
        assert_eq!(m.events(), 2);
    }

    #[test]
    fn a_poisoned_map_is_skipped_on_drop() {
        let map = Arc::new(Mutex::new(CoverageMap::new()));
        let mut sink = CoverageSink::new(Arc::clone(&map));
        sink.on_gate(&GateEvent {
            gated: true,
            transitions: 1,
        });
        let poisoner = Arc::clone(&map);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the coverage map");
        })
        .join();
        assert!(map.is_poisoned());
        drop(sink);
        let m = map.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(m.events(), 0, "nothing folded into a poisoned map");
    }

    #[test]
    fn log2_bins_are_monotonic_and_bounded() {
        assert_eq!(log2_bin(0), 0);
        assert_eq!(log2_bin(1), 0);
        assert_eq!(log2_bin(2), 1);
        assert_eq!(log2_bin(3), 1);
        assert_eq!(log2_bin(4), 2);
        assert_eq!(log2_bin(u64::MAX), COV_DECOY_BINS - 1);
    }

    #[test]
    fn out_of_range_codes_saturate() {
        let mut m = CoverageMap::new();
        m.record_uop(200, 200);
        m.record_key_cause(200);
        m.record_memo(200);
        assert_eq!(m.bins(), 3);
        assert_eq!(uop_class_name(200), "unknown");
        assert_eq!(context_name(200), "custom4");
    }
}
