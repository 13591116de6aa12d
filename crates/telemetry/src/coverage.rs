//! Structural coverage counters for coverage-guided differential fuzzing.
//!
//! A [`CoverageMap`] is a fixed shape of cheap counters over the
//! decoder-visible structure the CSD engine exercises: which µop classes
//! were emitted under which translation context, which context-to-context
//! transitions the decode stream took, which changes affecting
//! translation a run made (the `key/<cause>` bins), the VPU gate states
//! seen, stealth decoy-window sizes, flow-table and µop-cache outcomes,
//! and (filled in by the harness) divergence classes. Bins are
//! deliberately coarse — the point is a stable, deterministic fingerprint
//! a fuzzer can compare across inputs, not a profile.
//!
//! Every bin but the divergence classes is one counter in a single fixed
//! table, laid out section by section in dump order; each section's
//! offset is named once. A bin's name is formatted only when a caller
//! asks for it.
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
    ContextChangeEvent, DecodeEvent, EventSink, GateEvent, UopCacheEvent, UopDecodeEvent,
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

/// Number of context-change causes a run reports.
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

/// Stable names of the translation-context tags, indexed by tag.
const CONTEXT_NAMES: [&str; COV_CONTEXTS] = [
    "native", "stealth", "devec", "custom0", "custom1", "custom2", "custom3", "custom4",
];

/// Name of a translation-context tag (`ContextId::bit` value); tags past
/// the last fold into it.
pub fn context_name(ctx: u8) -> &'static str {
    CONTEXT_NAMES[(ctx as usize).min(COV_CONTEXTS - 1)]
}

/// Name of a µop coverage class, or `"unknown"` when out of range.
pub fn uop_class_name(class: u8) -> &'static str {
    UOP_CLASS_NAMES
        .get(class as usize)
        .copied()
        .unwrap_or("unknown")
}

/// Causes carried by [`ContextChangeEvent::cause`]: the changes to
/// translation a run makes. Set-up calls outside a run (a microcode
/// update, a custom-mode switch, a VPU-policy change, an MSR write)
/// report nothing. Their bins are `key/<cause>`, names the fuzz goldens
/// and the coverage baseline pin.
pub mod key_cause {
    /// A retiring `wrmsr`.
    pub const MSR: u8 = 0;
    /// A stealth watchdog arm/disarm transition.
    pub const STEALTH_ARM: u8 = 1;
    /// A VPU gate-state change.
    pub const GATE: u8 = 2;
    /// A stealth decoy injection (window disarm at decode).
    pub const STEALTH_INJECT: u8 = 3;

    /// Stable names of the cause codes, indexed by code.
    pub(crate) const NAMES: [&str; super::COV_KEY_CAUSES] =
        ["msr", "stealth-arm", "gate", "stealth-inject"];

    /// Stable name of a cause code; codes past the last fold into it.
    pub fn name(cause: u8) -> &'static str {
        NAMES[(cause as usize).min(NAMES.len() - 1)]
    }
}

/// How the flow table served a decode, carried by
/// [`DecodeEvent::served`]. Their bins are `memo/<outcome>`, names the
/// fuzz goldens and the coverage baseline pin.
pub mod flow_served {
    /// The flow came from the flow table.
    pub const HIT: u8 = 0;
    /// The flow was built by this decode and stored in the table.
    pub const MISS: u8 = 1;
    /// The flow was built outside the table: a stealth injection, an MCU
    /// patch, or a decode with the table disabled.
    pub const BYPASS: u8 = 2;

    /// Stable names of the outcome codes, indexed by code.
    pub(crate) const NAMES: [&str; 3] = ["hit", "miss", "bypass"];

    /// Stable name of an outcome code; codes past the last fold into it.
    pub fn name(outcome: u8) -> &'static str {
        NAMES[(outcome as usize).min(NAMES.len() - 1)]
    }
}

/// Gate-state bin labels, indexed by `gated`.
const GATE_NAMES: [&str; 2] = ["ungated", "gated"];
/// Decoy-window bin labels, indexed by log2 of the window size.
const DECOY_NAMES: [&str; COV_DECOY_BINS] =
    ["2^0", "2^1", "2^2", "2^3", "2^4", "2^5", "2^6", "2^7"];
/// µop-cache bin labels, indexed by `hit`.
const UCACHE_NAMES: [&str; 2] = ["miss", "hit"];

// The fixed-bin table, section by section in dump order.
/// µop class × translation context occupancy (`uop/<ctx>/<class>`).
const UOP: usize = 0;
/// Decode-stream context-transition edges, self-edges included
/// (`edge/<from>><to>`).
const EDGE: usize = UOP + COV_CONTEXTS * COV_UOP_CLASSES;
/// Context-change causes (`key/<cause>`).
const KEY: usize = EDGE + COV_CONTEXTS * COV_CONTEXTS;
/// VPU gate states transitioned to (`gate/<state>`).
const GATE: usize = KEY + COV_KEY_CAUSES;
/// Stealth decoy-window sizes, log2-binned (`decoys/2^<k>`).
const DECOYS: usize = GATE + GATE_NAMES.len();
/// Flow-table outcomes (`memo/<outcome>`).
const MEMO: usize = DECOYS + COV_DECOY_BINS;
/// µop-cache probe outcomes (`ucache/<outcome>`).
const UCACHE: usize = MEMO + flow_served::NAMES.len();
/// Number of fixed bins.
const FIXED_BINS: usize = UCACHE + UCACHE_NAMES.len();

/// Stable name of fixed bin `i`.
fn bin_name(i: usize) -> String {
    let ctx = |c: usize| CONTEXT_NAMES[c];
    match i {
        _ if i < EDGE => {
            let (c, k) = ((i - UOP) / COV_UOP_CLASSES, (i - UOP) % COV_UOP_CLASSES);
            format!("uop/{}/{}", ctx(c), UOP_CLASS_NAMES[k])
        }
        _ if i < KEY => {
            let (a, b) = ((i - EDGE) / COV_CONTEXTS, (i - EDGE) % COV_CONTEXTS);
            format!("edge/{}>{}", ctx(a), ctx(b))
        }
        _ if i < GATE => format!("key/{}", key_cause::NAMES[i - KEY]),
        _ if i < DECOYS => format!("gate/{}", GATE_NAMES[i - GATE]),
        _ if i < MEMO => format!("decoys/{}", DECOY_NAMES[i - DECOYS]),
        _ if i < UCACHE => format!("memo/{}", flow_served::NAMES[i - MEMO]),
        _ => format!("ucache/{}", UCACHE_NAMES[i - UCACHE]),
    }
}

/// Index of the fixed bin named `name`, if one is: the inverse of
/// [`bin_name`].
fn bin_index(name: &str) -> Option<usize> {
    let at = |labels: &[&str], label: &str| labels.iter().position(|&l| l == label);
    let ctx = |label: &str| at(&CONTEXT_NAMES, label);
    let (section, rest) = name.split_once('/')?;
    Some(match section {
        "uop" => {
            let (c, k) = rest.split_once('/')?;
            UOP + ctx(c)? * COV_UOP_CLASSES + at(&UOP_CLASS_NAMES, k)?
        }
        "edge" => {
            let (a, b) = rest.split_once('>')?;
            EDGE + ctx(a)? * COV_CONTEXTS + ctx(b)?
        }
        "key" => KEY + at(&key_cause::NAMES, rest)?,
        "gate" => GATE + at(&GATE_NAMES, rest)?,
        "decoys" => DECOYS + at(&DECOY_NAMES, rest)?,
        "memo" => MEMO + at(&flow_served::NAMES, rest)?,
        "ucache" => UCACHE + at(&UCACHE_NAMES, rest)?,
        _ => return None,
    })
}

/// The structural coverage map. See the module docs for the bin shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageMap {
    /// Every fixed bin, at its section's offset.
    fixed: [u64; FIXED_BINS],
    /// Divergence classes observed by the harness.
    divergence: BTreeMap<String, u64>,
    /// Context of the previous decode (edge-tracking cursor; not a bin,
    /// excluded from merge and serialization).
    last_ctx: Option<u8>,
}

impl Default for CoverageMap {
    fn default() -> CoverageMap {
        CoverageMap {
            fixed: [0; FIXED_BINS],
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
            self.fixed[EDGE + prev as usize * COV_CONTEXTS + ctx] += 1;
        }
        self.last_ctx = Some(ctx as u8);
    }

    /// Records one emitted µop of `class` under translation context `ctx`.
    pub fn record_uop(&mut self, ctx: u8, class: u8) {
        let ctx = (ctx as usize).min(COV_CONTEXTS - 1);
        let class = (class as usize).min(COV_UOP_CLASSES - 1);
        self.fixed[UOP + ctx * COV_UOP_CLASSES + class] += 1;
    }

    /// Records a context change and its cause (see [`key_cause`]).
    pub fn record_key_cause(&mut self, cause: u8) {
        self.fixed[KEY + (cause as usize).min(COV_KEY_CAUSES - 1)] += 1;
    }

    /// Records a VPU gate transition into the gated or ungated state.
    pub fn record_gate(&mut self, gated: bool) {
        self.fixed[GATE + usize::from(gated)] += 1;
    }

    /// Records a stealth decoy window of `decoys` µops (log2-binned).
    pub fn record_stealth_window(&mut self, decoys: u32) {
        self.fixed[DECOYS + log2_bin(u64::from(decoys))] += 1;
    }

    /// Records how the flow table served a decode (see [`flow_served`]).
    pub fn record_served(&mut self, outcome: u8) {
        self.fixed[MEMO + (outcome as usize).min(flow_served::NAMES.len() - 1)] += 1;
    }

    /// Records a µop-cache probe outcome.
    pub fn record_ucache(&mut self, hit: bool) {
        self.fixed[UCACHE + usize::from(hit)] += 1;
    }

    /// Records one observed divergence of the named class.
    pub fn record_divergence(&mut self, class: &str) {
        *self.divergence.entry(class.to_string()).or_insert(0) += 1;
    }

    /// The count of the bin named `name`; zero when no bin has that name.
    fn count(&self, name: &str) -> u64 {
        match bin_index(name) {
            Some(i) => self.fixed[i],
            None => name
                .strip_prefix("divergence/")
                .and_then(|class| self.divergence.get(class))
                .copied()
                .unwrap_or(0),
        }
    }

    /// Number of distinct nonzero bins.
    pub fn bins(&self) -> u64 {
        let fixed = self.fixed.iter().filter(|&&n| n > 0).count();
        let div = self.divergence.values().filter(|&&n| n > 0).count();
        (fixed + div) as u64
    }

    /// Total events recorded across all bins.
    pub fn events(&self) -> u64 {
        self.fixed.iter().sum::<u64>() + self.divergence.values().sum::<u64>()
    }

    /// Names of the bins nonzero in `self` but zero (or absent) in
    /// `global` — the fuzzer's "is this input interesting" signal — in
    /// dump order.
    pub fn new_bin_names(&self, global: &CoverageMap) -> Vec<String> {
        let fixed = (0..FIXED_BINS).filter(|&i| self.fixed[i] > 0 && global.fixed[i] == 0);
        let div = self.divergence.iter().filter(|(k, &n)| {
            n > 0 && global.divergence.get(k.as_str()).copied().unwrap_or(0) == 0
        });
        fixed
            .map(bin_name)
            .chain(div.map(|(k, _)| format!("divergence/{k}")))
            .collect()
    }

    /// Whether every named bin is nonzero in `self` (the fuzzer's
    /// coverage-preserving shrink predicate).
    pub fn covers_all(&self, names: &[String]) -> bool {
        names.iter().all(|n| self.count(n) > 0)
    }

    /// Folds another map's counts into this one (the edge cursor is not
    /// merged — it is per-run state, not coverage).
    pub fn merge(&mut self, other: &CoverageMap) {
        for (x, y) in self.fixed.iter_mut().zip(&other.fixed) {
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
        members
            .iter()
            .filter(|(name, count)| count.as_u64().unwrap_or(0) > 0 && self.count(name) == 0)
            .map(|(name, _)| name.clone())
            .collect()
    }
}

impl ToJson for CoverageMap {
    /// Deterministic dump: schema tag, summary counts, then every
    /// nonzero bin under `"bins"` in a fixed section-then-index order.
    fn to_json(&self) -> Json {
        let fixed = self.fixed.iter().enumerate().filter(|(_, &n)| n > 0);
        let div = self.divergence.iter().filter(|(_, &n)| n > 0);
        let bins: Vec<(String, Json)> = fixed
            .map(|(i, &n)| (bin_name(i), Json::from(n)))
            .chain(div.map(|(k, &n)| (format!("divergence/{k}"), Json::from(n))))
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
    /// Bins the decode's context edge and flow-table outcome, and its
    /// stealth window when it injected one.
    fn on_decode(&mut self, event: &DecodeEvent) {
        self.local.record_decode_context(event.context);
        self.local.record_served(event.served);
        if let Some(decoys) = event.stealth_window() {
            self.local.record_stealth_window(decoys);
        }
    }

    fn on_gate(&mut self, event: &GateEvent) {
        self.local.record_gate(event.gated);
    }

    fn on_uop_decode(&mut self, event: &UopDecodeEvent) {
        self.local.record_uop(event.context, event.class);
    }

    fn on_uop_cache(&mut self, event: &UopCacheEvent) {
        self.local.record_ucache(event.hit);
    }

    fn on_context_change(&mut self, event: &ContextChangeEvent) {
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
        m.record_served(flow_served::HIT);
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
        assert_eq!(local.new_bin_names(&global), vec!["uop/devec/alu"]);
        global.merge(&local);
        assert_eq!(local.new_bin_names(&global).len(), 0);
        assert_eq!(global.bins(), 2);
        assert_eq!(global.events(), 3);
    }

    #[test]
    fn baseline_regression_is_detected() {
        let mut baseline = CoverageMap::new();
        baseline.record_uop(0, 8);
        baseline.record_served(flow_served::MISS);
        let doc = baseline.to_json();

        let mut run = CoverageMap::new();
        run.record_uop(0, 8);
        let missing = run.missing_from_baseline(&doc);
        assert_eq!(missing, vec!["memo/miss".to_string()]);

        run.record_served(flow_served::MISS);
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
        b.on_context_change(&ContextChangeEvent {
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
        m.record_served(200);
        assert_eq!(m.bins(), 3);
        assert_eq!(uop_class_name(200), "unknown");
        assert_eq!(context_name(200), "custom4");
    }

    #[test]
    fn a_decode_event_bins_its_outcome_and_its_stealth_window() {
        let map = Arc::new(Mutex::new(CoverageMap::new()));
        let mut sink = CoverageSink::new(Arc::clone(&map));
        let decode = |context, decoy_uops, served| DecodeEvent {
            addr: 0x40,
            context,
            uops: 1 + decoy_uops,
            decoy_uops,
            stall_cycles: 0,
            served,
        };
        sink.on_decode(&decode(0, 0, flow_served::HIT));
        sink.on_decode(&decode(
            crate::events::STEALTH_CONTEXT,
            5,
            flow_served::BYPASS,
        ));
        // Decoys outside the stealth context open no window.
        sink.on_decode(&decode(2, 3, flow_served::MISS));
        drop(sink);
        let dump = map.lock().unwrap().to_json().dump();
        for needle in ["memo/hit", "memo/miss", "memo/bypass", "decoys/2^2"] {
            assert!(dump.contains(needle), "missing bin {needle} in {dump}");
        }
        assert!(!dump.contains("decoys/2^1"), "{dump}");
    }

    #[test]
    fn every_fixed_bin_name_maps_back_to_its_index() {
        for i in 0..FIXED_BINS {
            assert_eq!(bin_index(&bin_name(i)), Some(i), "{}", bin_name(i));
        }
        for name in [
            "uop/native/ld/x",
            "edge/native>stealth>devec",
            "decoys/2^01",
            "memo",
        ] {
            assert_eq!(bin_index(name), None, "{name}");
        }
    }

    /// The string-keyed map the flat table replaced: every bin by name,
    /// its layout stated as nested loops in dump order.
    #[derive(Clone, Default)]
    struct Reference {
        bins: BTreeMap<String, u64>,
        last_ctx: Option<u8>,
    }

    impl Reference {
        fn fixed_names() -> &'static [String] {
            static NAMES: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
            NAMES.get_or_init(|| {
                let mut names = Vec::new();
                for c in 0..COV_CONTEXTS as u8 {
                    for k in 0..COV_UOP_CLASSES as u8 {
                        names.push(format!("uop/{}/{}", context_name(c), uop_class_name(k)));
                    }
                }
                for a in 0..COV_CONTEXTS as u8 {
                    for b in 0..COV_CONTEXTS as u8 {
                        names.push(format!("edge/{}>{}", context_name(a), context_name(b)));
                    }
                }
                for c in 0..COV_KEY_CAUSES as u8 {
                    names.push(format!("key/{}", key_cause::name(c)));
                }
                names.extend(["gate/ungated".to_string(), "gate/gated".to_string()]);
                for b in 0..COV_DECOY_BINS {
                    names.push(format!("decoys/2^{b}"));
                }
                for o in 0..3 {
                    names.push(format!("memo/{}", flow_served::name(o)));
                }
                names.extend(["ucache/miss".to_string(), "ucache/hit".to_string()]);
                names
            })
        }

        fn bump(&mut self, name: String) {
            *self.bins.entry(name).or_insert(0) += 1;
        }

        fn get(&self, name: &str) -> u64 {
            self.bins.get(name).copied().unwrap_or(0)
        }

        fn record(&mut self, op: &Op) {
            let ctx = |c: u8| context_name(c.min(COV_CONTEXTS as u8 - 1));
            match *op {
                Op::Decode(c) => {
                    let c = c.min(COV_CONTEXTS as u8 - 1);
                    if let Some(prev) = self.last_ctx {
                        self.bump(format!("edge/{}>{}", ctx(prev), ctx(c)));
                    }
                    self.last_ctx = Some(c);
                }
                Op::Uop(c, k) => self.bump(format!(
                    "uop/{}/{}",
                    ctx(c),
                    uop_class_name(k.min(COV_UOP_CLASSES as u8 - 1))
                )),
                Op::Key(c) => self.bump(format!("key/{}", key_cause::name(c))),
                Op::Gate(g) => self.bump(format!("gate/{}", if g { "gated" } else { "ungated" })),
                Op::Window(decoys) => {
                    let mut b = 0;
                    while b + 1 < COV_DECOY_BINS && decoys >> (b + 1) > 0 {
                        b += 1;
                    }
                    self.bump(format!("decoys/2^{b}"));
                }
                Op::Served(o) => self.bump(format!("memo/{}", flow_served::name(o))),
                Op::Ucache(h) => self.bump(format!("ucache/{}", if h { "hit" } else { "miss" })),
                Op::Divergence(class) => self.bump(format!("divergence/{class}")),
            }
        }

        fn merge(&mut self, other: &Reference) {
            for (k, &n) in &other.bins {
                *self.bins.entry(k.clone()).or_insert(0) += n;
            }
        }

        /// Every bin in dump order: the fixed ones, then the divergence
        /// classes (which sort by class under their shared prefix).
        fn in_order(&self) -> Vec<(String, u64)> {
            let div = self.bins.keys().filter(|k| k.starts_with("divergence/"));
            Self::fixed_names()
                .iter()
                .chain(div)
                .cloned()
                .map(|name| {
                    let n = self.get(&name);
                    (name, n)
                })
                .collect()
        }

        fn to_json(&self) -> Json {
            let all = self.in_order();
            let bins: Vec<(String, Json)> = all
                .iter()
                .filter(|(_, n)| *n > 0)
                .map(|(name, n)| (name.clone(), Json::from(*n)))
                .collect();
            Json::obj([
                ("schema", Json::from("csd-cover/1")),
                ("bin_count", Json::from(bins.len() as u64)),
                (
                    "events",
                    Json::from(all.iter().map(|(_, n)| n).sum::<u64>()),
                ),
                ("bins", Json::obj(bins)),
            ])
        }

        fn new_bin_names(&self, global: &Reference) -> Vec<String> {
            self.in_order()
                .into_iter()
                .filter(|(name, n)| *n > 0 && global.get(name) == 0)
                .map(|(name, _)| name)
                .collect()
        }

        fn covers_all(&self, names: &[String]) -> bool {
            names.iter().all(|n| self.get(n) > 0)
        }

        fn missing_from_baseline(&self, baseline: &Json) -> Vec<String> {
            let Some(Json::Obj(members)) = baseline.get("bins") else {
                panic!("reference baselines are well formed");
            };
            members
                .iter()
                .filter(|(name, count)| count.as_u64().unwrap_or(0) > 0 && self.get(name) == 0)
                .map(|(name, _)| name.clone())
                .collect()
        }
    }

    /// One recording call, with codes drawn past every range.
    #[derive(Debug)]
    enum Op {
        Decode(u8),
        Uop(u8, u8),
        Key(u8),
        Gate(bool),
        Window(u32),
        Served(u8),
        Ucache(bool),
        Divergence(&'static str),
    }

    impl Op {
        fn random(rng: &mut crate::SplitMix64) -> Op {
            // Mostly in range, sometimes anywhere in the code's type.
            let mut code = |n: usize| {
                if rng.next_u64().is_multiple_of(8) {
                    rng.next_u8()
                } else {
                    (rng.next_u64() % n as u64) as u8
                }
            };
            match code(8) {
                0 => Op::Decode(code(COV_CONTEXTS)),
                1 => Op::Uop(code(COV_CONTEXTS), code(COV_UOP_CLASSES)),
                2 => Op::Key(code(COV_KEY_CAUSES)),
                3 => Op::Gate(code(2) % 2 == 1),
                4 => Op::Window(match code(4) {
                    0 => 0,
                    1 => u32::MAX,
                    _ => u32::from(code(255)) << (code(24) % 24),
                }),
                5 => Op::Served(code(3)),
                6 => Op::Ucache(code(2) % 2 == 1),
                _ => Op::Divergence(["flags", "regs", "stores"][usize::from(code(3)) % 3]),
            }
        }

        fn apply(&self, m: &mut CoverageMap) {
            match *self {
                Op::Decode(c) => m.record_decode_context(c),
                Op::Uop(c, k) => m.record_uop(c, k),
                Op::Key(c) => m.record_key_cause(c),
                Op::Gate(g) => m.record_gate(g),
                Op::Window(d) => m.record_stealth_window(d),
                Op::Served(o) => m.record_served(o),
                Op::Ucache(h) => m.record_ucache(h),
                Op::Divergence(class) => m.record_divergence(class),
            }
        }
    }

    /// The flat table against the string-keyed reference on random
    /// record and merge sequences: the dump, the new-bin names, the
    /// shrink predicate and the baseline check all agree.
    #[test]
    fn the_flat_table_matches_a_string_keyed_reference() {
        let mut rng = crate::SplitMix64::new(0xC0DE_B175);
        for case in 0..100 {
            let mut maps = [CoverageMap::new(), CoverageMap::new()];
            let mut refs = [Reference::default(), Reference::default()];
            for step in 0..rng.next_u64() % 64 {
                let side = (rng.next_u64() % 2) as usize;
                if rng.next_u64().is_multiple_of(16) {
                    // Fold one side into the other; the cursor stays.
                    let (a, b) = maps.split_at_mut(1);
                    let (ra, rb) = refs.split_at_mut(1);
                    if side == 0 {
                        a[0].merge(&b[0]);
                        ra[0].merge(&rb[0]);
                    } else {
                        b[0].merge(&a[0]);
                        rb[0].merge(&ra[0]);
                    }
                } else {
                    let op = Op::random(&mut rng);
                    op.apply(&mut maps[side]);
                    refs[side].record(&op);
                }
                let what = format!("case {case} step {step}");
                for (m, r) in maps.iter().zip(&refs) {
                    assert_eq!(m.to_json().dump(), r.to_json().dump(), "{what}");
                    assert_eq!(
                        m.bins(),
                        r.in_order().iter().filter(|b| b.1 > 0).count() as u64
                    );
                }
                let [a, b] = &maps;
                let [ra, rb] = &refs;
                let new = a.new_bin_names(b);
                assert_eq!(new, ra.new_bin_names(rb), "{what}");
                let mut names = new;
                names.extend(b.new_bin_names(a));
                names.extend(
                    [
                        "uop/native/ld/x",
                        "decoys/2^01",
                        "divergence/",
                        "nope",
                        "key/msr",
                    ]
                    .map(String::from),
                );
                for probe in names.chunks(2) {
                    assert_eq!(
                        a.covers_all(probe),
                        ra.covers_all(probe),
                        "{what}: {probe:?}"
                    );
                    assert_eq!(
                        b.covers_all(probe),
                        rb.covers_all(probe),
                        "{what}: {probe:?}"
                    );
                }
                let doc = rb.to_json();
                assert_eq!(
                    a.missing_from_baseline(&doc),
                    ra.missing_from_baseline(&doc),
                    "{what}"
                );
            }
        }
    }
}
