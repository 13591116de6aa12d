//! Event hooks for tracing the simulator without touching the hot path.
//!
//! The pipeline and the CSD engine each embed a [`SinkHandle`]; with no
//! sink attached (the default) every emission site is a single
//! `Option` test. Attaching a boxed [`EventSink`] turns on decode,
//! retire, gate-transition, and stealth-window events — enough to build
//! tracers, coverage tools, or live dashboards outside the simulator
//! crates.
//!
//! Events carry only primitive fields so the trait can live below every
//! other crate in the dependency graph.

/// One macro-op decoded through the CSD engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeEvent {
    /// Address of the macro-op.
    pub addr: u64,
    /// Translation context tag (0 = native, 1 = stealth, 2 = devectorize,
    /// 3+n = custom mode n) — mirrors the µop-cache context bits.
    pub context: u8,
    /// µops in the emitted flow.
    pub uops: u32,
    /// Decoy µops among them.
    pub decoy_uops: u32,
    /// Stall imposed before execution (conventional VPU wake).
    pub stall_cycles: u64,
}

/// One macro-op retired by the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireEvent {
    /// Address of the macro-op.
    pub addr: u64,
    /// µops retired with it.
    pub uops: u32,
    /// Total macro-ops retired so far.
    pub insts: u64,
    /// Cycle count after retirement.
    pub cycles: u64,
}

/// The VPU power gate changed state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateEvent {
    /// Whether the VPU is now gated.
    pub gated: bool,
    /// Cumulative gate→on round trips.
    pub transitions: u64,
}

/// One architectural store performed by the core, in program order.
///
/// The differential-cosimulation harness compares this ordered stream
/// against the reference interpreter's; vector stores emit one event per
/// 64-bit half (low half first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreEvent {
    /// Effective address of the store.
    pub addr: u64,
    /// Bytes written (1–8).
    pub len: u32,
    /// The value written, truncated to `len` bytes.
    pub value: u64,
}

/// A stealth-mode decoy window was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealthWindowEvent {
    /// Address of the triggering macro-op.
    pub addr: u64,
    /// Decoy µops injected by this translation.
    pub decoy_uops: u32,
}

/// One µop emitted by a decode, with its translation context. Emitted
/// per µop (not per macro-op), so only when a sink is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UopDecodeEvent {
    /// Translation context tag (same encoding as [`DecodeEvent::context`]).
    pub context: u8,
    /// Coverage class of the µop (see `coverage::UOP_CLASS_NAMES`).
    pub class: u8,
}

/// A decode-memo table probe resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoProbeEvent {
    /// Outcome code (see `coverage::memo_probe`): 0 = hit, 1 = miss,
    /// 2 = bypass.
    pub outcome: u8,
}

/// A µop-cache lookup resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UopCacheEvent {
    /// Address of the fetch window probed.
    pub addr: u64,
    /// Translation context tag of the probe.
    pub context: u8,
    /// Whether the window hit.
    pub hit: bool,
}

/// The CSD context key advanced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextKeyEvent {
    /// The new context-key value.
    pub key: u64,
    /// Why it advanced (see `coverage::key_cause`).
    pub cause: u8,
}

/// Receiver for simulator events. Every method is a no-op by default, so
/// implementors override only what they observe.
///
/// The `Send + Sync` bound makes every structure that *may* hold a sink
/// — including a [`SinkHandle`] and a core checkpoint cloned from one —
/// shareable across threads: the plan executor shares one warmed
/// snapshot in an `Arc` and forks legs from it on parallel workers.
/// Dispatch is still `&mut self`, so implementors need interior
/// synchronization only if they are actually shared.
pub trait EventSink: Send + Sync {
    /// A macro-op was decoded.
    fn on_decode(&mut self, event: &DecodeEvent) {
        let _ = event;
    }

    /// A macro-op retired.
    fn on_retire(&mut self, event: &RetireEvent) {
        let _ = event;
    }

    /// An architectural store was performed.
    fn on_store(&mut self, event: &StoreEvent) {
        let _ = event;
    }

    /// The VPU gate changed state.
    fn on_gate(&mut self, event: &GateEvent) {
        let _ = event;
    }

    /// A stealth decoy window was injected.
    fn on_stealth_window(&mut self, event: &StealthWindowEvent) {
        let _ = event;
    }

    /// A µop was emitted by a decode.
    fn on_uop_decode(&mut self, event: &UopDecodeEvent) {
        let _ = event;
    }

    /// A decode-memo probe resolved.
    fn on_memo_probe(&mut self, event: &MemoProbeEvent) {
        let _ = event;
    }

    /// A µop-cache lookup resolved.
    fn on_uop_cache(&mut self, event: &UopCacheEvent) {
        let _ = event;
    }

    /// The CSD context key advanced.
    fn on_context_key(&mut self, event: &ContextKeyEvent) {
        let _ = event;
    }
}

/// Holder for an optional event sink, embeddable in `derive(Debug,
/// Clone)` structs: cloning a handle yields a *detached* handle (sinks
/// are stateful observers of one simulation, not data), and `Debug`
/// prints only the attachment state.
#[derive(Default)]
pub struct SinkHandle {
    sink: Option<Box<dyn EventSink>>,
}

impl SinkHandle {
    /// A handle with no sink attached.
    pub fn new() -> SinkHandle {
        SinkHandle::default()
    }

    /// Attaches a sink, replacing any previous one.
    pub fn attach(&mut self, sink: Box<dyn EventSink>) {
        self.sink = Some(sink);
    }

    /// Detaches and returns the current sink.
    pub fn detach(&mut self) -> Option<Box<dyn EventSink>> {
        self.sink.take()
    }

    /// Whether a sink is attached.
    pub fn is_attached(&self) -> bool {
        self.sink.is_some()
    }

    /// Runs `f` against the sink, if one is attached. This is the only
    /// cost emission sites pay when tracing is off: one `Option` test.
    #[inline]
    pub fn with(&mut self, f: impl FnOnce(&mut dyn EventSink)) {
        if let Some(sink) = self.sink.as_mut() {
            f(&mut **sink);
        }
    }
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_attached() {
            "SinkHandle(attached)"
        } else {
            "SinkHandle(none)"
        })
    }
}

impl Clone for SinkHandle {
    fn clone(&self) -> SinkHandle {
        SinkHandle::new()
    }
}

/// A sink that counts events — the cheapest useful tracer, and the one
/// the workspace's tests attach to prove the hooks fire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Decode events observed.
    pub decodes: u64,
    /// Retire events observed.
    pub retires: u64,
    /// Gate transitions observed.
    pub gate_events: u64,
    /// Stealth windows observed.
    pub stealth_windows: u64,
    /// Total decoy µops across observed decode events.
    pub decoy_uops: u64,
    /// Architectural stores observed.
    pub stores: u64,
}

impl EventSink for CountingSink {
    fn on_decode(&mut self, event: &DecodeEvent) {
        self.decodes += 1;
        self.decoy_uops += u64::from(event.decoy_uops);
    }

    fn on_retire(&mut self, _event: &RetireEvent) {
        self.retires += 1;
    }

    fn on_store(&mut self, _event: &StoreEvent) {
        self.stores += 1;
    }

    fn on_gate(&mut self, _event: &GateEvent) {
        self.gate_events += 1;
    }

    fn on_stealth_window(&mut self, _event: &StealthWindowEvent) {
        self.stealth_windows += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_handle_is_free_and_silent() {
        let mut h = SinkHandle::new();
        assert!(!h.is_attached());
        h.with(|_| panic!("must not run without a sink"));
    }

    #[test]
    fn attached_sink_observes_events() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        struct Shared(Arc<AtomicU64>);
        impl EventSink for Shared {
            fn on_decode(&mut self, _event: &DecodeEvent) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let count = Arc::new(AtomicU64::new(0));
        let mut h = SinkHandle::new();
        h.attach(Box::new(Shared(Arc::clone(&count))));
        let ev = DecodeEvent {
            addr: 0x1000,
            context: 1,
            uops: 5,
            decoy_uops: 4,
            stall_cycles: 0,
        };
        h.with(|s| s.on_decode(&ev));
        h.with(|s| s.on_decode(&ev));
        assert_eq!(count.load(Ordering::Relaxed), 2);
        assert!(h.detach().is_some());
        assert!(!h.is_attached());
    }

    #[test]
    fn cloning_detaches() {
        let mut h = SinkHandle::new();
        h.attach(Box::new(CountingSink::default()));
        let c = h.clone();
        assert!(h.is_attached());
        assert!(!c.is_attached());
    }

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::default();
        s.on_decode(&DecodeEvent {
            addr: 0,
            context: 0,
            uops: 1,
            decoy_uops: 2,
            stall_cycles: 0,
        });
        s.on_gate(&GateEvent {
            gated: true,
            transitions: 1,
        });
        s.on_stealth_window(&StealthWindowEvent {
            addr: 0,
            decoy_uops: 2,
        });
        assert_eq!(s.decodes, 1);
        assert_eq!(s.decoy_uops, 2);
        assert_eq!(s.gate_events, 1);
        assert_eq!(s.stealth_windows, 1);
    }
}
