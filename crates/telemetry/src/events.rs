//! Event hooks for tracing the simulator without touching the hot path.
//!
//! The pipeline core embeds one [`SinkHandle`], the only place a sink
//! attaches. During a run it lends that handle to the CSD engine calls
//! that report decode, gate and context-change events, so an attached
//! [`EventSink`] sees one ordered stream: each macro-op's decode events,
//! then its stores, then its retire. One [`DecodeEvent`] per macro-op
//! carries what that decode did: its context, its µops and decoys (a
//! stealth window is a stealth-context decode with decoys), and how the
//! flow table served it. The core tests whether a sink is attached once
//! per batch of retires (one `Core::run` call) and runs a copy of its
//! stage code compiled without emission sites when none is, so a run
//! with no sink attached (the default) makes no per-event test. That is
//! enough to build tracers, coverage tools, or live dashboards outside
//! the simulator crates.
//!
//! Events carry only primitive fields so the trait can live below every
//! other crate in the dependency graph.

/// The translation-context tag of stealth decoy injection
/// ([`DecodeEvent::context`]).
pub const STEALTH_CONTEXT: u8 = 1;

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
    /// How the flow table served the flow (see `coverage::flow_served`):
    /// 0 = hit, 1 = miss, 2 = bypass.
    pub served: u8,
}

impl DecodeEvent {
    /// The decoy µops of the stealth window this decode injected, if it
    /// injected one: a stealth-context decode with decoys.
    pub fn stealth_window(&self) -> Option<u32> {
        (self.context == STEALTH_CONTEXT && self.decoy_uops > 0).then_some(self.decoy_uops)
    }
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

/// One µop emitted by a decode, with its translation context. Emitted
/// per µop (not per macro-op), so only when a sink is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UopDecodeEvent {
    /// Translation context tag (same encoding as [`DecodeEvent::context`]).
    pub context: u8,
    /// Coverage class of the µop (see `coverage::UOP_CLASS_NAMES`).
    pub class: u8,
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

/// Something that can change what later decodes produce changed during
/// a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextChangeEvent {
    /// What changed (see `coverage::key_cause`).
    pub cause: u8,
}

/// Receiver for simulator events. Every method is a no-op by default, so
/// implementors override only what they observe.
///
/// The `Send` bound lets a core with a sink attached move to another
/// thread. Dispatch is `&mut self`, so implementors need interior
/// synchronization only for state they share with other threads.
pub trait EventSink: Send {
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

    /// A µop was emitted by a decode.
    fn on_uop_decode(&mut self, event: &UopDecodeEvent) {
        let _ = event;
    }

    /// A µop-cache lookup resolved.
    fn on_uop_cache(&mut self, event: &UopCacheEvent) {
        let _ = event;
    }

    /// A change that affects translation happened during a run.
    fn on_context_change(&mut self, event: &ContextChangeEvent) {
        let _ = event;
    }
}

/// Holder for an optional event sink, embeddable in `derive(Debug)`
/// structs: `Debug` prints only the attachment state. A handle is not
/// `Clone`: a sink is a stateful observer of one simulation, not data.
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

    /// Runs `f` against the sink, if one is attached. Each call tests
    /// the attachment; hot paths test once per batch instead and skip
    /// their emission sites entirely when no sink is attached.
    #[inline]
    pub fn with(&mut self, f: impl FnOnce(&mut dyn EventSink)) {
        if let Some(sink) = self.get() {
            f(sink);
        }
    }

    /// The attached sink, if any, for emitting several events after one
    /// test.
    #[inline]
    pub fn get(&mut self) -> Option<&mut (dyn EventSink + 'static)> {
        self.sink.as_deref_mut()
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
    /// Stealth windows observed (decode events that injected decoys).
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
        self.stealth_windows += u64::from(event.stealth_window().is_some());
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
            served: 0,
        };
        h.with(|s| s.on_decode(&ev));
        h.with(|s| s.on_decode(&ev));
        assert_eq!(count.load(Ordering::Relaxed), 2);
        assert!(h.detach().is_some());
        assert!(!h.is_attached());
    }

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::default();
        let decode = |context, decoy_uops| DecodeEvent {
            addr: 0,
            context,
            uops: 1 + decoy_uops,
            decoy_uops,
            stall_cycles: 0,
            served: 2,
        };
        // Only a stealth-context decode with decoys opens a window.
        s.on_decode(&decode(0, 2));
        s.on_decode(&decode(STEALTH_CONTEXT, 0));
        s.on_decode(&decode(STEALTH_CONTEXT, 2));
        s.on_gate(&GateEvent {
            gated: true,
            transitions: 1,
        });
        assert_eq!(s.decodes, 3);
        assert_eq!(s.decoy_uops, 4);
        assert_eq!(s.gate_events, 1);
        assert_eq!(s.stealth_windows, 1);
    }
}
