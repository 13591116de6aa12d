//! The context-sensitive decoding engine: the single decode entry point
//! the pipeline integrates at its decoder stage.

use crate::devec::Devectorizer;
use crate::gating::{VectorDecision, VpuGateController, VpuPolicy, VpuState};
use crate::mcu::{McuError, MicrocodeUpdate, MsromPatchTable, OpcodeClass, PrivilegeLevel};
use crate::mode::{ContextId, VectorExecClass};
use crate::msr::MsrFile;
use crate::stealth::{StealthConfig, StealthTranslator};
use csd_power::GatingParams;
use csd_telemetry::coverage::{flow_served, key_cause};
use csd_telemetry::{
    ContextChangeEvent, DecodeEvent, GateEvent, Json, SinkHandle, ToJson, UopDecodeEvent,
};
use csd_uops::{translate, Flow, FlowFacts, FlowRef, FlowTable, Served, Stored};
use mx86_isa::{Inst, Placed};
use std::sync::Arc;

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct CsdConfig {
    /// Stealth-mode parameters.
    pub stealth: StealthConfig,
    /// VPU power-management policy.
    pub vpu_policy: VpuPolicy,
    /// Gating cost model.
    pub gating: GatingParams,
}

/// Aggregate engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CsdStats {
    /// Macro-ops decoded through the engine.
    pub decoded_insts: u64,
    /// Macro-ops whose translation came from a custom decoder (stealth,
    /// devectorize, or MCU patch).
    pub custom_decoded: u64,
    /// Total µops emitted.
    pub total_uops: u64,
    /// µops that were decoys.
    pub decoy_uops: u64,
    /// Microcode updates successfully applied.
    pub mcu_applied: u64,
}

impl ToJson for CsdStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("decoded_insts", Json::from(self.decoded_insts)),
            ("custom_decoded", Json::from(self.custom_decoded)),
            ("total_uops", Json::from(self.total_uops)),
            ("decoy_uops", Json::from(self.decoy_uops)),
            ("mcu_applied", Json::from(self.mcu_applied)),
        ])
    }
}

/// The result of decoding one macro-op through the engine. `'t` is the
/// flow table the flow may be borrowed from ([`CsdEngine::decode_memo`]);
/// a table-less [`CsdEngine::decode`] owns its flow.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeOutcome<'t> {
    /// The µop flow to execute, with its static µop, decoy and fused-slot
    /// counts.
    pub flow: FlowRef<'t>,
    /// The translation context that produced it (micro-op cache tag bits).
    pub context: ContextId,
    /// Pipeline stall imposed before execution (conventional VPU wake).
    pub stall_cycles: u64,
    /// For vector macro-ops, how the instruction was classified for the
    /// paper's Figure 16 breakdown.
    pub vector_class: Option<VectorExecClass>,
}

/// The bounds of a run the engine need not see decode by decode, from
/// [`CsdEngine::quiet_run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuietRun {
    /// Scalar decodes the run may take.
    pub insts: u64,
    /// The run must end with the retire that brings its elapsed cycles to
    /// at least this many.
    pub cycles: u64,
}

/// What [`CsdEngine::decide`] settled for one decode.
struct Decision {
    /// The active custom mode, when it has a patch for the instruction.
    patch: Option<ContextId>,
    /// Whether the gate controller asked for a devectorized flow.
    devec: bool,
    stall_cycles: u64,
    vector_class: Option<VectorExecClass>,
}

/// The flow a table-served decode starts from, before stealth injection.
enum Base {
    /// A flow stored in the decode's flow table.
    Table(Stored),
    /// An installed MCU patch flow.
    Patch(Arc<Flow>),
}

/// The context-sensitive decoding engine.
///
/// Owns the MSR file, the stealth translator, the devectorizer, the VPU
/// gate controller, and the microcode patch table. The pipeline calls
/// [`CsdEngine::decode_memo_traced`] for every macro-op,
/// [`CsdEngine::tick_traced`] as cycles elapse, and
/// [`CsdEngine::write_msr_traced`] when `wrmsr` retires, lending each the
/// core's event sink. The engine owns no sink, so the untraced forms
/// ([`CsdEngine::decode`], [`CsdEngine::tick`], [`CsdEngine::write_msr`]
/// and the other set-up calls) report nothing.
///
/// ```
/// use csd::{CsdEngine, CsdConfig};
/// use mx86_isa::{Placed, Inst, Gpr};
///
/// let mut engine = CsdEngine::new(CsdConfig::default());
/// let p = Placed { addr: 0x1000, inst: Inst::MovRI { dst: Gpr::Rax, imm: 7 } };
/// let out = engine.decode(&p, false);
/// assert_eq!(out.flow.uops().len(), 1);
/// assert_eq!(out.context, csd::ContextId::Native);
/// ```
#[derive(Debug, Clone)]
pub struct CsdEngine {
    msrs: MsrFile,
    stealth: StealthTranslator,
    devec: Devectorizer,
    gate: VpuGateController,
    patches: MsromPatchTable,
    active_custom: Option<u8>,
    stats: CsdStats,
}

impl CsdEngine {
    /// A fresh engine; stealth stays dormant until MSRs enable it.
    pub fn new(cfg: CsdConfig) -> CsdEngine {
        CsdEngine {
            msrs: MsrFile::new(),
            stealth: StealthTranslator::new(cfg.stealth),
            devec: Devectorizer::new(),
            gate: VpuGateController::new(cfg.vpu_policy, cfg.gating),
            patches: MsromPatchTable::new(),
            active_custom: None,
            stats: CsdStats::default(),
        }
    }

    /// Reports a change that affects what later decodes produce, and its
    /// `cause` (see [`key_cause`]), to `sink`. Every change a run makes
    /// funnels through here: a retiring `wrmsr`, a stealth-window arm,
    /// disarm or injection, and a VPU gate-state change. Set-up calls
    /// outside a run report nothing.
    fn report_change(cause: u8, sink: &mut SinkHandle) {
        sink.with(|s| s.on_context_change(&ContextChangeEvent { cause }));
    }

    /// Reports a [`GateEvent`] to `sink` if the VPU's gated-ness changed
    /// since `was`.
    fn emit_gate_delta(&self, was: VpuState, sink: &mut SinkHandle) {
        let now = self.gate.state();
        if (was == VpuState::Gated) != (now == VpuState::Gated) {
            let ev = GateEvent {
                gated: now == VpuState::Gated,
                transitions: self.gate.stats().gate_transitions,
            };
            sink.with(|s| s.on_gate(&ev));
        }
    }

    /// Writes an MSR. Writes inside the CSD block re-snapshot the stealth
    /// translator's internal registers (the decoder's register-tracking
    /// optimization noticing the update). A set-up write reports nothing;
    /// a retiring `wrmsr` goes through [`CsdEngine::write_msr_traced`].
    pub fn write_msr(&mut self, msr: u32, value: u64) {
        self.write_msr_traced::<false>(msr, value, &mut SinkHandle::new());
    }

    /// [`CsdEngine::write_msr`] reporting the change to the caller's
    /// `sink` when `TRACE` holds (see [`CsdEngine::tick_traced`]).
    pub fn write_msr_traced<const TRACE: bool>(
        &mut self,
        msr: u32,
        value: u64,
        sink: &mut SinkHandle,
    ) {
        self.msrs.write(msr, value);
        if MsrFile::is_csd_msr(msr) {
            self.stealth.configure(&self.msrs);
        }
        if TRACE {
            Self::report_change(key_cause::MSR, sink);
        }
    }

    /// Reads an MSR.
    pub fn read_msr(&self, msr: u32) -> u64 {
        self.msrs.read(msr)
    }

    /// Activates (or deactivates) a custom MCU-installed translation mode.
    pub fn set_custom_mode(&mut self, mode: Option<u8>) {
        self.active_custom = mode;
    }

    /// Replaces the VPU gating policy, restarting the gate controller
    /// under its existing gating-cost parameters.
    pub fn set_vpu_policy(&mut self, policy: VpuPolicy) {
        self.gate.set_policy(policy);
    }

    /// Applies a microcode update after verification.
    ///
    /// # Errors
    ///
    /// Propagates [`McuError`] from [`MicrocodeUpdate::verify`].
    pub fn apply_microcode_update(
        &mut self,
        mcu: &MicrocodeUpdate,
        privilege: PrivilegeLevel,
    ) -> Result<bool, McuError> {
        mcu.verify(privilege)?;
        let installed = self.patches.install(mcu);
        if installed {
            self.stats.mcu_applied += 1;
        }
        Ok(installed)
    }

    /// Advances time: watchdog countdown and VPU gate-state residency.
    pub fn tick(&mut self, cycles: u64) {
        self.tick_traced::<false>(cycles, &mut SinkHandle::new());
    }

    /// [`CsdEngine::tick`] reporting its events to the caller's `sink`
    /// when `TRACE` holds: a watchdog re-arm and a VPU state change each
    /// report a context change (both alter what later decodes produce),
    /// the latter with its gate event. The engine owns no sink: the
    /// pipeline lends the core's, with `TRACE` set to whether one was
    /// attached when its batch of retires began, so a sink-free run makes
    /// no per-event test.
    #[inline]
    pub fn tick_traced<const TRACE: bool>(&mut self, cycles: u64, sink: &mut SinkHandle) {
        let armed_was = self.stealth.armed();
        self.stealth.tick(cycles);
        let gate_was = self.gate.state();
        self.gate.tick(cycles);
        if TRACE {
            if self.stealth.armed() != armed_was {
                Self::report_change(key_cause::STEALTH_ARM, sink);
            }
            if self.gate.state() != gate_was {
                Self::report_change(key_cause::GATE, sink);
                self.emit_gate_delta(gate_was, sink);
            }
        }
    }

    /// How far a straight-line run of scalar, native decodes can go with
    /// the engine doing nothing but count: `None` when the next decode may
    /// need it (a custom mode is active, or stealth is armed). Otherwise
    /// the run may take up to `insts` decodes, and must end with the
    /// retire that brings its elapsed cycles to `cycles`: the stealth
    /// watchdog's deadline or the VPU gate's next change by time alone.
    /// [`CsdEngine::retire_quiet`] then accounts for the run in one call.
    pub fn quiet_run(&self) -> Option<QuietRun> {
        if self.active_custom.is_some() {
            return None;
        }
        let cycles = self.stealth.quiet_cycles()?.min(self.gate.quiet_cycles());
        let insts = self.gate.quiet_scalar_insts();
        (insts > 0).then_some(QuietRun { insts, cycles })
    }

    /// Accounts for a run within [`CsdEngine::quiet_run`]'s bounds:
    /// `insts` native scalar decodes of `uops` µops in all, retired over
    /// `cycles` cycles, with the tick's events to `sink` when `TRACE`
    /// holds (see [`CsdEngine::tick_traced`]). This is what decoding and
    /// ticking them one by one does, because inside those bounds nothing
    /// a decode or a tick changes is read before the run ends, and only
    /// the last tick can change state.
    pub fn retire_quiet<const TRACE: bool>(
        &mut self,
        insts: u64,
        uops: u64,
        cycles: u64,
        sink: &mut SinkHandle,
    ) {
        self.stats.decoded_insts += insts;
        self.stats.total_uops += uops;
        self.gate.on_scalar_insts(insts);
        if cycles > 0 {
            self.tick_traced::<TRACE>(cycles, sink);
        }
    }

    /// The events of one decode [`CsdEngine::retire_quiet`] accounts for:
    /// a native table hit, as [`CsdEngine::decode_memo_traced`] reports it.
    pub fn emit_quiet_decode(placed: &Placed, flow: &FlowRef<'_>, sink: &mut SinkHandle) {
        Self::emit_decode(placed, flow, ContextId::Native, 0, Served::Hit, sink);
    }

    /// Whether the VPU is powered and usable this cycle.
    pub fn vpu_available(&self) -> bool {
        self.gate.vpu_available()
    }

    /// The decision phase every decode runs first, whether or not a
    /// table serves the flow: MCU patch lookup for the active custom mode
    /// and the VPU gate controller's verdict (with its gate event and
    /// context change).
    #[inline]
    fn decide<const TRACE: bool>(&mut self, inst: &Inst, sink: &mut SinkHandle) -> Decision {
        let patch = self
            .active_custom
            .map(ContextId::Custom)
            .filter(|&ctx| self.patches.lookup(OpcodeClass::of(inst), ctx).is_some());

        let gate_was = self.gate.state();
        let mut d = Decision {
            patch,
            devec: false,
            stall_cycles: 0,
            vector_class: None,
        };
        if inst.is_vector() {
            let weight = Devectorizer::weight(inst);
            match self.gate.on_vector_inst(weight) {
                VectorDecision::ExecuteOnVpu => {
                    d.vector_class = Some(VectorExecClass::PoweredOn);
                }
                VectorDecision::StallThenExecute(c) => {
                    d.stall_cycles = c;
                    d.vector_class = Some(VectorExecClass::PoweredOn);
                }
                VectorDecision::Devectorize(class) => {
                    d.vector_class = Some(class);
                    d.devec = true;
                }
            }
        } else {
            self.gate.on_scalar_inst();
        }
        if TRACE && self.gate.state() != gate_was {
            self.emit_gate_delta(gate_was, sink);
            Self::report_change(key_cause::GATE, sink);
        }
        d
    }

    /// The installed patch flow for `inst` in custom context `ctx`.
    fn patch_flow(&self, inst: &Inst, ctx: ContextId) -> Arc<Flow> {
        Arc::clone(
            self.patches
                .lookup(OpcodeClass::of(inst), ctx)
                .expect("the decision phase found a patch"),
        )
    }

    /// Decodes one macro-op in the current context, building every flow
    /// afresh.
    ///
    /// `tainted` is the DIFT verdict for this instruction (any
    /// address-forming source register tainted, or tainted flags for a
    /// conditional branch). The decode path is, in order: MCU patch lookup
    /// → devectorization (gate-controller decision) → stealth decoy
    /// injection on top of whatever translation resulted.
    pub fn decode(&mut self, placed: &Placed, tainted: bool) -> DecodeOutcome<'static> {
        self.decode_traced::<false>(placed, tainted, &mut SinkHandle::new())
    }

    /// [`CsdEngine::decode`] with events to `sink` only when `TRACE`
    /// holds.
    fn decode_traced<const TRACE: bool>(
        &mut self,
        placed: &Placed,
        tainted: bool,
        sink: &mut SinkHandle,
    ) -> DecodeOutcome<'static> {
        let d = self.decide::<TRACE>(&placed.inst, sink);
        let inst = &placed.inst;
        let native = (d.devec || d.patch.is_none()).then(|| translate(inst, placed.next_addr()));
        let devectorized = match &native {
            Some(n) if d.devec => self.devec.devectorize(inst, n),
            _ => None,
        };
        let (base, context) = match (devectorized, d.patch) {
            (Some(t), _) => (FlowRef::Fresh(Flow::new(t)), ContextId::Devectorize),
            (None, Some(ctx)) => (FlowRef::Shared(self.patch_flow(inst, ctx)), ctx),
            (None, None) => (
                FlowRef::Fresh(Flow::new(native.expect("built for the native path"))),
                ContextId::Native,
            ),
        };
        let (flow, context) = match self.inject::<TRACE>(placed, tainted, sink, &base) {
            Some(f) => (FlowRef::Fresh(f), ContextId::Stealth),
            None => (base, context),
        };
        self.finish_decode::<TRACE>(placed, flow, context, &d, Served::Bypass, sink)
    }

    /// Like [`CsdEngine::decode`], but serves the native and devectorized
    /// flows of instruction `index` from `table`, building each on the
    /// instruction's first decode that needs it.
    ///
    /// Serving is transparent: the decision phase (gate observation,
    /// patch lookup), stealth interception, statistics and events run on
    /// every decode exactly as in [`CsdEngine::decode`]; only building the
    /// flow is skipped. No context change invalidates the table, because
    /// what it stores depends on the instruction alone. MCU patch flows
    /// come from the patch table and stealth injections are spliced for
    /// the one decode that injects; both count as bypasses, as does every
    /// decode through a disabled table. The returned flow borrows
    /// `table`, not the engine.
    pub fn decode_memo<'t>(
        &mut self,
        placed: &Placed,
        index: usize,
        tainted: bool,
        table: &'t mut FlowTable,
    ) -> DecodeOutcome<'t> {
        self.decode_memo_traced::<false>(placed, index, tainted, table, &mut SinkHandle::new())
    }

    /// [`CsdEngine::decode_memo`] reporting its events to the caller's
    /// `sink` when `TRACE` holds (see [`CsdEngine::tick_traced`]). The
    /// table-hit path is inlined into the caller; everything else runs
    /// out of line.
    #[inline]
    pub fn decode_memo_traced<'t, const TRACE: bool>(
        &mut self,
        placed: &Placed,
        index: usize,
        tainted: bool,
        table: &'t mut FlowTable,
        sink: &mut SinkHandle,
    ) -> DecodeOutcome<'t> {
        if !table.enabled() {
            table.record(Served::Bypass);
            return self.decode_traced::<TRACE>(placed, tainted, sink);
        }
        let d = self.decide::<TRACE>(&placed.inst, sink);

        // The common case: a native decode of an instruction whose flow
        // the table already holds, with no stealth window intercepting.
        // That is exactly the build path with nothing to build and no
        // injection, so it is a hit served straight from the table.
        if !d.devec && d.patch.is_none() {
            if let Some(native) = table.slot(index).native {
                if !self.stealth.should_intercept(placed, tainted) {
                    table.record(Served::Hit);
                    let table: &'t FlowTable = table;
                    return self.finish_decode::<TRACE>(
                        placed,
                        table.get(native),
                        ContextId::Native,
                        &d,
                        Served::Hit,
                        sink,
                    );
                }
            }
        }
        self.decode_memo_build::<TRACE>(placed, index, tainted, table, d, sink)
    }

    /// The rest of [`CsdEngine::decode_memo_traced`]: every decode the
    /// table does not serve as a plain native hit.
    #[inline(never)]
    fn decode_memo_build<'t, const TRACE: bool>(
        &mut self,
        placed: &Placed,
        index: usize,
        tainted: bool,
        table: &'t mut FlowTable,
        d: Decision,
        sink: &mut SinkHandle,
    ) -> DecodeOutcome<'t> {
        let inst = &placed.inst;
        // Build what the decision needs and the slot lacks: the native
        // flow unless a patch serves the decode, and the devectorized flow
        // when the gate asked for one (a stored one replays the
        // devectorizer's statistics instead).
        let mut slot = *table.slot(index);
        let mut built = false;
        if slot.native.is_none() && (d.devec || d.patch.is_none()) {
            slot.native = Some(table.store(translate(inst, placed.next_addr())));
            built = true;
        }
        if d.devec {
            let native = slot.native.expect("built for the devectorizer");
            match slot.devec {
                None => {
                    let t = translate(inst, placed.next_addr());
                    let devectorized = self.devec.devectorize(inst, &t);
                    slot.devec = Some(devectorized.map(|t| table.store(t)));
                    built = true;
                }
                Some(Some(f)) => self
                    .devec
                    .record(f.facts.uops as usize, native.facts.uops as usize),
                Some(None) => {}
            }
        }
        if built {
            *table.slot(index) = slot;
        }

        let (base, context) = match (slot.devec.flatten().filter(|_| d.devec), d.patch) {
            (Some(s), _) => (Base::Table(s), ContextId::Devectorize),
            (None, Some(ctx)) => (Base::Patch(self.patch_flow(inst, ctx)), ctx),
            (None, None) => (
                Base::Table(slot.native.expect("built for the native path")),
                ContextId::Native,
            ),
        };
        let injected = match &base {
            Base::Table(s) => self.inject::<TRACE>(placed, tainted, sink, &table.get(*s)),
            Base::Patch(p) => {
                self.inject::<TRACE>(placed, tainted, sink, &FlowRef::Shared(Arc::clone(p)))
            }
        };
        let served = match (&injected, &base) {
            (None, Base::Table(_)) if built => Served::Miss,
            (None, Base::Table(_)) => Served::Hit,
            _ => Served::Bypass,
        };
        table.record(served);
        let table: &'t FlowTable = table;
        let (flow, context) = match (injected, base) {
            (Some(f), _) => (FlowRef::Fresh(f), ContextId::Stealth),
            (None, Base::Table(s)) => (table.get(s), context),
            (None, Base::Patch(p)) => (FlowRef::Shared(p), context),
        };
        self.finish_decode::<TRACE>(placed, flow, context, &d, served, sink)
    }

    /// Stealth decoy injection on top of the chosen flow, `base`: the
    /// injected flow when the armed window intercepts this decode (which
    /// disarms it, a context transition), spliced from `base` and the
    /// translator's stored sweep.
    fn inject<const TRACE: bool>(
        &mut self,
        placed: &Placed,
        tainted: bool,
        sink: &mut SinkHandle,
        base: &FlowRef<'_>,
    ) -> Option<Flow> {
        let f = self.stealth.on_decode(placed, base, tainted)?;
        if TRACE {
            Self::report_change(key_cause::STEALTH_INJECT, sink);
        }
        Some(f)
    }

    /// Shared tail of both decode paths: statistics, event emission when
    /// `TRACE` (including how the flow was `served`), and the outcome.
    #[inline]
    fn finish_decode<'t, const TRACE: bool>(
        &mut self,
        placed: &Placed,
        flow: FlowRef<'t>,
        context: ContextId,
        d: &Decision,
        served: Served,
        sink: &mut SinkHandle,
    ) -> DecodeOutcome<'t> {
        let FlowFacts { uops, decoys, .. } = flow.facts();
        self.stats.decoded_insts += 1;
        self.stats.total_uops += u64::from(uops);
        self.stats.decoy_uops += u64::from(decoys);
        if context != ContextId::Native {
            self.stats.custom_decoded += 1;
        }
        if TRACE {
            Self::emit_decode(placed, &flow, context, d.stall_cycles, served, sink);
        }
        DecodeOutcome {
            flow,
            context,
            stall_cycles: d.stall_cycles,
            vector_class: d.vector_class,
        }
    }

    /// A decode's events to `sink`, in order: the decode (with how the
    /// flow table served it), then one event per µop. Per-µop events are
    /// the one per-µop emission in the engine, so they are built only
    /// when a sink is attached.
    fn emit_decode(
        placed: &Placed,
        flow: &FlowRef<'_>,
        context: ContextId,
        stall_cycles: u64,
        served: Served,
        sink: &mut SinkHandle,
    ) {
        let Some(sink) = sink.get() else {
            return;
        };
        let FlowFacts { uops, decoys, .. } = flow.facts();
        sink.on_decode(&DecodeEvent {
            addr: placed.addr,
            context: context.bit(),
            uops,
            decoy_uops: decoys,
            stall_cycles,
            served: match served {
                Served::Hit => flow_served::HIT,
                Served::Miss => flow_served::MISS,
                Served::Bypass => flow_served::BYPASS,
            },
        });
        for u in flow.uops() {
            sink.on_uop_decode(&UopDecodeEvent {
                context: context.bit(),
                class: u.kind.coverage_class(),
            });
        }
    }

    /// Engine-level counters.
    pub fn stats(&self) -> &CsdStats {
        &self.stats
    }

    /// The stealth translator (statistics, armed state).
    pub fn stealth(&self) -> &StealthTranslator {
        &self.stealth
    }

    /// The VPU gate controller (statistics, state).
    pub fn gate(&self) -> &VpuGateController {
        &self.gate
    }

    /// The devectorizer (statistics).
    pub fn devectorizer(&self) -> &Devectorizer {
        &self.devec
    }

    /// The microcode patch table.
    pub fn patches(&self) -> &MsromPatchTable {
        &self.patches
    }
}

impl Default for CsdEngine {
    fn default() -> CsdEngine {
        CsdEngine::new(CsdConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criticality::DevecThresholds;
    use crate::msr::{CTL_DIFT_TRIGGER, CTL_STEALTH, MSR_CSD_CTL, MSR_DATA_RANGE_BASE};
    use mx86_isa::{Gpr, Inst, MemRef, VecOp, Width, Xmm};
    use std::sync::Mutex;

    /// A sink that records the cause of every context change it sees.
    struct Causes(Arc<Mutex<Vec<u8>>>);

    impl csd_telemetry::EventSink for Causes {
        fn on_context_change(&mut self, ev: &ContextChangeEvent) {
            self.0.lock().unwrap().push(ev.cause);
        }
    }

    /// A handle with a [`Causes`] sink attached, and the causes it
    /// records.
    fn recording() -> (SinkHandle, Arc<Mutex<Vec<u8>>>) {
        let causes = Arc::new(Mutex::new(Vec::new()));
        let mut sink = SinkHandle::new();
        sink.attach(Box::new(Causes(Arc::clone(&causes))));
        (sink, causes)
    }

    /// Takes the causes recorded so far.
    fn take(causes: &Mutex<Vec<u8>>) -> Vec<u8> {
        std::mem::take(&mut *causes.lock().unwrap())
    }

    fn load_at(addr: u64) -> Placed {
        Placed {
            addr,
            inst: Inst::Load {
                dst: Gpr::Rax,
                mem: MemRef::base(Gpr::Rbx),
                width: Width::B8,
            },
        }
    }

    #[test]
    fn native_decode_matches_static_translation() {
        let mut e = CsdEngine::default();
        let p = load_at(0x100);
        let out = e.decode(&p, false);
        assert_eq!(out.context, ContextId::Native);
        assert_eq!(out.flow.to_translation(), translate(&p.inst, p.next_addr()));
    }

    #[test]
    fn msr_writes_enable_stealth_path() {
        let mut e = CsdEngine::default();
        e.write_msr(MSR_DATA_RANGE_BASE, 0x8000);
        e.write_msr(MSR_DATA_RANGE_BASE + 1, 0x8000 + 2 * 64);
        e.write_msr(MSR_CSD_CTL, CTL_STEALTH | CTL_DIFT_TRIGGER);

        let out = e.decode(&load_at(0x100), true);
        assert_eq!(out.context, ContextId::Stealth);
        assert!(out.flow.uops().iter().any(|u| u.is_decoy()));
        assert!(e.stats().decoy_uops > 0);
        assert_eq!(e.stats().custom_decoded, 1);

        // Second tainted decode before the watchdog fires: native again.
        let out2 = e.decode(&load_at(0x100), true);
        assert_eq!(out2.context, ContextId::Native);

        // Watchdog re-arms.
        e.tick(1000);
        let out3 = e.decode(&load_at(0x100), true);
        assert_eq!(out3.context, ContextId::Stealth);
    }

    #[test]
    fn devectorization_kicks_in_after_scalar_phase() {
        let cfg = CsdConfig {
            vpu_policy: VpuPolicy::CsdDevec(DevecThresholds {
                window: 8,
                low: 1,
                high: 16,
            }),
            ..CsdConfig::default()
        };
        let mut e = CsdEngine::new(cfg);
        let scalar = Placed {
            addr: 0,
            inst: Inst::MovRI {
                dst: Gpr::Rax,
                imm: 1,
            },
        };
        for _ in 0..8 {
            e.decode(&scalar, false);
        }
        assert!(!e.vpu_available());

        let v = Placed {
            addr: 0x40,
            inst: Inst::VAlu {
                op: VecOp::PAddB,
                dst: Xmm::new(0),
                src: Xmm::new(1),
            },
        };
        let out = e.decode(&v, false);
        assert_eq!(out.context, ContextId::Devectorize);
        assert_eq!(out.vector_class, Some(VectorExecClass::PowerGated));
        assert!(out.flow.uops().len() > 10);
        assert_eq!(out.stall_cycles, 0);
    }

    #[test]
    fn conventional_policy_stalls_instead_of_devectorizing() {
        let cfg = CsdConfig {
            vpu_policy: VpuPolicy::Conventional {
                idle_gate_cycles: 10,
            },
            ..CsdConfig::default()
        };
        let mut e = CsdEngine::new(cfg);
        e.tick(20); // idle → gated
        let v = Placed {
            addr: 0x40,
            inst: Inst::VAlu {
                op: VecOp::PAddB,
                dst: Xmm::new(0),
                src: Xmm::new(1),
            },
        };
        let out = e.decode(&v, false);
        assert_eq!(out.context, ContextId::Native);
        assert_eq!(out.stall_cycles, 30);
        assert_eq!(out.vector_class, Some(VectorExecClass::PoweredOn));
    }

    #[test]
    fn mcu_patch_replaces_translation_in_custom_mode() {
        let mut e = CsdEngine::default();
        let body = vec![Inst::Nop { len: 1 }, Inst::Nop { len: 1 }];
        let mcu = MicrocodeUpdate::new(1, OpcodeClass::Nop, ContextId::Custom(0), false, body);
        assert!(e
            .apply_microcode_update(&mcu, PrivilegeLevel::Kernel)
            .unwrap());
        assert_eq!(
            e.apply_microcode_update(&mcu, PrivilegeLevel::Kernel),
            Ok(false)
        );

        let p = Placed {
            addr: 0,
            inst: Inst::Nop { len: 1 },
        };
        // Custom mode inactive: native.
        assert_eq!(e.decode(&p, false).flow.uops().len(), 1);
        // Active: patched two-µop flow.
        e.set_custom_mode(Some(0));
        let out = e.decode(&p, false);
        assert_eq!(out.flow.uops().len(), 2);
        assert_eq!(out.context, ContextId::Custom(0));
    }

    #[test]
    fn unprivileged_mcu_is_rejected() {
        let mut e = CsdEngine::default();
        let mcu = MicrocodeUpdate::new(1, OpcodeClass::Nop, ContextId::Custom(0), false, vec![]);
        assert_eq!(
            e.apply_microcode_update(&mcu, PrivilegeLevel::User),
            Err(McuError::NotPrivileged)
        );
        assert_eq!(e.stats().mcu_applied, 0);
    }

    #[test]
    fn event_sink_observes_decode_gate_and_stealth() {
        use std::sync::atomic::{AtomicU64, Ordering};

        #[derive(Default)]
        struct Counts {
            decodes: AtomicU64,
            gates: AtomicU64,
            stealth: AtomicU64,
            decoys: AtomicU64,
            msr_changes: AtomicU64,
        }
        struct Shared(Arc<Counts>);
        impl csd_telemetry::EventSink for Shared {
            fn on_decode(&mut self, ev: &DecodeEvent) {
                self.0.decodes.fetch_add(1, Ordering::Relaxed);
                self.0
                    .decoys
                    .fetch_add(u64::from(ev.decoy_uops), Ordering::Relaxed);
                if ev.stealth_window().is_some() {
                    self.0.stealth.fetch_add(1, Ordering::Relaxed);
                }
            }
            fn on_gate(&mut self, _ev: &GateEvent) {
                self.0.gates.fetch_add(1, Ordering::Relaxed);
            }
            fn on_context_change(&mut self, ev: &ContextChangeEvent) {
                if ev.cause == key_cause::MSR {
                    self.0.msr_changes.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        let counts = Arc::new(Counts::default());
        let mut sink = SinkHandle::new();
        sink.attach(Box::new(Shared(Arc::clone(&counts))));
        let cfg = CsdConfig {
            vpu_policy: VpuPolicy::CsdDevec(DevecThresholds {
                window: 8,
                low: 1,
                high: 16,
            }),
            ..CsdConfig::default()
        };
        let mut e = CsdEngine::new(cfg);
        // A set-up write reports nothing; a traced one reports its change.
        e.write_msr(MSR_DATA_RANGE_BASE, 0x8000);
        e.write_msr(MSR_DATA_RANGE_BASE + 1, 0x8000 + 2 * 64);
        assert_eq!(counts.msr_changes.load(Ordering::Relaxed), 0);
        e.write_msr_traced::<true>(MSR_CSD_CTL, CTL_STEALTH | CTL_DIFT_TRIGGER, &mut sink);
        assert_eq!(counts.msr_changes.load(Ordering::Relaxed), 1);

        let mut table = FlowTable::new(2, true);
        // Tainted load: decode + stealth window.
        e.decode_memo_traced::<true>(&load_at(0x100), 0, true, &mut table, &mut sink);
        // Scalar phase long enough to gate the VPU: gate event.
        let scalar = Placed {
            addr: 0,
            inst: Inst::MovRI {
                dst: Gpr::Rax,
                imm: 1,
            },
        };
        for _ in 0..8 {
            e.decode_memo_traced::<true>(&scalar, 1, false, &mut table, &mut sink);
        }

        assert_eq!(counts.decodes.load(Ordering::Relaxed), 9);
        assert_eq!(counts.stealth.load(Ordering::Relaxed), 1);
        assert!(
            counts.gates.load(Ordering::Relaxed) >= 1,
            "gating must emit an event"
        );
        assert_eq!(counts.decoys.load(Ordering::Relaxed), e.stats().decoy_uops);
    }

    /// Property: every MSR write a run makes reports one change, caused
    /// by the MSR, for arbitrary MSR indices and values.
    #[test]
    fn every_traced_msr_write_reports_its_cause() {
        let mut rng = csd_telemetry::SplitMix64::new(0x00C0_FFEE);
        let mut e = CsdEngine::default();
        let (mut sink, causes) = recording();
        for i in 0..2_000u64 {
            e.write_msr_traced::<true>(rng.next_u32(), rng.next_u64(), &mut sink);
            assert_eq!(take(&causes), [key_cause::MSR], "step {i}");
        }
    }

    /// Stealth injection (the window disarms) and the watchdog re-arm each
    /// report their cause.
    #[test]
    fn stealth_injection_and_watchdog_rearm_report_their_causes() {
        let mut e = CsdEngine::default();
        e.write_msr(MSR_DATA_RANGE_BASE, 0x8000);
        e.write_msr(MSR_DATA_RANGE_BASE + 1, 0x8000 + 64);
        e.write_msr(MSR_CSD_CTL, CTL_STEALTH | CTL_DIFT_TRIGGER);
        let (mut sink, causes) = recording();
        let mut table = FlowTable::new(1, true);
        let out = e.decode_memo_traced::<true>(&load_at(0x100), 0, true, &mut table, &mut sink);
        assert_eq!(out.context, ContextId::Stealth);
        assert_eq!(take(&causes), [key_cause::STEALTH_INJECT]);
        e.tick_traced::<true>(10_000, &mut sink);
        assert_eq!(take(&causes), [key_cause::STEALTH_ARM]);
    }

    /// The flow table must be invisible: identical outcomes and statistics
    /// across a mixed stealth/devec decode sequence, with hits actually
    /// occurring.
    #[test]
    fn memoized_decode_is_transparent() {
        fn engine() -> CsdEngine {
            let cfg = CsdConfig {
                vpu_policy: VpuPolicy::CsdDevec(DevecThresholds {
                    window: 8,
                    low: 1,
                    high: 16,
                }),
                ..CsdConfig::default()
            };
            let mut e = CsdEngine::new(cfg);
            e.write_msr(MSR_DATA_RANGE_BASE, 0x8000);
            e.write_msr(MSR_DATA_RANGE_BASE + 1, 0x8000 + 2 * 64);
            e.write_msr(MSR_CSD_CTL, CTL_STEALTH | CTL_DIFT_TRIGGER);
            e
        }
        // The plain engine decodes through a disabled table, which builds
        // every flow afresh, so both can lend a sink.
        let mut plain = engine();
        let mut memoized = engine();
        let mut none = FlowTable::new(3, false);
        let mut memo = FlowTable::new(3, true);
        let (mut plain_sink, plain_causes) = recording();
        let (mut memo_sink, memo_causes) = recording();

        let scalar = Placed {
            addr: 0x10,
            inst: Inst::MovRI {
                dst: Gpr::Rax,
                imm: 1,
            },
        };
        let vector = Placed {
            addr: 0x40,
            inst: Inst::VAlu {
                op: VecOp::PAddB,
                dst: Xmm::new(0),
                src: Xmm::new(1),
            },
        };
        // Loop the same footprint several times: tainted loads (stealth
        // fires on the first, then the window is disarmed), scalars (gate
        // the VPU), vectors (devectorized once gated). Stealth enabled for
        // the first half — its injections bypass the table — then disabled
        // by MSR write for the second half. The table index is each
        // instruction's position in the footprint.
        for round in 0..12 {
            if round == 6 {
                plain.write_msr_traced::<true>(MSR_CSD_CTL, CTL_DIFT_TRIGGER, &mut plain_sink);
                memoized.write_msr_traced::<true>(MSR_CSD_CTL, CTL_DIFT_TRIGGER, &mut memo_sink);
            }
            for (p, index, tainted) in [
                (load_at(0x100), 0, true),
                (scalar, 1, false),
                (scalar, 1, false),
                (vector, 2, false),
                (load_at(0x100), 0, false),
            ] {
                let a = plain.decode_memo_traced::<true>(
                    &p,
                    index,
                    tainted,
                    &mut none,
                    &mut plain_sink,
                );
                let b = memoized.decode_memo_traced::<true>(
                    &p,
                    index,
                    tainted,
                    &mut memo,
                    &mut memo_sink,
                );
                assert_eq!(a.context, b.context, "round {round} @{:#x}", p.addr);
                assert_eq!(a.flow, b.flow);
                assert_eq!(a.stall_cycles, b.stall_cycles);
                assert_eq!(a.vector_class, b.vector_class);
            }
            plain.tick_traced::<true>(50, &mut plain_sink);
            memoized.tick_traced::<true>(50, &mut memo_sink);
        }
        assert_eq!(plain.stats(), memoized.stats());
        assert_eq!(plain.stealth().stats(), memoized.stealth().stats());
        assert_eq!(
            plain.devectorizer().stats(),
            memoized.devectorizer().stats()
        );
        assert_eq!(plain.gate().stats(), memoized.gate().stats());
        // Both report the same changes: the one injection (the watchdog
        // never expires between rounds), then the round-6 MSR write.
        let causes = [key_cause::STEALTH_INJECT, key_cause::MSR];
        assert_eq!(take(&plain_causes), causes);
        assert_eq!(take(&memo_causes), causes);
        let m = memo.stats();
        assert!(m.hits > 0, "table never hit: {m:?}");
        assert!(m.bypasses > 0, "stealth injection never bypassed");
        // One outcome per decode. Only two decodes build into the table
        // and hand out what they built: the scalar's first, and the
        // vector's first, which builds its native and devectorized flows
        // together. The load's first decode injects decoys, a bypass.
        assert_eq!(m.misses, 2, "{m:?}");
        assert_eq!(m.hits + m.misses + m.bypasses, 12 * 5);
    }

    #[test]
    fn stats_count_uops() {
        let mut e = CsdEngine::default();
        e.decode(&load_at(0), false);
        e.decode(&load_at(8), false);
        assert_eq!(e.stats().decoded_insts, 2);
        assert_eq!(e.stats().total_uops, 2);
        assert_eq!(e.stats().custom_decoded, 0);
    }
}
