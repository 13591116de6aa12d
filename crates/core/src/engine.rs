//! The context-sensitive decoding engine: the single decode entry point
//! the pipeline integrates at its decoder stage.

use crate::devec::Devectorizer;
use crate::gating::{VectorDecision, VpuGateController, VpuPolicy, VpuState};
use crate::mcu::{McuError, MicrocodeUpdate, MsromPatchTable, OpcodeClass, PrivilegeLevel};
use crate::mode::{ContextId, VectorExecClass};
use crate::msr::MsrFile;
use crate::stealth::{StealthConfig, StealthTranslator};
use csd_power::GatingParams;
use csd_telemetry::coverage::{key_cause, memo_probe};
use csd_telemetry::{
    ContextKeyEvent, DecodeEvent, EventSink, GateEvent, Json, MemoProbeEvent, SinkHandle,
    StealthWindowEvent, ToJson, UopDecodeEvent,
};
use csd_uops::{translate, Flow, FlowFacts, FlowRef, FlowTable, Served, Stored, Translation};
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
/// [`CsdEngine::decode`] for every macro-op, [`CsdEngine::tick`] as cycles
/// elapse, and [`CsdEngine::write_msr`] when `wrmsr` retires.
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
    sink: SinkHandle,
    /// Monotonically increasing decoder-context generation; see
    /// [`CsdEngine::context_key`].
    context_gen: u64,
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
            sink: SinkHandle::new(),
            context_gen: 0,
        }
    }

    /// The current decoder-context generation: a monotonically increasing
    /// key that changes whenever anything that can influence translation
    /// changes — an MSR write, a microcode update, a custom-mode switch, a
    /// stealth-window arm/disarm, or a VPU gate-state change. Two decodes
    /// of the same `(pc, tainted)` under the same key produce the same µop
    /// flow. The key feeds telemetry and coverage (every bump reports its
    /// cause); the flow table does not need it, because what the table
    /// stores depends on the instruction alone.
    pub fn context_key(&self) -> u64 {
        self.context_gen
    }

    /// Resets the context generation to zero, as on a freshly constructed
    /// engine (`Core::restart` rewinds its kernel bookkeeping this way).
    pub fn reset_context_key(&mut self) {
        self.context_gen = 0;
    }

    /// Attaches an event sink; decode, gate, and stealth-window events
    /// flow to it from now on. With no sink attached (the default) each
    /// emission site costs a single `Option` test.
    pub fn set_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sink.attach(sink);
    }

    /// Detaches and returns the current event sink, if any.
    pub fn take_event_sink(&mut self) -> Option<Box<dyn EventSink>> {
        self.sink.detach()
    }

    /// Advances the context generation and reports why. Every bump site
    /// funnels through here so coverage tools see the full transition
    /// stream; with no sink attached the cost stays one `Option` test.
    fn bump_context(&mut self, cause: u8) {
        self.context_gen += 1;
        let ev = ContextKeyEvent {
            key: self.context_gen,
            cause,
        };
        self.sink.with(|s| s.on_context_key(&ev));
    }

    /// Emits a [`GateEvent`] if the VPU's gated-ness changed since `was`.
    fn emit_gate_delta(&mut self, was: VpuState) {
        let now = self.gate.state();
        if (was == VpuState::Gated) != (now == VpuState::Gated) {
            let ev = GateEvent {
                gated: now == VpuState::Gated,
                transitions: self.gate.stats().gate_transitions,
            };
            self.sink.with(|s| s.on_gate(&ev));
        }
    }

    /// Writes an MSR. Writes inside the CSD block re-snapshot the stealth
    /// translator's internal registers (the decoder's register-tracking
    /// optimization noticing the update).
    pub fn write_msr(&mut self, msr: u32, value: u64) {
        self.msrs.write(msr, value);
        if MsrFile::is_csd_msr(msr) {
            self.stealth.configure(&self.msrs);
        }
        self.bump_context(key_cause::MSR);
    }

    /// Reads an MSR.
    pub fn read_msr(&self, msr: u32) -> u64 {
        self.msrs.read(msr)
    }

    /// Mutable access to the MSR file for bulk configuration; call
    /// [`CsdEngine::refresh`] afterwards.
    pub fn msrs_mut(&mut self) -> &mut MsrFile {
        &mut self.msrs
    }

    /// Re-snapshots decoder state from the MSR file.
    pub fn refresh(&mut self) {
        self.stealth.configure(&self.msrs);
        self.bump_context(key_cause::REFRESH);
    }

    /// Activates (or deactivates) a custom MCU-installed translation mode.
    pub fn set_custom_mode(&mut self, mode: Option<u8>) {
        self.active_custom = mode;
        self.bump_context(key_cause::CUSTOM_MODE);
    }

    /// Replaces the VPU gating policy, restarting the gate controller
    /// under its existing gating-cost parameters. Changing the policy
    /// changes what subsequent decodes produce (devectorization depends
    /// on it), so the context generation bumps.
    pub fn set_vpu_policy(&mut self, policy: VpuPolicy) {
        self.gate.set_policy(policy);
        self.bump_context(key_cause::VPU_POLICY);
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
        self.bump_context(key_cause::MCU);
        Ok(installed)
    }

    /// Advances time: watchdog countdown and VPU gate-state residency.
    /// A watchdog re-arm or a VPU state change bumps the context
    /// generation (both alter what subsequent decodes produce).
    pub fn tick(&mut self, cycles: u64) {
        let armed_was = self.stealth.armed();
        self.stealth.tick(cycles);
        if self.stealth.armed() != armed_was {
            self.bump_context(key_cause::STEALTH_ARM);
        }
        let was = self.gate.state();
        self.gate.tick(cycles);
        if self.gate.state() != was {
            self.bump_context(key_cause::GATE);
        }
        self.emit_gate_delta(was);
    }

    /// Whether the VPU is powered and usable this cycle.
    pub fn vpu_available(&self) -> bool {
        self.gate.vpu_available()
    }

    /// The decision phase every decode runs first, whether or not a
    /// table serves the flow: MCU patch lookup for the active custom mode
    /// and the VPU gate controller's verdict (with its events and key
    /// bump).
    fn decide(&mut self, inst: &Inst) -> Decision {
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
        self.emit_gate_delta(gate_was);
        if self.gate.state() != gate_was {
            self.bump_context(key_cause::GATE);
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
        let d = self.decide(&placed.inst);
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
        let (flow, context) = match self.inject(placed, tainted, || base.to_translation()) {
            Some(f) => (FlowRef::Fresh(f), ContextId::Stealth),
            None => (base, context),
        };
        self.finish_decode(placed, flow, context, &d, Served::Bypass)
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
    /// come from the patch table and stealth injections are built fresh;
    /// both count as bypasses, as does every decode through a disabled
    /// table. The returned flow borrows `table`, not the engine.
    pub fn decode_memo<'t>(
        &mut self,
        placed: &Placed,
        index: usize,
        tainted: bool,
        table: &'t mut FlowTable,
    ) -> DecodeOutcome<'t> {
        if !table.enabled() {
            table.record(Served::Bypass);
            return self.decode(placed, tainted);
        }
        let d = self.decide(&placed.inst);
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
            Base::Table(s) => self.inject(placed, tainted, || table.get(*s).to_translation()),
            Base::Patch(p) => self.inject(placed, tainted, || {
                FlowRef::Shared(Arc::clone(p)).to_translation()
            }),
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
        self.finish_decode(placed, flow, context, &d, served)
    }

    /// Stealth decoy injection on top of the chosen flow: the fresh flow
    /// when the armed window intercepts this decode (which disarms it, a
    /// context transition). The base translation is built only then.
    fn inject(
        &mut self,
        placed: &Placed,
        tainted: bool,
        base: impl FnOnce() -> Translation,
    ) -> Option<Flow> {
        if !self.stealth.should_intercept(placed, tainted) {
            return None;
        }
        let t = self.stealth.on_decode(placed, &base(), tainted)?;
        self.bump_context(key_cause::STEALTH_INJECT);
        Some(Flow::new(t))
    }

    /// Shared tail of both decode paths: statistics, event emission
    /// (including how the flow was `served`), and the outcome.
    fn finish_decode<'t>(
        &mut self,
        placed: &Placed,
        flow: FlowRef<'t>,
        context: ContextId,
        d: &Decision,
        served: Served,
    ) -> DecodeOutcome<'t> {
        let ev = MemoProbeEvent {
            outcome: match served {
                Served::Hit => memo_probe::HIT,
                Served::Miss => memo_probe::MISS,
                Served::Bypass => memo_probe::BYPASS,
            },
        };
        self.sink.with(|s| s.on_memo_probe(&ev));

        let FlowFacts { uops, decoys, .. } = flow.facts();
        self.stats.decoded_insts += 1;
        self.stats.total_uops += u64::from(uops);
        self.stats.decoy_uops += u64::from(decoys);
        if context != ContextId::Native {
            self.stats.custom_decoded += 1;
        }

        let ev = DecodeEvent {
            addr: placed.addr,
            context: context.bit(),
            uops,
            decoy_uops: decoys,
            stall_cycles: d.stall_cycles,
        };
        self.sink.with(|s| s.on_decode(&ev));
        // Per-µop events are the one per-µop emission in the engine;
        // the attachment test keeps the detached hot path at the usual
        // single Option check per macro-op.
        if self.sink.is_attached() {
            for u in flow.uops() {
                let ev = UopDecodeEvent {
                    context: context.bit(),
                    class: u.kind.coverage_class(),
                };
                self.sink.with(|s| s.on_uop_decode(&ev));
            }
        }
        if context == ContextId::Stealth && decoys > 0 {
            let ev = StealthWindowEvent {
                addr: placed.addr,
                decoy_uops: decoys,
            };
            self.sink.with(|s| s.on_stealth_window(&ev));
        }

        DecodeOutcome {
            flow,
            context,
            stall_cycles: d.stall_cycles,
            vector_class: d.vector_class,
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
        use std::sync::Arc;

        #[derive(Default)]
        struct Counts {
            decodes: AtomicU64,
            gates: AtomicU64,
            stealth: AtomicU64,
            decoys: AtomicU64,
        }
        struct Shared(Arc<Counts>);
        impl csd_telemetry::EventSink for Shared {
            fn on_decode(&mut self, ev: &csd_telemetry::DecodeEvent) {
                self.0.decodes.fetch_add(1, Ordering::Relaxed);
                self.0
                    .decoys
                    .fetch_add(u64::from(ev.decoy_uops), Ordering::Relaxed);
            }
            fn on_gate(&mut self, _ev: &csd_telemetry::GateEvent) {
                self.0.gates.fetch_add(1, Ordering::Relaxed);
            }
            fn on_stealth_window(&mut self, ev: &csd_telemetry::StealthWindowEvent) {
                self.0.stealth.fetch_add(1, Ordering::Relaxed);
                assert!(ev.decoy_uops > 0);
            }
        }

        let counts = Arc::new(Counts::default());
        let cfg = CsdConfig {
            vpu_policy: VpuPolicy::CsdDevec(DevecThresholds {
                window: 8,
                low: 1,
                high: 16,
            }),
            ..CsdConfig::default()
        };
        let mut e = CsdEngine::new(cfg);
        e.set_event_sink(Box::new(Shared(Arc::clone(&counts))));
        e.write_msr(MSR_DATA_RANGE_BASE, 0x8000);
        e.write_msr(MSR_DATA_RANGE_BASE + 1, 0x8000 + 2 * 64);
        e.write_msr(MSR_CSD_CTL, CTL_STEALTH | CTL_DIFT_TRIGGER);

        // Tainted load: decode + stealth window.
        e.decode(&load_at(0x100), true);
        // Scalar phase long enough to gate the VPU: gate event.
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

        assert_eq!(counts.decodes.load(Ordering::Relaxed), 9);
        assert_eq!(counts.stealth.load(Ordering::Relaxed), 1);
        assert!(
            counts.gates.load(Ordering::Relaxed) >= 1,
            "gating must emit an event"
        );
        assert_eq!(counts.decoys.load(Ordering::Relaxed), e.stats().decoy_uops);
        assert!(e.take_event_sink().is_some());
        // Cloning an engine never drags the sink along.
        e.set_event_sink(Box::new(Shared(Arc::clone(&counts))));
        let cloned = e.clone();
        let before = counts.decodes.load(Ordering::Relaxed);
        let mut cloned = cloned;
        cloned.decode(&load_at(0x200), false);
        assert_eq!(counts.decodes.load(Ordering::Relaxed), before);
    }

    /// Property: any MSR write or (verified) microcode update strictly
    /// increases the context key, for arbitrary MSR indices and values.
    #[test]
    fn context_key_strictly_increases_on_msr_and_mcu() {
        let mut rng = csd_telemetry::SplitMix64::new(0x00C0_FFEE);
        let mut e = CsdEngine::default();
        for i in 0..2_000u64 {
            let before = e.context_key();
            if i % 5 == 4 {
                let mode = rng.next_u8() % 8;
                let mcu = MicrocodeUpdate::new(
                    i as u32 + 1,
                    OpcodeClass::Nop,
                    ContextId::Custom(mode),
                    false,
                    vec![Inst::Nop { len: 1 }],
                );
                e.apply_microcode_update(&mcu, PrivilegeLevel::Kernel)
                    .unwrap();
            } else {
                e.write_msr(rng.next_u32(), rng.next_u64());
            }
            assert!(
                e.context_key() > before,
                "context key did not advance (step {i})"
            );
        }
        // Rejected updates change nothing and must not bump the key.
        let before = e.context_key();
        let mcu = MicrocodeUpdate::new(1, OpcodeClass::Nop, ContextId::Custom(0), false, vec![]);
        assert!(e
            .apply_microcode_update(&mcu, PrivilegeLevel::User)
            .is_err());
        assert_eq!(e.context_key(), before);
    }

    #[test]
    fn custom_mode_and_refresh_bump_context_key() {
        let mut e = CsdEngine::default();
        let k0 = e.context_key();
        e.set_custom_mode(Some(3));
        assert!(e.context_key() > k0);
        let k1 = e.context_key();
        e.refresh();
        assert!(e.context_key() > k1);
    }

    /// The one transition `tick` can cause on a default engine is the
    /// stealth watchdog re-arm; it must bump the key.
    #[test]
    fn watchdog_rearm_bumps_context_key() {
        let mut e = CsdEngine::default();
        e.write_msr(MSR_DATA_RANGE_BASE, 0x8000);
        e.write_msr(MSR_DATA_RANGE_BASE + 1, 0x8000 + 64);
        e.write_msr(MSR_CSD_CTL, CTL_STEALTH | CTL_DIFT_TRIGGER);
        // Injection disarms: bump.
        let k0 = e.context_key();
        assert_eq!(e.decode(&load_at(0x100), true).context, ContextId::Stealth);
        assert!(e.context_key() > k0);
        // Watchdog expiry re-arms: bump.
        let k1 = e.context_key();
        e.tick(10_000);
        assert!(e.context_key() > k1);
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
        let mut plain = engine();
        let mut memoized = engine();
        let mut memo = FlowTable::new(3, true);

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
                plain.write_msr(MSR_CSD_CTL, CTL_DIFT_TRIGGER);
                memoized.write_msr(MSR_CSD_CTL, CTL_DIFT_TRIGGER);
            }
            for (p, index, tainted) in [
                (load_at(0x100), 0, true),
                (scalar, 1, false),
                (scalar, 1, false),
                (vector, 2, false),
                (load_at(0x100), 0, false),
            ] {
                let a = plain.decode(&p, tainted);
                let b = memoized.decode_memo(&p, index, tainted, &mut memo);
                assert_eq!(a.context, b.context, "round {round} @{:#x}", p.addr);
                assert_eq!(a.flow, b.flow);
                assert_eq!(a.stall_cycles, b.stall_cycles);
                assert_eq!(a.vector_class, b.vector_class);
            }
            plain.tick(50);
            memoized.tick(50);
        }
        assert_eq!(plain.stats(), memoized.stats());
        assert_eq!(plain.stealth().stats(), memoized.stealth().stats());
        assert_eq!(
            plain.devectorizer().stats(),
            memoized.devectorizer().stats()
        );
        assert_eq!(plain.gate().stats(), memoized.gate().stats());
        assert_eq!(plain.context_key(), memoized.context_key());
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
