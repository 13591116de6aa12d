//! Execute stage: functional µop execution plus the timestamp-dataflow
//! back-end timing model (dispatch bandwidth, operand scoreboarding, port
//! contention, ROB occupancy, branch redirects).
//!
//! Each µop kind carries exactly its operands, so nothing here unwraps
//! one; the lint keeps it that way.
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::unwrap_used))]

use crate::clock::later;
use crate::core::{Core, SimMode};
use crate::fu;
use crate::machine::Flags;
use crate::stage::{Decoded, Fetch, FlowEnd, UopEffect};
use csd_cache::AccessKind;
use csd_dift::DIFT_L2_TAG_PENALTY;
use csd_telemetry::StoreEvent;
use csd_uops::{DecoyTarget, FOp, FWidth, PortClass, Src, UMem, UReg, Uop, UopKind, UopTiming};
use mx86_isa::{Gpr, Inst, Placed};

/// Executes (and in cycle mode, times) the decoded µop flow; returns how
/// it ended control-wise. Store events, and the context-change event of
/// a retiring `wrmsr`, reach the core's sink only when `TRACE` (see
/// `Core::run_batch`).
#[inline]
pub(crate) fn run<const TRACE: bool>(core: &mut Core, f: &Fetch, d: &Decoded) -> Option<FlowEnd> {
    let (fetched, uops) = (&f.inst, d.out.flow.uops());
    let timing = core.mode == SimMode::Cycle;
    let inst_ready = core.m.fe_time + d.out.stall_cycles as f64;
    let mut end = None;
    let mut slot_dispatch = inst_ready;

    for (i, u) in uops.iter().enumerate() {
        let t = timing.then(|| u.timing(i.checked_sub(1).map(|p| &uops[p])));
        if let Some(t) = &t {
            slot_dispatch = dispatch(core, t, inst_ready, slot_dispatch);
        }

        let (effect, access_latency, mispredicted) =
            exec_uop::<TRACE>(core, u, fetched.placed, fetched.next);

        if let Some(t) = &t {
            time_uop(core, t, slot_dispatch, access_latency, mispredicted);
        }

        match effect {
            UopEffect::Halt => {
                end = Some(FlowEnd::Halt);
                break;
            }
            UopEffect::Branch(t) => {
                end = Some(FlowEnd::Branch(t));
                // A taken branch ends the flow (branch µops are last in
                // native flows; decoy branches never produce effects).
                break;
            }
            UopEffect::None => {}
        }
    }
    end
}

/// The dispatch time of a µop of an instruction whose µops may dispatch
/// from `inst_ready` on, the previous µop having dispatched at `slot`:
/// a µop that micro-fuses with the previous one shares its slot, and any
/// other takes the next dispatch slot.
#[inline]
pub(crate) fn dispatch(core: &mut Core, t: &UopTiming, inst_ready: f64, slot: f64) -> f64 {
    if core.cfg.fusion_enabled && t.fuses_prev {
        return slot;
    }
    let d = later(inst_ready, core.m.last_dispatch + core.dispatch_step);
    core.m.last_dispatch = d;
    d
}

/// Functionally executes one µop of the macro-op `placed`, whose
/// successor starts at `next`. Returns its control effect, the hierarchy
/// access latency of a memory µop, and whether a (non-decoy) branch µop
/// was mispredicted. The one executor: the per-instruction path and the
/// block path ([`crate::block`]) both run every µop through it.
#[inline(always)]
pub(crate) fn exec_uop<const TRACE: bool>(
    core: &mut Core,
    u: &Uop,
    placed: &Placed,
    next: u64,
) -> (UopEffect, u64, bool) {
    use UopKind as K;
    // Decoy µops: only the cache touch is real; dataflow stays in
    // temporaries and flags/control are suppressed.
    if let Some(target) = u.decoy {
        return match u.kind {
            K::Ld { dst, mem } => {
                let ea = ea(core, &mem);
                let kind = match target {
                    DecoyTarget::Data => AccessKind::DataRead,
                    DecoyTarget::Inst => AccessKind::InstFetch,
                };
                let r = core.m.hier.access(ea, kind);
                let v = core.m.mem.read_le(ea, mem.width.bytes().min(8));
                core.m.state.write(dst, v);
                (UopEffect::None, r.latency, false)
            }
            K::MovImm { dst, imm } => {
                core.m.state.write(dst, imm as u64);
                (UopEffect::None, 0, false)
            }
            K::Alu { op, dst, a, b, .. } => {
                let (res, _) = fu::alu(op, core.m.state.read(a), src(core, b));
                if let Some(d) = dst {
                    core.m.state.write(d, res);
                }
                (UopEffect::None, 0, false)
            }
            // Decoy branches are sequencing artifacts of the unrolled
            // micro-loop: no control effect.
            _ => (UopEffect::None, 0, false),
        };
    }

    let mut effect = UopEffect::None;
    let mut access_latency = 0u64;
    let mut mispredicted = false;
    let mut dift_ea = None;

    match u.kind {
        K::Nop => {}
        K::Mov { dst, src } => {
            let v = core.m.state.read(src);
            core.m.state.write(dst, v);
        }
        K::MovImm { dst, imm } => core.m.state.write(dst, imm as u64),
        K::Alu { op, dst, a, b, .. } => {
            let (res, flags) = fu::alu(op, core.m.state.read(a), src(core, b));
            if let Some(d) = dst {
                core.m.state.write(d, res);
            }
            if u.writes_flags() {
                core.m.state.flags = flags;
            }
        }
        K::Mul { dst, a, b, .. } => {
            let (res, flags) = fu::mul(core.m.state.read(a), src(core, b));
            core.m.state.write(dst, res);
            if u.writes_flags() {
                core.m.state.flags = flags;
            }
        }
        K::FAlu {
            op,
            width,
            dst,
            a,
            b,
        } => {
            let (a, b) = (core.m.state.read(a), core.m.state.read(b));
            let res = match width {
                FWidth::S => {
                    let (fa, fb) = (f32::from_bits(a as u32), f32::from_bits(b as u32));
                    let r = match op {
                        FOp::Add => fa + fb,
                        FOp::Sub => fa - fb,
                        FOp::Mul => fa * fb,
                    };
                    u64::from(r.to_bits())
                }
                FWidth::D => {
                    let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
                    let r = match op {
                        FOp::Add => fa + fb,
                        FOp::Sub => fa - fb,
                        FOp::Mul => fa * fb,
                    };
                    r.to_bits()
                }
            };
            core.m.state.write(dst, res);
        }
        K::DivQ { dst, a, b } | K::DivR { dst, a, b } => {
            let (a, b) = (core.m.state.read(a), core.m.state.read(b));
            let res = if b == 0 {
                0
            } else if matches!(u.kind, K::DivQ { .. }) {
                a / b
            } else {
                a % b
            };
            core.m.state.write(dst, res);
            core.m.state.flags = Flags {
                zf: res == 0,
                sf: false,
                cf: false,
                of: false,
            };
        }
        K::Ld { dst, mem } => {
            let ea = ea(core, &mem);
            let r = core.m.hier.access(ea, AccessKind::DataRead);
            access_latency = r.latency + dift_penalty(core);
            let v = core.m.mem.read_le(ea, mem.width.bytes().min(8));
            core.m.state.write(dst, v);
            dift_ea = Some(ea);
            core.m.stats.load_uops += 1;
        }
        K::St { src, mem } => {
            let ea = ea(core, &mem);
            let w = mem.width.bytes().min(8);
            core.m.hier.access(ea, AccessKind::DataWrite);
            let v = core.m.state.read(src);
            core.m.mem.write_le(ea, w, v);
            emit_store::<TRACE>(core, ea, w, v);
            dift_ea = Some(ea);
            core.m.stats.store_uops += 1;
            access_latency = 1;
        }
        K::Lea { dst, mem } => {
            let ea = ea(core, &mem);
            core.m.state.write(dst, ea);
        }
        K::VLd { dst, mem } => {
            let ea = ea(core, &mem);
            let r = core.m.hier.access(ea, AccessKind::DataRead);
            access_latency = r.latency + dift_penalty(core);
            let v = core.m.mem.read_u128(ea);
            core.m.state.write_v(dst, v);
            dift_ea = Some(ea);
            core.m.stats.load_uops += 1;
        }
        K::VSt { src, mem } => {
            let ea = ea(core, &mem);
            core.m.hier.access(ea, AccessKind::DataWrite);
            let v = core.m.state.read_v(src);
            core.m.mem.write_u128(ea, v);
            emit_store::<TRACE>(core, ea, 8, v.0);
            emit_store::<TRACE>(core, ea.wrapping_add(8), 8, v.1);
            dift_ea = Some(ea);
            core.m.stats.store_uops += 1;
            access_latency = 1;
        }
        K::VMov { dst, src } => {
            let v = core.m.state.read_v(src);
            core.m.state.write_v(dst, v);
        }
        K::VAlu { op, dst, a, b } => {
            let r = fu::valu(op, core.m.state.read_v(a), core.m.state.read_v(b));
            core.m.state.write_v(dst, r);
            core.m.stats.vpu_uops += 1;
        }
        K::VExtractQ { dst, src, hi } => {
            let v = core.m.state.read_v(src);
            core.m.state.write(dst, if hi { v.1 } else { v.0 });
        }
        K::VInsertQ { dst, src, hi } => {
            let mut v = core.m.state.read_v(dst);
            let s = core.m.state.read(src);
            if hi {
                v.1 = s;
            } else {
                v.0 = s;
            }
            core.m.state.write_v(dst, v);
        }
        K::Br { cc, target } => {
            let taken = core.m.state.flags.eval(cc);
            mispredicted = core.m.bp.predict_conditional(placed.addr, taken);
            if taken {
                effect = UopEffect::Branch(target);
            }
        }
        K::JmpImm { target } => {
            if matches!(placed.inst, Inst::Call { .. }) {
                core.m.bp.on_call(next);
            }
            effect = UopEffect::Branch(target);
        }
        K::JmpReg { src } => {
            let target = core.m.state.read(src);
            mispredicted = match placed.inst {
                Inst::Ret => core.m.bp.predict_return(target),
                _ => core.m.bp.predict_indirect(placed.addr, target),
            };
            effect = UopEffect::Branch(target);
        }
        K::PushImm { imm } => {
            dift_ea = Some(push::<TRACE>(core, imm));
            access_latency = 1;
        }
        K::Push { src } => {
            // x86 order: the pushed value is read before rsp moves, so
            // `push rsp` stores the pre-decrement stack pointer.
            let v = core.m.state.read(src);
            dift_ea = Some(push::<TRACE>(core, v));
            access_latency = 1;
        }
        K::Pop { dst } => {
            let rsp = core.m.state.gpr(Gpr::Rsp);
            let r = core.m.hier.access(rsp, AccessKind::DataRead);
            access_latency = r.latency + dift_penalty(core);
            let v = core.m.mem.read_le(rsp, 8);
            // x86 order: rsp is incremented before the destination write,
            // so `pop rsp` ends up holding the loaded value.
            core.m.state.set_gpr(Gpr::Rsp, rsp.wrapping_add(8));
            core.m.state.write(dst, v);
            dift_ea = Some(rsp);
            core.m.stats.load_uops += 1;
        }
        K::Clflush { mem } => {
            let ea = ea(core, &mem);
            core.m.hier.flush(ea);
            access_latency = 4;
        }
        K::Rdtsc { dst } => {
            let c = core.cycles();
            core.m.state.write(dst, c);
        }
        K::Wrmsr { msr, src } => {
            let v = core.m.state.read(src);
            core.m
                .engine
                .write_msr_traced::<TRACE>(msr, v, &mut core.sink);
        }
        K::Rdmsr { dst, msr } => {
            let v = core.m.engine.read_msr(msr);
            core.m.state.write(dst, v);
        }
        K::Halt => effect = UopEffect::Halt,
    }
    if core.cfg.dift_enabled {
        core.m.dift.propagate(u, dift_ea);
    }
    (effect, access_latency, mispredicted)
}

/// `rsp -= 8; [rsp] ← v`; returns the new `rsp`.
fn push<const TRACE: bool>(core: &mut Core, v: u64) -> u64 {
    let rsp = core.m.state.gpr(Gpr::Rsp).wrapping_sub(8);
    core.m.state.set_gpr(Gpr::Rsp, rsp);
    core.m.hier.access(rsp, AccessKind::DataWrite);
    core.m.mem.write_le(rsp, 8, v);
    emit_store::<TRACE>(core, rsp, 8, v);
    core.m.stats.store_uops += 1;
    rsp
}

/// Emits an ordered architectural-store event (the cosimulation oracle
/// compares this stream against the reference interpreter's).
fn emit_store<const TRACE: bool>(core: &mut Core, addr: u64, len: u64, value: u64) {
    if TRACE {
        let ev = StoreEvent {
            addr,
            len: len as u32,
            value: if len >= 8 {
                value
            } else {
                value & ((1u64 << (8 * len)) - 1)
            },
        };
        core.sink.with(|s| s.on_store(&ev));
    }
}

fn dift_penalty(core: &Core) -> u64 {
    if core.cfg.dift_enabled {
        DIFT_L2_TAG_PENALTY
    } else {
        0
    }
}

fn ea(core: &Core, mem: &UMem) -> u64 {
    mem.effective_address(|r| core.m.state.read(r))
}

/// The value of an ALU operand.
fn src(core: &Core, b: Src) -> u64 {
    match b {
        Src::Reg(r) => core.m.state.read(r),
        Src::Imm(i) => i as u64,
    }
}

/// Back-end timing for one µop with timing facts `t`, dispatched at
/// `dispatch`.
#[inline]
pub(crate) fn time_uop(
    core: &mut Core,
    t: &UopTiming,
    dispatch: f64,
    access_latency: u64,
    mispredicted: bool,
) {
    // ROB occupancy: dispatch may not pass the completion of the µop
    // rob_entries back.
    let mut ready = dispatch;
    if let Some(oldest) = core.m.rob.oldest() {
        ready = later(ready, oldest);
    }
    // Operand readiness.
    for r in t.reads {
        if r != UopTiming::NONE {
            ready = later(ready, core.m.sched[usize::from(r)]);
        }
    }
    if t.reads_flags {
        ready = later(ready, core.m.flags_ready);
    }

    // Port selection and latency.
    let cfg = &core.cfg;
    let (lat, occupy, port): (f64, f64, &mut Vec<f64>) = match t.class {
        PortClass::Load => (access_latency as f64, 1.0, &mut core.m.load_ports),
        PortClass::Store => (1.0, 1.0, &mut core.m.store_ports),
        PortClass::Vec => (cfg.vec_latency as f64, 1.0, &mut core.m.vec_ports),
        PortClass::VecMul => (cfg.vec_mul_latency as f64, 1.0, &mut core.m.vec_ports),
        PortClass::Mul => (cfg.mul_latency as f64, 1.0, &mut core.m.alu_ports),
        PortClass::Div => {
            let l = cfg.div_latency as f64;
            (l, l, &mut core.m.alu_ports)
        }
        PortClass::FAlu => (cfg.falu_latency as f64, 1.0, &mut core.m.alu_ports),
        PortClass::Flush => (access_latency as f64, 1.0, &mut core.m.store_ports),
        PortClass::Alu => (cfg.alu_latency as f64, 1.0, &mut core.m.alu_ports),
    };
    // Acquire the earliest-free unit of the class (the first of equals).
    let (mut idx, mut unit_free) = (0, port[0]);
    for (i, &t) in port.iter().enumerate().skip(1) {
        if t < unit_free {
            (idx, unit_free) = (i, t);
        }
    }
    let issue = later(ready, unit_free);
    port[idx] = issue + occupy;
    let done = issue + later(lat, 1.0);

    // Writeback.
    if t.write != UopTiming::NONE {
        core.m.sched[usize::from(t.write)] = done;
    }
    if t.writes_flags {
        core.m.flags_ready = done;
    }
    // Stack-pointer updates by push/pop.
    if t.moves_rsp {
        core.m.sched[UReg::Gpr(Gpr::Rsp).index()] = done;
    }

    // Branch resolution and redirect.
    if mispredicted {
        core.m.fe_time = later(core.m.fe_time, done + core.cfg.mispredict_penalty as f64);
    }

    core.m.rob.push(done);
    core.m.last_commit = later(done, core.m.last_commit + core.commit_step);
}

/// The reorder buffer's occupancy: the completion times of the last
/// `entries` timed µops in a fixed ring, oldest first. A µop may not
/// dispatch past the completion of the µop `entries` back, so once the
/// ring is full each µop reads the oldest time ([`Rob::oldest`]) and
/// overwrites it with its own ([`Rob::push`]). A configuration of no
/// entries keeps one, as a queue that pops only what it pushed would.
#[derive(Debug)]
pub(crate) struct Rob {
    /// The times, oldest at `head` once all `entries` are filled.
    times: Vec<f64>,
    head: usize,
    entries: usize,
}

impl Rob {
    /// An empty ring of `max(entries, 1)` times.
    pub(crate) fn new(entries: usize) -> Rob {
        let entries = entries.max(1);
        Rob {
            times: Vec::with_capacity(entries),
            head: 0,
            entries,
        }
    }

    /// The completion time of the µop `entries` back, once that many
    /// have been timed.
    #[inline]
    pub(crate) fn oldest(&self) -> Option<f64> {
        (self.times.len() == self.entries).then(|| self.times[self.head])
    }

    /// Records the next µop's completion time, over the oldest once the
    /// ring is full.
    #[inline]
    pub(crate) fn push(&mut self, done: f64) {
        if self.times.len() < self.entries {
            self.times.push(done);
            return;
        }
        self.times[self.head] = done;
        self.head += 1;
        if self.head == self.entries {
            self.head = 0;
        }
    }

    /// The times held, oldest first.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &f64> {
        let (newer, older) = self.times.split_at(self.head);
        older.iter().chain(newer)
    }
}

impl Clone for Rob {
    fn clone(&self) -> Rob {
        Rob {
            times: self.times.clone(),
            head: self.head,
            entries: self.entries,
        }
    }

    /// Reuses `self`'s allocation, as a snapshot restore wants.
    fn clone_from(&mut self, src: &Rob) {
        self.times.clone_from(&src.times);
        self.head = src.head;
        self.entries = src.entries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreConfig;
    use csd::{msr, CsdConfig, CsdEngine, Devectorizer};
    use csd_telemetry::SplitMix64;
    use csd_uops::{fusion, translate};
    use mx86_isa::{AluOp, Cc, MemRef, Program, RegImm, Scale, VecOp, Width, Xmm};

    const ALU_OPS: [AluOp; 8] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Sar,
    ];

    const VEC_OPS: [VecOp; 16] = [
        VecOp::PAddB,
        VecOp::PAddW,
        VecOp::PAddD,
        VecOp::PAddQ,
        VecOp::PSubB,
        VecOp::PSubD,
        VecOp::PAnd,
        VecOp::POr,
        VecOp::PXor,
        VecOp::PMullW,
        VecOp::PMullD,
        VecOp::AddPs,
        VecOp::SubPs,
        VecOp::MulPs,
        VecOp::AddPd,
        VecOp::MulPd,
    ];

    /// Every kind of macro-op, with each ALU and vector operation.
    fn insts() -> Vec<Inst> {
        let (a, b) = (Gpr::Rax, Gpr::Rbx);
        let (x, y) = (Xmm::new(1), Xmm::new(2));
        let mem = MemRef::base_index(Gpr::Rsi, Gpr::Rcx, Scale::S8).with_disp(16);
        let mut v = vec![
            Inst::Nop { len: 1 },
            Inst::MovRR { dst: a, src: b },
            Inst::MovRI { dst: a, imm: -3 },
            Inst::Load {
                dst: a,
                mem,
                width: Width::B8,
            },
            Inst::Store {
                mem,
                src: b,
                width: Width::B4,
            },
            Inst::Lea { dst: a, mem },
            Inst::Mul {
                dst: a,
                src: RegImm::Reg(b),
            },
            Inst::Mul {
                dst: a,
                src: RegImm::Imm(5),
            },
            Inst::Div { src: b },
            Inst::Cmp {
                a,
                b: RegImm::Imm(0),
            },
            Inst::Test {
                a,
                b: RegImm::Reg(b),
            },
            Inst::Jmp { target: 0x40 },
            Inst::Jcc {
                cc: Cc::Ne,
                target: 0x40,
            },
            Inst::JmpInd { reg: b },
            Inst::Call { target: 0x80 },
            Inst::Ret,
            Inst::Push { src: Gpr::Rsp },
            Inst::Pop { dst: a },
            Inst::VLoad { dst: x, mem },
            Inst::VStore { mem, src: x },
            Inst::VMovRR { dst: x, src: y },
            Inst::VMovToGpr { dst: a, src: x },
            Inst::VMovFromGpr { dst: x, src: a },
            Inst::Clflush { mem },
            Inst::Rdtsc,
            Inst::Wrmsr { msr: 0x10, src: a },
            Inst::Rdmsr { dst: a, msr: 0x10 },
            Inst::Halt,
        ];
        for op in ALU_OPS {
            v.push(Inst::Alu {
                op,
                dst: a,
                src: RegImm::Reg(b),
            });
            v.push(Inst::AluLoad {
                op,
                dst: a,
                mem,
                width: Width::B2,
            });
            v.push(Inst::AluStore {
                op,
                mem,
                src: RegImm::Imm(7),
                width: Width::B8,
            });
        }
        for op in VEC_OPS {
            v.push(Inst::VAlu { op, dst: x, src: y });
            v.push(Inst::VAluLoad { op, dst: x, mem });
        }
        v
    }

    /// Every flow the translator, the devectorizer and the stealth
    /// sweeps emit for [`insts`].
    fn emitted_flows() -> Vec<Vec<Uop>> {
        let mut devec = Devectorizer::new();
        let mut flows = Vec::new();
        for inst in insts() {
            let native = translate(&inst, 0x1010);
            if let Some(t) = devec.devectorize(&inst, &native) {
                flows.push(t.uops);
            }
            flows.push(native.uops);
            // A stealth sweep of a data and an instruction range, when
            // the instruction is one stealth intercepts.
            let mut engine = CsdEngine::new(CsdConfig::default());
            engine.write_msr(msr::MSR_DATA_RANGE_BASE, 0x8000);
            engine.write_msr(msr::MSR_DATA_RANGE_BASE + 1, 0x8000 + 4 * 64);
            engine.write_msr(msr::MSR_INST_RANGE_BASE, 0x1000);
            engine.write_msr(msr::MSR_INST_RANGE_BASE + 1, 0x1000 + 2 * 64);
            engine.write_msr(msr::MSR_CSD_CTL, msr::CTL_STEALTH | msr::CTL_DIFT_TRIGGER);
            let out = engine.decode(&Placed { addr: 0x1000, inst }, true);
            if out.flow.facts().decoys > 0 {
                flows.push(out.flow.uops().to_vec());
            }
        }
        flows
    }

    /// `time_uop` as it was before [`UopTiming`]: it matched on the µop.
    fn time_uop_by_kind(
        core: &mut Core,
        u: &Uop,
        dispatch: f64,
        access_latency: u64,
        mispredicted: bool,
    ) {
        let mut ready = dispatch;
        if let Some(oldest) = core.m.rob.oldest() {
            ready = later(ready, oldest);
        }
        let regs = u.regs();
        for r in regs.reads.into_iter().flatten() {
            ready = later(ready, core.m.sched[r.index()]);
        }
        if matches!(u.kind, UopKind::Br { .. }) {
            ready = later(ready, core.m.flags_ready);
        }
        let (lat, occupy, port): (f64, f64, &mut Vec<f64>) = match u.kind {
            _ if u.kind.is_load() => (access_latency as f64, 1.0, &mut core.m.load_ports),
            _ if u.kind.is_store() => (1.0, 1.0, &mut core.m.store_ports),
            UopKind::VAlu { op, .. } => {
                let l = if op.is_multiply() || op.is_float() {
                    core.cfg.vec_mul_latency
                } else {
                    core.cfg.vec_latency
                };
                (l as f64, 1.0, &mut core.m.vec_ports)
            }
            UopKind::Mul { .. } => (core.cfg.mul_latency as f64, 1.0, &mut core.m.alu_ports),
            UopKind::DivQ { .. } | UopKind::DivR { .. } => {
                let l = core.cfg.div_latency as f64;
                (l, l, &mut core.m.alu_ports)
            }
            UopKind::FAlu { .. } => (core.cfg.falu_latency as f64, 1.0, &mut core.m.alu_ports),
            UopKind::Clflush { .. } => (access_latency as f64, 1.0, &mut core.m.store_ports),
            _ => (core.cfg.alu_latency as f64, 1.0, &mut core.m.alu_ports),
        };
        let (idx, unit_free) =
            port.iter()
                .copied()
                .enumerate()
                .fold((0usize, f64::INFINITY), |acc, (i, t)| {
                    if t < acc.1 {
                        (i, t)
                    } else {
                        acc
                    }
                });
        let issue = later(ready, unit_free);
        port[idx] = issue + occupy;
        let done = issue + later(lat, 1.0);
        if let Some(d) = regs.write {
            core.m.sched[d.index()] = done;
        }
        if u.writes_flags() {
            core.m.flags_ready = done;
        }
        if matches!(
            u.kind,
            UopKind::Push { .. } | UopKind::PushImm { .. } | UopKind::Pop { .. }
        ) {
            core.m.sched[UReg::Gpr(Gpr::Rsp).index()] = done;
        }
        if mispredicted {
            core.m.fe_time = later(core.m.fe_time, done + core.cfg.mispredict_penalty as f64);
        }
        core.m.rob.push(done);
        core.m.last_commit = later(done, core.m.last_commit + core.commit_step);
    }

    /// A timestamp on the engine's 1/48-cycle grid.
    fn stamp(rng: &mut SplitMix64) -> f64 {
        rng.range_u64(0, 48 * 64) as f64 / 48.0
    }

    /// Every timing register of the machine, as bits.
    fn timing_bits(core: &Core) -> Vec<u64> {
        let m = &core.m;
        let ports = [&m.alu_ports, &m.load_ports, &m.store_ports, &m.vec_ports];
        [m.fe_time, m.last_dispatch, m.last_commit, m.flags_ready]
            .iter()
            .chain(&m.sched)
            .chain(ports.into_iter().flatten())
            .chain(m.rob.iter())
            .map(|t| t.to_bits())
            .collect()
    }

    /// The ring answers as the queue it replaced, which popped its head
    /// once `rob_entries` were queued (any head at all with none) and
    /// then pushed.
    #[test]
    fn rob_ring_matches_the_queue_it_replaced() {
        let mut rng = SplitMix64::new(0x20B);
        for entries in [0, 1, 2, 3, 7, 168] {
            let mut ring = Rob::new(entries);
            let mut queue = std::collections::VecDeque::new();
            for _ in 0..1000 {
                let head = if queue.len() >= entries {
                    queue.pop_front()
                } else {
                    None
                };
                assert_eq!(ring.oldest(), head, "{entries} entries");
                let done = stamp(&mut rng);
                ring.push(done);
                queue.push_back(done);
                assert!(ring.iter().eq(queue.iter()), "{entries} entries");
            }
            let mut copy = Rob::new(entries + 5);
            copy.clone_from(&ring);
            assert!(copy.iter().eq(ring.iter()) && copy.oldest() == ring.oldest());
        }
    }

    #[test]
    fn uop_timing_matches_regs_and_the_kind_match() {
        let mut rng = SplitMix64::new(0x71A1);
        let mut core = Core::new(
            CoreConfig::default(),
            CsdConfig::default(),
            Program::default(),
            crate::SimMode::Cycle,
        );
        let flows = emitted_flows();
        let all = || flows.iter().flatten();
        for target in [DecoyTarget::Data, DecoyTarget::Inst] {
            assert!(all().any(|u| u.decoy == Some(target)), "{target:?} decoys");
        }
        let classes: std::collections::HashSet<PortClass> = flows
            .iter()
            .flat_map(|f| UopTiming::of_flow(f))
            .map(|t| t.class)
            .collect();
        assert_eq!(classes.len(), 9, "every port class: {classes:?}");
        for flow in &flows {
            for (i, t) in UopTiming::of_flow(flow).enumerate() {
                let u = &flow[i];
                let index = |r: Option<UReg>| r.map_or(UopTiming::NONE, |r| r.index() as u8);
                let regs = u.regs();
                assert_eq!(t.reads, regs.reads.map(index), "{u}");
                assert_eq!(t.write, index(regs.write), "{u}");
                assert_eq!(t.writes_flags, u.writes_flags(), "{u}");
                let prev = i.checked_sub(1).map(|p| &flow[p]);
                let fuses = prev.is_some_and(|p| fusion::can_micro_fuse(p, u));
                assert_eq!(t.fuses_prev, fuses, "{u}");

                // The same step from the same random machine state.
                let m = &mut core.m;
                m.sched = std::array::from_fn(|_| stamp(&mut rng));
                for port in [&mut m.alu_ports, &mut m.load_ports, &mut m.vec_ports] {
                    port.iter_mut().for_each(|p| *p = stamp(&mut rng));
                }
                m.store_ports[0] = stamp(&mut rng);
                // From partly filled to wrapped more than once.
                m.rob = Rob::new(core.cfg.rob_entries);
                for _ in 0..rng.range_usize(166, 400) {
                    m.rob.push(stamp(&mut rng));
                }
                (m.fe_time, m.flags_ready, m.last_commit) =
                    (stamp(&mut rng), stamp(&mut rng), stamp(&mut rng));
                let mut reference = Core::new(
                    CoreConfig::default(),
                    CsdConfig::default(),
                    Program::default(),
                    crate::SimMode::Cycle,
                );
                reference.m = core.m.clone();
                let (dispatch, latency) = (stamp(&mut rng), rng.range_u64(0, 300));
                let mispredicted = rng.next_bool();
                time_uop(&mut core, &t, dispatch, latency, mispredicted);
                time_uop_by_kind(&mut reference, u, dispatch, latency, mispredicted);
                assert_eq!(timing_bits(&core), timing_bits(&reference), "{u}");
            }
        }
    }
}
