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
use csd_uops::{fusion, DecoyTarget, FOp, FWidth, Src, UMem, UReg, Uop, UopKind};
use mx86_isa::{Fetched, Gpr, Inst, Placed};

/// Executes (and in cycle mode, times) the decoded µop flow; returns how
/// it ended control-wise. Store events, and the context-change event of
/// a retiring `wrmsr`, reach the core's sink only when `TRACE` (see
/// `Core::run_batch`).
#[inline]
pub(crate) fn run<const TRACE: bool>(core: &mut Core, f: &Fetch, d: &Decoded) -> Option<FlowEnd> {
    let out = &d.out;
    execute_flow::<TRACE>(core, &f.inst, out.flow.uops(), out.stall_cycles)
}

#[inline]
fn execute_flow<const TRACE: bool>(
    core: &mut Core,
    fetched: &Fetched,
    uops: &[Uop],
    stall: u64,
) -> Option<FlowEnd> {
    let timing = core.mode == SimMode::Cycle;
    let inst_ready = core.m.fe_time + stall as f64;
    let mut end = None;
    let mut slot_dispatch = inst_ready;

    for (i, u) in uops.iter().enumerate() {
        // Dispatch bandwidth: fused pairs share a slot.
        let in_prev_slot =
            timing && core.cfg.fusion_enabled && i > 0 && fusion::can_micro_fuse(&uops[i - 1], u);
        if timing && !in_prev_slot {
            slot_dispatch = later(inst_ready, core.m.last_dispatch + core.dispatch_step);
            core.m.last_dispatch = slot_dispatch;
        }

        let (effect, access_latency, mispredicted) =
            exec_uop::<TRACE>(core, u, fetched.placed, fetched.next);

        if timing {
            time_uop(core, u, slot_dispatch, access_latency, mispredicted);
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

/// Back-end timing for one µop.
fn time_uop(core: &mut Core, u: &Uop, dispatch: f64, access_latency: u64, mispredicted: bool) {
    // ROB occupancy: dispatch may not pass the completion of the µop
    // rob_entries back.
    let mut ready = dispatch;
    if core.m.rob.len() >= core.cfg.rob_entries {
        if let Some(head) = core.m.rob.pop_front() {
            ready = later(ready, head);
        }
    }
    // Operand readiness.
    let regs = u.regs();
    for r in regs.reads.into_iter().flatten() {
        ready = later(ready, core.m.sched[r.index()]);
    }
    if matches!(u.kind, UopKind::Br { .. }) {
        ready = later(ready, core.m.flags_ready);
    }

    // Port selection and latency.
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
    // Acquire the earliest-free unit of the class.
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

    // Writeback.
    if let Some(d) = regs.write {
        core.m.sched[d.index()] = done;
    }
    if u.writes_flags() {
        core.m.flags_ready = done;
    }
    // Stack-pointer updates by push/pop.
    if matches!(
        u.kind,
        UopKind::Push { .. } | UopKind::PushImm { .. } | UopKind::Pop { .. }
    ) {
        core.m.sched[UReg::Gpr(Gpr::Rsp).index()] = done;
    }

    // Branch resolution and redirect.
    if mispredicted {
        core.m.fe_time = later(core.m.fe_time, done + core.cfg.mispredict_penalty as f64);
    }

    core.m.rob.push_back(done);
    core.m.last_commit = later(done, core.m.last_commit + core.commit_step);
}
