//! Execute stage: functional µop execution plus the timestamp-dataflow
//! back-end timing model (dispatch bandwidth, operand scoreboarding, port
//! contention, ROB occupancy, branch redirects).

use crate::clock::later;
use crate::core::{Core, SimMode};
use crate::fu;
use crate::machine::Flags;
use crate::stage::{Decoded, Fetch, FlowEnd, UopEffect};
use csd_cache::AccessKind;
use csd_dift::DIFT_L2_TAG_PENALTY;
use csd_telemetry::StoreEvent;
use csd_uops::{fusion, DecoyTarget, UReg, Uop, UopKind};
use mx86_isa::{Fetched, Gpr, Inst};

/// Executes (and in cycle mode, times) the decoded µop flow; returns how
/// it ended control-wise.
#[inline]
pub(crate) fn run(core: &mut Core, f: &Fetch, d: &Decoded) -> Option<FlowEnd> {
    let out = &d.out;
    execute_flow(core, &f.inst, out.flow.uops(), out.stall_cycles)
}

fn execute_flow(core: &mut Core, fetched: &Fetched, uops: &[Uop], stall: u64) -> Option<FlowEnd> {
    let timing = core.mode == SimMode::Cycle;
    let inst_ready = core.fe_time + stall as f64;
    let mut end = None;
    let mut slot_dispatch = inst_ready;

    for (i, u) in uops.iter().enumerate() {
        // Dispatch bandwidth: fused pairs share a slot.
        let in_prev_slot =
            timing && core.cfg.fusion_enabled && i > 0 && fusion::can_micro_fuse(&uops[i - 1], u);
        if timing && !in_prev_slot {
            slot_dispatch = later(inst_ready, core.last_dispatch + core.dispatch_step);
            core.last_dispatch = slot_dispatch;
        }

        let (effect, access_latency) = exec_uop(core, u, fetched);

        if timing {
            time_uop(core, u, slot_dispatch, access_latency);
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

/// Functionally executes one µop. Returns its control effect and, for
/// memory µops, the hierarchy access latency.
fn exec_uop(core: &mut Core, u: &Uop, fetched: &Fetched) -> (UopEffect, u64) {
    let placed = &fetched.placed;
    // Decoy µops: only the cache touch is real; dataflow stays in
    // temporaries and flags/control are suppressed.
    if let Some(target) = u.decoy {
        return match u.kind {
            UopKind::Ld => {
                let ea = ea(core, u);
                let kind = match target {
                    DecoyTarget::Data => AccessKind::DataRead,
                    DecoyTarget::Inst => AccessKind::InstFetch,
                };
                let r = core.hier.access(ea, kind);
                if let Some(d) = u.dst {
                    let v = core
                        .mem
                        .read_le(ea, u.mem.map_or(1, |m| m.width.bytes().min(8)));
                    core.state.write(d, v);
                }
                (UopEffect::None, r.latency)
            }
            UopKind::MovImm => {
                if let Some(d) = u.dst {
                    core.state.write(d, u.imm.unwrap_or(0) as u64);
                }
                (UopEffect::None, 0)
            }
            UopKind::Alu(op) => {
                let a = u.src1.map_or(0, |r| core.state.read(r));
                let b = u
                    .src2
                    .map(|r| core.state.read(r))
                    .unwrap_or(u.imm.unwrap_or(0) as u64);
                let (res, _) = fu::alu(op, a, b);
                if let Some(d) = u.dst {
                    core.state.write(d, res);
                }
                (UopEffect::None, 0)
            }
            // Decoy branches are sequencing artifacts of the unrolled
            // micro-loop: no control effect.
            _ => (UopEffect::None, 0),
        };
    }

    let dift_ea = |u: &Uop, ea: Option<u64>| ea.filter(|_| u.mem.is_some());
    let mut effect = UopEffect::None;
    let mut access_latency = 0u64;

    match u.kind {
        UopKind::Nop => {}
        UopKind::Mov => {
            let v = core.state.read(u.src1.expect("mov has src"));
            core.state.write(u.dst.expect("mov has dst"), v);
            core.dift.propagate(u, None);
        }
        UopKind::MovImm => {
            core.state
                .write(u.dst.expect("movimm has dst"), u.imm.unwrap_or(0) as u64);
            core.dift.propagate(u, None);
        }
        UopKind::Alu(op) => {
            let a = u.src1.map_or(0, |r| core.state.read(r));
            let b = u
                .src2
                .map(|r| core.state.read(r))
                .unwrap_or(u.imm.unwrap_or(0) as u64);
            let (res, flags) = fu::alu(op, a, b);
            if let Some(d) = u.dst {
                core.state.write(d, res);
            }
            if !u.no_flags {
                core.state.flags = flags;
            }
            core.dift.propagate(u, None);
        }
        UopKind::Mul => {
            let a = u.src1.map_or(0, |r| core.state.read(r));
            let b = u
                .src2
                .map(|r| core.state.read(r))
                .unwrap_or(u.imm.unwrap_or(0) as u64);
            let (res, flags) = fu::mul(a, b);
            if let Some(d) = u.dst {
                core.state.write(d, res);
            }
            if !u.no_flags {
                core.state.flags = flags;
            }
            core.dift.propagate(u, None);
        }
        UopKind::FAlu(op, w) => {
            let a = core.state.read(u.src1.expect("falu src1"));
            let b = core.state.read(u.src2.expect("falu src2"));
            let res = match w {
                csd_uops::FWidth::S => {
                    let (fa, fb) = (f32::from_bits(a as u32), f32::from_bits(b as u32));
                    let r = match op {
                        csd_uops::FOp::Add => fa + fb,
                        csd_uops::FOp::Sub => fa - fb,
                        csd_uops::FOp::Mul => fa * fb,
                    };
                    u64::from(r.to_bits())
                }
                csd_uops::FWidth::D => {
                    let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
                    let r = match op {
                        csd_uops::FOp::Add => fa + fb,
                        csd_uops::FOp::Sub => fa - fb,
                        csd_uops::FOp::Mul => fa * fb,
                    };
                    r.to_bits()
                }
            };
            core.state.write(u.dst.expect("falu dst"), res);
            core.dift.propagate(u, None);
        }
        UopKind::DivQ | UopKind::DivR => {
            let a = core.state.read(u.src1.expect("div src1"));
            let b = core.state.read(u.src2.expect("div src2"));
            let res = if b == 0 {
                0
            } else if u.kind == UopKind::DivQ {
                a / b
            } else {
                a % b
            };
            if let Some(d) = u.dst {
                core.state.write(d, res);
            }
            core.state.flags = Flags {
                zf: res == 0,
                sf: false,
                cf: false,
                of: false,
            };
            core.dift.propagate(u, None);
        }
        UopKind::Ld => {
            let ea = ea(core, u);
            let w = u.mem.expect("load has mem").width.bytes();
            let r = core.hier.access(ea, AccessKind::DataRead);
            access_latency = r.latency + dift_penalty(core);
            let v = core.mem.read_le(ea, w.min(8));
            core.state.write(u.dst.expect("load has dst"), v);
            core.dift.propagate(u, dift_ea(u, Some(ea)));
            core.stats.load_uops += 1;
        }
        UopKind::St => {
            let ea = ea(core, u);
            let w = u.mem.expect("store has mem").width.bytes();
            core.hier.access(ea, AccessKind::DataWrite);
            let v = core.state.read(u.src1.expect("store has src"));
            core.mem.write_le(ea, w.min(8), v);
            emit_store(core, ea, w.min(8), v);
            core.dift.propagate(u, Some(ea));
            core.stats.store_uops += 1;
            access_latency = 1;
        }
        UopKind::Lea => {
            let ea = ea(core, u);
            core.state.write(u.dst.expect("lea has dst"), ea);
            core.dift.propagate(u, None);
        }
        UopKind::VLd => {
            let ea = ea(core, u);
            let r = core.hier.access(ea, AccessKind::DataRead);
            access_latency = r.latency + dift_penalty(core);
            let v = core.mem.read_u128(ea);
            core.state.write_v(u.dst.expect("vld has dst"), v);
            core.dift.propagate(u, Some(ea));
            core.stats.load_uops += 1;
        }
        UopKind::VSt => {
            let ea = ea(core, u);
            core.hier.access(ea, AccessKind::DataWrite);
            let v = core.state.read_v(u.src1.expect("vst has src"));
            core.mem.write_u128(ea, v);
            emit_store(core, ea, 8, v.0);
            emit_store(core, ea.wrapping_add(8), 8, v.1);
            core.dift.propagate(u, Some(ea));
            core.stats.store_uops += 1;
            access_latency = 1;
        }
        UopKind::VMov => {
            let v = core.state.read_v(u.src1.expect("vmov src"));
            core.state.write_v(u.dst.expect("vmov dst"), v);
            core.dift.propagate(u, None);
        }
        UopKind::VAlu(op) => {
            let a = core.state.read_v(u.src1.expect("valu src1"));
            let b = core.state.read_v(u.src2.expect("valu src2"));
            let r = fu::valu(op, a, b);
            core.state.write_v(u.dst.expect("valu dst"), r);
            core.dift.propagate(u, None);
            core.stats.vpu_uops += 1;
        }
        UopKind::VExtractQ => {
            let v = core.state.read_v(u.src1.expect("vextract src"));
            let half = if u.imm.unwrap_or(0) == 0 { v.0 } else { v.1 };
            core.state.write(u.dst.expect("vextract dst"), half);
            core.dift.propagate(u, None);
        }
        UopKind::VInsertQ => {
            let d = u.dst.expect("vinsert dst");
            let mut v = core.state.read_v(d);
            let s = core.state.read(u.src1.expect("vinsert src"));
            if u.imm.unwrap_or(0) == 0 {
                v.0 = s;
            } else {
                v.1 = s;
            }
            core.state.write_v(d, v);
            core.dift.propagate(u, None);
        }
        UopKind::Br(cc) => {
            let taken = core.state.flags.eval(cc);
            core.dift.propagate(u, None);
            let target = u.imm.expect("br has target") as u64;
            let miss = core.bp.predict_conditional(placed.addr, taken);
            if taken {
                effect = UopEffect::Branch(target);
            }
            core.pending_mispredict = miss;
        }
        UopKind::JmpImm => {
            let target = u.imm.expect("jmp has target") as u64;
            if matches!(placed.inst, Inst::Call { .. }) {
                core.bp.on_call(fetched.next);
            }
            effect = UopEffect::Branch(target);
            core.pending_mispredict = false;
        }
        UopKind::JmpReg => {
            let target = core.state.read(u.src1.expect("jmpreg src"));
            let miss = match placed.inst {
                Inst::Ret => core.bp.predict_return(target),
                _ => core.bp.predict_indirect(placed.addr, target),
            };
            core.dift.propagate(u, None);
            effect = UopEffect::Branch(target);
            core.pending_mispredict = miss;
        }
        UopKind::PushImm | UopKind::Push => {
            // x86 order: the pushed value is read before rsp moves, so
            // `push rsp` stores the pre-decrement stack pointer.
            let v = match u.kind {
                UopKind::PushImm => u.imm.unwrap_or(0) as u64,
                _ => core.state.read(u.src1.expect("push src")),
            };
            let rsp = core.state.gpr(Gpr::Rsp).wrapping_sub(8);
            core.state.set_gpr(Gpr::Rsp, rsp);
            core.hier.access(rsp, AccessKind::DataWrite);
            core.mem.write_le(rsp, 8, v);
            emit_store(core, rsp, 8, v);
            core.dift.propagate(u, Some(rsp));
            core.stats.store_uops += 1;
            access_latency = 1;
        }
        UopKind::Pop => {
            let rsp = core.state.gpr(Gpr::Rsp);
            let r = core.hier.access(rsp, AccessKind::DataRead);
            access_latency = r.latency + dift_penalty(core);
            let v = core.mem.read_le(rsp, 8);
            // x86 order: rsp is incremented before the destination write,
            // so `pop rsp` ends up holding the loaded value.
            core.state.set_gpr(Gpr::Rsp, rsp.wrapping_add(8));
            core.state.write(u.dst.expect("pop dst"), v);
            core.dift.propagate(u, Some(rsp));
            core.stats.load_uops += 1;
        }
        UopKind::Clflush => {
            let ea = ea(core, u);
            core.hier.flush(ea);
            access_latency = 4;
        }
        UopKind::Rdtsc => {
            let c = core.cycles();
            core.state.write(u.dst.expect("rdtsc dst"), c);
        }
        UopKind::Wrmsr => {
            let msr = u.imm.expect("wrmsr msr") as u32;
            let v = core.state.read(u.src1.expect("wrmsr src"));
            core.engine.write_msr(msr, v);
        }
        UopKind::Rdmsr => {
            let msr = u.imm.expect("rdmsr msr") as u32;
            let v = core.engine.read_msr(msr);
            core.state.write(u.dst.expect("rdmsr dst"), v);
        }
        UopKind::Halt => {
            effect = UopEffect::Halt;
        }
    }
    (effect, access_latency)
}

/// Emits an ordered architectural-store event (the cosimulation oracle
/// compares this stream against the reference interpreter's).
fn emit_store(core: &mut Core, addr: u64, len: u64, value: u64) {
    if core.sink.is_attached() {
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

fn ea(core: &Core, u: &Uop) -> u64 {
    let m = u.mem.expect("memory µop without operand");
    m.effective_address(|r| core.state.read(r))
}

/// Back-end timing for one µop.
fn time_uop(core: &mut Core, u: &Uop, dispatch: f64, access_latency: u64) {
    // ROB occupancy: dispatch may not pass the completion of the µop
    // rob_entries back.
    let mut ready = dispatch;
    if core.rob.len() >= core.cfg.rob_entries {
        if let Some(head) = core.rob.pop_front() {
            ready = later(ready, head);
        }
    }
    // Operand readiness.
    for src in [u.src1, u.src2].into_iter().flatten() {
        ready = later(ready, core.sched[src.index()]);
    }
    if let Some(m) = u.mem {
        for r in m.base.into_iter().chain(m.index.map(|(r, _)| r)) {
            ready = later(ready, core.sched[r.index()]);
        }
    }
    if matches!(u.kind, UopKind::Br(_)) {
        ready = later(ready, core.flags_ready);
    }

    // Port selection and latency.
    let (lat, occupy, port): (f64, f64, &mut Vec<f64>) = match u.kind {
        UopKind::Ld | UopKind::VLd | UopKind::Pop => {
            (access_latency as f64, 1.0, &mut core.load_ports)
        }
        UopKind::St | UopKind::VSt | UopKind::Push | UopKind::PushImm => {
            (1.0, 1.0, &mut core.store_ports)
        }
        UopKind::VAlu(op) => {
            let l = if op.is_multiply() || op.is_float() {
                core.cfg.vec_mul_latency
            } else {
                core.cfg.vec_latency
            };
            (l as f64, 1.0, &mut core.vec_ports)
        }
        UopKind::Mul => (core.cfg.mul_latency as f64, 1.0, &mut core.alu_ports),
        UopKind::DivQ | UopKind::DivR => {
            let l = core.cfg.div_latency as f64;
            (l, l, &mut core.alu_ports)
        }
        UopKind::FAlu(..) => (core.cfg.falu_latency as f64, 1.0, &mut core.alu_ports),
        UopKind::Clflush => (access_latency as f64, 1.0, &mut core.store_ports),
        _ => (core.cfg.alu_latency as f64, 1.0, &mut core.alu_ports),
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
    if let Some(d) = u.dst {
        core.sched[d.index()] = done;
    }
    if u.kind.writes_flags() && !u.is_decoy() && !u.no_flags {
        core.flags_ready = done;
    }
    // Stack-pointer updates by push/pop.
    if matches!(u.kind, UopKind::Push | UopKind::PushImm | UopKind::Pop) {
        core.sched[UReg::Gpr(Gpr::Rsp).index()] = done;
    }

    // Branch resolution and redirect.
    if u.kind.is_branch() && !u.is_decoy() && core.pending_mispredict {
        core.fe_time = later(core.fe_time, done + core.cfg.mispredict_penalty as f64);
        core.pending_mispredict = false;
    }

    core.rob.push_back(done);
    core.last_commit = later(done, core.last_commit + core.commit_step);
}
