//! Decode stage: DIFT verdict, context-sensitive decode (served from the
//! per-instruction flow table), and front-end delivery timing including
//! µop-cache window bookkeeping.

use crate::core::{Core, SimMode};
use crate::stage::{Decoded, Fetch};
use crate::uop_cache::UopCache;
use csd::{ContextId, DecodeOutcome};
use csd_telemetry::UopCacheEvent;
use csd_uops::{FlowTable, UReg};
use mx86_isa::{Inst, MemRef};

/// One µop-cache window being assembled as successive macro-ops decode
/// under one context; finalized (inserted) when delivery switches away.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowBuilder {
    window: u64,
    ctx: ContextId,
    fused: u32,
    cacheable: bool,
}

/// Decodes the fetched macro-op: DIFT verdict, CSD decode through the
/// flow table (`flows`, held apart from the core for the whole run so the
/// flow can stay borrowed through execute and commit), stall accounting,
/// and front-end timing.
#[inline]
pub(crate) fn run<'t>(core: &mut Core, f: &Fetch, flows: &'t mut FlowTable) -> Decoded<'t> {
    let placed = &f.inst.placed;
    let tainted = macro_tainted(core, &placed.inst);
    let out = core
        .engine
        .decode_memo(placed, f.inst.index, tainted, flows);
    core.stats.stall_cycles += out.stall_cycles;
    let fused_slots = front_end(core, f, &out);
    Decoded { out, fused_slots }
}

/// The DIFT verdict that arms stealth interception: any address-forming
/// source register tainted, or tainted flags for a conditional branch.
fn macro_tainted(core: &Core, inst: &Inst) -> bool {
    if !core.cfg.dift_enabled {
        return false;
    }
    let mem_tainted = |m: &MemRef| {
        m.base.is_some_and(|b| core.dift.reg_tainted(UReg::Gpr(b)))
            || m.index
                .is_some_and(|(i, _)| core.dift.reg_tainted(UReg::Gpr(i)))
    };
    match inst {
        Inst::Load { mem, .. }
        | Inst::Store { mem, .. }
        | Inst::AluLoad { mem, .. }
        | Inst::AluStore { mem, .. }
        | Inst::VLoad { mem, .. }
        | Inst::VStore { mem, .. }
        | Inst::VAluLoad { mem, .. } => mem_tainted(mem),
        Inst::Jcc { .. } => core.dift.flags_tainted(),
        Inst::JmpInd { reg } => core.dift.reg_tainted(UReg::Gpr(*reg)),
        _ => false,
    }
}

/// Front-end delivery timing; returns the fused slot count.
fn front_end(core: &mut Core, f: &Fetch, out: &DecodeOutcome) -> u32 {
    let placed = &f.inst.placed;
    let facts = out.flow.facts();
    let mut fused = if core.cfg.fusion_enabled {
        facts.fused
    } else {
        facts.uops
    };
    // Macro-op fusion: a cmp/test immediately followed by jcc shares a
    // slot; model as the jcc contributing zero additional slots.
    if core.cfg.fusion_enabled && core.prev_fusable_cmp && matches!(placed.inst, Inst::Jcc { .. }) {
        fused = fused.saturating_sub(1);
    }

    if core.mode == SimMode::Functional {
        // Track µop-cache *occupancy* statistics even without timing.
        if core.cfg.uop_cache_enabled {
            let window = UopCache::window_of(placed.addr);
            if core.ucache.lookup(window, out.context) {
                emit_ucache(core, window, out.context, true);
                core.stats.uop_cache_insts += 1;
                finalize_window(core);
            } else {
                emit_ucache(core, window, out.context, false);
                count_legacy(core, facts.from_msrom);
                build_window(core, window, out.context, fused, facts.cacheable);
            }
        } else {
            count_legacy(core, facts.from_msrom);
        }
        return fused.max(1);
    }

    core.fe_time += f.penalty;
    let from_uc = if core.cfg.uop_cache_enabled {
        let window = UopCache::window_of(placed.addr);
        if core.ucache.lookup(window, out.context) {
            emit_ucache(core, window, out.context, true);
            core.stats.uop_cache_insts += 1;
            finalize_window(core);
            true
        } else {
            emit_ucache(core, window, out.context, false);
            count_legacy(core, facts.from_msrom);
            build_window(core, window, out.context, fused, facts.cacheable);
            false
        }
    } else {
        count_legacy(core, facts.from_msrom);
        false
    };

    if from_uc != core.prev_from_uc {
        core.fe_time += core.cfg.uop_cache_switch_penalty;
    }
    core.prev_from_uc = from_uc;

    let cost = if from_uc {
        fused.max(1) as f64 / core.cfg.uop_cache_width as f64
    } else if facts.from_msrom {
        // The MSROM sequencer takes over the decode slot entirely.
        facts.uops as f64 / core.cfg.msrom_width_uops as f64 + 1.0
    } else {
        let decode = facts.uops as f64 / core.cfg.decode_width_uops as f64;
        let length_decode = (f.inst.next - placed.addr) as f64 / core.cfg.fetch_bytes as f64;
        decode.max(length_decode).max(0.25)
    };
    core.fe_time += cost;
    fused.max(1)
}

/// Reports a µop-cache lookup to the core's sink (the retire-stage sink:
/// the µop cache is pipeline state, not engine state).
fn emit_ucache(core: &mut Core, window: u64, ctx: ContextId, hit: bool) {
    let ev = UopCacheEvent {
        addr: window,
        context: ctx.bit(),
        hit,
    };
    core.sink.with(|s| s.on_uop_cache(&ev));
}

fn count_legacy(core: &mut Core, from_msrom: bool) {
    if from_msrom {
        core.stats.msrom_insts += 1;
    } else {
        core.stats.legacy_insts += 1;
    }
}

fn build_window(core: &mut Core, window: u64, ctx: ContextId, fused: u32, cacheable: bool) {
    match &mut core.window_builder {
        Some(b) if b.window == window && b.ctx == ctx => {
            b.fused += fused;
            b.cacheable &= cacheable;
        }
        _ => {
            finalize_window(core);
            core.window_builder = Some(WindowBuilder {
                window,
                ctx,
                fused,
                cacheable,
            });
        }
    }
}

/// Flushes the in-progress µop-cache window into the cache (called when a
/// taken branch or halt ends window building).
pub(crate) fn finalize_window(core: &mut Core) {
    if let Some(b) = core.window_builder.take() {
        if core.cfg.uop_cache_enabled {
            core.ucache.insert(b.window, b.ctx, b.fused, b.cacheable);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch;
    use crate::{CoreConfig, SimMode};
    use csd::CsdConfig;
    use mx86_isa::{Assembler, Gpr};

    fn core(memo: bool) -> Core {
        let mut a = Assembler::new(0x1000);
        a.mov_ri(Gpr::Rax, 7);
        a.halt();
        let cfg = CoreConfig {
            decode_memo_enabled: memo,
            ..CoreConfig::default()
        };
        Core::new(
            cfg,
            CsdConfig::default(),
            a.finish().unwrap(),
            SimMode::Cycle,
        )
    }

    #[test]
    fn decode_fills_the_context() {
        let mut c = core(true);
        let mut flows = FlowTable::new(2, true);
        let f = fetch::run(&mut c).unwrap();
        let d = run(&mut c, &f, &mut flows);
        assert_eq!(d.out.context, ContextId::Native);
        assert_eq!(d.out.flow.uops().len(), 1);
        assert!(d.fused_slots >= 1);
    }

    #[test]
    fn memoized_and_plain_decode_agree_per_stage() {
        let mut with = core(true);
        let mut without = core(false);
        let mut table = FlowTable::new(2, true);
        let mut none = FlowTable::new(2, false);
        for _ in 0..3 {
            let fa = fetch::run(&mut with).unwrap();
            let fb = fetch::run(&mut without).unwrap();
            let a = run(&mut with, &fa, &mut table);
            let b = run(&mut without, &fb, &mut none);
            assert_eq!(a.out, b.out);
            assert_eq!(a.fused_slots, b.fused_slots);
        }
        assert_eq!(with.stats(), without.stats());
        assert_eq!(table.stats().misses, 1, "the first decode builds");
        assert_eq!(table.stats().hits, 2, "repeat decodes hit");
        assert_eq!(none.stats().bypasses, 3, "a disabled table builds afresh");
    }
}
