//! Decode stage: DIFT verdict, context-sensitive decode (served from the
//! per-instruction flow table), and front-end delivery timing including
//! µop-cache window bookkeeping.

use crate::config::CoreConfig;
use crate::core::{Core, SimMode};
use crate::stage::{Decoded, Fetch};
use crate::uop_cache::UopCache;
use csd::{ContextId, DecodeOutcome};
use csd_telemetry::UopCacheEvent;
use csd_uops::{FlowFacts, FlowTable, UReg};
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
/// Events reach the core's sink only when `TRACE` (see `Core::run_batch`);
/// the engine reports its decode events to that sink too.
#[inline]
pub(crate) fn run<'t, const TRACE: bool>(
    core: &mut Core,
    f: &Fetch,
    flows: &'t mut FlowTable,
) -> Decoded<'t> {
    let placed = &f.inst.placed;
    // Only an armed stealth window reads the verdict.
    let tainted = core.m.engine.stealth().armed() && macro_tainted(core, &placed.inst);
    let out = core.m.engine.decode_memo_traced::<TRACE>(
        placed,
        f.inst.index,
        tainted,
        flows,
        &mut core.sink,
    );
    core.m.stats.stall_cycles += out.stall_cycles;
    let fused_slots = front_end::<TRACE>(core, f, &out);
    Decoded { out, fused_slots }
}

/// The DIFT verdict that arms stealth interception: any address-forming
/// source register tainted, or tainted flags for a conditional branch.
fn macro_tainted(core: &Core, inst: &Inst) -> bool {
    if !core.cfg.dift_enabled {
        return false;
    }
    let mem_tainted = |m: &MemRef| {
        m.base
            .is_some_and(|b| core.m.dift.reg_tainted(UReg::Gpr(b)))
            || m.index
                .is_some_and(|(i, _)| core.m.dift.reg_tainted(UReg::Gpr(i)))
    };
    match inst {
        Inst::Load { mem, .. }
        | Inst::Store { mem, .. }
        | Inst::AluLoad { mem, .. }
        | Inst::AluStore { mem, .. }
        | Inst::VLoad { mem, .. }
        | Inst::VStore { mem, .. }
        | Inst::VAluLoad { mem, .. } => mem_tainted(mem),
        Inst::Jcc { .. } => core.m.dift.flags_tainted(),
        Inst::JmpInd { reg } => core.m.dift.reg_tainted(UReg::Gpr(*reg)),
        _ => false,
    }
}

/// Front-end delivery timing; returns the fused slot count.
#[inline]
fn front_end<const TRACE: bool>(core: &mut Core, f: &Fetch, out: &DecodeOutcome) -> u32 {
    let placed = &f.inst.placed;
    let facts = out.flow.facts();
    let mut fused = if core.cfg.fusion_enabled {
        facts.fused
    } else {
        facts.uops
    };
    // Macro-op fusion: a cmp/test immediately followed by jcc shares a
    // slot; model as the jcc contributing zero additional slots.
    if core.cfg.fusion_enabled && core.m.prev_fusable_cmp && matches!(placed.inst, Inst::Jcc { .. })
    {
        fused = fused.saturating_sub(1);
    }

    // Both modes track µop-cache occupancy; only cycle mode times the
    // delivery.
    let from_uc = if core.cfg.uop_cache_enabled {
        let window = UopCache::window_of(placed.addr);
        let hit = core.m.ucache.lookup(window, out.context);
        emit_ucache::<TRACE>(core, window, out.context, hit);
        let d = Delivery::one(fused, facts.cacheable, facts.from_msrom);
        deliver(core, hit, window, out.context, d);
        hit
    } else {
        count_legacy(core, 1, u64::from(facts.from_msrom));
        false
    };
    if core.mode == SimMode::Cycle {
        let len = f.inst.next - placed.addr;
        charge(core, f.penalty, from_uc, fused, &facts, len);
    }
    fused.max(1)
}

/// Charges one instruction's front-end delivery to the cycle engine's
/// fetch clock, in this order: the fetch `penalty`, the switch penalty
/// when delivery changes between the µop cache and the legacy pipeline,
/// and the delivery cost of `fused` slots (µop cache), of the MSROM's
/// sequence, or of legacy decode of an encoding `len` bytes long. The
/// per-instruction path and the block path both charge through here.
#[inline]
pub(crate) fn charge(
    core: &mut Core,
    penalty: f64,
    from_uc: bool,
    fused: u32,
    facts: &FlowFacts,
    len: u64,
) {
    core.m.fe_time += penalty;
    if from_uc != core.m.prev_from_uc {
        core.m.fe_time += core.cfg.uop_cache_switch_penalty;
    }
    core.m.prev_from_uc = from_uc;

    let q = &core.quotients;
    let cost = if from_uc {
        q.uop_cache.of(u64::from(fused.max(1)))
    } else if facts.from_msrom {
        // The MSROM sequencer takes over the decode slot entirely.
        facts.uops as f64 / core.cfg.msrom_width_uops as f64 + 1.0
    } else {
        let decode = q.decode.of(u64::from(facts.uops));
        let length_decode = q.fetch.of(len);
        decode.max(length_decode).max(0.25)
    };
    core.m.fe_time += cost;
}

/// `k / divisor` for small `k`, divided once: entry `k` of the table is
/// the IEEE quotient `k as f64 / divisor as f64`, so reading it gives the
/// same bits as dividing. Larger `k` divide.
#[derive(Debug, Clone)]
pub(crate) struct Quotient {
    table: [f64; Quotient::LEN],
    divisor: f64,
}

impl Quotient {
    /// Entries per table: every encoding length (at most 15 bytes) and
    /// every native flow's µop or slot count below the MSROM threshold.
    const LEN: usize = 16;

    fn new(divisor: u64) -> Quotient {
        let divisor = divisor as f64;
        Quotient {
            table: std::array::from_fn(|k| k as f64 / divisor),
            divisor,
        }
    }

    /// `k as f64 / divisor as f64`.
    #[inline]
    pub(crate) fn of(&self, k: u64) -> f64 {
        match self.table.get(k as usize) {
            Some(&q) => q,
            None => k as f64 / self.divisor,
        }
    }
}

/// The front end's quotient tables, built once per core
/// (`Core::new`): fused slots per µop-cache cycle, µops per legacy
/// decode cycle, and encoding bytes per fetch cycle.
#[derive(Debug, Clone)]
pub(crate) struct Quotients {
    pub(crate) uop_cache: Quotient,
    pub(crate) decode: Quotient,
    pub(crate) fetch: Quotient,
}

impl Quotients {
    pub(crate) fn new(cfg: &CoreConfig) -> Quotients {
        Quotients {
            uop_cache: Quotient::new(cfg.uop_cache_width),
            decode: Quotient::new(cfg.decode_width_uops),
            fetch: Quotient::new(cfg.fetch_bytes),
        }
    }
}

/// Reports a µop-cache lookup to the core's sink.
pub(crate) fn emit_ucache<const TRACE: bool>(
    core: &mut Core,
    window: u64,
    ctx: ContextId,
    hit: bool,
) {
    if TRACE {
        let ev = UopCacheEvent {
            addr: window,
            context: ctx.bit(),
            hit,
        };
        core.sink.with(|s| s.on_uop_cache(&ev));
    }
}

/// Instructions of one µop-cache window delivered back to back under one
/// context: their count, fused slots, whether all are cacheable, and how
/// many the MSROM sequences.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Delivery {
    pub insts: u64,
    pub fused: u32,
    pub cacheable: bool,
    pub msrom: u64,
}

impl Delivery {
    /// One instruction's delivery.
    pub(crate) fn one(fused: u32, cacheable: bool, from_msrom: bool) -> Delivery {
        Delivery {
            insts: 1,
            fused,
            cacheable,
            msrom: u64::from(from_msrom),
        }
    }
}

/// Charges the delivery of `d` after a µop-cache lookup of `window` that
/// `hit` (one lookup per instruction): a hit streams from the µop cache
/// and ends window building, a miss decodes through the legacy pipeline
/// and adds to the window being built.
pub(crate) fn deliver(core: &mut Core, hit: bool, window: u64, ctx: ContextId, d: Delivery) {
    if hit {
        core.m.stats.uop_cache_insts += d.insts;
        finalize_window(core);
    } else {
        count_legacy(core, d.insts, d.msrom);
        build_window(core, window, ctx, d.fused, d.cacheable);
    }
}

/// Counts `insts` legacy-decoded instructions, `msrom` of them
/// microsequenced.
pub(crate) fn count_legacy(core: &mut Core, insts: u64, msrom: u64) {
    core.m.stats.msrom_insts += msrom;
    core.m.stats.legacy_insts += insts - msrom;
}

fn build_window(core: &mut Core, window: u64, ctx: ContextId, fused: u32, cacheable: bool) {
    match &mut core.m.window_builder {
        Some(b) if b.window == window && b.ctx == ctx => {
            b.fused += fused;
            b.cacheable &= cacheable;
        }
        _ => {
            finalize_window(core);
            core.m.window_builder = Some(WindowBuilder {
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
    if let Some(b) = core.m.window_builder.take() {
        if core.cfg.uop_cache_enabled {
            core.m.ucache.insert(b.window, b.ctx, b.fused, b.cacheable);
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
        let p = c.program.clone();
        let mut flows = FlowTable::new(2, true);
        let f = fetch::run(&mut c, &p).unwrap();
        let d = run::<true>(&mut c, &f, &mut flows);
        assert_eq!(d.out.context, ContextId::Native);
        assert_eq!(d.out.flow.uops().len(), 1);
        assert!(d.fused_slots >= 1);
    }

    /// Each table entry is the quotient it replaces, bit for bit, and a
    /// count past the table divides.
    #[test]
    fn quotient_tables_hold_the_divisions_they_replace() {
        for width in 1..=24u64 {
            let cfg = CoreConfig {
                uop_cache_width: width,
                decode_width_uops: width + 1,
                fetch_bytes: width * 2,
                ..CoreConfig::default()
            };
            let q = Quotients::new(&cfg);
            for (table, divisor) in [
                (&q.uop_cache, cfg.uop_cache_width),
                (&q.decode, cfg.decode_width_uops),
                (&q.fetch, cfg.fetch_bytes),
            ] {
                let past = [100, 1 << 40, u64::MAX];
                for k in (0..Quotient::LEN as u64 + 8).chain(past) {
                    let want = k as f64 / divisor as f64;
                    assert_eq!(table.of(k).to_bits(), want.to_bits(), "{k} / {divisor}");
                }
            }
        }
    }

    #[test]
    fn memoized_and_plain_decode_agree_per_stage() {
        let mut with = core(true);
        let mut without = core(false);
        let mut table = FlowTable::new(2, true);
        let mut none = FlowTable::new(2, false);
        let p = with.program.clone();
        for _ in 0..3 {
            let fa = fetch::run(&mut with, &p).unwrap();
            let fb = fetch::run(&mut without, &p).unwrap();
            let a = run::<true>(&mut with, &fa, &mut table);
            let b = run::<false>(&mut without, &fb, &mut none);
            assert_eq!(a.out, b.out);
            assert_eq!(a.fused_slots, b.fused_slots);
        }
        assert_eq!(with.stats(), without.stats());
        assert_eq!(table.stats().misses, 1, "the first decode builds");
        assert_eq!(table.stats().hits, 2, "repeat decodes hit");
        assert_eq!(none.stats().bypasses, 3, "a disabled table builds afresh");
    }
}
