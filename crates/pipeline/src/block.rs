//! The quiescent block path: a straight-line run of instructions retired
//! as one step, in either engine.
//!
//! An untraced batch ([`Core::run`](crate::Core::run) without a sink, with
//! the flow table enabled) spends most of its retires on bookkeeping that
//! cannot change from one instruction to the next: the fetch resolves the
//! instruction after the last one, the L1I hits the line the last fetch
//! hit, the µop cache is asked about the window it was just asked about,
//! and the CSD engine decides nothing. This module retires such a run in
//! one step, monomorphised on the engine (`run::<CYCLE>`):
//!
//! - **Records.** Each instruction's facts (its native flow in the flow
//!   table, its address and the address after it, the last L1I line it
//!   spans, its front-end slots, and in the cycle engine its µops'
//!   timing facts) sit in contiguous arrays, [`Steps`], built on the
//!   block path's first visit after the flow table holds the flow, and
//!   never invalidated: they depend on the program and the core
//!   configuration alone (a core's engine is fixed when it is built).
//! - **Fetch.** One full L1I access per line change. Further fetches of
//!   the same line are counted and charged at once
//!   ([`csd_cache::Hierarchy::refetch`]) while the L1I still holds it; a
//!   back-invalidation or `clflush` in between ends the count and the
//!   next fetch takes a full access. Only a full access can miss, so
//!   only it can carry a fetch penalty.
//! - **µop cache.** One lookup for a window's first instruction, with its
//!   usual delivery, and one collapsed lookup for the rest of the window
//!   ([`crate::uop_cache::UopCache::lookup_repeat`]); every instruction
//!   of the window is delivered from where the first one was.
//! - **Timing (cycle engine).** Per instruction and per µop, in the
//!   per-instruction path's order: the front-end charge
//!   ([`crate::decode::charge`]), then each µop's dispatch, execution and
//!   back-end timing ([`crate::execute::dispatch`],
//!   [`crate::execute::time_uop`]) from the record's timing facts.
//! - **Execute.** Every µop goes through the one executor,
//!   [`crate::execute::exec_uop`], DIFT propagation included.
//! - **Commit.** Statistics, flow-table hits, the engine's decode counts
//!   and its tick are added once at the run's end
//!   ([`csd::CsdEngine::retire_quiet`]), with the clock, the PC, the
//!   fetch hint, the `cmp`/`jcc` fusion latch and the window builder left
//!   as the last instruction leaves them.
//!
//! A run starts only while the engine is quiescent
//! ([`csd::CsdEngine::quiet_run`]: no custom mode, stealth disarmed, the
//! VPU gate's criticality window not closing) and stops at the first
//! instruction that could need it or that reads what the run batches: a
//! control transfer, `hlt`, `rdtsc`, `wrmsr` or a vector instruction, an
//! instruction whose flow the table lacks, the batch's instruction
//! budget, or the retire that brings the cycle count to the batch's
//! cycle target or the stealth watchdog's deadline (functional cycles
//! are retired µops; the cycle engine's are its commit clock, rounded
//! up). The per-instruction path retires that instruction, and the next
//! batch step tries a run again.

use crate::clock::ceil_u64;
use crate::config::CoreConfig;
use crate::core::Core;
use crate::decode::{self, Delivery};
use crate::execute::{self, exec_uop};
use crate::fetch;
use crate::stage::UopEffect;
use crate::uop_cache::UopCache;
use csd::ContextId;
use csd_cache::{AccessResult, LineSlot};
use csd_uops::{FlowTable, Stored, UopTiming};
use mx86_isa::{Inst, Program};

/// Whether `inst` ends a straight-line run: the block path retires every
/// instruction before it and leaves it to the per-instruction path. A
/// control transfer moves the PC, trains the branch predictor and ends
/// µop-cache window building; `hlt` stops the core; `rdtsc` reads the
/// cycle count a run adds up only at its end; `wrmsr` reconfigures the
/// engine; a vector instruction asks the VPU gate for a decision.
fn ends_run(inst: &Inst) -> bool {
    inst.is_branch()
        || inst.is_vector()
        || matches!(inst, Inst::Halt | Inst::Rdtsc | Inst::Wrmsr { .. })
}

/// One instruction's facts for the block path.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// The native flow, stored in the core's flow table.
    flow: Stored,
    /// The instruction's address.
    addr: u64,
    /// The address after the instruction.
    next: u64,
    /// The last L1I line the encoding spans.
    last_line: u64,
    /// Front-end slots: fused µops, or all µops without fusion.
    fused: u32,
    /// Where the flow's µop timing facts start in [`Steps`]' arena
    /// (cycle engine only).
    timing: u32,
    /// A `cmp` or `test`, with which a following `jcc` fuses.
    fusable_cmp: bool,
}

/// One instruction's entry in [`Steps`].
#[derive(Debug, Clone, Copy, Default)]
enum Slot {
    /// No record yet.
    #[default]
    Unbuilt,
    /// The instruction ends a run.
    Ends,
    /// The instruction runs on the block path.
    Step(Step),
}

/// The block path's per-instruction records, indexed by dense program
/// index like the flow table, in one array allocated by the first run,
/// and, for the cycle engine, the timing facts of each record's µops back
/// to back in one arena.
#[derive(Debug, Clone, Default)]
pub(crate) struct Steps {
    slots: Vec<Slot>,
    timings: Vec<UopTiming>,
}

impl Steps {
    /// The record of instruction `index`, built if the flow table holds
    /// its native flow; `None` when it ends a run, lies past the program,
    /// or has not been decoded yet (the per-instruction path decodes it,
    /// counting the table miss, and a later run builds the record).
    /// Inlined into both engines' runs: a call per instruction costs
    /// more than the lookup.
    #[inline(always)]
    fn step<const CYCLE: bool>(
        &mut self,
        index: usize,
        program: &Program,
        flows: &mut FlowTable,
        cfg: &CoreConfig,
    ) -> Option<Step> {
        if index >= program.len() {
            return None;
        }
        if self.slots.is_empty() {
            self.slots = vec![Slot::Unbuilt; program.len()];
        }
        if let Slot::Unbuilt = self.slots[index] {
            self.slots[index] = self.build::<CYCLE>(index, program, flows, cfg);
        }
        match self.slots[index] {
            Slot::Step(s) => Some(s),
            Slot::Ends | Slot::Unbuilt => None,
        }
    }

    /// The record of instruction `index` (in range), with its µops'
    /// timing facts when `CYCLE`.
    #[cold]
    #[inline(never)]
    fn build<const CYCLE: bool>(
        &mut self,
        index: usize,
        program: &Program,
        flows: &mut FlowTable,
        cfg: &CoreConfig,
    ) -> Slot {
        let placed = &program.placed()[index];
        if ends_run(&placed.inst) {
            return Slot::Ends;
        }
        let (Some(flow), Some(f)) = (
            flows.slot(index).native,
            program.fetch_hinted(placed.addr, index),
        ) else {
            return Slot::Unbuilt;
        };
        let timing = u32::try_from(self.timings.len()).expect("timing arena under 4 Gi µops");
        if CYCLE {
            self.timings.extend(UopTiming::of_flow(flows.uops(flow)));
        }
        let line_bytes = cfg.hierarchy.l1i.line_bytes as u64;
        Slot::Step(Step {
            flow,
            addr: placed.addr,
            next: f.next,
            last_line: (f.next - 1) & !(line_bytes - 1),
            fused: if cfg.fusion_enabled {
                flow.facts.fused
            } else {
                flow.facts.uops
            },
            timing,
            fusable_cmp: matches!(placed.inst, Inst::Cmp { .. } | Inst::Test { .. }),
        })
    }

    /// The timing facts of `step`'s µops (built by a cycle-engine run).
    #[inline]
    fn timings(&self, step: &Step) -> &[UopTiming] {
        let start = step.timing as usize;
        &self.timings[start..start + step.flow.facts.uops as usize]
    }
}

/// A run's fetches of its current L1I line after the one full access.
#[derive(Default)]
struct FetchRun {
    line: u64,
    slot: Option<LineSlot>,
    pending: u64,
}

impl FetchRun {
    /// Fetches `line`: counted if it is the current line and the L1I
    /// still holds it (an L1I hit, so `None`), a full access otherwise,
    /// whose outcome is returned.
    #[inline]
    fn fetch(&mut self, core: &mut Core, line: u64) -> Option<AccessResult> {
        if let Some(slot) = self.slot {
            if line == self.line && core.m.hier.l1i_holds(slot) {
                self.pending += 1;
                return None;
            }
        }
        self.finish(core);
        let (slot, r) = core.m.hier.fetch(line);
        self.slot = Some(slot);
        self.line = line;
        Some(r)
    }

    /// Charges the counted fetches.
    fn finish(&mut self, core: &mut Core) {
        if let Some(slot) = self.slot.filter(|_| self.pending > 0) {
            core.m.hier.refetch(slot, self.pending);
        }
        self.pending = 0;
    }
}

/// A run's µop-cache deliveries of its current window after the first.
struct WindowRun {
    window: Option<u64>,
    /// Whether the current window's lookup hit.
    hit: bool,
    rest: Delivery,
}

impl WindowRun {
    fn new() -> WindowRun {
        WindowRun {
            window: None,
            hit: false,
            rest: Delivery {
                insts: 0,
                fused: 0,
                cacheable: true,
                msrom: 0,
            },
        }
    }

    /// Delivers `step`: added to the rest of the current window, or
    /// looked up and delivered as the first of a new one. Returns whether
    /// it is delivered from the µop cache: every lookup of a window in a
    /// run answers as its first did. Inlined into both engines' runs,
    /// like [`Steps::step`].
    #[inline(always)]
    fn deliver(&mut self, core: &mut Core, step: &Step) -> bool {
        let window = UopCache::window_of(step.addr);
        let msrom = step.flow.facts.from_msrom;
        if self.window == Some(window) {
            let r = &mut self.rest;
            r.insts += 1;
            r.fused += step.fused;
            r.cacheable &= step.flow.facts.cacheable;
            r.msrom += u64::from(msrom);
            return self.hit;
        }
        self.finish(core);
        let hit = core.m.ucache.lookup(window, ContextId::Native);
        let d = Delivery::one(step.fused, step.flow.facts.cacheable, msrom);
        decode::deliver(core, hit, window, ContextId::Native, d);
        self.window = Some(window);
        self.hit = hit;
        hit
    }

    /// Delivers the rest of the current window with one collapsed lookup.
    fn finish(&mut self, core: &mut Core) {
        if let Some(w) = self.window.filter(|_| self.rest.insts > 0) {
            let hit = core
                .m
                .ucache
                .lookup_repeat(w, ContextId::Native, self.rest.insts);
            decode::deliver(core, hit, w, ContextId::Native, self.rest);
        }
        *self = WindowRun::new();
    }
}

/// Retires the straight-line run at the PC (see the module docs) in the
/// cycle engine when `CYCLE`, the functional one otherwise: at most `max`
/// instructions, ending with the retire that brings the cycle count to
/// `target`. Returns how many retired; 0 means the per-instruction path
/// must retire the next one. Kept out of line: it is called once per
/// run, and inlined into the batch loop it would share that loop with
/// the per-instruction retire every other batch spins in.
#[inline(never)]
pub(crate) fn run<const CYCLE: bool>(
    core: &mut Core,
    program: &Program,
    flows: &mut FlowTable,
    steps: &mut Steps,
    max: u64,
    target: u64,
) -> u64 {
    let Some(quiet) = core.m.engine.quiet_run() else {
        return 0;
    };
    let Some(first) = program.fetch_hinted(core.m.state.rip, core.fetch_hint) else {
        return 0;
    };
    let max = max.min(quiet.insts);
    let start = core.m.stats.cycles;
    let limit = target.min(start.saturating_add(quiet.cycles));
    let uop_cache = core.cfg.uop_cache_enabled;
    let line_bytes = core.cfg.hierarchy.l1i.line_bytes as u64;
    let placed = program.placed();

    let mut fetch = FetchRun::default();
    let mut window = WindowRun::new();
    let (mut n, mut uops, mut slots, mut msrom) = (0u64, 0u64, 0u64, 0u64);
    let mut index = first.index;
    let mut last = None;
    while let Some(step) = steps.step::<CYCLE>(index, program, flows, &core.cfg) {
        let mut line = step.addr & !(line_bytes - 1);
        let mut penalty = 0.0;
        loop {
            if let Some(r) = fetch.fetch(core, line) {
                if CYCLE {
                    penalty = fetch::penalty(core, penalty, r);
                }
            }
            if line == step.last_line {
                break;
            }
            line += line_bytes;
        }
        let from_uc = uop_cache && window.deliver(core, &step);
        let inst = &placed[index];
        let flow = flows.uops(step.flow);
        if CYCLE {
            let facts = &step.flow.facts;
            decode::charge(
                core,
                penalty,
                from_uc,
                step.fused,
                facts,
                step.next - step.addr,
            );
            // A scalar native flow stalls for nothing: its µops may
            // dispatch from the fetch clock on.
            let ready = core.m.fe_time;
            let mut slot = ready;
            for (u, t) in flow.iter().zip(steps.timings(&step)) {
                slot = execute::dispatch(core, t, ready, slot);
                let (effect, latency, mispredicted) = exec_uop::<false>(core, u, inst, step.next);
                debug_assert_eq!(effect, UopEffect::None, "a run has no control µop");
                execute::time_uop(core, t, slot, latency, mispredicted);
            }
        } else {
            for u in flow {
                let (effect, ..) = exec_uop::<false>(core, u, inst, step.next);
                debug_assert_eq!(effect, UopEffect::None, "a run has no control µop");
            }
        }
        n += 1;
        uops += u64::from(step.flow.facts.uops);
        slots += u64::from(step.fused.max(1));
        msrom += u64::from(step.flow.facts.from_msrom);
        last = Some((index, step));
        // No clock reaches `u64::MAX`, so an unbounded run reads none.
        let reached = limit != u64::MAX
            && if CYCLE {
                ceil_u64(core.m.last_commit) >= limit
            } else {
                start + uops >= limit
            };
        if n == max || reached {
            break;
        }
        index += 1;
    }
    let Some((index, step)) = last else {
        return 0;
    };
    let now = if CYCLE {
        ceil_u64(core.m.last_commit)
    } else {
        start + uops
    };

    fetch.finish(core);
    if uop_cache {
        window.finish(core);
    } else {
        decode::count_legacy(core, n, msrom);
    }
    let s = &mut core.m.stats;
    s.insts += n;
    s.uops += uops;
    s.fused_slots += slots;
    s.cycles = now;
    core.m.prev_fusable_cmp = step.fusable_cmp;
    core.m.engine.retire_quiet(n, uops, now - start);
    flows.record_hits(n);
    core.m.state.rip = step.next;
    core.fetch_hint = index + 1;
    n
}
