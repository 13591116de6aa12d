//! The quiescent block path: a straight-line run of instructions retired
//! as one step.
//!
//! An untraced functional batch ([`Core::run`](crate::Core::run) without
//! a sink, with the flow table enabled) spends most of its retires on
//! bookkeeping that cannot change from one instruction to the next: the
//! fetch resolves the instruction after the last one, the L1I hits the
//! line the last fetch hit, the µop cache is asked about the window it
//! was just asked about, and the CSD engine decides nothing. This module
//! retires such a run in one step:
//!
//! - **Records.** Each instruction's facts (its native flow in the flow
//!   table, the address after it, the L1I lines it spans, its µop-cache
//!   window, its front-end slots) sit in one contiguous array, [`Steps`],
//!   built on the block path's first visit after the flow table holds the
//!   flow, and never invalidated: they depend on the program and the core
//!   configuration alone.
//! - **Fetch.** One full L1I access per line change. Further fetches of
//!   the same line are counted and charged at once
//!   ([`csd_cache::Hierarchy::refetch`]) while the L1I still holds it; a
//!   back-invalidation or `clflush` in between ends the count and the
//!   next fetch takes a full access.
//! - **µop cache.** One lookup for a window's first instruction, with its
//!   usual delivery, and one collapsed lookup for the rest of the window
//!   ([`crate::uop_cache::UopCache::lookup_repeat`]).
//! - **Execute.** Every µop goes through the one executor,
//!   [`crate::execute::exec_uop`], DIFT propagation included.
//! - **Commit.** Statistics, flow-table hits, the engine's decode counts
//!   and its tick are added once at the run's end
//!   ([`csd::CsdEngine::retire_quiet`]), with the PC, the fetch hint, the
//!   `cmp`/`jcc` fusion latch and the window builder left as the last
//!   instruction leaves them.
//!
//! A run starts only while the engine is quiescent
//! ([`csd::CsdEngine::quiet_run`]: no custom mode, stealth disarmed, the
//! VPU gate's criticality window not closing) and stops at the first
//! instruction that could need it or that reads what the run batches: a
//! control transfer, `hlt`, `rdtsc`, `wrmsr` or a vector instruction, an
//! instruction whose flow the table lacks, the stealth watchdog's
//! deadline, the batch's instruction budget or its cycle target
//! (functional cycles are retired µops). The per-instruction path
//! retires that instruction, and the next batch step tries a run again.

use crate::config::CoreConfig;
use crate::core::Core;
use crate::decode::{self, Delivery};
use crate::execute::exec_uop;
use crate::uop_cache::UopCache;
use csd::ContextId;
use csd_cache::LineSlot;
use csd_uops::{FlowTable, Stored};
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
    /// The address after the instruction.
    next: u64,
    /// The first L1I line the encoding spans.
    line: u64,
    /// The last L1I line the encoding spans.
    last_line: u64,
    /// The µop-cache window.
    window: u64,
    /// Front-end slots: fused µops, or all µops without fusion.
    fused: u32,
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
/// index like the flow table, in one array allocated by the first run.
#[derive(Debug, Clone, Default)]
pub(crate) struct Steps {
    slots: Vec<Slot>,
}

impl Steps {
    /// The record of instruction `index`, built if the flow table holds
    /// its native flow; `None` when it ends a run, lies past the program,
    /// or has not been decoded yet (the per-instruction path decodes it,
    /// counting the table miss, and a later run builds the record).
    #[inline]
    fn step(
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
            self.slots[index] = build(index, program, flows, cfg);
        }
        match self.slots[index] {
            Slot::Step(s) => Some(s),
            Slot::Ends | Slot::Unbuilt => None,
        }
    }
}

/// The record of instruction `index` (in range).
#[cold]
#[inline(never)]
fn build(index: usize, program: &Program, flows: &mut FlowTable, cfg: &CoreConfig) -> Slot {
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
    let line_bytes = cfg.hierarchy.l1i.line_bytes as u64;
    Slot::Step(Step {
        flow,
        next: f.next,
        line: placed.addr & !(line_bytes - 1),
        last_line: (f.next - 1) & !(line_bytes - 1),
        window: UopCache::window_of(placed.addr),
        fused: if cfg.fusion_enabled {
            flow.facts.fused
        } else {
            flow.facts.uops
        },
        fusable_cmp: matches!(placed.inst, Inst::Cmp { .. } | Inst::Test { .. }),
    })
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
    /// still holds it, a full access otherwise.
    #[inline]
    fn fetch(&mut self, core: &mut Core, line: u64) {
        if let Some(slot) = self.slot {
            if line == self.line && core.m.hier.l1i_holds(slot) {
                self.pending += 1;
                return;
            }
        }
        self.finish(core);
        self.slot = Some(core.m.hier.fetch(line));
        self.line = line;
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
    rest: Delivery,
}

impl WindowRun {
    fn new() -> WindowRun {
        WindowRun {
            window: None,
            rest: Delivery {
                insts: 0,
                fused: 0,
                cacheable: true,
                msrom: 0,
            },
        }
    }

    /// Delivers `step`: added to the rest of the current window, or
    /// looked up and delivered as the first of a new one.
    #[inline]
    fn deliver(&mut self, core: &mut Core, step: &Step) {
        let msrom = step.flow.facts.from_msrom;
        if self.window == Some(step.window) {
            let r = &mut self.rest;
            r.insts += 1;
            r.fused += step.fused;
            r.cacheable &= step.flow.facts.cacheable;
            r.msrom += u64::from(msrom);
            return;
        }
        self.finish(core);
        let hit = core.m.ucache.lookup(step.window, ContextId::Native);
        let d = Delivery::one(step.fused, step.flow.facts.cacheable, msrom);
        decode::deliver(core, hit, step.window, ContextId::Native, d);
        self.window = Some(step.window);
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

/// Retires the straight-line run at the PC (see the module docs): at most
/// `max` instructions, ending with the retire that brings the cycle count
/// to `target`. Returns how many retired; 0 means the per-instruction
/// path must retire the next one. Kept out of line: it is called once
/// per run, and inlined into the batch loop it would share that loop
/// with the per-instruction retire every other batch spins in.
#[inline(never)]
pub(crate) fn run(
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
    let placed = program.placed();

    let mut fetch = FetchRun::default();
    let mut window = WindowRun::new();
    let (mut n, mut uops, mut slots, mut msrom) = (0u64, 0u64, 0u64, 0u64);
    let mut index = first.index;
    let mut last = None;
    while let Some(step) = steps.step(index, program, flows, &core.cfg) {
        let mut line = step.line;
        loop {
            fetch.fetch(core, line);
            if line == step.last_line {
                break;
            }
            line += core.cfg.hierarchy.l1i.line_bytes as u64;
        }
        if uop_cache {
            window.deliver(core, &step);
        }
        for u in flows.uops(step.flow) {
            let (effect, ..) = exec_uop::<false>(core, u, &placed[index], step.next);
            debug_assert_eq!(
                effect,
                crate::stage::UopEffect::None,
                "a run has no control µop"
            );
        }
        n += 1;
        uops += u64::from(step.flow.facts.uops);
        slots += u64::from(step.fused.max(1));
        msrom += u64::from(step.flow.facts.from_msrom);
        last = Some((index, step));
        if n == max || start + uops >= limit {
            break;
        }
        index += 1;
    }
    let Some((index, step)) = last else {
        return 0;
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
    s.cycles += uops;
    core.m.prev_fusable_cmp = step.fusable_cmp;
    core.m.engine.retire_quiet(n, uops, uops);
    flows.record_hits(n);
    core.m.state.rip = step.next;
    core.fetch_hint = index + 1;
    n
}
