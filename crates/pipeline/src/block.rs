//! The quiescent block path: a straight-line run of instructions retired
//! as one step, in either engine.
//!
//! A batch ([`Core::run`](crate::Core::run) with the flow table enabled)
//! spends most of its retires on bookkeeping that cannot change from one
//! instruction to the next: the fetch resolves the instruction after the
//! last one, the L1I hits the line the last fetch hit, the µop cache is
//! asked about the window it was just asked about, and the CSD engine
//! decides nothing. This module retires such a run in one step,
//! monomorphised on the engine and on whether a sink is attached
//! (`run::<CYCLE, TRACE>`):
//!
//! - **Segment records.** A segment is a maximal straight-line stretch of
//!   the program, up to an instruction that ends a run or the program's
//!   end. Each instruction of a segment has a record ([`Rec`]) in one
//!   array indexed like the flow table: its native flow, its encoding
//!   length, whether it starts a new L1I line and a new µop-cache window,
//!   how many more lines it spans, its front-end slots, in the cycle
//!   engine its µops' timing facts, and the sums of µops, slots, fused
//!   slots, MSROM flows and uncacheable flows over the segment up to and
//!   including it. Every record of a segment also holds where the
//!   segment's records end. Records are built on the block path's first
//!   visit after the flow table holds the flows, and never invalidated:
//!   they depend on the program and the core configuration alone (a
//!   core's engine is fixed when it is built).
//! - **Length.** A run is a plain slice of records. The functional engine
//!   knows the run's length before it executes: the smallest of the batch
//!   budget, the engine's quiet span and the cycle limit, found on the
//!   µop sums (functional cycles are retired µops). The cycle engine stops
//!   at the retire whose commit clock reaches the limit.
//! - **Fetch.** One full L1I access at each line boundary. Further
//!   fetches of the same line are counted and charged at once
//!   ([`csd_cache::Hierarchy::refetch`]) while the L1I still holds it; a
//!   back-invalidation or `clflush` in between ends the count and the
//!   next fetch takes a full access. Only a full access can miss, so
//!   only it can carry a fetch penalty.
//! - **µop cache.** One lookup at each window boundary, with its usual
//!   delivery; when the window closes, the rest of it is one collapsed
//!   lookup ([`crate::uop_cache::UopCache::lookup_repeat`]) and one
//!   delivery whose slots and counts come from the record sums.
//! - **Timing (cycle engine).** Per instruction and per µop, in the
//!   per-instruction path's order: the front-end charge
//!   ([`crate::decode::charge`]), then each µop's dispatch, execution and
//!   back-end timing ([`crate::execute::dispatch`],
//!   [`crate::execute::time_uop`]) from the record's timing facts.
//! - **Execute.** Every µop goes through the one executor,
//!   [`crate::execute::exec_uop`], DIFT propagation included.
//! - **Commit.** The retired count goes up as the run goes; statistics
//!   (from the record sums), flow-table hits, the engine's decode counts
//!   and its tick are added once at the run's end
//!   ([`csd::CsdEngine::retire_quiet`]), with the clock, the PC, the
//!   fetch hint, the `cmp`/`jcc` fusion latch and the window builder left
//!   as the last instruction leaves them.
//! - **Events.** A traced run reports what the per-instruction path does,
//!   in its order: per instruction, its decode as a native table hit
//!   ([`csd::CsdEngine::emit_quiet_decode`]), µop-cache lookup, stores and
//!   retire, the last retire after the events of the run's one tick.
//!
//! A run starts only while the engine is quiescent
//! ([`csd::CsdEngine::quiet_run`]: no custom mode, stealth disarmed, the
//! VPU gate's criticality window not closing) and stops at the first
//! instruction that could need it or that reads what the run batches: a
//! control transfer, `hlt`, `rdtsc`, `wrmsr` or a vector instruction, an
//! instruction whose flow the table lacks, the batch's instruction
//! budget, or the retire that brings the cycle count to the batch's
//! cycle target, the stealth watchdog's deadline or the VPU gate's next
//! change by time (functional cycles are retired µops; the cycle
//! engine's are its commit clock, rounded up). The per-instruction path
//! retires that instruction, and the next batch step tries a run again.

use crate::clock::ceil_u64;
use crate::commit;
use crate::config::CoreConfig;
use crate::core::Core;
use crate::decode::{self, Delivery};
use crate::execute::{self, exec_uop};
use crate::fetch;
use crate::stage::UopEffect;
use crate::uop_cache::UopCache;
use csd::{ContextId, CsdEngine, QuietRun};
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

/// Per-instruction counts a run adds up, summed over a segment's records
/// from its first one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Sums {
    /// µops.
    uops: u32,
    /// Dispatch slots: front-end slots, at least one per instruction.
    slots: u32,
    /// Front-end slots: fused µops, or all µops without fusion.
    fused: u32,
    /// Flows the MSROM sequences.
    msrom: u32,
    /// Flows the µop cache cannot hold.
    uncacheable: u32,
}

impl Sums {
    fn plus(self, o: Sums) -> Sums {
        Sums {
            uops: self.uops + o.uops,
            slots: self.slots + o.slots,
            fused: self.fused + o.fused,
            msrom: self.msrom + o.msrom,
            uncacheable: self.uncacheable + o.uncacheable,
        }
    }

    fn minus(self, o: Sums) -> Sums {
        Sums {
            uops: self.uops - o.uops,
            slots: self.slots - o.slots,
            fused: self.fused - o.fused,
            msrom: self.msrom - o.msrom,
            uncacheable: self.uncacheable - o.uncacheable,
        }
    }
}

/// What a record says about its instruction's place in a segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum State {
    /// No record yet.
    #[default]
    Unbuilt,
    /// The instruction ends a run: no segment holds it.
    Ends,
    /// In a segment whose records stop at an instruction the flow table
    /// did not hold yet; a later run tries to extend them.
    Open,
    /// In a segment whose records reach its end: an instruction that
    /// ends a run, or the program's end.
    Closed,
}

/// One instruction's segment record.
#[derive(Debug, Clone, Copy, Default)]
struct Rec {
    /// The native flow, stored in the core's flow table.
    flow: Stored,
    /// The sums over the segment's records up to and including this one.
    upto: Sums,
    /// Where the segment's records start (what `upto` sums from).
    base: u32,
    /// Where the segment's records end: the index after the last one.
    end: u32,
    /// Where the flow's µop timing facts start in [`Steps`]' arena
    /// (cycle engine only).
    timing: u32,
    /// Front-end slots: fused µops, or all µops without fusion.
    fused: u32,
    /// The encoding's length in bytes.
    len: u8,
    /// L1I lines the encoding spans after its first.
    more_lines: u8,
    /// Whether the first line differs from the previous instruction's
    /// last one.
    new_line: bool,
    /// Whether the µop-cache window differs from the previous
    /// instruction's.
    new_window: bool,
    /// A `cmp` or `test`, with which a following `jcc` fuses.
    fusable_cmp: bool,
    state: State,
}

impl Rec {
    /// This instruction's own counts.
    fn own(&self) -> Sums {
        let facts = &self.flow.facts;
        Sums {
            uops: facts.uops,
            slots: self.fused.max(1),
            fused: self.fused,
            msrom: u32::from(facts.from_msrom),
            uncacheable: u32::from(!facts.cacheable),
        }
    }

    /// The sums over the segment's records before this one.
    fn before(&self) -> Sums {
        self.upto.minus(self.own())
    }
}

/// The block path's segment records, indexed by dense program index like
/// the flow table, in one array allocated when a run can first start (at
/// a decoded instruction), and, for the cycle engine, the timing facts of
/// each record's µops back to back in one arena.
#[derive(Debug, Clone, Default)]
pub(crate) struct Steps {
    recs: Vec<Rec>,
    timings: Vec<UopTiming>,
}

impl Steps {
    /// Whether instruction `index` has a record, building its segment's
    /// records first if it has none or its segment is open. It has none
    /// when it ends a run, lies past the program, or has not been decoded
    /// yet (the per-instruction path decodes it, counting the table miss,
    /// and a later run builds the record; a core that retires each
    /// instruction once never allocates records).
    #[inline]
    fn ready<const CYCLE: bool>(
        &mut self,
        index: usize,
        program: &Program,
        flows: &mut FlowTable,
        cfg: &CoreConfig,
    ) -> bool {
        if index >= program.len() || flows.slot(index).native.is_none() {
            return false;
        }
        if self.recs.is_empty() {
            self.recs = vec![Rec::default(); program.len()];
        }
        let r = &self.recs[index];
        match r.state {
            State::Closed => return true,
            State::Ends => return false,
            State::Unbuilt => {
                self.build::<CYCLE>(index, index, Sums::default(), program, flows, cfg)
            }
            State::Open => {
                let (base, end) = (r.base as usize, r.end as usize);
                let upto = self.recs[end - 1].upto;
                self.build::<CYCLE>(base, end, upto, program, flows, cfg);
            }
        }
        matches!(self.recs[index].state, State::Open | State::Closed)
    }

    /// Builds records from `from` on for the segment whose records start
    /// at `base`, `upto` being their sums so far, until an instruction
    /// that ends a run, the program's end, or an instruction the flow
    /// table does not hold. Records met on the way, built by a run that
    /// entered the segment later in it, join on: their sums are rebased
    /// onto `base`. Every record of the segment then holds its end.
    #[cold]
    #[inline(never)]
    fn build<const CYCLE: bool>(
        &mut self,
        base: usize,
        from: usize,
        mut upto: Sums,
        program: &Program,
        flows: &mut FlowTable,
        cfg: &CoreConfig,
    ) {
        let placed = program.placed();
        let line_bytes = cfg.hierarchy.l1i.line_bytes as u64;
        let line_of = |addr: u64| addr & !(line_bytes - 1);
        let mut i = from;
        let closed = loop {
            let Some(p) = placed.get(i) else {
                break true;
            };
            if ends_run(&p.inst) {
                self.recs[i].state = State::Ends;
                break true;
            }
            let joined = self.recs[i];
            if joined.state != State::Unbuilt {
                debug_assert_eq!(joined.base as usize, i, "records join at their start");
                let end = joined.end as usize;
                for r in &mut self.recs[i..end] {
                    r.upto = r.upto.plus(upto);
                }
                upto = self.recs[end - 1].upto;
                i = end;
                if joined.state == State::Closed {
                    break true;
                }
                continue;
            }
            let Some(flow) = flows.slot(i).native else {
                break false;
            };
            let timing = u32::try_from(self.timings.len()).expect("timing arena under 4 Gi µops");
            if CYCLE {
                self.timings.extend(UopTiming::of_flow(flows.uops(flow)));
            }
            let next = p.next_addr();
            let (first, last) = (line_of(p.addr), line_of(next - 1));
            let prev = i.checked_sub(1).map(|j| &placed[j]);
            let mut r = Rec {
                flow,
                upto: Sums::default(),
                base: 0,
                end: 0,
                timing,
                fused: if cfg.fusion_enabled {
                    flow.facts.fused
                } else {
                    flow.facts.uops
                },
                len: (next - p.addr) as u8,
                more_lines: ((last - first) / line_bytes) as u8,
                new_line: prev.is_none_or(|q| line_of(q.next_addr() - 1) != first),
                new_window: prev
                    .is_none_or(|q| UopCache::window_of(q.addr) != UopCache::window_of(p.addr)),
                fusable_cmp: matches!(p.inst, Inst::Cmp { .. } | Inst::Test { .. }),
                state: State::Open,
            };
            upto = upto.plus(r.own());
            r.upto = upto;
            self.recs[i] = r;
            i += 1;
        };
        if i == from {
            return;
        }
        let state = if closed { State::Closed } else { State::Open };
        for r in &mut self.recs[base..i] {
            r.base = base as u32;
            r.end = i as u32;
            r.state = state;
        }
    }
}

/// A run's fetches of its current L1I line after the one full access.
#[derive(Default)]
struct FetchRun {
    slot: Option<LineSlot>,
    pending: u64,
}

impl FetchRun {
    /// A full L1I access of `line`, after charging the counted fetches.
    #[inline]
    fn full(&mut self, core: &mut Core, line: u64) -> AccessResult {
        self.finish(core);
        let (slot, r) = core.m.hier.fetch(line);
        self.slot = Some(slot);
        r
    }

    /// Fetches the current line, `line`, again: counted while the L1I
    /// still holds it (an L1I hit, so `None`), a full access otherwise,
    /// whose outcome is returned.
    #[inline]
    fn again(&mut self, core: &mut Core, line: u64) -> Option<AccessResult> {
        match self.slot {
            Some(slot) if core.m.hier.l1i_holds(slot) => {
                self.pending += 1;
                None
            }
            _ => Some(self.full(core, line)),
        }
    }

    /// Charges the counted fetches.
    fn finish(&mut self, core: &mut Core) {
        if let Some(slot) = self.slot.filter(|_| self.pending > 0) {
            core.m.hier.refetch(slot, self.pending);
        }
        self.pending = 0;
    }
}

/// Delivers the rest of the µop-cache window that `recs[first]` opened,
/// `recs[first + 1..end]`, with one collapsed lookup.
fn close_window(core: &mut Core, recs: &[Rec], window: u64, first: usize, end: usize) {
    let insts = (end - first - 1) as u64;
    if insts == 0 {
        return;
    }
    let rest = recs[end - 1].upto.minus(recs[first].upto);
    let hit = core
        .m
        .ucache
        .lookup_repeat(window, ContextId::Native, insts);
    let d = Delivery {
        insts,
        fused: rest.fused,
        cacheable: rest.uncacheable == 0,
        msrom: u64::from(rest.msrom),
    };
    decode::deliver(core, hit, window, ContextId::Native, d);
}

/// Retires the straight-line run at the PC (see the module docs) in the
/// cycle engine when `CYCLE`, the functional one otherwise: at most `max`
/// instructions, within the quiescent engine's bounds `quiet`, ending
/// with the retire that brings the cycle count to `target`, with events
/// to the core's sink when `TRACE`. Returns how many retired; 0 means
/// the per-instruction path must retire the next one. Kept out of line:
/// it is called once per run, and inlined into the batch loop it would
/// share that loop with the per-instruction retire every other batch
/// spins in.
#[inline(never)]
pub(crate) fn run<const CYCLE: bool, const TRACE: bool>(
    core: &mut Core,
    quiet: QuietRun,
    program: &Program,
    flows: &mut FlowTable,
    steps: &mut Steps,
    max: u64,
    target: u64,
) -> u64 {
    let Some(first) = program.fetch_hinted(core.m.state.rip, core.fetch_hint) else {
        return 0;
    };
    let at = first.index;
    if !steps.ready::<CYCLE>(at, program, flows, &core.cfg) {
        return 0;
    }
    let start = core.m.stats.cycles;
    let limit = target.min(start.saturating_add(quiet.cycles));
    let recs = &steps.recs[at..steps.recs[at].end as usize];
    let before = recs[0].before();
    let mut len = (recs.len() as u64).min(max).min(quiet.insts);
    if !CYCLE {
        // The run ends with the retire whose µops bring the count to the
        // limit: the first record whose µop sum reaches it.
        let reach = limit
            .saturating_sub(start)
            .saturating_add(u64::from(before.uops));
        let k = recs.partition_point(|r| u64::from(r.upto.uops) < reach) as u64;
        len = len.min(k + 1);
    }
    let recs = &recs[..len as usize];
    // `ceil(x) >= limit` exactly when `x > limit - 1`; a limit of 0 is
    // reached by any clock, and no clock passes `u64::MAX - 1`.
    let stop = limit.checked_sub(1).map_or(-1.0, |l| l as f64);
    let uop_cache = core.cfg.uop_cache_enabled;
    let line_bytes = core.cfg.hierarchy.l1i.line_bytes as u64;
    let placed = &program.placed()[at..];
    let table: &FlowTable = flows;

    // The cycle count after record `r` retires.
    let clock = |core: &Core, r: &Rec| {
        if CYCLE {
            ceil_u64(core.m.last_commit)
        } else {
            start + u64::from(r.upto.uops - before.uops)
        }
    };
    let mut fetch = FetchRun::default();
    // The open µop-cache window, the record that opened it, and whether
    // its lookup hit: every lookup of a window in a run answers as its
    // first did.
    let (mut window, mut opened, mut hit) = (0, 0, false);
    let mut n = recs.len();
    for (k, r) in recs.iter().enumerate() {
        let inst = &placed[k];
        let mut line = inst.addr & !(line_bytes - 1);
        let mut penalty = 0.0;
        let r0 = if k == 0 || r.new_line {
            Some(fetch.full(core, line))
        } else {
            fetch.again(core, line)
        };
        if CYCLE {
            if let Some(r0) = r0 {
                penalty = fetch::penalty(core, penalty, r0);
            }
        }
        for _ in 0..r.more_lines {
            line += line_bytes;
            let rl = fetch.full(core, line);
            if CYCLE {
                penalty = fetch::penalty(core, penalty, rl);
            }
        }
        if uop_cache && (k == 0 || r.new_window) {
            if k > 0 {
                close_window(core, recs, window, opened, k);
            }
            window = UopCache::window_of(inst.addr);
            opened = k;
            let facts = &r.flow.facts;
            hit = core.m.ucache.lookup(window, ContextId::Native);
            let d = Delivery::one(r.fused, facts.cacheable, facts.from_msrom);
            decode::deliver(core, hit, window, ContextId::Native, d);
        }
        let next = inst.addr + u64::from(r.len);
        let flow = table.uops(r.flow);
        core.m.stats.insts += 1;
        if TRACE {
            CsdEngine::emit_quiet_decode(inst, &table.get(r.flow), &mut core.sink);
            if uop_cache {
                decode::emit_ucache::<TRACE>(core, window, ContextId::Native, hit);
            }
        }
        if CYCLE {
            decode::charge(
                core,
                penalty,
                uop_cache && hit,
                r.fused,
                &r.flow.facts,
                u64::from(r.len),
            );
            // A scalar native flow stalls for nothing: its µops may
            // dispatch from the fetch clock on.
            let ready = core.m.fe_time;
            let mut slot = ready;
            let timings = &steps.timings[r.timing as usize..][..flow.len()];
            for (u, t) in flow.iter().zip(timings) {
                slot = execute::dispatch(core, t, ready, slot);
                let (effect, latency, mispredicted) = exec_uop::<TRACE>(core, u, inst, next);
                debug_assert_eq!(effect, UopEffect::None, "a run has no control µop");
                execute::time_uop(core, t, slot, latency, mispredicted);
            }
            if core.m.last_commit > stop {
                n = k + 1;
                break;
            }
        } else {
            for u in flow {
                let (effect, ..) = exec_uop::<TRACE>(core, u, inst, next);
                debug_assert_eq!(effect, UopEffect::None, "a run has no control µop");
            }
        }
        // The run's last retire is reported after its tick's events.
        if TRACE && k + 1 < recs.len() {
            commit::emit_retire::<TRACE>(core, inst.addr, r.flow.facts.uops, clock(core, r));
        }
    }
    let recs = &recs[..n];
    let last = &recs[n - 1];
    let sums = last.upto.minus(before);
    let uops = u64::from(sums.uops);
    let now = clock(core, last);

    fetch.finish(core);
    if uop_cache {
        close_window(core, recs, window, opened, n);
    } else {
        decode::count_legacy(core, n as u64, u64::from(sums.msrom));
    }
    let n = n as u64;
    let s = &mut core.m.stats;
    s.uops += uops;
    s.fused_slots += u64::from(sums.slots);
    s.cycles = now;
    core.m.prev_fusable_cmp = last.fusable_cmp;
    core.m
        .engine
        .retire_quiet::<TRACE>(n, uops, now - start, &mut core.sink);
    flows.record_hits(n);
    let addr = placed[recs.len() - 1].addr;
    commit::emit_retire::<TRACE>(core, addr, last.flow.facts.uops, now);
    core.m.state.rip = addr + u64::from(last.len);
    core.fetch_hint = at + recs.len();
    n
}
