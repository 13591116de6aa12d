//! Commit stage: retire accounting, engine time advance, retire-event
//! emission, and the PC update / halt latch.

use crate::clock::ceil_u64;
use crate::core::{Core, SimMode, StepOutcome};
use crate::decode;
use crate::stage::{Decoded, Fetch, FlowEnd};
use csd_telemetry::RetireEvent;
use mx86_isa::Inst;

/// Retires the macro-op: statistics, watchdog/gate time advance, the
/// retire event, and the next-PC decision from how execute ended the
/// flow.
/// Events reach the core's sink only when `TRACE` (see `Core::run_batch`);
/// the engine reports its tick events to that sink too.
#[inline]
pub(crate) fn run<const TRACE: bool>(
    core: &mut Core,
    f: &Fetch,
    d: &Decoded,
    end: Option<FlowEnd>,
) -> StepOutcome {
    let facts = d.out.flow.facts();
    let uops = u64::from(facts.uops);

    core.m.stats.insts += 1;
    core.m.stats.uops += uops;
    core.m.stats.fused_slots += u64::from(d.fused_slots);
    core.m.stats.decoy_uops += u64::from(facts.decoys);
    core.m.prev_fusable_cmp = matches!(f.inst.placed.inst, Inst::Cmp { .. } | Inst::Test { .. });

    // Advance the clock and the engine's notion of time (watchdog, gate
    // residency) by the cycles this retire took. Nothing below moves the
    // clock, so `now` is also the retire's final cycle count.
    let before = core.m.stats.cycles;
    let now = match core.mode {
        SimMode::Functional => before + uops,
        SimMode::Cycle => ceil_u64(core.m.last_commit),
    };
    core.m.stats.cycles = now;
    if now > before {
        core.m
            .engine
            .tick_traced::<TRACE>(now - before, &mut core.sink);
    }

    emit_retire::<TRACE>(core, f.inst.placed.addr, facts.uops, now);

    match end {
        Some(FlowEnd::Halt) => {
            core.m.halted = true;
            core.m.stats.halted = true;
            decode::finalize_window(core);
            StepOutcome::Halted
        }
        Some(FlowEnd::Branch(t)) => {
            // A taken control transfer ends µop-cache window building,
            // even when the target lies in the same window.
            decode::finalize_window(core);
            core.m.state.rip = t;
            StepOutcome::Running
        }
        None => {
            core.m.state.rip = f.inst.next;
            StepOutcome::Running
        }
    }
}

/// Reports a retire, the core's latest, to its sink when `TRACE`; the
/// per-instruction retire and the block path both report through here.
#[inline]
pub(crate) fn emit_retire<const TRACE: bool>(core: &mut Core, addr: u64, uops: u32, cycles: u64) {
    if TRACE {
        let ev = RetireEvent {
            addr,
            uops,
            insts: core.m.stats.insts,
            cycles,
        };
        core.sink.with(|s| s.on_retire(&ev));
    }
}

#[cfg(test)]
mod tests {
    use crate::{Core, CoreConfig, SimMode, StepOutcome};
    use csd::CsdConfig;
    use mx86_isa::{Assembler, Gpr};

    #[test]
    fn halt_latches_and_freezes_cycle_count() {
        let mut a = Assembler::new(0x1000);
        a.mov_ri(Gpr::Rax, 1);
        a.halt();
        let mut c = Core::new(
            CoreConfig::default(),
            CsdConfig::default(),
            a.finish().unwrap(),
            SimMode::Cycle,
        );
        assert_eq!(c.run(100), StepOutcome::Halted);
        assert!(c.halted());
        assert!(c.stats().halted);
        let frozen = c.stats().cycles;
        assert_eq!(c.step(), StepOutcome::Halted);
        assert_eq!(c.stats().cycles, frozen, "halted step must be inert");
    }
}
