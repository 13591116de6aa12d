//! Commit stage: retire accounting, engine time advance, retire-event
//! emission, and the PC update / halt latch.

use crate::core::{Core, SimMode, StepOutcome};
use crate::decode;
use crate::stage::{Decoded, Fetch, FlowEnd};
use csd_telemetry::RetireEvent;
use mx86_isa::Inst;

/// Retires the macro-op: statistics, watchdog/gate time advance, the
/// retire event, and the next-PC decision from how execute ended the
/// flow.
#[inline]
pub(crate) fn run(core: &mut Core, f: &Fetch, d: &Decoded, end: Option<FlowEnd>) -> StepOutcome {
    let facts = d.out.flow.facts();
    let uops = u64::from(facts.uops);

    core.stats.insts += 1;
    core.stats.uops += uops;
    core.stats.fused_slots += u64::from(d.fused_slots);
    core.stats.decoy_uops += u64::from(facts.decoys);
    core.prev_fusable_cmp = matches!(f.inst.placed.inst, Inst::Cmp { .. } | Inst::Test { .. });

    if core.mode == SimMode::Functional {
        core.func_cycles += uops;
    }

    // Advance the engine's notion of time (watchdog, gate residency).
    let now = core.cycles();
    let delta = now.saturating_sub(core.last_tick);
    if delta > 0 {
        core.engine.tick(delta);
        core.last_tick = now;
    }

    let ev = RetireEvent {
        addr: f.inst.placed.addr,
        uops: uops as u32,
        insts: core.stats.insts,
        cycles: now,
    };
    core.sink.with(|s| s.on_retire(&ev));

    match end {
        Some(FlowEnd::Halt) => {
            core.halted = true;
            core.stats.halted = true;
            decode::finalize_window(core);
            core.stats.cycles = core.cycles();
            StepOutcome::Halted
        }
        Some(FlowEnd::Branch(t)) => {
            // A taken control transfer ends µop-cache window building,
            // even when the target lies in the same window.
            decode::finalize_window(core);
            core.state.rip = t;
            core.stats.cycles = core.cycles();
            StepOutcome::Running
        }
        None => {
            core.state.rip = f.inst.next;
            core.stats.cycles = core.cycles();
            StepOutcome::Running
        }
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
