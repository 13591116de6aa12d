//! Fetch stage: resolve the PC to a placed instruction and charge the
//! L1I for every cache line the encoding spans.

use crate::clock::later;
use crate::core::{Core, StepOutcome};
use crate::stage::Fetch;
use csd_cache::{AccessKind, AccessResult};
use mx86_isa::Program;

/// Fetches the instruction at the current PC from `program` (the core's,
/// held apart from it for the whole run like the flow table). Returns
/// what the rest of the pipeline needs, or the fault outcome when the PC
/// does not resolve to an instruction start. The instruction after the
/// previous fetch is tried first (`Core::fetch_hint`), so falling
/// through reads no fetch index.
#[inline]
pub(crate) fn run<'p>(core: &mut Core, program: &'p Program) -> Result<Fetch<'p>, StepOutcome> {
    let inst = match program.fetch_hinted(core.m.state.rip, core.fetch_hint) {
        Some(f) => f,
        None => return Err(StepOutcome::Fault(core.m.state.rip)),
    };
    core.fetch_hint = inst.index + 1;

    // Touch every line the encoding spans; the penalty is the worst
    // beyond-L1I latency among them (lines fill in parallel).
    let line = core.cfg.hierarchy.l1i.line_bytes as u64;
    let first = inst.placed.addr & !(line - 1);
    let last = (inst.next - 1) & !(line - 1);
    let mut fetch_penalty = 0.0;
    let mut a = first;
    while a <= last {
        let r = core.m.hier.access(a, AccessKind::InstFetch);
        fetch_penalty = penalty(core, fetch_penalty, r);
        a += line;
    }
    Ok(Fetch {
        inst,
        penalty: fetch_penalty,
    })
}

/// The fetch penalty so far, `worst`, after one more line's L1I access
/// `r`: a miss costs its latency beyond the L1I's, and an instruction's
/// lines fill in parallel, so the worst one counts.
#[inline]
pub(crate) fn penalty(core: &Core, worst: f64, r: AccessResult) -> f64 {
    if r.l1_hit() {
        return worst;
    }
    later(worst, (r.latency - core.cfg.hierarchy.l1i.latency) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreConfig, SimMode};
    use csd::CsdConfig;
    use mx86_isa::{Assembler, Gpr};

    fn core() -> Core {
        let mut a = Assembler::new(0x1000);
        a.mov_ri(Gpr::Rax, 7);
        a.halt();
        Core::new(
            CoreConfig::default(),
            CsdConfig::default(),
            a.finish().unwrap(),
            SimMode::Cycle,
        )
    }

    #[test]
    fn fetch_resolves_the_entry_instruction() {
        let mut c = core();
        let p = c.program.clone();
        let f = run(&mut c, &p).expect("entry fetch");
        assert_eq!(f.inst.placed.addr, 0x1000);
        assert_eq!(f.inst.index, 0);
        assert_eq!(f.inst.next, f.inst.placed.next_addr());
    }

    #[test]
    fn cold_fetch_pays_a_penalty_warm_fetch_does_not() {
        let mut c = core();
        let p = c.program.clone();
        let cold = run(&mut c, &p).unwrap();
        assert!(cold.penalty > 0.0, "first touch misses L1I");
        let warm = run(&mut c, &p).unwrap();
        assert_eq!(warm.penalty, 0.0, "second touch hits L1I");
    }

    #[test]
    fn bad_pc_faults() {
        let mut c = core();
        let p = c.program.clone();
        c.m.state.rip = 0xDEAD;
        assert_eq!(run(&mut c, &p).unwrap_err(), StepOutcome::Fault(0xDEAD));
    }
}
