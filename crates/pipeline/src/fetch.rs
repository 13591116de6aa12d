//! Fetch stage: resolve the PC to a placed instruction and charge the
//! L1I for every cache line the encoding spans.

use crate::core::{Core, StepOutcome};
use crate::stage::Fetch;
use csd_cache::AccessKind;

/// Fetches the instruction at the current PC. Returns what the rest of
/// the pipeline needs, or the fault outcome when the PC does not resolve
/// to an instruction start.
#[inline]
pub(crate) fn run(core: &mut Core) -> Result<Fetch, StepOutcome> {
    let inst = match core.program.fetch_indexed(core.state.rip) {
        Some(f) => f,
        None => return Err(StepOutcome::Fault(core.state.rip)),
    };

    // Touch every line the encoding spans; the penalty is the worst
    // beyond-L1I latency among them (lines fill in parallel).
    let line = core.cfg.hierarchy.l1i.line_bytes as u64;
    let first = inst.placed.addr & !(line - 1);
    let last = (inst.next - 1) & !(line - 1);
    let mut fetch_penalty = 0.0;
    let mut a = first;
    while a <= last {
        let r = core.hier.access(a, AccessKind::InstFetch);
        if !r.l1_hit() {
            fetch_penalty = f64::max(
                fetch_penalty,
                (r.latency - core.cfg.hierarchy.l1i.latency) as f64,
            );
        }
        a += line;
    }
    Ok(Fetch {
        inst,
        penalty: fetch_penalty,
    })
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
        let f = run(&mut c).expect("entry fetch");
        assert_eq!(f.inst.placed.addr, 0x1000);
        assert_eq!(f.inst.index, 0);
        assert_eq!(f.inst.next, f.inst.placed.next_addr());
    }

    #[test]
    fn cold_fetch_pays_a_penalty_warm_fetch_does_not() {
        let mut c = core();
        let cold = run(&mut c).unwrap();
        assert!(cold.penalty > 0.0, "first touch misses L1I");
        let warm = run(&mut c).unwrap();
        assert_eq!(warm.penalty, 0.0, "second touch hits L1I");
    }

    #[test]
    fn bad_pc_faults() {
        let mut c = core();
        c.state.rip = 0xDEAD;
        assert_eq!(run(&mut c).unwrap_err(), StepOutcome::Fault(0xDEAD));
    }
}
