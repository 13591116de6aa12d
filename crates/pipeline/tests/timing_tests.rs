//! Timing-model behavioral tests: effects that only exist in cycle mode.

use csd::{msr, CsdConfig};
use csd_pipeline::{Core, CoreConfig, SimMode, StepOutcome};
use mx86_isa::{AluOp, Assembler, Cc, Gpr, MemRef, Program, Width};

fn memory_walker(lines: i64, repeats: i64) -> Program {
    // Strides through `lines` cache lines `repeats` times, *accumulating*
    // the loaded values: the dependence chain through RAX makes load
    // latency visible to the timestamp-dataflow back end (independent
    // dead loads would be fully hidden by the out-of-order model).
    let mut a = Assembler::new(0x1000);
    let outer = a.fresh_label();
    let inner = a.fresh_label();
    a.mov_ri(Gpr::R15, repeats);
    a.bind(outer).unwrap();
    a.mov_ri(Gpr::Rbx, 0x10_0000);
    a.mov_ri(Gpr::Rcx, lines);
    a.bind(inner).unwrap();
    a.alu_load(AluOp::Add, Gpr::Rax, MemRef::base(Gpr::Rbx), Width::B8);
    a.alu_ri(AluOp::Add, Gpr::Rbx, 64);
    a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
    a.jcc(Cc::Ne, inner);
    a.alu_ri(AluOp::Sub, Gpr::R15, 1);
    a.jcc(Cc::Ne, outer);
    a.halt();
    a.finish().unwrap()
}

fn run(cfg: CoreConfig, prog: Program) -> Core {
    let mut core = Core::new(cfg, CsdConfig::default(), prog, SimMode::Cycle);
    assert_eq!(core.run(10_000_000), StepOutcome::Halted);
    core
}

/// A working set larger than the L1 must cost more cycles than one that
/// fits — the memory hierarchy is wired into the timing model.
#[test]
fn cache_misses_cost_cycles() {
    let fits = run(CoreConfig::default(), memory_walker(8, 50));
    let thrashes = run(CoreConfig::default(), memory_walker(1024, 50));
    let fits_cpl = fits.stats().cycles as f64 / fits.stats().insts as f64;
    let thrash_cpl = thrashes.stats().cycles as f64 / thrashes.stats().insts as f64;
    assert!(
        thrash_cpl > fits_cpl * 1.2,
        "L1-resident {fits_cpl:.3} vs thrashing {thrash_cpl:.3} cycles/inst"
    );
}

/// DIFT's extra L2-tag lookup latency must show up on loads.
#[test]
fn dift_penalty_slows_loads() {
    let base = run(CoreConfig::default(), memory_walker(16, 100));
    let dift = run(
        CoreConfig {
            dift_enabled: true,
            ..CoreConfig::default()
        },
        memory_walker(16, 100),
    );
    assert!(
        dift.stats().cycles > base.stats().cycles,
        "dift {} vs base {}",
        dift.stats().cycles,
        base.stats().cycles
    );
}

/// Conventional-wake stalls appear in the cycle count: a vector op after a
/// long scalar stretch pays the 30-cycle wake under the conventional
/// policy but not under always-on.
#[test]
fn conventional_wake_stall_is_visible() {
    use csd::VpuPolicy;
    let build = || {
        let mut a = Assembler::new(0x1000);
        a.mov_ri(Gpr::Rbx, 0x8000);
        a.vload(mx86_isa::Xmm::new(0), MemRef::base(Gpr::Rbx));
        for _ in 0..600 {
            a.alu_ri(AluOp::Add, Gpr::Rax, 1);
        }
        a.valu(
            mx86_isa::VecOp::PXor,
            mx86_isa::Xmm::new(0),
            mx86_isa::Xmm::new(0),
        );
        a.halt();
        a.finish().unwrap()
    };
    let mk = |policy| {
        let cfg = CsdConfig {
            vpu_policy: policy,
            ..CsdConfig::default()
        };
        let mut c = Core::new(CoreConfig::default(), cfg, build(), SimMode::Cycle);
        assert_eq!(c.run(100_000), StepOutcome::Halted);
        c
    };
    let on = mk(VpuPolicy::AlwaysOn);
    let conv = mk(VpuPolicy::Conventional {
        idle_gate_cycles: 50,
    });
    assert!(conv.stats().stall_cycles >= 30, "demand wake must stall");
    assert!(conv.stats().cycles > on.stats().cycles);
}

/// Stealth mode in cycle mode: decoy sweeps are re-paced by the watchdog,
/// so halving the period roughly doubles the decoy volume.
#[test]
fn watchdog_period_paces_decoy_volume() {
    let build = || {
        let mut a = Assembler::new(0x1000);
        let top = a.fresh_label();
        a.mov_ri(Gpr::Rbx, 0x7000); // secret location
        a.load(Gpr::Rdi, MemRef::base(Gpr::Rbx)); // tainted
        a.mov_ri(Gpr::Rcx, 4000);
        a.bind(top).unwrap();
        a.mov_rr(Gpr::Rdx, Gpr::Rdi);
        a.alu_ri(AluOp::And, Gpr::Rdx, 0x3f);
        a.load_w(
            Gpr::Rax,
            MemRef::base_index(Gpr::Rdx, Gpr::Rdx, mx86_isa::Scale::S1).with_disp(0x8000),
            Width::B1,
        );
        a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
        a.jcc(Cc::Ne, top);
        a.halt();
        a.finish().unwrap()
    };
    let decoys_at = |period: u64| {
        let cfg = CoreConfig {
            dift_enabled: true,
            ..CoreConfig::default()
        };
        let mut c = Core::new(cfg, CsdConfig::default(), build(), SimMode::Cycle);
        c.dift_mut()
            .taint_memory(mx86_isa::AddrRange::new(0x7000, 0x7008));
        let e = c.engine_mut();
        e.write_msr(msr::MSR_DATA_RANGE_BASE, 0x9000);
        e.write_msr(msr::MSR_DATA_RANGE_BASE + 1, 0x9000 + 4 * 64);
        e.write_msr(msr::MSR_WATCHDOG_PERIOD, period);
        e.write_msr(msr::MSR_CSD_CTL, msr::CTL_STEALTH | msr::CTL_DIFT_TRIGGER);
        assert_eq!(c.run(1_000_000), StepOutcome::Halted);
        c.stats().decoy_uops
    };
    let fast = decoys_at(500);
    let slow = decoys_at(4000);
    assert!(
        fast > slow * 3,
        "decoys at 500-cycle watchdog ({fast}) should far exceed 4000-cycle ({slow})"
    );
}

/// A divide writes the flags, so a conditional branch right after `div`
/// resolves only once the divide completes: a mispredicted `jcc` there
/// redirects fetch after the divide latency plus the mispredict penalty.
/// The branch targets the next instruction, so a taken (mispredicted)
/// and a not-taken (predicted) branch fetch the same bytes and differ
/// only in the redirect.
#[test]
fn a_mispredict_after_div_pays_the_div_latency() {
    let cfg = CoreConfig {
        div_latency: 100,
        ..CoreConfig::default()
    };
    let cycles = |cc: Cc| {
        let mut a = Assembler::new(0x1000);
        let next = a.fresh_label();
        a.mov_ri(Gpr::Rax, 1234);
        a.mov_ri(Gpr::Rdx, 0);
        a.mov_ri(Gpr::Rbx, 7);
        a.div(Gpr::Rbx); // remainder 2: ZF clear
        a.jcc(cc, next); // a cold predictor says not taken
        a.bind(next).unwrap();
        a.halt();
        let core = run(cfg.clone(), a.finish().unwrap());
        (core.stats().cycles, core.branch_stats().cond_mispredicts)
    };
    let (predicted, none) = cycles(Cc::Eq);
    let (redirected, one) = cycles(Cc::Ne);
    assert_eq!((none, one), (0, 1));
    assert!(
        redirected >= predicted + cfg.mispredict_penalty,
        "mispredicted {redirected} vs predicted {predicted} cycles: \
         the redirect must wait for the divide"
    );
}
