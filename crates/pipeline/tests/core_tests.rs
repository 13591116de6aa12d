//! Integration tests for the simulator core: functional correctness,
//! cross-engine equivalence, CSD end-to-end behavior, and timing sanity.

use csd::{msr, CsdConfig, DevecThresholds, VpuPolicy};
use csd_pipeline::{Core, CoreConfig, SimMode, StepOutcome};
use csd_telemetry::coverage::key_cause;
use csd_telemetry::{ContextChangeEvent, EventSink};
use csd_uops::UReg;
use mx86_isa::{AluOp, Assembler, Cc, Gpr, MemRef, Program, Scale, VecOp, Width, Xmm};
use std::sync::{Arc, Mutex};

fn run_core(prog: Program, mode: SimMode) -> Core {
    let mut core = Core::new(CoreConfig::default(), CsdConfig::default(), prog, mode);
    let out = core.run(1_000_000);
    assert_eq!(out, StepOutcome::Halted, "program must halt");
    core
}

#[test]
fn loop_countdown_executes_correctly() {
    for mode in [SimMode::Functional, SimMode::Cycle] {
        let mut a = Assembler::new(0x1000);
        let top = a.fresh_label();
        a.mov_ri(Gpr::Rax, 0);
        a.mov_ri(Gpr::Rcx, 50);
        a.bind(top).unwrap();
        a.alu_ri(AluOp::Add, Gpr::Rax, 3);
        a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
        a.jcc(Cc::Ne, top);
        a.halt();
        let core = run_core(a.finish().unwrap(), mode);
        assert_eq!(core.state().gpr(Gpr::Rax), 150, "{mode:?}");
        assert_eq!(core.stats().insts, 2 + 50 * 3 + 1);
    }
}

#[test]
fn loads_and_stores_roundtrip_through_memory() {
    let mut a = Assembler::new(0x1000);
    a.mov_ri(Gpr::Rbx, 0x8000);
    a.mov_ri(Gpr::Rax, 0xDEAD);
    a.store(MemRef::base(Gpr::Rbx), Gpr::Rax);
    a.load(Gpr::Rcx, MemRef::base(Gpr::Rbx));
    a.alu_store(
        AluOp::Add,
        MemRef::base(Gpr::Rbx),
        mx86_isa::RegImm::Imm(1),
        Width::B8,
    );
    a.load(Gpr::Rdx, MemRef::base(Gpr::Rbx));
    a.halt();
    let core = run_core(a.finish().unwrap(), SimMode::Cycle);
    assert_eq!(core.state().gpr(Gpr::Rcx), 0xDEAD);
    assert_eq!(core.state().gpr(Gpr::Rdx), 0xDEAE);
}

#[test]
fn call_and_ret_use_the_stack() {
    let mut a = Assembler::new(0x1000);
    let func = a.fresh_label();
    let done = a.fresh_label();
    a.mov_ri(Gpr::Rsp, 0x9000);
    a.call(func);
    a.jmp(done);
    a.bind(func).unwrap();
    a.mov_ri(Gpr::Rax, 42);
    a.ret();
    a.bind(done).unwrap();
    a.halt();
    let core = run_core(a.finish().unwrap(), SimMode::Cycle);
    assert_eq!(core.state().gpr(Gpr::Rax), 42);
    assert_eq!(core.state().gpr(Gpr::Rsp), 0x9000, "stack balanced");
}

#[test]
fn byte_width_loads_are_zero_extended() {
    let mut a = Assembler::new(0x1000);
    a.mov_ri(Gpr::Rbx, 0x8000);
    a.mov_ri(Gpr::Rax, 0x1234_56FF);
    a.store(MemRef::base(Gpr::Rbx), Gpr::Rax);
    a.load_w(Gpr::Rcx, MemRef::base(Gpr::Rbx), Width::B1);
    a.load_w(Gpr::Rdx, MemRef::base(Gpr::Rbx), Width::B2);
    a.halt();
    let core = run_core(a.finish().unwrap(), SimMode::Functional);
    assert_eq!(core.state().gpr(Gpr::Rcx), 0xFF);
    assert_eq!(core.state().gpr(Gpr::Rdx), 0x56FF);
}

#[test]
fn table_lookup_with_index_scaling() {
    let mut a = Assembler::new(0x1000);
    a.mov_ri(Gpr::Rbx, 0x8000);
    a.mov_ri(Gpr::Rcx, 5);
    a.load_w(
        Gpr::Rax,
        MemRef::base_index(Gpr::Rbx, Gpr::Rcx, Scale::S4),
        Width::B4,
    );
    a.halt();
    let prog = a.finish().unwrap();
    let mut core = Core::new(
        CoreConfig::default(),
        CsdConfig::default(),
        prog,
        SimMode::Cycle,
    );
    for i in 0..16u32 {
        core.mem_mut()
            .write_le(0x8000 + u64::from(i) * 4, 4, u64::from(i * 100));
    }
    assert_eq!(core.run(100), StepOutcome::Halted);
    assert_eq!(core.state().gpr(Gpr::Rax), 500);
}

#[test]
fn division_is_microsequenced_and_correct() {
    let mut a = Assembler::new(0x1000);
    a.mov_ri(Gpr::Rax, 1234);
    a.mov_ri(Gpr::Rdx, 0);
    a.mov_ri(Gpr::Rbx, 7);
    a.div(Gpr::Rbx);
    a.halt();
    let core = run_core(a.finish().unwrap(), SimMode::Cycle);
    assert_eq!(core.state().gpr(Gpr::Rax), 176);
    assert_eq!(core.state().gpr(Gpr::Rdx), 2);
    assert_eq!(core.stats().msrom_insts, 1);
}

#[test]
fn vector_ops_execute_on_vpu() {
    let mut a = Assembler::new(0x1000);
    a.mov_ri(Gpr::Rbx, 0x8000);
    a.vload(Xmm::new(0), MemRef::base(Gpr::Rbx));
    a.vload(Xmm::new(1), MemRef::base(Gpr::Rbx).with_disp(16));
    a.valu(VecOp::PAddB, Xmm::new(0), Xmm::new(1));
    a.vstore(MemRef::base(Gpr::Rbx).with_disp(32), Xmm::new(0));
    a.halt();
    let prog = a.finish().unwrap();
    let mut core = Core::new(
        CoreConfig::default(),
        CsdConfig::default(),
        prog,
        SimMode::Cycle,
    );
    core.mem_mut()
        .write_u128(0x8000, (0x0102_0304_0506_0708, 0xFF00_FF00_FF00_FF00));
    core.mem_mut()
        .write_u128(0x8010, (0x0101_0101_0101_0101, 0x0102_0102_0102_0102));
    assert_eq!(core.run(100), StepOutcome::Halted);
    assert_eq!(
        core.mem().read_u128(0x8020),
        (0x0203_0405_0607_0809, 0x0002_0002_0002_0002)
    );
    assert_eq!(core.stats().vpu_uops, 1);
}

/// The devectorized flow must compute exactly what the VPU computes.
#[test]
fn devectorized_results_match_vpu_results() {
    let build = || {
        let mut a = Assembler::new(0x1000);
        a.mov_ri(Gpr::Rbx, 0x8000);
        a.vload(Xmm::new(0), MemRef::base(Gpr::Rbx));
        a.vload(Xmm::new(1), MemRef::base(Gpr::Rbx).with_disp(16));
        // A long scalar phase so the CSD policy gates the VPU.
        for _ in 0..300 {
            a.alu_ri(AluOp::Add, Gpr::Rax, 1);
        }
        a.valu(VecOp::PAddB, Xmm::new(0), Xmm::new(1));
        a.valu(VecOp::PMullW, Xmm::new(0), Xmm::new(1));
        a.valu(VecOp::PXor, Xmm::new(0), Xmm::new(1));
        a.vstore(MemRef::base(Gpr::Rbx).with_disp(32), Xmm::new(0));
        a.halt();
        a.finish().unwrap()
    };
    let data = [
        (0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210),
        (0x1111_2222_3333_4444, 0x5555_6666_7777_8888),
    ];

    let mut on = Core::new(
        CoreConfig::default(),
        CsdConfig {
            vpu_policy: VpuPolicy::AlwaysOn,
            ..CsdConfig::default()
        },
        build(),
        SimMode::Cycle,
    );
    on.mem_mut().write_u128(0x8000, data[0]);
    on.mem_mut().write_u128(0x8010, data[1]);
    assert_eq!(on.run(10_000), StepOutcome::Halted);

    let mut devec = Core::new(
        CoreConfig::default(),
        CsdConfig {
            vpu_policy: VpuPolicy::CsdDevec(DevecThresholds {
                window: 64,
                low: 0,
                high: 50,
            }),
            ..CsdConfig::default()
        },
        build(),
        SimMode::Cycle,
    );
    devec.mem_mut().write_u128(0x8000, data[0]);
    devec.mem_mut().write_u128(0x8010, data[1]);
    assert_eq!(devec.run(10_000), StepOutcome::Halted);

    assert_eq!(
        on.mem().read_u128(0x8020),
        devec.mem().read_u128(0x8020),
        "scalarized flow must be semantically identical"
    );
    assert!(
        devec.stats().vpu_uops < on.stats().vpu_uops,
        "devec avoided the VPU"
    );
    assert!(
        devec.stats().uops > on.stats().uops,
        "µop expansion is the cost"
    );
    assert!(devec.engine().gate().stats().vec_gated > 0);
}

/// A victim with one key-dependent load (a tainted pointer): the key at
/// 0x8000 is tainted, and stealth is armed with the DIFT trigger over 4
/// decoy cache lines at 0xA000.
fn tainted_lookup_core(dift_enabled: bool) -> Core {
    let mut a = Assembler::new(0x1000);
    a.mov_ri(Gpr::Rbx, 0x8000); // key address
    a.load(Gpr::Rcx, MemRef::base(Gpr::Rbx)); // rcx ← key (tainted)
    a.mov_ri(Gpr::Rdx, 0xA000); // table base
    a.load_w(
        Gpr::Rax,
        MemRef::base_index(Gpr::Rdx, Gpr::Rcx, Scale::S1),
        Width::B1,
    ); // tainted table lookup
    a.halt();
    let prog = a.finish().unwrap();

    let cfg = CoreConfig {
        dift_enabled,
        ..CoreConfig::default()
    };
    let mut core = Core::new(cfg, CsdConfig::default(), prog, SimMode::Functional);
    core.mem_mut().write_le(0x8000, 8, 3); // the "key"
    core.dift_mut()
        .taint_memory(mx86_isa::AddrRange::new(0x8000, 0x8008));
    let e = core.engine_mut();
    e.write_msr(msr::MSR_DATA_RANGE_BASE, 0xA000);
    e.write_msr(msr::MSR_DATA_RANGE_BASE + 1, 0xA000 + 4 * 64);
    e.write_msr(msr::MSR_CSD_CTL, msr::CTL_STEALTH | msr::CTL_DIFT_TRIGGER);
    core
}

#[test]
fn stealth_mode_sweeps_decoy_ranges_without_touching_arch_state() {
    let mut core = tainted_lookup_core(true);
    assert_eq!(core.run(100), StepOutcome::Halted);

    // All four decoy lines are now cached, though the victim only loaded
    // one byte of the range.
    for i in 0..4u64 {
        assert!(
            core.hierarchy().l1d().contains(0xA000 + i * 64),
            "decoy line {i} must be resident"
        );
    }
    assert!(core.stats().decoy_uops >= 4 * 3);
    // Architectural state: rax holds the real lookup (byte 0 of 0xA003=0).
    assert_eq!(core.state().gpr(Gpr::Rax), 0);
    assert_eq!(core.state().gpr(Gpr::Rcx), 3, "key value intact");
    assert_eq!(core.engine().stealth().stats().triggers, 1);
}

/// With DIFT off in the core's configuration, tainted memory taints
/// nothing, so the DIFT trigger never fires.
#[test]
fn disabled_dift_taints_nothing_and_triggers_nothing() {
    let mut core = tainted_lookup_core(false);
    assert_eq!(core.run(100), StepOutcome::Halted);
    assert_eq!(core.state().gpr(Gpr::Rcx), 3, "the key was loaded");
    assert_eq!(core.stats().decoy_uops, 0);
    assert_eq!(core.engine().stealth().stats().triggers, 0);
    let dift = core.dift_mut();
    let regs = Gpr::ALL
        .iter()
        .map(|&g| UReg::Gpr(g))
        .chain(Xmm::all().map(UReg::Xmm))
        .chain((0..UReg::TMP_COUNT as u8).map(UReg::Tmp))
        .chain((0..UReg::VTMP_COUNT as u8).map(UReg::VTmp));
    for r in regs {
        assert!(!dift.reg_tainted(r), "{r} tainted");
    }
    assert!(!dift.flags_tainted());
}

#[test]
fn stealth_mode_off_means_no_decoys() {
    let mut a = Assembler::new(0x1000);
    a.mov_ri(Gpr::Rdx, 0xA000);
    a.load_w(Gpr::Rax, MemRef::base(Gpr::Rdx), Width::B1);
    a.halt();
    let cfg = CoreConfig {
        dift_enabled: true,
        ..CoreConfig::default()
    };
    let mut core = Core::new(
        cfg,
        CsdConfig::default(),
        a.finish().unwrap(),
        SimMode::Functional,
    );
    assert_eq!(core.run(100), StepOutcome::Halted);
    assert_eq!(core.stats().decoy_uops, 0);
    assert!(!core.hierarchy().l1d().contains(0xA040));
}

#[test]
fn clflush_evicts_and_rdtsc_observes_the_difference() {
    let mut a = Assembler::new(0x1000);
    a.mov_ri(Gpr::Rbx, 0x8000);
    a.load(Gpr::Rax, MemRef::base(Gpr::Rbx)); // warm
    a.clflush(MemRef::base(Gpr::Rbx));
    a.halt();
    let core = run_core(a.finish().unwrap(), SimMode::Cycle);
    assert!(!core.hierarchy().present_anywhere(0x8000));
}

#[test]
fn uop_cache_accelerates_hot_loops() {
    // Long-immediate movs make the loop length-decode-bound on the legacy
    // path; the µop cache streams it at full width.
    let build = || {
        let mut a = Assembler::new(0x1000);
        let top = a.fresh_label();
        a.mov_ri(Gpr::Rcx, 2000);
        a.bind(top).unwrap();
        a.mov_ri(Gpr::Rax, 0x1111_2222_3333_4444);
        a.mov_ri(Gpr::Rbx, 0x5555_6666_7777_8888);
        a.mov_ri(Gpr::Rdx, 0x9999_AAAA_BBBB_CCCCu64 as i64);
        a.mov_ri(Gpr::Rsi, 0x1234_5678_9ABC_DEF0);
        a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
        a.jcc(Cc::Ne, top);
        a.halt();
        a.finish().unwrap()
    };
    let opt = run_core(build(), SimMode::Cycle);
    let mut no_opt = Core::new(
        CoreConfig::no_opt(),
        CsdConfig::default(),
        build(),
        SimMode::Cycle,
    );
    assert_eq!(no_opt.run(1_000_000), StepOutcome::Halted);

    let hr = opt.uop_cache_stats().hit_rate().unwrap();
    assert!(hr > 0.9, "hot loop must hit the µop cache, got {hr}");
    assert!(
        opt.stats().cycles < no_opt.stats().cycles,
        "µop cache + fusion must help: {} vs {}",
        opt.stats().cycles,
        no_opt.stats().cycles
    );
}

#[test]
fn functional_and_cycle_engines_agree_on_architectural_state() {
    let build = || {
        let mut a = Assembler::new(0x1000);
        let top = a.fresh_label();
        a.mov_ri(Gpr::Rsp, 0x9000);
        a.mov_ri(Gpr::Rcx, 30);
        a.mov_ri(Gpr::Rbx, 0x8000);
        a.bind(top).unwrap();
        a.alu_rr(AluOp::Add, Gpr::Rax, Gpr::Rcx);
        a.store(MemRef::base(Gpr::Rbx), Gpr::Rax);
        a.alu_load(AluOp::Xor, Gpr::Rdx, MemRef::base(Gpr::Rbx), Width::B8);
        a.push(Gpr::Rdx);
        a.pop(Gpr::Rsi);
        a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
        a.jcc(Cc::Ne, top);
        a.halt();
        a.finish().unwrap()
    };
    let f = run_core(build(), SimMode::Functional);
    let c = run_core(build(), SimMode::Cycle);
    assert_eq!(f.state().gprs(), c.state().gprs());
    assert_eq!(f.stats().insts, c.stats().insts);
    assert_eq!(f.stats().uops, c.stats().uops);
}

#[test]
fn mispredicted_branches_cost_cycles() {
    // A data-dependent unpredictable branch pattern vs. an always-taken one.
    let build = |pattern: bool| {
        let mut a = Assembler::new(0x1000);
        let top = a.fresh_label();
        let skip = a.fresh_label();
        a.mov_ri(Gpr::Rcx, 3000);
        a.mov_ri(Gpr::Rax, 0);
        a.bind(top).unwrap();
        a.alu_ri(AluOp::Add, Gpr::Rax, 1);
        if pattern {
            // LFSR-ish: test a mixed bit so direction alternates irregularly.
            a.mov_rr(Gpr::Rdx, Gpr::Rax);
            a.mul_ri(Gpr::Rdx, 0x9E37_79B9);
            a.alu_ri(AluOp::Shr, Gpr::Rdx, 13);
            a.test_ri(Gpr::Rdx, 1);
            a.jcc(Cc::Ne, skip);
            a.nop(1);
            a.bind(skip).unwrap();
        } else {
            a.nop(1);
            a.nop(1);
            a.nop(1);
            a.nop(1);
            a.nop(1);
            a.nop(1);
        }
        a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
        a.jcc(Cc::Ne, top);
        a.halt();
        a.finish().unwrap()
    };
    let noisy = run_core(build(true), SimMode::Cycle);
    assert!(
        noisy.branch_stats().cond_mispredicts > 50,
        "unpredictable branch must mispredict, got {}",
        noisy.branch_stats().cond_mispredicts
    );
}

#[test]
fn rdtsc_increases_monotonically() {
    let mut a = Assembler::new(0x1000);
    a.rdtsc();
    a.mov_rr(Gpr::Rbx, Gpr::Rax);
    for _ in 0..50 {
        a.alu_ri(AluOp::Add, Gpr::Rdx, 1);
    }
    a.rdtsc();
    a.halt();
    let core = run_core(a.finish().unwrap(), SimMode::Cycle);
    assert!(core.state().gpr(Gpr::Rax) > core.state().gpr(Gpr::Rbx));
}

#[test]
fn fault_on_wild_jump() {
    let mut a = Assembler::new(0x1000);
    a.mov_ri(Gpr::Rax, 0xDEAD_0000);
    a.jmp_ind(Gpr::Rax);
    let mut core = Core::new(
        CoreConfig::default(),
        CsdConfig::default(),
        a.finish().unwrap(),
        SimMode::Cycle,
    );
    assert_eq!(core.run(10), StepOutcome::Fault(0xDEAD_0000));
}

#[test]
fn activity_accounts_all_uop_classes() {
    let mut a = Assembler::new(0x1000);
    a.mov_ri(Gpr::Rbx, 0x8000);
    a.vload(Xmm::new(0), MemRef::base(Gpr::Rbx));
    a.valu(VecOp::PXor, Xmm::new(0), Xmm::new(0));
    a.store(MemRef::base(Gpr::Rbx), Gpr::Rax);
    a.halt();
    let core = run_core(a.finish().unwrap(), SimMode::Cycle);
    let act = core.activity();
    assert_eq!(act.ops(csd_power::Unit::Vpu), 1);
    assert_eq!(act.ops(csd_power::Unit::Lsu), 2);
    assert!(act.ops(csd_power::Unit::Core) >= 5);
    assert!(act.cycles > 0);
}

#[test]
fn restarted_core_reports_like_a_fresh_one() {
    let mut a = Assembler::new(0x1000);
    a.mov_ri(Gpr::Rax, 7);
    a.halt();
    let prog = a.finish().unwrap();
    let fresh = Core::new(
        CoreConfig::default(),
        CsdConfig::default(),
        prog.clone(),
        SimMode::Cycle,
    );

    // Set-up MSR writes touch no modeled counter and report nothing to
    // the core's sink, so after restart() the whole report must be byte-
    // identical to a never-used core's.
    let mut core = Core::new(
        CoreConfig::default(),
        CsdConfig::default(),
        prog.clone(),
        SimMode::Cycle,
    );
    let causes = record_causes(&mut core);
    core.engine_mut().write_msr(msr::MSR_WATCHDOG_PERIOD, 512);
    core.engine_mut().write_msr(0x9999, 1);
    assert_eq!(*causes.lock().unwrap(), [], "set-up writes report nothing");
    core.restart();
    assert_eq!(
        core.telemetry_report().pretty(),
        fresh.telemetry_report().pretty(),
        "restart must rewind kernel bookkeeping to fresh-core values"
    );

    // After real work the modeled counters persist across restart() by
    // contract (caches stay warm, stats keep accumulating), but the
    // kernel section — memo table and checkpoint counters — must still
    // match a fresh core byte for byte.
    let mut worked = Core::new(
        CoreConfig::default(),
        CsdConfig::default(),
        prog,
        SimMode::Cycle,
    );
    assert_eq!(worked.run(1_000), StepOutcome::Halted);
    assert!(worked.memo_stats().misses > 0 || !worked.memo_enabled());
    worked.restart();
    let fresh_kernel = fresh.telemetry_report().get("kernel").unwrap().pretty();
    let kernel = worked.telemetry_report().get("kernel").unwrap().pretty();
    assert_eq!(kernel, fresh_kernel);
}

/// A sink that records the cause of every context change it sees.
struct Causes(Arc<Mutex<Vec<u8>>>);

impl EventSink for Causes {
    fn on_context_change(&mut self, ev: &ContextChangeEvent) {
        self.0.lock().unwrap().push(ev.cause);
    }
}

/// Attaches a [`Causes`] sink to `core`; returns the causes it records.
fn record_causes(core: &mut Core) -> Arc<Mutex<Vec<u8>>> {
    let causes = Arc::new(Mutex::new(Vec::new()));
    core.set_event_sink(Box::new(Causes(Arc::clone(&causes))));
    causes
}

/// Every `wrmsr` a run retires reports its cause to the core's sink, in
/// both engines.
#[test]
fn a_retiring_wrmsr_reports_its_cause() {
    let mut a = Assembler::new(0x1000);
    a.mov_ri(Gpr::Rax, 512);
    a.wrmsr(msr::MSR_WATCHDOG_PERIOD, Gpr::Rax);
    a.wrmsr(0x9999, Gpr::Rax);
    a.halt();
    let prog = a.finish().unwrap();
    for mode in [SimMode::Functional, SimMode::Cycle] {
        let mut core = Core::new(
            CoreConfig::default(),
            CsdConfig::default(),
            prog.clone(),
            mode,
        );
        let causes = record_causes(&mut core);
        assert_eq!(core.run(100), StepOutcome::Halted);
        assert_eq!(core.engine().read_msr(msr::MSR_WATCHDOG_PERIOD), 512);
        assert_eq!(
            *causes.lock().unwrap(),
            [key_cause::MSR, key_cause::MSR],
            "{mode:?}"
        );
    }
}

/// A straight-line program longer than any fixed-size decode cache: its
/// second run decodes every instruction from the flow table, with no flow
/// built twice, in both engines.
#[test]
fn second_run_of_a_long_straight_line_program_never_rebuilds_a_flow() {
    let mut a = Assembler::new(0x1000);
    for i in 0..5_000i64 {
        a.alu_ri(AluOp::Add, Gpr::Rax, i % 13);
    }
    a.halt();
    let prog = a.finish().unwrap();
    assert!(prog.len() > 4_096);
    for mode in [SimMode::Functional, SimMode::Cycle] {
        let mut core = Core::new(
            CoreConfig::default(),
            CsdConfig::default(),
            prog.clone(),
            mode,
        );
        if !core.memo_enabled() {
            return; // CSD_DECODE_MEMO=0 disables the table process-wide.
        }
        assert_eq!(core.run(10_000), StepOutcome::Halted);
        assert_eq!(core.memo_stats().misses, prog.len() as u64, "{mode:?}");
        core.restart();
        let before = core.stats().insts;
        assert_eq!(core.run(10_000), StepOutcome::Halted);
        let m = *core.memo_stats();
        assert_eq!(m.misses, 0, "{mode:?}: {m:?}");
        assert_eq!(m.hits, core.stats().insts - before, "{mode:?}: {m:?}");
    }
}

#[test]
fn snapshot_restore_replays_identically() {
    let mut a = Assembler::new(0x1000);
    let top = a.fresh_label();
    a.mov_ri(Gpr::Rax, 0);
    a.mov_ri(Gpr::Rcx, 40);
    a.bind(top).unwrap();
    a.alu_ri(AluOp::Add, Gpr::Rax, 5);
    a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
    a.jcc(Cc::Ne, top);
    a.halt();
    let mut core = Core::new(
        CoreConfig::default(),
        CsdConfig::default(),
        a.finish().unwrap(),
        SimMode::Cycle,
    );
    for _ in 0..25 {
        assert_eq!(core.step(), StepOutcome::Running);
    }
    let ckpt = core.snapshot();

    assert_eq!(core.run(1_000_000), StepOutcome::Halted);
    let end_stats = *core.stats();
    let end_rax = core.state().gpr(Gpr::Rax);

    core.restore(&ckpt);
    assert_eq!(core.run(1_000_000), StepOutcome::Halted);
    assert_eq!(core.stats().cycles, end_stats.cycles);
    assert_eq!(core.stats().insts, end_stats.insts);
    assert_eq!(core.stats().uops, end_stats.uops);
    assert_eq!(core.state().gpr(Gpr::Rax), end_rax);
    assert_eq!(core.checkpoint_stats().snapshots, 1);
    assert_eq!(core.checkpoint_stats().restores, 1);
}
