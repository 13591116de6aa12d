//! Property-based tests for the CSD engine's invariants, driven by the
//! workspace's deterministic PRNG (`csd-telemetry`): each property runs
//! against dozens of seeded random cases, and a failing case's number
//! identifies its seed.

use csd::{msr, ContextId, CsdConfig, CsdEngine, DevecThresholds, VpuPolicy, VpuState};
use csd_telemetry::SplitMix64;
use mx86_isa::{AluOp, Gpr, Inst, MemRef, Placed, RegImm, VecOp, Width, Xmm};

const CASES: u64 = 48;

fn arb_simple_inst(rng: &mut SplitMix64) -> Inst {
    match rng.range_u64(0, 5) {
        0 => Inst::MovRI {
            dst: Gpr::from_index(rng.range_usize(0, 16)),
            imm: 1,
        },
        1 => Inst::Alu {
            op: AluOp::Add,
            dst: Gpr::from_index(rng.range_usize(0, 16)),
            src: RegImm::Imm(1),
        },
        2 => Inst::Load {
            dst: Gpr::from_index(rng.range_usize(0, 16)),
            mem: MemRef::base(Gpr::Rbx),
            width: Width::B8,
        },
        3 => {
            let x = rng.next_u8() % 16;
            Inst::VAlu {
                op: VecOp::PAddD,
                dst: Xmm::new(x),
                src: Xmm::new((x + 1) % 16),
            }
        }
        _ => Inst::Nop { len: 1 },
    }
}

/// For any instruction stream and taint pattern, a stealth-armed engine
/// keeps two invariants: decoy µops appear only on tainted
/// load/store/branch macro-ops, and the non-decoy subsequence of every
/// translation equals the native translation. On top of that, the
/// engine's counters satisfy `decoy_uops <= total_uops` at every step.
#[test]
fn stealth_only_augments() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x51EA + case);
        let n = rng.range_usize(1, 60);
        let insts: Vec<Inst> = (0..n).map(|_| arb_simple_inst(&mut rng)).collect();
        let taints: Vec<bool> = (0..n).map(|_| rng.next_bool()).collect();

        let mut engine = CsdEngine::new(CsdConfig::default());
        engine.write_msr(msr::MSR_DATA_RANGE_BASE, 0x8000);
        engine.write_msr(msr::MSR_DATA_RANGE_BASE + 1, 0x8000 + 4 * 64);
        engine.write_msr(msr::MSR_CSD_CTL, msr::CTL_STEALTH | msr::CTL_DIFT_TRIGGER);

        let mut pc = 0x1000u64;
        for (inst, &tainted) in insts.iter().zip(&taints) {
            let placed = Placed {
                addr: pc,
                inst: *inst,
            };
            let native = csd_uops::translate(inst, placed.next_addr());
            let out = engine.decode(&placed, tainted);

            let non_decoys: Vec<_> = out
                .flow
                .uops()
                .iter()
                .filter(|u| !u.is_decoy())
                .copied()
                .collect();
            assert_eq!(
                non_decoys, native.uops,
                "case {case}: non-decoy stream must be the native translation"
            );

            let has_decoys = out.flow.uops().iter().any(|u| u.is_decoy());
            if has_decoys {
                assert!(
                    inst.is_load() || inst.is_store() || inst.is_branch(),
                    "case {case}"
                );
                assert!(tainted, "case {case}");
                assert_eq!(out.context, ContextId::Stealth, "case {case}");
            }
            let s = engine.stats();
            assert!(
                s.decoy_uops <= s.total_uops,
                "case {case}: decoy µops {} exceed total µops {}",
                s.decoy_uops,
                s.total_uops
            );
            engine.tick(7); // let the watchdog creep
            pc = placed.next_addr();
        }
    }
}

/// The gate controller's residency counters always partition time, under
/// any interleaving of ticks and vector/scalar instructions.
#[test]
fn gate_residency_partitions_time() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x6A7E + case);
        let n = rng.range_usize(1, 200);
        let cfg = CsdConfig {
            vpu_policy: VpuPolicy::CsdDevec(DevecThresholds {
                window: 16,
                low: 1,
                high: 4,
            }),
            ..CsdConfig::default()
        };
        let mut engine = CsdEngine::new(cfg);
        let scalar = Placed {
            addr: 0,
            inst: Inst::Nop { len: 1 },
        };
        let vector = Placed {
            addr: 0x20,
            inst: Inst::VAlu {
                op: VecOp::PAddB,
                dst: Xmm::new(0),
                src: Xmm::new(1),
            },
        };
        let mut total = 0u64;
        for _ in 0..n {
            let is_vec = rng.next_bool();
            let ticks = rng.range_u64(1, 50);
            engine.decode(if is_vec { &vector } else { &scalar }, false);
            engine.tick(ticks);
            total += ticks;
            let s = engine.gate().stats();
            assert_eq!(s.total_cycles(), total, "case {case}");
            assert_eq!(
                s.vec_total(),
                s.vec_on + s.vec_powering_on + s.vec_gated,
                "case {case}"
            );
        }
        // State machine is always in a legal state.
        match engine.gate().state() {
            VpuState::On | VpuState::Gated => {}
            VpuState::Waking { remaining } => assert!(remaining <= 30, "case {case}"),
        }
    }
}

/// MSR reads always return the last write (the file is a plain register
/// file, whatever the decoder does with snapshots).
#[test]
fn msr_file_is_a_register_file() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x135F + case);
        let n = rng.range_usize(1, 50);
        let mut engine = CsdEngine::new(CsdConfig::default());
        let mut last = std::collections::HashMap::new();
        for _ in 0..n {
            let reg = rng.range_u64(0xC50, 0xC90) as u32;
            let val = rng.next_u64();
            engine.write_msr(reg, val);
            last.insert(reg, val);
        }
        for (reg, val) in last {
            assert_eq!(engine.read_msr(reg), val, "case {case}: msr {reg:#x}");
        }
    }
}
