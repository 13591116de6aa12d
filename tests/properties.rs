//! Property-based tests over the core data structures and invariants,
//! driven by the workspace's deterministic PRNG (`csd-telemetry`): each
//! property runs against dozens of seeded random cases, and a failing
//! case's number identifies its seed.

use csd_repro::core::{msr, CsdConfig, CsdEngine};
use csd_repro::isa::{
    AddrRange, AluOp, Assembler, Cc, Gpr, Inst, MemRef, Placed, RegImm, Scale, VecOp, Width, Xmm,
    MAX_INST_LEN,
};
use csd_repro::pipeline::{valu, Core, CoreConfig, SimMode, StepOutcome};
use csd_repro::telemetry::SplitMix64;
use csd_repro::uops::{fuse_slots, fused_len_of, translate};

const CASES: u64 = 64;

/// Re-exported helper (fusion::fused_len) under a stable name for tests.
fn fused_len(uops: &[csd_repro::uops::Uop]) -> usize {
    fused_len_of(uops)
}

fn arb_gpr(rng: &mut SplitMix64) -> Gpr {
    Gpr::from_index(rng.range_usize(0, 16))
}

fn arb_xmm(rng: &mut SplitMix64) -> Xmm {
    Xmm::new(rng.next_u8() % 16)
}

fn arb_mem(rng: &mut SplitMix64) -> MemRef {
    MemRef {
        base: Some(arb_gpr(rng)),
        index: if rng.next_bool() {
            Some((arb_gpr(rng), Scale::S4))
        } else {
            None
        },
        disp: rng.range_i64(-512, 512),
    }
}

const VEC_OPS: [VecOp; 16] = [
    VecOp::PAddB,
    VecOp::PAddW,
    VecOp::PAddD,
    VecOp::PAddQ,
    VecOp::PSubB,
    VecOp::PSubD,
    VecOp::PAnd,
    VecOp::POr,
    VecOp::PXor,
    VecOp::PMullW,
    VecOp::PMullD,
    VecOp::AddPs,
    VecOp::SubPs,
    VecOp::MulPs,
    VecOp::AddPd,
    VecOp::MulPd,
];

fn arb_vecop(rng: &mut SplitMix64) -> VecOp {
    VEC_OPS[rng.range_usize(0, VEC_OPS.len())]
}

fn arb_inst(rng: &mut SplitMix64) -> Inst {
    match rng.range_u64(0, 14) {
        0 => Inst::Nop {
            len: rng.range_u64(1, 15) as u32,
        },
        1 => Inst::MovRR {
            dst: arb_gpr(rng),
            src: arb_gpr(rng),
        },
        2 => Inst::MovRI {
            dst: arb_gpr(rng),
            imm: rng.next_u64() as i64,
        },
        3 => Inst::Load {
            dst: arb_gpr(rng),
            mem: arb_mem(rng),
            width: Width::B8,
        },
        4 => Inst::Store {
            mem: arb_mem(rng),
            src: arb_gpr(rng),
            width: Width::B8,
        },
        5 => Inst::Alu {
            op: AluOp::Xor,
            dst: arb_gpr(rng),
            src: RegImm::Reg(arb_gpr(rng)),
        },
        6 => Inst::AluLoad {
            op: AluOp::Add,
            dst: arb_gpr(rng),
            mem: arb_mem(rng),
            width: Width::B4,
        },
        7 => Inst::AluStore {
            op: AluOp::Or,
            mem: arb_mem(rng),
            src: RegImm::Imm(rng.range_i64(-100, 100)),
            width: Width::B8,
        },
        8 => Inst::Div { src: arb_gpr(rng) },
        9 => Inst::VAlu {
            op: arb_vecop(rng),
            dst: arb_xmm(rng),
            src: arb_xmm(rng),
        },
        10 => Inst::Ret,
        11 => Inst::Call {
            target: rng.range_u64(0, 1 << 30),
        },
        12 => Inst::Push { src: arb_gpr(rng) },
        _ => Inst::Pop { dst: arb_gpr(rng) },
    }
}

/// Every instruction encodes within x86's 1..=15 byte bounds.
#[test]
fn encoding_lengths_in_bounds() {
    for case in 0..CASES * 4 {
        let mut rng = SplitMix64::new(0xE9C0 + case);
        let inst = arb_inst(&mut rng);
        assert!(
            (1..=MAX_INST_LEN).contains(&inst.len()),
            "case {case}: {inst:?}"
        );
    }
}

/// Every native translation yields at least one µop, all structurally
/// valid, none decoys.
#[test]
fn translations_are_valid() {
    for case in 0..CASES * 4 {
        let mut rng = SplitMix64::new(0x7A45 + case);
        let inst = arb_inst(&mut rng);
        let pc = rng.range_u64(0, 1 << 30);
        let t = translate(&inst, pc);
        assert!(!t.uops.is_empty(), "case {case}");
        for u in &t.uops {
            assert!(u.validate().is_ok(), "case {case}: {u}: invalid");
            assert!(!u.is_decoy(), "case {case}: {u}: unexpected decoy");
        }
    }
}

/// Fusion never grows a flow and never shrinks it below half.
#[test]
fn fusion_bounds() {
    for case in 0..CASES * 4 {
        let mut rng = SplitMix64::new(0xF45E + case);
        let inst = arb_inst(&mut rng);
        let t = translate(&inst, 0);
        let fused = fused_len(&t.uops);
        assert!(fused <= t.uops.len(), "case {case}");
        assert!(fused * 2 >= t.uops.len(), "case {case}");
        assert_eq!(fused, fuse_slots(&t.uops).len(), "case {case}");
    }
}

/// Condition codes and their inversions partition flag space.
#[test]
fn cc_inversion() {
    for bits in 0u8..16 {
        let (zf, sf, cf, of) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0);
        for cc in Cc::ALL {
            assert_ne!(
                cc.eval(zf, sf, cf, of),
                cc.invert().eval(zf, sf, cf, of),
                "{cc:?}/{bits}"
            );
        }
    }
}

/// Stealth decoy µops never name an architectural destination and never
/// store, for arbitrary decoy ranges.
#[test]
fn decoys_never_touch_architectural_state() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xDEC0 + case);
        let start = rng.range_u64(0, 1 << 20) << 6;
        let blocks = rng.range_u64(1, 32);
        let mut engine = CsdEngine::new(CsdConfig::default());
        engine.write_msr(msr::MSR_DATA_RANGE_BASE, start);
        engine.write_msr(msr::MSR_DATA_RANGE_BASE + 1, start + blocks * 64);
        engine.write_msr(msr::MSR_CSD_CTL, msr::CTL_STEALTH | msr::CTL_DIFT_TRIGGER);
        let p = Placed {
            addr: 0x1000,
            inst: Inst::Load {
                dst: Gpr::Rax,
                mem: MemRef::base(Gpr::Rbx),
                width: Width::B8,
            },
        };
        let out = engine.decode(&p, true);
        let decoys: Vec<_> = out.flow.uops().iter().filter(|u| u.is_decoy()).collect();
        assert_eq!(decoys.len() as u64, 1 + 3 * blocks, "case {case}");
        for u in decoys {
            assert!(u.validate().is_ok(), "case {case}");
            if let Some(d) = u.regs().write {
                assert!(!d.is_architectural(), "case {case}");
            }
            assert!(!u.kind.is_store(), "case {case}");
        }
    }
}

/// Devectorized vector arithmetic is bit-exact with the VPU for
/// arbitrary packed operands: run the same program under AlwaysOn and an
/// immediately-gating CSD policy and compare results.
#[test]
fn devectorization_is_semantics_preserving() {
    for case in 0..24 {
        let mut rng = SplitMix64::new(0xDE4C + case);
        let op = arb_vecop(&mut rng);
        let a = (rng.next_u64(), rng.next_u64());
        let b = (rng.next_u64(), rng.next_u64());
        let build = || {
            let mut asm = Assembler::new(0x1000);
            asm.mov_ri(Gpr::Rbx, 0x8000);
            asm.vload(Xmm::new(0), MemRef::base(Gpr::Rbx));
            asm.vload(Xmm::new(1), MemRef::base(Gpr::Rbx).with_disp(16));
            for _ in 0..260 {
                asm.alu_ri(AluOp::Add, Gpr::Rax, 1); // force gating
            }
            asm.valu(op, Xmm::new(0), Xmm::new(1));
            asm.vstore(MemRef::base(Gpr::Rbx).with_disp(32), Xmm::new(0));
            asm.halt();
            asm.finish().unwrap()
        };
        let run = |policy| {
            let cfg = CsdConfig {
                vpu_policy: policy,
                ..CsdConfig::default()
            };
            let mut core = Core::new(CoreConfig::default(), cfg, build(), SimMode::Functional);
            core.mem_mut().write_u128(0x8000, a);
            core.mem_mut().write_u128(0x8010, b);
            assert_eq!(core.run(10_000), StepOutcome::Halted, "case {case}");
            core.mem().read_u128(0x8020)
        };
        let on = run(csd_repro::core::VpuPolicy::AlwaysOn);
        let devec = run(csd_repro::core::VpuPolicy::default());
        assert_eq!(on, devec, "case {case}: {op}: scalarized result differs");
        // And both match the reference packed semantics.
        assert_eq!(on, valu(op, a, b), "case {case}: {op}");
    }
}

/// Address ranges: block iteration covers exactly the touched lines.
#[test]
fn range_blocks_cover() {
    for case in 0..CASES * 4 {
        let mut rng = SplitMix64::new(0x4A6E + case);
        let start = rng.range_u64(0, 1 << 20);
        let len = rng.range_u64(1, 4096);
        let r = AddrRange::with_len(start, len);
        let blocks: Vec<u64> = r.blocks(64).collect();
        assert!(!blocks.is_empty(), "case {case}");
        for b in &blocks {
            assert_eq!(b % 64, 0, "case {case}");
        }
        assert!(blocks[0] <= start && start < blocks[0] + 64, "case {case}");
        let last = blocks[blocks.len() - 1];
        assert!(last < r.end && r.end <= last + 64, "case {case}");
    }
}

/// Assembled programs are contiguous with resolvable fetches.
#[test]
fn programs_are_contiguous() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xC047 + case);
        let n = rng.range_usize(1, 40);
        let mut a = Assembler::new(0x4000);
        for _ in 0..n {
            a.emit(arb_inst(&mut rng));
        }
        let p = a.finish().unwrap();
        let mut expect = 0x4000;
        for placed in &p {
            assert_eq!(placed.addr, expect, "case {case}");
            assert!(p.fetch(placed.addr).is_some(), "case {case}");
            expect = placed.next_addr();
        }
        assert_eq!(p.end_addr(), expect, "case {case}");
    }
}

/// Decode-class accounting is conserved: every retired instruction was
/// delivered by exactly one of the µop cache, the legacy decoders, or
/// the MS-ROM, so `uop_cache_insts + legacy_insts + msrom_insts ==
/// insts` after any straight-line program.
#[test]
fn decode_classes_partition_insts() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xDCDC + case);
        let n = rng.range_usize(1, 120);
        let mut asm = Assembler::new(0x1000);
        // Point every base register at mapped scratch memory so random
        // loads and stores resolve.
        for r in 0..16 {
            asm.mov_ri(Gpr::from_index(r), 0x8000 + 64 * r as i64);
        }
        for _ in 0..n {
            let inst = match rng.range_u64(0, 7) {
                0 => Inst::Nop {
                    len: rng.range_u64(1, 15) as u32,
                },
                1 => Inst::MovRI {
                    dst: arb_gpr(&mut rng),
                    imm: rng.range_i64(1, 1 << 20),
                },
                2 => Inst::Alu {
                    op: AluOp::Add,
                    dst: arb_gpr(&mut rng),
                    src: RegImm::Imm(rng.range_i64(0, 64)),
                },
                3 => Inst::Load {
                    dst: arb_gpr(&mut rng),
                    mem: MemRef::base(Gpr::Rbx).with_disp(rng.range_i64(0, 256)),
                    width: Width::B8,
                },
                4 => Inst::Store {
                    mem: MemRef::base(Gpr::Rcx).with_disp(rng.range_i64(0, 256)),
                    src: arb_gpr(&mut rng),
                    width: Width::B8,
                },
                5 => Inst::Div {
                    src: arb_gpr(&mut rng),
                }, // exercises the MS-ROM
                _ => Inst::VAlu {
                    op: arb_vecop(&mut rng),
                    dst: arb_xmm(&mut rng),
                    src: arb_xmm(&mut rng),
                },
            };
            asm.emit(inst);
        }
        asm.halt();
        let program = asm.finish().unwrap();
        for (cfg, mode) in [
            (CoreConfig::opt(), SimMode::Cycle),
            (CoreConfig::no_opt(), SimMode::Cycle),
            (CoreConfig::default(), SimMode::Functional),
        ] {
            let mut core = Core::new(cfg, CsdConfig::default(), program.clone(), mode);
            assert_eq!(core.run(1_000_000), StepOutcome::Halted, "case {case}");
            let s = core.stats();
            assert_eq!(
                s.uop_cache_insts + s.legacy_insts + s.msrom_insts,
                s.insts,
                "case {case} ({mode:?}): decode classes must partition instructions"
            );
            assert!(s.decoy_uops <= s.uops, "case {case}: decoys exceed µops");
        }
    }
}
