//! Kernel-level properties of the flow table and the context key: a flow
//! served from the table must equal a fresh, table-less decode of the
//! same instruction after any context change, and the context key must
//! roll on every event that can change decode semantics — MSR writes,
//! microcode updates, and VPU gate-state transitions.

use csd::msr::{CTL_DIFT_TRIGGER, CTL_STEALTH, MSR_CSD_CTL, MSR_DATA_RANGE_BASE};
use csd::{
    ContextId, CsdConfig, CsdEngine, DevecThresholds, MicrocodeUpdate, OpcodeClass, PrivilegeLevel,
    VpuPolicy,
};
use csd_telemetry::SplitMix64;
use csd_uops::{FlowRef, FlowTable};
use mx86_isa::{Gpr, Inst, MemRef, Placed, VecOp, Width, Xmm};

fn menu(addr: u64, pick: u64) -> Placed {
    let inst = match pick % 4 {
        0 => Inst::MovRI {
            dst: Gpr::Rax,
            imm: 0x1234 + (pick % 97) as i64,
        },
        1 => Inst::Load {
            dst: Gpr::Rcx,
            mem: MemRef::base(Gpr::Rbx),
            width: Width::B8,
        },
        2 => Inst::Store {
            mem: MemRef::base(Gpr::Rbx),
            src: Gpr::Rdx,
            width: Width::B4,
        },
        _ => Inst::VAlu {
            op: VecOp::PAddB,
            dst: Xmm::new(0),
            src: Xmm::new(1),
        },
    };
    Placed { addr, inst }
}

/// A table hit yields a flow identical to what a table-less engine builds
/// for the same instruction — the table changes where the flow lives,
/// never the µops.
#[test]
fn memo_hit_flow_is_identical_to_fresh_translation() {
    let cfg = || CsdConfig {
        vpu_policy: VpuPolicy::AlwaysOn,
        ..CsdConfig::default()
    };
    let mut tabled = CsdEngine::new(cfg());
    let mut fresh = CsdEngine::new(cfg());
    let mut table = FlowTable::new(32, true);
    let mut rng = SplitMix64::new(0x3E30);

    let placed: Vec<Placed> = (0..32)
        .map(|i| menu(0x1000 + 16 * i, rng.next_u64()))
        .collect();
    // First pass fills the table.
    for (i, p) in placed.iter().enumerate() {
        tabled.decode_memo(p, i, false, &mut table);
    }
    assert_eq!(table.stats().misses as usize, placed.len());
    // Second pass must hit, and every table flow must equal the owned
    // flow a table-less engine builds.
    for (i, p) in placed.iter().enumerate() {
        let hit = tabled.decode_memo(p, i, false, &mut table);
        let own = fresh.decode(p, false);
        assert!(
            matches!(hit.flow, FlowRef::Table(..)),
            "revisiting {p:?} must be served from the table"
        );
        assert!(
            matches!(own.flow, FlowRef::Fresh(_)),
            "a table-less decode builds its flow"
        );
        assert_eq!(
            hit.flow, own.flow,
            "table hit and fresh translation differ for {p:?}"
        );
        assert_eq!(hit.context, own.context);
    }
    assert_eq!(table.stats().hits as usize, placed.len());
    assert_eq!(table.stats().misses as usize, placed.len());
}

/// Decodes `menu` on both engines and requires identical outcomes: the
/// tabled engine's flows come from `table`, the plain engine builds every
/// flow afresh.
fn decode_both(
    tabled: &mut CsdEngine,
    plain: &mut CsdEngine,
    table: &mut FlowTable,
    menu: &[(Placed, bool)],
    step: &str,
) {
    for (i, (p, tainted)) in menu.iter().enumerate() {
        let a = tabled.decode_memo(p, i, *tainted, table);
        let b = plain.decode(p, *tainted);
        assert_eq!(a.context, b.context, "{step}: context of {p:?}");
        assert_eq!(a.flow, b.flow, "{step}: flow of {p:?}");
        assert_eq!(a.stall_cycles, b.stall_cycles, "{step}: stall of {p:?}");
        assert_eq!(a.vector_class, b.vector_class, "{step}: class of {p:?}");
    }
    assert_eq!(tabled.stats(), plain.stats(), "{step}");
    assert_eq!(tabled.stealth().stats(), plain.stealth().stats(), "{step}");
    assert_eq!(
        tabled.devectorizer().stats(),
        plain.devectorizer().stats(),
        "{step}"
    );
    assert_eq!(tabled.gate().stats(), plain.gate().stats(), "{step}");
    assert_eq!(tabled.context_key(), plain.context_key(), "{step}");
}

/// What the deleted key-roll flush protected: after every kind of context
/// change, a flow served from the never-invalidated table equals a
/// table-less decode of the same instruction. The changes covered are an
/// MSR write, an MCU install plus `set_custom_mode` (and a newer revision
/// replacing the patch), `set_vpu_policy`, gate flips both ways, stealth
/// arm and inject, a checkpoint restore (the engine rewinds, the table
/// stays, as in `Core::restore`) and a restart's key reset.
#[test]
fn table_flows_match_a_table_less_decode_after_every_context_change() {
    let devec = VpuPolicy::CsdDevec(DevecThresholds {
        window: 8,
        low: 1,
        high: 16,
    });
    let cfg = CsdConfig {
        vpu_policy: devec,
        ..CsdConfig::default()
    };
    let mut tabled = CsdEngine::new(cfg.clone());
    let mut plain = CsdEngine::new(cfg);
    let at = |i: u64, inst| Placed {
        addr: 0x1000 + 16 * i,
        inst,
    };
    let vec_alu = Inst::VAlu {
        op: VecOp::PAddB,
        dst: Xmm::new(0),
        src: Xmm::new(1),
    };
    let menu: Vec<(Placed, bool)> = vec![
        (at(0, Inst::Nop { len: 1 }), false),
        (menu(0, 0), false),
        (at(2, menu(0, 1).inst), true),
        (at(3, menu(0, 2).inst), false),
        (at(4, vec_alu), false),
        (
            at(
                5,
                Inst::VMovRR {
                    dst: Xmm::new(2),
                    src: Xmm::new(3),
                },
            ),
            false,
        ),
        (
            at(
                6,
                Inst::VLoad {
                    dst: Xmm::new(1),
                    mem: MemRef::base(Gpr::Rsi),
                },
            ),
            false,
        ),
    ];
    let scalar_phase: Vec<(Placed, bool)> = (0..24).map(|_| (menu[1].0, false)).collect();
    let vector_phase: Vec<(Placed, bool)> = (0..16).map(|_| (menu[4].0, false)).collect();
    let mut table = FlowTable::new(menu.len(), true);
    let mut both = |tabled: &mut CsdEngine, plain: &mut CsdEngine, step: &str| {
        decode_both(tabled, plain, &mut table, &menu, step);
    };
    both(&mut tabled, &mut plain, "cold");
    let snap = (tabled.clone(), plain.clone());

    // Gate flips: a scalar phase gates the VPU (vectors devectorize), a
    // vector phase wakes it (vectors run native again).
    decode_both(
        &mut tabled,
        &mut plain,
        &mut FlowTable::new(1, true),
        &scalar_phase,
        "scalar phase",
    );
    assert!(!tabled.vpu_available(), "the scalar phase gates the VPU");
    both(&mut tabled, &mut plain, "gated");
    decode_both(
        &mut tabled,
        &mut plain,
        &mut FlowTable::new(1, true),
        &vector_phase,
        "vector phase",
    );
    both(&mut tabled, &mut plain, "woken");

    for e in [&mut tabled, &mut plain] {
        e.write_msr(0x9999, 7);
    }
    both(&mut tabled, &mut plain, "msr write");

    for e in [&mut tabled, &mut plain] {
        e.set_vpu_policy(VpuPolicy::AlwaysOn);
    }
    both(&mut tabled, &mut plain, "policy always-on");
    for e in [&mut tabled, &mut plain] {
        e.set_vpu_policy(devec);
    }
    both(&mut tabled, &mut plain, "policy devec");

    for revision in [1, 2] {
        let body = vec![Inst::Nop { len: 1 }; revision as usize + 1];
        let mcu = MicrocodeUpdate::new(
            revision,
            OpcodeClass::Nop,
            ContextId::Custom(0),
            false,
            body,
        );
        for e in [&mut tabled, &mut plain] {
            e.apply_microcode_update(&mcu, PrivilegeLevel::Kernel)
                .expect("valid update");
            e.set_custom_mode(Some(0));
        }
        both(&mut tabled, &mut plain, &format!("mcu revision {revision}"));
    }
    for e in [&mut tabled, &mut plain] {
        e.set_custom_mode(None);
    }
    both(&mut tabled, &mut plain, "custom mode off");

    // Stealth: arming makes the tainted load inject (disarming the
    // window); the watchdog re-arms it.
    for e in [&mut tabled, &mut plain] {
        e.write_msr(MSR_DATA_RANGE_BASE, 0x8000);
        e.write_msr(MSR_DATA_RANGE_BASE + 1, 0x8000 + 2 * 64);
        e.write_msr(MSR_CSD_CTL, CTL_STEALTH | CTL_DIFT_TRIGGER);
    }
    both(&mut tabled, &mut plain, "stealth armed");
    assert!(tabled.stealth().stats().triggers > 0, "stealth injected");
    both(&mut tabled, &mut plain, "stealth disarmed");
    for e in [&mut tabled, &mut plain] {
        e.tick(10_000);
    }
    both(&mut tabled, &mut plain, "stealth re-armed");

    // Restore: both engines rewind to the cold checkpoint; the table keeps
    // every flow it built since.
    (tabled, plain) = (snap.0.clone(), snap.1.clone());
    both(&mut tabled, &mut plain, "restored");
    for e in [&mut tabled, &mut plain] {
        e.reset_context_key();
    }
    both(&mut tabled, &mut plain, "restarted");

    let m = *table.stats();
    assert!(m.hits > 0 && m.bypasses > 0, "{m:?}");
    assert_eq!(
        m.misses as usize,
        menu.len() + 3,
        "each native flow and each vector instruction's devectorized flow \
         (the load's a decline) is built exactly once: {m:?}"
    );
}

/// The context key strictly increases on every MSR write and every
/// verified microcode update, for arbitrary indices and payloads.
#[test]
fn context_key_rolls_on_msr_writes_and_microcode_updates() {
    let mut e = CsdEngine::default();
    let mut rng = SplitMix64::new(0xC0FF);
    for i in 0..256u64 {
        let before = e.context_key();
        if i % 4 == 3 {
            let mcu = MicrocodeUpdate::new(
                i as u32 + 1,
                OpcodeClass::Nop,
                ContextId::Custom(rng.next_u8() % 8),
                false,
                vec![Inst::Nop { len: 1 }],
            );
            e.apply_microcode_update(&mcu, PrivilegeLevel::Kernel)
                .expect("valid update");
        } else {
            e.write_msr(rng.next_u32(), rng.next_u64());
        }
        assert!(e.context_key() > before, "context key stalled at step {i}");
    }
}

/// Gate-state transitions roll the context key in both directions:
/// scalar-phase power-gating under the CSD policy, and wake-up on a
/// vector instruction under the conventional policy.
#[test]
fn context_key_rolls_on_gate_state_transitions() {
    // Gate-off transition: eight scalar decodes under CsdDevec gate the
    // VPU.
    let mut e = CsdEngine::new(CsdConfig {
        vpu_policy: VpuPolicy::CsdDevec(DevecThresholds {
            window: 8,
            low: 1,
            high: 16,
        }),
        ..CsdConfig::default()
    });
    let k0 = e.context_key();
    for i in 0..8 {
        e.decode(&menu(0x3000 + 16 * i, 0), false);
    }
    assert!(!e.vpu_available(), "scalar phase must gate the VPU");
    assert!(e.context_key() > k0, "gating transition must roll the key");

    // Wake-up transition: a gated conventional VPU powers back on for a
    // vector instruction during decode.
    let mut e = CsdEngine::new(CsdConfig {
        vpu_policy: VpuPolicy::Conventional {
            idle_gate_cycles: 10,
        },
        ..CsdConfig::default()
    });
    e.tick(20);
    assert!(!e.vpu_available(), "idle conventional VPU must gate");
    let k1 = e.context_key();
    let out = e.decode(&menu(0x4000, 3), false);
    assert!(
        out.stall_cycles > 0,
        "gated conventional VPU must pay a wake-up stall"
    );
    assert!(e.context_key() > k1, "wake transition must roll the key");
}
