//! Kernel-level properties of the flow table and of context changes: a
//! flow served from the table must equal a fresh, table-less decode of
//! the same instruction after any context change, and every change a run
//! makes to translation must report its cause to the lent sink — MSR
//! writes, stealth injections and re-arms, and VPU gate-state
//! transitions.

use csd::msr::{CTL_DIFT_TRIGGER, CTL_STEALTH, MSR_CSD_CTL, MSR_DATA_RANGE_BASE};
use csd::{
    ContextId, CsdConfig, CsdEngine, DevecThresholds, MicrocodeUpdate, OpcodeClass, PrivilegeLevel,
    VpuPolicy,
};
use csd_telemetry::coverage::key_cause;
use csd_telemetry::{ContextChangeEvent, EventSink, SinkHandle, SplitMix64};
use csd_uops::{FlowRef, FlowTable};
use mx86_isa::{Gpr, Inst, MemRef, Placed, VecOp, Width, Xmm};
use std::sync::{Arc, Mutex};

/// A sink that records the cause of every context change it sees.
struct Causes(Arc<Mutex<Vec<u8>>>);

impl EventSink for Causes {
    fn on_context_change(&mut self, ev: &ContextChangeEvent) {
        self.0.lock().unwrap().push(ev.cause);
    }
}

/// A handle with a [`Causes`] sink attached, and the causes it records.
fn recording() -> (SinkHandle, Arc<Mutex<Vec<u8>>>) {
    let causes = Arc::new(Mutex::new(Vec::new()));
    let mut sink = SinkHandle::new();
    sink.attach(Box::new(Causes(Arc::clone(&causes))));
    (sink, causes)
}

/// Takes the causes recorded so far.
fn take(causes: &Mutex<Vec<u8>>) -> Vec<u8> {
    std::mem::take(&mut *causes.lock().unwrap())
}

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

/// One recording sink per engine of [`decode_both`]: the tabled
/// engine's, then the plain engine's.
type Sinks = [(SinkHandle, Arc<Mutex<Vec<u8>>>); 2];

/// Decodes `menu` on both engines, each lending its sink, and requires
/// identical outcomes and the same cause sequence so far: the tabled
/// engine's flows come from `table`, the plain engine decodes through a
/// disabled table, which builds every flow afresh.
fn decode_both(
    tabled: &mut CsdEngine,
    plain: &mut CsdEngine,
    sinks: &mut Sinks,
    table: &mut FlowTable,
    menu: &[(Placed, bool)],
    step: &str,
) {
    let mut none = FlowTable::new(menu.len(), false);
    let [(tabled_sink, tabled_causes), (plain_sink, plain_causes)] = sinks;
    for (i, (p, tainted)) in menu.iter().enumerate() {
        let a = tabled.decode_memo_traced::<true>(p, i, *tainted, table, tabled_sink);
        let b = plain.decode_memo_traced::<true>(p, i, *tainted, &mut none, plain_sink);
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
    assert_eq!(
        *tabled_causes.lock().unwrap(),
        *plain_causes.lock().unwrap(),
        "{step}: both engines report the same cause sequence"
    );
}

/// What the deleted key-roll flush protected: after every kind of context
/// change, a flow served from the never-invalidated table equals a
/// table-less decode of the same instruction. The changes covered are an
/// MSR write, an MCU install plus `set_custom_mode` (and a newer revision
/// replacing the patch), `set_vpu_policy`, gate flips both ways, stealth
/// arm and inject, and a checkpoint restore (the engine rewinds, the
/// table stays, as in `Core::restore`). The changes a run makes (the MSR
/// write, the gate flips, the injection and the re-arm) each report their
/// cause.
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
    let mut sinks: Sinks = [recording(), recording()];
    let mut both =
        |tabled: &mut CsdEngine, plain: &mut CsdEngine, sinks: &mut Sinks, step: &str| {
            decode_both(tabled, plain, sinks, &mut table, &menu, step);
        };
    both(&mut tabled, &mut plain, &mut sinks, "cold");
    let snap = (tabled.clone(), plain.clone());

    // Gate flips: a scalar phase gates the VPU (vectors devectorize), a
    // vector phase wakes it (vectors run native again).
    decode_both(
        &mut tabled,
        &mut plain,
        &mut sinks,
        &mut FlowTable::new(1, true),
        &scalar_phase,
        "scalar phase",
    );
    assert!(!tabled.vpu_available(), "the scalar phase gates the VPU");
    both(&mut tabled, &mut plain, &mut sinks, "gated");
    decode_both(
        &mut tabled,
        &mut plain,
        &mut sinks,
        &mut FlowTable::new(1, true),
        &vector_phase,
        "vector phase",
    );
    both(&mut tabled, &mut plain, &mut sinks, "woken");

    for (e, (sink, _)) in [&mut tabled, &mut plain].into_iter().zip(&mut sinks) {
        e.write_msr_traced::<true>(0x9999, 7, sink);
    }
    both(&mut tabled, &mut plain, &mut sinks, "msr write");

    for e in [&mut tabled, &mut plain] {
        e.set_vpu_policy(VpuPolicy::AlwaysOn);
    }
    both(&mut tabled, &mut plain, &mut sinks, "policy always-on");
    for e in [&mut tabled, &mut plain] {
        e.set_vpu_policy(devec);
    }
    both(&mut tabled, &mut plain, &mut sinks, "policy devec");

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
        both(
            &mut tabled,
            &mut plain,
            &mut sinks,
            &format!("mcu revision {revision}"),
        );
    }
    for e in [&mut tabled, &mut plain] {
        e.set_custom_mode(None);
    }
    both(&mut tabled, &mut plain, &mut sinks, "custom mode off");

    // Stealth: arming makes the tainted load inject (disarming the
    // window); the watchdog re-arms it.
    for e in [&mut tabled, &mut plain] {
        e.write_msr(MSR_DATA_RANGE_BASE, 0x8000);
        e.write_msr(MSR_DATA_RANGE_BASE + 1, 0x8000 + 2 * 64);
        e.write_msr(MSR_CSD_CTL, CTL_STEALTH | CTL_DIFT_TRIGGER);
    }
    both(&mut tabled, &mut plain, &mut sinks, "stealth armed");
    assert!(tabled.stealth().stats().triggers > 0, "stealth injected");
    both(&mut tabled, &mut plain, &mut sinks, "stealth disarmed");
    for (e, (sink, _)) in [&mut tabled, &mut plain].into_iter().zip(&mut sinks) {
        e.tick_traced::<true>(10_000, sink);
    }
    both(&mut tabled, &mut plain, &mut sinks, "stealth re-armed");

    // Restore: both engines rewind to the cold checkpoint; the table keeps
    // every flow it built since.
    (tabled, plain) = (snap.0.clone(), snap.1.clone());
    both(&mut tabled, &mut plain, &mut sinks, "restored");
    let causes = take(&sinks[0].1);
    for cause in [
        key_cause::MSR,
        key_cause::STEALTH_ARM,
        key_cause::GATE,
        key_cause::STEALTH_INJECT,
    ] {
        assert!(causes.contains(&cause), "cause {cause} in {causes:?}");
    }

    let m = *table.stats();
    assert!(m.hits > 0 && m.bypasses > 0, "{m:?}");
    assert_eq!(
        m.misses as usize,
        menu.len() + 3,
        "each native flow and each vector instruction's devectorized flow \
         (the load's a decline) is built exactly once: {m:?}"
    );
}

/// Every MSR write a run makes reports one change, caused by the MSR, for
/// arbitrary indices and payloads.
#[test]
fn every_msr_write_reports_its_cause() {
    let mut e = CsdEngine::default();
    let (mut sink, causes) = recording();
    let mut rng = SplitMix64::new(0xC0FF);
    for i in 0..256u64 {
        e.write_msr_traced::<true>(rng.next_u32(), rng.next_u64(), &mut sink);
        assert_eq!(take(&causes), [key_cause::MSR], "step {i}");
    }
}

/// Gate-state transitions report their cause in both directions:
/// scalar-phase power-gating under the CSD policy, and, under the
/// conventional policy, gating by idle time alone and wake-up on a vector
/// instruction.
#[test]
fn gate_state_transitions_report_their_cause() {
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
    let (mut sink, causes) = recording();
    let mut table = FlowTable::new(8, true);
    for i in 0..8 {
        let p = menu(0x3000 + 16 * i as u64, 0);
        e.decode_memo_traced::<true>(&p, i, false, &mut table, &mut sink);
    }
    assert!(!e.vpu_available(), "scalar phase must gate the VPU");
    assert_eq!(take(&causes), [key_cause::GATE], "gating transition");

    // An idle conventional VPU gates as time passes, and powers back on
    // for a vector instruction during decode.
    let mut e = CsdEngine::new(CsdConfig {
        vpu_policy: VpuPolicy::Conventional {
            idle_gate_cycles: 10,
        },
        ..CsdConfig::default()
    });
    e.tick_traced::<true>(20, &mut sink);
    assert!(!e.vpu_available(), "idle conventional VPU must gate");
    assert_eq!(take(&causes), [key_cause::GATE], "idle gating");
    let mut table = FlowTable::new(1, true);
    let out = e.decode_memo_traced::<true>(&menu(0x4000, 3), 0, false, &mut table, &mut sink);
    assert!(
        out.stall_cycles > 0,
        "gated conventional VPU must pay a wake-up stall"
    );
    assert_eq!(take(&causes), [key_cause::GATE], "wake transition");
}
