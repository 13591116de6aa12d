//! Tracing is observation only: a core with an event sink attached
//! computes and reports exactly what the same core computes with none, in
//! both simulation modes, with and without stealth. The core's sink is
//! the one channel: it sees the CSD engine's decode events and the
//! core's retire events as one ordered stream, and it stays attached
//! across a snapshot restore. `Core::run` tests for a sink once per
//! batch, so a sink attached between two batches sees all of the later
//! one and nothing of the earlier. Each decode event says how the flow
//! table served it and carries the stealth window it opened, so the
//! stream's counts equal the core's own.

use csd_difftest::generator::{CODE_BASE, DATA_BASE, DATA_SIZE};
use csd_difftest::harness::STEALTH_WATCHDOG;
use csd_difftest::Generator;
use csd_repro::attack::{victim_core, Defense};
use csd_repro::core::{CsdConfig, DevecThresholds, VpuPolicy};
use csd_repro::crypto::{arm_stealth, AesKeySize, AesVictim, CipherDir, Victim};
use csd_repro::isa::{AddrRange, Program};
use csd_repro::pipeline::{Core, CoreConfig, SimMode, StepOutcome};
use csd_repro::telemetry::coverage::flow_served;
use csd_repro::telemetry::{
    CountingSink, DecodeEvent, EventSink, GateEvent, RetireEvent, StoreEvent,
};
use std::sync::{Arc, Mutex};

const KEY: [u8; 16] = [
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
];

const MODES: [SimMode; 2] = [SimMode::Functional, SimMode::Cycle];

/// A [`CountingSink`] the test can read while the core owns the sink.
struct Shared(Arc<Mutex<CountingSink>>);

impl EventSink for Shared {
    fn on_decode(&mut self, ev: &DecodeEvent) {
        self.0.lock().unwrap().on_decode(ev);
    }
    fn on_retire(&mut self, ev: &RetireEvent) {
        self.0.lock().unwrap().on_retire(ev);
    }
    fn on_store(&mut self, ev: &StoreEvent) {
        self.0.lock().unwrap().on_store(ev);
    }
    fn on_gate(&mut self, ev: &GateEvent) {
        self.0.lock().unwrap().on_gate(ev);
    }
}

/// Attaches a counting sink to the core; returns its counts.
fn attach(core: &mut Core) -> Arc<Mutex<CountingSink>> {
    let counts = Arc::default();
    core.set_event_sink(Box::new(Shared(Arc::clone(&counts))));
    counts
}

/// Builds the core twice, drives the copy with sinks attached and the
/// one without the same way, and requires identical reports, statistics,
/// architectural state and drive results; the sinks must have seen every
/// retire and every decode.
fn assert_tracing_is_transparent<T: PartialEq + std::fmt::Debug>(
    what: &str,
    build: impl Fn() -> Core,
    drive: impl Fn(&mut Core) -> T,
) {
    let mut plain = build();
    let mut traced = build();
    let counts = attach(&mut traced);
    let want = drive(&mut plain);
    assert_eq!(drive(&mut traced), want, "{what}: results");
    assert_eq!(traced.stats(), plain.stats(), "{what}: SimStats");
    assert_eq!(
        traced.telemetry_report().dump(),
        plain.telemetry_report().dump(),
        "{what}: telemetry"
    );
    let (a, b) = (traced.state(), plain.state());
    assert_eq!(a.gprs(), b.gprs(), "{what}: gprs");
    assert_eq!(a.xmms(), b.xmms(), "{what}: xmms");
    assert_eq!(a.flags, b.flags, "{what}: flags");
    assert_eq!(a.rip, b.rip, "{what}: rip");
    let counts = counts.lock().unwrap();
    assert_eq!(counts.retires, plain.stats().insts, "{what}");
    assert_eq!(
        counts.decodes,
        plain.engine().stats().decoded_insts,
        "{what}"
    );
}

#[test]
fn sinks_change_nothing_on_the_aes_victim() {
    let v = AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &KEY);
    for mode in MODES {
        for defense in [Defense::None, Defense::stealth_default()] {
            assert_tracing_is_transparent(
                &format!("aes {mode:?} {defense:?}"),
                || victim_core(&v, mode, defense),
                |core| {
                    (0..8u8)
                        .map(|i| v.run_once(core, &[i.wrapping_mul(37); 16]))
                        .collect::<Vec<_>>()
                },
            );
        }
    }
}

/// A difftest core as the cosimulation harness arms its devectorizing
/// legs: a short criticality window, so the VPU gate flips often, and
/// with stealth, decoy ranges over the data and code heads, the data
/// region tainted, and the DIFT trigger on.
fn difftest_core(program: &Program, mode: SimMode, stealth: bool) -> Core {
    let cfg = CoreConfig {
        dift_enabled: stealth,
        ..CoreConfig::default()
    };
    let csd = CsdConfig {
        vpu_policy: VpuPolicy::CsdDevec(DevecThresholds {
            window: 8,
            low: 1,
            high: 16,
        }),
        ..CsdConfig::default()
    };
    let mut core = Core::new(cfg, csd, program.clone(), mode);
    if stealth {
        arm_stealth(
            &mut core,
            &[AddrRange::new(DATA_BASE, DATA_BASE + 128)],
            &[AddrRange::new(CODE_BASE, CODE_BASE + 128)],
            STEALTH_WATCHDOG,
        );
        core.dift_mut()
            .taint_memory(AddrRange::new(DATA_BASE, DATA_BASE + DATA_SIZE));
    }
    core
}

#[test]
fn sinks_change_nothing_on_difftest_programs() {
    for seed in 0..6 {
        let program = Generator::new(seed).program().assemble().unwrap();
        for mode in MODES {
            for stealth in [false, true] {
                assert_tracing_is_transparent(
                    &format!("difftest seed {seed} {mode:?} stealth {stealth}"),
                    || difftest_core(&program, mode, stealth),
                    |core| {
                        assert_eq!(core.run(1_000_000), StepOutcome::Halted);
                        core.mem().read_bytes(DATA_BASE, DATA_SIZE as usize)
                    },
                );
            }
        }
    }
    // The programs flip the gate, so every gate-driven context change and
    // gate event is exercised on both sides.
    let program = Generator::new(0).program().assemble().unwrap();
    let mut core = difftest_core(&program, SimMode::Functional, false);
    core.run(1_000_000);
    let gate = core.engine().gate().stats();
    assert!(gate.on_cycles > 0 && gate.gated_cycles > 0, "{gate:?}");
}

#[test]
fn a_sink_attached_between_batches_sees_exactly_the_later_one() {
    let v = AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &KEY);
    for mode in MODES {
        let mut core = victim_core(&v, mode, Defense::stealth_default());
        v.run_once(&mut core, &[1; 16]);
        v.prepare(&mut core, &[2; 16]);
        assert_eq!(core.run(100), StepOutcome::Running);
        let (insts, decodes) = (core.stats().insts, core.engine().stats().decoded_insts);
        let counts = attach(&mut core);
        assert_eq!(core.run(1_000_000), StepOutcome::Halted);
        let counts = counts.lock().unwrap();
        assert_eq!(counts.retires, core.stats().insts - insts, "{mode:?}");
        assert_eq!(
            counts.decodes,
            core.engine().stats().decoded_insts - decodes,
            "{mode:?}"
        );
        assert!(counts.decoy_uops > 0, "{mode:?}: stealth");
    }
}

/// One event of the stream a [`Recorder`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    /// A decode: its address, how the flow table served it, and whether
    /// it opened a stealth window.
    Decode {
        addr: u64,
        served: u8,
        window: bool,
    },
    Retire(u64),
    Gate,
}

/// A sink that records the decode, retire and gate events it sees, in
/// order.
struct Recorder(Arc<Mutex<Vec<Seen>>>);

impl EventSink for Recorder {
    fn on_decode(&mut self, ev: &DecodeEvent) {
        self.0.lock().unwrap().push(Seen::Decode {
            addr: ev.addr,
            served: ev.served,
            window: ev.stealth_window().is_some(),
        });
    }
    fn on_retire(&mut self, ev: &RetireEvent) {
        self.0.lock().unwrap().push(Seen::Retire(ev.addr));
    }
    fn on_gate(&mut self, _ev: &GateEvent) {
        self.0.lock().unwrap().push(Seen::Gate);
    }
}

/// Attaches a [`Recorder`] to the core; returns the stream it records.
fn record(core: &mut Core) -> Arc<Mutex<Vec<Seen>>> {
    let seen = Arc::default();
    core.set_event_sink(Box::new(Recorder(Arc::clone(&seen))));
    seen
}

/// Runs `drive` on `core` with a [`Recorder`] attached and requires one
/// ordered stream: decodes and retires alternate, each retire's address
/// is the address of the decode before it, and every retire and decode
/// the core counts is in it. Returns the stream.
fn assert_one_ordered_stream(what: &str, mut core: Core, drive: impl Fn(&mut Core)) -> Vec<Seen> {
    let seen = record(&mut core);
    drive(&mut core);
    let seen = seen.lock().unwrap().clone();
    let mut last_decode = None;
    let mut retires = 0;
    for (i, ev) in seen.iter().enumerate() {
        match *ev {
            Seen::Decode { addr, .. } => {
                assert_eq!(last_decode, None, "{what}: two decodes before event {i}");
                last_decode = Some(addr);
            }
            Seen::Retire(addr) => {
                assert_eq!(
                    last_decode.take(),
                    Some(addr),
                    "{what}: retire at event {i}"
                );
                retires += 1;
            }
            Seen::Gate => {}
        }
    }
    assert_eq!(last_decode, None, "{what}: a decode never retired");
    assert_eq!(retires, core.stats().insts, "{what}: retires");
    assert_eq!(
        retires,
        core.engine().stats().decoded_insts,
        "{what}: decodes"
    );
    seen
}

#[test]
fn one_sink_sees_one_ordered_stream() {
    let v = AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &KEY);
    for mode in MODES {
        let seen = assert_one_ordered_stream(
            &format!("stealth aes {mode:?}"),
            victim_core(&v, mode, Defense::stealth_default()),
            |core| {
                for i in 0..4u8 {
                    v.run_once(core, &[i.wrapping_mul(37); 16]);
                }
            },
        );
        assert!(
            seen.iter()
                .any(|ev| matches!(ev, Seen::Decode { window: true, .. })),
            "{mode:?}: decoy windows"
        );
    }
    // A devectorizing difftest program: gate events arrive in the same
    // stream as the decodes and retires they sit between.
    let program = Generator::new(0).program().assemble().unwrap();
    for mode in MODES {
        let seen = assert_one_ordered_stream(
            &format!("devec difftest {mode:?}"),
            difftest_core(&program, mode, false),
            |core| assert_eq!(core.run(1_000_000), StepOutcome::Halted),
        );
        assert!(seen.contains(&Seen::Gate), "{mode:?}: gate events");
    }
}

#[test]
fn a_sink_survives_snapshot_and_restore() {
    let v = AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &KEY);
    for mode in MODES {
        let mut core = victim_core(&v, mode, Defense::stealth_default());
        let counts = attach(&mut core);
        v.prepare(&mut core, &[3; 16]);
        assert_eq!(core.run(200), StepOutcome::Running);
        let snap = core.snapshot();
        let (insts, decodes) = (core.stats().insts, core.engine().stats().decoded_insts);
        assert_eq!(core.run(1_000_000), StepOutcome::Halted);
        core.restore(&snap);
        let before = *counts.lock().unwrap();
        assert_eq!(core.run(1_000_000), StepOutcome::Halted);
        let after = *counts.lock().unwrap();
        assert!(core.stats().insts > insts, "{mode:?}: the rerun retired");
        assert_eq!(
            after.retires - before.retires,
            core.stats().insts - insts,
            "{mode:?}: retires after the restore"
        );
        assert_eq!(
            after.decodes - before.decodes,
            core.engine().stats().decoded_insts - decodes,
            "{mode:?}: decodes after the restore"
        );
        assert!(
            after.decoy_uops > before.decoy_uops,
            "{mode:?}: stealth decodes reach the sink after the restore"
        );
    }
}

/// Drives `core` with a [`Recorder`] attached and requires the decode
/// events' flow-table outcomes to equal the core's flow-table counts, and
/// the decodes that opened a stealth window to equal the stealth
/// translator's triggers, over the drive. Returns the stealth windows.
fn assert_decodes_count_like_the_core(
    what: &str,
    core: &mut Core,
    drive: impl FnOnce(&mut Core),
) -> u64 {
    let seen = record(core);
    let memo = *core.memo_stats();
    let triggers = core.engine().stealth().stats().triggers;
    drive(core);
    let (mut served, mut windows) = ([0u64; 3], 0);
    for ev in seen.lock().unwrap().iter() {
        if let Seen::Decode {
            served: s, window, ..
        } = *ev
        {
            served[usize::from(s)] += 1;
            windows += u64::from(window);
        }
    }
    let after = core.memo_stats();
    assert_eq!(
        served[usize::from(flow_served::HIT)],
        after.hits - memo.hits,
        "{what}: hits"
    );
    assert_eq!(
        served[usize::from(flow_served::MISS)],
        after.misses - memo.misses,
        "{what}: misses"
    );
    assert_eq!(
        served[usize::from(flow_served::BYPASS)],
        after.bypasses - memo.bypasses,
        "{what}: bypasses"
    );
    let triggers = core.engine().stealth().stats().triggers - triggers;
    assert_eq!(windows, triggers, "{what}: stealth windows");
    windows
}

#[test]
fn decode_events_count_table_outcomes_and_stealth_windows() {
    let v = AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &KEY);
    for mode in MODES {
        let mut core = victim_core(&v, mode, Defense::stealth_default());
        for i in 0..4u8 {
            // `prepare` restarts the core, which resets its flow-table
            // counts; the drive is the encryption's run.
            v.prepare(&mut core, &[i.wrapping_mul(37); 16]);
            let windows = assert_decodes_count_like_the_core(
                &format!("stealth aes {mode:?} #{i}"),
                &mut core,
                |core| assert_eq!(core.run(10_000_000), StepOutcome::Halted),
            );
            assert!(windows > 0, "{mode:?}: stealth opens windows");
        }
    }
    let program = Generator::new(0).program().assemble().unwrap();
    for mode in MODES {
        for stealth in [false, true] {
            assert_decodes_count_like_the_core(
                &format!("devec difftest {mode:?} stealth {stealth}"),
                &mut difftest_core(&program, mode, stealth),
                |core| assert_eq!(core.run(1_000_000), StepOutcome::Halted),
            );
        }
    }
}
