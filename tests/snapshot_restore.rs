//! The whole-machine checkpoint contract: a core restored from a snapshot
//! taken mid-run, then driven the same way again, ends exactly where the
//! run that continued from the snapshot ended. "Exactly" covers every
//! counter the core reports (its telemetry, less the simulation kernel's
//! own flow-table and checkpoint counters), the cycle count, the
//! registers and the memory image, so in-flight state that a restore
//! forgot (the ROB, the front-end clock, the µop-cache window being
//! built) shows up as a difference.

use csd_repro::attack::Defense;
use csd_repro::core::{CsdConfig, VpuPolicy};
use csd_repro::crypto::{enable_stealth_for, AesKeySize, AesVictim, CipherDir, Victim};
use csd_repro::pipeline::{Core, CoreConfig, SimMode, StepOutcome};
use csd_repro::telemetry::Json;
use csd_repro::workloads::Workload;

const KEY: [u8; 16] = [
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
];

/// Every program here keeps its code, data and stack below this address.
const MEMORY_TOP: u64 = 0x12_0000;

/// What a finished run is compared on.
#[derive(Debug, PartialEq)]
struct View {
    report: String,
    cycles: u64,
    halted: bool,
    gprs: Vec<u64>,
    xmms: Vec<(u64, u64)>,
    flags: String,
    rip: u64,
    pages: usize,
    memory: Vec<u8>,
}

fn view(core: &Core) -> View {
    let report = match core.telemetry_report() {
        Json::Obj(members) => {
            Json::Obj(members.into_iter().filter(|(k, _)| k != "kernel").collect()).pretty()
        }
        other => panic!("telemetry report is not an object: {other:?}"),
    };
    let s = core.state();
    View {
        report,
        cycles: core.cycles(),
        halted: core.halted(),
        gprs: s.gprs().to_vec(),
        xmms: s.xmms().to_vec(),
        flags: format!("{:?}", s.flags),
        rip: s.rip,
        pages: core.mem().mapped_pages(),
        memory: core.mem().read_bytes(0, MEMORY_TOP as usize),
    }
}

/// Drives `core` with `warm`, snapshots it, drives it with `rest`, then
/// restores the snapshot, drives it with `rest` again and requires the
/// two ends to match.
fn assert_restore_replays(
    what: &str,
    mut core: Core,
    warm: impl Fn(&mut Core),
    rest: impl Fn(&mut Core),
) {
    warm(&mut core);
    let at_snapshot = core.cycles();
    let snap = core.snapshot();
    rest(&mut core);
    let continued = view(&core);
    assert!(
        continued.cycles > at_snapshot,
        "{what}: the continuation ran"
    );
    core.restore(&snap);
    assert_eq!(
        core.cycles(),
        at_snapshot,
        "{what}: restore rewinds the clock"
    );
    rest(&mut core);
    let replayed = view(&core);
    // Compare the report first: its diff names the counter that moved.
    assert_eq!(replayed.report, continued.report, "{what}: telemetry");
    assert_eq!(replayed, continued, "{what}");
}

fn aes() -> AesVictim {
    AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &KEY)
}

fn aes_core(v: &AesVictim, mode: SimMode, defense: Defense) -> Core {
    let cfg = CoreConfig {
        dift_enabled: true,
        ..CoreConfig::default()
    };
    let mut core = Core::new(cfg, CsdConfig::default(), v.program().clone(), mode);
    v.install(&mut core);
    if let Defense::Stealth { watchdog_period } = defense {
        enable_stealth_for(v, &mut core, watchdog_period);
    }
    core
}

/// A snapshot inside the first, cold encryption, where µop-cache windows
/// are still being built; the continuation finishes it and runs a second.
/// The snapshot point sweeps the encryption (every fifth instruction),
/// so in-flight state that only some instructions leave behind, such as
/// a half-built window holding a microsequenced flow, is caught too.
fn assert_aes_replays(what: &str, mode: SimMode, defense: Defense) {
    let v = aes();
    for mid in (1..700).step_by(5) {
        assert_restore_replays(
            &format!("{what}, snapshot after {mid} instructions"),
            aes_core(&v, mode, defense),
            |core| {
                v.prepare(core, &[2; 16]);
                assert_eq!(core.run(mid), StepOutcome::Running, "{what}: mid-run");
            },
            |core| {
                assert_eq!(core.run(u64::MAX), StepOutcome::Halted);
                assert_eq!(v.collect(core), v.reference(&[2; 16]));
                v.run_once(core, &[3; 16]);
            },
        );
    }
}

#[test]
fn a_cycle_mode_stealth_aes_victim_replays_from_mid_run() {
    assert_aes_replays(
        "cycle stealth aes",
        SimMode::Cycle,
        Defense::stealth_default(),
    );
}

#[test]
fn a_functional_aes_victim_replays_from_mid_run() {
    assert_aes_replays("functional aes", SimMode::Functional, Defense::None);
}

/// A devectorizing workload under the CSD policy, snapshotted mid-run:
/// the continuation wakes and gates the VPU and devectorizes.
#[test]
fn a_gate_flipping_workload_replays_from_mid_run() {
    let w = Workload::by_name("bwaves").expect("suite benchmark");
    let csd = CsdConfig {
        vpu_policy: VpuPolicy::default(),
        ..CsdConfig::default()
    };
    let mut core = Core::new(
        CoreConfig::default(),
        csd,
        w.program().clone(),
        SimMode::Cycle,
    );
    w.install(&mut core);
    let gate = |core: &Core| core.engine().gate().stats().gate_transitions;
    let devec = |core: &Core| core.engine().devectorizer().stats().devectorized_insts;
    assert_restore_replays(
        "bwaves",
        core,
        |core| {
            assert_eq!(core.run(20_000), StepOutcome::Running, "bwaves: mid-run");
        },
        |core| {
            let (flips, devectorized) = (gate(core), devec(core));
            assert_eq!(core.run(100_000_000), StepOutcome::Halted);
            assert!(
                gate(core) > flips,
                "bwaves: the gate flips after the snapshot"
            );
            assert!(
                devec(core) > devectorized,
                "bwaves: it devectorizes after the snapshot"
            );
        },
    );
}
