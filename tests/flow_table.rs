//! The per-instruction flow table, end to end: each instruction is
//! translated once per context for the life of a core, and serving flows
//! from the table never changes what a core computes or reports.

use csd_difftest::Generator;
use csd_repro::attack::Defense;
use csd_repro::core::{
    ContextId, CsdConfig, MicrocodeUpdate, OpcodeClass, PrivilegeLevel, VpuPolicy,
};
use csd_repro::crypto::{enable_stealth_for, AesKeySize, AesVictim, CipherDir, Victim};
use csd_repro::pipeline::{Core, CoreConfig, SimMode, StepOutcome};
use csd_repro::telemetry::Json;
use csd_repro::workloads::Workload;

const KEY: [u8; 16] = [
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
];

fn aes() -> AesVictim {
    AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &KEY)
}

/// An AES victim core as the attack harness builds it, with the flow
/// table on or off.
fn aes_core(v: &AesVictim, defense: Defense, table: bool) -> Core {
    let cfg = CoreConfig {
        dift_enabled: true,
        decode_memo_enabled: table,
        ..CoreConfig::default()
    };
    let mut core = Core::new(
        cfg,
        CsdConfig::default(),
        v.program().clone(),
        SimMode::Functional,
    );
    v.install(&mut core);
    if let Defense::Stealth { watchdog_period } = defense {
        enable_stealth_for(v, &mut core, watchdog_period);
    }
    core
}

/// The second encryption of a straight-line victim decodes every
/// instruction from the table: no flow is built twice, whatever the
/// program's size or layout. Under stealth the only decodes not served
/// from the table are the decoy injections, which are built fresh.
#[test]
fn a_victims_second_run_is_served_entirely_from_the_table() {
    let v = aes();
    for defense in [Defense::None, Defense::stealth_default()] {
        let mut core = aes_core(&v, defense, true);
        if !core.memo_enabled() {
            return; // CSD_DECODE_MEMO=0 disables the table process-wide.
        }
        v.run_once(&mut core, &[1; 16]);
        let (insts, triggers) = (core.stats().insts, core.engine().stealth().stats().triggers);
        v.run_once(&mut core, &[2; 16]);
        let retired = core.stats().insts - insts;
        let injected = core.engine().stealth().stats().triggers - triggers;
        let m = *core.memo_stats();
        assert_eq!(m.misses, 0, "{defense:?}: second run rebuilt flows: {m:?}");
        assert_eq!(m.bypasses, injected, "{defense:?}: {m:?}");
        assert_eq!(m.hits + m.bypasses, retired, "{defense:?}: {m:?}");
        if defense == Defense::None {
            assert_eq!(m.hits, retired, "{m:?}");
        } else {
            assert!(injected > 0, "stealth must inject on AES");
        }
    }
}

/// Everything a core reports except the `kernel` section (the table's own
/// counters, which differ by design when the table is off).
fn report_without_kernel(core: &Core) -> String {
    match core.telemetry_report() {
        Json::Obj(members) => {
            Json::Obj(members.into_iter().filter(|(k, _)| k != "kernel").collect()).pretty()
        }
        other => panic!("telemetry report is not an object: {other:?}"),
    }
}

/// Builds the same core with the table on and off, drives both the same
/// way, and requires identical statistics, reports and architectural
/// registers (each `drive` checks the memory results it produces).
fn assert_table_is_transparent(
    what: &str,
    build: impl Fn(bool) -> Core,
    drive: impl Fn(&mut Core),
) {
    let mut on = build(true);
    let mut off = build(false);
    assert!(
        !off.memo_enabled(),
        "{what}: the table-off core has no table"
    );
    drive(&mut on);
    drive(&mut off);
    assert_eq!(on.stats(), off.stats(), "{what}: SimStats");
    assert_eq!(
        report_without_kernel(&on),
        report_without_kernel(&off),
        "{what}: telemetry"
    );
    let (a, b) = (&on.state, &off.state);
    assert_eq!(a.gprs, b.gprs, "{what}: gprs");
    assert_eq!(a.xmms, b.xmms, "{what}: xmms");
    assert_eq!(a.flags, b.flags, "{what}: flags");
    assert_eq!(a.rip, b.rip, "{what}: rip");
    if on.memo_enabled() {
        assert!(on.memo_stats().hits > 0, "{what}: the table served flows");
    }
}

/// Stealth AES: decoy injections on top of table flows, with a
/// checkpoint restore and restarts between encryptions.
#[test]
fn table_is_transparent_on_a_stealth_aes_run() {
    let v = aes();
    assert_table_is_transparent(
        "stealth aes",
        |table| aes_core(&v, Defense::stealth_default(), table),
        |core| {
            let mut outs = Vec::new();
            outs.push(v.run_once(core, &[3; 16]));
            let snap = core.snapshot();
            outs.push(v.run_once(core, &[4; 16]));
            core.restore(&snap);
            outs.push(v.run_once(core, &[4; 16]));
            outs.push(v.run_once(core, &[5; 16]));
            assert_eq!(outs[1], outs[2], "restore replays the encryption");
            for (o, pt) in outs.iter().zip([3u8, 4, 4, 5]) {
                assert_eq!(*o, v.reference(&[pt; 16]));
            }
            assert!(core.stats().decoy_uops > 0, "stealth injected");
        },
    );
}

/// A devectorizing workload under the CSD policy: gate flips switch
/// vector instructions between their native and devectorized flows.
#[test]
fn table_is_transparent_on_a_devectorizing_workload() {
    let w = Workload::by_name("omnetpp").expect("suite benchmark");
    assert_table_is_transparent(
        "omnetpp",
        |table| {
            let cfg = CoreConfig {
                decode_memo_enabled: table,
                ..CoreConfig::default()
            };
            let csd = CsdConfig {
                vpu_policy: VpuPolicy::default(),
                ..CsdConfig::default()
            };
            let mut core = Core::new(cfg, csd, w.program().clone(), SimMode::Cycle);
            w.install(&mut core);
            core
        },
        |core| {
            assert_eq!(core.run(100_000_000), StepOutcome::Halted);
            let devec = core.engine().devectorizer().stats();
            assert!(devec.devectorized_insts > 0, "the workload devectorizes");
        },
    );
}

/// A difftest program with an MCU patch installed and its custom mode
/// active: patch flows come from the patch table, not the flow table.
#[test]
fn table_is_transparent_on_an_mcu_patched_program() {
    let program = Generator::new(0xBAD_C0DE).program().assemble().unwrap();
    assert!(
        program
            .iter()
            .any(|p| OpcodeClass::of(&p.inst) == OpcodeClass::MovRI),
        "the program has instructions the patch replaces"
    );
    assert_table_is_transparent(
        "mcu patch",
        |table| {
            let cfg = CoreConfig {
                decode_memo_enabled: table,
                ..CoreConfig::default()
            };
            let mut core = Core::new(cfg, CsdConfig::default(), program.clone(), SimMode::Cycle);
            let mcu = MicrocodeUpdate::new(
                1,
                OpcodeClass::MovRI,
                ContextId::Custom(0),
                true,
                vec![csd_repro::isa::Inst::Nop { len: 1 }],
            );
            core.engine_mut()
                .apply_microcode_update(&mcu, PrivilegeLevel::Kernel)
                .expect("verified update");
            core.engine_mut().set_custom_mode(Some(0));
            core
        },
        |core| {
            core.run(200_000);
            assert!(core.engine().stats().custom_decoded > 0, "the patch served");
        },
    );
}
