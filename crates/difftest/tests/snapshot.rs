//! Checkpoint coverage: `Core::snapshot()` taken mid-program must let
//! both the continued run and the restored re-run finish with exactly
//! the state an uncheckpointed run reaches.

use csd::CsdConfig;
use csd_crypto::{AesKeySize, AesVictim, CipherDir, Victim};
use csd_difftest::generator::{DATA_BASE, DATA_SIZE, STACK_TOP};
use csd_difftest::Generator;
use csd_pipeline::{Core, CoreConfig, SimMode};
use mx86_isa::Program;

fn build(program: &Program) -> Core {
    let cfg = CoreConfig {
        uop_cache_enabled: true,
        decode_memo_enabled: true,
        ..CoreConfig::default()
    };
    Core::new(cfg, CsdConfig::default(), program.clone(), SimMode::Cycle)
}

fn assert_same_final_state(core: &Core, base: &Core, what: &str) {
    assert!(core.halted(), "{what}: core did not halt");
    assert_eq!(core.stats().insts, base.stats().insts, "{what}: insts");
    assert_eq!(core.state().gprs(), base.state().gprs(), "{what}: gprs");
    assert_eq!(core.state().xmms(), base.state().xmms(), "{what}: xmms");
    assert_eq!(core.state().flags, base.state().flags, "{what}: flags");
    for (base_addr, len, region) in [
        (DATA_BASE, DATA_SIZE as usize, "data"),
        (STACK_TOP - 0x1000, 0x1000, "stack"),
    ] {
        assert_eq!(
            core.mem().read_bytes(base_addr, len),
            base.mem().read_bytes(base_addr, len),
            "{what}: {region} memory"
        );
    }
}

#[test]
fn restore_mid_program_reaches_uncheckpointed_state() {
    let program = Generator::new(0x5A9)
        .program()
        .assemble()
        .expect("generated program assembles");

    let mut base = build(&program);
    base.run(200_000);
    assert!(base.halted(), "baseline run must complete");

    let mut core = build(&program);
    core.run((base.stats().insts / 2).max(1));
    let snap = core.snapshot();

    core.run(200_000);
    assert_same_final_state(&core, &base, "continued leg");

    core.restore(&snap);
    core.run(200_000);
    assert_same_final_state(&core, &base, "restored leg");

    // The checkpoint counters are part of the kernel telemetry.
    let report = core.telemetry_report();
    let ckpt = report
        .get("kernel")
        .and_then(|k| k.get("checkpoint"))
        .expect("kernel.checkpoint present");
    assert_eq!(ckpt.get("snapshots"), Some(&csd_telemetry::Json::U64(1)));
    assert_eq!(ckpt.get("restores"), Some(&csd_telemetry::Json::U64(1)));
}

/// Same drill on a real workload: an AES block encryption restored from
/// a mid-encryption checkpoint must still produce the reference
/// ciphertext.
#[test]
fn aes_restored_from_checkpoint_produces_reference_ciphertext() {
    let key = [0x42u8; 16];
    let victim = AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &key);
    let mut core = build(victim.program());
    victim.install(&mut core);

    let input = [0x5Au8; 16];
    let expect = victim.reference(&input);

    victim.prepare(&mut core, &input);
    core.run(500);
    assert!(!core.halted(), "snapshot must land mid-encryption");
    let snap = core.snapshot();

    core.run(10_000_000);
    assert!(core.halted());
    assert_eq!(victim.collect(&core), expect, "continued leg ciphertext");

    core.restore(&snap);
    core.run(10_000_000);
    assert!(core.halted());
    assert_eq!(victim.collect(&core), expect, "restored leg ciphertext");
}
