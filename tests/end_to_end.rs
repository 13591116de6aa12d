//! Cross-crate end-to-end tests: the full CSD story on the full stack.

use csd_repro::attack::{
    aes_attack, rsa_attack, victim_core, AesAttackConfig, Defense, RsaAttackConfig,
};
use csd_repro::core::{CsdConfig, VpuPolicy};
use csd_repro::crypto::{AesKeySize, AesVictim, BlowfishVictim, CipherDir, RsaVictim, Victim};
use csd_repro::pipeline::{Core, CoreConfig, SimMode, StepOutcome};
use csd_repro::power::EnergyModel;
use csd_repro::workloads::Workload;

const KEY128: [u8; 16] = [
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
];

/// Stealth mode must never change what the victim computes — only what the
/// attacker observes.
#[test]
fn stealth_preserves_victim_outputs_for_every_victim() {
    let victims: Vec<Box<dyn Victim>> = vec![
        Box::new(AesVictim::new(
            AesKeySize::K128,
            CipherDir::Encrypt,
            &KEY128,
        )),
        Box::new(AesVictim::new(
            AesKeySize::K128,
            CipherDir::Decrypt,
            &KEY128,
        )),
        Box::new(BlowfishVictim::new(CipherDir::Encrypt, b"E2E-KEY")),
        Box::new(RsaVictim::new(0xDEAD_BEEF, 65_521)),
    ];
    for v in &victims {
        let mut plain = victim_core(v.as_ref(), SimMode::Functional, Defense::None);
        let mut defended = victim_core(v.as_ref(), SimMode::Functional, Defense::stealth_default());
        for seed in 0..3u8 {
            let input: Vec<u8> = (0..v.input_len() as u8)
                .map(|i| i.wrapping_mul(31) ^ seed)
                .collect();
            let a = v.run_once(&mut plain, &input);
            let b = v.run_once(&mut defended, &input);
            assert_eq!(a, b, "{}: stealth changed the output", v.name());
            assert_eq!(a, v.reference(&input), "{}: wrong output", v.name());
        }
        assert!(
            defended.stats().decoy_uops > 0,
            "{}: stealth never fired",
            v.name()
        );
    }
}

/// Functional and cycle engines share one decode path: identical
/// architectural results and µop streams on a full AES run.
#[test]
fn engines_agree_on_a_full_cipher() {
    let v = AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &KEY128);
    let mut func = victim_core(&v, SimMode::Functional, Defense::stealth_default());
    let mut cyc = victim_core(&v, SimMode::Cycle, Defense::stealth_default());
    let pt: Vec<u8> = (0..16).collect();
    assert_eq!(v.run_once(&mut func, &pt), v.run_once(&mut cyc, &pt));
    assert_eq!(func.stats().insts, cyc.stats().insts);
    // Decoy volume is watchdog-clock-dependent (the two engines measure
    // time differently), but the *architectural* µop stream is identical.
    assert_eq!(
        func.stats().uops - func.stats().decoy_uops,
        cyc.stats().uops - cyc.stats().decoy_uops
    );
    assert!(func.stats().decoy_uops > 0 && cyc.stats().decoy_uops > 0);
}

/// The headline security result: attacks succeed undefended, stealth
/// defeats them (paper Figure 7).
#[test]
fn the_full_security_story() {
    let aes = AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &KEY128);
    let undefended = aes_attack(
        &aes,
        &AesAttackConfig {
            trials_per_candidate: 48,
            ..AesAttackConfig::default()
        },
    );
    assert!(undefended.bits_recovered() >= 48, "attack works undefended");

    let defended = aes_attack(
        &aes,
        &AesAttackConfig {
            trials_per_candidate: 16,
            defense: Defense::stealth_default(),
            ..AesAttackConfig::default()
        },
    );
    assert!(defended.defeated(), "stealth defeats the AES attack");

    let rsa = RsaVictim::new(0xB7E1_5163_0000_F36D, 1_000_003);
    let out = rsa_attack(&rsa, &RsaAttackConfig::default());
    assert!(out.correct_bits() >= 60, "RSA attack works undefended");
}

/// The headline energy result: CSD devectorization beats conventional
/// gating on a scalar-leaning workload, with identical results.
#[test]
fn the_full_energy_story() {
    let w = Workload::by_name("omnetpp").expect("suite benchmark");
    let model = EnergyModel::default();
    let mut energies = Vec::new();
    let mut gprs = Vec::new();
    for policy in [
        VpuPolicy::AlwaysOn,
        VpuPolicy::Conventional {
            idle_gate_cycles: 400,
        },
        VpuPolicy::default(),
    ] {
        let cfg = CsdConfig {
            vpu_policy: policy,
            ..CsdConfig::default()
        };
        let mut core = Core::new(
            CoreConfig::default(),
            cfg,
            w.program().clone(),
            SimMode::Cycle,
        );
        w.install(&mut core);
        assert_eq!(core.run(100_000_000), StepOutcome::Halted);
        energies.push(model.breakdown(&core.activity()).total_pj());
        gprs.push(core.state().gprs());
    }
    assert_eq!(gprs[0], gprs[1]);
    assert_eq!(gprs[0], gprs[2]);
    assert!(
        energies[2] < energies[1],
        "CSD beats conventional: {energies:?}"
    );
    assert!(
        energies[1] < energies[0],
        "conventional beats always-on: {energies:?}"
    );
}

/// Re-running a victim with a different key through the same program must
/// change the ciphertext (sanity against accidentally baked-in state).
#[test]
fn keys_matter() {
    let v1 = AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &KEY128);
    let mut other = KEY128;
    other[0] ^= 0xFF;
    let v2 = AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &other);
    let mut c1 = victim_core(&v1, SimMode::Functional, Defense::None);
    let mut c2 = victim_core(&v2, SimMode::Functional, Defense::None);
    let pt = [7u8; 16];
    assert_ne!(v1.run_once(&mut c1, &pt), v2.run_once(&mut c2, &pt));
}
