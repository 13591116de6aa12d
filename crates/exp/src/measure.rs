//! The shared measurement vocabulary of every security experiment:
//! victims, pipeline configurations, VPU policies, the warmed core
//! recipe, and the steady-state metric deltas. Moved here from
//! `csd-bench` so the plan executor, the suite and perfbench
//! all build *identical* cores and measure *identical* quantities.

use csd::{CsdConfig, DevecThresholds, VpuPolicy};
use csd_crypto::{AesKeySize, AesVictim, BlowfishVictim, CipherDir, RsaVictim, Victim};
use csd_pipeline::{Core, CoreConfig, SimMode};
use csd_telemetry::{Json, SplitMix64, ToJson};

/// The paper's default watchdog period (cycles).
pub const DEFAULT_WATCHDOG: u64 = 1000;

/// Idle threshold for the conventional power-gating baseline (cycles the
/// VPU must sit idle before it is gated).
pub const CONVENTIONAL_IDLE_GATE: u64 = 400;

/// Operations [`warm_up`] simulates before the measured region.
pub const WARMUP_OPS: usize = 12;

/// A security victim's constructor.
pub(crate) type VictimCtor = fn() -> Box<dyn Victim>;

/// A victim key: byte `i` is `i * mul + add`.
fn key(len: u8, mul: u8, add: u8) -> Vec<u8> {
    (0..len).map(|i| i * mul + add).collect()
}

/// The eight security datapoints, {AES, RSA, Blowfish, Rijndael} ×
/// {encrypt, decrypt} (paper §VI-A), in grid order: the one name →
/// constructor list every victim lookup reads. Each name equals its
/// victim's [`Victim::name`].
const VICTIMS: [(&str, VictimCtor); 8] = [
    ("aes-enc", || {
        Box::new(AesVictim::new(
            AesKeySize::K128,
            CipherDir::Encrypt,
            &key(16, 11, 3),
        ))
    }),
    ("aes-dec", || {
        Box::new(AesVictim::new(
            AesKeySize::K128,
            CipherDir::Decrypt,
            &key(16, 11, 3),
        ))
    }),
    ("rsa-enc", || {
        Box::new(RsaVictim::named("rsa-enc", 65_537, 1_000_003))
    }),
    ("rsa-dec", || {
        Box::new(RsaVictim::named(
            "rsa-dec",
            0xC3A5_55AA_0F0F_1234,
            1_000_003,
        ))
    }),
    ("blowfish-enc", || {
        Box::new(BlowfishVictim::new(CipherDir::Encrypt, b"BF-SECRET-KEY"))
    }),
    ("blowfish-dec", || {
        Box::new(BlowfishVictim::new(CipherDir::Decrypt, b"BF-SECRET-KEY"))
    }),
    ("rijndael-enc", || {
        Box::new(AesVictim::new(
            AesKeySize::K256,
            CipherDir::Encrypt,
            &key(32, 7, 5),
        ))
    }),
    ("rijndael-dec", || {
        Box::new(AesVictim::new(
            AesKeySize::K256,
            CipherDir::Decrypt,
            &key(32, 7, 5),
        ))
    }),
];

/// The constructor of the security victim named `name`.
pub(crate) fn victim_ctor(name: &str) -> Option<VictimCtor> {
    VICTIMS.iter().find(|(n, _)| *n == name).map(|&(_, mk)| mk)
}

/// Builds the security victim named `name` (one of [`victim_names`]),
/// and only that one.
pub fn security_victim(name: &str) -> Option<Box<dyn Victim>> {
    victim_ctor(name).map(|mk| mk())
}

/// All eight security victims, in grid order.
pub fn security_victims() -> Vec<Box<dyn Victim>> {
    VICTIMS.iter().map(|(_, mk)| mk()).collect()
}

/// Names of the eight security victims, in grid order (no victim is
/// built to list them).
pub fn victim_names() -> Vec<String> {
    VICTIMS.iter().map(|(n, _)| n.to_string()).collect()
}

/// A named pipeline-configuration constructor.
pub type Pipeline = (&'static str, fn() -> CoreConfig);

/// The two pipeline configurations of the security figures.
pub fn pipelines() -> [Pipeline; 2] {
    [("opt", CoreConfig::opt), ("noopt", CoreConfig::no_opt)]
}

/// The three VPU policies of the paper's comparison.
pub fn policies() -> [(&'static str, VpuPolicy); 3] {
    [
        ("always-on", VpuPolicy::AlwaysOn),
        (
            "conventional",
            VpuPolicy::Conventional {
                idle_gate_cycles: CONVENTIONAL_IDLE_GATE,
            },
        ),
        ("csd-devec", VpuPolicy::CsdDevec(DevecThresholds::default())),
    ]
}

/// Looks up one of [`policies`] by its stable name.
pub fn policy_by_name(name: &str) -> Option<VpuPolicy> {
    policies().iter().find(|(n, _)| *n == name).map(|(_, p)| *p)
}

/// Metrics from one security-benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecMetrics {
    /// Cycles over the measured region.
    pub cycles: u64,
    /// Retired macro-ops.
    pub insts: u64,
    /// Retired µops.
    pub uops: u64,
    /// Decoy µops among them.
    pub decoy_uops: u64,
    /// L1D misses per kilo-instruction.
    pub l1d_mpki: f64,
    /// µop-cache hit rate over the measured region.
    pub uop_cache_hit_rate: f64,
}

impl ToJson for SecMetrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cycles", Json::from(self.cycles)),
            ("insts", Json::from(self.insts)),
            ("uops", Json::from(self.uops)),
            ("decoy_uops", Json::from(self.decoy_uops)),
            ("l1d_mpki", Json::from(self.l1d_mpki)),
            ("uop_cache_hit_rate", Json::from(self.uop_cache_hit_rate)),
        ])
    }
}

/// Builds the cycle-accurate, DIFT-enabled core every security experiment
/// runs on, with `victim` installed. Public so every consumer (plan
/// executor, suite tests, perfbench) constructs an identical machine.
pub fn security_core(victim: &dyn Victim, core_cfg: CoreConfig) -> Core {
    let cfg = CoreConfig {
        dift_enabled: true,
        ..core_cfg
    };
    let mut core = Core::new(
        cfg,
        CsdConfig::default(),
        victim.program().clone(),
        SimMode::Cycle,
    );
    victim.install(&mut core);
    core
}

/// Warm-up ([`WARMUP_OPS`] operations) long enough for the sparse table
/// touches of the baseline to fully populate the caches — otherwise
/// decoy prefetching makes stealth look *faster* (the paper's
/// "prefetching effect", which should only mute, not invert, the cost).
pub fn warm_up(core: &mut Core, victim: &dyn Victim, rng: &mut SplitMix64, input: &mut [u8]) {
    for _ in 0..WARMUP_OPS {
        rng.fill_bytes(input);
        victim.run_once(core, input);
    }
}

/// Runs `blocks` operations and returns the metric deltas over them.
pub fn measure_blocks(
    core: &mut Core,
    victim: &dyn Victim,
    rng: &mut SplitMix64,
    input: &mut [u8],
    blocks: usize,
) -> SecMetrics {
    let s0 = *core.stats();
    let h0 = core.hierarchy().stats();
    let u0 = *core.uop_cache_stats();
    for _ in 0..blocks {
        rng.fill_bytes(input);
        victim.run_once(core, input);
    }
    let s1 = *core.stats();
    let h1 = core.hierarchy().stats();
    let u1 = *core.uop_cache_stats();

    let insts = s1.insts - s0.insts;
    let l1d = h1.l1d.delta(&h0.l1d);
    let lookups = u1.lookups - u0.lookups;
    let hits = u1.hits - u0.hits;
    SecMetrics {
        cycles: s1.cycles - s0.cycles,
        insts,
        uops: s1.uops - s0.uops,
        decoy_uops: s1.decoy_uops - s0.decoy_uops,
        l1d_mpki: l1d.mpki(insts),
        uop_cache_hit_rate: if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_victim_is_built_under_its_own_name() {
        let built: Vec<String> = security_victims().iter().map(|v| v.name()).collect();
        assert_eq!(built, victim_names());
        for name in victim_names() {
            assert_eq!(security_victim(&name).map(|v| v.name()), Some(name));
        }
        assert!(security_victim("no-such-victim").is_none());
    }

    #[test]
    fn security_suite_has_eight_datapoints() {
        let names = victim_names();
        assert_eq!(names.len(), 8);
        assert!(names.contains(&"aes-enc".to_string()));
        assert!(names.contains(&"rsa-dec".to_string()));
        assert!(names.contains(&"rijndael-dec".to_string()));
        assert!(names.contains(&"blowfish-enc".to_string()));
    }

    #[test]
    fn policy_lookup_covers_the_comparison() {
        for (name, policy) in policies() {
            assert_eq!(policy_by_name(name), Some(policy));
        }
        assert_eq!(policy_by_name("warp-drive"), None);
    }
}
