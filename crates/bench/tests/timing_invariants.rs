//! Cycle-timing invariants on every cycle-engine run the figures measure,
//! at quick scale: both legs (base and stealth) of the eight security
//! victims under both pipelines, and every devectorization workload under
//! every VPU policy.
//!
//! Byte goldens pin what the figures print; these pin relations any
//! correct timing model must satisfy, so a change that moves cycles in
//! an impossible direction fails here even when it re-baselines the
//! goldens. Each is checked on the core's totals after the run:
//!
//! - commit retires at most `commit_width` instructions a cycle, so
//!   `cycles ≥ insts / commit_width`;
//! - fusion only merges µops into slots: `fused_slots ≤ uops`;
//! - VPU wake stalls are part of elapsed time: `stall_cycles ≤ cycles`;
//! - decoys are µops: `decoy_uops ≤ uops`;
//! - every instruction is delivered by exactly one front-end path:
//!   `uop_cache_insts + legacy_insts + msrom_insts == insts`.

use csd_bench::{policies, run_devec};
use csd_exp::{
    apply_leg_mode, measure_blocks, pipelines, security_core, security_victim, victim_names,
    warm_up, LegMode, DEFAULT_WATCHDOG,
};
use csd_pipeline::{CoreConfig, SimStats};
use csd_telemetry::SplitMix64;
use csd_workloads::{specs, Workload};

/// Blocks per security leg and the devec workload scale of the quick
/// suite profile.
const BLOCKS: usize = 2;
const DEVEC_SCALE: f64 = 0.05;

fn check(label: &str, s: &SimStats, cfg: &CoreConfig) {
    assert!(s.insts > 0 && s.cycles > 0, "{label}: nothing ran: {s:?}");
    assert!(
        s.cycles as f64 >= s.insts as f64 / cfg.commit_width as f64,
        "{label}: {} cycles retire {} insts at width {}",
        s.cycles,
        s.insts,
        cfg.commit_width
    );
    assert!(
        s.fused_slots <= s.uops,
        "{label}: {} fused slots for {} µops",
        s.fused_slots,
        s.uops
    );
    assert!(
        s.stall_cycles <= s.cycles,
        "{label}: {} stall cycles in {} cycles",
        s.stall_cycles,
        s.cycles
    );
    assert!(
        s.decoy_uops <= s.uops,
        "{label}: {} decoys among {} µops",
        s.decoy_uops,
        s.uops
    );
    assert_eq!(
        s.uop_cache_insts + s.legacy_insts + s.msrom_insts,
        s.insts,
        "{label}: front-end paths must partition the instructions"
    );
}

#[test]
fn security_legs_keep_the_timing_invariants() {
    let legs = [
        LegMode::Base,
        LegMode::Stealth {
            watchdog: DEFAULT_WATCHDOG,
        },
    ];
    for (pipeline, mk) in pipelines() {
        for name in victim_names() {
            let victim = security_victim(&name).expect("grid victims resolve");
            let victim = victim.as_ref();
            let mut core = security_core(victim, mk());
            let mut rng = SplitMix64::new(0x7131);
            let mut input = vec![0u8; victim.input_len()];
            warm_up(&mut core, victim, &mut rng, &mut input);
            let warmed = core.snapshot();
            for mode in &legs {
                let label = format!("{pipeline}/{name}/{}", mode.tag());
                core.restore(&warmed);
                let mut rng = rng;
                apply_leg_mode(mode, victim, &mut core).expect("static leg modes apply");
                measure_blocks(&mut core, victim, &mut rng, &mut input, BLOCKS);
                check(&label, core.stats(), core.config());
            }
        }
    }
}

#[test]
fn devec_runs_keep_the_timing_invariants() {
    let cfg = CoreConfig::default();
    for spec in specs() {
        let name = spec.name;
        let workload = Workload::with_scale(spec, DEVEC_SCALE);
        for (policy_name, policy) in policies() {
            let run = run_devec(&workload, policy);
            check(&format!("devec/{name}/{policy_name}"), &run.stats, &cfg);
        }
    }
}
