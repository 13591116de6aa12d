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
//!
//! One relation spans legs: stealth only adds decoy µops to the victim's
//! own instruction stream, so a stealth leg forked from a plan's warmed
//! checkpoint retires at least as many µops as the plan's base leg.

use csd_bench::{policies, run_devec};
use csd_exp::{
    apply_leg_mode, measure_blocks, pipelines, run_plan, security_core, security_victim,
    victim_names, warm_up, ExperimentSpec, LegMode, NoCache, DEFAULT_WATCHDOG,
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

/// Watchdog periods of the full-profile Figure 11 sweep.
const WD_PERIODS: [u64; 6] = [1000, 2000, 4000, 6000, 8000, 10_000];

#[test]
fn stealth_legs_retire_at_least_the_base_legs_uops() {
    let check_plan = |spec: &ExperimentSpec| {
        let r = run_plan(spec, &NoCache, 1).expect("grid names resolve");
        let base = r.legs[0].metrics;
        for leg in &r.legs[1..] {
            assert!(
                leg.metrics.uops >= base.uops,
                "{}/{} {:?}: stealth {} µops < base {}",
                spec.pipeline,
                spec.victim,
                leg.mode,
                leg.metrics.uops,
                base.uops
            );
        }
    };
    for name in victim_names() {
        for (pipeline, _) in pipelines() {
            check_plan(&ExperimentSpec::pair(
                &name,
                pipeline,
                0x7131,
                BLOCKS,
                DEFAULT_WATCHDOG,
            ));
        }
        check_plan(&ExperimentSpec::watchdog_sweep(
            &name,
            "opt",
            0x7131,
            BLOCKS,
            &WD_PERIODS,
        ));
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
