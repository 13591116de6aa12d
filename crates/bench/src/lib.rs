//! # csd-bench — the figure/table reproduction harness
//!
//! One function per experiment family, shared by the `suite` runner, the
//! `ablation` binary and the micro-benchmarks. `suite` runs every figure
//! and table as one task grid and writes one JSON report;
//! `suite --render` prints the paper's tables from that report
//! ([`render`]), and `EXPERIMENTS.md` records paper-vs-measured values.
//!
//! Security experiments (warm-fork-measure over victims) execute through
//! the `csd-exp` plan layer; this crate re-exports its measurement
//! vocabulary and adds the figure-shaped assembly ([`SecurityRow`]) plus
//! the devectorization family on top.

#![warn(missing_docs)]

pub mod microbench;
pub mod render;
pub mod suite;
pub mod tasks;

use csd::{CsdConfig, VpuPolicy};
use csd_pipeline::{Core, CoreConfig, SimMode, SimStats, StepOutcome};
use csd_power::{Activity, EnergyBreakdown, EnergyModel, Unit};
use csd_telemetry::{Json, ToJson};
use csd_workloads::Workload;

pub use csd_exp::{
    measure_blocks, policies, security_core, security_victims, warm_up, ExperimentResult,
    SecMetrics, CONVENTIONAL_IDLE_GATE, DEFAULT_WATCHDOG, WARMUP_OPS,
};

/// One row of the Figure 8/9/10 family for a single benchmark.
#[derive(Debug, Clone)]
pub struct SecurityRow {
    /// Benchmark name.
    pub name: String,
    /// Baseline (stealth off).
    pub base: SecMetrics,
    /// Stealth on.
    pub stealth: SecMetrics,
}

impl SecurityRow {
    /// Normalized execution time (stealth / base).
    pub fn slowdown(&self) -> f64 {
        self.stealth.cycles as f64 / self.base.cycles as f64
    }

    /// µop expansion (stealth / base − 1).
    pub fn uop_expansion(&self) -> f64 {
        self.stealth.uops as f64 / self.base.uops as f64 - 1.0
    }
}

impl ToJson for SecurityRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("base", self.base.to_json()),
            ("stealth", self.stealth.to_json()),
            ("slowdown", Json::from(self.slowdown())),
            ("uop_expansion", Json::from(self.uop_expansion())),
        ])
    }
}

/// Assembles a Figure 8/9/10 row from a `[base, stealth]` plan result
/// (the [`csd_exp::ExperimentSpec::pair`] shape).
///
/// # Panics
///
/// Panics if the result has fewer than two legs.
pub fn security_row(result: &ExperimentResult) -> SecurityRow {
    assert!(
        result.legs.len() >= 2,
        "a security row needs a base and a stealth leg"
    );
    SecurityRow {
        name: result.victim.clone(),
        base: result.legs[0].metrics,
        stealth: result.legs[1].metrics,
    }
}

/// Arithmetic-mean helper.
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for x in xs {
        sum += x;
        n += 1;
    }
    if n == 0 {
        return f64::NAN;
    }
    sum / f64::from(n)
}

// ---------------------------------------------------------------------
// Devectorization (Figures 12–16)
// ---------------------------------------------------------------------

/// Results of running one workload under one policy.
#[derive(Debug, Clone)]
pub struct DevecRun {
    /// Simulation statistics.
    pub stats: SimStats,
    /// Gate-controller statistics.
    pub gate: csd::GateStats,
    /// Per-unit activity.
    pub activity: Activity,
    /// Energy breakdown from the default model.
    pub energy: EnergyBreakdown,
}

impl DevecRun {
    /// Total energy in picojoules.
    pub fn total_energy(&self) -> f64 {
        self.energy.total_pj()
    }
}

impl ToJson for DevecRun {
    fn to_json(&self) -> Json {
        let (vpu_dyn, vpu_static, rest) = energy_split(&self.energy);
        Json::obj([
            ("stats", self.stats.to_json()),
            ("gate", self.gate.to_json()),
            ("activity", self.activity.to_json()),
            ("energy", self.energy.to_json()),
            ("total_pj", Json::from(self.total_energy())),
            ("vpu_dynamic_pj", Json::from(vpu_dyn)),
            ("vpu_static_pj", Json::from(vpu_static)),
            ("rest_pj", Json::from(rest)),
        ])
    }
}

/// Runs `workload` under `policy` on the cycle engine.
///
/// # Panics
///
/// Panics if the workload faults or exceeds the instruction budget.
pub fn run_devec(workload: &Workload, policy: VpuPolicy) -> DevecRun {
    let csd_cfg = CsdConfig {
        vpu_policy: policy,
        ..CsdConfig::default()
    };
    let mut core = Core::new(
        CoreConfig::default(),
        csd_cfg,
        workload.program().clone(),
        SimMode::Cycle,
    );
    workload.install(&mut core);
    let out = core.run(100_000_000);
    assert_eq!(out, StepOutcome::Halted, "{} must halt", workload.name());
    let activity = core.activity();
    let energy = EnergyModel::default().breakdown(&activity);
    DevecRun {
        stats: *core.stats(),
        gate: *core.engine().gate().stats(),
        activity,
        energy,
    }
}

/// Pretty-prints a fixed-width table row.
pub fn row(cols: &[String], widths: &[usize]) -> String {
    cols.iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// VPU-relevant share of the energy breakdown, for Figure 12's stacked
/// bars: `(vpu_dynamic, vpu_leakage+overhead, rest)`.
fn energy_split(e: &EnergyBreakdown) -> (f64, f64, f64) {
    let vpu_dyn = e.dynamic(Unit::Vpu);
    let vpu_static = e.leakage(Unit::Vpu) + e.gating_overhead_pj;
    (vpu_dyn, vpu_static, e.total_pj() - vpu_dyn - vpu_static)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd::DevecThresholds;
    use csd_exp::{run_plan, ExperimentSpec, LegMode, NoCache};
    use csd_telemetry::SplitMix64;

    #[test]
    fn stealth_costs_cycles_but_modestly() {
        let spec = ExperimentSpec::pair("aes-enc", "opt", 0xBEEF ^ 4, 4, DEFAULT_WATCHDOG);
        let r = run_plan(&spec, &NoCache, 1).unwrap();
        let row = security_row(&r);
        assert!(row.stealth.decoy_uops > 0);
        assert!(row.stealth.cycles > row.base.cycles);
        assert!(
            row.slowdown() < 1.5,
            "stealth slowdown should be modest, got {}",
            row.slowdown()
        );
    }

    #[test]
    fn forked_base_leg_matches_unforked_run() {
        // The base leg of a plan — fresh core, checkpoint restored — must
        // be bit-equal to the original warm-then-measure recipe on one
        // live core: same construction, same warmup, same plaintext
        // stream (a snapshot/restore costs no model time and rewinds the
        // complete machine).
        let victim = csd_exp::security_victim("aes-enc").unwrap();
        let v = victim.as_ref();
        let mut core = security_core(v, CoreConfig::opt());
        let mut rng = SplitMix64::new(77);
        let mut input = vec![0u8; v.input_len()];
        warm_up(&mut core, v, &mut rng, &mut input);
        let solo = measure_blocks(&mut core, v, &mut rng, &mut input, 2);

        let spec = ExperimentSpec::pair("aes-enc", "opt", 77, 2, DEFAULT_WATCHDOG);
        let r = run_plan(&spec, &NoCache, 1).unwrap();
        assert_eq!(r.legs[0].metrics, solo);
        assert!(
            r.legs[1].metrics.decoy_uops > 0,
            "stealth leg must arm decoys"
        );
        assert!(r.legs[1].metrics.cycles > r.legs[0].metrics.cycles);
    }

    #[test]
    fn restored_forks_are_deterministic_at_any_job_count() {
        // Restoring the same checkpoint twice with the same watchdog
        // period must reproduce the stealth leg exactly, and running the
        // legs on a thread pool must not change a single result — the
        // snapshot carries the complete modeled machine and legs are
        // fully independent.
        let spec = ExperimentSpec::watchdog_sweep("blowfish-enc", "opt", 9, 2, &[1000, 1000, 4000]);
        let sequential = run_plan(&spec, &NoCache, 1).unwrap();
        assert_eq!(
            sequential.legs[1].metrics, sequential.legs[2].metrics,
            "identical forks must agree"
        );
        assert!(sequential.legs[1].metrics.cycles > sequential.legs[0].metrics.cycles);
        assert!(sequential.legs[3].metrics.decoy_uops > 0);

        let parallel = run_plan(&spec, &NoCache, 4).unwrap();
        assert_eq!(
            sequential, parallel,
            "jobs count must not leak into results"
        );
    }

    #[test]
    fn devec_leg_swaps_the_vpu_policy_at_fork_time() {
        // A devec leg measures under a different gating policy than the
        // warmed core was built with; always-on must not gate, while the
        // shared base leg is unaffected.
        let spec = ExperimentSpec {
            victim: "aes-enc".to_string(),
            pipeline: "opt".to_string(),
            seed: 5,
            blocks: 2,
            cold: false,
            legs: vec![
                csd_exp::Leg::new(LegMode::Base),
                csd_exp::Leg::new(LegMode::Devec {
                    policy: "always-on".to_string(),
                }),
            ],
        };
        let r = run_plan(&spec, &NoCache, 1).unwrap();
        assert_eq!(r.legs.len(), 2);
        assert_eq!(
            r.legs[0].metrics.insts, r.legs[1].metrics.insts,
            "policy swap must not change the instruction stream"
        );
    }

    #[test]
    fn devec_saves_energy_on_a_scalar_workload() {
        let w = Workload::with_scale(
            csd_workloads::specs()
                .into_iter()
                .find(|s| s.name == "gcc")
                .unwrap(),
            0.1,
        );
        let on = run_devec(&w, VpuPolicy::AlwaysOn);
        let csd = run_devec(&w, VpuPolicy::CsdDevec(DevecThresholds::default()));
        assert!(csd.total_energy() < on.total_energy());
        assert!(csd.gate.gated_fraction() > 0.5);
    }

    #[test]
    fn helpers() {
        assert!((mean([1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!(mean(std::iter::empty::<f64>()).is_nan());
    }
}
