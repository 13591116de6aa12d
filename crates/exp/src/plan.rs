//! The plan executor: warm once, snapshot, fork every leg.
//!
//! [`run_plan`] is the single implementation of the paper's
//! warm-fork-measure pattern. The victim warms up with stealth off, the
//! complete machine is snapshotted, and every [`Leg`] forks a fresh core
//! from the shared checkpoint — restoring the snapshot, applying the
//! leg's decode-context change, and measuring. Forks are byte-identical
//! to unforked runs because a snapshot captures the complete modeled
//! machine, so independent legs may run on the shared ordered executor
//! without changing a single output byte.

use crate::measure::{
    measure_blocks, pipelines, policy_by_name, security_core, victim_ctor, warm_up, SecMetrics,
};
use crate::spec::{ExperimentSpec, Leg, LegMode};
use csd_crypto::{enable_stealth_for, Victim};
use csd_pipeline::{Core, CoreConfig};
use csd_telemetry::{ordered_map, SplitMix64};

/// The checkpoint argument of [`run_plan`]. Plans never park warmed
/// checkpoints: each plan warms from scratch, because no grid forks one
/// warmed state from two plans.
pub struct NoCache;

/// A plan-execution failure (a victim, pipeline or policy name that does
/// not resolve). These are errors, not panics, so a bad spec fails the
/// one plan that names it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpError(pub String);

impl std::fmt::Display for ExpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for ExpError {}

/// One measured leg's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct LegResult {
    /// The decode-context change this leg applied.
    pub mode: LegMode,
    /// Measured operations (after per-leg override resolution).
    pub blocks: usize,
    /// Steady-state metrics over the measured region.
    pub metrics: SecMetrics,
}

/// A whole plan's outcome: the spec's identity fields plus one
/// [`LegResult`] per leg, in spec order.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Victim benchmark name.
    pub victim: String,
    /// Pipeline configuration name.
    pub pipeline: String,
    /// Input-stream seed.
    pub seed: u64,
    /// Per-leg outcomes, in spec order.
    pub legs: Vec<LegResult>,
}

/// Applies a leg's decode-context change to a forked core. Exported so
/// callers that measure one leg by hand (perfbench's per-layer probes)
/// arm the identical configuration the plan executor does.
pub fn apply_leg_mode(
    mode: &LegMode,
    victim: &dyn Victim,
    core: &mut Core,
) -> Result<(), ExpError> {
    match mode {
        LegMode::Base => {}
        LegMode::Stealth { watchdog } => enable_stealth_for(victim, core, *watchdog),
        LegMode::Devec { policy } => {
            let p = policy_by_name(policy)
                .ok_or_else(|| ExpError(format!("unknown policy {policy:?}")))?;
            core.engine_mut().set_vpu_policy(p);
        }
    }
    Ok(())
}

/// Runs a plan, resolving the spec's pipeline name to its configuration.
/// The checkpoint argument is always [`NoCache`]; it stays because the
/// benchmark package (`perfbench/`) calls `run_plan(&spec, &NoCache, 1)`.
///
/// # Errors
///
/// Fails when a name in the spec doesn't resolve (victim, pipeline,
/// policy).
pub fn run_plan(
    spec: &ExperimentSpec,
    _checkpoints: &NoCache,
    jobs: usize,
) -> Result<ExperimentResult, ExpError> {
    let (_, mk) = *pipelines()
        .iter()
        .find(|(n, _)| *n == spec.pipeline)
        .ok_or_else(|| ExpError(format!("unknown pipeline {:?}", spec.pipeline)))?;
    run_plan_with(spec, mk(), jobs)
}

/// [`run_plan`] with an explicit core configuration, for consumers that
/// sweep configurations outside the named `opt`/`noopt` grid (the
/// µop-cache ablation, the memo-transparency test).
///
/// # Errors
///
/// Fails when the spec's victim or a leg's policy doesn't resolve.
pub fn run_plan_with(
    spec: &ExperimentSpec,
    core_cfg: CoreConfig,
    jobs: usize,
) -> Result<ExperimentResult, ExpError> {
    let new_victim = victim_ctor(&spec.victim)
        .ok_or_else(|| ExpError(format!("unknown victim {:?}", spec.victim)))?;

    // Warm phase: warm once from scratch and snapshot the machine.
    let (snapshot, rng) = {
        let victim = new_victim();
        let victim = victim.as_ref();
        let mut core = security_core(victim, core_cfg.clone());
        let mut rng = SplitMix64::new(spec.seed);
        let mut input = vec![0u8; victim.input_len()];
        warm_up(&mut core, victim, &mut rng, &mut input);
        (core.snapshot(), rng)
    };

    let run_leg = |leg: &Leg| -> Result<LegResult, ExpError> {
        // Victims are not Sync; construct the spec's one per fork. The
        // fresh core is fully overwritten by the restore, so every leg
        // measures from the identical machine state.
        let victim = new_victim();
        let victim = victim.as_ref();
        let mut core = security_core(victim, core_cfg.clone());
        core.restore(&snapshot);
        core.mark_plan_leg();
        let mut rng = rng;
        let mut input = vec![0u8; victim.input_len()];
        apply_leg_mode(&leg.mode, victim, &mut core)?;
        let blocks = leg.blocks.unwrap_or(spec.blocks);
        let metrics = measure_blocks(&mut core, victim, &mut rng, &mut input, blocks);
        Ok(LegResult {
            mode: leg.mode.clone(),
            blocks,
            metrics,
        })
    };

    let legs = ordered_map(jobs, &spec.legs, run_leg)?;

    Ok(ExperimentResult {
        victim: spec.victim.clone(),
        pipeline: spec.pipeline.clone(),
        seed: spec.seed,
        legs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_names_are_errors_not_panics() {
        let spec = |victim: &str, pipeline: &str, policy: &str| ExperimentSpec {
            victim: victim.to_string(),
            pipeline: pipeline.to_string(),
            seed: 1,
            blocks: 1,
            legs: vec![Leg::new(LegMode::Devec {
                policy: policy.to_string(),
            })],
        };
        for (s, needle) in [
            (spec("no-such-victim", "opt", "csd-devec"), "victim"),
            (spec("aes-enc", "turbo", "csd-devec"), "pipeline"),
            (spec("aes-enc", "opt", "off"), "policy"),
        ] {
            let err = run_plan(&s, &NoCache, 1).expect_err(needle);
            assert!(err.0.contains(needle), "{needle}: {err}");
        }
    }
}
