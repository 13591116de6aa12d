//! `figures`: every full-profile grid task except the two
//! `attack/aes-pp/*` tasks — `sec/*`, `wd/*`, `attack/rsa-*`, `devec/*`
//! and `table1`, one `TaskDef::run` per unit.
//!
//! Layers it stresses: the cycle engine (execute, µop cache, commit),
//! the `exp` warm→snapshot→fork plan, `csd` devectorization and gating,
//! `workloads` and `power`. It bypasses the attack probes and almost all
//! of the functional engine.

use crate::stats::quantile;
use crate::trace::Tracer;
use crate::unit::{TracedUnit, Unit};
use csd::CsdConfig;
use csd_bench::suite::SuiteConfig;
use csd_bench::tasks::{build_tasks, TaskDef};
use csd_bench::{policies, DevecRun};
use csd_exp::{
    apply_leg_mode, measure_blocks, pipelines, run_plan, security_core, security_victims, warm_up,
    ExperimentSpec, LegMode, LegResult, NoCache, DEFAULT_WATCHDOG,
};
use csd_pipeline::{Core, CoreConfig, SimMode, StepOutcome};
use csd_power::EnergyModel;
use csd_telemetry::{Json, SplitMix64, ToJson};
use csd_workloads::{specs, Workload};
use std::collections::BTreeMap;
use std::rc::Rc;

/// The suite's default root seed. At this seed every unit must produce
/// the bytes `suite --filter <label>` produced when the golden file was
/// taken; the `devec`, `rsa` and `table1` tasks consume no seed, so they
/// are checked against it at every seed.
pub const SUITE_SEED: u64 = 0xC5D_2018;

/// `{label: result}` for every unit, extracted from the `tasks` rows of
/// `suite --filter '' --jobs 2` (full profile, seed [`SUITE_SEED`]).
const GOLDEN: &str = include_str!("../golden/figures.json");

fn family(label: &str) -> &'static str {
    match label.split('/').next() {
        Some("sec") => "sec",
        Some("wd") => "wd",
        Some("devec") => "devec",
        Some("attack") => "rsa",
        _ => "table1",
    }
}

fn grid(seed: u64) -> (SuiteConfig, Vec<TaskDef>) {
    let cfg = SuiteConfig::full(seed, 1);
    let tasks = build_tasks(&cfg)
        .into_iter()
        .filter(|t| !t.label().starts_with("attack/aes-pp/"))
        .collect();
    (cfg, tasks)
}

fn golden() -> BTreeMap<String, String> {
    match Json::parse(GOLDEN).expect("the golden file is valid JSON") {
        Json::Obj(members) => members.into_iter().map(|(k, v)| (k, v.dump())).collect(),
        _ => panic!("the golden file is a JSON object"),
    }
}

/// The workload's units.
pub fn units(seed: u64) -> Vec<Unit> {
    let (_, tasks) = grid(seed);
    let golden = golden();
    tasks
        .into_iter()
        .map(|t| {
            let label = t.label().to_string();
            let fam = family(&label);
            let task_seed = t.seed(seed);
            let checked = seed == SUITE_SEED || !matches!(fam, "sec" | "wd");
            let want = checked.then(|| golden.get(&label).cloned());
            Unit::new(
                label,
                move || t.run(task_seed).dump(),
                move |out| match &want {
                    None => Ok(()),
                    Some(Some(w)) if w == out => Ok(()),
                    Some(Some(_)) => Err("differs from the suite's output".into()),
                    Some(None) => Err("missing from the golden file".into()),
                },
            )
        })
        .collect()
}

/// The plan a `sec/*` or `wd/*` task runs, rebuilt from its label the way
/// the task grid builds it.
fn spec_for(label: &str, task_seed: u64, cfg: &SuiteConfig) -> ExperimentSpec {
    let parts: Vec<&str> = label.split('/').collect();
    match parts[..] {
        ["sec", pipeline, victim] => ExperimentSpec::pair(
            victim,
            pipeline,
            task_seed,
            cfg.sec_blocks,
            DEFAULT_WATCHDOG,
        ),
        ["wd", victim] => {
            ExperimentSpec::watchdog_sweep(victim, "opt", task_seed, cfg.wd_blocks, &cfg.wd_periods)
        }
        _ => panic!("{label} is not a plan task"),
    }
}

/// The units rebuilt with spans: `sec`/`wd` plans from `security_core`,
/// `warm_up`, `snapshot`, `restore`, `apply_leg_mode` and
/// `measure_blocks` (checked against `run_plan`'s leg results), `devec`
/// runs from `Workload`, `Core` and `EnergyModel` (checked against the
/// task's bytes), and the rest as whole task calls.
pub fn traced(seed: u64) -> Vec<TracedUnit> {
    let (cfg, tasks) = grid(seed);
    tasks
        .into_iter()
        .map(|t| {
            let label = t.label().to_string();
            let fam = family(&label);
            let task_seed = t.seed(seed);
            match fam {
                "sec" | "wd" => {
                    let spec = spec_for(&label, task_seed, &cfg);
                    let reference = spec.clone();
                    TracedUnit::new(
                        label,
                        fam,
                        move |tr| format!("{:?}", traced_plan(&spec, tr)),
                        move || {
                            let r = run_plan(&reference, &NoCache, 1).expect("grid names resolve");
                            format!("{:?}", r.legs)
                        },
                    )
                }
                "devec" => {
                    let scale = cfg.devec_scale;
                    let parts: Vec<String> = label.split('/').map(str::to_string).collect();
                    TracedUnit::new(
                        label,
                        fam,
                        move |tr| traced_devec(&parts[1], &parts[2], scale, tr),
                        move || t.run(task_seed).dump(),
                    )
                }
                _ => {
                    let t = Rc::new(t);
                    let reference = Rc::clone(&t);
                    TracedUnit::new(
                        label,
                        fam,
                        move |tr| tr.leaf("bench.task", || t.run(task_seed).dump()),
                        move || reference.run(task_seed).dump(),
                    )
                }
            }
        })
        .collect()
}

/// `run_plan` at one job: warm once, snapshot, fork every leg.
fn traced_plan(spec: &ExperimentSpec, tr: &mut Tracer) -> Vec<LegResult> {
    let (_, make_cfg) = *pipelines()
        .iter()
        .find(|(n, _)| *n == spec.pipeline)
        .expect("grid pipelines resolve");
    let core_cfg = make_cfg();
    let find = |victims: &[Box<dyn csd_crypto::Victim>]| {
        victims
            .iter()
            .position(|v| v.name() == spec.victim)
            .expect("grid victims resolve")
    };
    let victims = tr.leaf("exp.victims", security_victims);
    let victim = victims[find(&victims)].as_ref();
    let mut core = tr.leaf("exp.core_build", || security_core(victim, core_cfg.clone()));
    let mut rng = SplitMix64::new(spec.seed);
    let mut input = vec![0u8; victim.input_len()];
    tr.leaf("exp.warm", || {
        warm_up(&mut core, victim, &mut rng, &mut input)
    });
    let snapshot = tr.leaf("exp.snapshot", || core.snapshot());

    spec.legs
        .iter()
        .map(|leg| {
            let victims = tr.leaf("exp.victims", security_victims);
            let victim = victims[find(&victims)].as_ref();
            let mut core = tr.leaf("exp.core_build", || security_core(victim, core_cfg.clone()));
            tr.leaf("exp.restore", || core.restore(&snapshot));
            core.mark_plan_leg();
            let mut rng = rng;
            let mut input = vec![0u8; victim.input_len()];
            apply_leg_mode(&leg.mode, victim, &mut core).expect("grid legs resolve");
            let blocks = leg.blocks.unwrap_or(spec.blocks);
            let stealth = matches!(leg.mode, LegMode::Stealth { .. });
            let span = if stealth {
                "exp.stealth_leg"
            } else {
                "exp.base_leg"
            };
            let u0 = *core.uop_cache_stats();
            let metrics = tr.leaf(span, || {
                measure_blocks(&mut core, victim, &mut rng, &mut input, blocks)
            });
            let u1 = *core.uop_cache_stats();
            tr.count("plan.insts", metrics.insts);
            tr.count("plan.cycles", metrics.cycles);
            tr.count("plan.ucache_hits", u1.hits - u0.hits);
            tr.count("plan.ucache_lookups", u1.lookups - u0.lookups);
            if stealth {
                tr.count("plan.stealth_uops", metrics.uops);
                tr.count("plan.decoy_uops", metrics.decoy_uops);
            }
            LegResult {
                mode: leg.mode.clone(),
                blocks,
                metrics,
            }
        })
        .collect()
}

/// A `devec/<workload>/<policy>` task: `run_devec` plus the task's JSON.
fn traced_devec(wname: &str, pname: &str, scale: f64, tr: &mut Tracer) -> String {
    let w = tr.leaf("workloads.build", || {
        let spec = specs()
            .into_iter()
            .find(|s| s.name == wname)
            .expect("grid workloads resolve");
        Workload::with_scale(spec, scale)
    });
    let (_, policy) = *policies()
        .iter()
        .find(|(n, _)| *n == pname)
        .expect("grid policies resolve");
    let csd_cfg = CsdConfig {
        vpu_policy: policy,
        ..CsdConfig::default()
    };
    tr.begin("devec.run");
    let mut core = Core::new(
        CoreConfig::default(),
        csd_cfg,
        w.program().clone(),
        SimMode::Cycle,
    );
    w.install(&mut core);
    let out = core.run(100_000_000);
    tr.end();
    assert_eq!(out, StepOutcome::Halted, "{wname} must halt");
    let activity = core.activity();
    let energy = tr.leaf("power.breakdown", || {
        EnergyModel::default().breakdown(&activity)
    });
    let run = DevecRun {
        stats: *core.stats(),
        gate: *core.engine().gate().stats(),
        activity,
        energy,
    };
    Json::obj([
        ("workload", Json::from(wname)),
        ("policy", Json::from(pname)),
        ("run", run.to_json()),
    ])
    .dump()
}

/// Layer metrics from the traced units' spans and counters.
pub fn layer_metrics(
    t: &Tracer,
    unit_times: &[(&'static str, Vec<f64>)],
) -> Vec<(&'static str, f64)> {
    let us = |name| t.median_ns(name) / 1e3;
    let ms = |name| t.median_ns(name) / 1e6;
    let family_ms = |family| -> f64 {
        let p10 = unit_times
            .iter()
            .filter(|(f, _)| *f == family)
            .filter_map(|(_, xs)| quantile(xs, 0.1));
        1e3 * p10.sum::<f64>()
    };
    let ratio = |a: &'static str, b: &'static str| t.counter(a) as f64 / t.counter(b) as f64;
    let leg_ns = t.total_ns("exp.base_leg") + t.total_ns("exp.stealth_leg");
    vec![
        ("bench.task_ms.sec", family_ms("sec")),
        ("bench.task_ms.wd", family_ms("wd")),
        ("bench.task_ms.devec", family_ms("devec")),
        ("bench.task_ms.rsa", family_ms("rsa")),
        ("exp.core_build_ms", ms("exp.core_build")),
        ("exp.warm_ms", ms("exp.warm")),
        ("exp.snapshot_us", us("exp.snapshot")),
        ("exp.restore_us", us("exp.restore")),
        ("exp.base_leg_ms", ms("exp.base_leg")),
        ("exp.stealth_leg_ms", ms("exp.stealth_leg")),
        (
            "pipeline.cycle_minst_per_s",
            t.counter("plan.insts") as f64 * 1e3 / leg_ns,
        ),
        ("workloads.build_ms", ms("workloads.build")),
        ("power.breakdown_us", us("power.breakdown")),
        (
            "pipeline.uop_cache_hit_ratio",
            ratio("plan.ucache_hits", "plan.ucache_lookups"),
        ),
        ("pipeline.cpi", ratio("plan.cycles", "plan.insts")),
        (
            "csd.decoy_share",
            ratio("plan.decoy_uops", "plan.stealth_uops"),
        ),
    ]
}
