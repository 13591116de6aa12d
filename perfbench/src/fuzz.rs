//! `fuzz`: coverage-guided differential fuzzing, one short single-thread
//! campaign per unit.
//!
//! It uses the `pipeline` layer the opposite way from `attack`: every
//! program builds 19 short-lived cores, so core construction costs more
//! than stepping. Layers it stresses: the `difftest` generator,
//! assembler, reference interpreter and cosimulation, and `telemetry`
//! coverage.

use crate::trace::Tracer;
use crate::unit::{TracedUnit, Unit};
use csd::{CsdConfig, DevecThresholds, VpuPolicy};
use csd_difftest::fuzz::BATCH;
use csd_difftest::harness::MAX_INSTS;
use csd_difftest::{
    active_legs, cosim_with_coverage, fuzz, mode_matrix, shrink_with, CorpusEntry, FuzzConfig,
    FuzzInput, Generator, ModeLeg, Mutator, RefCpu,
};
use csd_pipeline::{Core, CoreConfig, SimMode};
use csd_telemetry::{derive_seed, CoverageMap, Json, SplitMix64};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Campaigns per pass.
const UNITS: usize = 4;
/// Root of the campaign seeds. A campaign's cost depends on its seed by
/// more than 3× (whether mutants reach new coverage decides how much
/// shrinking follows), so the campaigns are one fixed set and the
/// benchmark seed only sets the order they run in; see `NOTES.md`.
const CAMPAIGN_ROOT: u64 = 0xC5D_2018;
/// Mutants evaluated per campaign.
const ITERS: u64 = 8;
/// Programs generated from scratch to seed each campaign's population
/// (the campaign's own constant).
const N_SEEDS: usize = 4;

/// Campaign `k` of the fixed set.
fn config(k: usize) -> FuzzConfig {
    FuzzConfig {
        seed: derive_seed(CAMPAIGN_ROOT, &format!("fuzz/{k}")),
        iters: ITERS,
        modes: None,
        jobs: 1,
    }
}

fn render(
    evaluated: u64,
    failures: usize,
    discoveries: &[String],
    coverage: &CoverageMap,
) -> String {
    Json::obj([
        ("evaluated", Json::from(evaluated)),
        ("failures", Json::from(failures)),
        (
            "discoveries",
            Json::arr(discoveries.iter().map(|d| Json::from(d.as_str()))),
        ),
        ("bins", Json::from(coverage.bins())),
        ("events", Json::from(coverage.events())),
    ])
    .dump()
}

fn check(out: &str) -> Result<(), String> {
    let doc = Json::parse(out).map_err(|e| e.to_string())?;
    let evaluated = doc.get("evaluated").and_then(Json::as_u64);
    if evaluated != Some(ITERS) {
        return Err(format!("evaluated {evaluated:?}, expected {ITERS}"));
    }
    match doc.get("failures").and_then(Json::as_u64) {
        Some(0) => Ok(()),
        n => Err(format!("{n:?} diverging programs")),
    }
}

fn untraced(cfg: &FuzzConfig) -> String {
    let out = fuzz(cfg, &[]);
    let names: Vec<String> = out.discoveries.iter().map(|d| d.name.clone()).collect();
    render(out.evaluated, out.failures.len(), &names, &out.coverage)
}

/// The campaigns in the order the benchmark seed gives them.
fn order(seed: u64) -> impl Iterator<Item = usize> {
    let first = (seed % UNITS as u64) as usize;
    (0..UNITS).map(move |i| (first + i) % UNITS)
}

/// The workload's units.
pub fn units(seed: u64) -> Vec<Unit> {
    order(seed)
        .map(|k| {
            let cfg = config(k);
            Unit::new(format!("fuzz/{k}"), move || untraced(&cfg), check)
        })
        .collect()
}

/// The campaigns rebuilt from the generator, mutator, assembler,
/// `cosim_with_coverage`, coverage merging and the shrinker; each must
/// reproduce `fuzz`'s outcome.
pub fn traced(seed: u64) -> Vec<TracedUnit> {
    order(seed)
        .map(|k| {
            let cfg = config(k);
            let reference = cfg.clone();
            TracedUnit::new(
                format!("fuzz/{k}"),
                "fuzz",
                move |t| traced_fuzz(&cfg, t),
                move || untraced(&reference),
            )
        })
        .collect()
}

fn select(legs: &[ModeLeg], mask: u32) -> Vec<ModeLeg> {
    legs.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, l)| *l)
        .collect()
}

/// One cosimulation with fresh coverage: the map and the sorted
/// divergence classes.
fn evaluate(input: &FuzzInput, legs: &[ModeLeg], t: &mut Tracer) -> (CoverageMap, Vec<String>) {
    let Ok(program) = t.leaf("difftest.assemble", || input.program.assemble()) else {
        let mut m = CoverageMap::new();
        m.record_divergence("reference");
        return (m, vec!["reference".into()]);
    };
    let map = Arc::new(Mutex::new(CoverageMap::new()));
    let selected = select(legs, input.leg_mask);
    let result = t.leaf("difftest.cosim", || {
        cosim_with_coverage(&program, &selected, None, Some(&map))
    });
    t.count("difftest.programs", 1);
    let mut classes: Vec<String> = result.classes().iter().map(|s| s.to_string()).collect();
    classes.sort();
    let map = map.lock().map(|m| m.clone()).unwrap_or_default();
    (map, classes)
}

/// `fuzz` without a seed corpus, at one job. A diverging input is only
/// counted (by distinct class set), not shrunk: any divergence already
/// fails the unit.
fn traced_fuzz(cfg: &FuzzConfig, t: &mut Tracer) -> String {
    let legs = active_legs(None);
    let n_legs = legs.len();
    let mut population: Vec<FuzzInput> = (0..N_SEEDS)
        .map(|k| {
            let s = derive_seed(cfg.seed, &format!("fuzz/seed/{k}"));
            let program = t.leaf("difftest.generate", || Generator::new(s).program());
            FuzzInput::full_matrix(program, n_legs)
        })
        .collect();

    let mut global = CoverageMap::new();
    let mut failing: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut discoveries: Vec<String> = Vec::new();
    let mut evaluated = 0u64;

    for input in &population {
        let (cov, classes) = evaluate(input, &legs, t);
        t.leaf("telemetry.coverage_merge", || global.merge(&cov));
        if !classes.is_empty() {
            failing.insert(classes);
        }
    }

    for round in 0..cfg.iters.div_ceil(BATCH as u64) {
        let in_round = (cfg.iters - round * BATCH as u64).min(BATCH as u64) as usize;
        let candidates: Vec<FuzzInput> = (0..in_round)
            .map(|k| {
                let s = derive_seed(cfg.seed, &format!("fuzz/{round}/{k}"));
                let mut picker = SplitMix64::new(derive_seed(s, "pick"));
                let base = &population[picker.next_u64() as usize % population.len()];
                let donor = &population[picker.next_u64() as usize % population.len()];
                t.leaf("difftest.generate", || {
                    Mutator::new(s).mutate(base, Some(donor), n_legs)
                })
            })
            .collect();
        for input in &candidates {
            let (cov, classes) = evaluate(input, &legs, t);
            evaluated += 1;
            if !classes.is_empty() {
                failing.insert(classes);
                continue;
            }
            let new_bins = cov.new_bin_names(&global);
            t.leaf("telemetry.coverage_merge", || global.merge(&cov));
            if new_bins.is_empty() {
                continue;
            }
            t.begin("difftest.shrink");
            let shrunk = shrink_with(&input.program, &mut |gp| {
                let candidate = FuzzInput {
                    program: gp.clone(),
                    leg_mask: input.leg_mask,
                };
                let (c, cls) = evaluate(&candidate, &legs, t);
                cls.is_empty() && c.covers_all(&new_bins)
            });
            t.end();
            let kept = FuzzInput {
                program: shrunk.program,
                leg_mask: input.leg_mask,
            };
            let (cov, _) = evaluate(&kept, &legs, t);
            t.leaf("telemetry.coverage_merge", || global.merge(&cov));
            let entry = CorpusEntry::new(
                kept.program.clone(),
                select(&legs, kept.leg_mask),
                Vec::new(),
                String::new(),
            );
            if !discoveries.contains(&entry.name) {
                discoveries.push(entry.name);
            }
            population.push(kept);
        }
    }
    t.count("telemetry.coverage_bins", global.bins());
    render(evaluated, failing.len(), &discoveries, &global)
}

/// Side probe, outside any unit span: the reference interpreter and core
/// construction are internal to a cosimulation, so they are timed here
/// on each campaign's seed programs, once per leg of the mode matrix
/// with the leg's configuration.
pub fn probe(t: &mut Tracer) {
    let legs = mode_matrix();
    for k in 0..UNITS {
        let cfg = config(k);
        t.start_unit(&format!("fuzz/{k}/probe"));
        for j in 0..N_SEEDS {
            let s = derive_seed(cfg.seed, &format!("fuzz/seed/{j}"));
            let Ok(program) = Generator::new(s).program().assemble() else {
                continue;
            };
            t.leaf("difftest.reference", || {
                RefCpu::new(program.entry()).run(&program, MAX_INSTS)
            });
            for leg in &legs {
                let cfg = CoreConfig {
                    dift_enabled: leg.stealth,
                    uop_cache_enabled: leg.ucache,
                    decode_memo_enabled: leg.memo,
                    ..CoreConfig::default()
                };
                let vpu_policy = if leg.devec {
                    VpuPolicy::CsdDevec(DevecThresholds {
                        window: 8,
                        low: 1,
                        high: 16,
                    })
                } else {
                    VpuPolicy::AlwaysOn
                };
                let csd_cfg = CsdConfig {
                    vpu_policy,
                    ..CsdConfig::default()
                };
                let mode = if leg.cycle {
                    SimMode::Cycle
                } else {
                    SimMode::Functional
                };
                let core = t.leaf("pipeline.core_new", || {
                    Core::new(cfg, csd_cfg, program.clone(), mode)
                });
                std::hint::black_box(core);
            }
        }
    }
}

/// Layer metrics from the traced campaigns and the side probe; `passes`
/// is how many times each campaign ran traced.
pub fn layer_metrics(t: &Tracer, passes: usize) -> Vec<(&'static str, f64)> {
    let us = |name| t.median_ns(name) / 1e3;
    let per_pass = |name| t.counter(name) as f64 / passes as f64;
    vec![
        ("pipeline.core_new_us", us("pipeline.core_new")),
        ("difftest.cosim_ms", t.median_ns("difftest.cosim") / 1e6),
        ("difftest.generate_us", us("difftest.generate")),
        ("difftest.assemble_us", us("difftest.assemble")),
        ("difftest.reference_us", us("difftest.reference")),
        (
            "telemetry.coverage_merge_us",
            us("telemetry.coverage_merge"),
        ),
        (
            "telemetry.coverage_bins",
            per_pass("telemetry.coverage_bins"),
        ),
        ("difftest.programs", per_pass("difftest.programs")),
    ]
}
