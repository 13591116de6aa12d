//! Coverage-guided differential fuzzing engine.
//!
//! Wraps the 19-leg cosimulation harness in a feedback loop: mutants of
//! the current population run across (a subset of) the mode matrix with
//! structural coverage recording, and an input survives only if it
//! diverges (a finding) or reaches a coverage bin nothing before it did.
//! Both kinds are greedily shrunk with [`crate::shrink::shrink_with`] —
//! findings under a *class-preserving* predicate (the minimized program
//! must fail with the same divergence-class set), discoveries under a
//! *coverage-preserving* one (must still reach the new bins, cleanly) —
//! and handed back as content-addressed [`CorpusEntry`]s.
//!
//! # Determinism
//!
//! The loop is byte-reproducible at any `--jobs` setting:
//!
//! - candidates are *constructed* sequentially, each from its own
//!   [`derive_seed`]`(seed, "fuzz/<round>/<k>")` stream, against the
//!   population as it stood at the start of the round;
//! - candidates are *evaluated* (the expensive cosimulation) by the
//!   shared ordered executor, so thread scheduling cannot reorder
//!   results;
//! - results are *folded* sequentially in candidate order — coverage
//!   merges, shrinks, and corpus admission all happen on one thread in a
//!   fixed order.
//!
//! Two runs with the same seed, iteration count, and mode filter produce
//! byte-identical corpus files and coverage JSON.

use crate::corpus::CorpusEntry;
use crate::generator::Generator;
use crate::harness::{cosim, cosim_with_coverage, mode_matrix, ModeLeg};
use crate::mutate::{mask_all, FuzzInput, Mutator};
use crate::shrink::shrink_with;
use csd_telemetry::{derive_seed, ordered_map, CoverageMap, SplitMix64};
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::sync::{Arc, Mutex};

/// Candidates constructed per round. Fixed (never derived from the job
/// count): the batch boundary is part of the deterministic schedule.
pub const BATCH: usize = 8;

/// Programs generated from scratch to seed the population.
const N_SEEDS: usize = 4;

/// Fuzzing campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Root seed; everything derives from it.
    pub seed: u64,
    /// Total mutants to evaluate.
    pub iters: u64,
    /// Substring filter over mode-matrix leg names (e.g. `cyc`, `-s`);
    /// `None` = all 19 legs.
    pub modes: Option<String>,
    /// Worker threads for candidate evaluation (output-invariant).
    pub jobs: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 0,
            iters: 64,
            modes: None,
            jobs: 1,
        }
    }
}

/// Outcome of a fuzzing campaign.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Structural coverage accumulated over every evaluated input.
    pub coverage: CoverageMap,
    /// Shrunk diverging inputs (new findings), in discovery order.
    pub failures: Vec<CorpusEntry>,
    /// Shrunk coverage-increasing inputs, in discovery order.
    pub discoveries: Vec<CorpusEntry>,
    /// Mutants actually evaluated.
    pub evaluated: u64,
}

/// The legs a campaign runs: the mode matrix filtered by name substring.
pub fn active_legs(modes: Option<&str>) -> Vec<ModeLeg> {
    mode_matrix()
        .into_iter()
        .filter(|l| modes.is_none_or(|m| l.name().contains(m)))
        .collect()
}

/// Legs of `legs` selected by `mask`.
fn select(legs: &[ModeLeg], mask: u32) -> Vec<ModeLeg> {
    legs.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, l)| *l)
        .collect()
}

/// One pure evaluation: cosimulate `input` over its selected legs with a
/// fresh coverage map. Returns the map and the observed divergence-class
/// set (sorted). Inputs are valid by construction, but a candidate that
/// somehow fails to assemble is reported as class `reference`.
fn evaluate(input: &FuzzInput, legs: &[ModeLeg]) -> (CoverageMap, Vec<String>) {
    let Ok(p) = input.program.assemble() else {
        let mut m = CoverageMap::new();
        m.record_divergence("reference");
        return (m, vec!["reference".into()]);
    };
    let map = Arc::new(Mutex::new(CoverageMap::new()));
    let result = cosim_with_coverage(&p, &select(legs, input.leg_mask), None, Some(&map));
    let mut classes: Vec<String> = result.classes().iter().map(|s| s.to_string()).collect();
    classes.sort();
    let map = map.lock().map(|m| m.clone()).unwrap_or_default();
    (map, classes)
}

/// Sorted divergence-class set of `input` (no coverage recording) — the
/// shrink predicate for findings.
fn classes_of(input: &FuzzInput, legs: &[ModeLeg]) -> Vec<String> {
    let Ok(p) = input.program.assemble() else {
        return vec!["reference".into()];
    };
    let result = cosim(&p, &select(legs, input.leg_mask), None);
    let mut classes: Vec<String> = result.classes().iter().map(|s| s.to_string()).collect();
    classes.sort();
    classes
}

/// Runs one fuzzing campaign. `seed_corpus` entries without recorded
/// divergence join the population (and their coverage primes the global
/// map); entries *with* recorded divergence are known reproducers — they
/// are regression-test material, not fuzzing stock, and are skipped.
pub fn fuzz(cfg: &FuzzConfig, seed_corpus: &[CorpusEntry]) -> FuzzOutcome {
    let legs = active_legs(cfg.modes.as_deref());
    assert!(!legs.is_empty(), "mode filter matched no legs");
    let n_legs = legs.len();

    // Seed population: generated programs first, then clean corpus
    // entries in their (sorted) load order.
    let mut population: Vec<FuzzInput> = (0..N_SEEDS)
        .map(|k| {
            let s = derive_seed(cfg.seed, &format!("fuzz/seed/{k}"));
            FuzzInput::full_matrix(Generator::new(s).program(), n_legs)
        })
        .collect();
    for entry in seed_corpus {
        if !entry.divergence.is_empty() {
            continue;
        }
        let mask = entry
            .legs
            .iter()
            .filter_map(|el| legs.iter().position(|l| l == el))
            .fold(0u32, |m, i| m | (1 << i));
        population.push(FuzzInput {
            program: entry.program.clone(),
            leg_mask: if mask == 0 { mask_all(n_legs) } else { mask },
        });
    }

    let mut global = CoverageMap::new();
    let mut failures: Vec<CorpusEntry> = Vec::new();
    let mut discoveries: Vec<CorpusEntry> = Vec::new();
    let mut seen_names: BTreeSet<String> = BTreeSet::new();
    let mut seen_classes: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut evaluated = 0u64;

    // Prime global coverage with the seed population, sequentially.
    for input in &population {
        let (cov, classes) = evaluate(input, &legs);
        global.merge(&cov);
        if !classes.is_empty() {
            // A seed that already diverges is a finding in its own right
            // (e.g. a regression the committed corpus missed).
            admit_failure(
                input,
                &classes,
                &legs,
                "seed population",
                &mut failures,
                &mut seen_names,
                &mut seen_classes,
            );
        }
    }

    let rounds = cfg.iters.div_ceil(BATCH as u64);
    for round in 0..rounds {
        let in_round = (cfg.iters - round * BATCH as u64).min(BATCH as u64) as usize;

        // Construct candidates sequentially against the round-start
        // population snapshot.
        let candidates: Vec<FuzzInput> = (0..in_round)
            .map(|k| {
                let s = derive_seed(cfg.seed, &format!("fuzz/{round}/{k}"));
                let mut picker = SplitMix64::new(derive_seed(s, "pick"));
                let base = &population[picker.next_u64() as usize % population.len()];
                let donor = &population[picker.next_u64() as usize % population.len()];
                Mutator::new(s).mutate(base, Some(donor), n_legs)
            })
            .collect();

        // Evaluate in parallel; results come back in candidate order.
        let Ok(results) = ordered_map(
            cfg.jobs,
            &candidates,
            |c| Ok::<_, Infallible>(evaluate(c, &legs)),
            |_, _| Ok(()),
        );

        // Fold sequentially in candidate order.
        for (k, (cov, classes)) in results.into_iter().enumerate() {
            evaluated += 1;
            let input = &candidates[k];
            let origin = format!("fuzz seed {:#x} round {round} candidate {k}", cfg.seed);
            if !classes.is_empty() {
                admit_failure(
                    input,
                    &classes,
                    &legs,
                    &origin,
                    &mut failures,
                    &mut seen_names,
                    &mut seen_classes,
                );
                continue;
            }
            let new_bins = cov.new_bin_names(&global);
            global.merge(&cov);
            if new_bins.is_empty() {
                continue;
            }
            // Coverage-preserving shrink: the minimized program must
            // still reach every newly covered bin, cleanly.
            let shrunk = shrink_with(&input.program, &mut |gp| {
                let candidate = FuzzInput {
                    program: gp.clone(),
                    leg_mask: input.leg_mask,
                };
                let (c, cls) = evaluate(&candidate, &legs);
                cls.is_empty() && c.covers_all(&new_bins)
            });
            let kept = FuzzInput {
                program: shrunk.program,
                leg_mask: input.leg_mask,
            };
            // The shrunk variant's own coverage also feeds the map (it
            // reaches the new bins by construction).
            let (cov, _) = evaluate(&kept, &legs);
            global.merge(&cov);
            let entry = CorpusEntry::new(
                kept.program.clone(),
                select(&legs, kept.leg_mask),
                Vec::new(),
                format!("{origin}: +{} bins", new_bins.len()),
            );
            if seen_names.insert(entry.name.clone()) {
                discoveries.push(entry);
            }
            population.push(kept);
        }
    }

    FuzzOutcome {
        coverage: global,
        failures,
        discoveries,
        evaluated,
    }
}

/// Shrinks a diverging input class-preservingly and records it. One
/// entry per distinct divergence-class set per campaign: a second input
/// failing the same way adds no information.
#[allow(clippy::too_many_arguments)]
fn admit_failure(
    input: &FuzzInput,
    classes: &[String],
    legs: &[ModeLeg],
    origin: &str,
    failures: &mut Vec<CorpusEntry>,
    seen_names: &mut BTreeSet<String>,
    seen_classes: &mut BTreeSet<Vec<String>>,
) {
    if !seen_classes.insert(classes.to_vec()) {
        return;
    }
    let shrunk = shrink_with(&input.program, &mut |gp| {
        let candidate = FuzzInput {
            program: gp.clone(),
            leg_mask: input.leg_mask,
        };
        classes_of(&candidate, legs) == classes
    });
    let entry = CorpusEntry::new(
        shrunk.program,
        select(legs, input.leg_mask),
        classes.to_vec(),
        origin.to_string(),
    );
    if seen_names.insert(entry.name.clone()) {
        failures.push(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg(jobs: usize) -> FuzzConfig {
        FuzzConfig {
            seed: 0x5EED,
            iters: 8,
            // One cheap functional leg keeps the smoke test fast.
            modes: Some("fun-....".into()),
            jobs,
        }
    }

    #[test]
    fn campaign_is_reproducible_across_job_counts() {
        let render = |o: &FuzzOutcome| {
            let mut s = csd_telemetry::ToJson::to_json(&o.coverage).dump();
            for e in o.failures.iter().chain(&o.discoveries) {
                s.push_str(&e.name);
                s.push_str(&e.program.to_asm());
                s.push_str(&e.metadata().dump());
            }
            s
        };
        let a = render(&fuzz(&smoke_cfg(1), &[]));
        let b = render(&fuzz(&smoke_cfg(1), &[]));
        let c = render(&fuzz(&smoke_cfg(4), &[]));
        assert_eq!(a, b, "same seed must reproduce byte-identically");
        assert_eq!(a, c, "job count must not change a single output byte");
    }

    #[test]
    fn campaign_accumulates_coverage_and_finds_no_bugs() {
        let out = fuzz(&smoke_cfg(2), &[]);
        assert_eq!(out.evaluated, 8);
        assert!(
            out.coverage.events() > 0,
            "seed population must produce coverage"
        );
        assert!(
            out.failures.is_empty(),
            "unexpected divergence: {:?}",
            out.failures
                .iter()
                .map(|f| (&f.name, &f.divergence))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn mode_filter_selects_legs() {
        assert_eq!(active_legs(None).len(), 19);
        assert_eq!(active_legs(Some("cyc")).len(), 2);
        assert_eq!(active_legs(Some("snap")).len(), 1);
    }
}
