//! The parallel experiment-suite runner behind `--bin suite`.
//!
//! The task grid itself lives in [`crate::tasks`] (shared with the
//! `csd-serve` daemon); this module runs tasks on the shared ordered
//! executor ([`ordered_map`]) and assembles one deterministic JSON report
//! (`BENCH_suite.json`).
//!
//! Determinism contract: each task derives its own input seed from the
//! suite's root seed and the task's *label* (never from scheduling
//! order), results are re-assembled in grid order, and the report
//! carries no timestamps or host details — so the same root seed
//! produces a byte-identical report at any `--jobs` setting.

use crate::mean;
use crate::tasks::{build_tasks, filter_tasks, pipelines, victim_names, TaskDef};
use csd_telemetry::{ordered_map, Json, RunJournal, ToJson};
use csd_workloads::specs;
use std::sync::{Mutex, PoisonError};

/// Knobs for one suite invocation.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Root seed every per-task seed is derived from.
    pub root_seed: u64,
    /// Worker threads; `0` and `1` both run inline on the caller's
    /// thread. The CLI maps its `--jobs 0` ("auto") through
    /// [`resolve_jobs`] before building the config.
    pub jobs: usize,
    /// Measured operations per security datapoint (figures 8–10).
    pub sec_blocks: usize,
    /// Measured operations per watchdog-sweep datapoint (figure 11).
    pub wd_blocks: usize,
    /// Watchdog periods swept by figure 11, in cycles.
    pub wd_periods: Vec<u64>,
    /// PRIME+PROBE encryptions per candidate nibble (figure 7a).
    pub aes_trials: usize,
    /// Workload scale for the devectorization family (figures 12–16).
    pub devec_scale: f64,
    /// Evaluate tolerance bands (`checks` section; off for smoke runs).
    pub checks: bool,
    /// Profile name echoed into the report (`full` / `quick`).
    pub profile: &'static str,
}

impl SuiteConfig {
    /// The full figure grid at publication fidelity.
    pub fn full(root_seed: u64, jobs: usize) -> SuiteConfig {
        SuiteConfig {
            root_seed,
            jobs,
            sec_blocks: 48,
            wd_blocks: 24,
            wd_periods: vec![1000, 2000, 4000, 6000, 8000, 10_000],
            aes_trials: 80,
            devec_scale: 0.5,
            checks: true,
            profile: "full",
        }
    }

    /// A down-scaled grid for CI smoke tests and the determinism
    /// property test; tolerance checks are disabled (the bands assume
    /// full-fidelity runs).
    pub fn quick(root_seed: u64, jobs: usize) -> SuiteConfig {
        SuiteConfig {
            root_seed,
            jobs,
            sec_blocks: 2,
            wd_blocks: 2,
            wd_periods: vec![1000, 4000],
            aes_trials: 3,
            devec_scale: 0.05,
            checks: false,
            profile: "quick",
        }
    }

    /// Builds the profile by name (`"full"` / `"quick"`) — the
    /// convention shared by `suite` CLI flags and server requests.
    pub fn named(profile: &str, root_seed: u64, jobs: usize) -> Option<SuiteConfig> {
        match profile {
            "full" => Some(SuiteConfig::full(root_seed, jobs)),
            "quick" => Some(SuiteConfig::quick(root_seed, jobs)),
            _ => None,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("profile", Json::from(self.profile)),
            ("root_seed", Json::from(self.root_seed)),
            ("sec_blocks", Json::from(self.sec_blocks as u64)),
            ("wd_blocks", Json::from(self.wd_blocks as u64)),
            (
                "wd_periods",
                Json::Arr(self.wd_periods.iter().map(|p| Json::from(*p)).collect()),
            ),
            ("aes_trials", Json::from(self.aes_trials as u64)),
            ("devec_scale", Json::from(self.devec_scale)),
        ])
    }
}

/// One tolerance-band evaluation over a headline metric.
#[derive(Debug, Clone)]
pub struct Check {
    /// Stable identifier, e.g. `fig08_opt_avg_slowdown`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl Check {
    /// Whether the value sits inside the band.
    pub fn pass(&self) -> bool {
        self.value >= self.lo && self.value <= self.hi
    }
}

impl ToJson for Check {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name)),
            ("value", Json::from(self.value)),
            ("lo", Json::from(self.lo)),
            ("hi", Json::from(self.hi)),
            ("pass", Json::from(self.pass())),
        ])
    }
}

/// Everything one suite run produced.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// The full nested report (serialize with [`Json::pretty`]).
    pub json: Json,
    /// Tolerance checks evaluated (empty when `checks` was off).
    pub checks: Vec<Check>,
}

impl SuiteReport {
    /// Names of the checks whose value fell outside its band.
    pub fn failed_checks(&self) -> Vec<&'static str> {
        self.checks
            .iter()
            .filter(|c| !c.pass())
            .map(|c| c.name)
            .collect()
    }
}

/// Runs `tasks` on `jobs` workers (see [`ordered_map`]) and returns
/// their results in task order, each task seeded from `root_seed` by
/// label. Deterministic at any worker count.
///
/// With a `journal`, tasks it already holds are replayed instead of run,
/// and every fresh completion is durably appended before it counts, so
/// a resumed run returns the same values as an uninterrupted one.
///
/// # Errors
///
/// An untrustworthy journal (a replayed record with an unknown label,
/// the wrong seed, or unparseable result bytes) or a failed journal
/// append (`ENOSPC` and friends): the durability contract is broken, so
/// the run stops instead of continuing unjournaled.
///
/// # Panics
///
/// Panics if a task panics (the underlying experiment faulted).
pub fn run_tasks(
    tasks: &[TaskDef],
    root_seed: u64,
    jobs: usize,
    journal: Option<&Mutex<RunJournal>>,
) -> Result<Vec<Json>, String> {
    let mut slots = match journal {
        Some(j) => replay_into_slots(
            tasks,
            root_seed,
            &j.lock().unwrap_or_else(PoisonError::into_inner),
        )?,
        None => vec![None; tasks.len()],
    };
    let pending: Vec<usize> = (0..tasks.len()).filter(|&i| slots[i].is_none()).collect();
    let fresh = ordered_map(
        jobs,
        &pending,
        |&i| Ok(tasks[i].run(tasks[i].seed(root_seed))),
        // Journal before publishing: a completion the caller can observe
        // is a completion a crash cannot lose.
        |&i, out: &Json| {
            let Some(j) = journal else { return Ok(()) };
            let t = &tasks[i];
            j.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record(t.label(), t.seed(root_seed), out.dump().as_bytes())
                .map_err(|e| format!("journal append for {:?}: {e}", t.label()))
        },
    )?;
    for (i, value) in pending.into_iter().zip(fresh) {
        slots[i] = Some(value);
    }
    Ok(slots.into_iter().flatten().collect())
}

/// Runs the whole grid on `cfg.jobs` workers, optionally under a
/// write-ahead journal (see [`run_tasks`]), and assembles the report.
/// Deterministic for a fixed config at any job count, journaled or not.
///
/// # Errors
///
/// Journal replay or append failures.
pub fn run_suite(
    cfg: &SuiteConfig,
    journal: Option<&Mutex<RunJournal>>,
) -> Result<SuiteReport, String> {
    let tasks = build_tasks(cfg);
    let values = run_tasks(&tasks, cfg.root_seed, cfg.jobs, journal)?;
    let results = Results {
        labels: tasks.iter().map(|t| t.label().to_string()).collect(),
        values,
    };
    Ok(assemble(cfg, &results))
}

/// The journal meta document pinning a grid run's determinism domain:
/// `(profile, root seed, filter)` are exactly the inputs the artifact
/// bytes are a pure function of, so a journal opened under a different
/// meta is a different run and must be refused. Scheduling knobs
/// (`jobs`) are deliberately absent — they cannot change the bytes, so
/// a run may crash under `--jobs 8` and resume under `--jobs 1`.
pub fn journal_meta(cfg: &SuiteConfig, filter: Option<&str>) -> Json {
    Json::obj([
        ("kind", Json::from("suite-grid")),
        ("profile", Json::from(cfg.profile)),
        ("root_seed", Json::from(cfg.root_seed)),
        ("filter", filter.map_or(Json::Null, Json::from)),
    ])
}

/// Splits `tasks` against a resumed journal: returns one slot per task
/// (`Some` for tasks whose result was replayed — label, seed, and
/// digest verified — `None` for tasks still to run). The journal's meta
/// frame was already matched by [`RunJournal::open`], so any replay
/// mismatch here means the file was tampered with, not misused.
///
/// # Errors
///
/// A record naming an unknown label, the wrong seed, or unparseable
/// result bytes — the journal cannot be trusted and the caller should
/// delete it and rerun.
fn replay_into_slots(
    tasks: &[TaskDef],
    root_seed: u64,
    journal: &RunJournal,
) -> Result<Vec<Option<Json>>, String> {
    let mut slots: Vec<Option<Json>> = (0..tasks.len()).map(|_| None).collect();
    for rec in journal.replayed() {
        let Some(i) = tasks.iter().position(|t| t.label() == rec.label) else {
            return Err(format!(
                "journal {}: replayed task {:?} is not in this grid",
                journal.path().display(),
                rec.label
            ));
        };
        let expected = tasks[i].seed(root_seed);
        if rec.seed != expected {
            return Err(format!(
                "journal {}: task {:?} recorded seed {:#x} != expected {expected:#x}",
                journal.path().display(),
                rec.label,
                rec.seed
            ));
        }
        let text = std::str::from_utf8(&rec.bytes).map_err(|_| {
            format!(
                "journal {}: task {:?} result is not UTF-8",
                journal.path().display(),
                rec.label
            )
        })?;
        let value = Json::parse(text).map_err(|e| {
            format!(
                "journal {}: task {:?} result is not JSON: {e}",
                journal.path().display(),
                rec.label
            )
        })?;
        if let Some(prev) = &slots[i] {
            if prev.dump() != value.dump() {
                return Err(format!(
                    "journal {}: task {:?} recorded twice with different results",
                    journal.path().display(),
                    rec.label
                ));
            }
        }
        slots[i] = Some(value);
    }
    Ok(slots)
}

/// Runs the label-matched subset of the grid, optionally under a
/// write-ahead journal, and returns a reduced report: no figure
/// summaries or tolerance checks, just each task's label, seed, and
/// result in grid order. The `csd-serve` daemon emits the identical
/// document for a single-task request, which is what lets CI
/// byte-compare a served experiment against `suite --filter`.
///
/// # Errors
///
/// Journal replay or append failures.
pub fn run_filtered(
    cfg: &SuiteConfig,
    filter: &str,
    journal: Option<&Mutex<RunJournal>>,
) -> Result<Json, String> {
    let tasks = filter_tasks(cfg, filter);
    let values = run_tasks(&tasks, cfg.root_seed, cfg.jobs, journal)?;
    let rows: Vec<Json> = tasks
        .iter()
        .zip(values)
        .map(|(t, v)| {
            Json::obj([
                ("label", Json::from(t.label())),
                ("seed", Json::from(t.seed(cfg.root_seed))),
                ("result", v),
            ])
        })
        .collect();
    Ok(Json::obj([
        ("suite", cfg.to_json()),
        ("filter", Json::from(filter)),
        ("tasks", Json::Arr(rows)),
    ]))
}

/// Resolves a worker-count request: `0` (the "auto" convention shared by
/// `--jobs 0` and an omitted flag) becomes one worker per available
/// hardware thread; any other value passes through. Never returns zero.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        jobs
    }
}

struct Results {
    labels: Vec<String>,
    values: Vec<Json>,
}

impl Results {
    fn get(&self, label: &str) -> &Json {
        let i = self
            .labels
            .iter()
            .position(|l| l == label)
            .unwrap_or_else(|| panic!("no task labelled {label}"));
        &self.values[i]
    }
}

fn num(j: &Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing member {key} on path {path:?}"));
    }
    cur.as_f64()
        .unwrap_or_else(|| panic!("non-numeric member at path {path:?}"))
}

fn assemble(cfg: &SuiteConfig, results: &Results) -> SuiteReport {
    let names = victim_names();

    // Family sections, in grid order.
    let mut security = Json::Obj(Vec::new());
    for (cfg_name, _) in pipelines() {
        let rows: Vec<Json> = names
            .iter()
            .map(|n| results.get(&format!("sec/{cfg_name}/{n}")).clone())
            .collect();
        security.push_member(cfg_name, Json::Arr(rows));
    }
    let watchdog = Json::Arr(
        names
            .iter()
            .map(|n| results.get(&format!("wd/{n}")).clone())
            .collect(),
    );
    let mut attacks = Json::Obj(Vec::new());
    for (key, fam) in [
        ("aes_prime_probe", "aes-pp"),
        ("rsa_flush_reload", "rsa-fr"),
        ("rsa_prime_probe", "rsa-pp"),
    ] {
        attacks.push_member(
            key,
            Json::obj([
                (
                    "undefended",
                    results.get(&format!("attack/{fam}/undefended")).clone(),
                ),
                (
                    "stealth",
                    results.get(&format!("attack/{fam}/stealth")).clone(),
                ),
            ]),
        );
    }
    let workload_names: Vec<&'static str> = specs().iter().map(|s| s.name).collect();
    let mut devec = Json::Obj(Vec::new());
    for w in &workload_names {
        let mut per = Json::Obj(Vec::new());
        for (pname, _) in crate::policies() {
            per.push_member(
                pname,
                results
                    .get(&format!("devec/{w}/{pname}"))
                    .get("run")
                    .unwrap()
                    .clone(),
            );
        }
        devec.push_member(*w, per);
    }

    // Figure summaries. Each headline value is computed once and reused
    // by its tolerance check below.
    let sec = |cfg_name: &str, n: &str, path: &[&str]| {
        num(results.get(&format!("sec/{cfg_name}/{n}")), path)
    };
    let mut figures = Json::Obj(Vec::new());

    let aes_und = results.get("attack/aes-pp/undefended");
    let aes_ste = results.get("attack/aes-pp/stealth");
    figures.push_member(
        "fig07a",
        Json::obj([
            ("undefended", aes_und.clone()),
            ("stealth", aes_ste.clone()),
        ]),
    );
    let attack = |key: &str| attacks.get(key).unwrap().clone();
    figures.push_member(
        "fig07b",
        Json::obj([
            ("flush_reload", attack("rsa_flush_reload")),
            ("prime_probe", attack("rsa_prime_probe")),
        ]),
    );

    // Figures 8 and 9: per-victim metric plus its average, per pipeline.
    let (mut fig08, mut fig09) = (Json::Obj(Vec::new()), Json::Obj(Vec::new()));
    let (mut opt_slowdown, mut opt_expansion) = (f64::NAN, f64::NAN);
    for (cfg_name, _) in pipelines() {
        let summary = |metric: &str, avg_key: &str, fig: &mut Json| {
            let per = names.iter().map(|n| {
                let value = Json::from(sec(cfg_name, n, &[metric]));
                Json::obj([("name", Json::from(n.as_str())), (metric, value)])
            });
            let avg = mean(names.iter().map(|n| sec(cfg_name, n, &[metric])));
            fig.push_member(
                cfg_name,
                Json::obj([("per", Json::arr(per)), (avg_key, Json::from(avg))]),
            );
            avg
        };
        let slowdown = summary("slowdown", "avg_slowdown", &mut fig08);
        let expansion = summary("uop_expansion", "avg_uop_expansion", &mut fig09);
        if cfg_name == "opt" {
            (opt_slowdown, opt_expansion) = (slowdown, expansion);
        }
    }
    figures.push_member("fig08", fig08);
    figures.push_member("fig09", fig09);

    let mpki = |n: &str, leg: &str| sec("opt", n, &[leg, "l1d_mpki"]);
    let fig10_per = names.iter().map(|n| {
        Json::obj([
            ("name", Json::from(n.as_str())),
            ("base_l1d_mpki", Json::from(mpki(n, "base"))),
            ("stealth_l1d_mpki", Json::from(mpki(n, "stealth"))),
        ])
    });
    let avg_mpki = |leg: &str| Json::from(mean(names.iter().map(|n| mpki(n, leg))));
    figures.push_member(
        "fig10",
        Json::obj([
            ("avg_base_l1d_mpki", avg_mpki("base")),
            ("avg_stealth_l1d_mpki", avg_mpki("stealth")),
            ("per", Json::arr(fig10_per)),
        ]),
    );

    let wd_avgs: Vec<f64> = (0..cfg.wd_periods.len())
        .map(|pi| {
            mean(names.iter().map(|n| {
                let r = results.get(&format!("wd/{n}"));
                let periods = r.get("periods").unwrap().as_arr().unwrap();
                num(&periods[pi], &["slowdown"])
            }))
        })
        .collect();
    let fig11 = cfg.wd_periods.iter().zip(&wd_avgs).map(|(period, avg)| {
        Json::obj([
            ("period", Json::from(*period)),
            ("avg_slowdown", Json::from(*avg)),
        ])
    });
    figures.push_member("fig11", Json::arr(fig11));

    let run_of = |w: &str, p: &str| results.get(&format!("devec/{w}/{p}")).get("run").unwrap();
    let pj = |w: &str, p: &str| num(run_of(w, p), &["total_pj"]);
    let savings: Vec<f64> = workload_names
        .iter()
        .map(|w| 1.0 - pj(w, "csd-devec") / pj(w, "conventional"))
        .collect();
    let avg_saving = mean(savings.iter().copied());
    let fig12_per = workload_names.iter().zip(&savings).map(|(w, saving)| {
        Json::obj([
            ("name", Json::from(*w)),
            ("always_on_pj", Json::from(pj(w, "always-on"))),
            ("conventional_pj", Json::from(pj(w, "conventional"))),
            ("csd_pj", Json::from(pj(w, "csd-devec"))),
            ("saving_vs_conventional", Json::from(*saving)),
        ])
    });
    let positive = savings.iter().filter(|s| **s > 0.0).count() as u64;
    figures.push_member(
        "fig12",
        Json::obj([
            ("avg_saving_vs_conventional", Json::from(avg_saving)),
            ("workloads_with_positive_saving", Json::from(positive)),
            ("per", Json::arr(fig12_per)),
        ]),
    );

    let avg_ratio =
        |p: &str, q: &str, metric: &str| {
            mean(workload_names.iter().map(|w| {
                num(run_of(w, p), &["stats", metric]) / num(run_of(w, q), &["stats", metric])
            }))
        };
    let csd_over_conv = avg_ratio("csd-devec", "conventional", "cycles");
    figures.push_member(
        "fig13",
        Json::obj([
            (
                "avg_csd_over_always_on",
                Json::from(avg_ratio("csd-devec", "always-on", "cycles")),
            ),
            ("avg_csd_over_conventional", Json::from(csd_over_conv)),
        ]),
    );
    figures.push_member(
        "fig14",
        Json::obj([(
            "avg_uop_expansion_csd_over_always_on",
            Json::from(avg_ratio("csd-devec", "always-on", "uops") - 1.0),
        )]),
    );

    let gated_fraction = |w: &str| num(run_of(w, "csd-devec"), &["gate", "gated_fraction"]);
    let avg_gated = mean(workload_names.iter().map(|w| gated_fraction(w)));
    let fig15_per = workload_names.iter().map(|w| {
        Json::obj([
            ("name", Json::from(*w)),
            ("gated_fraction", Json::from(gated_fraction(w))),
        ])
    });
    figures.push_member(
        "fig15",
        Json::obj([
            ("avg_gated_fraction", Json::from(avg_gated)),
            ("per", Json::arr(fig15_per)),
        ]),
    );

    let fig16 = workload_names.iter().map(|w| {
        let g = run_of(w, "csd-devec").get("gate").unwrap();
        let total = num(g, &["on_cycles"]) + num(g, &["waking_cycles"]) + num(g, &["gated_cycles"]);
        let frac = |k: &str| {
            Json::from(if total > 0.0 {
                num(g, &[k]) / total
            } else {
                0.0
            })
        };
        Json::obj([
            ("name", Json::from(*w)),
            ("on_fraction", frac("on_cycles")),
            ("waking_fraction", frac("waking_cycles")),
            ("gated_fraction", frac("gated_cycles")),
        ])
    });
    figures.push_member("fig16", Json::arr(fig16));
    figures.push_member("table1", results.get("table1").clone());

    // Tolerance bands over the headline metrics (EXPERIMENTS.md).
    let checks = if cfg.checks {
        let bits = |label: &str, key: &str| num(results.get(label), &[key]);
        let wd_first = wd_avgs.first().copied().unwrap_or(f64::NAN);
        let wd_last = wd_avgs.last().copied().unwrap_or(f64::NAN);
        [
            (
                "fig07a_undefended_bits",
                num(aes_und, &["bits_recovered"]),
                56.0,
                128.0,
            ),
            (
                "fig07a_stealth_bits",
                num(aes_ste, &["bits_recovered"]),
                0.0,
                0.0,
            ),
            (
                "fig07b_fr_undefended_bits",
                bits("attack/rsa-fr/undefended", "correct_bits"),
                60.0,
                64.0,
            ),
            (
                "fig07b_fr_stealth_bits",
                bits("attack/rsa-fr/stealth", "correct_bits"),
                0.0,
                45.0,
            ),
            ("fig08_opt_avg_slowdown", opt_slowdown, 1.0, 1.15),
            ("fig09_opt_avg_uop_expansion", opt_expansion, 0.0, 0.35),
            (
                "fig11_slowdown_longest_minus_shortest",
                wd_last - wd_first,
                -0.5,
                0.005,
            ),
            ("fig12_avg_saving_vs_conventional", avg_saving, 0.005, 0.20),
            (
                "fig13_avg_csd_over_conventional_cycles",
                csd_over_conv,
                0.90,
                1.05,
            ),
            ("fig15_avg_gated_fraction", avg_gated, 0.5, 1.0),
        ]
        .map(|(name, value, lo, hi)| Check {
            name,
            value,
            lo,
            hi,
        })
        .to_vec()
    } else {
        Vec::new()
    };

    let json = Json::obj([
        ("suite", cfg.to_json()),
        ("security", security),
        ("watchdog", watchdog),
        ("attacks", attacks),
        ("devec", devec),
        ("figures", figures),
        (
            "checks",
            Json::Arr(checks.iter().map(|c| c.to_json()).collect()),
        ),
    ]);
    SuiteReport { json, checks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{security_row, DEFAULT_WATCHDOG};
    use csd_exp::{run_plan_with, ExperimentSpec, NoCache};
    use csd_pipeline::CoreConfig;
    use csd_telemetry::derive_seed;

    #[test]
    fn grid_covers_every_family() {
        let cfg = SuiteConfig::quick(1, 1);
        let tasks = build_tasks(&cfg);
        assert_eq!(tasks.len(), 16 + 8 + 2 + 4 + 30 + 1);
        let labels: Vec<&str> = tasks.iter().map(|t| t.label()).collect();
        assert!(labels.contains(&"sec/opt/aes-enc"));
        assert!(labels.contains(&"sec/noopt/rijndael-dec"));
        assert!(labels.contains(&"wd/rsa-dec"));
        assert!(labels.contains(&"attack/aes-pp/stealth"));
        assert!(labels.contains(&"attack/rsa-pp/undefended"));
        assert!(labels.contains(&"devec/namd/csd-devec"));
        assert!(labels.contains(&"table1"));
        // Labels are unique: each is a distinct seed-derivation domain.
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
    }

    #[test]
    fn memoization_is_transparent_to_a_suite_task() {
        // A fig08 datapoint — the exact closure body of `sec/opt/aes-enc`
        // — must serialize to byte-identical JSON with decode memoization
        // force-disabled, enabled memo being pure simulator bookkeeping.
        let seed = derive_seed(0xC5D_2018, "sec/opt/aes-enc");
        let spec = ExperimentSpec::pair("aes-enc", "opt", seed, 2, DEFAULT_WATCHDOG);
        let run = |cfg: CoreConfig| {
            let result = run_plan_with(&spec, cfg, &NoCache, 1).unwrap();
            security_row(&result).to_json().pretty()
        };
        let on = run(CoreConfig::opt());
        let off = run(CoreConfig {
            decode_memo_enabled: false,
            ..CoreConfig::opt()
        });
        assert_eq!(on, off, "memoization must not perturb suite output");
    }

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }

    #[test]
    fn filtered_run_matches_full_grid_task() {
        // `run_filtered` must reproduce the exact bytes the same task
        // produces inside the full grid: same label-derived seed, same
        // closure — only the report wrapper differs.
        let cfg = SuiteConfig::quick(0xC5D, 1);
        let doc = run_filtered(&cfg, "table1", None).unwrap();
        let rows = doc.get("tasks").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("label").and_then(Json::as_str), Some("table1"));
        let t = crate::tasks::find_task(&cfg, "table1").unwrap();
        let direct = t.run(t.seed(cfg.root_seed));
        assert_eq!(
            rows[0].get("result").unwrap().pretty(),
            direct.pretty(),
            "filtered run must serve the grid's bytes"
        );
        // And the whole filtered document is deterministic.
        assert_eq!(
            doc.pretty(),
            run_filtered(&cfg, "table1", None).unwrap().pretty()
        );
    }

    #[test]
    fn check_band_logic() {
        let c = Check {
            name: "x",
            value: 1.0,
            lo: 0.5,
            hi: 1.0,
        };
        assert!(c.pass());
        let c = Check {
            name: "x",
            value: 1.01,
            lo: 0.5,
            hi: 1.0,
        };
        assert!(!c.pass());
    }

    #[test]
    fn table1_reports_the_default_machine() {
        let t = crate::tasks::table1_json();
        assert_eq!(t.get("rob_entries").and_then(Json::as_u64), Some(168));
        assert!(t.get("l1d").and_then(|l| l.get("size_bytes")).is_some());
    }
}
