//! The experiment-task grid as a library.
//!
//! Every figure/table datapoint of `EXPERIMENTS.md` is one [`TaskDef`]:
//! a stable label (which also salts the task's seed — never scheduling
//! order) plus the closure computing that datapoint as deterministic
//! JSON. `suite` (full grid or `--filter`) and perfbench's `figures`
//! workload both build their work from this one definition, so a task
//! yields the same bytes however it is selected.

use crate::security_row;
use crate::suite::SuiteConfig;
use csd_attack::{aes_attack, rsa_attack, AesAttackConfig, AttackMethod, Defense, RsaAttackConfig};
use csd_crypto::RsaVictim;
use csd_exp::{policies, run_plan, ExperimentSpec, LegMode, NoCache, DEFAULT_WATCHDOG};
use csd_pipeline::CoreConfig;
use csd_telemetry::{derive_seed, Json, ToJson};
use csd_workloads::{specs, Workload};

pub use csd_exp::{pipelines, victim_names, Pipeline};

/// A unit of work: a stable label plus the closure computing that
/// datapoint from a seed.
pub struct TaskDef {
    label: String,
    run: Box<dyn Fn(u64) -> Json + Send + Sync>,
}

impl TaskDef {
    /// The task's stable label, e.g. `sec/opt/aes-enc`.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The seed this task consumes under `root_seed` (derived from the
    /// label, so it is independent of grid position and scheduling).
    pub fn seed(&self, root_seed: u64) -> u64 {
        derive_seed(root_seed, &self.label)
    }

    /// Computes the datapoint.
    pub fn run(&self, seed: u64) -> Json {
        (self.run)(seed)
    }
}

impl std::fmt::Debug for TaskDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TaskDef({})", self.label)
    }
}

fn task(label: String, run: impl Fn(u64) -> Json + Send + Sync + 'static) -> TaskDef {
    TaskDef {
        label,
        run: Box::new(run),
    }
}

/// Builds the full task grid for one suite configuration.
pub fn build_tasks(cfg: &SuiteConfig) -> Vec<TaskDef> {
    let mut tasks = Vec::new();
    let names = victim_names();

    // -- Figures 8/9/10: {opt, noopt} × victim. Both legs fork from one
    //    warmed checkpoint, so they share the plaintext stream (the ratio
    //    is noise-free) and the warmup simulates only once.
    let blocks = cfg.sec_blocks;
    for (cfg_name, _) in pipelines() {
        for name in names.iter() {
            let name = name.clone();
            tasks.push(task(format!("sec/{cfg_name}/{name}"), move |seed| {
                let spec = ExperimentSpec::pair(&name, cfg_name, seed, blocks, DEFAULT_WATCHDOG);
                let result = run_plan(&spec, &NoCache, 1).expect("static grid names resolve");
                security_row(&result).to_json()
            }));
        }
    }

    // -- Figure 11: watchdog-period sweep per victim (optimized pipeline).
    //    One warmed checkpoint per victim; the base leg and every period's
    //    stealth leg fork from it.
    let wd_blocks = cfg.wd_blocks;
    let periods = cfg.wd_periods.clone();
    for name in names.iter() {
        let name = name.clone();
        let periods = periods.clone();
        tasks.push(task(format!("wd/{name}"), move |seed| {
            let spec = ExperimentSpec::watchdog_sweep(&name, "opt", seed, wd_blocks, &periods);
            let result = run_plan(&spec, &NoCache, 1).expect("static grid names resolve");
            let base = result.legs[0].metrics;
            let rows: Vec<Json> = result.legs[1..]
                .iter()
                .map(|leg| {
                    let LegMode::Stealth { watchdog } = leg.mode else {
                        unreachable!("a watchdog sweep has only stealth legs after base");
                    };
                    let slowdown = leg.metrics.cycles as f64 / base.cycles as f64;
                    Json::obj([
                        ("period", Json::from(watchdog)),
                        ("stealth", leg.metrics.to_json()),
                        ("slowdown", Json::from(slowdown)),
                    ])
                })
                .collect();
            Json::obj([
                ("name", Json::from(result.victim.as_str())),
                ("base", base.to_json()),
                ("periods", Json::Arr(rows)),
            ])
        }));
    }

    // -- Figure 7a: PRIME+PROBE on AES, undefended vs stealth. Both legs
    //    share the family-derived plaintext seed so only the defense
    //    differs.
    let trials = cfg.aes_trials;
    let aes_seed_root = cfg.root_seed;
    for leg in ["undefended", "stealth"] {
        let stealth = leg == "stealth";
        tasks.push(task(format!("attack/aes-pp/{leg}"), move |_seed| {
            let attack_cfg = AesAttackConfig {
                method: AttackMethod::PrimeProbe,
                trials_per_candidate: trials,
                seed: derive_seed(aes_seed_root, "attack/aes-pp"),
                defense: if stealth {
                    Defense::stealth_default()
                } else {
                    Defense::None
                },
                ..AesAttackConfig::default()
            };
            let out = aes_attack(&fig07a_victim(), &attack_cfg);
            let pos0: Vec<Json> = out.touch_rates[0].iter().map(|r| Json::from(*r)).collect();
            Json::obj([
                ("encryptions", Json::from(out.encryptions)),
                (
                    "correct_positions",
                    Json::from(out.correct_positions() as u64),
                ),
                ("bits_recovered", Json::from(out.bits_recovered() as u64)),
                ("pos0_touch_rates", Json::Arr(pos0)),
            ])
        }));
    }

    // -- Figure 7b: FLUSH+RELOAD and PRIME+PROBE on RSA. The attack is
    //    fully deterministic (fixed exponent, calibrated probe interval),
    //    so no seed is consumed. The stealth leg calibrates the probe
    //    interval from an undefended run, then probes the defended
    //    victim at that cadence with the watchdog at half the interval.
    for (mname, method) in [
        ("rsa-fr", AttackMethod::FlushReload),
        ("rsa-pp", AttackMethod::PrimeProbe),
    ] {
        for leg in ["undefended", "stealth"] {
            let stealth = leg == "stealth";
            tasks.push(task(format!("attack/{mname}/{leg}"), move |_seed| {
                let victim = fig07b_victim();
                let base = rsa_attack(
                    &victim,
                    &RsaAttackConfig {
                        method,
                        ..Default::default()
                    },
                );
                let out = if stealth {
                    let interval = base.ts + base.tm / 2;
                    rsa_attack(
                        &victim,
                        &RsaAttackConfig {
                            method,
                            probe_interval: Some(interval),
                            defense: Defense::Stealth {
                                watchdog_period: interval / 2,
                            },
                        },
                    )
                } else {
                    base
                };
                Json::obj([
                    ("samples", Json::from(out.trace.samples.len() as u64)),
                    ("correct_bits", Json::from(out.correct_bits() as u64)),
                    ("ts", Json::from(out.ts)),
                    ("tm", Json::from(out.tm)),
                ])
            }));
        }
    }

    // -- Figures 12–16: workload × VPU policy. Workload generation is
    //    seeded by its spec, so these tasks are deterministic by
    //    construction.
    let scale = cfg.devec_scale;
    for spec in specs() {
        let wname = spec.name;
        for (pi, (pname, _)) in policies().iter().enumerate() {
            tasks.push(task(format!("devec/{wname}/{pname}"), move |_seed| {
                let w = Workload::with_scale(
                    specs().into_iter().find(|s| s.name == wname).unwrap(),
                    scale,
                );
                let (pname, policy) = policies()[pi];
                let run = crate::run_devec(&w, policy);
                Json::obj([
                    ("workload", Json::from(wname)),
                    ("policy", Json::from(pname)),
                    ("run", run.to_json()),
                ])
            }));
        }
    }

    // -- Table I: the baseline machine description.
    tasks.push(task("table1".to_string(), |_seed| table1_json()));

    tasks
}

/// The tasks whose label contains `substr` (every task when `substr` is
/// empty), preserving grid order: the subset `suite --filter` runs.
pub fn filter_tasks(cfg: &SuiteConfig, substr: &str) -> Vec<TaskDef> {
    build_tasks(cfg)
        .into_iter()
        .filter(|t| t.label.contains(substr))
        .collect()
}

/// The task with exactly this label, if it exists in the grid.
pub fn find_task(cfg: &SuiteConfig, label: &str) -> Option<TaskDef> {
    build_tasks(cfg).into_iter().find(|t| t.label == label)
}

fn fig07a_victim() -> csd_crypto::AesVictim {
    let key: Vec<u8> = vec![
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    csd_crypto::AesVictim::new(
        csd_crypto::AesKeySize::K128,
        csd_crypto::CipherDir::Encrypt,
        &key,
    )
}

fn fig07b_victim() -> RsaVictim {
    RsaVictim::new(0xB7E1_5163_0000_F36D, 1_000_003)
}

/// The Table I machine description as JSON.
pub fn table1_json() -> Json {
    let c = CoreConfig::default();
    let h = &c.hierarchy;
    let cache = |l: &csd_cache::CacheConfig| {
        Json::obj([
            ("size_bytes", Json::from(l.size_bytes)),
            ("ways", Json::from(l.ways)),
            ("line_bytes", Json::from(l.line_bytes)),
            ("latency", Json::from(l.latency)),
        ])
    };
    Json::obj([
        ("fetch_bytes", Json::from(c.fetch_bytes)),
        ("macro_op_queue", Json::from(c.macro_op_queue)),
        ("decoders", Json::from(c.decoders)),
        ("decode_width_uops", Json::from(c.decode_width_uops)),
        ("msrom_width_uops", Json::from(c.msrom_width_uops)),
        ("uop_cache_uops", Json::from(c.uop_cache_uops)),
        ("uop_cache_ways", Json::from(c.uop_cache_ways)),
        ("uop_cache_sets", Json::from(c.uop_cache_sets())),
        ("uop_cache_line_uops", Json::from(c.uop_cache_line_uops)),
        (
            "uop_cache_max_lines_per_window",
            Json::from(c.uop_cache_max_lines_per_window),
        ),
        ("dispatch_width", Json::from(c.dispatch_width)),
        ("commit_width", Json::from(c.commit_width)),
        ("rob_entries", Json::from(c.rob_entries)),
        ("alu_units", Json::from(c.alu_units)),
        ("load_units", Json::from(c.load_units)),
        ("store_units", Json::from(c.store_units)),
        ("vector_units", Json::from(c.vector_units)),
        ("mispredict_penalty", Json::from(c.mispredict_penalty)),
        ("l1i", cache(&h.l1i)),
        ("l1d", cache(&h.l1d)),
        ("l2", cache(&h.l2)),
        ("llc", cache(&h.llc)),
        ("memory_latency", Json::from(h.memory_latency)),
        ("vpu_wake_cycles", Json::from(csd_power::VPU_WAKE_CYCLES)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_and_find_share_the_grid() {
        let cfg = SuiteConfig::quick(1, 1);
        let all = build_tasks(&cfg);
        assert_eq!(filter_tasks(&cfg, "").len(), all.len());
        let wd = filter_tasks(&cfg, "wd/");
        assert_eq!(wd.len(), 8);
        assert!(wd.iter().all(|t| t.label().starts_with("wd/")));
        assert!(find_task(&cfg, "table1").is_some());
        assert!(find_task(&cfg, "wd").is_none(), "find is exact-match");
        assert!(filter_tasks(&cfg, "no-such-task").is_empty());
    }

    #[test]
    fn task_seed_depends_only_on_label_and_root() {
        let cfg = SuiteConfig::quick(1, 1);
        let t = find_task(&cfg, "sec/opt/aes-enc").unwrap();
        assert_eq!(t.seed(7), derive_seed(7, "sec/opt/aes-enc"));
        assert_ne!(t.seed(7), t.seed(8));
    }
}
