//! `attack`: the Figure 7a PRIME+PROBE attack on T-table AES through the
//! functional engine, at a reduced trial count.
//!
//! Layers it stresses: `pipeline` functional stepping, `cache` probes,
//! the `uops` decode memo (undefended units) and `csd` stealth decoys
//! (stealth units). It barely touches the cycle model, `exp`,
//! `workloads` and `power`.

use crate::stats::quantile;
use crate::trace::Tracer;
use crate::unit::{TracedUnit, Unit};
use csd_attack::{
    aes_attack, victim_core, AesAttackConfig, AttackMethod, Defense, PrimeProbe, ProbeKind,
};
use csd_crypto::{AesKeySize, AesVictim, CipherDir, Victim};
use csd_pipeline::{SimMode, StepOutcome};
use csd_telemetry::{derive_seed, Json, SplitMix64};
use std::rc::Rc;

/// Encryptions per candidate nibble: one unit is 16 × 16 × 4 = 1,024
/// encryptions.
const TRIALS: usize = 4;
/// Units per pass, alternating undefended and stealth.
const UNITS: usize = 4;

/// The Figure 7a victim (the FIPS-197 example key).
fn victim() -> AesVictim {
    let key = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &key)
}

/// Ground-truth high nibble of each key byte.
fn truth(v: &AesVictim) -> Vec<u8> {
    v.aes().enc_keys[..4]
        .iter()
        .flat_map(|w| w.to_be_bytes())
        .map(|b| b >> 4)
        .collect()
}

/// Each unit's label, family and attack configuration; plaintext seeds
/// derive from the benchmark seed.
fn configs(seed: u64) -> Vec<(String, &'static str, AesAttackConfig)> {
    (0..UNITS)
        .map(|k| {
            let stealth = k % 2 == 1;
            let family = if stealth { "stealth" } else { "undefended" };
            let cfg = AesAttackConfig {
                method: AttackMethod::PrimeProbe,
                trials_per_candidate: TRIALS,
                seed: derive_seed(seed, &format!("attack/{k}")),
                defense: if stealth {
                    Defense::stealth_default()
                } else {
                    Defense::None
                },
                ..AesAttackConfig::default()
            };
            (format!("attack/{family}/{k}"), family, cfg)
        })
        .collect()
}

fn render(touch_rates: &[[f64; 16]], encryptions: u64) -> String {
    let rows = touch_rates
        .iter()
        .map(|r| Json::arr(r.iter().map(|&x| Json::from(x))));
    Json::obj([
        ("encryptions", Json::from(encryptions)),
        ("touch_rates", Json::arr(rows)),
    ])
    .dump()
}

/// Undefended: the true nibble is touched on every trial at every
/// position. Stealth: every candidate is, so nothing is recovered.
fn check(out: &str, truth: &[u8], stealth: bool) -> Result<(), String> {
    let doc = Json::parse(out).map_err(|e| e.to_string())?;
    let want = (16 * 16 * TRIALS) as u64;
    if doc.get("encryptions").and_then(Json::as_u64) != Some(want) {
        return Err(format!("expected {want} encryptions"));
    }
    let rows = doc
        .get("touch_rates")
        .and_then(Json::as_arr)
        .filter(|r| r.len() == 16)
        .ok_or("expected 16 positions")?;
    for (p, row) in rows.iter().enumerate() {
        let rates: Vec<f64> = row
            .as_arr()
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        if rates.len() != 16 {
            return Err(format!("position {p}: expected 16 candidates"));
        }
        if stealth {
            if let Some(g) = rates.iter().position(|&r| r != 1.0) {
                return Err(format!("stealth: position {p} candidate {g} below 1.0"));
            }
        } else if rates[truth[p] as usize] != 1.0 {
            return Err(format!("undefended: true nibble at position {p} below 1.0"));
        }
    }
    Ok(())
}

fn untraced(v: &AesVictim, cfg: &AesAttackConfig) -> String {
    let out = aes_attack(v, cfg);
    render(&out.touch_rates, out.encryptions)
}

/// The workload's units.
pub fn units(seed: u64) -> Vec<Unit> {
    let v = Rc::new(victim());
    let truth = Rc::new(truth(&v));
    configs(seed)
        .into_iter()
        .map(|(label, _, cfg)| {
            let (v, truth) = (Rc::clone(&v), Rc::clone(&truth));
            let stealth = cfg.defense != Defense::None;
            Unit::new(
                label,
                move || untraced(&v, &cfg),
                move |s| check(s, &truth, stealth),
            )
        })
        .collect()
}

/// The units rebuilt from `victim_core`, `PrimeProbe`, `Victim` and
/// `Core::run`; each must reproduce `aes_attack`'s touch rates exactly.
pub fn traced(seed: u64) -> Vec<TracedUnit> {
    let v = Rc::new(victim());
    configs(seed)
        .into_iter()
        .map(|(label, family, cfg)| {
            let (v1, v2) = (Rc::clone(&v), Rc::clone(&v));
            TracedUnit::new(
                label,
                family,
                move |t| traced_attack(&v1, &cfg, t),
                move || untraced(&v2, &cfg),
            )
        })
        .collect()
}

/// `aes_attack`'s trial loop (PRIME+PROBE only), with a span around each
/// layer call.
fn traced_attack(victim: &AesVictim, cfg: &AesAttackConfig, t: &mut Tracer) -> String {
    let mut core = t.leaf("attack.victim_core", || {
        victim_core(victim, SimMode::Functional, cfg.defense)
    });
    let mut rng = SplitMix64::new(cfg.seed);
    let line = cfg.monitored_line;
    let mut encryptions = 0u64;
    let mut touch_rates = Vec::with_capacity(16);
    for p in 0..16usize {
        let target = victim.table_line(p % 4, line);
        let mut rates = [0f64; 16];
        for g in 0..16u8 {
            let mut touched = 0usize;
            for _ in 0..cfg.trials_per_candidate {
                let mut pt = [0u8; 16];
                rng.fill_bytes(&mut pt[..]);
                pt[p] = ((g ^ line as u8) << 4) | (rng.next_u8() & 0x0f);
                let pp = t.leaf("attack.probe_build", || {
                    PrimeProbe::new(target, ProbeKind::Data, core.hierarchy())
                });
                t.leaf("cache.probe_reset", || pp.reset(core.hierarchy_mut()));
                t.leaf("crypto.prepare", || victim.prepare(&mut core, &pt));
                let insts = core.stats().insts;
                let out = t.leaf("pipeline.functional_run", || core.run(10_000_000));
                assert_eq!(out, StepOutcome::Halted, "victim program must halt");
                t.count("attack.insts", core.stats().insts - insts);
                t.leaf("crypto.collect", || victim.collect(&core));
                if t.leaf("cache.probe", || pp.probe(core.hierarchy_mut()))
                    .victim_touched
                {
                    touched += 1;
                }
                encryptions += 1;
            }
            rates[g as usize] = touched as f64 / cfg.trials_per_candidate as f64;
        }
        touch_rates.push(rates);
    }
    let memo = *core.memo_stats();
    t.count("attack.encryptions", encryptions);
    t.count("uops.memo_hits", memo.hits);
    t.count("uops.memo_lookups", memo.hits + memo.misses);
    if cfg.defense != Defense::None {
        t.count("attack.stealth_encryptions", encryptions);
        t.count("attack.decoy_uops", core.stats().decoy_uops);
    }
    render(&touch_rates, encryptions)
}

/// Layer metrics from the traced units' spans and counters. `unit_times`
/// holds each traced unit's family and its repeated times in seconds.
pub fn layer_metrics(
    t: &Tracer,
    unit_times: &[(&'static str, Vec<f64>)],
) -> Vec<(&'static str, f64)> {
    let us = |name| t.median_ns(name) / 1e3;
    let unit_ms = |family| {
        let p10: Vec<f64> = unit_times
            .iter()
            .filter(|(f, _)| *f == family)
            .filter_map(|(_, xs)| quantile(xs, 0.1))
            .collect();
        1e3 * p10.iter().sum::<f64>() / p10.len() as f64
    };
    let ratio = |a: &'static str, b: &'static str| t.counter(a) as f64 / t.counter(b) as f64;
    vec![
        ("pipeline.functional_run_us", us("pipeline.functional_run")),
        (
            "pipeline.functional_minst_per_s",
            t.counter("attack.insts") as f64 * 1e3 / t.total_ns("pipeline.functional_run"),
        ),
        ("crypto.prepare_us", us("crypto.prepare")),
        ("crypto.collect_us", us("crypto.collect")),
        ("attack.undefended_unit_ms", unit_ms("undefended")),
        ("attack.stealth_unit_ms", unit_ms("stealth")),
        ("attack.victim_core_us", us("attack.victim_core")),
        ("attack.probe_build_us", us("attack.probe_build")),
        ("cache.probe_reset_us", us("cache.probe_reset")),
        ("cache.probe_us", us("cache.probe")),
        (
            "uops.memo_hit_ratio",
            ratio("uops.memo_hits", "uops.memo_lookups"),
        ),
        (
            "pipeline.insts_per_enc",
            ratio("attack.insts", "attack.encryptions"),
        ),
        (
            "csd.decoy_uops_per_enc",
            ratio("attack.decoy_uops", "attack.stealth_encryptions"),
        ),
    ]
}
