//! Fixed-work host-time benchmark of the CSD simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload attack|figures|fuzz [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One single-thread process per workload. A workload is a fixed list of
//! units of deterministic work, each a direct call into the simulator
//! crates' public API. After a set-up round (build the units, one warm-up
//! pass), units run round-robin until `--seconds` have passed and each
//! ran at least ten times; four more set-up rounds are spread over that
//! time. `pass_s` is the sum over units of each unit's 10th percentile
//! time, scaled (like `setup_s`) to a reference host speed by a host probe
//! that runs before every unit. Every output is checked; a wrong one is a
//! failed operation. `--trace 1` instead reports per-layer metrics from
//! spans around the layer calls. The last stdout line is the JSON result.
//! See `NOTES.md` for what each workload and metric is for.

mod attack;
mod figures;
mod fuzz;
mod host;
mod stats;
mod trace;
mod unit;

use host::Probe;
use stats::{fast_decile, median};
use std::cell::RefCell;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use unit::{timed_passes, Ledger, TracedUnit, Unit};

/// End-to-end metrics, reported by untraced runs of every workload.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by traced runs of every workload.
const PER_LAYER: &[(&str, &str)] = &[
    ("pipeline.functional_run_us", "us"),
    ("pipeline.functional_minst_per_s", "Minst/s"),
    ("crypto.prepare_us", "us"),
    ("crypto.collect_us", "us"),
    ("attack.undefended_unit_ms", "ms"),
    ("attack.stealth_unit_ms", "ms"),
    ("attack.victim_core_us", "us"),
    ("attack.probe_build_us", "us"),
    ("cache.probe_reset_us", "us"),
    ("cache.probe_us", "us"),
    ("uops.memo_hit_ratio", "ratio"),
    ("pipeline.insts_per_enc", "inst/enc"),
    ("csd.decoy_uops_per_enc", "uop/enc"),
    ("bench.task_ms.sec", "ms"),
    ("bench.task_ms.wd", "ms"),
    ("bench.task_ms.devec", "ms"),
    ("bench.task_ms.rsa", "ms"),
    ("exp.core_build_ms", "ms"),
    ("exp.warm_ms", "ms"),
    ("exp.snapshot_us", "us"),
    ("exp.restore_us", "us"),
    ("exp.base_leg_ms", "ms"),
    ("exp.stealth_leg_ms", "ms"),
    ("pipeline.cycle_minst_per_s", "Minst/s"),
    ("workloads.build_ms", "ms"),
    ("power.breakdown_us", "us"),
    ("pipeline.uop_cache_hit_ratio", "ratio"),
    ("pipeline.cpi", "cycle/inst"),
    ("csd.decoy_share", "ratio"),
    ("pipeline.core_new_us", "us"),
    ("difftest.cosim_ms", "ms"),
    ("difftest.generate_us", "us"),
    ("difftest.assemble_us", "us"),
    ("difftest.reference_us", "us"),
    ("telemetry.coverage_merge_us", "us"),
    ("telemetry.coverage_bins", "count"),
    ("difftest.programs", "count"),
    ("host.ref_ms", "ms"),
    ("host.unit_ms_p50", "ms"),
    ("trace.overhead_s", "s"),
];

/// Set-up is repeated this many times per untraced run; `setup_s` is
/// the median.
const SETUP_ROUNDS: usize = 5;

/// Where a traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_trace";

const USAGE: &str = "usage: csd-perfbench --workload attack|figures|fuzz \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Attack,
    Figures,
    Fuzz,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Attack, Workload::Figures, Workload::Fuzz];

    fn name(self) -> &'static str {
        match self {
            Workload::Attack => "attack",
            Workload::Figures => "figures",
            Workload::Fuzz => "fuzz",
        }
    }

    fn units(self, seed: u64) -> Vec<Unit> {
        match self {
            Workload::Attack => attack::units(seed),
            Workload::Figures => figures::units(seed),
            Workload::Fuzz => fuzz::units(seed),
        }
    }

    fn traced(self, seed: u64) -> Vec<TracedUnit> {
        match self {
            Workload::Attack => attack::traced(seed),
            Workload::Figures => figures::traced(seed),
            Workload::Fuzz => fuzz::traced(seed),
        }
    }

    fn layer_metrics(
        self,
        t: &Tracer,
        unit_times: &[(&'static str, Vec<f64>)],
    ) -> Vec<(&'static str, f64)> {
        match self {
            Workload::Attack => attack::layer_metrics(t, unit_times),
            Workload::Figures => figures::layer_metrics(t, unit_times),
            Workload::Fuzz => fuzz::layer_metrics(t, unit_times[0].1.len()),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = figures::SUITE_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(bad)?,
                    );
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(bad)?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    };
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// What one run prints as its last line.
struct Report {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Orders `values` as `table` lists them, with their units.
    ///
    /// # Panics
    ///
    /// If a metric of `table` was not computed — a benchmark bug.
    fn metrics(
        table: &[(&'static str, &'static str)],
        values: &[(&'static str, f64)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        table
            .iter()
            .map(|&(name, unit)| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not computed"))
                    .1;
                (name, v, unit)
            })
            .collect()
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                // JSON has no NaN or infinity.
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn p10_sum(times: &[Vec<f64>]) -> Result<f64, String> {
    times.iter().map(|t| fast_decile(t)).sum()
}

/// Mean over units of each unit's median time, in milliseconds.
fn unit_ms_p50(times: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = times.iter().filter_map(|t| median(t)).collect();
    1e3 * medians.iter().sum::<f64>() / medians.len() as f64
}

/// One set-up round: builds the units and runs the warm-up pass, checking
/// every output (the first round sets each unit's reference output).
/// Returns the units and the round's host time.
fn set_up(args: &Args, ledger: &mut Ledger) -> (Vec<Unit>, f64) {
    let t = Instant::now();
    let units = args.workload.units(args.seed);
    for (i, u) in units.iter().enumerate() {
        ledger.run(i, u);
    }
    (units, t.elapsed().as_secs_f64())
}

fn untraced_run(args: &Args) -> Result<Report, String> {
    let mut probe = Probe::new()?;
    let mut ledger = Ledger::default();
    let (units, first) = set_up(args, &mut ledger);
    let ledger = RefCell::new(ledger);
    // The other set-up rounds are spread over the run, so that a slow
    // host phase covering part of it moves at most some of them.
    let mut setup = vec![first];
    let mut host_ref = vec![host::ref_kernel_ms()];
    let times = timed_passes(
        units.len(),
        args.seconds,
        SETUP_ROUNDS - 1,
        |i| {
            probe.sample();
            ledger.borrow_mut().run(i, &units[i])
        },
        |k| {
            setup.push(set_up(args, &mut ledger.borrow_mut()).1);
            if k == (SETUP_ROUNDS - 1) / 2 {
                host_ref.push(host::ref_kernel_ms());
            }
        },
    );
    host_ref.push(host::ref_kernel_ms());
    let ledger = ledger.into_inner();
    let raw_pass = p10_sum(&times)?;
    let raw_setup = median(&setup).expect("set-up ran");
    let scale = probe.scale()?;
    eprintln!(
        "perfbench: {} passes; raw pass_s {raw_pass:.4}, raw setup_s {raw_setup:.4} \
         (rounds {setup:.3?}); probe fast decile {:.4} ms, scale {scale:.4}; \
         host.ref_ms start/mid/end {host_ref:.2?}; host.unit_ms_p50 {:.3}",
        times[0].len(),
        probe.fast_decile_ms()?,
        unit_ms_p50(&times),
    );
    let values = [
        ("setup_s", raw_setup * scale),
        ("pass_s", raw_pass * scale),
        ("peak_rss_mb", probe.program_peak_rss_mb()?),
    ];
    Ok(Report {
        attempted: ledger.attempted,
        failed: ledger.failed,
        correct: ledger.failed == 0,
        metrics: Report::metrics(END_TO_END, &values),
    })
}

/// Runs one workload's traced units — for `seconds` (at least ten passes)
/// when it is the workload under test, else one pass. Returns the
/// tracer, the ledger and each unit's family and times.
fn traced_phase(
    w: Workload,
    seed: u64,
    seconds: Option<f64>,
) -> (Tracer, Ledger, Vec<(&'static str, Vec<f64>)>) {
    let units = w.traced(seed);
    let mut ledger = Ledger::default();
    for (i, u) in units.iter().enumerate() {
        ledger.expect(i, u);
    }
    let mut tracer = Tracer::default();
    let mut exec = |i: usize| ledger.run_traced(i, &units[i], &mut tracer);
    let times = match seconds {
        Some(s) => timed_passes(units.len(), s, 0, &mut exec, |_| {}),
        None => (0..units.len()).map(|i| vec![exec(i)]).collect(),
    };
    if w == Workload::Fuzz {
        fuzz::probe(&mut tracer);
    }
    let unit_times = units.iter().map(|u| u.family).zip(times).collect();
    (tracer, ledger, unit_times)
}

fn traced_run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let mut ledger = Ledger::default();
    let (units, _) = set_up(args, &mut ledger);
    let mut host_ref = vec![host::ref_kernel_ms()];
    let half = args.seconds / 2.0;
    let times = timed_passes(
        units.len(),
        half,
        1,
        |i| ledger.run(i, &units[i]),
        |_| host_ref.push(host::ref_kernel_ms()),
    );
    let untraced_pass = p10_sum(&times)?;
    let mut attempted = ledger.attempted;
    let mut failed = ledger.failed;

    let mut values = Vec::new();
    let mut tracers = Vec::new();
    let mut traced_pass = 0.0;
    for g in Workload::ALL {
        let seconds = (g == w).then_some(half);
        let (tracer, ledger, unit_times) = traced_phase(g, args.seed, seconds);
        if g == w {
            let times: Vec<Vec<f64>> = unit_times.iter().map(|(_, t)| t.clone()).collect();
            traced_pass = p10_sum(&times)?;
        }
        values.extend(g.layer_metrics(&tracer, &unit_times));
        attempted += ledger.attempted;
        failed += ledger.failed;
        tracers.push((g, tracer));
    }
    host_ref.push(host::ref_kernel_ms());
    values.push(("host.ref_ms", median(&host_ref).expect("three samples")));
    values.push(("host.unit_ms_p50", unit_ms_p50(&times)));
    values.push(("trace.overhead_s", traced_pass - untraced_pass));
    eprintln!(
        "perfbench: untraced pass_s {untraced_pass:.4}, traced pass_s {traced_pass:.4}; \
         host.ref_ms {host_ref:.2?}"
    );

    for (g, tracer) in &tracers {
        let path = Path::new(TRACE_DIR).join(format!("{}-{}.json", w.name(), g.name()));
        tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(Report {
        attempted,
        failed,
        correct: failed == 0,
        metrics: Report::metrics(PER_LAYER, &values),
    })
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("csd-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced_run(&args)
    } else {
        untraced_run(&args)
    };
    match report {
        Ok(r) => {
            println!("{}", r.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("csd-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd_telemetry::Json;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for n in &all {
            assert!(valid_name(n), "bad metric name {n:?}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_string));
        let a = parse("--workload fuzz --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Fuzz, 7, 3.0, true)
        );
        assert!(parse("--seed 7").is_err(), "workload is required");
        assert!(parse("--workload serve").is_err());
        assert!(parse("--workload fuzz --trace 2").is_err());
        assert!(parse("--workload fuzz --seconds").is_err());
        assert!(parse("--workload fuzz --bogus 1").is_err());
    }

    #[test]
    fn report_json_has_the_contract_shape() {
        let r = Report {
            attempted: 3,
            failed: 1,
            correct: false,
            metrics: vec![("pass_s", 0.25, "s")],
        };
        let doc = Json::parse(&r.json()).unwrap();
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
        let m = doc.get("metrics").and_then(|m| m.get("pass_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }
}
