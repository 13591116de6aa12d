//! The parallel experiment suite: every `EXPERIMENTS.md` figure/table in
//! one run, one JSON report, and a tolerance-band verdict.
//!
//! ```text
//! cargo run --release -p csd-bench --bin suite -- \
//!     [--jobs N] [--seed S] [--quick] [--out PATH] [--list] [--filter SUBSTR]
//! cargo run --release -p csd-bench --bin suite -- --render BENCH_suite.json
//! ```
//!
//! Exits non-zero if any headline metric drifts outside its declared
//! band (full profile only). `--list` prints the task grid without
//! running anything; `--filter` runs only label-matched tasks and writes
//! a reduced report (no figure summaries or checks) whose task results
//! are byte-equal to the same tasks in the full grid. `--render PATH`
//! runs nothing: it prints every figure table of a full or quick report
//! (exit 2 if the file is not one). Reports are written atomically
//! ([`write_atomic`]), so a crash never leaves a torn file.

use csd_bench::render::render;
use csd_bench::suite::{resolve_jobs, run_filtered, run_suite, SuiteConfig};
use csd_bench::tasks::{build_tasks, filter_tasks};
use csd_telemetry::{write_atomic, Json};
use std::time::Instant;

fn main() {
    // 0 means "auto": one worker per available hardware thread. The same
    // convention applies when --jobs is omitted entirely.
    let mut jobs = 0;
    let mut seed = 0xC5D_2018;
    let mut quick = false;
    let mut list = false;
    let mut filter: Option<String> = None;
    let mut out_path = "BENCH_suite.json".to_string();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--jobs needs a non-negative integer (0 = auto)"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                out_path = args.next().unwrap_or_else(|| die("--out needs a path"));
            }
            "--quick" => quick = true,
            "--list" => list = true,
            "--filter" => {
                filter = Some(
                    args.next()
                        .unwrap_or_else(|| die("--filter needs a substring")),
                );
            }
            "--render" => {
                let path = args.next().unwrap_or_else(|| die("--render needs a path"));
                print!("{}", render_file(&path).unwrap_or_else(|e| die(&e)));
                return;
            }
            "--help" | "-h" => {
                println!(
                    "usage: suite [--jobs N] [--seed S] [--quick] [--out PATH]\n\
                     \x20            [--list] [--filter SUBSTR]\n\
                     \x20      suite --render PATH\n\
                     Runs the full figure grid and writes the JSON report (default\n\
                     BENCH_suite.json). --jobs 0 (or omitted) uses one worker per\n\
                     available hardware thread. --quick runs a down-scaled smoke grid\n\
                     without tolerance checks. --list prints the task labels without\n\
                     running; --filter runs only tasks whose label contains SUBSTR and\n\
                     writes a reduced report. --render PATH prints every figure table\n\
                     of the full or quick report at PATH and runs nothing."
                );
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    let jobs = resolve_jobs(jobs);
    let cfg = if quick {
        SuiteConfig::quick(seed, jobs)
    } else {
        SuiteConfig::full(seed, jobs)
    };

    if list {
        let tasks = match &filter {
            Some(f) => filter_tasks(&cfg, f),
            None => build_tasks(&cfg),
        };
        for t in &tasks {
            println!("{}", t.label());
        }
        eprintln!("suite: {} task(s)", tasks.len());
        return;
    }

    if let Some(f) = filter {
        let matched = filter_tasks(&cfg, &f).len();
        if matched == 0 {
            die(&format!("--filter {f:?} matches no task (try --list)"));
        }
        eprintln!(
            "suite: profile={} root_seed={:#x} jobs={} filter={f:?} tasks={matched}",
            cfg.profile, cfg.root_seed, cfg.jobs
        );
        let t0 = Instant::now();
        let doc = run_filtered(&cfg, &f);
        write_artifact(&out_path, doc.pretty().as_bytes());
        eprintln!(
            "suite: wrote {out_path} in {:.1}s",
            t0.elapsed().as_secs_f64()
        );
        return;
    }

    eprintln!(
        "suite: profile={} root_seed={:#x} jobs={}",
        cfg.profile, cfg.root_seed, cfg.jobs
    );
    let t0 = Instant::now();
    let report = run_suite(&cfg);
    let elapsed = t0.elapsed();

    write_artifact(&out_path, report.json.pretty().as_bytes());
    eprintln!("suite: wrote {out_path} in {:.1}s", elapsed.as_secs_f64());

    for c in &report.checks {
        eprintln!(
            "  [{}] {:<42} {:>12.5}  in [{}, {}]",
            if c.pass() { "ok" } else { "FAIL" },
            c.name,
            c.value,
            c.lo,
            c.hi
        );
    }
    let failed = report.failed_checks();
    if !failed.is_empty() {
        eprintln!(
            "suite: {} check(s) outside tolerance: {}",
            failed.len(),
            failed.join(", ")
        );
        std::process::exit(1);
    }
}

/// Reads and renders the report at `path` (see [`render`]).
fn render_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let report = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    render(&report).map_err(|e| format!("{path}: {e}"))
}

/// Writes an artifact atomically; any failure (`ENOSPC` included) exits
/// non-zero with the path and cause instead of leaving a torn file.
fn write_artifact(path: &str, bytes: &[u8]) {
    write_atomic(std::path::Path::new(path), bytes).unwrap_or_else(|e| die(&e.to_string()));
}

fn die(msg: &str) -> ! {
    eprintln!("suite: {msg}");
    std::process::exit(2);
}
