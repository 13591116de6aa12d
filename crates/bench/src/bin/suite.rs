//! The parallel experiment suite: every `EXPERIMENTS.md` figure/table in
//! one run, one JSON report, and a tolerance-band verdict.
//!
//! ```text
//! cargo run --release -p csd-bench --bin suite -- \
//!     [--jobs N] [--seed S] [--quick] [--out PATH] [--list] [--filter SUBSTR] \
//!     [--journal] [--resume ID] [--journal-dir DIR]
//! cargo run --release -p csd-bench --bin suite -- --render BENCH_suite.json
//! ```
//!
//! Exits non-zero if any headline metric drifts outside its declared
//! band (full profile only). `--list` prints the task grid without
//! running anything; `--filter` runs only label-matched tasks and writes
//! a reduced report (no figure summaries or checks) — the same document
//! the `csd-serve` daemon returns for a task request. `--render PATH`
//! runs nothing: it prints every figure table of a full or quick report
//! (exit 2 if the file is not one).
//!
//! Durability: `--journal` records every completed task in a
//! write-ahead journal under `--journal-dir` (default `runs/`), and
//! `--resume ID` reopens `runs/ID.journal` — creating it if absent —
//! replays the completed prefix, runs only the remainder, and writes a
//! report byte-identical to an uninterrupted run. Crash it anywhere
//! (even mid-append; the torn tail is truncated on reopen), rerun the
//! same `--resume` command, and only the missing work repeats.

use csd_bench::render::render;
use csd_bench::suite::{journal_meta, resolve_jobs, run_filtered, run_suite, SuiteConfig};
use csd_bench::tasks::{build_tasks, filter_tasks};
use csd_telemetry::{write_atomic, Json, RunJournal};
use std::path::PathBuf;
use std::sync::Mutex;
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
    let mut journal = false;
    let mut resume: Option<String> = None;
    let mut journal_dir = "runs".to_string();

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
            "--journal" => journal = true,
            "--resume" => {
                resume = Some(
                    args.next()
                        .unwrap_or_else(|| die("--resume needs a run id")),
                );
            }
            "--journal-dir" => {
                journal_dir = args
                    .next()
                    .unwrap_or_else(|| die("--journal-dir needs a path"));
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
                     \x20            [--journal] [--resume ID] [--journal-dir DIR]\n\
                     \x20      suite --render PATH\n\
                     Runs the full figure grid and writes the JSON report (default\n\
                     BENCH_suite.json). --jobs 0 (or omitted) uses one worker per\n\
                     available hardware thread. --quick runs a down-scaled smoke grid\n\
                     without tolerance checks. --list prints the task labels without\n\
                     running; --filter runs only tasks whose label contains SUBSTR and\n\
                     writes a reduced report. --journal write-ahead-journals every\n\
                     completed task under --journal-dir (default runs/); --resume ID\n\
                     reopens runs/ID.journal (creating it if absent), skips the\n\
                     completed prefix, and produces a report byte-identical to an\n\
                     uninterrupted run. --render PATH prints every figure table of the\n\
                     full or quick report at PATH and runs nothing."
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

    let run_journal = open_journal(journal, resume, &journal_dir, &cfg, filter.as_deref());

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
        let doc = run_filtered(&cfg, &f, run_journal.as_ref()).unwrap_or_else(|e| die(&e));
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
    let report = run_suite(&cfg, run_journal.as_ref()).unwrap_or_else(|e| die(&e));
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

/// Opens (or creates) the run journal when journaling was requested.
/// `--resume ID` names the journal explicitly; bare `--journal` derives
/// a fresh id from the config and pid and prints it, so the resume
/// command after a crash is copy-pasteable from the log.
fn open_journal(
    journal: bool,
    resume: Option<String>,
    journal_dir: &str,
    cfg: &SuiteConfig,
    filter: Option<&str>,
) -> Option<Mutex<RunJournal>> {
    if !journal && resume.is_none() {
        return None;
    }
    let id = resume.unwrap_or_else(|| {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        format!(
            "{}-{:x}-{t}-{}",
            cfg.profile,
            cfg.root_seed,
            std::process::id()
        )
    });
    let path = PathBuf::from(journal_dir).join(format!("{id}.journal"));
    let meta = journal_meta(cfg, filter);
    let rj = RunJournal::open(&path, &meta).unwrap_or_else(|e| die(&e.to_string()));
    if rj.truncated() > 0 {
        eprintln!(
            "suite: journal {} had a torn tail; truncated {} byte(s)",
            path.display(),
            rj.truncated()
        );
    }
    eprintln!(
        "suite: journaling to {} ({} completed task(s) replayed; resume with --resume {id})",
        path.display(),
        rj.replayed().len()
    );
    Some(Mutex::new(rj))
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
