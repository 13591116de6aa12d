//! Distributed suite execution over sharded `csd-serve` workers.
//!
//! ```text
//! cargo run --release -p csd-cluster --bin cluster -- \
//!     [--workers N | --addrs HOST:PORT,HOST:PORT,...] \
//!     [--quick] [--seed S] [--filter SUBSTR] [--out PATH] \
//!     [--telemetry-out PATH] [--hedge-ms MS] [--window N] \
//!     [--attempts N] [--task-timeout-ms MS] [--daemon-workers N] \
//!     [--journal] [--resume ID] [--journal-dir DIR] \
//!     [--spec JSON|@FILE]...
//! ```
//!
//! The merged report is byte-identical to what `suite` (same profile,
//! seed, and filter) writes on one machine — `cmp` them. `--workers N`
//! spawns N local daemons on ephemeral ports and drains them after the
//! run; `--addrs` dispatches to daemons you operate. `--spec` switches
//! to ad-hoc plan mode: each spec (inline JSON or `@file`) is one
//! `{"experiment": ...}` request, results returned in input order.
//! Exits non-zero if the run fails or (full profile) a tolerance check
//! is outside its band.
//!
//! Durability: `--journal` / `--resume ID` use the same write-ahead run
//! journal as the single-node `suite` — a crashed cluster run can even
//! be resumed by `suite --resume ID` (and vice versa), because the
//! journal records `(label, seed, result)` and says nothing about who
//! dispatched the work. On resume the coordinator re-probes worker
//! health and dispatches only the tasks the journal is missing.

use csd_bench::suite::{journal_meta, SuiteConfig};
use csd_cluster::{
    run_specs_distributed, run_suite_distributed, ClusterConfig, DistributedOutput, WorkerPool,
};
use csd_exp::ExperimentSpec;
use csd_telemetry::{write_atomic, Json, RunJournal};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn main() {
    let mut workers = 0usize;
    let mut addrs: Vec<String> = Vec::new();
    let mut quick = false;
    let mut seed = 0xC5D_2018u64;
    let mut filter: Option<String> = None;
    let mut out_path = "BENCH_suite.json".to_string();
    let mut telemetry_out: Option<String> = None;
    let mut specs: Vec<ExperimentSpec> = Vec::new();
    let mut cluster = ClusterConfig::default();
    let mut daemon_workers = 1usize;
    let mut journal = false;
    let mut resume: Option<String> = None;
    let mut journal_dir = "runs".to_string();

    fn num(args: &mut impl Iterator<Item = String>, name: &str) -> u64 {
        args.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| die(&format!("{name} needs a non-negative integer")))
    }

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workers" => workers = num(&mut args, "--workers") as usize,
            "--addrs" => {
                let list = args.next().unwrap_or_else(|| die("--addrs needs a list"));
                addrs = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if addrs.is_empty() {
                    die("--addrs needs at least one HOST:PORT");
                }
            }
            "--quick" => quick = true,
            "--seed" => seed = num(&mut args, "--seed"),
            "--filter" => {
                filter = Some(
                    args.next()
                        .unwrap_or_else(|| die("--filter needs a substring")),
                );
            }
            "--out" => out_path = args.next().unwrap_or_else(|| die("--out needs a path")),
            "--telemetry-out" => {
                telemetry_out = Some(
                    args.next()
                        .unwrap_or_else(|| die("--telemetry-out needs a path")),
                );
            }
            "--hedge-ms" => cluster.hedge_ms = num(&mut args, "--hedge-ms"),
            "--window" => cluster.window = num(&mut args, "--window").max(1) as usize,
            "--attempts" => cluster.attempts = num(&mut args, "--attempts").max(1) as u32,
            "--task-timeout-ms" => {
                cluster.task_timeout =
                    Duration::from_millis(num(&mut args, "--task-timeout-ms").max(1));
            }
            "--daemon-workers" => {
                daemon_workers = num(&mut args, "--daemon-workers").max(1) as usize
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
            "--spec" => {
                let arg = args
                    .next()
                    .unwrap_or_else(|| die("--spec needs JSON or @FILE"));
                specs.push(parse_spec(&arg));
            }
            "--help" | "-h" => {
                println!(
                    "usage: cluster [--workers N | --addrs A,B,C] [--quick] [--seed S]\n\
                     \x20              [--filter SUBSTR] [--out PATH] [--telemetry-out PATH]\n\
                     \x20              [--hedge-ms MS] [--window N] [--attempts N]\n\
                     \x20              [--task-timeout-ms MS] [--daemon-workers N]\n\
                     \x20              [--journal] [--resume ID] [--journal-dir DIR]\n\
                     \x20              [--spec JSON|@FILE]...\n\
                     Shards the suite grid across csd-serve workers and merges a report\n\
                     byte-identical to a single-node `suite` run (default out\n\
                     BENCH_suite.json). --workers N spawns N local daemons (each with\n\
                     --daemon-workers simulation threads); --addrs uses daemons you run.\n\
                     --hedge-ms duplicates stragglers onto a second worker (first result\n\
                     wins); 0 disables hedging. --spec switches to ad-hoc experiment-plan\n\
                     mode. --telemetry-out writes the cluster telemetry (per-worker and\n\
                     fleet latency, retry/hedge/reassign counters) as JSON. --journal\n\
                     write-ahead-journals each completed task under --journal-dir\n\
                     (default runs/); --resume ID reopens runs/ID.journal, skips what it\n\
                     already holds, and still writes a byte-identical report. The\n\
                     journal is shared with `suite`, so either runner can resume the\n\
                     other's crashed run."
                );
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    cluster.seed = seed;
    if !addrs.is_empty() && workers > 0 {
        die("--workers and --addrs are mutually exclusive");
    }
    if (journal || resume.is_some()) && !specs.is_empty() {
        die("--journal/--resume apply to suite mode, not --spec mode");
    }

    let mut pool = if addrs.is_empty() {
        let n = if workers == 0 { 3 } else { workers };
        eprintln!("cluster: spawning {n} local daemon(s), {daemon_workers} worker thread(s) each");
        WorkerPool::spawn_local(n, daemon_workers)
            .unwrap_or_else(|e| die(&format!("spawning local daemons: {e}")))
    } else {
        eprintln!(
            "cluster: dispatching to {} worker(s): {}",
            addrs.len(),
            addrs.join(", ")
        );
        WorkerPool::from_addrs(&addrs)
    };

    let t0 = Instant::now();
    let outcome = if specs.is_empty() {
        let cfg = if quick {
            SuiteConfig::quick(seed, 1)
        } else {
            SuiteConfig::full(seed, 1)
        };
        eprintln!(
            "cluster: profile={} root_seed={seed:#x} workers={} window={} hedge_ms={}{}",
            cfg.profile,
            pool.len(),
            cluster.window,
            cluster.hedge_ms,
            filter
                .as_deref()
                .map(|f| format!(" filter={f:?}"))
                .unwrap_or_default()
        );
        let run_journal = open_journal(journal, resume, &journal_dir, &cfg, filter.as_deref());
        run_suite_distributed(
            &pool,
            &cfg,
            filter.as_deref(),
            &cluster,
            run_journal.as_ref(),
        )
        .map(|(out, telem)| {
            let checks = match &out {
                DistributedOutput::Full(report) => Some(report.clone()),
                DistributedOutput::Filtered(_) => None,
            };
            (out.json().pretty(), telem, checks)
        })
    } else {
        if filter.is_some() {
            die("--filter applies to suite mode, not --spec mode");
        }
        eprintln!(
            "cluster: {} ad-hoc spec(s) across {} worker(s)",
            specs.len(),
            pool.len()
        );
        run_specs_distributed(&pool, &specs, &cluster)
            .map(|(doc, telem)| (doc.pretty(), telem, None))
    };

    let clean = pool.shutdown_local();
    let (artifact, telemetry, report) = match outcome {
        Ok(v) => v,
        Err(e) => die(&format!("run failed: {e}")),
    };
    eprintln!(
        "cluster: run complete in {:.1}s ({clean} local daemon(s) drained cleanly)",
        t0.elapsed().as_secs_f64()
    );

    write_atomic(std::path::Path::new(&out_path), artifact.as_bytes())
        .unwrap_or_else(|e| die(&e.to_string()));
    eprintln!("cluster: wrote {out_path}");
    if let Some(path) = telemetry_out {
        write_atomic(std::path::Path::new(&path), telemetry.pretty().as_bytes())
            .unwrap_or_else(|e| die(&e.to_string()));
        eprintln!("cluster: wrote {path}");
    }

    if let Some(report) = report {
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
                "cluster: {} check(s) outside tolerance: {}",
                failed.len(),
                failed.join(", ")
            );
            std::process::exit(1);
        }
    }
}

/// Opens (or creates) the run journal when journaling was requested —
/// the same id scheme and meta pinning as the `suite` CLI, so journals
/// are interchangeable between the two runners.
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
            "cluster: journal {} had a torn tail; truncated {} byte(s)",
            path.display(),
            rj.truncated()
        );
    }
    eprintln!(
        "cluster: journaling to {} ({} completed task(s) replayed; resume with --resume {id})",
        path.display(),
        rj.replayed().len()
    );
    Some(Mutex::new(rj))
}

/// Parses one `--spec` argument: inline JSON, or `@path` to a file
/// holding one spec object.
fn parse_spec(arg: &str) -> ExperimentSpec {
    let text = if let Some(path) = arg.strip_prefix('@') {
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")))
    } else {
        arg.to_string()
    };
    let doc = Json::parse(&text).unwrap_or_else(|e| die(&format!("--spec is not valid JSON: {e}")));
    ExperimentSpec::from_json(&doc).unwrap_or_else(|e| die(&format!("--spec: {e}")))
}

fn die(msg: &str) -> ! {
    eprintln!("cluster: {msg}");
    std::process::exit(2);
}
