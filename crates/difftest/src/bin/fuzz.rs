//! Coverage-guided differential fuzzer with a persistent corpus.
//!
//! ```text
//! cargo run --release -p csd-difftest --bin fuzz -- \
//!     [--seed S] [--iters N | --programs N] [--corpus DIR] [--modes FILTER] \
//!     [--jobs J] [--out PATH] [--coverage-out PATH] [--baseline PATH]
//! ```
//!
//! Loads the corpus from `--corpus` (default `tests/corpus/`), runs an
//! `N`-mutant coverage-guided campaign from `--seed`, writes every new
//! shrunk finding and coverage discovery back into the corpus, and emits
//! a deterministic JSON summary (`--out`, default stdout) plus the
//! accumulated coverage map (`--coverage-out`). Output is byte-identical
//! for a given seed/iters/modes at any `--jobs` setting.
//!
//! `--programs N` replaces the campaign with a no-mutation sweep: `N`
//! freshly generated programs, each cosimulated once over the selected
//! legs, for long soak runs. Findings are shrunk and persisted the same
//! way, and the summary reports `programs` and the reference
//! interpreter's `ref_insts` in place of `iters`.
//!
//! Exit status: `0` clean, `1` new divergence found, `2` usage or I/O
//! error, `3` coverage regressed below the `--baseline` document.

use csd_difftest::{active_legs, fnv1a64, fuzz, load_corpus, sweep, FuzzConfig};
use csd_telemetry::{write_atomic, Json, ToJson};
use std::path::{Path, PathBuf};

fn die(msg: &str) -> ! {
    eprintln!("fuzz: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut cfg = FuzzConfig {
        seed: 1,
        iters: 64,
        modes: None,
        jobs: 1,
    };
    let mut programs: Option<u64> = None;
    let mut corpus_dir = csd_difftest::default_corpus_dir();
    let mut out_path: Option<String> = None;
    let mut coverage_out: Option<String> = None;
    let mut baseline: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match a.as_str() {
            "--seed" => {
                cfg.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs an integer"));
            }
            "--iters" => {
                cfg.iters = value("--iters")
                    .parse()
                    .unwrap_or_else(|_| die("--iters needs a non-negative integer"));
            }
            "--programs" => {
                programs = Some(
                    value("--programs")
                        .parse()
                        .unwrap_or_else(|_| die("--programs needs a non-negative integer")),
                );
            }
            "--modes" => {
                let m = value("--modes");
                cfg.modes = (m != "all").then_some(m);
            }
            "--jobs" => {
                cfg.jobs = value("--jobs")
                    .parse()
                    .unwrap_or_else(|_| die("--jobs needs a positive integer"));
            }
            "--corpus" => corpus_dir = PathBuf::from(value("--corpus")),
            "--out" => out_path = Some(value("--out")),
            "--coverage-out" => coverage_out = Some(value("--coverage-out")),
            "--baseline" => baseline = Some(value("--baseline")),
            "--help" | "-h" => {
                println!(
                    "usage: fuzz [--seed S] [--iters N | --programs N] [--corpus DIR] [--modes FILTER]\n\
                     \x20           [--jobs J] [--out PATH] [--coverage-out PATH] [--baseline PATH]\n\
                     Coverage-guided differential fuzzing over the CSD mode matrix.\n\
                     Interesting inputs (divergences, new coverage) are shrunk and\n\
                     persisted into the corpus directory as reassemblable .asm + .json\n\
                     pairs. Deterministic: same seed/iters/modes => byte-identical\n\
                     corpus and coverage output at any --jobs setting.\n\
                     --programs N sweeps N generated programs without mutation.\n\
                     Exit: 0 clean, 1 new divergence, 2 error, 3 coverage < baseline."
                );
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    let seed_corpus =
        load_corpus(&corpus_dir).unwrap_or_else(|e| die(&format!("loading corpus: {e}")));
    let work = match programs {
        Some(n) => format!("programs={n}"),
        None => format!("iters={}", cfg.iters),
    };
    eprintln!(
        "fuzz: seed={} {work} corpus={} entries={} jobs={}",
        cfg.seed,
        corpus_dir.display(),
        seed_corpus.len(),
        cfg.jobs
    );

    let modes = cfg.modes.as_deref();
    if active_legs(modes).is_empty() {
        die(&format!(
            "--modes {:?} matches no legs",
            modes.unwrap_or("all")
        ));
    }
    let (outcome, ref_insts) = match programs {
        Some(n) => sweep(cfg.seed, n, modes, cfg.jobs),
        None => (fuzz(&cfg, &seed_corpus), 0),
    };

    for entry in outcome.failures.iter().chain(&outcome.discoveries) {
        entry
            .save(&corpus_dir)
            .unwrap_or_else(|e| die(&format!("saving {}: {e}", entry.name)));
    }
    for f in &outcome.failures {
        eprintln!(
            "fuzz: NEW DIVERGENCE {} (classes {:?}):\n{}",
            f.name,
            f.divergence,
            f.program.to_asm()
        );
    }

    let coverage_json = outcome.coverage.to_json();
    let missing = baseline
        .as_ref()
        .map(|p| {
            let text = std::fs::read_to_string(p)
                .unwrap_or_else(|e| die(&format!("reading baseline {p}: {e}")));
            let doc =
                Json::parse(&text).unwrap_or_else(|e| die(&format!("parsing baseline {p}: {e:?}")));
            outcome.coverage.missing_from_baseline(&doc)
        })
        .unwrap_or_default();

    let mut summary = vec![
        ("schema", Json::from("csd-fuzz/1")),
        ("seed", Json::from(cfg.seed)),
    ];
    match programs {
        Some(n) => summary.extend([
            ("programs", Json::from(n)),
            ("ref_insts", Json::from(ref_insts)),
        ]),
        None => summary.push(("iters", Json::from(cfg.iters))),
    }
    summary.extend([
        ("modes", Json::from(modes.unwrap_or("all"))),
        ("corpus_entries", Json::from(seed_corpus.len() as u64)),
        ("evaluated", Json::from(outcome.evaluated)),
        ("coverage_bins", Json::from(outcome.coverage.bins())),
        ("coverage_events", Json::from(outcome.coverage.events())),
        (
            "new_failures",
            Json::arr(outcome.failures.iter().map(|f| Json::from(f.name.as_str()))),
        ),
        (
            "new_discoveries",
            Json::arr(
                outcome
                    .discoveries
                    .iter()
                    .map(|d| Json::from(d.name.as_str())),
            ),
        ),
        (
            "coverage_missing_from_baseline",
            Json::arr(missing.iter().map(|m| Json::from(m.as_str()))),
        ),
        (
            "coverage_fnv",
            Json::from(fnv1a64(coverage_json.dump().as_bytes())),
        ),
        (
            "status",
            Json::from(if !outcome.failures.is_empty() {
                "fail"
            } else if !missing.is_empty() {
                "coverage-regressed"
            } else {
                "pass"
            }),
        ),
    ]);
    let summary = Json::obj(summary);

    if let Some(p) = &coverage_out {
        let mut text = coverage_json.pretty();
        text.push('\n');
        write_atomic(Path::new(p), text.as_bytes()).unwrap_or_else(|e| die(&e.to_string()));
    }
    let text = summary.pretty();
    match &out_path {
        Some(p) => {
            write_atomic(Path::new(p), text.as_bytes()).unwrap_or_else(|e| die(&e.to_string()));
            eprintln!("fuzz: wrote {p}");
        }
        None => println!("{text}"),
    }

    if !outcome.failures.is_empty() {
        std::process::exit(1);
    }
    if !missing.is_empty() {
        eprintln!("fuzz: coverage regressed; missing bins: {missing:?}");
        std::process::exit(3);
    }
}
