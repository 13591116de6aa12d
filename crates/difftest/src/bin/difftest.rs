//! Long-run differential cosimulation fuzzer.
//!
//! ```text
//! cargo run --release -p csd-difftest --bin difftest -- \
//!     [--seed S] [--programs N] [--modes FILTER] [--out PATH]
//! ```
//!
//! Generates `N` random programs from `--seed` (per-program seeds derived
//! with the telemetry crate's `derive_seed`, so the summary is
//! byte-identical for a given seed regardless of interruption), runs each
//! across the mode matrix, shrinks any divergence, and writes a
//! deterministic JSON summary. Exits non-zero on divergence.
//!
//! `--programs` defaults to 500; pass a larger count for a longer soak
//! run. `--modes` filters legs by substring of their name (e.g. `cyc`,
//! `-s`, `fun-sdmu`); `all` (the default) keeps the full matrix.

use csd_difftest::{cosim, mode_matrix, shrink, Generator};
use csd_telemetry::{derive_seed, write_atomic, Json};

fn die(msg: &str) -> ! {
    eprintln!("difftest: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut seed: u64 = 1;
    let mut programs: u64 = 500;
    let mut modes = "all".to_string();
    let mut out_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--programs" => {
                programs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--programs needs a non-negative integer"));
            }
            "--modes" => {
                modes = args.next().unwrap_or_else(|| die("--modes needs a filter"));
            }
            "--out" => {
                out_path = Some(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--help" | "-h" => {
                println!(
                    "usage: difftest [--seed S] [--programs N] [--modes FILTER] [--out PATH]\n\
                     Cosimulates N random programs against the architectural reference\n\
                     across the CSD mode matrix. --modes filters legs by name substring\n\
                     ('all' = full matrix). --programs defaults to 500.\n\
                     Writes the JSON summary to --out (default stdout)."
                );
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    let legs: Vec<_> = mode_matrix()
        .into_iter()
        .filter(|l| modes == "all" || l.name().contains(&modes))
        .collect();
    if legs.is_empty() {
        die(&format!("--modes {modes:?} matches no legs"));
    }
    eprintln!(
        "difftest: seed={seed} programs={programs} legs={}",
        legs.len()
    );

    let mut total_insts = 0u64;
    let mut failures = Vec::new();
    for i in 0..programs {
        let pseed = derive_seed(seed, &format!("difftest/{i}"));
        let gp = Generator::new(pseed).program();
        let program = match gp.assemble() {
            Ok(p) => p,
            Err(e) => die(&format!("program {i} failed to assemble: {e}")),
        };
        let result = cosim(&program, &legs, None);
        total_insts += result.ref_insts;
        if !result.ok() {
            eprintln!(
                "difftest: program {i} (seed {pseed:#x}) diverged; shrinking {} insts...",
                gp.inst_count()
            );
            let small = shrink(&gp, &legs, None);
            let reproduced = small
                .program
                .assemble()
                .map(|p| cosim(&p, &legs, None))
                .ok();
            let details: Vec<Json> = reproduced
                .iter()
                .flat_map(|r| &r.divergences)
                .map(|d| {
                    Json::obj([
                        ("leg", Json::from(d.leg.as_str())),
                        ("detail", Json::from(d.detail.as_str())),
                    ])
                })
                .collect();
            eprintln!(
                "difftest: shrunk to {} insts in {} attempts:\n{}",
                small.insts,
                small.attempts,
                small.program.to_asm()
            );
            failures.push(Json::obj([
                ("program", Json::from(i)),
                ("seed", Json::from(pseed)),
                ("shrunk_insts", Json::from(small.insts as u64)),
                ("asm", Json::from(small.program.to_asm().as_str())),
                ("divergences", Json::arr(details)),
            ]));
        }
        if (i + 1) % 100 == 0 {
            eprintln!("difftest: {}/{programs} programs done", i + 1);
        }
    }

    let summary = Json::obj([
        ("seed", Json::from(seed)),
        ("programs", Json::from(programs)),
        (
            "legs",
            Json::arr(legs.iter().map(|l| Json::from(l.name().as_str()))),
        ),
        ("ref_insts", Json::from(total_insts)),
        ("divergent_programs", Json::from(failures.len() as u64)),
        ("failures", Json::Arr(failures.clone())),
        (
            "status",
            Json::from(if failures.is_empty() { "pass" } else { "fail" }),
        ),
    ]);
    let text = summary.pretty();
    match out_path {
        Some(p) => {
            write_atomic(std::path::Path::new(&p), text.as_bytes())
                .unwrap_or_else(|e| die(&e.to_string()));
            eprintln!("difftest: wrote {p}");
        }
        None => println!("{text}"),
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
