//! `loadgen` — load generator, chaos driver, and scripting client for
//! `csd-serve`.
//!
//! Load mode (default):
//!
//! ```text
//! cargo run --release -p csd-serve --bin loadgen -- \
//!     --addr HOST:PORT [--connections N] [--requests N] \
//!     [--mix warm=8,cold=1,task=1] [--seed S]
//! ```
//!
//! Opens `--connections` keep-alive connections, issues `--requests`
//! total requests drawn from the weighted mix, retries `503` rejections
//! with backoff, and reports latency percentiles from the same
//! log2-bucket [`Histogram`] the server uses for its own metrics.
//! Transport errors reconnect with backoff and are reported in the
//! summary; the process exits non-zero only if requests ultimately
//! failed. Exits non-zero if any request ultimately failed.
//!
//! Chaos mode (`--chaos`): drives a seeded schedule of hostile clients
//! and injected faults against a daemon started with `CSD_FAULT_SEED`:
//! panicking jobs (plain and lock-poisoning), worker stalls, slowloris
//! clients, aborted half-written requests, malformed frames, and
//! queue-saturation bursts. Every interaction must end in a well-formed
//! HTTP response or a clean server-initiated close; the run fails if
//! the daemon ever answers garbage, hangs, or dies. Reproduce any run
//! with its `--seed`.
//!
//! Helper modes for CI scripting: `--ping` (healthz), `--one LABEL`
//! (fetch one task document, `--out PATH`), `--spec JSON|@FILE` (post
//! one typed experiment spec, validated client-side), `--verify-warm`
//! (cold run, then warm fork; assert byte-identical bodies),
//! `--shutdown`.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use csd_exp::{ExperimentSpec, LegMode};
use csd_serve::{Client, ClientResponse, RetryClient};
use csd_telemetry::ToJson;
use csd_telemetry::{derive_seed, write_atomic, Histogram, Json, SplitMix64};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Warm,
    Cold,
    Task,
    Devec,
}

#[derive(Debug, Clone)]
struct Mix {
    weights: Vec<(Kind, u64)>,
}

impl Mix {
    fn parse(s: &str) -> Result<Mix, String> {
        let mut weights = Vec::new();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (name, w) = part
                .split_once('=')
                .ok_or_else(|| format!("mix entry {part:?} is not NAME=WEIGHT"))?;
            let kind = match name {
                "warm" => Kind::Warm,
                "cold" => Kind::Cold,
                "task" => Kind::Task,
                "devec" => Kind::Devec,
                _ => return Err(format!("unknown mix kind {name:?}")),
            };
            let w: u64 = w
                .parse()
                .map_err(|_| format!("mix weight in {part:?} is not an integer"))?;
            weights.push((kind, w));
        }
        if weights.iter().map(|(_, w)| w).sum::<u64>() == 0 {
            return Err("mix has zero total weight".to_string());
        }
        Ok(Mix { weights })
    }

    fn pick(&self, rng: &mut SplitMix64) -> Kind {
        let total: u64 = self.weights.iter().map(|(_, w)| w).sum();
        let mut roll = rng.range_u64(0, total - 1);
        for (kind, w) in &self.weights {
            if roll < *w {
                return *kind;
            }
            roll -= w;
        }
        self.weights[0].0
    }
}

#[derive(Default)]
struct Outcome {
    latency: Histogram,
    ok: u64,
    errors: u64,
    retries: u64,
    reconnects: u64,
    warm_hits: u64,
}

impl Outcome {
    /// The per-connection summary row for the JSON report.
    fn to_json(&self, id: usize) -> Json {
        Json::obj([
            ("id", Json::from(id as u64)),
            ("ok", Json::from(self.ok)),
            ("errors", Json::from(self.errors)),
            ("retries_503", Json::from(self.retries)),
            ("reconnects", Json::from(self.reconnects)),
            ("warm_hits", Json::from(self.warm_hits)),
        ])
    }
}

fn main() {
    let mut addr = "127.0.0.1:8321".to_string();
    let mut connections = 4usize;
    let mut requests = 64usize;
    let mut mix_spec = "warm=8,cold=1,task=1".to_string();
    let mut seed: u64 = 0x10AD_2018;
    let mut profile = "quick".to_string();
    let mut out_path: Option<String> = None;
    let mut summary_out: Option<String> = None;
    let mut slow_ms: u64 = 1_500;
    let mut mode_ping = false;
    let mut mode_shutdown = false;
    let mut mode_verify_warm = false;
    let mut mode_chaos = false;
    let mut mode_one: Option<String> = None;
    let mut mode_spec: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| die("--addr needs HOST:PORT")),
            "--connections" => {
                connections = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--connections needs a positive integer"));
            }
            "--requests" => {
                requests = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--requests needs a positive integer"));
            }
            "--mix" => mix_spec = args.next().unwrap_or_else(|| die("--mix needs a spec")),
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--profile" => profile = args.next().unwrap_or_else(|| die("--profile needs a name")),
            "--out" => out_path = Some(args.next().unwrap_or_else(|| die("--out needs a path"))),
            "--summary-out" => {
                summary_out = Some(
                    args.next()
                        .unwrap_or_else(|| die("--summary-out needs a path")),
                );
            }
            "--slow-ms" => {
                slow_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--slow-ms needs a positive integer"));
            }
            "--ping" => mode_ping = true,
            "--shutdown" => mode_shutdown = true,
            "--verify-warm" => mode_verify_warm = true,
            "--chaos" => mode_chaos = true,
            "--one" => mode_one = Some(args.next().unwrap_or_else(|| die("--one needs a label"))),
            "--spec" => {
                mode_spec = Some(
                    args.next()
                        .unwrap_or_else(|| die("--spec needs JSON or @FILE")),
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: loadgen --addr HOST:PORT [--connections N] [--requests N]\n\
                     \x20              [--mix warm=8,cold=1,task=1] [--seed S]\n\
                     \x20              [--summary-out PATH]  (JSON summary incl. per-connection\n\
                     \x20               reconnect/retry counts)\n\
                     \x20      or: --chaos [--requests N] [--seed S] [--slow-ms MS]\n\
                     \x20          (daemon must run with CSD_FAULT_SEED set and a short\n\
                     \x20           --conn-deadline-ms; see scripts/chaos_smoke.sh)\n\
                     \x20      or: --ping | --shutdown | --verify-warm |\n\
                     \x20          --one LABEL [--profile quick|full] [--out PATH] |\n\
                     \x20          --spec JSON|@FILE [--out PATH]"
                );
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    if mode_ping {
        let body = simple(&addr, "GET", "/healthz", "");
        println!("{}", body.trim_end());
        return;
    }
    if mode_shutdown {
        let body = simple(&addr, "POST", "/v1/shutdown", "{}");
        println!("{}", body.trim_end());
        return;
    }
    if let Some(label) = mode_one {
        let req = format!("{{\"task\": {label:?}, \"profile\": {profile:?}, \"seed\": {seed}}}");
        let resp = request_with_retry(&addr, "/v1/experiments", &req, 100)
            .unwrap_or_else(|e| die(&format!("task request: {e}")));
        if resp.status != 200 {
            die(&format!(
                "task request failed: {} {}",
                resp.status,
                resp.text()
            ));
        }
        match out_path {
            Some(path) => {
                write_atomic(Path::new(&path), &resp.body).unwrap_or_else(|e| die(&e.to_string()))
            }
            None => std::io::stdout()
                .write_all(&resp.body)
                .unwrap_or_else(|e| die(&format!("writing stdout: {e}"))),
        }
        return;
    }
    if let Some(raw) = mode_spec {
        // Validate client-side through the same typed spec the server
        // parses, so a typo dies here with a real message instead of a
        // 400 — and the posted body is the canonical serialization.
        let text = match raw.strip_prefix('@') {
            Some(path) => std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("reading {path}: {e}"))),
            None => raw,
        };
        let doc =
            Json::parse(&text).unwrap_or_else(|e| die(&format!("--spec is not valid JSON: {e}")));
        // Accept a bare spec or an already-wrapped {"experiment": ...}.
        let spec = ExperimentSpec::from_json(doc.get("experiment").unwrap_or(&doc))
            .unwrap_or_else(|e| die(&format!("--spec: {e}")));
        let resp = request_with_retry(&addr, "/v1/experiments", &experiment_body(&spec), 100)
            .unwrap_or_else(|e| die(&format!("spec request: {e}")));
        if resp.status != 200 {
            die(&format!(
                "spec request failed: {} {}",
                resp.status,
                resp.text()
            ));
        }
        eprintln!(
            "loadgen: spec ok (warm={})",
            resp.header("x-csd-warm").unwrap_or("?")
        );
        match out_path {
            Some(path) => {
                write_atomic(Path::new(&path), &resp.body).unwrap_or_else(|e| die(&e.to_string()))
            }
            None => std::io::stdout()
                .write_all(&resp.body)
                .unwrap_or_else(|e| die(&format!("writing stdout: {e}"))),
        }
        return;
    }
    if mode_verify_warm {
        verify_warm(&addr, seed);
        return;
    }
    if mode_chaos {
        run_chaos(&addr, requests, seed, slow_ms);
        return;
    }

    let mix = Mix::parse(&mix_spec).unwrap_or_else(|e| die(&e));
    eprintln!(
        "loadgen: {addr} connections={connections} requests={requests} mix={mix_spec} seed={seed:#x}"
    );
    let connections = connections.max(1);
    let per = requests / connections;
    let extra = requests % connections;
    let t0 = Instant::now();
    let outcomes: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let n = per + usize::from(c < extra);
                let addr = addr.clone();
                let mix = mix.clone();
                let conn_seed = derive_seed(seed, &format!("conn/{c}"));
                (
                    n,
                    s.spawn(move || run_connection(&addr, n, &mix, conn_seed, seed)),
                )
            })
            .collect();
        handles
            .into_iter()
            .map(|(n, h)| {
                h.join().unwrap_or_else(|_| {
                    // A panicking connection thread fails its share of
                    // the budget; the run itself keeps going.
                    eprintln!("loadgen: connection thread panicked; counting {n} failures");
                    Outcome {
                        errors: n as u64,
                        ..Outcome::default()
                    }
                })
            })
            .collect()
    });
    let wall = t0.elapsed();

    let mut latency = Histogram::new();
    let (mut ok, mut errors, mut retries, mut reconnects, mut warm_hits) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for o in &outcomes {
        latency.merge(&o.latency);
        ok += o.ok;
        errors += o.errors;
        retries += o.retries;
        reconnects += o.reconnects;
        warm_hits += o.warm_hits;
    }
    println!(
        "loadgen: ok={ok} errors={errors} retries_503={retries} reconnects={reconnects} \
         warm_hits={warm_hits} wall_s={:.2} rps={:.1}",
        wall.as_secs_f64(),
        ok as f64 / wall.as_secs_f64().max(1e-9),
    );
    println!(
        "loadgen: latency_us p50={} p90={} p99={} max={}",
        pct(&latency, 50.0),
        pct(&latency, 90.0),
        pct(&latency, 99.0),
        latency.max(),
    );
    let mut summary_write_failed = false;
    if let Some(path) = summary_out {
        // Everything the stderr/stdout lines say — plus the per-connection
        // recovery counters — as one parseable document, so smokes can
        // assert on reconnect/retry behavior instead of scraping log
        // lines.
        let summary = Json::obj([
            ("addr", Json::from(addr.as_str())),
            ("connections", Json::from(connections as u64)),
            ("requests", Json::from(requests as u64)),
            ("seed", Json::from(seed)),
            ("mix", Json::from(mix_spec.as_str())),
            ("ok", Json::from(ok)),
            ("errors", Json::from(errors)),
            ("retries_503", Json::from(retries)),
            ("reconnects", Json::from(reconnects)),
            ("warm_hits", Json::from(warm_hits)),
            ("latency_us", latency.to_json()),
            (
                "per_connection",
                Json::Arr(
                    outcomes
                        .iter()
                        .enumerate()
                        .map(|(i, o)| o.to_json(i))
                        .collect(),
                ),
            ),
        ]);
        // A summary the CI can't read must not look like a pass: the
        // write failure is reported, accounting finishes, and the exit
        // code goes non-zero — instead of dying mid-run or logging the
        // error and exiting 0.
        match write_atomic(Path::new(&path), summary.pretty().as_bytes()) {
            Ok(()) => eprintln!("loadgen: wrote summary to {path}"),
            Err(e) => {
                eprintln!("loadgen: {e}");
                summary_write_failed = true;
            }
        }
    }
    let code = load_exit_code(errors, summary_write_failed);
    if code != 0 {
        std::process::exit(code);
    }
}

/// The exit code for a load run: request failures and a failed summary
/// write both fail the run.
fn load_exit_code(errors: u64, summary_write_failed: bool) -> i32 {
    i32::from(errors > 0 || summary_write_failed)
}

/// Renders one percentile, or `-` for an empty histogram (a run where
/// every request failed before being timed).
fn pct(h: &Histogram, p: f64) -> String {
    h.percentile(p)
        .map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// One connection's request loop over the shared [`RetryClient`]:
/// transport errors reconnect with seeded backoff, `503` responses are
/// retried honoring `Retry-After`, and both recoveries are counted —
/// never treated as failures unless the budget runs out. Warm requests
/// key their sessions off the run-wide `global_seed` so all connections
/// share (and so hit) the same few cached checkpoints; cold requests
/// perturb the connection-local seed to force fresh warm-ups.
fn run_connection(addr: &str, n: usize, mix: &Mix, conn_seed: u64, global_seed: u64) -> Outcome {
    let mut rng = SplitMix64::new(conn_seed);
    let mut out = Outcome::default();
    let mut client = RetryClient::new(addr, derive_seed(conn_seed, "backoff"));
    for i in 0..n {
        let body = request_body(mix.pick(&mut rng), &mut rng, conn_seed, global_seed, i);
        let t0 = Instant::now();
        let resolved = client.post_json("/v1/experiments", &body, 50).ok();
        out.latency
            .record(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        match resolved {
            Some(resp) if resp.status == 200 => {
                out.ok += 1;
                if resp.header("x-csd-warm") == Some("1") {
                    out.warm_hits += 1;
                }
            }
            _ => out.errors += 1,
        }
    }
    let stats = client.stats();
    out.retries = stats.retries_503;
    out.reconnects = stats.reconnects;
    out
}

/// Wraps a typed spec into the `POST /v1/experiments` body shape.
fn experiment_body(spec: &ExperimentSpec) -> String {
    Json::obj([("experiment", spec.to_json())]).dump()
}

/// The request body for one drawn kind. Warm requests rotate a small set
/// of sessions (so the cache hits); cold requests force fresh warm-ups.
fn request_body(
    kind: Kind,
    rng: &mut SplitMix64,
    conn_seed: u64,
    global_seed: u64,
    i: usize,
) -> String {
    match kind {
        Kind::Warm => {
            let victims = ["aes-enc", "blowfish-enc", "rsa-enc"];
            let victim = victims[rng.range_u64(0, victims.len() as u64 - 1) as usize];
            let stealth = rng.range_u64(0, 1) == 1;
            let watchdog = [1000u64, 2000][rng.range_u64(0, 1) as usize];
            let mode = if stealth {
                LegMode::Stealth { watchdog }
            } else {
                LegMode::Base
            };
            experiment_body(&ExperimentSpec::single(victim, "opt", global_seed, 2, mode))
        }
        Kind::Cold => {
            let fresh = conn_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut spec = ExperimentSpec::single("aes-enc", "opt", fresh, 2, LegMode::Base);
            spec.cold = true;
            experiment_body(&spec)
        }
        Kind::Task => "{\"task\": \"table1\", \"profile\": \"quick\"}".to_string(),
        Kind::Devec => {
            "{\"devec\": {\"workload\": \"gcc\", \"policy\": \"csd-devec\", \"scale\": 0.02}}"
                .to_string()
        }
    }
}

// ---------------------------------------------------------------------
// Chaos mode
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosOp {
    /// `{"fault":{"kind":"panic"}}` — worker must answer 500/class run.
    Panic,
    /// Panic while holding the session-cache lock (poison + recover).
    PanicPoison,
    /// `{"fault":{"kind":"sleep"}}` — worker stalls, then 200.
    Sleep,
    /// Dribble a request head one byte at a time; the server must cut
    /// us off (408 or close) instead of pinning the thread forever.
    SlowClient,
    /// Write half a request and abort the connection.
    PartialWrite,
    /// Send bytes that are not HTTP; the server must answer 400 or
    /// close, never crash.
    MalformedFrame,
    /// Burst of concurrent stall jobs; the queue must overflow into
    /// well-formed 503s, never into hangs.
    Saturate,
}

const CHAOS_OPS: [(ChaosOp, u64); 7] = [
    (ChaosOp::Panic, 3),
    (ChaosOp::PanicPoison, 2),
    (ChaosOp::Sleep, 2),
    (ChaosOp::SlowClient, 1),
    (ChaosOp::PartialWrite, 2),
    (ChaosOp::MalformedFrame, 3),
    (ChaosOp::Saturate, 1),
];

fn pick_chaos(rng: &mut SplitMix64) -> ChaosOp {
    let total: u64 = CHAOS_OPS.iter().map(|(_, w)| w).sum();
    let mut roll = rng.range_u64(0, total - 1);
    for (op, w) in CHAOS_OPS {
        if roll < w {
            return op;
        }
        roll -= w;
    }
    ChaosOp::Panic
}

/// Drives `requests` seeded hostile interactions and verifies the daemon
/// absorbs all of them. Exits non-zero on the first accounting failure:
/// an interaction that got a garbled response, hung past its budget, or
/// a daemon that stopped answering `/healthz`.
fn run_chaos(addr: &str, requests: usize, seed: u64, slow_ms: u64) {
    eprintln!("loadgen: chaos {addr} requests={requests} seed={seed:#x} slow_ms={slow_ms}");
    // Fail fast if the daemon is not armed: a 403 here means
    // CSD_FAULT_SEED is unset and every panic op would "fail".
    let probe = request_with_retry(
        addr,
        "/v1/experiments",
        "{\"fault\":{\"kind\":\"sleep\",\"ms\":1}}",
        50,
    )
    .unwrap_or_else(|e| die(&format!("chaos probe: {e}")));
    if probe.status == 403 {
        die("daemon refuses fault jobs; start it with CSD_FAULT_SEED set");
    }

    let mut rng = SplitMix64::new(derive_seed(seed, "chaos"));
    let mut counts = [0u64; 7];
    let mut rejected_503 = 0u64;
    let mut failures: Vec<String> = Vec::new();
    for i in 0..requests {
        let op = pick_chaos(&mut rng);
        counts[op_index(op)] += 1;
        let verdict = match op {
            ChaosOp::Panic => chaos_fault_panic(addr, false),
            ChaosOp::PanicPoison => chaos_fault_panic(addr, true),
            ChaosOp::Sleep => chaos_fault_sleep(addr, &mut rng),
            ChaosOp::SlowClient => chaos_slow_client(addr, slow_ms),
            ChaosOp::PartialWrite => chaos_partial_write(addr),
            ChaosOp::MalformedFrame => chaos_malformed(addr, &mut rng),
            ChaosOp::Saturate => chaos_saturate(addr).map(|n| rejected_503 += n),
        };
        if let Err(msg) = verdict {
            failures.push(format!("op {i} ({op:?}): {msg}"));
        }
    }

    // The daemon must still be fully alive and coherent.
    let health = request_with_retry(addr, "/healthz", "", 50);
    let alive = matches!(&health, Ok(r) if r.status == 200);
    if !alive {
        failures.push("daemon stopped answering /healthz after chaos".to_string());
    }
    let metrics = Client::connect(addr)
        .and_then(|mut c| c.get("/metrics"))
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| Json::parse(&r.text()).ok());
    match &metrics {
        Some(m) => {
            let g = |p: &str, k: &str| {
                m.get(p)
                    .and_then(|o| o.get(k))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            let top = |k: &str| m.get(k).and_then(Json::as_u64).unwrap_or(0);
            println!(
                "loadgen: chaos server-side injected_faults={} worker_panics={} \
                 poison_recoveries={} deadline_closes={} errors(admission={} parse={} run={} io={})",
                top("injected_faults"),
                top("worker_panics"),
                top("lock_poison_recoveries"),
                top("deadline_closes"),
                g("errors", "admission"),
                g("errors", "parse"),
                g("errors", "run"),
                g("errors", "io"),
            );
            let panics_sent =
                counts[op_index(ChaosOp::Panic)] + counts[op_index(ChaosOp::PanicPoison)];
            if top("worker_panics") < panics_sent {
                failures.push(format!(
                    "metrics undercount panics: worker_panics={} < injected {panics_sent}",
                    top("worker_panics")
                ));
            }
        }
        None => failures.push("daemon stopped serving parseable /metrics".to_string()),
    }

    println!(
        "loadgen: chaos panic={} poison={} sleep={} slow={} partial={} malformed={} \
         saturate={} rejected_503={rejected_503} failures={}",
        counts[0],
        counts[1],
        counts[2],
        counts[3],
        counts[4],
        counts[5],
        counts[6],
        failures.len(),
    );
    for f in failures.iter().take(10) {
        eprintln!("loadgen: chaos FAILURE: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!("loadgen: chaos ok (daemon absorbed every fault)");
}

fn op_index(op: ChaosOp) -> usize {
    CHAOS_OPS
        .iter()
        .position(|(o, _)| *o == op)
        .unwrap_or_default()
}

/// A panic job must come back as a well-formed `500` with `class: run`
/// and a message naming the panic — not as a hang or a dropped
/// connection.
fn chaos_fault_panic(addr: &str, poison: bool) -> Result<(), String> {
    let body = format!("{{\"fault\":{{\"kind\":\"panic\",\"poison\":{poison}}}}}");
    let resp = request_with_retry(addr, "/v1/experiments", &body, 50)
        .map_err(|e| format!("transport: {e}"))?;
    if resp.status != 500 {
        return Err(format!(
            "expected 500, got {}: {}",
            resp.status,
            resp.text()
        ));
    }
    let doc = Json::parse(&resp.text()).map_err(|e| format!("unparseable 500 body: {e}"))?;
    if doc.get("class").and_then(Json::as_str) != Some("run") {
        return Err(format!("500 body lacks class=run: {}", resp.text()));
    }
    Ok(())
}

/// A stall job must come back `200` after its nap.
fn chaos_fault_sleep(addr: &str, rng: &mut SplitMix64) -> Result<(), String> {
    let ms = rng.range_u64(5, 60);
    let body = format!("{{\"fault\":{{\"kind\":\"sleep\",\"ms\":{ms}}}}}");
    let resp = request_with_retry(addr, "/v1/experiments", &body, 50)
        .map_err(|e| format!("transport: {e}"))?;
    if resp.status != 200 {
        return Err(format!("expected 200, got {}", resp.status));
    }
    Ok(())
}

/// Dribbles a request head one byte at a time, slower than the server's
/// connection deadline. Success is the server cutting us off: a `408`
/// response, a clean close, or a reset once it gave up on us.
fn chaos_slow_client(addr: &str, slow_ms: u64) -> Result<(), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_millis(
        slow_ms.saturating_mul(4).max(2_000),
    )))
    .map_err(|e| format!("timeout: {e}"))?;
    let head = b"POST /v1/experiments HTTP/1.1\r\nHost: chaos\r\n";
    let step = Duration::from_millis((slow_ms / head.len() as u64).max(20));
    for b in head {
        if s.write_all(&[*b]).is_err() {
            return Ok(()); // the server already cut us off — success
        }
        std::thread::sleep(step);
    }
    // Never finish the head; wait for the server to give up on us.
    let mut buf = [0u8; 1024];
    match s.read(&mut buf) {
        Ok(0) => Ok(()),
        Ok(n) => {
            let text = String::from_utf8_lossy(&buf[..n]);
            if text.starts_with("HTTP/1.1 408") {
                Ok(())
            } else {
                Err(format!("expected 408 or close, got {text:?}"))
            }
        }
        Err(e)
            if e.kind() == std::io::ErrorKind::ConnectionReset
                || e.kind() == std::io::ErrorKind::BrokenPipe =>
        {
            Ok(())
        }
        Err(_) => Err("server never cut off a slowloris client".to_string()),
    }
}

/// Writes half a request and aborts. There is nothing to read back; the
/// point is that the daemon treats the dangling connection as EOF.
fn chaos_partial_write(addr: &str) -> Result<(), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = s.write_all(b"POST /v1/experiments HTTP/1.1\r\nContent-Length: 999\r\n\r\n{\"task\"");
    Ok(()) // dropping the stream aborts the request mid-body
}

/// Sends seeded garbage; the only acceptable outcomes are a well-formed
/// HTTP error response or a close — never a hang.
fn chaos_malformed(addr: &str, rng: &mut SplitMix64) -> Result<(), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("timeout: {e}"))?;
    let mut garbage: Vec<u8> = (0..rng.range_u64(8, 64))
        .map(|_| rng.range_u64(0, 255) as u8)
        .collect();
    garbage.extend_from_slice(b"\r\n\r\n"); // force the parser to a verdict
    if s.write_all(&garbage).is_err() {
        return Ok(());
    }
    let mut buf = [0u8; 4096];
    match s.read(&mut buf) {
        Ok(0) => Ok(()),
        Ok(n) => {
            let text = String::from_utf8_lossy(&buf[..n]);
            if text.starts_with("HTTP/1.1 ") {
                Ok(())
            } else {
                Err(format!("garbled reply to garbage: {text:?}"))
            }
        }
        Err(e)
            if e.kind() == std::io::ErrorKind::ConnectionReset
                || e.kind() == std::io::ErrorKind::BrokenPipe =>
        {
            Ok(())
        }
        Err(_) => Err("server hung on a malformed frame".to_string()),
    }
}

/// Fires a burst of concurrent stall jobs at the bounded queue. Every
/// response must be a well-formed `200` or `503`; returns how many were
/// rejected.
fn chaos_saturate(addr: &str) -> Result<u64, String> {
    const BURST: usize = 8;
    let results: Vec<Result<u16, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..BURST)
            .map(|_| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let resp = c
                        .post_json(
                            "/v1/experiments",
                            "{\"fault\":{\"kind\":\"sleep\",\"ms\":150}}",
                        )
                        .map_err(|e| format!("transport: {e}"))?;
                    Ok(resp.status)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("burst thread panicked".to_string()))
            })
            .collect()
    });
    let mut rejected = 0u64;
    for r in results {
        match r? {
            200 => {}
            503 => rejected += 1,
            other => return Err(format!("burst got unexpected status {other}")),
        }
    }
    Ok(rejected)
}

/// Posts the same experiment cold then warm and asserts the bodies are
/// byte-identical — the session-cache contract, checked over the wire.
fn verify_warm(addr: &str, seed: u64) {
    let mut spec = ExperimentSpec::single(
        "aes-enc",
        "opt",
        seed,
        2,
        LegMode::Stealth { watchdog: 2000 },
    );
    spec.cold = true;
    let cold_body = experiment_body(&spec);
    spec.cold = false;
    let warm_body = experiment_body(&spec);
    let cold = request_with_retry(addr, "/v1/experiments", &cold_body, 100)
        .unwrap_or_else(|e| die(&format!("cold run: {e}")));
    if cold.status != 200 {
        die(&format!("cold run failed: {} {}", cold.status, cold.text()));
    }
    let warm = request_with_retry(addr, "/v1/experiments", &warm_body, 100)
        .unwrap_or_else(|e| die(&format!("warm run: {e}")));
    if warm.status != 200 {
        die(&format!("warm run failed: {} {}", warm.status, warm.text()));
    }
    if warm.header("x-csd-warm") != Some("1") {
        die("second run was not served from the session cache");
    }
    if cold.body != warm.body {
        die("warm fork bytes differ from cold run bytes");
    }
    println!(
        "loadgen: verify-warm ok ({} identical bytes, warm fork hit the cache)",
        warm.body.len()
    );
}

/// One-shot request through the shared retry client (connect retries,
/// `503` backoff honoring `Retry-After`, reconnect on transport errors).
fn request_with_retry(
    addr: &str,
    target: &str,
    body: &str,
    max_attempts: u32,
) -> std::io::Result<ClientResponse> {
    let mut client = RetryClient::new(addr, 0x10AD_5EED);
    if body.is_empty() && !target.starts_with("/v1/experiments") {
        client.get(target, max_attempts)
    } else {
        client.post_json(target, body, max_attempts)
    }
}

fn simple(addr: &str, method: &str, target: &str, body: &str) -> String {
    let mut client = Client::connect(addr).unwrap_or_else(|e| die(&format!("connect {addr}: {e}")));
    let resp = client
        .request(method, target, body.as_bytes())
        .unwrap_or_else(|e| die(&format!("{method} {target}: {e}")));
    if resp.status != 200 {
        die(&format!(
            "{method} {target}: {} {}",
            resp.status,
            resp.text()
        ));
    }
    resp.text()
}

fn die(msg: &str) -> ! {
    eprintln!("loadgen: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::load_exit_code;

    #[test]
    fn summary_write_failure_fails_the_run() {
        assert_eq!(load_exit_code(0, false), 0);
        assert_eq!(load_exit_code(3, false), 1);
        assert_eq!(
            load_exit_code(0, true),
            1,
            "unreadable summary must not pass"
        );
        assert_eq!(load_exit_code(3, true), 1);
    }
}
