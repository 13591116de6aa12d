//! The `csd-serve` daemon entry point.
//!
//! ```text
//! cargo run --release -p csd-serve --bin csd-serve -- \
//!     [--addr HOST:PORT] [--workers N] [--queue-cap N] [--cache-cap N] \
//!     [--conn-deadline-ms MS] [--write-timeout-ms MS]
//! ```
//!
//! Serves until SIGINT/SIGTERM or `POST /v1/shutdown`, drains in-flight
//! work, and exits 0. Setting `CSD_FAULT_SEED` arms the fault-injection
//! endpoint (`{"fault": ...}` jobs) for chaos testing; never set it on a
//! daemon you care about.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use csd_serve::{install_signal_handler, FaultMode, Server, ServerConfig};
use std::time::Duration;

fn main() {
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => cfg.addr = args.next().unwrap_or_else(|| die("--addr needs HOST:PORT")),
            "--workers" => {
                cfg.workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--workers needs a positive integer"));
            }
            "--queue-cap" => {
                cfg.queue_cap = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--queue-cap needs a positive integer"));
            }
            "--cache-cap" => {
                cfg.cache_cap = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--cache-cap needs a positive integer"));
            }
            "--conn-deadline-ms" => {
                cfg.conn_deadline = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .map(Duration::from_millis)
                    .unwrap_or_else(|| die("--conn-deadline-ms needs a positive integer"));
            }
            "--write-timeout-ms" => {
                cfg.write_timeout = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .map(Duration::from_millis)
                    .unwrap_or_else(|| die("--write-timeout-ms needs a positive integer"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: csd-serve [--addr HOST:PORT] [--workers N] [--queue-cap N] [--cache-cap N]\n\
                     \x20                [--conn-deadline-ms MS] [--write-timeout-ms MS]\n\
                     Serves the experiment grid over HTTP. Endpoints:\n\
                     \x20 GET  /healthz          liveness\n\
                     \x20 GET  /metrics          counters + latency histograms\n\
                     \x20 GET  /v1/tasks         task labels (?filter=SUBSTR)\n\
                     \x20 POST /v1/experiments   run a task / experiment / devec job\n\
                     \x20 GET  /v1/stream        NDJSON event telemetry for one experiment\n\
                     \x20 POST /v1/shutdown      graceful drain + exit 0\n\
                     SIGINT/SIGTERM also drain gracefully.\n\
                     CSD_FAULT_SEED=N arms fault injection ({{\"fault\": ...}} jobs)."
                );
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    cfg.fault = FaultMode::from_env();
    install_signal_handler();
    let server = Server::bind(&cfg).unwrap_or_else(|e| die(&format!("bind {}: {e}", cfg.addr)));
    let addr = server
        .local_addr()
        .unwrap_or_else(|e| die(&format!("local addr: {e}")));
    eprintln!(
        "csd-serve: listening on {addr} (workers={} queue-cap={} cache-cap={}{})",
        cfg.workers,
        cfg.queue_cap,
        cfg.cache_cap,
        match cfg.fault {
            Some(f) => format!(" FAULT-INJECTION ARMED seed={:#x}", f.seed),
            None => String::new(),
        }
    );
    if let Err(e) = server.run() {
        die(&format!("serve: {e}"));
    }
    eprintln!("csd-serve: drained, exiting");
}

fn die(msg: &str) -> ! {
    eprintln!("csd-serve: {msg}");
    std::process::exit(2);
}
