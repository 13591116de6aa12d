//! End-to-end tests over real sockets: boot a daemon on an ephemeral
//! port, talk HTTP to it with the `loadgen` client library, and check
//! the service contracts — byte-deterministic task documents, warm
//! forks, admission control, NDJSON streaming, graceful shutdown.

use csd_bench::suite::{run_filtered, SuiteConfig};
use csd_serve::{Client, FaultMode, Server, ServerConfig, ShutdownHandle};
use csd_telemetry::Json;
use std::time::{Duration, Instant};

/// Boots a daemon on port 0; returns its address, shutdown handle, and
/// the join handle for asserting a clean exit.
fn boot(workers: usize, queue_cap: usize) -> (String, ShutdownHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_cap,
        cache_cap: 8,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

fn shutdown_and_join(handle: &ShutdownHandle, join: std::thread::JoinHandle<()>) {
    handle.trigger();
    join.join().expect("server exits cleanly after drain");
}

#[test]
fn served_task_bytes_match_the_cli_suite() {
    let (addr, handle, join) = boot(2, 8);
    let mut client = Client::connect(&addr).unwrap();

    let resp = client
        .post_json(
            "/v1/experiments",
            "{\"task\": \"table1\", \"profile\": \"quick\", \"seed\": 51}",
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());

    let cli = run_filtered(&SuiteConfig::quick(51, 1), "table1", None)
        .expect("unjournaled run")
        .pretty();
    assert_eq!(
        resp.text(),
        cli,
        "served document must be byte-identical to suite --filter"
    );

    shutdown_and_join(&handle, join);
}

#[test]
fn warm_fork_over_http_matches_cold_and_reports_header() {
    let (addr, handle, join) = boot(2, 8);
    let mut client = Client::connect(&addr).unwrap();
    let body = "{\"experiment\": {\"victim\": \"aes-enc\", \"stealth\": true, \
                 \"watchdog\": 2000, \"blocks\": 2, \"seed\": 9}}";

    let cold = client.post_json("/v1/experiments", body).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(cold.header("x-csd-warm"), Some("0"));

    let warm = client.post_json("/v1/experiments", body).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-csd-warm"), Some("1"), "second run must hit");
    assert_eq!(
        cold.body, warm.body,
        "warm and cold bodies must be identical"
    );

    // Metrics observed both paths, including the session-cache counters
    // and the per-leg accounting from the plan executor.
    let metrics = Json::parse(&client.get("/metrics").unwrap().text()).unwrap();
    assert_eq!(metrics.get("warm_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(metrics.get("cold_runs").and_then(Json::as_u64), Some(1));
    assert_eq!(metrics.get("plan_legs").and_then(Json::as_u64), Some(2));
    assert_eq!(metrics.get("session_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(
        metrics.get("session_misses").and_then(Json::as_u64),
        Some(1)
    );
    assert!(
        metrics
            .get("run_us")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap()
            >= 2
    );

    shutdown_and_join(&handle, join);
}

#[test]
fn multi_leg_plan_matches_legs_run_one_at_a_time_cold() {
    // One typed spec with four legs warms once and forks per leg; every
    // leg's document must be byte-identical to the same leg posted alone
    // with `cold: true` (fresh warm-up, no cache) — the observable proof
    // that forking a checkpoint is free of cross-leg contamination.
    let (addr, handle, join) = boot(2, 8);
    let mut client = Client::connect(&addr).unwrap();
    let legs = [
        "{\"mode\": \"base\"}",
        "{\"mode\": \"stealth\", \"watchdog\": 2000}",
        "{\"mode\": \"stealth\", \"watchdog\": 4000}",
        "{\"mode\": \"devec\", \"policy\": \"always-on\"}",
    ];
    let multi_body = format!(
        "{{\"experiment\": {{\"victim\": \"aes-enc\", \"pipeline\": \"opt\", \"seed\": 21, \
         \"blocks\": 2, \"legs\": [{}]}}}}",
        legs.join(", ")
    );
    let multi = client.post_json("/v1/experiments", &multi_body).unwrap();
    assert_eq!(multi.status, 200, "{}", multi.text());
    let multi_doc = Json::parse(&multi.text()).unwrap();
    let served_legs = match multi_doc.get("legs") {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("response lacks a legs array: {other:?}"),
    };
    assert_eq!(served_legs.len(), legs.len());

    for (i, (leg, served)) in legs.iter().zip(&served_legs).enumerate() {
        let one_body = format!(
            "{{\"experiment\": {{\"victim\": \"aes-enc\", \"pipeline\": \"opt\", \"seed\": 21, \
             \"blocks\": 2, \"cold\": true, \"legs\": [{leg}]}}}}"
        );
        let one = client.post_json("/v1/experiments", &one_body).unwrap();
        assert_eq!(one.status, 200, "{}", one.text());
        assert_eq!(one.header("x-csd-warm"), Some("0"), "cold skips the cache");
        let one_doc = Json::parse(&one.text()).unwrap();
        let solo = match one_doc.get("legs") {
            Some(Json::Arr(items)) if items.len() == 1 => &items[0],
            other => panic!("single-leg response malformed: {other:?}"),
        };
        assert_eq!(
            served.pretty(),
            solo.pretty(),
            "leg {i} of the plan must be byte-identical to its solo cold run"
        );
    }

    // The whole comparison cost exactly one warm-up on the plan side.
    let metrics = Json::parse(&client.get("/metrics").unwrap().text()).unwrap();
    assert_eq!(
        metrics.get("plan_legs").and_then(Json::as_u64),
        Some(legs.len() as u64 * 2)
    );
    assert_eq!(
        metrics.get("session_misses").and_then(Json::as_u64),
        Some(5)
    );

    shutdown_and_join(&handle, join);
}

/// Polls `/metrics` until `key` reaches `want`, so saturation tests can
/// sequence on observed daemon state instead of wall-clock sleeps (which
/// flake when the whole workspace's test binaries compete for CPU).
fn wait_for_counter(addr: &str, key: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut client = Client::connect(addr).expect("connect for metrics poll");
        let metrics = Json::parse(&client.get("/metrics").unwrap().text()).unwrap();
        if metrics.get(key).and_then(Json::as_u64).unwrap_or(0) >= want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {key} >= {want}: {}",
            metrics.pretty()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn full_queue_rejects_with_503_and_retry_after() {
    // One worker, one queue slot: a stalled job plus one queued job
    // saturate the daemon; the third request must be rejected fast, not
    // hang. The stall is an injected sleep fault — it holds the worker
    // for a fixed wall-clock interval no matter how loaded the machine
    // is — and each stage is sequenced on `/metrics` counters rather
    // than local sleeps, so the ordering cannot scramble under load.
    let (addr, handle, join) = {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_cap: 1,
            cache_cap: 8,
            fault: Some(FaultMode { seed: 0x503 }),
            ..ServerConfig::default()
        })
        .expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound address").to_string();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().expect("server run"));
        (addr, handle, join)
    };
    let slow = "{\"fault\": {\"kind\": \"sleep\", \"ms\": 2000}}";
    let queued = "{\"experiment\": {\"victim\": \"aes-enc\", \"blocks\": 2, \"seed\": 2}}";
    let rejected = "{\"experiment\": {\"victim\": \"aes-enc\", \"blocks\": 2, \"seed\": 3}}";

    std::thread::scope(|s| {
        let a = s.spawn(|| {
            Client::connect(&addr)
                .unwrap()
                .post_json("/v1/experiments", slow)
                .unwrap()
        });
        // The worker bumps `injected_faults` when it claims the sleep
        // job; from then on it is pinned for a full 2s.
        wait_for_counter(&addr, "injected_faults", 1);
        let b = s.spawn(|| {
            Client::connect(&addr)
                .unwrap()
                .post_json("/v1/experiments", queued)
                .unwrap()
        });
        // The queued job fills the single queue slot.
        wait_for_counter(&addr, "queue_depth", 1);

        let t0 = Instant::now();
        let c = Client::connect(&addr)
            .unwrap()
            .post_json("/v1/experiments", rejected)
            .unwrap();
        assert_eq!(
            c.status,
            503,
            "third request must be rejected: {}",
            c.text()
        );
        assert_eq!(c.header("retry-after"), Some("1"));
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "rejection must be fast-fail, not queued-behind-work"
        );

        assert_eq!(a.join().unwrap().status, 200, "stalled job still completes");
        assert_eq!(b.join().unwrap().status, 200, "queued job still completes");
    });

    let mut client = Client::connect(&addr).unwrap();
    let metrics = Json::parse(&client.get("/metrics").unwrap().text()).unwrap();
    assert_eq!(metrics.get("rejected").and_then(Json::as_u64), Some(1));

    shutdown_and_join(&handle, join);
}

#[test]
fn stream_serves_ndjson_events_with_summary() {
    let (addr, handle, join) = boot(1, 4);
    let mut client = Client::connect(&addr).unwrap();
    let resp = client
        .get("/v1/stream?victim=aes-enc&stealth=true&blocks=2&seed=5&sample=1&max=50")
        .unwrap();
    assert_eq!(resp.status, 200);
    let text = resp.text();
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert!(lines.len() >= 2, "expected events plus a summary: {text:?}");
    for line in &lines {
        Json::parse(line).unwrap_or_else(|e| panic!("bad NDJSON line {line:?}: {e}"));
    }
    let summary = Json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(summary.get("done"), Some(&Json::Bool(true)));
    assert!(summary
        .get("metrics")
        .and_then(|m| m.get("cycles"))
        .is_some());
    let events = summary.get("events").and_then(Json::as_u64).unwrap();
    assert!(events >= 1, "a stealth run must emit events");
    // Event lines precede the summary and carry an "event" tag.
    let first = Json::parse(lines[0]).unwrap();
    assert!(first.get("event").is_some());

    shutdown_and_join(&handle, join);
}

#[test]
fn routes_and_errors() {
    let (addr, handle, join) = boot(1, 4);
    let mut client = Client::connect(&addr).unwrap();

    let ok = client.get("/healthz").unwrap();
    assert_eq!(ok.status, 200);
    assert_eq!(
        Json::parse(&ok.text()).unwrap().get("ok"),
        Some(&Json::Bool(true))
    );

    let tasks = Json::parse(&client.get("/v1/tasks?filter=wd/").unwrap().text()).unwrap();
    assert_eq!(tasks.get("count").and_then(Json::as_u64), Some(8));

    assert_eq!(client.get("/no/such").unwrap().status, 404);
    assert_eq!(client.request("PUT", "/metrics", b"").unwrap().status, 405);
    // Bodies refused at admission: 400 with the parse error class. The
    // devec bodies name a policy or workload outside the tables.
    for body in [
        "not json",
        "{\"experiment\": {\"victim\": \"nope\"}}",
        "{\"task\": \"no-such-task\"}",
        "{\"devec\": {\"workload\": \"gcc\", \"policy\": \"no-such-policy\"}}",
        "{\"devec\": {\"workload\": \"no-such-workload\"}}",
    ] {
        let resp = client.post_json("/v1/experiments", body).unwrap();
        assert_eq!(resp.status, 400, "body {body}");
        let err = Json::parse(&resp.text()).unwrap();
        assert_eq!(
            err.get("class").and_then(Json::as_str),
            Some("parse"),
            "body {body}"
        );
    }

    shutdown_and_join(&handle, join);
}

#[test]
fn shutdown_endpoint_drains_in_flight_work() {
    let (addr, handle, join) = boot(1, 4);

    // A long job is mid-flight when shutdown is requested; the daemon
    // must answer it before exiting.
    let slow = "{\"experiment\": {\"victim\": \"aes-enc\", \"blocks\": 128, \"seed\": 4}}";
    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            Client::connect(&addr)
                .unwrap()
                .post_json("/v1/experiments", slow)
                .unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(300));

    let mut client = Client::connect(&addr).unwrap();
    let resp = client.post_json("/v1/shutdown", "{}").unwrap();
    assert_eq!(resp.status, 200);
    assert!(handle.is_triggered());

    let in_flight = worker.join().unwrap();
    assert_eq!(
        in_flight.status,
        200,
        "in-flight work must drain: {}",
        in_flight.text()
    );

    join.join().expect("server exits 0 after drain");
    assert!(
        std::net::TcpStream::connect(&addr).is_err()
            || Client::connect(&addr)
                .and_then(|mut c| c.get("/healthz"))
                .is_err(),
        "listener must be gone after shutdown"
    );
}
