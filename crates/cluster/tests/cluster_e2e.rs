//! End-to-end cluster tests over real sockets: spawn `csd-serve`
//! daemons, shard the quick suite across them, and `cmp` the merged
//! artifact against the single-node CLI bytes — including a run where
//! one of three workers is killed mid-suite (emulated by a TCP proxy
//! that stops accepting and resets its streams, which is what a
//! `kill -9`'d daemon looks like from the coordinator's side).

use csd_bench::suite::{journal_meta, run_filtered, run_suite, SuiteConfig};
use csd_cluster::{run_suite_distributed, ClusterConfig, DistributedOutput, WorkerPool};
use csd_serve::{Server, ServerConfig, ShutdownHandle};
use csd_telemetry::{Journal, Json, RunJournal};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

const SEED: u64 = 0xC5D_2018;

/// The single-node CLI artifact every distributed run must reproduce,
/// computed once per test process.
fn cli_bytes() -> &'static str {
    static CLI: OnceLock<String> = OnceLock::new();
    CLI.get_or_init(|| {
        run_suite(&SuiteConfig::quick(SEED, 1), None)
            .expect("unjournaled run")
            .json
            .pretty()
    })
}

/// Boots a daemon on an ephemeral port (the `server_e2e` pattern).
fn boot() -> (String, ShutdownHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 16,
        cache_cap: 8,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

fn counter(telemetry: &Json, name: &str) -> u64 {
    telemetry
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("telemetry counter {name} missing"))
}

#[test]
fn three_worker_quick_suite_is_byte_identical_to_cli() {
    let pool = WorkerPool::spawn_local(3, 1).expect("spawn local daemons");
    let (out, telemetry) = run_suite_distributed(
        &pool,
        &SuiteConfig::quick(SEED, 1),
        None,
        &ClusterConfig::default(),
        None,
    )
    .expect("distributed run");
    let DistributedOutput::Full(report) = out else {
        panic!("full-grid run must produce the full report");
    };
    assert_eq!(
        report.json.pretty(),
        cli_bytes(),
        "3-worker artifact must be byte-identical to the CLI suite"
    );
    // Every grid task completed exactly once into the artifact.
    assert_eq!(counter(&telemetry, "completed") as usize, 61);
    assert_eq!(counter(&telemetry, "workers_dead"), 0);
    assert_eq!(
        telemetry.get("workers_alive").and_then(Json::as_u64),
        Some(3)
    );
}

#[test]
fn hedged_filtered_run_is_byte_identical_to_cli_filter() {
    // hedge_ms=1 turns *every* in-flight task into a straggler, so the
    // run is a worst-case storm of duplicate dispatches — and the
    // artifact must still come out byte-identical, with every losing
    // copy discarded exactly once (completed stays exact).
    let pool = WorkerPool::spawn_local(2, 1).expect("spawn local daemons");
    let cluster = ClusterConfig {
        hedge_ms: 1,
        ..ClusterConfig::default()
    };
    let cfg = SuiteConfig::quick(SEED, 1);
    let (out, telemetry) = run_suite_distributed(&pool, &cfg, Some("attack/"), &cluster, None)
        .expect("distributed run");
    let DistributedOutput::Filtered(doc) = out else {
        panic!("filtered run must produce the reduced document");
    };
    assert_eq!(
        doc.pretty(),
        run_filtered(&cfg, "attack/", None)
            .expect("unjournaled run")
            .pretty(),
        "hedged filtered artifact must match `suite --filter` bytes"
    );
    assert_eq!(counter(&telemetry, "completed"), 6, "6 attack tasks");
    assert!(
        counter(&telemetry, "hedges") >= 1,
        "a 1ms threshold must hedge at least one straggler"
    );
    assert!(
        counter(&telemetry, "hedges") >= counter(&telemetry, "hedge_discards"),
        "at most one discard per hedge copy"
    );
}

#[test]
fn cluster_resumes_a_single_node_journal() {
    // The journal meta pins only (profile, seed, filter) — not who ran
    // the tasks — so a run that "crashed" under the single-node suite
    // resumes under the cluster. Journal the whole grid single-node,
    // keep the first 40 records, and let two workers finish the rest.
    let cfg = SuiteConfig::quick(SEED, 2);
    let meta = journal_meta(&cfg, None);
    let dir = std::env::temp_dir().join(format!("csd-cluster-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let full = dir.join("full.journal");
    let rj = RunJournal::open(&full, &meta).expect("create journal");
    run_suite(&cfg, Some(&Mutex::new(rj))).expect("single-node journaled run");
    let frames = Journal::open(&full).expect("reopen journal").records;
    let tasks = frames.len() - 1;

    let cut = dir.join("cut.journal");
    let keep = 40.min(tasks - 1);
    let mut j = Journal::create(&cut).expect("create cut journal");
    for rec in frames.iter().take(1 + keep) {
        j.append(rec).expect("append prefix frame");
    }
    drop(j);

    let rj = RunJournal::open(&cut, &meta).expect("reopen cut journal");
    assert_eq!(rj.replayed().len(), keep);
    let journal = Mutex::new(rj);
    let pool = WorkerPool::spawn_local(2, 1).expect("spawn local daemons");
    let (out, telemetry) =
        run_suite_distributed(&pool, &cfg, None, &ClusterConfig::default(), Some(&journal))
            .expect("distributed resume");
    let DistributedOutput::Full(report) = out else {
        panic!("full-grid run must produce the full report");
    };
    assert_eq!(
        report.json.pretty(),
        cli_bytes(),
        "cluster resume of a suite journal must still be CLI bytes"
    );
    // Only the remainder was dispatched; the journal now holds it all.
    assert_eq!(counter(&telemetry, "completed") as usize, tasks - keep);
    assert_eq!(
        telemetry.get("replayed").and_then(Json::as_u64),
        Some(keep as u64)
    );
    assert_eq!(
        Journal::open(&cut).expect("reopen").records.len(),
        1 + tasks,
        "no task journaled twice"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Kill-one-worker chaos: a TCP proxy that dies like a `kill -9`
// ---------------------------------------------------------------------

/// Forwards bytes one way, watching for the kill flag every 10ms; on
/// kill both streams are shut down (the peer sees a reset/EOF, exactly
/// like a daemon that was SIGKILLed mid-response).
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    kill: Arc<AtomicBool>,
    trip: Option<(Arc<AtomicU64>, u64)>,
) {
    from.set_read_timeout(Some(Duration::from_millis(10)))
        .expect("set proxy read timeout");
    let mut buf = [0u8; 4096];
    loop {
        if kill.load(Ordering::SeqCst) {
            let _ = from.shutdown(std::net::Shutdown::Both);
            let _ = to.shutdown(std::net::Shutdown::Both);
            return;
        }
        match from.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                if let Some((posts, limit)) = &trip {
                    let seen = buf[..n].windows(4).filter(|w| w == b"POST").count() as u64;
                    if seen > 0 && posts.fetch_add(seen, Ordering::SeqCst) + seen > *limit {
                        // The fatal request: never forwarded. The kill
                        // lands mid-suite, with work in flight on both
                        // sides of this proxy.
                        kill.store(true, Ordering::SeqCst);
                        continue;
                    }
                }
                if to.write_all(&buf[..n]).is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// A proxy in front of `backend` that emulates `kill -9` after
/// forwarding `max_posts` experiment requests: the listener is dropped
/// (connects refused) and every live stream is reset.
fn kill_proxy(backend: String, max_posts: u64) -> (String, Arc<AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr").to_string();
    let kill = Arc::new(AtomicBool::new(false));
    let posts = Arc::new(AtomicU64::new(0));
    let flag = Arc::clone(&kill);
    std::thread::spawn(move || {
        listener.set_nonblocking(true).expect("nonblocking proxy");
        loop {
            if flag.load(Ordering::SeqCst) {
                return; // drops the listener: connects now refused
            }
            match listener.accept() {
                Ok((client, _)) => {
                    let Ok(server) = TcpStream::connect(&backend) else {
                        continue;
                    };
                    let (c2, s2) = (
                        client.try_clone().expect("clone client"),
                        server.try_clone().expect("clone server"),
                    );
                    let (k1, k2) = (Arc::clone(&flag), Arc::clone(&flag));
                    let p = Arc::clone(&posts);
                    std::thread::spawn(move || pump(client, server, k1, Some((p, max_posts))));
                    std::thread::spawn(move || pump(s2, c2, k2, None));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => return,
            }
        }
    });
    (addr, kill)
}

#[test]
fn killing_one_of_three_workers_mid_suite_still_matches_cli_bytes() {
    let (a1, h1, j1) = boot();
    let (a2, h2, j2) = boot();
    let (backend, h3, j3) = boot();
    // Worker 3 sits behind the kill proxy: after 2 experiment requests
    // it dies exactly the way a SIGKILLed daemon does.
    let (proxied, killed) = kill_proxy(backend, 2);

    let pool = WorkerPool::from_addrs(&[proxied, a1, a2]);
    let cluster = ClusterConfig {
        // Fail fast on the dead worker: short transport budget and an
        // aggressive prober, so the 61-task run spends its time on
        // simulation, not on waiting out timeouts.
        attempts: 2,
        task_timeout: Duration::from_secs(120),
        health_interval: Duration::from_millis(100),
        probe_failures_to_kill: 3,
        ..ClusterConfig::default()
    };
    let (out, telemetry) =
        run_suite_distributed(&pool, &SuiteConfig::quick(SEED, 1), None, &cluster, None)
            .expect("run must converge on the surviving workers");
    let DistributedOutput::Full(report) = out else {
        panic!("full-grid run must produce the full report");
    };

    assert!(
        killed.load(Ordering::SeqCst),
        "the proxy must actually have died mid-run"
    );
    assert_eq!(
        report.json.pretty(),
        cli_bytes(),
        "artifact after a mid-suite worker kill must still be CLI bytes"
    );
    assert_eq!(counter(&telemetry, "workers_dead"), 1);
    assert!(
        counter(&telemetry, "reassigned") >= 1,
        "the dead worker's in-flight units must have been reassigned"
    );
    assert_eq!(
        telemetry.get("workers_alive").and_then(Json::as_u64),
        Some(2)
    );

    for (h, j) in [(h1, j1), (h2, j2), (h3, j3)] {
        h.trigger();
        j.join().expect("server exits cleanly");
    }
}
