//! The `csd-serve` daemon: accept loop, worker pool, routing, and
//! graceful shutdown.
//!
//! Architecture (one box per thread kind):
//!
//! ```text
//!   accept loop ──► connection threads ──► bounded job queue ──► workers
//!   (nonblocking)   (parse HTTP, admit)    (try_push / 503)      (simulate)
//!        │                 ▲                                        │
//!        │                 └──────────── reply channel ◄────────────┘
//!        └─ shutdown: stop accepting → close queue → drain → join → exit 0
//! ```
//!
//! Connection threads do I/O only; every simulation runs on one of the
//! fixed worker threads, so a burst of clients degrades into `503 +
//! Retry-After` instead of unbounded thread fan-out. `GET /v1/stream`
//! is the one exception: it owns its connection for the duration and
//! runs the simulation on a dedicated thread that feeds NDJSON back
//! through a channel.
//!
//! ## Failure containment
//!
//! A panicking job is caught at the worker (`catch_unwind`), answered
//! with a `500` carrying the panic message, and counted; locks the
//! panic unwound through are poison-recovered on the next access (see
//! [`crate::lock`]). Stalled peers cannot pin a connection thread: reads
//! poll with a timeout, writes carry a timeout, and each connection has
//! an overall deadline for producing a complete request. Every failure
//! is classified per [`crate::error::ErrorClass`] in `/metrics`.

use crate::error::{panic_message, ErrorClass, ServeError};
use crate::fault::{FaultMode, FaultSpec};
use crate::http::{Poll, Request, RequestReader, Response};
use crate::metrics::Metrics;
use crate::queue::{Bounded, PushError};
use crate::session::SessionCache;
use csd_bench::run_devec;
use csd_bench::suite::{run_filtered, SuiteConfig};
use csd_bench::tasks::filter_tasks;
use csd_exp::{
    apply_leg_mode, measure_blocks, pipelines, policies, policy_by_name, run_plan, security_core,
    security_victims, warm_up, ExperimentSpec,
};
use csd_telemetry::{
    DecodeEvent, EventSink, GateEvent, Json, SplitMix64, StealthWindowEvent, ToJson,
};
use csd_workloads::{specs, Workload};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8321` (port `0` for tests).
    pub addr: String,
    /// Simulation worker threads.
    pub workers: usize,
    /// Bounded job-queue capacity (admission control).
    pub queue_cap: usize,
    /// Warmed sessions kept in the LRU cache.
    pub cache_cap: usize,
    /// How long a connection may take to deliver one complete request
    /// (slowloris guard). Counted from accept and from the end of each
    /// served request; idle keep-alive connections are closed with
    /// `408` when it expires.
    pub conn_deadline: Duration,
    /// Socket write timeout — a peer that stops reading cannot pin a
    /// connection thread mid-response.
    pub write_timeout: Duration,
    /// Fault-injection mode (`CSD_FAULT_SEED`); `None` refuses
    /// `{"fault": ...}` jobs at admission.
    pub fault: Option<FaultMode>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:8321".to_string(),
            workers: 4,
            queue_cap: 64,
            cache_cap: 16,
            conn_deadline: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
            fault: None,
        }
    }
}

/// What a worker executes for one admitted request.
enum JobSpec {
    /// Run an experiment plan: fork-or-warm a session, measure every leg
    /// (see [`ExperimentSpec`]).
    Experiment(ExperimentSpec),
    /// Run a grid-task subset — byte-identical to `suite --filter`.
    Task {
        filter: String,
        profile: &'static str,
        seed: u64,
    },
    /// Run one workload under one VPU policy.
    Devec {
        workload: &'static str,
        policy: &'static str,
        scale: f64,
    },
    /// An injected fault (only admitted when fault mode is armed).
    Fault(FaultSpec),
}

struct Job {
    spec: JobSpec,
    reply: mpsc::Sender<Response>,
    enqueued: Instant,
}

struct State {
    metrics: Metrics,
    cache: SessionCache,
    queue: Bounded<Job>,
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
    conn_deadline: Duration,
    write_timeout: Duration,
    fault: Option<FaultMode>,
}

impl State {
    /// Builds a response for a classified failure and counts it.
    fn fail(&self, err: &ServeError) -> Response {
        self.metrics.record_error(err.class, err.status);
        let resp = err.response();
        if err.status == 503 {
            resp.with_header("Retry-After", "1")
        } else {
            resp
        }
    }
}

/// Handle for requesting a graceful shutdown from another thread (tests,
/// signal observers).
#[derive(Clone)]
pub struct ShutdownHandle(Arc<State>);

impl ShutdownHandle {
    /// Requests a graceful shutdown: stop accepting, drain, exit.
    pub fn trigger(&self) {
        self.0.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_triggered(&self) -> bool {
        self.0.shutdown.load(Ordering::SeqCst)
    }
}

/// Set by the SIGINT/SIGTERM handler; observed by every accept loop.
static SIGNAL_HIT: AtomicBool = AtomicBool::new(false);

/// Installs a SIGINT + SIGTERM handler that requests graceful shutdown.
/// Signal handlers may only touch async-signal-safe state, so the
/// handler sets one global flag and the accept loop polls it.
#[cfg(unix)]
pub fn install_signal_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SIGNAL_HIT.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

/// No-op off unix; the shutdown endpoint still works everywhere.
#[cfg(not(unix))]
pub fn install_signal_handler() {}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    workers: usize,
    state: Arc<State>,
}

impl Server {
    /// Binds the listen socket (port `0` picks a free port).
    pub fn bind(cfg: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        Ok(Server {
            listener,
            workers: cfg.workers.max(1),
            state: Arc::new(State {
                metrics: Metrics::new(),
                cache: SessionCache::new(cfg.cache_cap),
                queue: Bounded::new(cfg.queue_cap),
                shutdown: AtomicBool::new(false),
                active_conns: AtomicUsize::new(0),
                conn_deadline: cfg.conn_deadline.max(Duration::from_millis(10)),
                write_timeout: cfg.write_timeout.max(Duration::from_millis(10)),
                fault: cfg.fault,
            }),
        })
    }

    /// The actually-bound address (resolves port `0`).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can request shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.state))
    }

    /// Serves until shutdown is requested (handle, endpoint, or signal),
    /// then drains: admitted jobs finish, their responses are written,
    /// workers and connections wind down, and the call returns `Ok(())`
    /// — even if a worker thread died along the way (the loss is logged
    /// and counted in `/metrics` as `workers_lost`; admitted work is
    /// still drained by the surviving workers).
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let worker_handles: Vec<_> = (0..self.workers)
            .map(|_| {
                let state = Arc::clone(&self.state);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();

        loop {
            if self.state.shutdown.load(Ordering::SeqCst) || SIGNAL_HIT.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let state = Arc::clone(&self.state);
                    state.active_conns.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || {
                        // A connection-thread panic (a bug, not a job
                        // panic — those are caught at the worker) must
                        // not abort the process or leak the counter.
                        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let _ = handle_connection(&stream, &state);
                        }));
                        if let Err(payload) = caught {
                            Metrics::bump(&state.metrics.errors_io);
                            eprintln!(
                                "csd-serve: connection thread panicked: {}",
                                panic_message(payload.as_ref())
                            );
                        }
                        state.active_conns.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain: stop admitting, finish queued jobs, then give connection
        // threads (blocked on reply channels or mid-write) a bounded
        // window to flush before returning. A worker that died from a
        // non-job panic is logged and counted — one lost thread must not
        // turn a clean drain into an abort.
        self.state.queue.close();
        for h in worker_handles {
            if let Err(payload) = h.join() {
                Metrics::bump(&self.state.metrics.workers_lost);
                eprintln!(
                    "csd-serve: worker thread lost outside job execution: {}",
                    panic_message(payload.as_ref())
                );
            }
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.state.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }
}

/// Pulls jobs until the queue closes and drains; answers every job.
fn worker_loop(state: &State) {
    while let Some(job) = state.queue.pop() {
        let wait = job.enqueued.elapsed();
        state
            .metrics
            .record_queue_wait_us(wait.as_micros().min(u128::from(u64::MAX)) as u64);
        let t0 = Instant::now();
        // A job that panics (a simulation assertion, an injected fault)
        // must not take the worker down with it — answer 500 with the
        // panic message and keep serving. Locks the panic poisoned are
        // recovered at their next use.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_job(&job.spec, state)
        }));
        state
            .metrics
            .record_run_us(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        let response = match result {
            Ok(Ok(r)) => r,
            Ok(Err(err)) => state.fail(&err),
            Err(payload) => {
                Metrics::bump(&state.metrics.worker_panics);
                state.fail(&ServeError::run(format!(
                    "experiment panicked: {}",
                    panic_message(payload.as_ref())
                )))
            }
        };
        // The connection thread may have vanished; nothing to do then.
        let _ = job.reply.send(response);
    }
}

fn execute_job(spec: &JobSpec, state: &State) -> Result<Response, ServeError> {
    match spec {
        JobSpec::Experiment(exp) => {
            let result = run_plan(exp, &state.cache, 1).map_err(|e| ServeError::run(e.0))?;
            Metrics::bump(&state.metrics.experiments);
            Metrics::bump(if result.warm {
                &state.metrics.warm_hits
            } else {
                &state.metrics.cold_runs
            });
            state
                .metrics
                .plan_legs
                .fetch_add(result.legs.len() as u64, Ordering::Relaxed);
            // Warmness goes in a header so warm and cold bodies stay
            // byte-identical.
            Ok(Response::json(200, &result.to_json())
                .with_header("X-CSD-Warm", if result.warm { "1" } else { "0" }))
        }
        JobSpec::Task {
            filter,
            profile,
            seed,
        } => {
            // jobs=1: this worker thread *is* the parallelism. The report
            // omits the job count, so these bytes still equal a CLI run at
            // any --jobs setting.
            let cfg = SuiteConfig::named(profile, *seed, 1)
                .ok_or_else(|| ServeError::run(format!("profile {profile:?} vanished")))?;
            let doc = run_filtered(&cfg, filter, None).map_err(ServeError::run)?;
            Metrics::bump(&state.metrics.experiments);
            Ok(Response::json_bytes(200, doc.pretty().into_bytes()))
        }
        JobSpec::Devec {
            workload,
            policy,
            scale,
        } => {
            let spec = specs()
                .into_iter()
                .find(|s| s.name == *workload)
                .ok_or_else(|| ServeError::run(format!("workload {workload:?} vanished")))?;
            let vpu_policy = policy_by_name(policy)
                .ok_or_else(|| ServeError::run(format!("policy {policy:?} vanished")))?;
            let run = run_devec(&Workload::with_scale(spec, *scale), vpu_policy);
            Metrics::bump(&state.metrics.experiments);
            Ok(Response::json(
                200,
                &Json::obj([
                    ("workload", Json::from(*workload)),
                    ("policy", Json::from(*policy)),
                    ("scale", Json::from(*scale)),
                    ("run", run.to_json()),
                ]),
            ))
        }
        JobSpec::Fault(fault) => {
            Metrics::bump(&state.metrics.injected_faults);
            match fault {
                FaultSpec::Panic { poison: true } => state.cache.panic_holding_lock(),
                FaultSpec::Panic { poison: false } => panic!("injected fault: panic in job"),
                FaultSpec::Sleep { ms } => {
                    std::thread::sleep(Duration::from_millis(*ms));
                    Ok(Response::json(
                        200,
                        &Json::obj([("fault", Json::from("sleep")), ("ms", Json::from(*ms))]),
                    ))
                }
            }
        }
    }
}

/// Serves one connection: keep-alive request loop with a read timeout so
/// shutdown is noticed between requests, a write timeout so a peer that
/// stops reading cannot pin the thread, and an overall per-request
/// deadline so a dribbling (slowloris) peer is cut off with `408`.
fn handle_connection(stream: &TcpStream, state: &State) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    stream.set_write_timeout(Some(state.write_timeout))?;
    let mut reader = RequestReader::new(stream.try_clone()?);
    let mut out = stream.try_clone()?;
    let mut deadline = Instant::now() + state.conn_deadline;
    loop {
        match reader.next_request()? {
            Poll::Pending => {
                if state.shutdown.load(Ordering::SeqCst) || SIGNAL_HIT.load(Ordering::SeqCst) {
                    return Ok(());
                }
                if Instant::now() >= deadline {
                    // Too slow to deliver a complete request — answer
                    // 408 best-effort and drop the connection.
                    Metrics::bump(&state.metrics.deadline_closes);
                    state.metrics.record_error(ErrorClass::Io, 408);
                    let err = ServeError {
                        class: ErrorClass::Io,
                        status: 408,
                        message: "connection deadline exceeded".to_string(),
                    };
                    let _ = err.response().write_to(&mut out, true);
                    return Ok(());
                }
            }
            Poll::Eof => return Ok(()),
            Poll::Bad(failure) => {
                let err = match failure {
                    crate::http::ParseFailure::TooLarge => ServeError {
                        class: ErrorClass::Parse,
                        status: 413,
                        message: "request too large".to_string(),
                    },
                    crate::http::ParseFailure::Malformed(m) => ServeError::parse(m),
                };
                state.fail(&err).write_to(&mut out, true)?;
                return Ok(());
            }
            Poll::Ready(req) => {
                Metrics::bump(&state.metrics.requests);
                if req.method == "GET" && req.path == "/v1/stream" {
                    // Takes over the connection; always closes after.
                    return serve_stream(&req, &mut out, state);
                }
                let draining =
                    state.shutdown.load(Ordering::SeqCst) || SIGNAL_HIT.load(Ordering::SeqCst);
                let response = match route(&req, state) {
                    Ok(r) => r,
                    Err(err) => state.fail(&err),
                };
                let close = req.wants_close() || draining;
                response.write_to(&mut out, close)?;
                if close {
                    return Ok(());
                }
                // The next request gets a fresh deadline window.
                deadline = Instant::now() + state.conn_deadline;
            }
        }
    }
}

fn route(req: &Request, state: &State) -> Result<Response, ServeError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Ok(Response::json(200, &Json::obj([("ok", Json::Bool(true))]))),
        ("GET", "/metrics") => {
            let mut doc = state.metrics.to_json();
            doc.push_member("queue_depth", Json::from(state.queue.len() as u64));
            doc.push_member("sessions", Json::from(state.cache.len() as u64));
            doc.push_member("session_hits", Json::from(state.cache.hits()));
            doc.push_member("session_misses", Json::from(state.cache.misses()));
            Ok(Response::json(200, &doc))
        }
        ("GET", "/v1/tasks") => {
            let filter = req.query_param("filter").unwrap_or("");
            let cfg = SuiteConfig::quick(0, 1); // labels are profile-independent
            let labels: Vec<Json> = filter_tasks(&cfg, filter)
                .iter()
                .map(|t| Json::from(t.label()))
                .collect();
            Ok(Response::json(
                200,
                &Json::obj([
                    ("count", Json::from(labels.len() as u64)),
                    ("tasks", Json::Arr(labels)),
                ]),
            ))
        }
        ("POST", "/v1/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            Ok(Response::json(
                200,
                &Json::obj([("ok", Json::Bool(true)), ("draining", Json::Bool(true))]),
            ))
        }
        ("POST", "/v1/experiments") => submit_experiment(req, state),
        (_, "/healthz" | "/metrics" | "/v1/tasks" | "/v1/stream" | "/v1/experiments") => {
            Err(ServeError::admission(405, "method not allowed"))
        }
        _ => Err(ServeError::admission(404, "no such route")),
    }
}

/// Parses, validates, and admits an experiment request, then blocks on
/// the worker's reply. Admission failures answer immediately — the
/// client is never left hanging on a full queue.
fn submit_experiment(req: &Request, state: &State) -> Result<Response, ServeError> {
    let spec = parse_experiment_body(&req.body, state.fault)?;
    let (tx, rx) = mpsc::channel();
    let job = Job {
        spec,
        reply: tx,
        enqueued: Instant::now(),
    };
    if let Err(err) = state.queue.try_push(job) {
        let msg = match err {
            PushError::Full(_) => "queue full",
            PushError::Closed(_) => "server draining",
        };
        return Err(ServeError::admission(503, msg));
    }
    match rx.recv() {
        Ok(response) => Ok(response),
        Err(_) => {
            // Workers exited mid-drain with the job still queued; the
            // queue drains admitted jobs before close, so this only
            // happens if every worker was lost entirely.
            Err(ServeError::io("worker lost"))
        }
    }
}

fn parse_experiment_body(body: &[u8], fault: Option<FaultMode>) -> Result<JobSpec, ServeError> {
    let text =
        std::str::from_utf8(body).map_err(|_| ServeError::parse("body must be UTF-8 JSON"))?;
    let doc =
        Json::parse(text).map_err(|e| ServeError::parse(format!("body is not valid JSON: {e}")))?;

    if let Some(label) = doc.get("task") {
        let filter = label
            .as_str()
            .ok_or_else(|| ServeError::parse("task must be a string label/substring"))?
            .to_string();
        let profile = match doc.get("profile") {
            None => "quick",
            Some(p) => match p.as_str() {
                Some("quick") => "quick",
                Some("full") => "full",
                _ => return Err(ServeError::parse("profile must be \"quick\" or \"full\"")),
            },
        };
        let seed = match doc.get("seed") {
            None => 0xC5D_2018,
            Some(s) => s
                .as_u64()
                .ok_or_else(|| ServeError::parse("seed must be a non-negative integer"))?,
        };
        let cfg = SuiteConfig::named(profile, seed, 1)
            .ok_or_else(|| ServeError::parse(format!("unknown profile {profile:?}")))?;
        if filter_tasks(&cfg, &filter).is_empty() {
            return Err(ServeError::parse(format!(
                "task {filter:?} matches nothing (try GET /v1/tasks)"
            )));
        }
        return Ok(JobSpec::Task {
            filter,
            profile,
            seed,
        });
    }
    if let Some(exp) = doc.get("experiment") {
        return ExperimentSpec::from_json(exp)
            .map(JobSpec::Experiment)
            .map_err(ServeError::parse);
    }
    if let Some(d) = doc.get("devec") {
        let workload_name = d
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| ServeError::parse("devec.workload must be a string"))?;
        let workload = specs()
            .into_iter()
            .find(|s| s.name == workload_name)
            .map(|s| s.name)
            .ok_or_else(|| ServeError::parse(format!("unknown workload {workload_name:?}")))?;
        let policy_name = d
            .get("policy")
            .and_then(Json::as_str)
            .unwrap_or("csd-devec");
        let policy = policies()
            .into_iter()
            .map(|(n, _)| n)
            .find(|n| *n == policy_name)
            .ok_or_else(|| ServeError::parse(format!("unknown policy {policy_name:?}")))?;
        let scale = match d.get("scale") {
            None => 0.05,
            Some(s) => s
                .as_f64()
                .ok_or_else(|| ServeError::parse("devec.scale must be a number"))?,
        };
        if !(scale > 0.0 && scale <= 1.0) {
            return Err(ServeError::parse("devec.scale must be in (0, 1]"));
        }
        return Ok(JobSpec::Devec {
            workload,
            policy,
            scale,
        });
    }
    if let Some(f) = doc.get("fault") {
        if fault.is_none() {
            // Not a parse failure: the body is well-formed, the daemon
            // just refuses to hurt itself unless explicitly armed.
            return Err(ServeError::admission(
                403,
                "fault injection is disabled (set CSD_FAULT_SEED to arm)",
            ));
        }
        return FaultSpec::from_json(f)
            .map(JobSpec::Fault)
            .map_err(ServeError::parse);
    }
    Err(ServeError::parse(
        "body must contain one of \"task\", \"experiment\", \"devec\", \"fault\"",
    ))
}

// ---------------------------------------------------------------------
// NDJSON event streaming
// ---------------------------------------------------------------------

/// Engine-side sink that forwards every `sample`-th CSD event (up to
/// `max` total) as one compact JSON line. `try_send` keeps the simulation
/// from blocking on a slow reader; dropped lines are counted and
/// reported in the final summary.
struct StreamSink {
    tx: SyncSender<String>,
    sample: u64,
    max: u64,
    seen: u64,
    emitted: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
}

impl StreamSink {
    fn emit(&mut self, line: Json) {
        self.seen += 1;
        if !self.seen.is_multiple_of(self.sample)
            || self.emitted.load(Ordering::Relaxed) >= self.max
        {
            return;
        }
        match self.tx.try_send(line.dump()) {
            Ok(()) => {
                self.emitted.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl EventSink for StreamSink {
    fn on_decode(&mut self, e: &DecodeEvent) {
        self.emit(Json::obj([
            ("event", Json::from("decode")),
            ("addr", Json::from(e.addr)),
            ("context", Json::from(u64::from(e.context))),
            ("uops", Json::from(u64::from(e.uops))),
            ("decoy_uops", Json::from(u64::from(e.decoy_uops))),
        ]));
    }

    fn on_gate(&mut self, e: &GateEvent) {
        self.emit(Json::obj([
            ("event", Json::from("gate")),
            ("gated", Json::Bool(e.gated)),
            ("transitions", Json::from(e.transitions)),
        ]));
    }

    fn on_stealth_window(&mut self, e: &StealthWindowEvent) {
        self.emit(Json::obj([
            ("event", Json::from("stealth_window")),
            ("addr", Json::from(e.addr)),
            ("decoy_uops", Json::from(u64::from(e.decoy_uops))),
        ]));
    }
}

/// `GET /v1/stream?victim=..&stealth=..&blocks=..&sample=..&max=..` —
/// runs one experiment on a dedicated thread with a [`StreamSink`]
/// attached to the CSD engine, writing events as NDJSON while the
/// simulation runs and a `{"done":true,...}` summary line at the end.
fn serve_stream(req: &Request, out: &mut TcpStream, state: &State) -> std::io::Result<()> {
    let spec = match experiment_from_query(req) {
        Ok(spec) => spec,
        Err(msg) => {
            return state.fail(&ServeError::parse(msg)).write_to(out, true);
        }
    };
    let sample: u64 = req
        .query_param("sample")
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
        .max(1);
    let max: u64 = req
        .query_param("max")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
        .clamp(1, 1_000_000);
    Metrics::bump(&state.metrics.streams);

    let (tx, rx) = mpsc::sync_channel::<String>(256);
    let emitted = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));
    let sink = StreamSink {
        tx,
        sample,
        max,
        seen: 0,
        emitted: Arc::clone(&emitted),
        dropped: Arc::clone(&dropped),
    };
    let runner = std::thread::spawn(move || run_streamed(&spec, sink));

    // Head first: chunked-free NDJSON delimited by connection close.
    out.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n",
    )?;
    for line in rx {
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()?;
    }
    let metrics = match runner.join() {
        Ok(Ok(doc)) => doc,
        Ok(Err(err)) => {
            state.metrics.record_error(err.class, err.status);
            err.body()
        }
        Err(payload) => {
            Metrics::bump(&state.metrics.worker_panics);
            let err = ServeError::run(format!(
                "experiment panicked: {}",
                panic_message(payload.as_ref())
            ));
            state.metrics.record_error(err.class, err.status);
            err.body()
        }
    };
    let summary = Json::obj([
        ("done", Json::Bool(true)),
        ("events", Json::from(emitted.load(Ordering::Relaxed))),
        ("dropped", Json::from(dropped.load(Ordering::Relaxed))),
        ("metrics", metrics),
    ]);
    out.write_all(summary.dump().as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()
}

/// Builds an [`ExperimentSpec`] from `/v1/stream` query parameters.
fn experiment_from_query(req: &Request) -> Result<ExperimentSpec, String> {
    let mut obj = Json::Obj(Vec::new());
    for (key, value) in &req.query {
        let parsed = match key.as_str() {
            "victim" | "pipeline" => Json::from(value.as_str()),
            "stealth" | "cold" => match value.as_str() {
                "1" | "true" => Json::Bool(true),
                "0" | "false" => Json::Bool(false),
                _ => return Err(format!("{key} must be a boolean")),
            },
            "watchdog" | "blocks" | "seed" => Json::from(
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{key} must be a non-negative integer"))?,
            ),
            "sample" | "max" => continue, // stream knobs, not experiment knobs
            other => return Err(format!("unknown parameter {other:?}")),
        };
        obj.push_member(key.as_str(), parsed);
    }
    ExperimentSpec::from_json(&obj)
}

/// Runs the spec's first leg with `sink` attached to the CSD engine for
/// the measured region; returns the metric document. Streams always run
/// cold and never populate the session cache — the attached sink makes
/// their warm state observably different from a cacheable one.
fn run_streamed(spec: &ExperimentSpec, sink: StreamSink) -> Result<Json, ServeError> {
    let victims = security_victims();
    let victim = victims
        .iter()
        .find(|v| v.name() == spec.victim)
        .ok_or_else(|| ServeError::run(format!("victim {:?} vanished", spec.victim)))?
        .as_ref();
    let (_, mk) = *pipelines()
        .iter()
        .find(|(n, _)| *n == spec.pipeline)
        .ok_or_else(|| ServeError::run(format!("pipeline {:?} vanished", spec.pipeline)))?;
    let leg = spec
        .legs
        .first()
        .ok_or_else(|| ServeError::run("experiment has no legs"))?;
    let mut core = security_core(victim, mk());
    let mut rng = SplitMix64::new(spec.seed);
    let mut input = vec![0u8; victim.input_len()];
    warm_up(&mut core, victim, &mut rng, &mut input);
    apply_leg_mode(&leg.mode, victim, &mut core).map_err(|e| ServeError::run(e.0))?;
    core.engine_mut().set_event_sink(Box::new(sink));
    let blocks = leg.blocks.unwrap_or(spec.blocks);
    let metrics = measure_blocks(&mut core, victim, &mut rng, &mut input, blocks);
    // Dropping the engine (and with it the sink's sender) closes the
    // NDJSON channel, which is what ends the reader loop.
    Ok(metrics.to_json())
}
