//! The work-queue scheduler: deterministic dispatch, retries, hedging,
//! and dead-worker reassignment over a [`WorkerPool`].
//!
//! The data structure at the center is the [`Board`]: one slot per
//! [`WorkUnit`], a FIFO of unit indices awaiting dispatch, and the
//! collected result bytes. Every failure-handling decision — who may
//! claim a unit, what happens when a response is a duplicate, when a
//! retry budget turns into a dead worker — is a synchronous `Board`
//! method, so the whole policy is unit-testable without opening a
//! socket. [`run_units`] wraps the board in `Mutex + Condvar` and drives
//! it with `window` dispatch threads per worker plus a hedge monitor and
//! a health prober.
//!
//! Correctness leans on one property of the grid: a task's result bytes
//! are a pure function of `(label, profile, seed)`, so *which* worker
//! answers — first dispatch, retry, hedge winner, or reassigned copy —
//! cannot change the merged artifact, only the telemetry.

use crate::pool::{probe_health, WorkerPool};
use crate::ClusterError;
use csd_serve::{relock, rewait_timeout, RetryClient};
use csd_telemetry::{derive_seed, Histogram, Json, ToJson};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One request the cluster must get answered: a stable label (for error
/// messages and result verification) plus the exact JSON body to `POST`
/// to `/v1/experiments`.
#[derive(Debug, Clone)]
pub struct WorkUnit {
    /// Stable identifier, e.g. a grid label like `sec/opt/aes-enc`.
    pub label: String,
    /// The request body.
    pub body: String,
}

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Root seed for every dispatch thread's jitter schedule.
    pub seed: u64,
    /// In-flight requests per worker (dispatch threads per worker).
    pub window: usize,
    /// Attempts per dispatch before the worker is declared dead
    /// (transport) or the unit is re-queued (`503`).
    pub attempts: u32,
    /// Read timeout per request — a worker silent for this long counts
    /// as a transport failure.
    pub task_timeout: Duration,
    /// Hedge threshold: a unit in flight longer than this with no
    /// second copy gets one on another worker. `0` disables hedging.
    pub hedge_ms: u64,
    /// Distinct failed responses a unit may accumulate before the run
    /// is declared failed (a deterministic error would loop forever).
    pub failure_budget: u32,
    /// Delay between health-probe rounds.
    pub health_interval: Duration,
    /// Per-probe timeout.
    pub probe_timeout: Duration,
    /// Consecutive failed probes before a worker is declared dead.
    pub probe_failures_to_kill: u64,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            seed: 0xC5D_2018,
            window: 2,
            attempts: 3,
            task_timeout: Duration::from_secs(600),
            hedge_ms: 0,
            failure_budget: 3,
            health_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_secs(2),
            probe_failures_to_kill: 5,
        }
    }
}

/// What [`Board::claim`] handed a dispatch thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// Run this unit.
    Unit(usize),
    /// Nothing claimable right now (queue empty, or every queued unit
    /// is already held by this worker) — wait and retry.
    Wait,
    /// The run is over (all results in, or failed); exit.
    Finished,
}

/// Outcome of handing a result to [`Board::complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// First result for this unit — it is now part of the artifact.
    Won,
    /// A hedge/reassign copy finished after the winner; the bytes are
    /// discarded (exactly one discard per losing copy).
    Duplicate,
}

#[derive(Debug, Default)]
struct Slot {
    /// Workers currently running this unit.
    holders: Vec<usize>,
    done: bool,
    /// Failed (non-200, non-503) responses accumulated.
    failures: u32,
    /// Copies of this unit sitting in the queue right now.
    queued: usize,
    /// A hedge copy has been issued (at most one per unit).
    hedged: bool,
    /// First dispatch time — what the hedge monitor ages against.
    dispatched_at: Option<Instant>,
}

/// The scheduler's shared state. All policy lives in these synchronous
/// methods; [`run_units`] only adds threads, locks, and HTTP.
pub struct Board {
    queue: VecDeque<usize>,
    slots: Vec<Slot>,
    results: Vec<Option<Vec<u8>>>,
    remaining: usize,
    failed: Option<String>,
}

impl Board {
    /// A board over `n` units, queued in index (grid) order — the
    /// deterministic dispatch order.
    pub fn new(n: usize) -> Board {
        Board {
            queue: (0..n).collect(),
            slots: (0..n)
                .map(|_| Slot {
                    queued: 1,
                    ..Slot::default()
                })
                .collect(),
            results: (0..n).map(|_| None).collect(),
            remaining: n,
            failed: None,
        }
    }

    /// Whether the run is over (every result in, or failed).
    pub fn finished(&self) -> bool {
        self.remaining == 0 || self.failed.is_some()
    }

    /// The failure message, if the run failed.
    pub fn failure(&self) -> Option<&str> {
        self.failed.as_deref()
    }

    /// Marks the run failed (first message wins).
    pub fn fail(&mut self, msg: String) {
        self.failed.get_or_insert(msg);
    }

    /// Claims the oldest queued unit this worker is not already running
    /// (a hedge copy must land on a *different* worker than the copy it
    /// backs up). Stale entries for finished units are dropped in
    /// passing.
    pub fn claim(&mut self, worker: usize, now: Instant) -> Claim {
        if self.finished() {
            return Claim::Finished;
        }
        let mut i = 0;
        while i < self.queue.len() {
            let u = self.queue[i];
            if self.slots[u].done {
                self.queue.remove(i);
                self.slots[u].queued -= 1;
                continue;
            }
            if self.slots[u].holders.contains(&worker) {
                i += 1;
                continue;
            }
            self.queue.remove(i);
            let s = &mut self.slots[u];
            s.queued -= 1;
            s.holders.push(worker);
            s.dispatched_at.get_or_insert(now);
            return Claim::Unit(u);
        }
        Claim::Wait
    }

    /// Accepts a `200` result. First copy wins and is recorded; any
    /// later copy (hedge loser, late result from a worker already
    /// declared dead) reports [`Completion::Duplicate`] and its bytes
    /// are dropped.
    pub fn complete(&mut self, unit: usize, worker: usize, bytes: Vec<u8>) -> Completion {
        let s = &mut self.slots[unit];
        s.holders.retain(|&w| w != worker);
        if s.done {
            return Completion::Duplicate;
        }
        s.done = true;
        self.results[unit] = Some(bytes);
        self.remaining -= 1;
        Completion::Won
    }

    /// Returns a unit to the queue after a non-fatal miss (`503` budget
    /// exhausted, or the holder died). No-op if the unit finished, is
    /// still held elsewhere, or is already queued — re-queueing is
    /// idempotent, so the dead-worker sweep and a late dispatch-thread
    /// error cannot double-queue a unit.
    pub fn requeue(&mut self, unit: usize, worker: usize) {
        let s = &mut self.slots[unit];
        s.holders.retain(|&w| w != worker);
        if !s.done && s.holders.is_empty() && s.queued == 0 {
            s.queued += 1;
            self.queue.push_back(unit);
        }
    }

    /// Records a failed (non-200, non-503) response for a unit. Under
    /// the budget the unit is re-queued for another try; at the budget
    /// the caller must fail the run — the error is deterministic enough
    /// that retrying forever would livelock.
    pub fn unit_failed(&mut self, unit: usize, worker: usize, budget: u32) -> bool {
        self.slots[unit].failures += 1;
        if self.slots[unit].failures >= budget.max(1) {
            return true;
        }
        self.requeue(unit, worker);
        false
    }

    /// Sweeps a dead worker: every unit it was running loses that
    /// holder, and orphaned units go back on the queue. Returns how many
    /// units were reassigned.
    pub fn worker_dead(&mut self, worker: usize) -> usize {
        let mut reassigned = 0;
        for u in 0..self.slots.len() {
            if self.slots[u].holders.contains(&worker) {
                let before = self.slots[u].queued;
                self.requeue(u, worker);
                if self.slots[u].queued > before {
                    reassigned += 1;
                }
            }
        }
        reassigned
    }

    /// Issues hedge copies: any unit in flight on exactly one worker for
    /// longer than `threshold`, never hedged before, gains a queued
    /// second copy. Returns how many hedges were issued.
    pub fn hedge_scan(&mut self, now: Instant, threshold: Duration) -> usize {
        let mut hedges = 0;
        for u in 0..self.slots.len() {
            let s = &mut self.slots[u];
            if s.done || s.hedged || s.queued > 0 || s.holders.len() != 1 {
                continue;
            }
            let Some(t0) = s.dispatched_at else { continue };
            if now.duration_since(t0) >= threshold {
                s.hedged = true;
                s.queued += 1;
                self.queue.push_back(u);
                hedges += 1;
            }
        }
        hedges
    }

    /// Takes the collected results, in unit order. `None` only if the
    /// run failed before that unit completed.
    fn into_results(self) -> Vec<Option<Vec<u8>>> {
        self.results
    }
}

/// Fleet-wide counters the scheduler accumulates (beyond the per-worker
/// state in [`crate::pool::WorkerState`]).
#[derive(Debug, Default)]
pub struct Counters {
    /// Units handed to dispatch threads (hedges and retries included).
    pub dispatched: AtomicU64,
    /// `200` responses accepted as the unit's result.
    pub completed: AtomicU64,
    /// Hedge copies issued for stragglers.
    pub hedges: AtomicU64,
    /// Duplicate results discarded (hedge losers, late results from
    /// workers already swept).
    pub hedge_discards: AtomicU64,
    /// Units re-queued off dead workers.
    pub reassigned: AtomicU64,
    /// Units re-queued after a `503` retry budget ran out.
    pub requeues_503: AtomicU64,
    /// Failed (non-200, non-503) responses observed.
    pub unit_failures: AtomicU64,
    /// Transport-level retries performed inside dispatches.
    pub transport_retries: AtomicU64,
    /// Workers declared dead.
    pub workers_dead: AtomicU64,
}

impl Counters {
    fn to_json(&self) -> Json {
        let get = |a: &AtomicU64| Json::from(a.load(Ordering::Relaxed));
        Json::obj([
            ("dispatched", get(&self.dispatched)),
            ("completed", get(&self.completed)),
            ("hedges", get(&self.hedges)),
            ("hedge_discards", get(&self.hedge_discards)),
            ("reassigned", get(&self.reassigned)),
            ("requeues_503", get(&self.requeues_503)),
            ("unit_failures", get(&self.unit_failures)),
            ("transport_retries", get(&self.transport_retries)),
            ("workers_dead", get(&self.workers_dead)),
        ])
    }
}

/// Per-completion hook: called with `(unit index, response body)` for
/// every winning `200` before it is recorded on the board. The journal
/// layer uses it to durably persist each completed unit the moment it
/// lands; returning `Err` fails the run (the durability contract is
/// broken, so finishing without it would be lying).
pub type OnWon<'a> = dyn Fn(usize, &[u8]) -> Result<(), String> + Sync + 'a;

struct Shared<'a> {
    board: Mutex<Board>,
    cv: Condvar,
    pool: &'a WorkerPool,
    units: &'a [WorkUnit],
    cfg: &'a ClusterConfig,
    counters: Counters,
    on_won: Option<&'a OnWon<'a>>,
}

impl Shared<'_> {
    /// Declares worker `w` dead (idempotently): no further dispatches or
    /// probes, outstanding units re-queued, and if it was the last
    /// worker standing the run fails rather than hangs.
    fn declare_dead(&self, w: usize, reason: &str) {
        let worker = &self.pool.workers()[w];
        if !worker.alive.swap(false, Ordering::SeqCst) {
            return;
        }
        self.counters.workers_dead.fetch_add(1, Ordering::Relaxed);
        let mut board = relock(&self.board);
        let n = board.worker_dead(w);
        self.counters
            .reassigned
            .fetch_add(n as u64, Ordering::Relaxed);
        eprintln!(
            "cluster: worker {} dead ({reason}); reassigned {n} unit(s)",
            worker.addr
        );
        if self.pool.alive_count() == 0 && !board.finished() {
            board.fail(format!(
                "all workers dead (last: {} — {reason})",
                worker.addr
            ));
        }
        drop(board);
        self.cv.notify_all();
    }

    /// One dispatch thread: claim → `POST /v1/experiments` (with the
    /// shared retry client) → complete/requeue/fail, until the board is
    /// finished or this worker dies.
    fn dispatch_loop(&self, w: usize, c: usize) {
        let worker = &self.pool.workers()[w];
        let mut client = RetryClient::new(
            &worker.addr,
            derive_seed(self.cfg.seed, &format!("w{w}/c{c}")),
        )
        .with_read_timeout(self.cfg.task_timeout);
        let mut seen = csd_serve::RetryStats::default();
        loop {
            let claimed = {
                let mut board = relock(&self.board);
                loop {
                    if !worker.alive.load(Ordering::SeqCst) {
                        break None;
                    }
                    if !worker.healthy.load(Ordering::SeqCst) {
                        // Paused, not dead: hold no claim while the
                        // prober decides, so a sick worker cannot sit
                        // on work it may never finish.
                        board = rewait_timeout(&self.cv, board, Duration::from_millis(50));
                        continue;
                    }
                    match board.claim(w, Instant::now()) {
                        Claim::Unit(u) => break Some(u),
                        Claim::Finished => break None,
                        Claim::Wait => {
                            board = rewait_timeout(&self.cv, board, Duration::from_millis(50));
                        }
                    }
                }
            };
            let Some(u) = claimed else { break };
            self.counters.dispatched.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            let resp = client.post_json("/v1/experiments", &self.units[u].body, self.cfg.attempts);
            // Fold this request's recovery counters into the worker row.
            let now = client.stats();
            worker
                .retries_503
                .fetch_add(now.retries_503 - seen.retries_503, Ordering::Relaxed);
            worker
                .reconnects
                .fetch_add(now.reconnects - seen.reconnects, Ordering::Relaxed);
            self.counters.transport_retries.fetch_add(
                now.transport_retries - seen.transport_retries,
                Ordering::Relaxed,
            );
            seen = now;
            match resp {
                Ok(r) if r.status == 200 => {
                    worker.record_latency_us(
                        t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
                    );
                    worker.completed.fetch_add(1, Ordering::Relaxed);
                    // Journal before the board lock: the fsync happens
                    // outside the critical section, and a copy that turns
                    // out to be a hedge duplicate journals identical bytes
                    // (the replay layer tolerates exact duplicates).
                    if let Some(hook) = self.on_won {
                        if let Err(e) = hook(u, &r.body) {
                            let mut board = relock(&self.board);
                            board.fail(format!("unit {:?}: {e}", self.units[u].label));
                            drop(board);
                            self.cv.notify_all();
                            break;
                        }
                    }
                    let mut board = relock(&self.board);
                    match board.complete(u, w, r.body) {
                        Completion::Won => {
                            self.counters.completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Completion::Duplicate => {
                            self.counters.hedge_discards.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    drop(board);
                    self.cv.notify_all();
                }
                Ok(r) if r.status == 503 => {
                    // The worker is alive but saturated past the retry
                    // budget; put the unit back and let anyone (this
                    // worker included, later) pick it up.
                    self.counters.requeues_503.fetch_add(1, Ordering::Relaxed);
                    relock(&self.board).requeue(u, w);
                    self.cv.notify_all();
                }
                Ok(r) => {
                    worker.failures.fetch_add(1, Ordering::Relaxed);
                    self.counters.unit_failures.fetch_add(1, Ordering::Relaxed);
                    let mut board = relock(&self.board);
                    if board.unit_failed(u, w, self.cfg.failure_budget) {
                        board.fail(format!(
                            "task {:?}: HTTP {} after {} attempt(s): {}",
                            self.units[u].label,
                            r.status,
                            self.cfg.failure_budget,
                            r.text().trim()
                        ));
                    }
                    drop(board);
                    self.cv.notify_all();
                }
                Err(e) => {
                    // Transport budget exhausted — connection refused,
                    // reset, or timed out `attempts` times in a row.
                    // The worker is gone; sweep it (which re-queues `u`
                    // and everything else it held).
                    worker.failures.fetch_add(1, Ordering::Relaxed);
                    self.declare_dead(w, &format!("{e}"));
                    break;
                }
            }
        }
    }

    /// Ages in-flight units and queues hedge copies for stragglers.
    fn hedge_loop(&self) {
        let threshold = Duration::from_millis(self.cfg.hedge_ms);
        let tick = Duration::from_millis((self.cfg.hedge_ms / 4).clamp(5, 250));
        loop {
            let mut board = relock(&self.board);
            if board.finished() {
                return;
            }
            let n = board.hedge_scan(Instant::now(), threshold);
            if n > 0 {
                self.counters.hedges.fetch_add(n as u64, Ordering::Relaxed);
            }
            board = rewait_timeout(&self.cv, board, tick);
            let done = board.finished();
            drop(board);
            if n > 0 {
                self.cv.notify_all();
            }
            if done {
                return;
            }
        }
    }

    /// Probes every live worker's `/v1/health` each round; flapping
    /// workers are paused, persistently silent ones declared dead.
    fn health_loop(&self) {
        loop {
            if relock(&self.board).finished() {
                return;
            }
            for (w, worker) in self.pool.workers().iter().enumerate() {
                if !worker.alive.load(Ordering::SeqCst) {
                    continue;
                }
                if probe_health(worker, self.cfg.probe_timeout) {
                    worker.probe_failures.store(0, Ordering::Relaxed);
                    if !worker.healthy.swap(true, Ordering::SeqCst) {
                        worker.flaps.fetch_add(1, Ordering::Relaxed);
                        self.cv.notify_all();
                    }
                } else {
                    let misses = worker.probe_failures.fetch_add(1, Ordering::Relaxed) + 1;
                    if worker.healthy.swap(false, Ordering::SeqCst) {
                        worker.flaps.fetch_add(1, Ordering::Relaxed);
                    }
                    if misses >= self.cfg.probe_failures_to_kill.max(1) {
                        self.declare_dead(w, &format!("{misses} failed health probes"));
                    }
                }
            }
            let board = relock(&self.board);
            if board.finished() {
                return;
            }
            drop(rewait_timeout(&self.cv, board, self.cfg.health_interval));
        }
    }

    /// The cluster telemetry document: per-worker rows, the merged fleet
    /// latency view, and the scheduler counters.
    fn telemetry(&self) -> Json {
        let rows: Vec<Json> = self.pool.workers().iter().map(|w| w.to_json()).collect();
        let hists: Vec<Histogram> = self
            .pool
            .workers()
            .iter()
            .map(|w| w.latency_snapshot())
            .collect();
        let flaps: u64 = self
            .pool
            .workers()
            .iter()
            .map(|w| w.flaps.load(Ordering::Relaxed))
            .sum();
        let retries_503: u64 = self
            .pool
            .workers()
            .iter()
            .map(|w| w.retries_503.load(Ordering::Relaxed))
            .sum();
        let reconnects: u64 = self
            .pool
            .workers()
            .iter()
            .map(|w| w.reconnects.load(Ordering::Relaxed))
            .sum();
        let mut counters = self.counters.to_json();
        counters.push_member("retries_503", Json::from(retries_503));
        counters.push_member("reconnects", Json::from(reconnects));
        counters.push_member("health_flaps", Json::from(flaps));
        Json::obj([
            ("units", Json::from(self.units.len() as u64)),
            ("workers", Json::from(self.pool.len() as u64)),
            ("workers_alive", Json::from(self.pool.alive_count() as u64)),
            ("counters", counters),
            (
                "fleet_latency_us",
                Histogram::merged(hists.iter()).to_json(),
            ),
            ("per_worker", Json::Arr(rows)),
        ])
    }
}

/// Runs every unit to completion across the pool and returns the result
/// bodies in unit order plus the cluster telemetry document. `on_won`
/// (see [`OnWon`]) is the seam the write-ahead journal plugs into.
///
/// # Errors
///
/// Fails — rather than hanging or returning a partial artifact — if
/// every worker dies, a unit exhausts its failure budget, or the hook
/// fails.
pub fn run_units(
    pool: &WorkerPool,
    units: &[WorkUnit],
    cfg: &ClusterConfig,
    on_won: Option<&OnWon<'_>>,
) -> Result<(Vec<Vec<u8>>, Json), ClusterError> {
    if pool.is_empty() {
        return Err(ClusterError("worker pool is empty".to_string()));
    }
    let shared = Shared {
        board: Mutex::new(Board::new(units.len())),
        cv: Condvar::new(),
        pool,
        units,
        cfg,
        counters: Counters::default(),
        on_won,
    };
    std::thread::scope(|s| {
        for w in 0..pool.len() {
            for c in 0..cfg.window.max(1) {
                let shared = &shared;
                s.spawn(move || shared.dispatch_loop(w, c));
            }
        }
        if cfg.hedge_ms > 0 && pool.len() > 1 {
            let shared = &shared;
            s.spawn(move || shared.hedge_loop());
        }
        {
            let shared = &shared;
            s.spawn(move || shared.health_loop());
        }
    });
    let telemetry = shared.telemetry();
    let board = shared.board.into_inner().unwrap_or_else(|p| p.into_inner());
    if let Some(msg) = board.failure() {
        return Err(ClusterError(msg.to_string()));
    }
    let mut out = Vec::with_capacity(units.len());
    for (i, r) in board.into_results().into_iter().enumerate() {
        match r {
            Some(bytes) => out.push(bytes),
            None => {
                return Err(ClusterError(format!(
                    "unit {:?} never completed",
                    units[i].label
                )))
            }
        }
    }
    Ok((out, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn now() -> Instant {
        Instant::now()
    }

    #[test]
    fn dispatch_order_is_grid_order() {
        let mut b = Board::new(4);
        assert_eq!(b.claim(0, now()), Claim::Unit(0));
        assert_eq!(b.claim(1, now()), Claim::Unit(1));
        assert_eq!(b.claim(0, now()), Claim::Unit(2));
        assert_eq!(b.claim(2, now()), Claim::Unit(3));
        assert_eq!(b.claim(0, now()), Claim::Wait);
    }

    #[test]
    fn completion_drains_the_board() {
        let mut b = Board::new(2);
        assert_eq!(b.claim(0, now()), Claim::Unit(0));
        assert_eq!(b.claim(0, now()), Claim::Unit(1));
        assert_eq!(b.complete(0, 0, b"a".to_vec()), Completion::Won);
        assert!(!b.finished());
        assert_eq!(b.complete(1, 0, b"b".to_vec()), Completion::Won);
        assert!(b.finished());
        assert_eq!(b.claim(1, now()), Claim::Finished);
        let results = b.into_results();
        assert_eq!(results[0].as_deref(), Some(b"a".as_slice()));
        assert_eq!(results[1].as_deref(), Some(b"b".as_slice()));
    }

    #[test]
    fn hedge_first_result_wins_loser_discarded_exactly_once() {
        let mut b = Board::new(1);
        let t0 = now();
        assert_eq!(b.claim(0, t0), Claim::Unit(0));
        // Straggler past the threshold: exactly one hedge copy issued,
        // and a rescan does not issue another.
        let later = t0 + Duration::from_millis(100);
        assert_eq!(b.hedge_scan(later, Duration::from_millis(50)), 1);
        assert_eq!(b.hedge_scan(later, Duration::from_millis(50)), 0);
        // The copy must land on a *different* worker.
        assert_eq!(b.claim(0, later), Claim::Wait);
        assert_eq!(b.claim(1, later), Claim::Unit(0));
        // First result wins; the loser is a duplicate exactly once.
        assert_eq!(b.complete(0, 1, b"winner".to_vec()), Completion::Won);
        assert_eq!(b.complete(0, 0, b"loser".to_vec()), Completion::Duplicate);
        assert!(b.finished());
        assert_eq!(b.into_results()[0].as_deref(), Some(b"winner".as_slice()));
    }

    #[test]
    fn hedge_skips_done_queued_and_multi_holder_units() {
        let mut b = Board::new(3);
        let t0 = now();
        assert_eq!(b.claim(0, t0), Claim::Unit(0));
        assert_eq!(b.claim(1, t0), Claim::Unit(1));
        b.complete(1, 1, b"done".to_vec());
        // Unit 2 still queued, unit 1 done, unit 0 in flight → 1 hedge.
        let later = t0 + Duration::from_secs(1);
        assert_eq!(b.hedge_scan(later, Duration::from_millis(1)), 1);
    }

    #[test]
    fn dead_worker_reassigns_all_outstanding_units() {
        let mut b = Board::new(3);
        assert_eq!(b.claim(0, now()), Claim::Unit(0));
        assert_eq!(b.claim(0, now()), Claim::Unit(1));
        assert_eq!(b.claim(1, now()), Claim::Unit(2));
        assert_eq!(b.worker_dead(0), 2);
        // Reassigned units are claimable again (by any worker, in order).
        assert_eq!(b.claim(1, now()), Claim::Unit(0));
        assert_eq!(b.claim(1, now()), Claim::Unit(1));
        // Sweeping again is a no-op.
        assert_eq!(b.worker_dead(0), 0);
    }

    #[test]
    fn requeue_is_idempotent_and_respects_other_holders() {
        let mut b = Board::new(1);
        let t0 = now();
        assert_eq!(b.claim(0, t0), Claim::Unit(0));
        assert_eq!(b.hedge_scan(t0 + Duration::from_secs(1), Duration::ZERO), 1);
        assert_eq!(b.claim(1, t0), Claim::Unit(0));
        // Worker 0's copy fails in transit, but worker 1 still holds it:
        // no re-queue.
        b.requeue(0, 0);
        assert_eq!(b.claim(2, t0), Claim::Wait);
        // Worker 1's copy also dies → now it queues, exactly once even
        // if both paths re-queue.
        b.requeue(0, 1);
        b.requeue(0, 1);
        assert_eq!(b.claim(2, t0), Claim::Unit(0));
        assert_eq!(b.claim(3, t0), Claim::Wait);
    }

    #[test]
    fn unit_failure_budget_turns_fatal() {
        let mut b = Board::new(1);
        assert_eq!(b.claim(0, now()), Claim::Unit(0));
        assert!(!b.unit_failed(0, 0, 3));
        assert_eq!(b.claim(0, now()), Claim::Unit(0), "re-queued under budget");
        assert!(!b.unit_failed(0, 0, 3));
        assert_eq!(b.claim(0, now()), Claim::Unit(0));
        assert!(b.unit_failed(0, 0, 3), "third strike is fatal");
        b.fail("task failed".to_string());
        assert!(b.finished());
        assert_eq!(b.claim(1, now()), Claim::Finished);
        assert_eq!(b.failure(), Some("task failed"));
    }

    #[test]
    fn stale_queue_entries_for_done_units_are_dropped() {
        let mut b = Board::new(2);
        let t0 = now();
        assert_eq!(b.claim(0, t0), Claim::Unit(0));
        assert_eq!(b.hedge_scan(t0 + Duration::from_secs(1), Duration::ZERO), 1);
        // The original finishes while the hedge copy is still queued.
        assert_eq!(b.complete(0, 0, b"x".to_vec()), Completion::Won);
        // The stale entry is skipped straight to unit 1.
        assert_eq!(b.claim(1, t0), Claim::Unit(1));
    }

    #[test]
    fn first_failure_message_wins() {
        let mut b = Board::new(1);
        b.fail("first".to_string());
        b.fail("second".to_string());
        assert_eq!(b.failure(), Some("first"));
    }

    #[test]
    fn run_units_rejects_an_empty_pool() {
        let pool = WorkerPool::from_addrs::<&str>(&[]);
        let err = run_units(&pool, &[], &ClusterConfig::default(), None);
        assert!(err.is_err());
    }
}
