//! # csd-cluster — distributed suite execution over sharded `csd-serve` workers
//!
//! A coordinator that shards the experiment grid (and ad-hoc
//! [`ExperimentSpec`] plans) across a pool of `csd-serve` daemons over
//! HTTP and merges the per-task answers into an artifact **byte-identical**
//! to a single-node `suite` run. The determinism contract the rest of
//! the repository maintains — per-task seeds derived from labels, no
//! timestamps in reports, number-identity-preserving JSON — is exactly
//! what makes a distributed run `cmp`-equal to the CLI at any worker
//! count, under retries, hedges, and mid-run worker deaths.
//!
//! Three layers:
//!
//! - [`pool`] — who the workers are: a static address list or
//!   coordinator-spawned local daemons, plus per-worker liveness,
//!   health, and latency state.
//! - [`sched`] — how work reaches them: a FIFO board dispatched over
//!   bounded per-worker windows on keep-alive connections, with seeded
//!   exponential backoff (shared `csd_serve::RetryClient`), `503`
//!   re-queueing, straggler hedging with first-result-wins dedup, and
//!   reassignment of everything a dead worker held.
//! - [`merge`] — how answers become the artifact: per-task documents
//!   are verified (label + seed) and their `result` subtrees fed to the
//!   same report assembly the `suite` CLI uses.
//!
//! See `DESIGN.md` ("Cluster architecture") and the README's
//! "Distributed execution" section.

#![warn(missing_docs)]

pub mod merge;
pub mod pool;
pub mod sched;

pub use merge::{task_result_from_doc, unit_for_task, verify_exact_labels};
pub use pool::{WorkerPool, WorkerState};
pub use sched::{run_units, Board, Claim, ClusterConfig, Completion, WorkUnit};

use csd_bench::suite::{
    assemble_report, filtered_report, replay_into_slots, SuiteConfig, SuiteReport,
};
use csd_bench::tasks::{build_tasks, filter_tasks};
use csd_exp::ExperimentSpec;
use csd_telemetry::{Json, RunJournal, ToJson};
use std::sync::Mutex;

/// A cluster-level failure: every worker died, a task exhausted its
/// failure budget, or a worker answered something that fails
/// verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterError(pub String);

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ClusterError {}

/// What a distributed suite run produced.
pub enum DistributedOutput {
    /// The full-grid report (figure summaries, checks) — byte-identical
    /// to `suite` with the same profile and seed.
    Full(SuiteReport),
    /// The reduced `--filter` document — byte-identical to
    /// `suite --filter` with the same arguments.
    Filtered(Json),
}

impl DistributedOutput {
    /// The report JSON, whichever shape it is.
    pub fn json(&self) -> &Json {
        match self {
            DistributedOutput::Full(r) => &r.json,
            DistributedOutput::Filtered(j) => j,
        }
    }
}

/// Runs the suite grid (optionally `--filter`-reduced) across the pool
/// and reassembles the single-node artifact. `cfg` must be a stock
/// profile (`SuiteConfig::named`) — workers reconstruct it from
/// `(profile, seed)` alone, so a locally mutated config cannot be
/// shipped. Returns the output plus the cluster telemetry document.
///
/// Under a write-ahead `journal`, tasks already journaled are *not
/// dispatched at all* (their replayed results merge straight into the
/// artifact), and every fresh completion is durably journaled the
/// moment its response is verified — before it counts toward the
/// merge. The journal format is shared with the single-node `suite`, so
/// a run can crash under one runner and resume under the other; either
/// way the final artifact is byte-identical to an uninterrupted run.
pub fn run_suite_distributed(
    pool: &WorkerPool,
    cfg: &SuiteConfig,
    filter: Option<&str>,
    cluster: &ClusterConfig,
    journal: Option<&Mutex<RunJournal>>,
) -> Result<(DistributedOutput, Json), ClusterError> {
    let tasks = match filter {
        Some(f) => {
            let tasks = filter_tasks(cfg, f);
            if tasks.is_empty() {
                return Err(ClusterError(format!("filter {f:?} matches no task")));
            }
            tasks
        }
        None => build_tasks(cfg),
    };
    verify_exact_labels(cfg, &tasks)?;

    // Replay the journal's completed prefix into grid-order slots.
    let mut slots: Vec<Option<Json>> = match journal {
        Some(j) => {
            let guard = j.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            replay_into_slots(&tasks, cfg.root_seed, &guard).map_err(ClusterError)?
        }
        None => (0..tasks.len()).map(|_| None).collect(),
    };
    let pending: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_none().then_some(i))
        .collect();
    let units: Vec<WorkUnit> = pending
        .iter()
        .map(|&i| unit_for_task(tasks[i].label(), cfg.profile, cfg.root_seed))
        .collect();

    // On every winning response: verify it answers our question, then
    // journal the extracted result bytes before the board records it.
    let on_won = journal.map(|j| {
        let tasks = &tasks;
        let pending = &pending;
        move |u: usize, body: &[u8]| -> Result<(), String> {
            let t = &tasks[pending[u]];
            let seed = t.seed(cfg.root_seed);
            let result = task_result_from_doc(body, t.label(), seed).map_err(|e| e.0)?;
            j.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .record(t.label(), seed, result.dump().as_bytes())
                .map_err(|e| format!("journal append: {e}"))
        }
    });
    let (bodies, mut telemetry) = run_units(
        pool,
        &units,
        cluster,
        on_won
            .as_ref()
            .map(|h| h as &(dyn Fn(usize, &[u8]) -> Result<(), String> + Sync)),
    )?;
    telemetry.push_member("replayed", Json::from((tasks.len() - pending.len()) as u64));

    for (&i, body) in pending.iter().zip(&bodies) {
        let t = &tasks[i];
        slots[i] = Some(task_result_from_doc(
            body,
            t.label(),
            t.seed(cfg.root_seed),
        )?);
    }
    let mut values = Vec::with_capacity(tasks.len());
    for (t, slot) in tasks.iter().zip(slots) {
        values.push(slot.ok_or_else(|| {
            ClusterError(format!("task {:?} has no result after the run", t.label()))
        })?);
    }
    let output = match filter {
        Some(f) => DistributedOutput::Filtered(filtered_report(cfg, f, values)),
        None => DistributedOutput::Full(assemble_report(cfg, values)),
    };
    Ok((output, telemetry))
}

/// Runs ad-hoc experiment plans across the pool, preserving input
/// order. Each spec is validated locally, posted in its canonical JSON
/// serialization, and the plan results come back as
/// `{"specs": [ {spec, result}, ... ]}`.
pub fn run_specs_distributed(
    pool: &WorkerPool,
    specs: &[ExperimentSpec],
    cluster: &ClusterConfig,
) -> Result<(Json, Json), ClusterError> {
    for (i, spec) in specs.iter().enumerate() {
        spec.validate()
            .map_err(|e| ClusterError(format!("spec {i}: {e}")))?;
    }
    let units: Vec<WorkUnit> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| WorkUnit {
            label: format!("spec/{i}/{}/{}", spec.victim, spec.pipeline),
            body: Json::obj([("experiment", spec.to_json())]).dump(),
        })
        .collect();
    let (bodies, telemetry) = run_units(pool, &units, cluster, None)?;
    let mut rows = Vec::with_capacity(bodies.len());
    for ((spec, unit), body) in specs.iter().zip(&units).zip(&bodies) {
        let text = std::str::from_utf8(body)
            .map_err(|_| ClusterError(format!("{}: response is not UTF-8", unit.label)))?;
        let result = Json::parse(text)
            .map_err(|e| ClusterError(format!("{}: response is not JSON: {e}", unit.label)))?;
        rows.push(Json::obj([("spec", spec.to_json()), ("result", result)]));
    }
    Ok((Json::obj([("specs", Json::Arr(rows))]), telemetry))
}
