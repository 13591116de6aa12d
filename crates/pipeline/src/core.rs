//! The execution-driven simulator core.
//!
//! One machine, two fidelities: the **cycle** engine models the full
//! Sandy-Bridge-style front end (fetch buffer, length decode, µop cache
//! with context tags, legacy decoders + MSROM, fusion) and a
//! timestamp-dataflow back end (dispatch width, scoreboarded dependencies,
//! port contention, ROB occupancy, branch mispredict redirects, memory
//! latency); the **functional** engine executes the same µop stream —
//! through the same CSD decode path and the same cache hierarchy state —
//! without the timing layer, for experiments whose results depend on
//! architectural cache state rather than cycles (the side-channel studies).
//!
//! [`Core::run`] is one batched loop over four explicit stage modules —
//! [`crate::fetch`], [`crate::decode`], [`crate::execute`],
//! [`crate::commit`] — that hand each other per-instruction records
//! ([`crate::stage`]); [`Core::step`] is `run(1)`. The decode stage serves
//! each instruction's µop flows from a per-instruction flow table
//! ([`csd_uops::FlowTable`]), built on the instruction's first decode and
//! never invalidated, because the flows it holds depend on the
//! instruction alone. The loop holds the program and the table apart from
//! the machine state for the whole run, so the later stages read the
//! instruction and the flow borrowed from them.

use crate::branch::BranchPredictor;
use crate::clock::ceil_u64;
use crate::config::CoreConfig;
use crate::decode::WindowBuilder;
use crate::machine::{ArchState, Memory};
use crate::uop_cache::{UopCache, UopCacheStats};
use crate::{commit, decode, execute, fetch};
use csd::{CsdConfig, CsdEngine};
use csd_cache::Hierarchy;
use csd_dift::Dift;
use csd_power::{Activity, EnergyModel, Unit};
use csd_telemetry::{EventSink, Json, SinkHandle, ToJson};
use csd_uops::{FlowTable, MemoStats, UReg};
use mx86_isa::Program;
use std::collections::VecDeque;

/// Simulation fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Fast, state-accurate execution (cache state exact, cycles
    /// approximated as retired µops).
    Functional,
    /// Full cycle-level timing.
    Cycle,
}

/// Why a step ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction retired; execution continues.
    Running,
    /// A `hlt` retired.
    Halted,
    /// The PC does not resolve to an instruction start.
    Fault(u64),
}

/// Aggregate simulation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Macro-ops retired.
    pub insts: u64,
    /// Unfused µops retired.
    pub uops: u64,
    /// Fused issue slots dispatched.
    pub fused_slots: u64,
    /// Decoy µops retired.
    pub decoy_uops: u64,
    /// Vector µops executed on the VPU.
    pub vpu_uops: u64,
    /// Load µops.
    pub load_uops: u64,
    /// Store µops.
    pub store_uops: u64,
    /// Cycles elapsed (commit high-water mark in cycle mode; retired µops
    /// in functional mode).
    pub cycles: u64,
    /// Macro-ops delivered from the µop cache.
    pub uop_cache_insts: u64,
    /// Macro-ops translated by the legacy decode pipeline.
    pub legacy_insts: u64,
    /// Macro-ops microsequenced by the MSROM.
    pub msrom_insts: u64,
    /// Cycles spent stalled on conventional VPU wakes.
    pub stall_cycles: u64,
    /// Whether the program halted.
    pub halted: bool,
}

impl SimStats {
    /// Retired µops per cycle.
    pub fn upc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.uops as f64 / self.cycles as f64
    }

    /// Retired macro-ops per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.insts as f64 / self.cycles as f64
    }
}

impl ToJson for SimStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("insts", Json::from(self.insts)),
            ("uops", Json::from(self.uops)),
            ("fused_slots", Json::from(self.fused_slots)),
            ("decoy_uops", Json::from(self.decoy_uops)),
            ("vpu_uops", Json::from(self.vpu_uops)),
            ("load_uops", Json::from(self.load_uops)),
            ("store_uops", Json::from(self.store_uops)),
            ("cycles", Json::from(self.cycles)),
            ("uop_cache_insts", Json::from(self.uop_cache_insts)),
            ("legacy_insts", Json::from(self.legacy_insts)),
            ("msrom_insts", Json::from(self.msrom_insts)),
            ("stall_cycles", Json::from(self.stall_cycles)),
            ("halted", Json::from(self.halted)),
            ("ipc", Json::from(self.ipc())),
            ("upc", Json::from(self.upc())),
        ])
    }
}

/// Counters for [`Core::snapshot`] / [`Core::restore`]. Deliberately kept
/// *outside* the snapshot: restoring never rewinds them, so they count
/// real checkpoint traffic over the core's whole lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Snapshots taken.
    pub snapshots: u64,
    /// Restores performed.
    pub restores: u64,
    /// Experiment-plan legs measured on this core (marked by the
    /// `csd-exp` plan executor when it forks a leg onto the core).
    pub plan_legs: u64,
}

/// Everything [`Core::restore`] rewinds: architectural and decoder-internal
/// registers, the memory image, the cache hierarchy, the CSD engine (MSRs,
/// stealth/gate/devec state and statistics), DIFT, branch predictor, µop
/// cache, simulation statistics, and the cycle-timing state. The program,
/// configuration, simulation mode, event sinks, checkpoint counters, and
/// the flow table stay with the live core (the table's flows depend on
/// the program alone, so they are valid in every state).
#[derive(Debug, Clone)]
pub struct CoreSnapshot {
    state: ArchState,
    mem: Memory,
    hier: Hierarchy,
    engine: CsdEngine,
    dift: Dift,
    bp: BranchPredictor,
    ucache: UopCache,
    stats: SimStats,
    fe_time: f64,
    last_dispatch: f64,
    last_commit: f64,
    sched: [f64; UReg::COUNT],
    flags_ready: f64,
    alu_ports: Vec<f64>,
    load_ports: Vec<f64>,
    store_ports: Vec<f64>,
    vec_ports: Vec<f64>,
    rob: VecDeque<f64>,
    prev_from_uc: bool,
    window_builder: Option<WindowBuilder>,
    prev_fusable_cmp: bool,
    pending_mispredict: bool,
    last_tick: u64,
    func_cycles: u64,
    halted: bool,
}

// A snapshot must be shareable across threads: `run_plan` lends one
// warmed checkpoint to parallel `ordered_map` workers, which restore it
// into a fresh core per leg. `EventSink: Send + Sync` makes
// this hold by construction; this assertion turns any regression into a
// compile error here rather than a trait-bound error in `csd-exp`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CoreSnapshot>();
};

/// The simulator core: program, architectural state, memory, caches, CSD
/// engine, DIFT, branch prediction, and the timing model.
#[derive(Debug)]
pub struct Core {
    pub(crate) cfg: CoreConfig,
    pub(crate) mode: SimMode,
    pub(crate) program: Program,
    /// Architectural + decoder-internal register state.
    pub state: ArchState,
    /// Flat data/instruction memory.
    pub mem: Memory,
    pub(crate) hier: Hierarchy,
    pub(crate) engine: CsdEngine,
    pub(crate) dift: Dift,
    pub(crate) bp: BranchPredictor,
    pub(crate) ucache: UopCache,
    pub(crate) stats: SimStats,
    pub(crate) sink: SinkHandle,

    // --- simulation kernel (not part of the modeled machine) ---
    /// Per-instruction µop flows; moved out while [`Core::run`] runs.
    flows: FlowTable,
    ckpt: CheckpointStats,
    /// The program index after the last fetched instruction: where the
    /// next fetch looks first ([`Program::fetch_hinted`]). Only a guess,
    /// checked against the PC on use, so it stays out of snapshots.
    pub(crate) fetch_hint: usize,

    // --- timing state (cycle mode) ---
    /// `1 / dispatch_width` and `1 / commit_width`: the slot spacing of
    /// dispatch and commit, divided once here rather than per µop.
    pub(crate) dispatch_step: f64,
    pub(crate) commit_step: f64,
    pub(crate) fe_time: f64,
    pub(crate) last_dispatch: f64,
    pub(crate) last_commit: f64,
    /// Scoreboard: cycle at which each register's latest value is ready,
    /// indexed by [`UReg::index`]. Never-written registers read 0.0,
    /// which constrains nothing because dispatch times are never negative.
    pub(crate) sched: [f64; UReg::COUNT],
    pub(crate) flags_ready: f64,
    pub(crate) alu_ports: Vec<f64>,
    pub(crate) load_ports: Vec<f64>,
    pub(crate) store_ports: Vec<f64>,
    pub(crate) vec_ports: Vec<f64>,
    pub(crate) rob: VecDeque<f64>,
    pub(crate) prev_from_uc: bool,
    pub(crate) window_builder: Option<WindowBuilder>,
    pub(crate) prev_fusable_cmp: bool,
    pub(crate) pending_mispredict: bool,
    pub(crate) last_tick: u64,
    pub(crate) func_cycles: u64,
    pub(crate) halted: bool,
}

/// Whether the `CSD_DECODE_MEMO` environment variable force-disables the
/// flow table (`0`, `false`, `off`, or `no`).
fn env_memo_enabled() -> bool {
    match std::env::var("CSD_DECODE_MEMO") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "false" | "off" | "no"
        ),
        Err(_) => true,
    }
}

impl Core {
    /// Builds a core around a program.
    pub fn new(cfg: CoreConfig, csd_cfg: CsdConfig, program: Program, mode: SimMode) -> Core {
        let mut dift = Dift::new();
        dift.set_enabled(cfg.dift_enabled);
        let entry = program.entry();
        let ucache = UopCache::new(
            cfg.uop_cache_sets(),
            cfg.uop_cache_ways,
            cfg.uop_cache_line_uops,
            cfg.uop_cache_max_lines_per_window,
        );
        let flows = FlowTable::new(program.len(), cfg.decode_memo_enabled && env_memo_enabled());
        Core {
            hier: Hierarchy::new(cfg.hierarchy),
            engine: CsdEngine::new(csd_cfg),
            dift,
            bp: BranchPredictor::default(),
            ucache,
            state: ArchState::new(entry),
            mem: Memory::new(),
            stats: SimStats::default(),
            sink: SinkHandle::new(),
            flows,
            ckpt: CheckpointStats::default(),
            fetch_hint: 0,
            dispatch_step: 1.0 / cfg.dispatch_width as f64,
            commit_step: 1.0 / cfg.commit_width as f64,
            fe_time: 0.0,
            last_dispatch: 0.0,
            last_commit: 0.0,
            sched: [0.0; UReg::COUNT],
            flags_ready: 0.0,
            alu_ports: vec![0.0; cfg.alu_units],
            load_ports: vec![0.0; cfg.load_units],
            store_ports: vec![0.0; cfg.store_units],
            vec_ports: vec![0.0; cfg.vector_units],
            rob: VecDeque::new(),
            prev_from_uc: false,
            window_builder: None,
            prev_fusable_cmp: false,
            pending_mispredict: false,
            last_tick: 0,
            func_cycles: 0,
            halted: false,
            program,
            cfg,
            mode,
        }
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Attaches an event sink to the core's retire stage. Decode-level
    /// events come from the CSD engine's own sink
    /// ([`CsdEngine::set_event_sink`] via [`Core::engine_mut`]). Each
    /// [`Core::run`] batch tests once whether either sink is attached;
    /// with neither (the default) it runs stage code compiled without
    /// emission sites, so it pays nothing per event. A sink attached
    /// between two batches sees all of the later one.
    pub fn set_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sink.attach(sink);
    }

    /// Detaches and returns the core's retire-stage sink, if any.
    pub fn take_event_sink(&mut self) -> Option<Box<dyn EventSink>> {
        self.sink.detach()
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The CSD engine (stats, gate state).
    pub fn engine(&self) -> &CsdEngine {
        &self.engine
    }

    /// Mutable CSD engine (MSR configuration, MCU installation).
    pub fn engine_mut(&mut self) -> &mut CsdEngine {
        &mut self.engine
    }

    /// The memory hierarchy (attack agents probe and flush through this).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// Mutable memory hierarchy.
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.hier
    }

    /// The DIFT engine (taint sources).
    pub fn dift_mut(&mut self) -> &mut Dift {
        &mut self.dift
    }

    /// The branch predictor statistics.
    pub fn branch_stats(&self) -> &crate::branch::BranchStats {
        self.bp.stats()
    }

    /// µop cache statistics.
    pub fn uop_cache_stats(&self) -> &UopCacheStats {
        self.ucache.stats()
    }

    /// Simulation statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Flow-table counters since construction or the last
    /// [`Core::restart`]: one hit, miss or bypass per decode.
    pub fn memo_stats(&self) -> &MemoStats {
        self.flows.stats()
    }

    /// Whether the flow table serves decodes (configuration AND the
    /// `CSD_DECODE_MEMO` environment toggle).
    pub fn memo_enabled(&self) -> bool {
        self.flows.enabled()
    }

    /// Snapshot/restore counters.
    pub fn checkpoint_stats(&self) -> &CheckpointStats {
        &self.ckpt
    }

    /// Records that an experiment-plan leg is about to be measured on
    /// this core. Like the snapshot/restore counters, the mark lives
    /// outside the snapshot: restoring never rewinds it, so it counts
    /// real plan traffic over the core's whole lifetime.
    pub fn mark_plan_leg(&mut self) {
        self.ckpt.plan_legs += 1;
    }

    /// Current cycle count.
    pub fn cycles(&self) -> u64 {
        match self.mode {
            SimMode::Functional => self.func_cycles,
            SimMode::Cycle => ceil_u64(self.last_commit),
        }
    }

    /// Whether a `hlt` has retired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Rewinds the PC to the program entry and clears the halt latch so the
    /// program can run again. Caches, predictors, the µop cache, CSD state,
    /// statistics, and memory all persist — exactly what repeated victim
    /// invocations (one per encryption) need. The simulation kernel's
    /// flow-table counters and context generation reset to their
    /// fresh-core values (they are simulator bookkeeping, not machine
    /// state), while the table's flows stay: every run after the first
    /// decodes each instruction from the table.
    pub fn restart(&mut self) {
        self.state.rip = self.program.entry();
        self.halted = false;
        self.flows.reset_stats();
        self.engine.reset_context_key();
    }

    /// Captures everything needed to resume simulation from this exact
    /// point: the modeled machine in full (see [`CoreSnapshot`]). The
    /// suite uses this to fast-forward a victim's warmup once and fork
    /// attack variants from the checkpoint instead of re-simulating it.
    pub fn snapshot(&mut self) -> CoreSnapshot {
        self.ckpt.snapshots += 1;
        CoreSnapshot {
            state: self.state.clone(),
            mem: self.mem.clone(),
            hier: self.hier.clone(),
            engine: self.engine.clone(),
            dift: self.dift.clone(),
            bp: self.bp.clone(),
            ucache: self.ucache.clone(),
            stats: self.stats,
            fe_time: self.fe_time,
            last_dispatch: self.last_dispatch,
            last_commit: self.last_commit,
            sched: self.sched,
            flags_ready: self.flags_ready,
            alu_ports: self.alu_ports.clone(),
            load_ports: self.load_ports.clone(),
            store_ports: self.store_ports.clone(),
            vec_ports: self.vec_ports.clone(),
            rob: self.rob.clone(),
            prev_from_uc: self.prev_from_uc,
            window_builder: self.window_builder,
            prev_fusable_cmp: self.prev_fusable_cmp,
            pending_mispredict: self.pending_mispredict,
            last_tick: self.last_tick,
            func_cycles: self.func_cycles,
            halted: self.halted,
        }
    }

    /// Rewinds the core to `snap`. Event sinks stay attached to the live
    /// core (cloning an engine never drags a sink, so the snapshot holds
    /// none), and so does the flow table, whose flows are valid in any
    /// state. Fields are restored with `clone_from`, so the live core's
    /// allocations (the cache arenas above all) are reused.
    pub fn restore(&mut self, snap: &CoreSnapshot) {
        self.ckpt.restores += 1;
        self.state.clone_from(&snap.state);
        self.mem.clone_from(&snap.mem);
        self.hier.clone_from(&snap.hier);
        let sink = self.engine.take_event_sink();
        self.engine = snap.engine.clone();
        if let Some(s) = sink {
            self.engine.set_event_sink(s);
        }
        self.dift.clone_from(&snap.dift);
        self.bp.clone_from(&snap.bp);
        self.ucache.clone_from(&snap.ucache);
        self.stats = snap.stats;
        self.fe_time = snap.fe_time;
        self.last_dispatch = snap.last_dispatch;
        self.last_commit = snap.last_commit;
        self.sched = snap.sched;
        self.flags_ready = snap.flags_ready;
        self.alu_ports.clone_from(&snap.alu_ports);
        self.load_ports.clone_from(&snap.load_ports);
        self.store_ports.clone_from(&snap.store_ports);
        self.vec_ports.clone_from(&snap.vec_ports);
        self.rob.clone_from(&snap.rob);
        self.prev_from_uc = snap.prev_from_uc;
        self.window_builder = snap.window_builder;
        self.prev_fusable_cmp = snap.prev_fusable_cmp;
        self.pending_mispredict = snap.pending_mispredict;
        self.last_tick = snap.last_tick;
        self.func_cycles = snap.func_cycles;
        self.halted = snap.halted;
    }

    /// Per-unit activity for the energy model.
    pub fn activity(&self) -> Activity {
        let mut a = Activity::new(self.cycles());
        a.add_ops(Unit::Vpu, self.stats.vpu_uops);
        a.add_ops(Unit::Lsu, self.stats.load_uops + self.stats.store_uops);
        a.add_ops(
            Unit::ScalarAlu,
            self.stats
                .uops
                .saturating_sub(self.stats.vpu_uops + self.stats.load_uops + self.stats.store_uops),
        );
        a.add_ops(
            Unit::LegacyDecode,
            self.stats.legacy_insts + self.stats.msrom_insts,
        );
        a.add_ops(Unit::UopCache, self.stats.uop_cache_insts);
        a.add_ops(Unit::Core, self.stats.uops);
        let gs = self.engine.gate().stats();
        a.vpu_gated_cycles = gs.gated_cycles.min(a.cycles);
        a.vpu_gate_transitions = gs.gate_transitions;
        a
    }

    /// Every counter the simulator keeps, as one nested JSON report:
    /// pipeline, CSD engine, stealth, devectorizer, gate residency, µop
    /// cache, cache hierarchy, activity, the default-model energy
    /// breakdown, and the simulation kernel's own counters (context key,
    /// decode memoization, checkpointing — see the README telemetry
    /// schema).
    pub fn telemetry_report(&self) -> Json {
        let e = &self.engine;
        let activity = self.activity();
        let m = self.flows.stats();
        Json::obj([
            ("sim", self.stats.to_json()),
            ("csd", e.stats().to_json()),
            ("stealth", e.stealth().stats().to_json()),
            ("devec", e.devectorizer().stats().to_json()),
            ("gate", e.gate().stats().to_json()),
            ("uop_cache", self.ucache.stats().to_json()),
            ("caches", self.hier.stats().to_json()),
            ("activity", activity.to_json()),
            (
                "energy",
                EnergyModel::default().breakdown(&activity).to_json(),
            ),
            (
                "kernel",
                Json::obj([
                    ("context_key", Json::from(e.context_key())),
                    (
                        "decode_memo",
                        Json::obj([
                            ("enabled", Json::from(self.flows.enabled())),
                            ("hits", Json::from(m.hits)),
                            ("misses", Json::from(m.misses)),
                            ("bypasses", Json::from(m.bypasses)),
                        ]),
                    ),
                    (
                        "checkpoint",
                        Json::obj([
                            ("snapshots", Json::from(self.ckpt.snapshots)),
                            ("restores", Json::from(self.ckpt.restores)),
                            ("plan_legs", Json::from(self.ckpt.plan_legs)),
                        ]),
                    ),
                ]),
            ),
        ])
    }

    /// Executes one macro-op: `run(1)`.
    pub fn step(&mut self) -> StepOutcome {
        self.run(1)
    }

    /// Runs until halt, fault, or `max_insts` retired. Returns the outcome
    /// of the last instruction (`Running` when `max_insts` is 0).
    pub fn run(&mut self, max_insts: u64) -> StepOutcome {
        self.run_batch(max_insts, |_| false)
    }

    /// Runs until the cycle counter advances by at least `cycles` (or the
    /// program halts/faults). Used to interleave victim execution with
    /// attacker probes at a fixed cadence.
    pub fn run_cycles(&mut self, cycles: u64) -> StepOutcome {
        let target = self.cycles() + cycles;
        self.run_batch(u64::MAX, |c| c.cycles() >= target)
    }

    /// The batched loop behind [`Core::run`] and [`Core::run_cycles`]:
    /// retires up to `max_insts` macro-ops, stopping early on halt, on a
    /// fault, or once `stop` holds (checked before each instruction). The
    /// program and the flow table are moved out of the core for the whole
    /// batch, so fetch and decode can hand the later stages an
    /// instruction and a flow borrowed from them while those stages
    /// mutate the machine.
    ///
    /// Whether a core or engine sink is attached is tested here, once:
    /// nothing inside a batch can attach or detach one, so the stages run
    /// monomorphised on the answer (`TRACE`), and without a sink they
    /// contain no emission site.
    fn run_batch(&mut self, max_insts: u64, stop: impl Fn(&Core) -> bool) -> StepOutcome {
        if max_insts == 0 || stop(self) {
            return StepOutcome::Running;
        }
        if self.halted {
            return StepOutcome::Halted;
        }
        let mut flows = std::mem::take(&mut self.flows);
        let program = std::mem::take(&mut self.program);
        let last = if self.sink.is_attached() || self.engine.has_event_sink() {
            self.retire_batch::<true>(max_insts, &stop, &program, &mut flows)
        } else {
            self.retire_batch::<false>(max_insts, &stop, &program, &mut flows)
        };
        self.program = program;
        self.flows = flows;
        last
    }

    /// Retires up to `max_insts` macro-ops for [`Core::run_batch`].
    fn retire_batch<const TRACE: bool>(
        &mut self,
        max_insts: u64,
        stop: &impl Fn(&Core) -> bool,
        program: &Program,
        flows: &mut FlowTable,
    ) -> StepOutcome {
        let mut last = StepOutcome::Running;
        for _ in 0..max_insts {
            last = self.retire_one::<TRACE>(program, flows);
            if last != StepOutcome::Running || stop(self) {
                break;
            }
        }
        last
    }

    /// Fetch, decode, execute and commit one macro-op.
    #[inline]
    fn retire_one<const TRACE: bool>(
        &mut self,
        program: &Program,
        flows: &mut FlowTable,
    ) -> StepOutcome {
        let f = match fetch::run(self, program) {
            Ok(f) => f,
            Err(fault) => return fault,
        };
        let d = decode::run::<TRACE>(self, &f, flows);
        let end = execute::run::<TRACE>(self, &f, &d);
        commit::run::<TRACE>(self, &f, &d, end)
    }
}
