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
//!
//! A batch with the flow table enabled also takes the block path
//! ([`crate::block`]), in either engine and whether or not a sink is
//! attached: while the CSD engine is quiescent, a straight-line run of
//! instructions retires as one step, through the same executor (and, in
//! the cycle engine, the same timing steps), with its fetch, µop-cache
//! and commit bookkeeping charged per L1I line, per µop-cache window and
//! per run. Each instruction that ends a run or that the engine could
//! act on goes through the per-instruction retire. Every stop leaves the
//! machine exactly as that retire would, and an attached sink sees the
//! same events in the same order.

use crate::block::{self, Steps};
use crate::branch::BranchPredictor;
use crate::clock::ceil_u64;
use crate::config::CoreConfig;
use crate::decode::{Quotients, WindowBuilder};
use crate::execute::Rob;
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

/// The modeled machine: architectural and decoder-internal registers, the
/// memory image, the cache hierarchy, the CSD engine (MSRs,
/// stealth/gate/devec state and statistics), DIFT, branch predictor, µop
/// cache, simulation statistics, and the cycle-timing state.
///
/// This struct is the one definition of what a snapshot holds:
/// [`CoreSnapshot`] wraps a clone of it and [`Core::restore`] is one
/// `clone_from`. Everything else on [`Core`] (the program, configuration,
/// simulation mode, event sink, checkpoint counters, and the flow
/// table) is the simulation kernel and stays with the live core. The
/// machine holds no observer: the CSD engine reports its events to the
/// core's sink, lent to it for each run.
#[derive(Debug)]
pub(crate) struct Machine {
    /// Architectural + decoder-internal register state.
    pub(crate) state: ArchState,
    /// Flat data/instruction memory.
    pub(crate) mem: Memory,
    pub(crate) hier: Hierarchy,
    pub(crate) engine: CsdEngine,
    pub(crate) dift: Dift,
    pub(crate) bp: BranchPredictor,
    pub(crate) ucache: UopCache,
    /// Statistics; `stats.cycles` is also the clock the CSD engine has
    /// been ticked to.
    pub(crate) stats: SimStats,

    // --- timing state (cycle mode) ---
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
    pub(crate) rob: Rob,
    pub(crate) prev_from_uc: bool,
    pub(crate) window_builder: Option<WindowBuilder>,
    pub(crate) prev_fusable_cmp: bool,
    pub(crate) halted: bool,
}

impl Machine {
    /// The power-on machine for `cfg`, starting at `entry`.
    fn new(cfg: &CoreConfig, csd_cfg: CsdConfig, entry: u64) -> Machine {
        let ucache = UopCache::new(
            cfg.uop_cache_sets(),
            cfg.uop_cache_ways,
            cfg.uop_cache_line_uops,
            cfg.uop_cache_max_lines_per_window,
        );
        Machine {
            hier: Hierarchy::new(cfg.hierarchy),
            engine: CsdEngine::new(csd_cfg),
            dift: Dift::new(),
            bp: BranchPredictor::default(),
            ucache,
            state: ArchState::new(entry),
            mem: Memory::new(),
            stats: SimStats::default(),
            fe_time: 0.0,
            last_dispatch: 0.0,
            last_commit: 0.0,
            sched: [0.0; UReg::COUNT],
            flags_ready: 0.0,
            alu_ports: vec![0.0; cfg.alu_units],
            load_ports: vec![0.0; cfg.load_units],
            store_ports: vec![0.0; cfg.store_units],
            vec_ports: vec![0.0; cfg.vector_units],
            rob: Rob::new(cfg.rob_entries),
            prev_from_uc: false,
            window_builder: None,
            prev_fusable_cmp: false,
            halted: false,
        }
    }
}

impl Clone for Machine {
    fn clone(&self) -> Machine {
        Machine {
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
            halted: self.halted,
        }
    }

    /// Rewinds `self` to `src`, reusing `self`'s allocations (the cache
    /// arenas above all). The pattern names every field with no `..`
    /// rest, so a field added to [`Machine`] does not compile until it
    /// is restored here.
    fn clone_from(&mut self, src: &Machine) {
        let Machine {
            state,
            mem,
            hier,
            engine,
            dift,
            bp,
            ucache,
            stats,
            fe_time,
            last_dispatch,
            last_commit,
            sched,
            flags_ready,
            alu_ports,
            load_ports,
            store_ports,
            vec_ports,
            rob,
            prev_from_uc,
            window_builder,
            prev_fusable_cmp,
            halted,
        } = self;
        state.clone_from(&src.state);
        mem.clone_from(&src.mem);
        hier.clone_from(&src.hier);
        engine.clone_from(&src.engine);
        dift.clone_from(&src.dift);
        bp.clone_from(&src.bp);
        ucache.clone_from(&src.ucache);
        *stats = src.stats;
        *fe_time = src.fe_time;
        *last_dispatch = src.last_dispatch;
        *last_commit = src.last_commit;
        *sched = src.sched;
        *flags_ready = src.flags_ready;
        alu_ports.clone_from(&src.alu_ports);
        load_ports.clone_from(&src.load_ports);
        store_ports.clone_from(&src.store_ports);
        vec_ports.clone_from(&src.vec_ports);
        rob.clone_from(&src.rob);
        *prev_from_uc = src.prev_from_uc;
        *window_builder = src.window_builder;
        *prev_fusable_cmp = src.prev_fusable_cmp;
        *halted = src.halted;
    }
}

/// A checkpoint of the whole modeled machine, taken by [`Core::snapshot`]
/// and rewound to by [`Core::restore`]: architectural and
/// decoder-internal registers, the memory image, the cache hierarchy, the
/// CSD engine, DIFT, branch predictor, µop cache, simulation statistics,
/// and the cycle-timing state. The program, configuration, simulation
/// mode, event sink, checkpoint counters, and the flow table stay with
/// the live core (the table's flows depend on the program alone, so they
/// are valid in every state).
#[derive(Debug, Clone)]
pub struct CoreSnapshot(Machine);

// A snapshot must be shareable across threads: `run_plan` lends one
// warmed checkpoint to parallel `ordered_map` workers, which restore it
// into a fresh core per leg. The machine holds no sink, so this holds
// by construction; this assertion turns any regression into a compile
// error here rather than a trait-bound error in `csd-exp`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CoreSnapshot>();
};

/// The simulator core: the modeled machine plus the simulation kernel
/// that drives it (program, configuration, mode, flow table, event sink,
/// checkpoint counters).
#[derive(Debug)]
pub struct Core {
    pub(crate) cfg: CoreConfig,
    pub(crate) mode: SimMode,
    pub(crate) program: Program,
    /// The modeled machine: everything a snapshot holds.
    pub(crate) m: Machine,
    pub(crate) sink: SinkHandle,
    /// Per-instruction µop flows; moved out while [`Core::run`] runs.
    flows: FlowTable,
    /// The block path's per-instruction records; moved out with `flows`.
    steps: Steps,
    ckpt: CheckpointStats,
    /// The program index after the last fetched instruction: where the
    /// next fetch looks first ([`Program::fetch_hinted`]). Only a guess,
    /// checked against the PC on use, so it stays out of snapshots.
    pub(crate) fetch_hint: usize,
    /// `1 / dispatch_width` and `1 / commit_width`: the slot spacing of
    /// dispatch and commit, divided once here rather than per µop.
    pub(crate) dispatch_step: f64,
    pub(crate) commit_step: f64,
    /// The front end's delivery-cost quotients, divided once here.
    pub(crate) quotients: Quotients,
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
        let flows = FlowTable::new(program.len(), cfg.decode_memo_enabled && env_memo_enabled());
        Core {
            m: Machine::new(&cfg, csd_cfg, program.entry()),
            sink: SinkHandle::new(),
            flows,
            steps: Steps::default(),
            ckpt: CheckpointStats::default(),
            fetch_hint: 0,
            dispatch_step: 1.0 / cfg.dispatch_width as f64,
            commit_step: 1.0 / cfg.commit_width as f64,
            quotients: Quotients::new(&cfg),
            program,
            cfg,
            mode,
        }
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// The simulation fidelity.
    pub fn mode(&self) -> SimMode {
        self.mode
    }

    /// Attaches an event sink, replacing any previous one. This is the
    /// one place a sink attaches: the stages report µop-cache, store and
    /// retire events to it, and lend it to the CSD engine for its decode,
    /// gate and context-change events, so the sink sees one ordered
    /// stream. Set-up calls made through [`Core::engine_mut`]
    /// outside a run report nothing. Each [`Core::run`] batch tests once
    /// whether a sink is attached; without one (the default) it runs
    /// stage code compiled without emission sites, so it pays nothing per
    /// event. A sink attached between two batches sees all of the later
    /// one, and a sink stays attached across [`Core::restore`].
    pub fn set_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sink.attach(sink);
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Architectural + decoder-internal register state.
    pub fn state(&self) -> &ArchState {
        &self.m.state
    }

    /// Mutable register state (test set-up, PC redirects).
    pub fn state_mut(&mut self) -> &mut ArchState {
        &mut self.m.state
    }

    /// Flat data/instruction memory.
    pub fn mem(&self) -> &Memory {
        &self.m.mem
    }

    /// Mutable memory (victim inputs and tables are written through this).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.m.mem
    }

    /// The CSD engine (stats, gate state).
    pub fn engine(&self) -> &CsdEngine {
        &self.m.engine
    }

    /// Mutable CSD engine (MSR configuration, MCU installation).
    pub fn engine_mut(&mut self) -> &mut CsdEngine {
        &mut self.m.engine
    }

    /// The memory hierarchy (attack agents probe and flush through this).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.m.hier
    }

    /// Mutable memory hierarchy.
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.m.hier
    }

    /// The DIFT engine (taint sources).
    pub fn dift_mut(&mut self) -> &mut Dift {
        &mut self.m.dift
    }

    /// The branch predictor statistics.
    pub fn branch_stats(&self) -> &crate::branch::BranchStats {
        self.m.bp.stats()
    }

    /// µop cache statistics.
    pub fn uop_cache_stats(&self) -> &UopCacheStats {
        self.m.ucache.stats()
    }

    /// Simulation statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.m.stats
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
            SimMode::Functional => self.m.stats.cycles,
            SimMode::Cycle => ceil_u64(self.m.last_commit),
        }
    }

    /// The cycle engine's raw clocks, in cycles: the front end's fetch
    /// clock, the last dispatch slot and the commit high-water mark, whose
    /// ceiling is [`Core::cycles`]. All 0.0 in functional mode. For checks
    /// that need the exact timestamps rather than their rounding.
    pub fn clocks(&self) -> [f64; 3] {
        [self.m.fe_time, self.m.last_dispatch, self.m.last_commit]
    }

    /// Whether a `hlt` has retired.
    pub fn halted(&self) -> bool {
        self.m.halted
    }

    /// Rewinds the PC to the program entry and clears the halt latch so the
    /// program can run again. Caches, predictors, the µop cache, CSD state,
    /// statistics, and memory all persist — exactly what repeated victim
    /// invocations (one per encryption) need. The flow table's counters
    /// reset to their fresh-core values (they are simulator bookkeeping,
    /// not machine state), while its flows stay: every run after the
    /// first decodes each instruction from the table.
    pub fn restart(&mut self) {
        self.m.state.rip = self.program.entry();
        self.m.halted = false;
        self.flows.reset_stats();
    }

    /// Captures everything needed to resume simulation from this exact
    /// point: the modeled machine in full (see [`CoreSnapshot`]). The
    /// suite uses this to fast-forward a victim's warmup once and fork
    /// attack variants from the checkpoint instead of re-simulating it.
    pub fn snapshot(&mut self) -> CoreSnapshot {
        self.ckpt.snapshots += 1;
        CoreSnapshot(self.m.clone())
    }

    /// Rewinds the core to `snap`, reusing the live core's allocations
    /// (the cache arenas above all). The event sink and the flow table
    /// belong to the live core, not the machine, so they stay: the sink
    /// sees the run after the rewind, and the table's flows are valid in
    /// any state.
    pub fn restore(&mut self, snap: &CoreSnapshot) {
        self.ckpt.restores += 1;
        self.m.clone_from(&snap.0);
    }

    /// Per-unit activity for the energy model.
    pub fn activity(&self) -> Activity {
        let mut a = Activity::new(self.cycles());
        a.add_ops(Unit::Vpu, self.m.stats.vpu_uops);
        a.add_ops(Unit::Lsu, self.m.stats.load_uops + self.m.stats.store_uops);
        a.add_ops(
            Unit::ScalarAlu,
            self.m.stats.uops.saturating_sub(
                self.m.stats.vpu_uops + self.m.stats.load_uops + self.m.stats.store_uops,
            ),
        );
        a.add_ops(
            Unit::LegacyDecode,
            self.m.stats.legacy_insts + self.m.stats.msrom_insts,
        );
        a.add_ops(Unit::UopCache, self.m.stats.uop_cache_insts);
        a.add_ops(Unit::Core, self.m.stats.uops);
        let gs = self.m.engine.gate().stats();
        a.vpu_gated_cycles = gs.gated_cycles.min(a.cycles);
        a.vpu_gate_transitions = gs.gate_transitions;
        a
    }

    /// Every counter the simulator keeps, as one nested JSON report:
    /// pipeline, CSD engine, stealth, devectorizer, gate residency, µop
    /// cache, cache hierarchy, activity, the default-model energy
    /// breakdown, and the simulation kernel's own counters (decode
    /// memoization, checkpointing — see the README telemetry schema).
    pub fn telemetry_report(&self) -> Json {
        let e = &self.m.engine;
        let activity = self.activity();
        let m = self.flows.stats();
        Json::obj([
            ("sim", self.m.stats.to_json()),
            ("csd", e.stats().to_json()),
            ("stealth", e.stealth().stats().to_json()),
            ("devec", e.devectorizer().stats().to_json()),
            ("gate", e.gate().stats().to_json()),
            ("uop_cache", self.m.ucache.stats().to_json()),
            ("caches", self.m.hier.stats().to_json()),
            ("activity", activity.to_json()),
            (
                "energy",
                EnergyModel::default().breakdown(&activity).to_json(),
            ),
            (
                "kernel",
                Json::obj([
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
    ///
    /// With the flow table enabled, a run retires straight-line runs of
    /// instructions in one step while the CSD engine is quiescent (the
    /// block path, `block.rs`), and each instruction the engine could act
    /// on, or that ends a run, one at a time. Every state, counter and
    /// event ends exactly as retiring one instruction at a time leaves
    /// it, at every stop.
    pub fn run(&mut self, max_insts: u64) -> StepOutcome {
        self.run_batch(max_insts, u64::MAX)
    }

    /// Runs until the cycle counter advances by at least `cycles` (or the
    /// program halts/faults). Used to interleave victim execution with
    /// attacker probes at a fixed cadence. A budget that would pass
    /// `u64::MAX` runs like [`Core::run`] with no instruction limit.
    pub fn run_cycles(&mut self, cycles: u64) -> StepOutcome {
        let target = self.cycles().saturating_add(cycles);
        self.run_batch(u64::MAX, target)
    }

    /// The batched loop behind [`Core::run`] and [`Core::run_cycles`]:
    /// retires up to `max_insts` macro-ops, stopping early on halt, on a
    /// fault, or once the cycle count reaches `target` (checked after
    /// each instruction). The program, the flow table and the block
    /// records are moved out of the core for the whole batch, so fetch
    /// and decode can hand the later stages an instruction and a flow
    /// borrowed from them while those stages mutate the machine.
    ///
    /// Whether the core's sink is attached is tested here, once: nothing
    /// inside a batch can attach or detach it, so the stages run
    /// monomorphised on the answer (`TRACE`), and without a sink they
    /// contain no emission site. The stages lend the sink to the engine
    /// calls they make, so engine events need no second test.
    fn run_batch(&mut self, max_insts: u64, target: u64) -> StepOutcome {
        if max_insts == 0 || self.cycles() >= target {
            return StepOutcome::Running;
        }
        if self.m.halted {
            return StepOutcome::Halted;
        }
        let mut flows = std::mem::take(&mut self.flows);
        let mut steps = std::mem::take(&mut self.steps);
        let program = std::mem::take(&mut self.program);
        let last = if self.sink.is_attached() {
            self.retire_batch::<true>(max_insts, target, &program, &mut flows, &mut steps)
        } else {
            self.retire_batch::<false>(max_insts, target, &program, &mut flows, &mut steps)
        };
        self.program = program;
        self.steps = steps;
        self.flows = flows;
        last
    }

    /// Retires up to `max_insts` macro-ops for [`Core::run_batch`]: block
    /// runs where the block path applies, one instruction at a time
    /// between and otherwise.
    fn retire_batch<const TRACE: bool>(
        &mut self,
        max_insts: u64,
        target: u64,
        program: &Program,
        flows: &mut FlowTable,
        steps: &mut Steps,
    ) -> StepOutcome {
        let cycle = self.mode == SimMode::Cycle;
        // `run` sets no cycle target: its loop reads no clock.
        let timed = target != u64::MAX;
        let mut left = max_insts;
        loop {
            if let Some(quiet) = self.m.engine.quiet_run().filter(|_| flows.enabled()) {
                let n = if cycle {
                    block::run::<true, TRACE>(self, quiet, program, flows, steps, left, target)
                } else {
                    block::run::<false, TRACE>(self, quiet, program, flows, steps, left, target)
                };
                left -= n;
                if n > 0 && (left == 0 || (timed && self.cycles() >= target)) {
                    return StepOutcome::Running;
                }
            }
            let last = self.retire_one::<TRACE>(program, flows);
            left -= 1;
            if last != StepOutcome::Running || left == 0 || (timed && self.cycles() >= target) {
                return last;
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use mx86_isa::{AluOp, Assembler, Cc, Gpr, MemRef};

    /// A loop that loads, stores and branches, then halts.
    fn program() -> Program {
        let mut a = Assembler::new(0x1000);
        let top = a.fresh_label();
        a.mov_ri(Gpr::Rcx, 50);
        a.mov_ri(Gpr::Rbx, 0x8000);
        a.bind(top).unwrap();
        a.load(Gpr::Rdx, MemRef::base(Gpr::Rbx));
        a.alu_rr(AluOp::Add, Gpr::Rax, Gpr::Rdx);
        a.alu_ri(AluOp::Add, Gpr::Rdx, 3);
        a.store(MemRef::base(Gpr::Rbx), Gpr::Rdx);
        a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
        a.jcc(Cc::Ne, top);
        a.halt();
        a.finish().unwrap()
    }

    /// A cycle budget of `u64::MAX` runs to the halt from any clock,
    /// like `run(u64::MAX)`, rather than wrapping its target.
    #[test]
    fn an_unbounded_cycle_budget_runs_to_the_halt() {
        for mode in [SimMode::Functional, SimMode::Cycle] {
            for head in [0, 1, 7] {
                let core = || {
                    let mut c =
                        Core::new(CoreConfig::default(), CsdConfig::default(), program(), mode);
                    c.run(head);
                    c
                };
                let (mut by_insts, mut by_cycles) = (core(), core());
                assert_eq!(by_insts.run(u64::MAX), StepOutcome::Halted);
                let what = format!("{mode:?} after {head} insts");
                assert_eq!(
                    by_cycles.run_cycles(u64::MAX),
                    StepOutcome::Halted,
                    "{what}"
                );
                assert_eq!(by_cycles.cycles(), by_insts.cycles(), "{what}");
                assert_eq!(by_cycles.state().gprs(), by_insts.state().gprs(), "{what}");
                assert_eq!(
                    by_cycles.telemetry_report(),
                    by_insts.telemetry_report(),
                    "{what}"
                );
            }
        }
    }
}
