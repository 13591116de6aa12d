//! The block path against the per-instruction path, stop by stop, in
//! both engines.
//!
//! A core with the flow table on retires straight-line runs of
//! instructions in one step while the CSD engine is quiescent, traced or
//! not; a core with the table off (`CoreConfig::decode_memo_enabled =
//! false`) retires every instruction on its own. Each test builds the
//! same core three times: with the table on and a recording sink, with
//! the table off and a recording sink, and with the table on and no
//! sink. It drives all three the same way: one `run(N)`, `run(1)` per
//! instruction, seeded random `run(k)` chunks, and seeded random
//! `run_cycles(k)` budgets. At every stop the two traced cores' outcome,
//! `cycles()`, raw `clocks()`, `stats()`, `uop_cache_stats()`,
//! `branch_stats()`, registers, flags and PC, the memory the program
//! touches and the whole `telemetry_report()` (floats by their bits) must
//! be identical, and so must the events each sink saw since the last
//! stop, except for how the flow table served each decode. Each core's
//! flow-table counters must be what its table setting predicts, agree
//! with the decode events' `served` and with the report's
//! `kernel.decode_memo`. At the end of each drive the untraced core must
//! equal the traced one with the table on: a sink observes the block
//! path and does not choose it.
//!
//! `CSD_DECODE_MEMO=0` (also `false`, `off`, `no`) turns the flow table
//! off in every core `Core::new` builds, whatever its configuration, so
//! no core could take the block path and the twins would compare the
//! per-instruction path with itself. Every test here then fails at
//! construction, saying so; run them with the variable unset.
//!
//! The programs cover what ends a run or bounds it: AES undefended and
//! under stealth with watchdog periods that expire inside an encryption,
//! RSA's loops, generated difftest programs (`rdmsr`, `wrmsr`, `clflush`,
//! vector instructions) under conventional and CSD gating, with stealth
//! armed and with an MCU custom mode active, a straight-line loop whose
//! conventional idle timer gates the VPU mid-run, and a hand-written loop
//! with `rdtsc`, `clflush`es of its own code lines and loads whose LLC
//! evictions back-invalidate the code line mid-run, on a tiny hierarchy.
//! The cycle engine's twins run the security victims of Figs. 8–11 on
//! both pipelines, undefended and under stealth, every devectorization
//! workload under every VPU policy, a loop whose µop delivery keeps
//! switching source, and the hand-written loop, with the µop cache and
//! fusion each off too.

use csd_difftest::generator::{DATA_BASE, DATA_SIZE, STACK_TOP};
use csd_difftest::harness::STEALTH_WATCHDOG;
use csd_difftest::Generator;
use csd_repro::attack::{victim_core, Defense};
use csd_repro::cache::{CacheConfig, HierarchyConfig};
use csd_repro::core::{
    ContextId, CsdConfig, DevecThresholds, MicrocodeUpdate, OpcodeClass, PrivilegeLevel, VpuPolicy,
};
use csd_repro::crypto::{
    arm_stealth, enable_stealth_for, AesKeySize, AesVictim, CipherDir, RsaVictim, Victim,
};
use csd_repro::exp::{pipelines, policies, security_core, security_victims};
use csd_repro::isa::{AddrRange, AluOp, Assembler, Cc, Gpr, Inst, MemRef, Program, Xmm};
use csd_repro::pipeline::{
    BranchStats, Core, CoreConfig, SimMode, SimStats, StepOutcome, UopCacheStats,
};
use csd_repro::telemetry::coverage::{flow_served, key_cause};
use csd_repro::telemetry::{
    ContextChangeEvent, DecodeEvent, EventSink, GateEvent, Json, RetireEvent, SplitMix64,
    StoreEvent, UopCacheEvent, UopDecodeEvent,
};
use csd_repro::uops::MemoStats;
use csd_repro::workloads::{specs, Workload};
use std::sync::{Arc, Mutex};

const KEY: [u8; 16] = [
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
];

/// The most instructions one drive retires.
const BUDGET: u64 = 20_000;

/// The most instructions a `run(1)` drive of a long program retires.
const SINGLE_BUDGET: u64 = 10_000;

/// How a test drives the twins to the end of one program run.
#[derive(Debug, Clone, Copy)]
enum Schedule {
    /// One `run` of every instruction.
    Whole,
    /// `run(1)` per instruction.
    Single,
    /// `run(k)` with `k` drawn from the seed.
    Chunks(u64),
    /// `run_cycles(k)` with `k` drawn from the seed.
    Cycles(u64),
}

const SCHEDULES: [Schedule; 6] = [
    Schedule::Whole,
    Schedule::Single,
    Schedule::Chunks(1),
    Schedule::Chunks(2),
    Schedule::Cycles(3),
    Schedule::Cycles(4),
];

/// A telemetry report compared exactly: floats by their bits.
#[derive(Debug)]
struct Exact(Json);

/// Whether `a` and `b` are the same tree with the same float bits.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::F64(x), Json::F64(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(x), Json::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same(a, b))
        }
        (Json::Obj(x), Json::Obj(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|((k, a), (l, b))| k == l && same(a, b))
        }
        _ => a == b,
    }
}

impl PartialEq for Exact {
    fn eq(&self, other: &Exact) -> bool {
        same(&self.0, &other.0)
    }
}

/// Everything compared at a stop.
#[derive(Debug, PartialEq)]
struct Seen {
    outcome: StepOutcome,
    cycles: u64,
    /// The raw clocks' bits: a reordered or dropped addition shows here
    /// before it moves a rounded cycle count.
    clocks: [u64; 3],
    stats: SimStats,
    uop_cache: UopCacheStats,
    branch: BranchStats,
    gprs: Vec<u64>,
    xmms: Vec<(u64, u64)>,
    flags: String,
    rip: u64,
    memory: Vec<Vec<u8>>,
    /// The telemetry report without `kernel.decode_memo`, which
    /// [`Twins::check_memo`] checks against the core's own table.
    report: Exact,
}

/// What `core` shows at a stop, and its report's `kernel.decode_memo`
/// section, in which the twins' table settings differ.
fn seen(core: &Core, outcome: StepOutcome, memory: &[AddrRange]) -> (Seen, Json) {
    let s = core.state();
    let mut report = core.telemetry_report();
    let kernel = match &mut report {
        Json::Obj(top) => top.iter_mut().find(|(k, _)| k == "kernel"),
        _ => None,
    };
    let Some((_, Json::Obj(kernel))) = kernel else {
        panic!("the report has a kernel section");
    };
    let memo = kernel.iter().position(|(k, _)| k == "decode_memo");
    let (_, memo) = kernel.remove(memo.expect("the kernel section has decode_memo"));
    let seen = Seen {
        outcome,
        cycles: core.cycles(),
        clocks: core.clocks().map(f64::to_bits),
        stats: *core.stats(),
        uop_cache: *core.uop_cache_stats(),
        branch: *core.branch_stats(),
        gprs: s.gprs().to_vec(),
        xmms: s.xmms().to_vec(),
        flags: format!("{:?}", s.flags),
        rip: s.rip,
        memory: memory
            .iter()
            .map(|r| core.mem().read_bytes(r.start, r.len() as usize))
            .collect(),
        report: Exact(report),
    };
    (seen, memo)
}

/// One event as a sink saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Decode(DecodeEvent),
    UopDecode(UopDecodeEvent),
    UopCache(UopCacheEvent),
    Store(StoreEvent),
    Gate(GateEvent),
    ContextChange(ContextChangeEvent),
    Retire(RetireEvent),
}

/// A sink that records every event in order into a shared log.
struct Recorder(Arc<Mutex<Vec<Event>>>);

impl Recorder {
    fn push(&mut self, ev: Event) {
        self.0.lock().unwrap().push(ev);
    }
}

impl EventSink for Recorder {
    fn on_decode(&mut self, ev: &DecodeEvent) {
        self.push(Event::Decode(*ev));
    }

    fn on_uop_decode(&mut self, ev: &UopDecodeEvent) {
        self.push(Event::UopDecode(*ev));
    }

    fn on_uop_cache(&mut self, ev: &UopCacheEvent) {
        self.push(Event::UopCache(*ev));
    }

    fn on_store(&mut self, ev: &StoreEvent) {
        self.push(Event::Store(*ev));
    }

    fn on_gate(&mut self, ev: &GateEvent) {
        self.push(Event::Gate(*ev));
    }

    fn on_context_change(&mut self, ev: &ContextChangeEvent) {
        self.push(Event::ContextChange(*ev));
    }

    fn on_retire(&mut self, ev: &RetireEvent) {
        self.push(Event::Retire(*ev));
    }
}

/// Counts `events`' decodes by how the flow table served them, and
/// clears each decode's `served`: it is what the twins' tables differ in.
fn served(events: &mut [Event]) -> MemoStats {
    let mut m = MemoStats::default();
    for e in events {
        if let Event::Decode(d) = e {
            match d.served {
                flow_served::HIT => m.hits += 1,
                flow_served::MISS => m.misses += 1,
                _ => m.bypasses += 1,
            }
            d.served = 0;
        }
    }
    m
}

/// The same core built three ways: the flow table on (the block path)
/// and off (one instruction at a time), both with a recording sink, and
/// the table on with no sink.
struct Twins {
    fast: Core,
    slow: Core,
    untraced: Core,
    fast_log: Arc<Mutex<Vec<Event>>>,
    slow_log: Arc<Mutex<Vec<Event>>>,
    memory: Vec<AddrRange>,
    /// The outcomes of the last stop: table on and traced, untraced.
    last: [StepOutcome; 2],
}

impl Twins {
    /// Builds the three cores from `build`'s: each restores a snapshot of
    /// it into a fresh core of its table setting, so all three count one
    /// restore.
    fn new(build: impl Fn() -> Core, memory: Vec<AddrRange>) -> Twins {
        let mut built = build();
        let snap = built.snapshot();
        let core = |memo: bool| {
            let cfg = CoreConfig {
                decode_memo_enabled: memo,
                ..built.config().clone()
            };
            let program = built.program().clone();
            let mut core = Core::new(cfg, CsdConfig::default(), program, built.mode());
            core.restore(&snap);
            core
        };
        let (mut fast, mut slow, untraced) = (core(true), core(false), core(true));
        assert!(!slow.memo_enabled(), "the table-off core has its table off");
        assert!(
            fast.memo_enabled(),
            "the table-on core's flow table is off: CSD_DECODE_MEMO turns it off \
             in every core, so there is no block path to check; unset it"
        );
        let (fast_log, slow_log) = (Arc::default(), Arc::default());
        fast.set_event_sink(Box::new(Recorder(Arc::clone(&fast_log))));
        slow.set_event_sink(Box::new(Recorder(Arc::clone(&slow_log))));
        Twins {
            fast,
            slow,
            untraced,
            fast_log,
            slow_log,
            memory,
            last: [StepOutcome::Running; 2],
        }
    }

    /// Applies `f` to all three cores.
    fn each(&mut self, f: impl Fn(&mut Core)) {
        f(&mut self.fast);
        f(&mut self.slow);
        f(&mut self.untraced);
    }

    /// Applies `step` to all three cores and compares the traced ones.
    fn step(&mut self, what: &str, step: impl Fn(&mut Core) -> StepOutcome) -> StepOutcome {
        let before = [*self.fast.memo_stats(), *self.slow.memo_stats()];
        let a = step(&mut self.fast);
        let b = step(&mut self.slow);
        self.last = [a, step(&mut self.untraced)];
        let (fast, fast_memo) = seen(&self.fast, a, &self.memory);
        let (slow, slow_memo) = seen(&self.slow, b, &self.memory);
        assert_eq!(fast, slow, "{what}");
        let mut fast = std::mem::take(&mut *self.fast_log.lock().unwrap());
        let mut slow = std::mem::take(&mut *self.slow_log.lock().unwrap());
        let served = [served(&mut fast), served(&mut slow)];
        if fast != slow {
            let i = fast.iter().zip(&slow).take_while(|(a, b)| a == b).count();
            let near = |e: &[Event]| e[i.saturating_sub(3)..e.len().min(i + 3)].to_vec();
            panic!(
                "{what}: event {i} of {} vs {} differs; table on {:#?}, table off {:#?}",
                fast.len(),
                slow.len(),
                near(&fast),
                near(&slow)
            );
        }
        self.check_memo(what, before, served, [fast_memo, slow_memo]);
        a
    }

    /// Each core's flow-table counters are what its table setting
    /// predicts (one outcome per decode on the table-on core, only
    /// bypasses on the table-off one), moved since `before` by what its
    /// decode events `served` this stop, and are what its report's
    /// `kernel.decode_memo` section, `reported`, says.
    fn check_memo(
        &self,
        what: &str,
        before: [MemoStats; 2],
        served: [MemoStats; 2],
        reported: [Json; 2],
    ) {
        let (on, off) = (*self.fast.memo_stats(), *self.slow.memo_stats());
        assert_eq!(
            (off.hits, off.misses, off.bypasses),
            (0, 0, on.hits + on.misses + on.bypasses),
            "{what}: table on {on:?}, off {off:?}"
        );
        for (i, core) in [&self.fast, &self.slow].into_iter().enumerate() {
            let m = *core.memo_stats();
            let moved = MemoStats {
                hits: m.hits - before[i].hits,
                misses: m.misses - before[i].misses,
                bypasses: m.bypasses - before[i].bypasses,
            };
            assert_eq!(moved, served[i], "{what}: served decodes");
            let want = Json::obj([
                ("enabled", Json::from(core.memo_enabled())),
                ("hits", Json::from(m.hits)),
                ("misses", Json::from(m.misses)),
                ("bypasses", Json::from(m.bypasses)),
            ]);
            assert_eq!(reported[i], want, "{what}: kernel.decode_memo");
        }
    }

    /// The untraced core equals the traced one with the table on, its
    /// `kernel.decode_memo` included.
    fn check_untraced(&self, what: &str) {
        let [traced, untraced] = self.last;
        assert_eq!(
            seen(&self.untraced, untraced, &self.memory),
            seen(&self.fast, traced, &self.memory),
            "{what}: untraced"
        );
    }

    /// Drives the cores to the end of the program, or past `BUDGET`
    /// more instructions (a program whose loop counter a custom mode
    /// patches away never ends), under `schedule`, comparing them at
    /// every stop. Returns the number of stops.
    fn drive(&mut self, what: &str, schedule: Schedule) -> u64 {
        self.drive_for(what, schedule, BUDGET)
    }

    /// [`Twins::drive`], stopping past `budget` more instructions.
    fn drive_for(&mut self, what: &str, schedule: Schedule, budget: u64) -> u64 {
        let end = self.fast.stats().insts + budget;
        let mut rng = match schedule {
            Schedule::Chunks(seed) | Schedule::Cycles(seed) => SplitMix64::new(seed),
            Schedule::Whole | Schedule::Single => SplitMix64::new(0),
        };
        let mut stops = 0;
        loop {
            let out = match schedule {
                Schedule::Whole => self.step(what, |c| c.run(BUDGET)),
                Schedule::Single => self.step(what, Core::step),
                Schedule::Chunks(_) => {
                    let k = rng.range_u64(1, 65);
                    self.step(what, |c| c.run(k))
                }
                Schedule::Cycles(_) => {
                    let k = rng.range_u64(1, 101);
                    self.step(what, |c| c.run_cycles(k))
                }
            };
            stops += 1;
            if out != StepOutcome::Running || self.fast.stats().insts >= end {
                self.check_untraced(what);
                return stops;
            }
        }
    }
}

/// Runs `victim` on twin cores from `build` under every schedule, three
/// operations each, comparing at every stop and the outputs at the end.
fn victim_twins(what: &str, victim: &dyn Victim, build: impl Fn() -> Core, inputs: &[Vec<u8>]) {
    let mut memory = victim.sensitive_data_ranges();
    memory.extend(victim.sensitive_inst_ranges());
    for schedule in SCHEDULES {
        let mut t = Twins::new(&build, memory.clone());
        for (i, input) in inputs.iter().enumerate() {
            let what = format!("{what} {schedule:?} op {i}");
            t.each(|c| victim.prepare(c, input));
            t.drive(&what, schedule);
            assert!(t.fast.halted(), "{what}: the victim halts");
            let out = victim.collect(&t.fast);
            assert_eq!(out, victim.collect(&t.slow), "{what}: output");
        }
    }
}

fn aes() -> AesVictim {
    AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &KEY)
}

fn aes_inputs() -> Vec<Vec<u8>> {
    (0..3u8)
        .map(|k| (0..16u8).map(|b| b * 7 + k).collect())
        .collect()
}

#[test]
fn block_path_matches_per_instruction_on_undefended_aes() {
    let v = aes();
    victim_twins(
        "aes undefended",
        &v,
        || victim_core(&v, SimMode::Functional, Defense::None),
        &aes_inputs(),
    );
}

/// Watchdog periods from one cycle to longer than an encryption: the
/// watchdog re-arms stealth inside a run, which must end the run there.
#[test]
fn block_path_matches_per_instruction_on_stealth_aes() {
    let v = aes();
    for period in [1, 37, 400, 1000, 5000] {
        let build = || {
            victim_core(
                &v,
                SimMode::Functional,
                Defense::Stealth {
                    watchdog_period: period,
                },
            )
        };
        victim_twins(
            &format!("aes stealth period {period}"),
            &v,
            build,
            &aes_inputs(),
        );
        let mut core = build();
        v.run_once(&mut core, &aes_inputs()[0]);
        assert!(
            core.stats().decoy_uops > 0,
            "period {period}: stealth fired"
        );
    }
}

#[test]
fn block_path_matches_per_instruction_on_rsa() {
    let v = RsaVictim::new(0xDEAD_BEEF, 65_521);
    let inputs: Vec<Vec<u8>> = [3u64, 12_345, 65_000]
        .iter()
        .map(|b| b.to_le_bytes().to_vec())
        .collect();
    for defense in [Defense::None, Defense::stealth_default()] {
        victim_twins(
            &format!("rsa {defense:?}"),
            &v,
            || victim_core(&v, SimMode::Functional, defense),
            &inputs,
        );
    }
}

/// Watchdog periods from one cycle to longer than an operation.
const PERIODS: [u64; 5] = [1, 37, 400, 1000, 5000];

/// `n` seeded inputs of `victim`'s input length.
fn seeded_inputs(victim: &dyn Victim, n: usize) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(0x5EC);
    (0..n)
        .map(|_| {
            let mut input = vec![0; victim.input_len()];
            rng.fill_bytes(&mut input);
            input
        })
        .collect()
}

/// The security victims' cycle cores, as the security figures build
/// them, with stealth at each watchdog period of [`PERIODS`]: the run
/// bound the watchdog's deadline sets is a cycle count here.
fn cycle_victim_twins(pipeline: &str, cfg: fn() -> CoreConfig) {
    for v in security_victims() {
        let v = &*v;
        let inputs = seeded_inputs(v, 2);
        for period in std::iter::once(None).chain(PERIODS.map(Some)) {
            let build = || {
                let mut core = security_core(v, cfg());
                if let Some(p) = period {
                    enable_stealth_for(v, &mut core, p);
                }
                core
            };
            let what = format!("cycle {pipeline} {} watchdog {period:?}", v.name());
            victim_twins(&what, v, build, &inputs);
            if period.is_some() {
                let mut core = build();
                v.run_once(&mut core, &inputs[0]);
                assert!(core.stats().decoy_uops > 0, "{what}: stealth fired");
            }
        }
    }
}

#[test]
fn cycle_block_path_matches_per_instruction_on_opt_security_victims() {
    let [(name, cfg), _] = pipelines();
    cycle_victim_twins(name, cfg);
}

#[test]
fn cycle_block_path_matches_per_instruction_on_noopt_security_victims() {
    let [_, (name, cfg)] = pipelines();
    cycle_victim_twins(name, cfg);
}

/// Other front ends. Without a µop cache every delivery is legacy
/// decode, and without fusion every µop takes its own dispatch slot and
/// front-end slot. The inexact front end's switch penalty and widths
/// have no exact binary quotients, and its one-line windows leave many
/// windows uncacheable, so delivery keeps switching between the µop
/// cache and the legacy decoders inside runs.
#[test]
fn cycle_block_path_matches_per_instruction_on_other_front_ends() {
    let configs = [
        (
            "no uop cache",
            CoreConfig {
                uop_cache_enabled: false,
                ..CoreConfig::default()
            },
        ),
        (
            "no fusion",
            CoreConfig {
                fusion_enabled: false,
                ..CoreConfig::default()
            },
        ),
        (
            "inexact front end",
            CoreConfig {
                uop_cache_switch_penalty: 0.3,
                uop_cache_width: 5,
                decode_width_uops: 3,
                fetch_bytes: 12,
                uop_cache_max_lines_per_window: 1,
                ..CoreConfig::default()
            },
        ),
    ];
    let aes = aes();
    let rsa = RsaVictim::new(0xDEAD_BEEF, 65_521);
    for (name, cfg) in configs {
        for v in [&aes as &dyn Victim, &rsa] {
            let inputs = seeded_inputs(v, 2);
            for period in [None, Some(37)] {
                let build = || {
                    let mut core = security_core(v, cfg.clone());
                    if let Some(p) = period {
                        enable_stealth_for(v, &mut core, p);
                    }
                    core
                };
                let what = format!("cycle {name} {} watchdog {period:?}", v.name());
                victim_twins(&what, v, build, &inputs);
            }
        }
    }
}

/// A loop whose 32-byte windows alternate between a few µops, which a
/// one-line window caches, and many, which it cannot: from the second
/// iteration on, delivery switches between the µop cache and the legacy
/// decoders at every window, inside runs.
fn switching_loop() -> Program {
    let mut a = Assembler::new(0x1000);
    let top = a.fresh_label();
    a.mov_ri(Gpr::Rcx, 40);
    a.align(32);
    a.bind(top).unwrap();
    for k in 0..4 {
        a.align(32);
        for _ in 0..3 {
            a.mov_ri(Gpr::R8, 0x1234_5678_9abc + k);
        }
        a.align(32);
        for _ in 0..10 {
            a.alu_rr(AluOp::Add, Gpr::Rax, Gpr::R8);
        }
    }
    a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
    a.jcc(Cc::Ne, top);
    a.halt();
    a.finish().unwrap()
}

#[test]
fn cycle_block_path_matches_per_instruction_when_delivery_keeps_switching() {
    let program = switching_loop();
    // The front end adds the switch penalty, then the delivery cost. When
    // the fetch clock is large against both, either order rounds each
    // addend onto the clock's grid alike, and the bits agree. A penalty
    // far above the clock's early values, with no exact binary form, puts
    // the two partial sums in different binades, so the other order
    // rounds differently and the raw clocks show it.
    let build = || {
        let cfg = CoreConfig {
            uop_cache_switch_penalty: 10_000.3,
            uop_cache_width: 5,
            decode_width_uops: 3,
            fetch_bytes: 12,
            uop_cache_max_lines_per_window: 1,
            ..CoreConfig::default()
        };
        Core::new(cfg, CsdConfig::default(), program.clone(), SimMode::Cycle)
    };
    for schedule in SCHEDULES {
        let what = format!("switching loop {schedule:?}");
        let mut t = Twins::new(build, Vec::new());
        t.drive(&what, schedule);
        assert!(t.fast.halted(), "{what}: the loop halts");
    }
    // Both delivery sources serve the warm loop.
    let mut core = build();
    core.run(u64::MAX);
    let d = core.stats();
    assert!(d.uop_cache_insts > 100 && d.legacy_insts > 1000, "{d:?}");
}

/// Every devectorization workload (Figs. 12–16) under every VPU policy:
/// conventional gating changes the gate by time alone, within runs, and
/// CSD gating bounds runs by the criticality window.
#[test]
fn cycle_block_path_matches_per_instruction_on_devec_workloads() {
    for spec in specs() {
        let w = Workload::with_scale(spec, 0.05);
        for (policy_name, policy) in policies() {
            let build = || {
                let csd = CsdConfig {
                    vpu_policy: policy,
                    ..CsdConfig::default()
                };
                let program = w.program().clone();
                let mut core = Core::new(CoreConfig::default(), csd, program, SimMode::Cycle);
                w.install(&mut core);
                core
            };
            for schedule in SCHEDULES {
                let what = format!("devec {} {policy_name} {schedule:?}", w.name());
                let mut t = Twins::new(build, vec![w.data_range()]);
                if let Schedule::Single = schedule {
                    // A report per instruction: the first phases only.
                    t.drive_for(&what, schedule, SINGLE_BUDGET);
                } else {
                    t.drive(&what, schedule);
                    assert!(t.fast.halted(), "{what}: the workload halts");
                }
            }
        }
    }
}

/// How a generated program's core is configured.
#[derive(Debug, Clone, Copy)]
enum Setup {
    Conventional,
    CsdDevec,
    Stealth,
    CustomMode,
}

fn difftest_core(program: &Program, setup: Setup) -> Core {
    let cfg = CoreConfig {
        dift_enabled: matches!(setup, Setup::Stealth),
        ..CoreConfig::default()
    };
    let vpu_policy = match setup {
        Setup::Conventional => VpuPolicy::Conventional {
            idle_gate_cycles: 16,
        },
        _ => VpuPolicy::CsdDevec(DevecThresholds {
            window: 8,
            low: 1,
            high: 16,
        }),
    };
    let csd = CsdConfig {
        vpu_policy,
        ..CsdConfig::default()
    };
    let mut core = Core::new(cfg, csd, program.clone(), SimMode::Functional);
    core.state_mut().set_gpr(Gpr::Rsp, STACK_TOP);
    match setup {
        Setup::Stealth => {
            arm_stealth(
                &mut core,
                &[AddrRange::new(DATA_BASE, DATA_BASE + 128)],
                &[AddrRange::new(program.entry(), program.entry() + 128)],
                STEALTH_WATCHDOG,
            );
            core.dift_mut()
                .taint_memory(AddrRange::new(DATA_BASE, DATA_BASE + DATA_SIZE));
        }
        Setup::CustomMode => {
            let mcu = MicrocodeUpdate::new(
                1,
                OpcodeClass::MovRI,
                ContextId::Custom(0),
                true,
                vec![Inst::Nop { len: 1 }],
            );
            core.engine_mut()
                .apply_microcode_update(&mcu, PrivilegeLevel::Kernel)
                .expect("verified update");
            core.engine_mut().set_custom_mode(Some(0));
        }
        Setup::Conventional | Setup::CsdDevec => {}
    }
    core
}

fn program_memory() -> Vec<AddrRange> {
    vec![
        AddrRange::new(DATA_BASE, DATA_BASE + DATA_SIZE),
        AddrRange::new(STACK_TOP - 0x1000, STACK_TOP),
    ]
}

#[test]
fn block_path_matches_per_instruction_on_generated_programs() {
    for seed in 0..6 {
        let program = Generator::new(seed).program().assemble().unwrap();
        for setup in [
            Setup::Conventional,
            Setup::CsdDevec,
            Setup::Stealth,
            Setup::CustomMode,
        ] {
            for schedule in SCHEDULES {
                let what = format!("difftest seed {seed} {setup:?} {schedule:?}");
                let mut t = Twins::new(|| difftest_core(&program, setup), program_memory());
                t.drive(&what, schedule);
                // A second run over warm caches and a built table.
                t.each(Core::restart);
                t.drive(&what, schedule);
            }
        }
    }
}

/// A tiny hierarchy whose LLC sets hold four lines, so a few loads evict
/// the code line being fetched and back-invalidate it from the L1I.
fn tiny_hierarchy() -> HierarchyConfig {
    let level = |size_bytes, ways, latency| CacheConfig {
        size_bytes,
        ways,
        line_bytes: 64,
        latency,
    };
    HierarchyConfig {
        l1i: level(512, 2, 1),
        l1d: level(512, 2, 1),
        l2: level(1024, 4, 4),
        llc: level(2048, 4, 10),
        memory_latency: 50,
        inclusive_llc: true,
    }
}

/// A loop whose straight-line body reads the cycle counter, flushes its
/// own first two code lines, loads from addresses that share the code
/// line's LLC set, and ends in a fusable `cmp`/`jcc`; a vector
/// instruction and a divide sit in the body too.
fn hazard_loop() -> Program {
    let data = 0x10_0000u64;
    let mut a = Assembler::new(0x1000);
    let top = a.fresh_label();
    a.mov_ri(Gpr::Rcx, 24);
    a.mov_ri(Gpr::Rbx, data as i64);
    let body = a.here();
    a.bind(top).unwrap();
    a.mov_ri(Gpr::Rsi, body as i64);
    // The body's second code line, which nothing fetches before the
    // instruction that spans the first two: that fetch hits its first
    // line and misses in its second.
    a.clflush(MemRef::base(Gpr::Rsi).with_disp(64));
    a.alu_rr(AluOp::Add, Gpr::Rax, Gpr::Rcx);
    for k in 0..6 {
        // 512-byte stride: every load maps to the LLC set of the body.
        a.load(Gpr::Rdx, MemRef::base(Gpr::Rbx).with_disp(k * 512 + 8 * k));
        a.alu_rr(AluOp::Xor, Gpr::Rax, Gpr::Rdx);
    }
    a.store(MemRef::base(Gpr::Rbx).with_disp(8), Gpr::Rax);
    a.rdtsc();
    a.alu_rr(AluOp::Add, Gpr::Rdi, Gpr::Rax);
    a.clflush(MemRef::base(Gpr::Rsi));
    a.mov_ri(Gpr::R8, 7);
    a.div(Gpr::R8);
    a.rdmsr(Gpr::R9, 0x100);
    a.vmov_from_gpr(Xmm::new(1), Gpr::Rdi);
    a.load(Gpr::Rdx, MemRef::base(Gpr::Rbx).with_disp(2048));
    a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
    a.cmp_ri(Gpr::Rcx, 0);
    a.jcc(Cc::Ne, top);
    a.store(MemRef::base(Gpr::Rbx), Gpr::Rdi);
    a.halt();
    a.finish().unwrap()
}

#[test]
fn block_path_matches_per_instruction_across_invalidations_and_rdtsc() {
    hazard_twins(SimMode::Functional);
}

#[test]
fn cycle_block_path_matches_per_instruction_across_invalidations_and_rdtsc() {
    hazard_twins(SimMode::Cycle);
}

/// The hazard loop's twins in `mode`, with the µop cache and fusion each
/// off too.
fn hazard_twins(mode: SimMode) {
    let program = hazard_loop();
    let memory = vec![AddrRange::new(0x10_0000, 0x10_1000)];
    for (uop_cache_enabled, fusion_enabled) in [(true, true), (false, true), (true, false)] {
        let build = || {
            let cfg = CoreConfig {
                hierarchy: tiny_hierarchy(),
                uop_cache_enabled,
                fusion_enabled,
                ..CoreConfig::default()
            };
            Core::new(cfg, CsdConfig::default(), program.clone(), mode)
        };
        for schedule in SCHEDULES {
            let what = format!(
                "hazard loop {mode:?} uc {uop_cache_enabled} fusion {fusion_enabled} {schedule:?}"
            );
            let mut t = Twins::new(build, memory.clone());
            t.drive(&what, schedule);
            t.each(Core::restart);
            t.drive(&what, schedule);
        }
        // The loop's code lines are back-invalidated and flushed while
        // it runs, so its fetches miss again and again.
        let mut core = build();
        core.run(1_000_000);
        let l1i = core.hierarchy().stats().l1i;
        assert!(l1i.misses > 24, "{l1i:?}");
    }
}

/// A loop whose straight-line body mixes encodings of 3 to 10 bytes, so
/// its instructions start at every offset of their L1I lines and
/// µop-cache windows.
fn straight_loop(body: usize) -> Program {
    let mut a = Assembler::new(0x1000);
    let top = a.fresh_label();
    a.mov_ri(Gpr::Rcx, 5);
    a.mov_ri(Gpr::Rbx, DATA_BASE as i64);
    a.bind(top).unwrap();
    for k in 0..body as i64 {
        match k % 4 {
            0 => a.mov_ri(Gpr::R8, 0x1234_5678_9abc + k),
            1 => a.alu_rr(AluOp::Add, Gpr::Rax, Gpr::R8),
            2 => a.load(Gpr::Rdx, MemRef::base(Gpr::Rbx).with_disp(8 * k)),
            _ => a.store(MemRef::base(Gpr::Rbx).with_disp(8 * k), Gpr::Rax),
        };
    }
    a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
    a.jcc(Cc::Ne, top);
    a.halt();
    a.finish().unwrap()
}

fn loop_core(program: &Program, mode: SimMode) -> Core {
    Core::new(
        CoreConfig::default(),
        CsdConfig::default(),
        program.clone(),
        mode,
    )
}

fn loop_memory() -> Vec<AddrRange> {
    vec![AddrRange::new(DATA_BASE, DATA_BASE + 0x400)]
}

/// Functional cycle targets of every size from 1 to 60 µops: most runs
/// end at a target that falls inside a µop-cache window and an L1I line,
/// so the run's last window is cut short and delivered from the record
/// sums.
#[test]
fn block_path_matches_per_instruction_at_cycle_targets_inside_windows_and_lines() {
    let program = straight_loop(48);
    let mut inside = 0;
    for k in 1..=60 {
        let mut t = Twins::new(|| loop_core(&program, SimMode::Functional), loop_memory());
        let what = format!("straight loop run_cycles({k})");
        while t.step(&what, |c| c.run_cycles(k)) == StepOutcome::Running {
            // The instruction before the PC ends inside the PC's 32-byte
            // window, and so inside its 64-byte line.
            if !t.fast.state().rip.is_multiple_of(32) {
                inside += 1;
            }
        }
        assert!(t.fast.halted(), "{what}: the loop halts");
        t.check_untraced(&what);
    }
    assert!(inside > 1000, "{inside} stops inside a window and a line");
}

/// A loop entered first in the middle of its body: the first run to build
/// records starts there, and the next iteration's run from the top joins
/// those records onto its own, so one segment end serves both entries.
#[test]
fn block_path_matches_per_instruction_when_a_segment_is_entered_mid_way_first() {
    let mut a = Assembler::new(0x1000);
    let (top, mid) = (a.fresh_label(), a.fresh_label());
    a.mov_ri(Gpr::Rcx, 4);
    a.mov_ri(Gpr::Rbx, DATA_BASE as i64);
    a.jmp(mid);
    a.bind(top).unwrap();
    for k in 0..12 {
        a.alu_ri(AluOp::Add, Gpr::Rax, k + 1);
        a.store(MemRef::base(Gpr::Rbx).with_disp(8 * k), Gpr::Rax);
    }
    a.bind(mid).unwrap();
    for k in 12..24 {
        a.load(Gpr::Rdx, MemRef::base(Gpr::Rbx).with_disp(8 * (k - 12)));
        a.alu_rr(AluOp::Xor, Gpr::Rax, Gpr::Rdx);
        a.store(MemRef::base(Gpr::Rbx).with_disp(8 * k), Gpr::Rax);
    }
    a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
    a.jcc(Cc::Ne, top);
    a.halt();
    let program = a.finish().unwrap();
    for mode in [SimMode::Functional, SimMode::Cycle] {
        for schedule in SCHEDULES {
            let what = format!("mid-entered loop {mode:?} {schedule:?}");
            let mut t = Twins::new(|| loop_core(&program, mode), loop_memory());
            t.drive(&what, schedule);
            assert!(t.fast.halted(), "{what}: the loop halts");
        }
    }
}

/// With the loop's records built, `run(1)` from the top of the body to
/// each of its instructions in turn, then one run to the end: a run of
/// one enters at every instruction, and a long run follows from each.
#[test]
fn block_path_matches_per_instruction_entering_at_every_instruction_of_a_segment() {
    let body = 24;
    let program = straight_loop(body);
    // The prologue and one iteration: two `mov`s, the body, `sub`, `jcc`.
    let first = 2 + body as u64 + 2;
    for mode in [SimMode::Functional, SimMode::Cycle] {
        for i in 0..=body + 1 {
            let what = format!("straight loop {mode:?} entered at {i}");
            let mut t = Twins::new(|| loop_core(&program, mode), loop_memory());
            t.step(&what, |c| c.run(first));
            for _ in 0..i {
                t.step(&what, Core::step);
            }
            t.step(&what, |c| c.run(BUDGET));
            assert!(t.fast.halted(), "{what}: the loop halts");
            t.check_untraced(&what);
        }
    }
}

/// Each iteration's tainted load injects the decoy sweep, then a `wrmsr`
/// grows the decoy data range by one block (which re-arms stealth), so
/// every injection must sweep the ranges as they stand then, not as the
/// stored sweep was built.
#[test]
fn stealth_injections_sweep_the_ranges_a_wrmsr_rewrote() {
    use csd_repro::core::msr::MSR_DATA_RANGE_BASE;
    let iterations = 4u64;
    let mut a = Assembler::new(0x1000);
    let top = a.fresh_label();
    a.mov_ri(Gpr::Rcx, iterations as i64);
    a.mov_ri(Gpr::Rsi, DATA_BASE as i64);
    a.mov_ri(Gpr::Rax, (DATA_BASE + 64) as i64);
    a.bind(top).unwrap();
    // A tainted value, then a load whose address it forms.
    a.load(Gpr::Rbx, MemRef::base(Gpr::Rsi));
    a.load(
        Gpr::Rdx,
        MemRef::base(Gpr::Rbx).with_disp(DATA_BASE as i64 + 8),
    );
    for k in 0..8 {
        a.alu_ri(AluOp::Add, Gpr::R8, k);
    }
    a.alu_ri(AluOp::Add, Gpr::Rax, 64);
    a.wrmsr(MSR_DATA_RANGE_BASE + 1, Gpr::Rax);
    a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
    a.jcc(Cc::Ne, top);
    a.halt();
    let program = a.finish().unwrap();
    let build = |mode| {
        let cfg = CoreConfig {
            dift_enabled: true,
            ..CoreConfig::default()
        };
        let mut core = Core::new(cfg, CsdConfig::default(), program.clone(), mode);
        arm_stealth(
            &mut core,
            &[AddrRange::new(DATA_BASE, DATA_BASE + 64)],
            &[],
            1_000_000,
        );
        core.dift_mut()
            .taint_memory(AddrRange::new(DATA_BASE, DATA_BASE + DATA_SIZE));
        core
    };
    // Iteration k sweeps k + 1 blocks: a `mov`, then `ld`, `sub`, `br`
    // per block.
    let decoys: u64 = (1..=iterations).map(|blocks| 1 + 3 * blocks).sum();
    for mode in [SimMode::Functional, SimMode::Cycle] {
        for schedule in SCHEDULES {
            let what = format!("rewritten ranges {mode:?} {schedule:?}");
            let mut t = Twins::new(|| build(mode), loop_memory());
            t.drive(&what, schedule);
            assert!(t.fast.halted(), "{what}: the loop halts");
            let s = *t.fast.engine().stealth().stats();
            assert_eq!(s.triggers, iterations, "{what}");
            assert_eq!(s.decoy_uops, decoys, "{what}");
        }
    }
}

/// A loop that wakes the VPU with one vector instruction per iteration,
/// then runs a long straight-line body: under conventional gating with a
/// short idle timer, the timer expires inside the body, so the tick that
/// gates belongs to an instruction in the middle of a run.
fn idle_loop() -> Program {
    let mut a = Assembler::new(0x1000);
    let top = a.fresh_label();
    a.mov_ri(Gpr::Rcx, 6);
    a.bind(top).unwrap();
    a.vmov_from_gpr(Xmm::new(1), Gpr::Rcx);
    for k in 0..160 {
        a.alu_ri(AluOp::Add, Gpr::Rax, k);
    }
    a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
    a.jcc(Cc::Ne, top);
    a.halt();
    a.finish().unwrap()
}

/// The idle timer gates the VPU mid-run in both engines: the gate event
/// and its context change come right before the retire of the
/// instruction whose tick gated, in the table-on stream as in the
/// table-off one.
#[test]
fn block_path_reports_an_idle_timer_expiry_before_its_retire() {
    let program = idle_loop();
    for idle_gate_cycles in [1, 2, 7, 20] {
        for mode in [SimMode::Functional, SimMode::Cycle] {
            let build = || {
                let csd = CsdConfig {
                    vpu_policy: VpuPolicy::Conventional { idle_gate_cycles },
                    ..CsdConfig::default()
                };
                Core::new(CoreConfig::default(), csd, program.clone(), mode)
            };
            for schedule in SCHEDULES {
                let what = format!("idle timer {idle_gate_cycles} {mode:?} {schedule:?}");
                let mut t = Twins::new(build, Vec::new());
                t.drive(&what, schedule);
                assert!(t.fast.halted(), "{what}: the loop halts");
            }
            let what = format!("idle timer {idle_gate_cycles} {mode:?}");
            let log = Arc::default();
            let mut core = build();
            core.set_event_sink(Box::new(Recorder(Arc::clone(&log))));
            core.run(u64::MAX);
            let events = log.lock().unwrap();
            let mut in_body = 0;
            for (i, e) in events.iter().enumerate() {
                if !matches!(e, Event::Gate(g) if g.gated) {
                    continue;
                }
                let gate = ContextChangeEvent {
                    cause: key_cause::GATE,
                };
                assert_eq!(events[i - 1], Event::ContextChange(gate), "{what}");
                let Event::Retire(r) = events[i + 1] else {
                    panic!("{what}: {:?} follows the gate event", events[i + 1]);
                };
                let inst = &program.fetch(r.addr).expect("a retired instruction").inst;
                in_body += usize::from(matches!(inst, Inst::Alu { .. }));
            }
            assert!(in_body > 0, "{what}: the timer expires inside the body");
        }
    }
}
