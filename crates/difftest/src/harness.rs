//! Cosimulation harness: runs one program through the cycle-level
//! pipeline under every leg of the CSD mode matrix and compares the final
//! architectural state, the retired-instruction partition, and the
//! ordered store stream against the [`crate::reference`] interpreter.

use crate::generator::{CODE_BASE, DATA_BASE, DATA_SIZE, STACK_TOP};
use crate::reference::{RefCpu, RefOutcome, StoreRecord};
use csd::{
    ContextId, CsdConfig, DevecThresholds, MicrocodeUpdate, OpcodeClass, PrivilegeLevel, VpuPolicy,
};
use csd_exp::{Leg, LegMode};
use csd_pipeline::{Core, CoreConfig, SimMode};
use csd_telemetry::{CoverageMap, CoverageSink, EventSink, StoreEvent, UopCacheEvent};
use mx86_isa::AddrRange as TaintRange;
use mx86_isa::Program;
use std::sync::{Arc, Mutex};

/// Retirement budget per leg (applied identically to the reference).
pub const MAX_INSTS: u64 = 200_000;

/// Stealth watchdog period armed by stealth legs — the same value the
/// harness passes to `csd_crypto::arm_stealth` and the one
/// [`ModeLeg::exp_legs`] records in corpus metadata.
pub const STEALTH_WATCHDOG: u64 = 200;

/// One decoder configuration under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeLeg {
    /// Stealth-mode decoy translation (and DIFT) enabled.
    pub stealth: bool,
    /// Selective devectorization (CSD VPU gating) enabled.
    pub devec: bool,
    /// Decode memoization enabled.
    pub memo: bool,
    /// µop cache enabled.
    pub ucache: bool,
    /// Cycle-level timing model (vs functional).
    pub cycle: bool,
    /// Snapshot mid-program, run to completion, restore, run again.
    pub snapshot: bool,
}

impl ModeLeg {
    /// Short leg name for reports: `s`tealth, `d`evec, `m`emo, `u`cache,
    /// with a mode prefix.
    pub fn name(&self) -> String {
        let mut s = String::from(if self.cycle { "cyc" } else { "fun" });
        if self.snapshot {
            s.push_str("-snap");
        }
        s.push('-');
        for (on, c) in [
            (self.stealth, 's'),
            (self.devec, 'd'),
            (self.memo, 'm'),
            (self.ucache, 'u'),
        ] {
            s.push(if on { c } else { '.' });
        }
        s
    }

    /// The leg as typed `csd-exp` legs — the decode-context changes it
    /// applies, in the experiment spec's grammar. Corpus entries persist
    /// these so reproducer metadata is checked by the leg grammar's one
    /// parser (`csd_exp::Leg::from_json`). Memoization, the µop cache,
    /// timing mode, and snapshotting are pipeline configuration with no
    /// decode-context equivalent, so a leg that only varies those maps
    /// to a single base leg. Note the devec leg
    /// names the `csd-devec` policy *family*; the harness itself pins
    /// more aggressive thresholds (window 8) so short programs gate.
    pub fn exp_legs(&self) -> Vec<Leg> {
        let mut legs = Vec::new();
        if self.stealth {
            legs.push(Leg::new(LegMode::Stealth {
                watchdog: STEALTH_WATCHDOG,
            }));
        }
        if self.devec {
            legs.push(Leg::new(LegMode::Devec {
                policy: "csd-devec".to_string(),
            }));
        }
        if legs.is_empty() {
            legs.push(Leg::new(LegMode::Base));
        }
        legs
    }
}

/// The full mode matrix: all 16 functional stealth × devec × memo ×
/// µop-cache combinations, two cycle-accurate legs (everything off /
/// everything on), and a snapshot/restore leg — 19 legs.
pub fn mode_matrix() -> Vec<ModeLeg> {
    let mut legs = Vec::new();
    for bits in 0..16u32 {
        legs.push(ModeLeg {
            stealth: bits & 1 != 0,
            devec: bits & 2 != 0,
            memo: bits & 4 != 0,
            ucache: bits & 8 != 0,
            cycle: false,
            snapshot: false,
        });
    }
    for on in [false, true] {
        legs.push(ModeLeg {
            stealth: on,
            devec: on,
            memo: on,
            ucache: on,
            cycle: true,
            snapshot: false,
        });
    }
    legs.push(ModeLeg {
        stealth: true,
        devec: true,
        memo: true,
        ucache: true,
        cycle: false,
        snapshot: true,
    });
    legs
}

/// A deliberately corrupted translation, installed through the MCU
/// auto-translation path. Used by tests to prove the harness catches and
/// shrinks decoder bugs; `None` in normal operation.
#[derive(Debug, Clone)]
pub struct InjectedBug {
    /// The macro-op class whose translation is replaced.
    pub target: OpcodeClass,
    /// The (wrong) replacement body.
    pub body: Vec<mx86_isa::Inst>,
}

/// What kind of mismatch a [`Divergence`] is — a stable, coarse label
/// the fuzzer bins coverage by and the corpus records, so a shrunk
/// reproducer can be checked to still fail *the same way*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceClass {
    /// The reference interpreter itself could not finish the program.
    Reference,
    /// A pipeline leg did not halt within the retirement budget.
    NoHalt,
    /// Retired-instruction counts differ.
    Retired,
    /// The µop-cache/legacy/MSROM retirement partition doesn't add up.
    Partition,
    /// A general-purpose register differs.
    Gpr,
    /// A vector register differs.
    Xmm,
    /// The flags register differs.
    Flags,
    /// Final memory differs (data region or stack).
    Mem,
    /// The ordered store stream differs.
    Stores,
}

impl DivergenceClass {
    /// Stable class name (used in coverage bins and corpus JSON).
    pub fn name(self) -> &'static str {
        match self {
            DivergenceClass::Reference => "reference",
            DivergenceClass::NoHalt => "nohalt",
            DivergenceClass::Retired => "retired",
            DivergenceClass::Partition => "partition",
            DivergenceClass::Gpr => "gpr",
            DivergenceClass::Xmm => "xmm",
            DivergenceClass::Flags => "flags",
            DivergenceClass::Mem => "mem",
            DivergenceClass::Stores => "stores",
        }
    }

    /// Parses a class from its stable name.
    pub fn from_name(name: &str) -> Option<DivergenceClass> {
        [
            DivergenceClass::Reference,
            DivergenceClass::NoHalt,
            DivergenceClass::Retired,
            DivergenceClass::Partition,
            DivergenceClass::Gpr,
            DivergenceClass::Xmm,
            DivergenceClass::Flags,
            DivergenceClass::Mem,
            DivergenceClass::Stores,
        ]
        .into_iter()
        .find(|c| c.name() == name)
    }
}

/// One observed divergence between a pipeline leg and the reference.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Leg that diverged.
    pub leg: String,
    /// What kind of mismatch.
    pub class: DivergenceClass,
    /// What differed.
    pub detail: String,
}

/// Result of cosimulating one program across the matrix.
#[derive(Debug, Clone)]
pub struct CosimResult {
    /// Instructions the reference retired.
    pub ref_insts: u64,
    /// Divergences (empty = all legs agree with the reference).
    pub divergences: Vec<Divergence>,
}

impl CosimResult {
    /// Whether every leg matched the reference.
    pub fn ok(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Distinct divergence class names, in first-observed order.
    pub fn classes(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for d in &self.divergences {
            if !out.contains(&d.class.name()) {
                out.push(d.class.name());
            }
        }
        out
    }
}

/// The core-side sink a leg runs under: collects the ordered store
/// stream the harness compares, and forwards µop-cache probes to the
/// coverage map when one is being filled.
#[derive(Default)]
struct LegSink {
    stores: Arc<Mutex<Vec<StoreRecord>>>,
    coverage: Option<CoverageSink>,
}

impl EventSink for LegSink {
    fn on_store(&mut self, ev: &StoreEvent) {
        self.stores.lock().unwrap().push(StoreRecord {
            addr: ev.addr,
            len: ev.len,
            value: ev.value,
        });
    }

    fn on_uop_cache(&mut self, ev: &UopCacheEvent) {
        if let Some(c) = &mut self.coverage {
            c.on_uop_cache(ev);
        }
    }
}

fn build_core(program: &Program, leg: &ModeLeg, bug: Option<&InjectedBug>) -> Core {
    let cfg = CoreConfig {
        dift_enabled: leg.stealth,
        uop_cache_enabled: leg.ucache,
        decode_memo_enabled: leg.memo,
        ..CoreConfig::default()
    };
    let csd_cfg = CsdConfig {
        vpu_policy: if leg.devec {
            VpuPolicy::CsdDevec(DevecThresholds {
                window: 8,
                low: 1,
                high: 16,
            })
        } else {
            VpuPolicy::AlwaysOn
        },
        ..CsdConfig::default()
    };
    let mode = if leg.cycle {
        SimMode::Cycle
    } else {
        SimMode::Functional
    };
    let mut core = Core::new(cfg, csd_cfg, program.clone(), mode);
    if leg.stealth {
        // Program the decoy ranges over a slice of the data region and
        // the code head, taint the data region, and arm stealth with the
        // DIFT trigger — literally the recipe the crypto victims use.
        csd_crypto::arm_stealth(
            &mut core,
            &[TaintRange::new(DATA_BASE, DATA_BASE + 128)],
            &[TaintRange::new(CODE_BASE, CODE_BASE + 128)],
            STEALTH_WATCHDOG,
        );
        core.dift_mut()
            .taint_memory(TaintRange::new(DATA_BASE, DATA_BASE + DATA_SIZE));
    }
    if let Some(b) = bug {
        let update = MicrocodeUpdate::new(1, b.target, ContextId::Custom(0), true, b.body.clone());
        core.engine_mut()
            .apply_microcode_update(&update, PrivilegeLevel::Kernel)
            .expect("injected MCU must verify");
        core.engine_mut().set_custom_mode(Some(0));
    }
    core
}

fn compare(
    core: &Core,
    cpu: &RefCpu,
    stores: Option<&[StoreRecord]>,
    leg: &ModeLeg,
) -> Vec<Divergence> {
    let mut d = Vec::new();
    let diverge = |class: DivergenceClass, detail: String| Divergence {
        leg: leg.name(),
        class,
        detail,
    };
    let stats = core.stats();
    if !core.halted() {
        d.push(diverge(
            DivergenceClass::NoHalt,
            format!(
                "pipeline did not halt within {MAX_INSTS} insts (retired {})",
                stats.insts
            ),
        ));
        return d;
    }
    if stats.insts != cpu.retired {
        d.push(diverge(
            DivergenceClass::Retired,
            format!(
                "retired {} insts, reference retired {}",
                stats.insts, cpu.retired
            ),
        ));
    }
    let part = stats.uop_cache_insts + stats.legacy_insts + stats.msrom_insts;
    if part != stats.insts {
        d.push(diverge(
            DivergenceClass::Partition,
            format!(
                "retired-inst partition {} + {} + {} != {}",
                stats.uop_cache_insts, stats.legacy_insts, stats.msrom_insts, stats.insts
            ),
        ));
    }
    for (i, g) in mx86_isa::Gpr::ALL.iter().enumerate() {
        let (got, want) = (core.state.gprs[i], cpu.gprs[i]);
        if got != want {
            d.push(diverge(
                DivergenceClass::Gpr,
                format!("{g}: pipeline {got:#x}, reference {want:#x}"),
            ));
        }
    }
    for i in 0..16 {
        let (got, want) = (core.state.xmms[i], cpu.xmms[i]);
        if got != want {
            d.push(diverge(
                DivergenceClass::Xmm,
                format!("xmm{i}: pipeline {got:?}, reference {want:?}"),
            ));
        }
    }
    if core.state.flags != cpu.flags {
        d.push(diverge(
            DivergenceClass::Flags,
            format!(
                "flags: pipeline {:?}, reference {:?}",
                core.state.flags, cpu.flags
            ),
        ));
    }
    for (base, len, what) in [
        (DATA_BASE, DATA_SIZE as usize, "data region"),
        (STACK_TOP - 0x1000, 0x1000, "stack"),
    ] {
        let got = core.mem.read_bytes(base, len);
        let want = cpu.mem.read_bytes(base, len);
        if got != want {
            let off = got.iter().zip(&want).position(|(a, b)| a != b).unwrap_or(0);
            d.push(diverge(
                DivergenceClass::Mem,
                format!(
                    "{what} byte at {:#x}: pipeline {:#04x}, reference {:#04x}",
                    base + off as u64,
                    got[off],
                    want[off]
                ),
            ));
        }
    }
    if let Some(stores) = stores {
        if stores != cpu.stores.as_slice() {
            let n = stores
                .iter()
                .zip(&cpu.stores)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| stores.len().min(cpu.stores.len()));
            d.push(diverge(
                DivergenceClass::Stores,
                format!(
                "store stream differs at index {n}: pipeline {:?}, reference {:?} ({} vs {} stores)",
                stores.get(n),
                cpu.stores.get(n),
                stores.len(),
                cpu.stores.len()
            ),
            ));
        }
    }
    d
}

fn run_leg(
    program: &Program,
    leg: &ModeLeg,
    cpu: &RefCpu,
    bug: Option<&InjectedBug>,
    coverage: Option<&Arc<Mutex<CoverageMap>>>,
) -> Vec<Divergence> {
    let mut core = build_core(program, leg, bug);
    let stores = Arc::new(Mutex::new(Vec::new()));
    core.set_event_sink(Box::new(LegSink {
        stores: Arc::clone(&stores),
        coverage: coverage.map(|m| CoverageSink::new(Arc::clone(m))),
    }));
    if let Some(map) = coverage {
        // Engine-side events (decode contexts, µops, memo probes, key
        // causes, gate and stealth windows) land in the same shared map.
        // The context-edge cursor resets per leg so edges never span two
        // unrelated runs.
        if let Ok(mut m) = map.lock() {
            m.reset_edge_cursor();
        }
        core.engine_mut()
            .set_event_sink(Box::new(CoverageSink::new(Arc::clone(map))));
    }

    if leg.snapshot {
        // Run half the program, snapshot, finish; then rewind to the
        // checkpoint and finish again. Both completions must match the
        // reference (and therefore each other).
        let half = cpu.retired / 2;
        core.run(half.max(1));
        let snap = core.snapshot();
        core.run(MAX_INSTS);
        let first = compare(&core, cpu, Some(&stores.lock().unwrap()), leg);
        if !first.is_empty() {
            return first;
        }
        core.restore(&snap);
        core.run(MAX_INSTS);
        // The restored run re-executes only the second half, so its
        // collected store stream intentionally differs; the full-stream
        // check above already pinned ordering. Compare architectural
        // state and the retirement count only.
        return compare(&core, cpu, None, leg);
    }

    core.run(MAX_INSTS);
    let collected = stores.lock().unwrap().clone();
    compare(&core, cpu, Some(&collected), leg)
}

/// Runs one program across `legs` and compares each against the
/// reference interpreter.
pub fn cosim(program: &Program, legs: &[ModeLeg], bug: Option<&InjectedBug>) -> CosimResult {
    cosim_with_coverage(program, legs, bug, None)
}

/// [`cosim`], additionally folding structural coverage from every leg —
/// and a bin per observed divergence class — into `coverage`. The
/// coverage tap is events-only: the compared outcome is byte-identical
/// with and without it.
pub fn cosim_with_coverage(
    program: &Program,
    legs: &[ModeLeg],
    bug: Option<&InjectedBug>,
    coverage: Option<&Arc<Mutex<CoverageMap>>>,
) -> CosimResult {
    let mut cpu = RefCpu::new(program.entry());
    let out = cpu.run(program, MAX_INSTS);
    let mut divergences = Vec::new();
    if out != RefOutcome::Halted {
        // A program the reference cannot finish is not a usable input;
        // report it as a (non-leg) divergence so generators/shrinkers
        // reject it.
        divergences.push(Divergence {
            leg: "reference".into(),
            class: DivergenceClass::Reference,
            detail: format!("reference outcome {out:?}"),
        });
        return CosimResult {
            ref_insts: cpu.retired,
            divergences,
        };
    }
    for leg in legs {
        divergences.extend(run_leg(program, leg, &cpu, bug, coverage));
    }
    if let Some(map) = coverage {
        if let Ok(mut m) = map.lock() {
            for d in &divergences {
                m.record_divergence(d.class.name());
            }
        }
    }
    CosimResult {
        ref_insts: cpu.retired,
        divergences,
    }
}

/// Whether the reference itself can complete the program (used by the
/// shrinker to reject variants that no longer terminate).
pub fn reference_halts(program: &Program) -> bool {
    let mut cpu = RefCpu::new(program.entry());
    cpu.run(program, MAX_INSTS) == RefOutcome::Halted
}
