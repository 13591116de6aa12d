//! # csd-workloads — SPEC-like synthetic workloads
//!
//! The paper evaluates selective devectorization on SPEC CPU2006, which is
//! proprietary; this crate substitutes *parameterized synthetic workloads*
//! named for the benchmarks the paper reports, each with a calibrated
//! vector-intensity and phase profile matching the paper's
//! characterization (Figures 15/16):
//!
//! - `astar`/`gcc`/`gobmk`/`sjeng`: low-but-nonzero vector activity — CSD
//!   keeps the VPU off essentially always;
//! - `bwaves`/`milc`: bursty float-vector phases that repeatedly force the
//!   unit awake (devectorized while powering on);
//! - `namd`: heavy, sustained vector activity;
//! - `omnetpp`: a trickle of isolated vector ops executed almost entirely
//!   in gated mode;
//! - `gamess`/`zeusmp`: moderate phases gated roughly half the time.
//!
//! What matters to the study is the *temporal pattern of vector vs scalar
//! µops* and memory behavior, which the generator controls directly (see
//! `DESIGN.md`). Programs are deterministic loop nests: each "phase" is a
//! scalar inner loop followed by an optional vector inner loop, with
//! per-phase trip counts drawn from a seeded PRNG around the profile's
//! duty cycle.

#![warn(missing_docs)]

use csd_pipeline::Core;
use csd_telemetry::SplitMix64;
use mx86_isa::{AddrRange, AluOp, Assembler, Cc, Gpr, MemRef, Program, Scale, VecOp, Xmm};

/// Vector-operation complexity class of a workload's vector phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecMix {
    /// Packed integer add/xor (cheap to scalarize).
    SimpleInt,
    /// Packed multiplies included.
    IntMul,
    /// Packed single-precision float.
    Float,
}

/// A workload's profile — the calibrated knobs.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Benchmark name.
    pub name: &'static str,
    /// Number of phase pairs in the static code (before the outer repeat).
    pub phases: u32,
    /// Scalar inner-loop trip count per phase.
    pub scalar_trips: u32,
    /// Mean vector inner-loop trip count for *active* phases.
    pub vector_trips: u32,
    /// Fraction of phases with any vector activity.
    pub vector_duty: f64,
    /// Vector op complexity.
    pub mix: VecMix,
    /// Emit one isolated vector op every `sprinkle` scalar-loop
    /// iterations (0 = none). This models the paper's *intermittent*
    /// vector activity whose idle intervals are too short for
    /// conventional gating to win.
    pub sprinkle: u32,
    /// Outer repetitions of the whole phase sequence.
    pub repeats: u32,
    /// PRNG seed for per-phase variation.
    pub seed: u64,
}

/// The ten-benchmark suite used by the devectorization figures.
pub fn specs() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "astar",
            phases: 8,
            scalar_trips: 160,
            vector_trips: 2,
            vector_duty: 0.0,
            mix: VecMix::SimpleInt,
            sprinkle: 64,
            repeats: 14,
            seed: 11,
        },
        WorkloadSpec {
            name: "bwaves",
            phases: 8,
            scalar_trips: 60,
            vector_trips: 40,
            vector_duty: 0.5,
            mix: VecMix::Float,
            sprinkle: 48,
            repeats: 12,
            seed: 22,
        },
        WorkloadSpec {
            name: "gamess",
            phases: 8,
            scalar_trips: 100,
            vector_trips: 25,
            vector_duty: 0.3,
            mix: VecMix::IntMul,
            sprinkle: 32,
            repeats: 12,
            seed: 33,
        },
        WorkloadSpec {
            name: "gcc",
            phases: 8,
            scalar_trips: 150,
            vector_trips: 2,
            vector_duty: 0.0,
            mix: VecMix::SimpleInt,
            sprinkle: 80,
            repeats: 14,
            seed: 44,
        },
        WorkloadSpec {
            name: "gobmk",
            phases: 8,
            scalar_trips: 150,
            vector_trips: 3,
            vector_duty: 0.0,
            mix: VecMix::SimpleInt,
            sprinkle: 64,
            repeats: 14,
            seed: 55,
        },
        WorkloadSpec {
            name: "milc",
            phases: 8,
            scalar_trips: 70,
            vector_trips: 35,
            vector_duty: 0.45,
            mix: VecMix::Float,
            sprinkle: 40,
            repeats: 12,
            seed: 66,
        },
        WorkloadSpec {
            name: "namd",
            phases: 8,
            scalar_trips: 40,
            vector_trips: 60,
            vector_duty: 0.85,
            mix: VecMix::Float,
            sprinkle: 48,
            repeats: 12,
            seed: 77,
        },
        WorkloadSpec {
            name: "omnetpp",
            phases: 8,
            scalar_trips: 140,
            vector_trips: 4,
            vector_duty: 0.0,
            mix: VecMix::SimpleInt,
            sprinkle: 24,
            repeats: 14,
            seed: 88,
        },
        WorkloadSpec {
            name: "sjeng",
            phases: 8,
            scalar_trips: 160,
            vector_trips: 2,
            vector_duty: 0.0,
            mix: VecMix::SimpleInt,
            sprinkle: 64,
            repeats: 14,
            seed: 99,
        },
        WorkloadSpec {
            name: "zeusmp",
            phases: 8,
            scalar_trips: 90,
            vector_trips: 20,
            vector_duty: 0.35,
            mix: VecMix::IntMul,
            sprinkle: 32,
            repeats: 12,
            seed: 110,
        },
    ]
}

/// Base of the workload's data arrays.
const DATA_BASE: u64 = 0x10_0000;
/// Bytes of array data the generator initializes.
const DATA_LEN: u64 = 64 * 1024;

/// A generated workload: a program plus its data initialization.
#[derive(Debug, Clone)]
pub struct Workload {
    spec: WorkloadSpec,
    program: Program,
}

impl Workload {
    /// Generates the workload at scale 1.0 (≈100–300 k dynamic
    /// instructions, depending on the profile).
    pub fn new(spec: WorkloadSpec) -> Workload {
        Workload::with_scale(spec, 1.0)
    }

    /// Generates with the outer repeat count scaled by `scale` (benches
    /// use smaller scales; longer runs amortize warm-up further).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn with_scale(mut spec: WorkloadSpec, scale: f64) -> Workload {
        assert!(scale > 0.0, "scale must be positive");
        spec.repeats = ((f64::from(spec.repeats) * scale).round() as u32).max(1);
        let program = generate(&spec);
        Workload { spec, program }
    }

    /// The profile this workload was generated from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The benchmark name.
    pub fn name(&self) -> &str {
        self.spec.name
    }

    /// The generated program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Initializes the workload's data arrays.
    pub fn install(&self, core: &mut Core) {
        let mut rng = SplitMix64::new(self.spec.seed ^ 0xDA7A);
        let mut addr = DATA_BASE;
        while addr < DATA_BASE + DATA_LEN {
            core.mem_mut().write_le(addr, 8, rng.next_u64());
            addr += 8;
        }
    }

    /// The workload's data arrays: its phases read the first half and
    /// write the second.
    pub fn data_range(&self) -> AddrRange {
        AddrRange::new(DATA_BASE, DATA_BASE + DATA_LEN)
    }

    /// The suite entry for `name`, if it exists.
    pub fn by_name(name: &str) -> Option<Workload> {
        specs()
            .into_iter()
            .find(|s| s.name == name)
            .map(Workload::new)
    }
}

fn generate(spec: &WorkloadSpec) -> Program {
    let mut a = Assembler::new(0x1000);
    let mut rng = SplitMix64::new(spec.seed);
    a.symbol("entry");
    a.mov_ri(Gpr::Rsp, 0x9_0000);
    a.mov_ri(Gpr::Rbp, DATA_BASE as i64); // array base
    a.mov_ri(Gpr::R15, i64::from(spec.repeats)); // outer counter
                                                 // Seed vector registers for the sprinkled ops.
    a.vload(Xmm::new(4), MemRef::base(Gpr::Rbp));
    a.vload(Xmm::new(5), MemRef::base(Gpr::Rbp).with_disp(16));
    a.mov_ri(Gpr::R14, 0); // sprinkle counter

    let outer = a.fresh_label();
    a.bind(outer).expect("fresh outer label");

    // Stratified phase activation: exactly round(duty * phases) vector
    // phases, rotated by the seed so benchmarks differ in placement.
    let active_count = (spec.vector_duty * f64::from(spec.phases)).round() as u32;
    let rotation = (rng.next_u64() % u64::from(spec.phases.max(1))) as u32;
    for phase in 0..spec.phases {
        emit_scalar_phase(&mut a, spec, phase, &mut rng);
        let active = (phase + rotation) % spec.phases < active_count;
        if active {
            let jitter = (rng.next_u64() % u64::from(spec.vector_trips.max(1))) as u32 / 2;
            let trips = spec.vector_trips.saturating_sub(jitter).max(1);
            emit_vector_phase(&mut a, spec, phase, trips, &mut rng);
        }
    }

    a.alu_ri(AluOp::Sub, Gpr::R15, 1);
    a.jcc(Cc::Ne, outer);
    a.halt();
    a.finish().expect("workload assembles")
}

/// A scalar phase: pointer-striding loads, ALU chains, stores, and a
/// data-dependent branch to keep the predictor honest.
fn emit_scalar_phase(a: &mut Assembler, spec: &WorkloadSpec, phase: u32, rng: &mut SplitMix64) {
    let top = a.fresh_label();
    let skip = a.fresh_label();
    let stride = 8 + 8 * (rng.next_u64() % 7) as i64;
    let offset = (rng.next_u64() % (DATA_LEN / 2)) as i64 & !7;

    a.mov_ri(Gpr::Rcx, i64::from(spec.scalar_trips));
    a.mov_ri(Gpr::Rsi, offset);
    a.bind(top).expect("fresh scalar label");
    a.load(Gpr::Rax, MemRef::base_index(Gpr::Rbp, Gpr::Rsi, Scale::S1));
    a.alu_ri(AluOp::Add, Gpr::Rax, i64::from(phase) + 1);
    a.mul_ri(Gpr::Rdx, 0x9E37_79B9);
    a.alu_rr(AluOp::Xor, Gpr::Rdx, Gpr::Rax);
    a.test_ri(Gpr::Rdx, 0x10);
    a.jcc(Cc::Eq, skip);
    a.alu_ri(AluOp::Add, Gpr::Rbx, 1);
    a.bind(skip).expect("fresh skip label");
    a.store(
        MemRef::base_index(Gpr::Rbp, Gpr::Rsi, Scale::S1).with_disp(0x8000),
        Gpr::Rax,
    );
    // Intermittent vector activity: one isolated packed op every
    // `sprinkle` iterations.
    if spec.sprinkle > 0 {
        let no_vec = a.fresh_label();
        let sprinkle_op = match spec.mix {
            VecMix::SimpleInt => VecOp::PAddD,
            VecMix::IntMul => VecOp::PAddD,
            VecMix::Float => VecOp::AddPs,
        };
        a.alu_ri(AluOp::Add, Gpr::R14, 1);
        a.test_ri(Gpr::R14, i64::from(spec.sprinkle.next_power_of_two() - 1));
        a.jcc(Cc::Ne, no_vec);
        a.valu(sprinkle_op, Xmm::new(4), Xmm::new(5));
        a.bind(no_vec).expect("fresh sprinkle label");
    }
    a.alu_ri(AluOp::Add, Gpr::Rsi, stride);
    a.alu_ri(AluOp::And, Gpr::Rsi, (DATA_LEN / 2 - 1) as i64 & !7);
    a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
    a.jcc(Cc::Ne, top);
}

/// A vector phase: streaming vector loads, packed compute, vector stores.
fn emit_vector_phase(
    a: &mut Assembler,
    spec: &WorkloadSpec,
    phase: u32,
    trips: u32,
    rng: &mut SplitMix64,
) {
    let top = a.fresh_label();
    let ops: &[VecOp] = match spec.mix {
        VecMix::SimpleInt => &[VecOp::PAddD, VecOp::PXor, VecOp::PAddQ],
        VecMix::IntMul => &[VecOp::PAddD, VecOp::PMullW, VecOp::PXor],
        VecMix::Float => &[VecOp::AddPs, VecOp::MulPs, VecOp::SubPs],
    };
    let offset = (rng.next_u64() % (DATA_LEN / 2)) as i64 & !15;

    a.mov_ri(Gpr::Rcx, i64::from(trips));
    a.mov_ri(Gpr::Rdi, offset);
    a.bind(top).expect("fresh vector label");
    a.vload(
        Xmm::new(0),
        MemRef::base_index(Gpr::Rbp, Gpr::Rdi, Scale::S1),
    );
    a.vload(
        Xmm::new(1),
        MemRef::base_index(Gpr::Rbp, Gpr::Rdi, Scale::S1).with_disp(16),
    );
    for (i, &op) in ops.iter().enumerate() {
        a.valu(op, Xmm::new((i % 2) as u8), Xmm::new(((i + 1) % 3) as u8));
    }
    a.valu_load(
        ops[(phase as usize) % ops.len()],
        Xmm::new(2),
        MemRef::base_index(Gpr::Rbp, Gpr::Rdi, Scale::S1).with_disp(32),
    );
    a.vstore(
        MemRef::base_index(Gpr::Rbp, Gpr::Rdi, Scale::S1).with_disp(0x8000),
        Xmm::new(0),
    );
    a.alu_ri(AluOp::Add, Gpr::Rdi, 48);
    a.alu_ri(AluOp::And, Gpr::Rdi, (DATA_LEN / 2 - 1) as i64 & !15);
    a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
    a.jcc(Cc::Ne, top);
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd::{CsdConfig, VpuPolicy};
    use csd_pipeline::{CoreConfig, SimMode, StepOutcome};

    fn run(w: &Workload, policy: VpuPolicy) -> Core {
        let csd_cfg = CsdConfig {
            vpu_policy: policy,
            ..CsdConfig::default()
        };
        let mut core = Core::new(
            CoreConfig::default(),
            csd_cfg,
            w.program().clone(),
            SimMode::Cycle,
        );
        w.install(&mut core);
        assert_eq!(core.run(20_000_000), StepOutcome::Halted, "{}", w.name());
        core
    }

    #[test]
    fn suite_has_ten_distinct_benchmarks() {
        let s = specs();
        assert_eq!(s.len(), 10);
        let mut names: Vec<_> = s.iter().map(|x| x.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn workloads_halt_and_do_work() {
        for w in specs().into_iter().map(|s| Workload::with_scale(s, 0.1)) {
            let core = run(&w, VpuPolicy::AlwaysOn);
            assert!(
                core.stats().insts > 1_000,
                "{}: {}",
                w.name(),
                core.stats().insts
            );
        }
    }

    #[test]
    fn vector_intensity_orders_as_characterized() {
        let vec_share = |name: &str| {
            let w =
                Workload::with_scale(specs().into_iter().find(|s| s.name == name).unwrap(), 0.2);
            let core = run(&w, VpuPolicy::AlwaysOn);
            core.stats().vpu_uops as f64 / core.stats().uops as f64
        };
        let namd = vec_share("namd");
        let gcc = vec_share("gcc");
        let bwaves = vec_share("bwaves");
        assert!(namd > bwaves, "namd {namd} > bwaves {bwaves}");
        assert!(bwaves > gcc, "bwaves {bwaves} > gcc {gcc}");
        assert!(gcc < 0.02, "gcc is essentially scalar: {gcc}");
    }

    #[test]
    fn results_are_policy_invariant() {
        // Devectorization must not change architectural results.
        let w = Workload::with_scale(
            specs().into_iter().find(|s| s.name == "gamess").unwrap(),
            0.1,
        );
        let on = run(&w, VpuPolicy::AlwaysOn);
        let devec = run(&w, VpuPolicy::default());
        assert_eq!(on.state().gprs(), devec.state().gprs());
        assert_eq!(on.state().xmms(), devec.state().xmms());
    }

    #[test]
    fn low_vector_workloads_stay_gated_under_csd() {
        let w = Workload::with_scale(
            specs().into_iter().find(|s| s.name == "sjeng").unwrap(),
            0.1,
        );
        let core = run(&w, VpuPolicy::default());
        let frac = core.engine().gate().stats().gated_fraction();
        assert!(frac > 0.8, "sjeng should be gated nearly always: {frac}");
    }

    #[test]
    fn deterministic_generation() {
        let a = Workload::by_name("milc").unwrap();
        let b = Workload::by_name("milc").unwrap();
        assert_eq!(a.program().len(), b.program().len());
        assert_eq!(a.program().end_addr(), b.program().end_addr());
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        let _ = Workload::with_scale(specs()[0], 0.0);
    }
}
