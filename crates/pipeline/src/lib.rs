//! # csd-pipeline — the cycle-level core model and functional engine
//!
//! An execution-driven simulator of a Sandy-Bridge-style out-of-order core
//! with the context-sensitive decoding engine integrated at the decode
//! stage (paper §III/VI, Table I):
//!
//! - 16-byte fetch with L1I modeling, 18-entry macro-op queue;
//! - four legacy decoders (1 complex + 3 simple) and an MSROM sequencer;
//! - a 1536-µop, 8-way micro-op cache with CSD *context bits* in the tags;
//! - micro-op fusion and `cmp+jcc` macro-fusion;
//! - a timestamp-dataflow back end: 4-wide dispatch, scoreboarded
//!   dependencies, port contention (3 ALU / 2 load / 1 store / 2 vector),
//!   168-entry ROB occupancy, 4-wide commit;
//! - gshare + BTB + RAS branch prediction with redirect penalties;
//! - the full cache hierarchy, DIFT, and the McPAT-style activity counters
//!   consumed by `csd-power`.
//!
//! The same core runs in [`SimMode::Functional`] for side-channel
//! experiments (cache state exact, timing approximated) and
//! [`SimMode::Cycle`] for the performance/energy studies. Both modes share
//! one decode path and one µop executor, so CSD behaves identically.
//!
//! ```
//! use csd_pipeline::{Core, CoreConfig, SimMode, StepOutcome};
//! use csd::CsdConfig;
//! use mx86_isa::{Assembler, Gpr, AluOp, Cc};
//!
//! # fn main() -> Result<(), mx86_isa::AsmError> {
//! let mut a = Assembler::new(0x1000);
//! let top = a.fresh_label();
//! a.mov_ri(Gpr::Rcx, 100);
//! a.bind(top)?;
//! a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
//! a.jcc(Cc::Ne, top);
//! a.halt();
//! let prog = a.finish()?;
//!
//! let mut core = Core::new(CoreConfig::default(), CsdConfig::default(), prog, SimMode::Cycle);
//! assert_eq!(core.run(10_000), StepOutcome::Halted);
//! assert_eq!(core.state().gpr(Gpr::Rcx), 0);
//! assert!(core.stats().cycles > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod block;
mod branch;
mod clock;
mod commit;
mod config;
mod core;
mod decode;
mod execute;
mod fetch;
// `fu` holds the pure functional-unit µop semantics (value/flag
// computation); `execute` is the pipeline *stage* that drives them and
// models timing, ports, and commit.
mod fu;
mod machine;
mod stage;
mod uop_cache;

pub use crate::core::{CheckpointStats, Core, CoreSnapshot, SimMode, SimStats, StepOutcome};
pub use branch::{BranchPredictor, BranchStats, PredictorConfig};
pub use config::CoreConfig;
pub use fu::{alu, mul, valu};
pub use machine::{ArchState, Flags, Memory};
pub use uop_cache::{UopCache, UopCacheStats};
