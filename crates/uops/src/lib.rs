//! # csd-uops — the internal micro-op ISA and static macro-op translation
//!
//! Modern x86 front ends translate native *macro-ops* into internal RISC-like
//! *micro-ops* (µops). This crate defines that internal ISA for the CSD
//! reproduction:
//!
//! - [`Uop`] / [`UopKind`] — the µop format. Each kind carries exactly
//!   its operands, so a µop with a missing operand cannot be built;
//!   [`Uop::regs`] and [`Uop::writes_flags`] give the register and flags
//!   view that consumers share. Registers include decoder-internal
//!   temporaries ([`UReg::Tmp`]) that are *not architecturally visible*.
//!   Decoy µops injected by stealth-mode translation use only
//!   temporaries, so they cannot perturb architectural state.
//! - [`translate`] — the static, table-driven translation performed by the
//!   native decoders (the paper's four legacy decoders plus the microcode
//!   ROM for instructions that expand to more than four µops).
//! - [`fusion`] — micro-op fusion (load-op and decoy `ld/sub` pairs) and
//!   macro-op fusion (`cmp`/`test` + `jcc`), the front-end optimizations the
//!   paper leans on to keep custom translations compact.
//! - [`FlowTable`] — the per-instruction table of built [`Flow`]s that
//!   lets each instruction be translated once per context.
//!
//! ```
//! use mx86_isa::{Inst, Gpr, MemRef, Width};
//! use csd_uops::{translate, DecoderClass};
//!
//! let ld = Inst::Load { dst: Gpr::Rax, mem: MemRef::base(Gpr::Rbx), width: Width::B8 };
//! let t = translate(&ld, 0x1005);
//! assert_eq!(t.uops.len(), 1);
//! assert_eq!(t.decoder_class(), DecoderClass::Simple);
//! ```

#![warn(missing_docs)]

mod flow;
pub mod fusion;
mod translate;
mod uop;
mod ureg;

pub use flow::{Flow, FlowFacts, FlowRef, FlowSlot, FlowTable, MemoStats, Served, Stored};
pub use fusion::{can_macro_fuse, fuse_slots, fused_len as fused_len_of, Slot};
pub use translate::{translate, DecoderClass, Translation, DIV_UOP_COUNT, MSROM_THRESHOLD};
pub use uop::{DecoyTarget, FOp, FWidth, PortClass, Src, UMem, Uop, UopKind, UopRegs, UopTiming};
pub use ureg::UReg;
