//! # mx86-isa — a synthetic x86-like macro-op ISA
//!
//! This crate defines the *native* (programmer-visible) instruction set used
//! throughout the CSD reproduction. It is deliberately x86-*like* rather than
//! x86: instructions are variable length (1–15 bytes), there are 16 general
//! purpose registers and 16 XMM vector registers, memory operands use
//! `base + index*scale + disp` addressing, and the set includes the macro-op
//! classes that matter to context-sensitive decoding — loads, stores,
//! branches, read-modify-write ALU ops, microsequenced complex ops, and
//! SSE-style packed vector ops.
//!
//! The crate is purely *syntactic*: it knows how instructions look, how long
//! their encodings are, and how to assemble programs with labels. Semantics
//! (micro-op translation and execution) live in `csd-uops` and
//! `csd-pipeline`.
//!
//! ```
//! use mx86_isa::{Assembler, Gpr, Cc, AluOp};
//!
//! # fn main() -> Result<(), mx86_isa::AsmError> {
//! let mut a = Assembler::new(0x1000);
//! let top = a.fresh_label();
//! a.mov_ri(Gpr::Rcx, 10);
//! a.bind(top)?;
//! a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
//! a.jcc(Cc::Ne, top);
//! a.ret();
//! let prog = a.finish()?;
//! assert_eq!(prog.entry(), 0x1000);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod asm;
mod cc;
mod inst;
mod operand;
pub mod page;
mod program;
mod reg;

pub use asm::{AsmError, Assembler, Label};
pub use cc::Cc;
pub use inst::{AluOp, Inst, RegImm, VecOp, MAX_INST_LEN};
pub use operand::{MemRef, Scale, Width};
pub use program::{AddrRange, Placed, Program};
pub use reg::{Gpr, Xmm};
