//! # csd — context-sensitive decoding (the paper's core contribution)
//!
//! Reproduction of the CSD framework from *"Mobilizing the Micro-Ops:
//! Exploiting Context Sensitive Decoding for Security and Energy
//! Efficiency"* (ISCA 2018). Context-sensitive decoding makes the
//! macro-op → micro-op translation of an x86-style front end *dynamic*:
//! the decoder can switch between custom translation modes at microsecond
//! or finer granularity, triggered by MSR writes, hardware events (DIFT
//! taint interception, power-gating decisions), or a watchdog timer — with
//! no ISA or pipeline changes visible to software.
//!
//! The crate provides:
//!
//! - [`CsdEngine`] — the decode-time entry point integrating everything;
//! - [`StealthTranslator`] — decoy micro-op injection defeating
//!   instruction/data cache side channels (case study I);
//! - [`Devectorizer`] + [`VpuGateController`] + [`CriticalityPredictor`] —
//!   selective devectorization for VPU power gating (case study II);
//! - [`MicrocodeUpdate`] / [`MsromPatchTable`] — the auto-translated
//!   microcode update path letting privileged software install custom
//!   translations written in native instructions;
//! - [`MsrFile`] — the decoy address-range registers, scratchpad tainted-PC
//!   registers, and control MSRs.
//!
//! ```
//! use csd::{CsdEngine, CsdConfig, msr};
//! use mx86_isa::{AddrRange, Placed, Inst, Gpr, MemRef, Width};
//!
//! // Trusted software marks the AES T-tables as sensitive and enables
//! // stealth mode; the next tainted load sweeps every T-table line.
//! let mut engine = CsdEngine::new(CsdConfig::default());
//! engine.write_msr(msr::MSR_DATA_RANGE_BASE, 0x8000);
//! engine.write_msr(msr::MSR_DATA_RANGE_BASE + 1, 0x8000 + 4096);
//! engine.write_msr(msr::MSR_CSD_CTL, msr::CTL_STEALTH | msr::CTL_DIFT_TRIGGER);
//!
//! let tainted_lookup = Placed {
//!     addr: 0x1000,
//!     inst: Inst::Load { dst: Gpr::Rax, mem: MemRef::base(Gpr::Rcx), width: Width::B4 },
//! };
//! let out = engine.decode(&tainted_lookup, true);
//! assert!(out.flow.uops().iter().filter(|u| u.is_decoy()).count() >= 64);
//! ```

#![warn(missing_docs)]

mod criticality;
mod devec;
mod engine;
mod gating;
mod mcu;
mod mode;
pub mod msr;
mod stealth;

pub use criticality::{CriticalityPredictor, CriticalitySignal, DevecThresholds};
pub use devec::{DevecStats, Devectorizer};
pub use engine::{CsdConfig, CsdEngine, CsdStats, DecodeOutcome};
pub use gating::{GateStats, VectorDecision, VpuGateController, VpuPolicy, VpuState};
pub use mcu::{
    McuError, McuHeader, MicrocodeUpdate, MsromPatchTable, OpcodeClass, PrivilegeLevel,
    MCU_MAX_BODY,
};
pub use mode::{ContextId, VectorExecClass};
pub use msr::MsrFile;
pub use stealth::{StealthConfig, StealthStats, StealthTranslator};
