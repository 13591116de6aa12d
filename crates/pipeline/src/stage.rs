//! The stage-to-stage handoff records for one macro-op.
//!
//! [`Core::run`](crate::Core::run) drives four explicit stages —
//! [`fetch`](crate::fetch), [`decode`](crate::decode),
//! [`execute`](crate::execute), [`commit`](crate::commit) — and these
//! records are the only values that travel between them: each stage
//! returns what the later ones read. Everything machine-wide stays on
//! `Core`.

use csd::DecodeOutcome;
use mx86_isa::Fetched;

/// What fetch hands onward: the resolved instruction (with its dense
/// index and next address) and the L1I penalty of fetching it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fetch {
    /// The instruction, its program index and the address after it.
    pub inst: Fetched,
    /// Extra front-end latency from L1I misses during fetch.
    pub penalty: f64,
}

/// What decode hands onward: the decode outcome, whose flow is borrowed
/// from the core's flow table (`'t`) when the table served it, and the
/// fused issue slots the macro-op dispatches as.
#[derive(Debug)]
pub(crate) struct Decoded<'t> {
    /// The CSD decode outcome.
    pub out: DecodeOutcome<'t>,
    /// Fused issue slots (front-end and dispatch accounting).
    pub fused_slots: u32,
}

/// The control effect of one executed µop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UopEffect {
    /// Sequential flow.
    None,
    /// Taken control transfer to the target.
    Branch(u64),
    /// A `hlt` retired.
    Halt,
}

/// How a macro-op's µop flow ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlowEnd {
    /// Taken control transfer to the target.
    Branch(u64),
    /// A `hlt` retired.
    Halt,
}
