//! The per-instruction decode flow table.
//!
//! The paper's µop cache can tag translations by decoder context because a
//! translation is a pure function of the instruction bytes and the context
//! (§III-A/B). In this simulator the two flows a table can hold depend on
//! the placed instruction alone: its *native* translation and its
//! *devectorized* one (the devectorizer is stateless except for
//! statistics, and may decline an instruction). So each is built on the
//! instruction's first decode that needs it and served from then on, with
//! no tag check and no invalidation: MSR writes, microcode updates, mode
//! switches, gate flips, checkpoint restores and restarts change which
//! flow a decode *chooses*, never what either flow contains.
//!
//! The table is indexed by the instruction's dense position in its
//! program ([`mx86_isa::Program::fetch_indexed`]), so a lookup is one
//! bounds-checked load with no hashing and no conflicts. The µops of every
//! stored flow sit back to back in one arena, so a core's table is two
//! allocations however many flows it holds. Flows that depend on more
//! than the instruction never enter it: MCU patch flows (installed state)
//! are shared with the patch table, and stealth decoy injections (the
//! armed window and the decoy ranges) are spliced for the one decode
//! that needs them.

use crate::fusion;
use crate::{Translation, Uop};
use std::sync::Arc;

/// The static facts of a flow that the pipeline charges for every dynamic
/// instance of it, computed once when the flow is built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowFacts {
    /// µops in the flow.
    pub uops: u32,
    /// Decoy µops in the flow.
    pub decoys: u32,
    /// Issue slots the flow occupies after micro-fusion
    /// ([`fusion::fused_len`]).
    pub fused: u32,
    /// [`Translation::static_uops`].
    pub static_uops: u32,
    /// [`Translation::cacheable`].
    pub cacheable: bool,
    /// [`Translation::from_msrom`].
    pub from_msrom: bool,
}

impl FlowFacts {
    fn of(t: &Translation) -> FlowFacts {
        FlowFacts {
            uops: t.uops.len() as u32,
            decoys: t.uops.iter().filter(|u| u.is_decoy()).count() as u32,
            fused: fusion::fused_len(&t.uops) as u32,
            static_uops: t.static_uops as u32,
            cacheable: t.cacheable,
            from_msrom: t.from_msrom,
        }
    }
}

/// An owned µop flow with its facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flow {
    /// The µops, in program order.
    pub uops: Vec<Uop>,
    /// The flow's static facts.
    pub facts: FlowFacts,
}

impl Flow {
    /// Wraps a translation, counting its µops, decoys and fused slots.
    pub fn new(translation: Translation) -> Flow {
        Flow {
            facts: FlowFacts::of(&translation),
            uops: translation.uops,
        }
    }
}

/// Where one decode's flow lives. The stages that execute and retire it
/// read it through [`FlowRef::uops`] and [`FlowRef::facts`] whatever its
/// origin.
#[derive(Debug, Clone)]
pub enum FlowRef<'t> {
    /// Borrowed from a [`FlowTable`]: no allocation, no reference count.
    Table(&'t [Uop], FlowFacts),
    /// Shared with the installed-patch table that owns it.
    Shared(Arc<Flow>),
    /// Built for this decode alone.
    Fresh(Flow),
}

impl FlowRef<'_> {
    /// The µops, in program order.
    #[inline]
    pub fn uops(&self) -> &[Uop] {
        match self {
            FlowRef::Table(uops, _) => uops,
            FlowRef::Shared(f) => &f.uops,
            FlowRef::Fresh(f) => &f.uops,
        }
    }

    /// The flow's static facts.
    #[inline]
    pub fn facts(&self) -> FlowFacts {
        match self {
            FlowRef::Table(_, facts) => *facts,
            FlowRef::Shared(f) => f.facts,
            FlowRef::Fresh(f) => f.facts,
        }
    }

    /// The flow as an owned [`Translation`] (copies the µops).
    pub fn to_translation(&self) -> Translation {
        let facts = self.facts();
        Translation {
            uops: self.uops().to_vec(),
            static_uops: facts.static_uops as usize,
            cacheable: facts.cacheable,
            from_msrom: facts.from_msrom,
        }
    }
}

impl PartialEq for FlowRef<'_> {
    /// Flow equality; where either side lives is an implementation
    /// detail.
    fn eq(&self, other: &FlowRef<'_>) -> bool {
        self.facts() == other.facts() && self.uops() == other.uops()
    }
}

/// A flow stored in a [`FlowTable`]: where its µops sit in the table's
/// arena, and its facts. Only meaningful for the table that stored it.
/// The default is the empty flow at the arena's start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stored {
    start: u32,
    /// The flow's static facts.
    pub facts: FlowFacts,
}

/// One instruction's table entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowSlot {
    /// The native translation, once built.
    pub native: Option<Stored>,
    /// The devectorized translation once asked for: `Some(None)` records
    /// that the devectorizer declined the instruction.
    pub devec: Option<Option<Stored>>,
}

/// How a decode obtained its flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Served from the table.
    Hit,
    /// Built by this decode and stored in the table.
    Miss,
    /// Built outside the table: a stealth injection, an MCU patch, or a
    /// decode with the table disabled.
    Bypass,
}

/// Flow-table counters: every decode counts exactly one outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Decodes served from the table.
    pub hits: u64,
    /// Decodes that built a flow and stored it.
    pub misses: u64,
    /// Decodes whose flow was built outside the table.
    pub bypasses: u64,
}

/// The flow table of one program: a [`FlowSlot`] per instruction, indexed
/// by the instruction's dense program index, and the arena holding the
/// µops of every stored flow.
///
/// The slot array is allocated by the first [`FlowTable::slot`] call, so a
/// core that halts before decoding, or runs with the table disabled, pays
/// nothing for it. The [`Default`] table is disabled.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    enabled: bool,
    len: usize,
    slots: Vec<FlowSlot>,
    arena: Vec<Uop>,
    stats: MemoStats,
}

impl FlowTable {
    /// A table for a program of `len` instructions. A disabled table stores
    /// nothing; it only counts the decodes it saw, all as bypasses.
    pub fn new(len: usize, enabled: bool) -> FlowTable {
        FlowTable {
            enabled,
            len,
            ..FlowTable::default()
        }
    }

    /// Whether decodes are served from the table.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Table counters.
    pub fn stats(&self) -> &MemoStats {
        &self.stats
    }

    /// Counts one decode.
    #[inline]
    pub fn record(&mut self, served: Served) {
        match served {
            Served::Hit => self.stats.hits += 1,
            Served::Miss => self.stats.misses += 1,
            Served::Bypass => self.stats.bypasses += 1,
        }
    }

    /// Counts `n` decodes served from the table at once.
    pub fn record_hits(&mut self, n: u64) {
        self.stats.hits += n;
    }

    /// Zeroes the counters; the stored flows stay, since nothing that
    /// resets counters can change what an instruction translates to.
    pub fn reset_stats(&mut self) {
        self.stats = MemoStats::default();
    }

    /// The slot of instruction `index`. Indices past the program length
    /// grow the table.
    #[inline]
    pub fn slot(&mut self, index: usize) -> &mut FlowSlot {
        if index >= self.slots.len() {
            self.grow(index);
        }
        &mut self.slots[index]
    }

    #[cold]
    fn grow(&mut self, index: usize) {
        self.slots
            .resize_with(self.len.max(index + 1), FlowSlot::default);
    }

    /// Moves a built flow's µops into the arena.
    pub fn store(&mut self, translation: Translation) -> Stored {
        let stored = Stored {
            start: u32::try_from(self.arena.len()).expect("flow arena under 4 Gi µops"),
            facts: FlowFacts::of(&translation),
        };
        self.arena.extend(translation.uops);
        stored
    }

    /// The µops of a flow this table stored.
    #[inline]
    pub fn uops(&self, stored: Stored) -> &[Uop] {
        let start = stored.start as usize;
        &self.arena[start..start + stored.facts.uops as usize]
    }

    /// A flow this table stored, borrowed from it.
    #[inline]
    pub fn get(&self, stored: Stored) -> FlowRef<'_> {
        FlowRef::Table(self.uops(stored), stored.facts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate;
    use mx86_isa::{AluOp, Gpr, Inst, MemRef, RegImm, Width};

    fn load() -> Translation {
        let ld = Inst::Load {
            dst: Gpr::Rax,
            mem: MemRef::base(Gpr::Rbx),
            width: Width::B8,
        };
        translate(&ld, 4)
    }

    fn alu_load() -> Translation {
        let op = Inst::AluLoad {
            op: AluOp::Add,
            dst: Gpr::Rcx,
            mem: MemRef::base(Gpr::Rsi),
            width: Width::B8,
        };
        translate(&op, 8)
    }

    #[test]
    fn flow_facts_match_the_translation() {
        for t in [load(), alu_load()] {
            let f = Flow::new(t.clone());
            assert_eq!(f.uops, t.uops);
            assert_eq!(f.facts.uops as usize, t.uops.len());
            assert_eq!(f.facts.decoys, 0);
            assert_eq!(f.facts.fused as usize, fusion::fused_len(&t.uops));
            assert_eq!(f.facts.static_uops as usize, t.static_uops);
            assert_eq!(
                (f.facts.cacheable, f.facts.from_msrom),
                (t.cacheable, t.from_msrom)
            );
            assert_eq!(FlowRef::Fresh(f).to_translation(), t);
        }
    }

    #[test]
    fn a_new_table_allocates_nothing_until_a_slot_is_asked_for() {
        let mut t = FlowTable::new(8, true);
        assert!(t.slots.is_empty() && t.arena.is_empty());
        assert_eq!(*t.slot(3), FlowSlot::default());
        assert_eq!(t.slots.len(), 8, "the first slot sizes the whole program");
        t.slot(20);
        assert_eq!(t.slots.len(), 21, "an index past the program grows it");
    }

    #[test]
    fn stored_flows_read_back_equal_and_survive_a_counter_reset() {
        let mut t = FlowTable::new(4, true);
        let a = t.store(load());
        let b = t.store(alu_load());
        t.slot(1).native = Some(b);
        for s in [Served::Miss, Served::Hit, Served::Bypass] {
            t.record(s);
        }
        assert_eq!(
            *t.stats(),
            MemoStats {
                hits: 1,
                misses: 1,
                bypasses: 1
            }
        );
        t.reset_stats();
        assert_eq!(*t.stats(), MemoStats::default());
        assert_eq!(t.slot(1).native, Some(b));
        assert_eq!(t.get(a), FlowRef::Fresh(Flow::new(load())));
        assert_eq!(t.get(b).to_translation(), alu_load());
        assert_eq!(t.arena.len(), load().uops.len() + alu_load().uops.len());
    }

    #[test]
    fn flow_refs_compare_by_flow_whatever_their_origin() {
        let mut t = FlowTable::new(1, true);
        let s = t.store(load());
        let shared = Arc::new(Flow::new(load()));
        assert_eq!(t.get(s), FlowRef::Fresh(Flow::new(load())));
        assert_eq!(FlowRef::Shared(shared), t.get(s));
        assert_ne!(t.get(s), FlowRef::Fresh(Flow::new(alu_load())));
        let imm = Inst::Alu {
            op: AluOp::Add,
            dst: Gpr::Rax,
            src: RegImm::Imm(1),
        };
        assert_ne!(t.get(s), FlowRef::Fresh(Flow::new(translate(&imm, 4))));
    }

    #[test]
    fn the_default_table_is_disabled_and_empty() {
        let t = FlowTable::default();
        assert!(!t.enabled());
        assert_eq!(*t.stats(), MemoStats::default());
        assert!(FlowTable::new(1, true).enabled());
    }
}
