//! # csd-dift — dynamic information-flow tracking substrate
//!
//! The paper uses a lightweight hardware DIFT engine (Kannan et al.) as one
//! of the *trigger mechanisms* for context-sensitive decoding: when the
//! decoder encounters a load or branch whose operands derive from tainted
//! data (e.g. a cryptographic key), stealth-mode translation kicks in.
//!
//! This crate implements taint state and µop-level propagation:
//!
//! - sources: byte-granular memory ranges marked tainted (key buffers);
//! - propagation: copy, ALU (union of sources), load (loaded-data taint ∪
//!   address-register taint), store (data taint to memory), flags taint
//!   from tainted compares;
//! - queries: *tainted load/store* (any address-forming register tainted,
//!   or tainted bytes loaded) and *tainted branch* (flags derived from
//!   tainted data) — exactly the conditions that fire stealth mode.
//!
//! The paper models the taint lookup as an extra 4-cycle L2-tag access
//! latency ([`DIFT_L2_TAG_PENALTY`]). Whether DIFT runs at all is the
//! pipeline's configuration: only while it enables DIFT does the
//! pipeline propagate taint, query it, and charge the penalty to loads.
//!
//! ```
//! use csd_dift::Dift;
//! use csd_uops::{Uop, UopKind, UMem, UReg};
//! use mx86_isa::{AddrRange, Gpr, Width};
//!
//! let mut dift = Dift::new();
//! dift.taint_memory(AddrRange::new(0x1000, 0x1010)); // secret key bytes
//!
//! // Load a key byte: the destination register becomes tainted.
//! let ld = Uop::new(UopKind::Ld { dst: UReg::Gpr(Gpr::Rax), mem: UMem::abs(0x1000, Width::B1) });
//! let ev = dift.propagate(&ld, Some(0x1000));
//! assert!(ev.loaded_tainted_data);
//! assert!(dift.reg_tainted(UReg::Gpr(Gpr::Rax)));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::unwrap_used))]

use csd_uops::{Src, UMem, UReg, Uop, UopKind};
use mx86_isa::page::{self, PageMap, PAGE_BITS, PAGE_SIZE};
use mx86_isa::AddrRange;

/// Extra load latency (cycles) charged while DIFT is active, modeling the
/// taint-tag lookup as an additional L2-tag access (paper §VI-A).
pub const DIFT_L2_TAG_PENALTY: u64 = 4;

/// What a propagation step observed — the inputs to the CSD trigger logic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaintEvent {
    /// A load/store computed its address from a tainted register
    /// (key-dependent access pattern — the AES T-table case).
    pub tainted_address: bool,
    /// A load read bytes that are themselves tainted.
    pub loaded_tainted_data: bool,
    /// A conditional branch consumed tainted flags
    /// (key-dependent control flow — the RSA square-and-multiply case).
    pub tainted_branch: bool,
}

impl TaintEvent {
    /// Whether the event should trigger stealth-mode translation.
    pub fn triggers_stealth(&self) -> bool {
        self.tainted_address || self.tainted_branch
    }
}

/// Taint bits for one page: bit `b % 64` of word `b / 64` is byte `b`.
type TaintPage = [u64; PAGE_SIZE / 64];

/// Taint state over the full micro-architectural register namespace plus a
/// byte-granular memory shadow.
///
/// The shadow is one bitmap per 4 KiB page, so a load's taint check and a
/// store's taint update cost one page probe and touch one or two words,
/// and marking a key buffer fills whole words at a time.
#[derive(Debug, Clone)]
pub struct Dift {
    regs: [bool; UReg::COUNT],
    flags: bool,
    mem: PageMap<Box<TaintPage>>,
    /// Number of set bits across `mem`.
    mem_bytes: usize,
}

/// The words of a page bitmap covered by `n` bytes from byte `off`, with
/// the mask of covered bits in each.
fn word_masks(off: usize, n: usize) -> impl Iterator<Item = (usize, u64)> {
    let end = off + n;
    (off / 64..end.div_ceil(64)).map(move |w| {
        let lo = off.max(w * 64) - w * 64;
        let hi = end.min(w * 64 + 64) - w * 64;
        (w, (u64::MAX >> (64 - (hi - lo))) << lo)
    })
}

impl Default for Dift {
    /// [`Dift::new`].
    fn default() -> Dift {
        Dift::new()
    }
}

impl Dift {
    /// Fresh DIFT state with nothing tainted.
    pub fn new() -> Dift {
        Dift {
            regs: [false; UReg::COUNT],
            flags: false,
            mem: PageMap::default(),
            mem_bytes: 0,
        }
    }

    /// Marks every byte in `range` as tainted (a taint *source*, e.g. the
    /// buffer a secret key is read into).
    pub fn taint_memory(&mut self, range: AddrRange) {
        self.set_memory(range.start, range.len(), true);
    }

    /// Clears taint from every byte in `range`.
    pub fn untaint_memory(&mut self, range: AddrRange) {
        self.set_memory(range.start, range.len(), false);
    }

    /// Sets or clears taint on `len` bytes from `addr`, wrapping at the
    /// top of the address space. Clearing never maps a page, and while
    /// no byte is tainted it does nothing.
    fn set_memory(&mut self, addr: u64, len: u64, tainted: bool) {
        if !tainted && self.mem_bytes == 0 {
            return;
        }
        for (page, off, n) in page::spans(addr, len) {
            let bits = if tainted {
                self.mem
                    .entry(page)
                    .or_insert_with(|| Box::new([0; PAGE_SIZE / 64]))
            } else {
                match self.mem.get_mut(&page) {
                    Some(bits) => bits,
                    None => continue,
                }
            };
            for (w, mask) in word_masks(off, n) {
                let old = bits[w];
                bits[w] = if tainted { old | mask } else { old & !mask };
                self.mem_bytes += bits[w].count_ones() as usize;
                self.mem_bytes -= old.count_ones() as usize;
            }
        }
    }

    /// Marks a register as tainted (direct source injection).
    pub fn taint_reg(&mut self, r: UReg) {
        self.set_reg(r, true);
    }

    /// Whether a register is tainted.
    pub fn reg_tainted(&self, r: UReg) -> bool {
        self.regs[r.index()]
    }

    /// Whether any byte of `[addr, addr+len)` is tainted. Addresses wrap
    /// (wild pointers reach the top of the address space; the
    /// architectural memory model wraps the same way).
    ///
    /// While no byte is tainted this makes no page probe, and a query
    /// that stays inside one page makes one probe with no span iterator.
    #[inline]
    pub fn memory_tainted(&self, addr: u64, len: u64) -> bool {
        if self.mem_bytes == 0 || len == 0 {
            return false;
        }
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off as u64 + len <= PAGE_SIZE as u64 {
            return self.page_tainted(addr >> PAGE_BITS, off, len as usize);
        }
        page::spans(addr, len).any(|(page, off, n)| self.page_tainted(page, off, n))
    }

    /// Whether any of `n` bytes from byte `off` of `page` is tainted.
    #[inline]
    fn page_tainted(&self, page: u64, off: usize, n: usize) -> bool {
        self.mem
            .get(&page)
            .is_some_and(|bits| word_masks(off, n).any(|(w, mask)| bits[w] & mask != 0))
    }

    /// Whether the flags register is tainted.
    pub fn flags_tainted(&self) -> bool {
        self.flags
    }

    /// Number of tainted memory bytes (diagnostics).
    pub fn tainted_bytes(&self) -> usize {
        self.mem_bytes
    }

    fn set_reg(&mut self, r: UReg, v: bool) {
        self.regs[r.index()] = v;
    }

    fn src_tainted(&self, b: Src) -> bool {
        b.reg().is_some_and(|r| self.reg_tainted(r))
    }

    /// Gives `dst` (if any) the sources' taint `t`, and the flags too
    /// when the µop writes them.
    fn arith(&mut self, uop: &Uop, dst: Option<UReg>, t: bool) {
        if let Some(d) = dst {
            self.set_reg(d, t);
        }
        if uop.writes_flags() {
            self.flags = t;
        }
    }

    fn addr_tainted(&self, m: &UMem) -> bool {
        m.base.is_some_and(|b| self.reg_tainted(b))
            || m.index.is_some_and(|(i, _)| self.reg_tainted(i))
    }

    /// Propagates taint through one µop and reports trigger-relevant
    /// observations.
    ///
    /// `ea` is the resolved effective address for memory µops (`None` for
    /// non-memory µops). Decoy µops are skipped entirely: they are
    /// microarchitectural noise, not data flow.
    #[inline(always)]
    pub fn propagate(&mut self, uop: &Uop, ea: Option<u64>) -> TaintEvent {
        use UopKind as K;
        let mut ev = TaintEvent::default();
        if uop.is_decoy() {
            return ev;
        }
        match uop.kind {
            K::Nop | K::Halt | K::Clflush { .. } | K::JmpImm { .. } | K::Wrmsr { .. } => {}
            // `rdtsc` and `rdmsr` leave their destination's taint as it was.
            K::Rdtsc { .. } | K::Rdmsr { .. } => {}
            K::MovImm { dst, .. } => self.set_reg(dst, false),
            // Register dataflow: the destination takes the union of the
            // sources' taint, and so do the flags if the µop writes them.
            K::Mov { dst, src } | K::VMov { dst, src } | K::VExtractQ { dst, src, .. } => {
                self.set_reg(dst, self.reg_tainted(src));
            }
            K::Alu { dst, a, b, .. } => {
                self.arith(uop, dst, self.reg_tainted(a) || self.src_tainted(b));
            }
            K::Mul { dst, a, b, .. } => {
                self.arith(uop, Some(dst), self.reg_tainted(a) || self.src_tainted(b));
            }
            K::FAlu { dst, a, b, .. }
            | K::DivQ { dst, a, b }
            | K::DivR { dst, a, b }
            | K::VAlu { dst, a, b, .. } => {
                self.arith(uop, Some(dst), self.reg_tainted(a) || self.reg_tainted(b));
            }
            // Inserts merge into the destination: keep existing taint.
            K::VInsertQ { dst, src, .. } => {
                self.set_reg(dst, self.reg_tainted(src) || self.reg_tainted(dst));
            }
            K::Lea { dst, mem } => self.set_reg(dst, self.addr_tainted(&mem)),
            K::Ld { dst, mem } | K::VLd { dst, mem } => {
                ev.tainted_address = self.addr_tainted(&mem);
                ev.loaded_tainted_data =
                    ea.is_some_and(|a| self.memory_tainted(a, mem.width.bytes()));
                self.set_reg(dst, ev.loaded_tainted_data || ev.tainted_address);
            }
            K::Pop { dst } => {
                ev.loaded_tainted_data = ea.is_some_and(|a| self.memory_tainted(a, 8));
                self.set_reg(dst, ev.loaded_tainted_data);
            }
            // Addresses wrap: a wild store near u64::MAX is still an
            // executable program, and the taint set must follow the
            // same wrapping the data write performs.
            K::St { src, mem } | K::VSt { src, mem } => {
                ev.tainted_address = self.addr_tainted(&mem);
                if let Some(a) = ea {
                    self.set_memory(a, mem.width.bytes(), self.reg_tainted(src));
                }
            }
            K::Push { src } => {
                if let Some(a) = ea {
                    self.set_memory(a, 8, self.reg_tainted(src));
                }
            }
            K::PushImm { .. } => {
                if let Some(a) = ea {
                    self.set_memory(a, 8, false);
                }
            }
            K::Br { .. } => ev.tainted_branch = self.flags,
            K::JmpReg { src } => ev.tainted_branch = self.reg_tainted(src),
        }
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd_telemetry::SplitMix64;
    use csd_uops::Src;
    use mx86_isa::{AluOp, Cc, Gpr, Width};

    fn ld(dst: UReg, addr: u64) -> Uop {
        Uop::new(UopKind::Ld {
            dst,
            mem: UMem::abs(addr, Width::B8),
        })
    }

    fn st(src: UReg, mem: UMem) -> Uop {
        Uop::new(UopKind::St { src, mem })
    }

    /// `cmp a, 0`: flags only.
    fn cmp(a: UReg) -> Uop {
        Uop::new(UopKind::Alu {
            op: AluOp::Sub,
            dst: None,
            a,
            b: Src::Imm(0),
            flags: true,
        })
    }

    fn br() -> Uop {
        Uop::new(UopKind::Br {
            cc: Cc::Ne,
            target: 0x40,
        })
    }

    #[test]
    fn load_of_tainted_data_taints_register() {
        let mut d = Dift::new();
        d.taint_memory(AddrRange::new(0x100, 0x108));
        let ev = d.propagate(&ld(UReg::Gpr(Gpr::Rax), 0x100), Some(0x100));
        assert!(ev.loaded_tainted_data);
        assert!(!ev.tainted_address);
        assert!(d.reg_tainted(UReg::Gpr(Gpr::Rax)));
    }

    #[test]
    fn alu_unions_taint_and_taints_flags() {
        let mut d = Dift::new();
        d.taint_reg(UReg::Gpr(Gpr::Rbx));
        let add = Uop::new(UopKind::Alu {
            op: AluOp::Add,
            dst: Some(UReg::Gpr(Gpr::Rax)),
            a: UReg::Gpr(Gpr::Rax),
            b: Src::Reg(UReg::Gpr(Gpr::Rbx)),
            flags: true,
        });
        d.propagate(&add, None);
        assert!(d.reg_tainted(UReg::Gpr(Gpr::Rax)));
        assert!(d.flags_tainted());
    }

    #[test]
    fn tainted_index_register_flags_tainted_address() {
        let mut d = Dift::new();
        d.taint_reg(UReg::Gpr(Gpr::Rcx));
        let u = Uop::new(UopKind::Ld {
            dst: UReg::Tmp(0),
            mem: UMem {
                base: Some(UReg::Gpr(Gpr::Rbx)),
                index: Some((UReg::Gpr(Gpr::Rcx), mx86_isa::Scale::S4)),
                disp: 0,
                width: Width::B4,
            },
        });
        let ev = d.propagate(&u, Some(0x9999));
        assert!(ev.tainted_address, "key-dependent table index");
        assert!(ev.triggers_stealth());
    }

    #[test]
    fn tainted_compare_then_branch_is_tainted_branch() {
        let mut d = Dift::new();
        d.taint_reg(UReg::Gpr(Gpr::Rax));
        d.propagate(&cmp(UReg::Gpr(Gpr::Rax)), None);
        let ev = d.propagate(&br(), None);
        assert!(ev.tainted_branch);
        assert!(ev.triggers_stealth());
    }

    /// Devectorized lane arithmetic writes no flags, so it must leave the
    /// flags taint of a preceding compare for the branch that reads it.
    #[test]
    fn lane_arithmetic_keeps_the_flags_taint() {
        let mut d = Dift::new();
        d.taint_reg(UReg::Gpr(Gpr::Rax));
        d.propagate(&cmp(UReg::Gpr(Gpr::Rax)), None);
        let lane_add = Uop::new(UopKind::Alu {
            op: AluOp::Add,
            dst: Some(UReg::Tmp(4)),
            a: UReg::Tmp(4),
            b: Src::Reg(UReg::Tmp(5)),
            flags: false,
        });
        d.propagate(&lane_add, None);
        assert!(d.flags_tainted());
        assert!(d.propagate(&br(), None).tainted_branch);
    }

    #[test]
    fn untainted_branch_does_not_trigger() {
        let mut d = Dift::new();
        d.propagate(&cmp(UReg::Gpr(Gpr::Rax)), None);
        assert!(!d.propagate(&br(), None).triggers_stealth());
    }

    #[test]
    fn store_propagates_taint_to_memory_and_back() {
        let mut d = Dift::new();
        d.taint_reg(UReg::Gpr(Gpr::Rdx));
        let st = st(UReg::Gpr(Gpr::Rdx), UMem::abs(0x200, Width::B8));
        d.propagate(&st, Some(0x200));
        assert!(d.memory_tainted(0x200, 8));
        let ev = d.propagate(&ld(UReg::Gpr(Gpr::Rsi), 0x200), Some(0x200));
        assert!(ev.loaded_tainted_data);
    }

    #[test]
    fn untainted_store_clears_memory_taint() {
        let mut d = Dift::new();
        d.taint_memory(AddrRange::new(0x300, 0x308));
        let st = st(UReg::Gpr(Gpr::Rax), UMem::abs(0x300, Width::B8));
        d.propagate(&st, Some(0x300));
        assert!(!d.memory_tainted(0x300, 8));
    }

    #[test]
    fn mov_imm_clears_taint() {
        let mut d = Dift::new();
        d.taint_reg(UReg::Gpr(Gpr::Rax));
        let mi = Uop::new(UopKind::MovImm {
            dst: UReg::Gpr(Gpr::Rax),
            imm: 0,
        });
        d.propagate(&mi, None);
        assert!(!d.reg_tainted(UReg::Gpr(Gpr::Rax)));
    }

    #[test]
    fn decoy_uops_do_not_propagate() {
        let mut d = Dift::new();
        d.taint_memory(AddrRange::new(0x100, 0x140));
        let decoy = Uop::new(UopKind::Ld {
            dst: UReg::Tmp(1),
            mem: UMem::abs(0x100, Width::B1),
        })
        .decoy();
        let ev = d.propagate(&decoy, Some(0x100));
        assert_eq!(ev, TaintEvent::default());
        assert!(!d.reg_tainted(UReg::Tmp(1)));
    }

    /// An address near a page boundary, low memory, or the top of the
    /// address space.
    fn near_edge(rng: &mut SplitMix64) -> u64 {
        let bases = [0, 0x7000, 0x1_0000_0000, u64::MAX - 0x1fff];
        bases[rng.range_u64(0, 4) as usize].wrapping_add(rng.range_u64(0, 0x2000))
    }

    /// Model-based test: the page-bitmap shadow against a byte set, over
    /// random source marking, unmarking, store propagation (widths
    /// 1..16, straddling pages and wrapping past `u64::MAX`) and queries.
    #[test]
    fn shadow_matches_a_byte_set_oracle() {
        use std::collections::BTreeSet;
        let mut d = Dift::new();
        let mut oracle = BTreeSet::new();
        let mut rng = SplitMix64::new(15);
        let taint_src = UReg::Gpr(Gpr::Rdx);
        d.taint_reg(taint_src);
        let widths = [Width::B1, Width::B2, Width::B4, Width::B8, Width::B16];
        for _ in 0..1500 {
            match rng.range_u64(0, 5) {
                0 | 1 => {
                    let start = near_edge(&mut rng);
                    let end = start.saturating_add(rng.range_u64(0, 2 * PAGE_SIZE as u64));
                    let r = AddrRange::new(start, end);
                    if rng.next_bool() {
                        d.taint_memory(r);
                        oracle.extend(start..end);
                    } else {
                        d.untaint_memory(r);
                        let gone: Vec<u64> = oracle.range(start..end).copied().collect();
                        for b in gone {
                            oracle.remove(&b);
                        }
                    }
                }
                2 => {
                    let a = near_edge(&mut rng);
                    let width = widths[rng.range_u64(0, 5) as usize];
                    let tainted = rng.next_bool();
                    let src = if tainted {
                        taint_src
                    } else {
                        UReg::Gpr(Gpr::Rax)
                    };
                    d.propagate(&st(src, UMem::abs(0, width)), Some(a));
                    for b in (0..width.bytes()).map(|i| a.wrapping_add(i)) {
                        if tainted {
                            oracle.insert(b);
                        } else {
                            oracle.remove(&b);
                        }
                    }
                }
                3 => {
                    let a = near_edge(&mut rng);
                    d.propagate(&Uop::new(UopKind::PushImm { imm: 0 }), Some(a));
                    for i in 0..8 {
                        oracle.remove(&a.wrapping_add(i));
                    }
                }
                _ => {}
            }
            let a = near_edge(&mut rng);
            let len = [1, 2, 4, 8, 16, 100, 5000][rng.range_u64(0, 7) as usize];
            let want = match a.checked_add(len) {
                Some(end) => oracle.range(a..end).next().is_some(),
                None => {
                    oracle.range(a..).next().is_some()
                        || oracle.range(..a.wrapping_add(len)).next().is_some()
                }
            };
            assert_eq!(d.memory_tainted(a, len), want, "{a:#x}+{len}");
            assert_eq!(d.tainted_bytes(), oracle.len());
        }
        assert!(!oracle.is_empty());
    }

    /// Model-based test of the source API alone: `taint_memory` and
    /// `untaint_memory` over short ranges, against a byte set, with
    /// 1-, 2-, 4-, 8- and 16-byte `memory_tainted` queries placed to
    /// straddle 64-byte bitmap words and pages and to wrap past
    /// `u64::MAX`. The taint set is emptied every so often, so queries
    /// also run while no byte is tainted.
    #[test]
    fn memory_taint_matches_a_byte_set_oracle() {
        use std::collections::BTreeSet;
        let mut d = Dift::new();
        let mut oracle: BTreeSet<u64> = BTreeSet::new();
        let mut rng = SplitMix64::new(23);
        // A point near a word edge, a page edge, or the top of the
        // address space, then nudged a few bytes either way.
        let edge = |rng: &mut SplitMix64| {
            let base = match rng.range_u64(0, 3) {
                0 => 0x5000 + 64 * rng.range_u64(0, 128),
                1 => 0x1_0000 + PAGE_SIZE as u64 * rng.range_u64(0, 4),
                _ => 0u64.wrapping_sub(64 * rng.range_u64(0, 4)),
            };
            base.wrapping_add(rng.range_u64(0, 24)).wrapping_sub(12)
        };
        let (mut queries, mut hits, mut empty_queries) = (0, 0, 0);
        for step in 0..4000 {
            if step % 500 == 499 {
                for &b in &oracle {
                    d.untaint_memory(AddrRange::with_len(b, 1));
                }
                oracle.clear();
            } else if rng.range_u64(0, 3) == 0 {
                let start = edge(&mut rng);
                let len = rng.range_u64(1, 100).min(u64::MAX - start);
                let r = AddrRange::with_len(start, len);
                if rng.range_u64(0, 3) == 0 {
                    d.untaint_memory(r);
                    for b in start..start + len {
                        oracle.remove(&b);
                    }
                } else {
                    d.taint_memory(r);
                    oracle.extend(start..start + len);
                }
            }
            for len in [1, 2, 4, 8, 16] {
                let a = edge(&mut rng);
                let want = (0..len).any(|i| oracle.contains(&a.wrapping_add(i)));
                assert_eq!(d.memory_tainted(a, len), want, "step {step}: {a:#x}+{len}");
                queries += 1;
                hits += usize::from(want);
                empty_queries += usize::from(oracle.is_empty());
            }
            assert_eq!(d.tainted_bytes(), oracle.len(), "step {step}");
        }
        assert!(
            hits > queries / 10 && hits < queries / 2,
            "{hits}/{queries}"
        );
        assert!(empty_queries > 0 && empty_queries < queries);
    }

    #[test]
    fn untaint_memory_removes_source() {
        let mut d = Dift::new();
        d.taint_memory(AddrRange::new(0x100, 0x110));
        assert_eq!(d.tainted_bytes(), 16);
        d.untaint_memory(AddrRange::new(0x100, 0x108));
        assert!(!d.memory_tainted(0x100, 8));
        assert!(d.memory_tainted(0x108, 8));
    }
}
