//! Assembled programs: instruction streams indexed by address.

use crate::inst::Inst;
use std::collections::BTreeMap;
use std::fmt;

/// A half-open address range `[start, end)`.
///
/// Used for code/data footprints and, centrally, for the CSD *decoy
/// address-range registers* that mark sensitive regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AddrRange {
    /// Inclusive start address.
    pub start: u64,
    /// Exclusive end address.
    pub end: u64,
}

impl AddrRange {
    /// Creates a range; `end` must not precede `start`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: u64, end: u64) -> AddrRange {
        assert!(end >= start, "address range end precedes start");
        AddrRange { start, end }
    }

    /// Range covering `len` bytes from `start`.
    pub fn with_len(start: u64, len: u64) -> AddrRange {
        AddrRange::new(start, start + len)
    }

    /// Number of bytes covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the range covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `addr` lies within the range.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end
    }

    /// Whether the two ranges share any byte.
    pub fn overlaps(&self, other: &AddrRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Iterates over the starting addresses of `block`-byte blocks that the
    /// range touches (aligned down to `block`).
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a power of two.
    pub fn blocks(&self, block: u64) -> impl Iterator<Item = u64> {
        assert!(block.is_power_of_two(), "block size must be a power of two");
        let first = self.start & !(block - 1);
        let end = self.end;
        (0..)
            .map(move |i| first + i * block)
            .take_while(move |&a| a < end)
    }
}

impl fmt::Display for AddrRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x}, {:#x})", self.start, self.end)
    }
}

/// One placed instruction inside a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placed {
    /// Start address of the encoding.
    pub addr: u64,
    /// The macro-op.
    pub inst: Inst,
}

impl Placed {
    /// Address of the byte following this instruction.
    pub fn next_addr(&self) -> u64 {
        self.addr + u64::from(self.inst.len())
    }
}

/// An instruction as [`Program::fetch_indexed`] resolves it: the placed
/// instruction plus the static facts the front end needs per dynamic
/// instance, looked up rather than recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fetched {
    /// Dense index of the instruction in program order (`0..len()`).
    pub index: usize,
    /// The instruction and its address.
    pub placed: Placed,
    /// Address of the byte following the instruction
    /// (`placed.next_addr()`).
    pub next: u64,
}

/// Marks a byte of [`Program`]'s fetch index where no instruction starts.
const NO_INST: u32 = u32::MAX;

/// An assembled program: a contiguous, address-indexed instruction stream.
///
/// Produced by [`crate::Assembler::finish`]. Instructions are laid out
/// back-to-back starting at the entry address; `fetch` resolves an address
/// to the instruction that *starts* there, mirroring how the front end's
/// instruction-length decoder walks the byte stream.
#[derive(Debug, Clone, Default)]
pub struct Program {
    insts: Vec<Placed>,
    /// Fetch index: for each code byte (offset from `entry`), the index in
    /// `insts` of the instruction starting there, or [`NO_INST`]. The
    /// assembler lays code out contiguously (alignment pads with NOPs), so
    /// the table is as long as the code and `fetch` is one bounds-checked
    /// load on every dynamic instruction.
    index: Vec<u32>,
    /// Ordered, unlike a `HashMap` with its per-process random seed, so
    /// building and dropping a program allocates and frees the names in
    /// the same order every run and heap use repeats from run to run.
    symbols: BTreeMap<String, u64>,
    entry: u64,
}

impl Program {
    pub(crate) fn from_parts(
        insts: Vec<Placed>,
        symbols: BTreeMap<String, u64>,
        entry: u64,
    ) -> Program {
        let end = insts.last().map_or(entry, Placed::next_addr);
        assert!(insts.len() < NO_INST as usize, "program too large to index");
        debug_assert!(
            insts.windows(2).all(|w| w[0].next_addr() == w[1].addr),
            "code is laid out back-to-back"
        );
        let mut index = vec![NO_INST; (end - entry) as usize];
        for (i, p) in insts.iter().enumerate() {
            index[(p.addr - entry) as usize] = i as u32;
        }
        Program {
            insts,
            index,
            symbols,
            entry,
        }
    }

    /// The program's entry address.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// First address past the last instruction.
    pub fn end_addr(&self) -> u64 {
        self.insts.last().map_or(self.entry, Placed::next_addr)
    }

    /// The full code footprint `[entry, end)`.
    pub fn code_range(&self) -> AddrRange {
        AddrRange::new(self.entry, self.end_addr())
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Resolves `addr` to the instruction starting at that address.
    pub fn fetch(&self, addr: u64) -> Option<&Placed> {
        self.index_of(addr).map(|i| &self.insts[i])
    }

    /// Resolves `addr` like [`Program::fetch`], together with the
    /// instruction's dense index and the address following it. Code is
    /// laid out back-to-back, so that address is where the next
    /// instruction starts (or the end of the code), and no encoded length
    /// is recomputed.
    pub fn fetch_indexed(&self, addr: u64) -> Option<Fetched> {
        let index = self.index_of(addr)?;
        let next = match self.insts.get(index + 1) {
            Some(p) => p.addr,
            None => self.entry + self.index.len() as u64,
        };
        Some(Fetched {
            index,
            placed: self.insts[index],
            next,
        })
    }

    fn index_of(&self, addr: u64) -> Option<usize> {
        let off = usize::try_from(addr.wrapping_sub(self.entry)).ok()?;
        match *self.index.get(off)? {
            NO_INST => None,
            i => Some(i as usize),
        }
    }

    /// Address bound to a symbol (label name), if present.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// All symbols as `(name, addr)` pairs, in name order.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, u64)> {
        self.symbols.iter().map(|(n, &a)| (n.as_str(), a))
    }

    /// Iterates the placed instructions in address order.
    pub fn iter(&self) -> std::slice::Iter<'_, Placed> {
        self.insts.iter()
    }

    /// Returns the address range covered by a named region, defined by the
    /// symbols `name` (start) and `name.end` (end), as emitted by
    /// [`crate::Assembler::begin_region`]/[`crate::Assembler::end_region`].
    pub fn region(&self, name: &str) -> Option<AddrRange> {
        let start = self.symbol(name)?;
        let end = self.symbol(&format!("{name}.end"))?;
        Some(AddrRange::new(start, end))
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Placed;
    type IntoIter = std::slice::Iter<'a, Placed>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.insts {
            writeln!(f, "{:#010x}:  {}", p.addr, p.inst)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_range_basics() {
        let r = AddrRange::with_len(0x100, 0x40);
        assert_eq!(r.len(), 0x40);
        assert!(r.contains(0x100));
        assert!(r.contains(0x13f));
        assert!(!r.contains(0x140));
        assert!(!r.is_empty());
        assert!(AddrRange::new(4, 4).is_empty());
    }

    #[test]
    fn addr_range_overlap() {
        let a = AddrRange::new(0x100, 0x200);
        assert!(a.overlaps(&AddrRange::new(0x1ff, 0x300)));
        assert!(!a.overlaps(&AddrRange::new(0x200, 0x300)));
        assert!(a.overlaps(&AddrRange::new(0x0, 0x101)));
        assert!(!a.overlaps(&AddrRange::new(0, 0x100)));
    }

    #[test]
    fn addr_range_blocks_align_down() {
        let r = AddrRange::new(0x130, 0x1c1);
        let blocks: Vec<u64> = r.blocks(64).collect();
        assert_eq!(blocks, vec![0x100, 0x140, 0x180, 0x1c0]);
    }

    #[test]
    #[should_panic(expected = "end precedes start")]
    fn addr_range_rejects_inverted() {
        let _ = AddrRange::new(0x10, 0x0);
    }

    /// Oracle test for the dense fetch index: every byte of a program with
    /// mixed instruction lengths resolves exactly as a map from
    /// instruction start to instruction would.
    #[test]
    fn fetch_matches_a_start_address_oracle_on_every_byte() {
        use crate::{AluOp, Assembler, Gpr, MemRef, Scale, Xmm};
        use std::collections::{BTreeMap, BTreeSet};
        let mut a = Assembler::new(0x2003);
        a.nop(1);
        a.mov_ri(Gpr::Rax, 0x1234_5678_9abc);
        a.alu_ri(AluOp::Add, Gpr::Rbx, 7);
        a.load(
            Gpr::Rcx,
            MemRef::base_index(Gpr::Rsi, Gpr::Rdi, Scale::S8).with_disp(0x4000),
        );
        a.align(64);
        a.vmov(Xmm::new(1), Xmm::new(2));
        a.nop(15);
        a.push(Gpr::Rbp);
        a.ret();
        let p = a.finish().unwrap();
        let oracle: BTreeMap<u64, Placed> = p.iter().map(|pl| (pl.addr, *pl)).collect();
        let lens: BTreeSet<u32> = p.iter().map(|pl| pl.inst.len()).collect();
        assert!(lens.len() >= 5, "mixed lengths: {lens:?}");
        assert!(
            p.len() < (p.end_addr() - p.entry()) as usize,
            "has interior bytes"
        );
        let order: Vec<u64> = oracle.keys().copied().collect();
        for addr in p.entry() - 64..p.end_addr() + 64 {
            assert_eq!(
                p.fetch(addr).copied(),
                oracle.get(&addr).copied(),
                "{addr:#x}"
            );
            let indexed = p.fetch_indexed(addr);
            assert_eq!(indexed.map(|f| f.placed), oracle.get(&addr).copied());
            if let Some(f) = indexed {
                assert_eq!(order[f.index], addr);
                assert_eq!(f.next, f.placed.next_addr(), "{addr:#x}");
            }
        }
        for addr in [0, p.entry() - 1, p.end_addr(), u64::MAX, u64::MAX - 0x1000] {
            assert!(p.fetch(addr).is_none(), "{addr:#x}");
            assert!(p.fetch_indexed(addr).is_none(), "{addr:#x}");
        }
        assert!(Program::default().fetch(0).is_none());
    }
}
