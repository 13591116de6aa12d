//! Single-pass assembler with label fixups.

use crate::cc::Cc;
use crate::inst::{AluOp, Inst, RegImm, VecOp};
use crate::operand::{MemRef, Width};
use crate::program::{Placed, Program};
use crate::reg::{Gpr, Xmm};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A forward-referenceable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// Errors produced while assembling a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was bound twice.
    RebindLabel(Label),
    /// A label used as a branch target was never bound.
    UnboundLabel(Label),
    /// A region was opened twice or closed without being opened.
    BadRegion(String),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::RebindLabel(l) => write!(f, "label L{} bound more than once", l.0),
            AsmError::UnboundLabel(l) => write!(f, "label L{} referenced but never bound", l.0),
            AsmError::BadRegion(n) => write!(f, "mismatched region markers for '{n}'"),
        }
    }
}

impl Error for AsmError {}

/// A single-pass assembler for mx86 programs.
///
/// Instructions are laid out contiguously from a base address; direct branch
/// targets may reference [`Label`]s that are bound before or after the
/// branch site and are patched in [`Assembler::finish`]. Branch encodings
/// have fixed length (rel32-style), so a single pass suffices.
///
/// ```
/// use mx86_isa::{Assembler, Gpr, AluOp, Cc};
/// # fn main() -> Result<(), mx86_isa::AsmError> {
/// let mut a = Assembler::new(0x40_0000);
/// let done = a.fresh_label();
/// a.cmp_ri(Gpr::Rax, 0);
/// a.jcc(Cc::Eq, done);
/// a.alu_ri(AluOp::Sub, Gpr::Rax, 1);
/// a.bind(done)?;
/// a.halt();
/// let p = a.finish()?;
/// assert_eq!(p.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Assembler {
    base: u64,
    pc: u64,
    insts: Vec<Placed>,
    labels: Vec<Option<u64>>,
    fixups: Vec<(usize, Label)>,
    symbols: BTreeMap<String, u64>,
    open_regions: Vec<String>,
}

impl Assembler {
    /// Creates an assembler that places code starting at `base`.
    pub fn new(base: u64) -> Assembler {
        Assembler {
            base,
            pc: base,
            insts: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
            symbols: BTreeMap::new(),
            open_regions: Vec::new(),
        }
    }

    /// The address at which the next instruction will be placed.
    pub fn here(&self) -> u64 {
        self.pc
    }

    /// Allocates a fresh, unbound label.
    pub fn fresh_label(&mut self) -> Label {
        let l = Label(self.labels.len() as u32);
        self.labels.push(None);
        l
    }

    /// Binds `label` to the current address.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::RebindLabel`] if the label is already bound.
    pub fn bind(&mut self, label: Label) -> Result<(), AsmError> {
        let slot = &mut self.labels[label.0 as usize];
        if slot.is_some() {
            return Err(AsmError::RebindLabel(label));
        }
        *slot = Some(self.pc);
        Ok(())
    }

    /// Records a named symbol at the current address.
    pub fn symbol(&mut self, name: impl Into<String>) {
        self.symbols.insert(name.into(), self.pc);
    }

    /// Opens a named region at the current address. Close it with
    /// [`Assembler::end_region`]; query it via [`Program::region`].
    pub fn begin_region(&mut self, name: impl Into<String>) {
        let name = name.into();
        self.symbols.insert(name.clone(), self.pc);
        self.open_regions.push(name);
    }

    /// Closes the innermost open region.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::BadRegion`] if no region is open.
    pub fn end_region(&mut self) -> Result<(), AsmError> {
        let name = self
            .open_regions
            .pop()
            .ok_or_else(|| AsmError::BadRegion("<none>".into()))?;
        self.symbols.insert(format!("{name}.end"), self.pc);
        Ok(())
    }

    /// Pads with NOPs until the current address is `align`-aligned.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn align(&mut self, align: u64) {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        while !self.pc.is_multiple_of(align) {
            let gap = align - (self.pc % align);
            let len = gap.min(15) as u32;
            self.nop(len);
        }
    }

    /// Pads with NOPs until the current address reaches `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is behind the current address.
    pub fn pad_to(&mut self, target: u64) {
        assert!(target >= self.pc, "cannot pad backwards");
        while self.pc < target {
            let gap = target - self.pc;
            self.nop(gap.min(15) as u32);
        }
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(Placed {
            addr: self.pc,
            inst,
        });
        self.pc += u64::from(inst.len());
        self
    }

    /// Finalizes the program, patching all label references.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UnboundLabel`] if a referenced label was never
    /// bound, or [`AsmError::BadRegion`] if a region is still open.
    pub fn finish(mut self) -> Result<Program, AsmError> {
        if let Some(open) = self.open_regions.pop() {
            return Err(AsmError::BadRegion(open));
        }
        for (idx, label) in std::mem::take(&mut self.fixups) {
            let addr = self.labels[label.0 as usize].ok_or(AsmError::UnboundLabel(label))?;
            let inst = &mut self.insts[idx].inst;
            match inst {
                Inst::Jmp { target } | Inst::Jcc { target, .. } | Inst::Call { target } => {
                    *target = addr;
                }
                other => unreachable!("fixup on non-branch {other}"),
            }
        }
        Ok(Program::from_parts(self.insts, self.symbols, self.base))
    }

    fn emit_branch(&mut self, inst: Inst, label: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), label));
        self.emit(inst)
    }

    // ---- convenience emitters -------------------------------------------

    /// `nop` of `len` bytes.
    pub fn nop(&mut self, len: u32) -> &mut Self {
        self.emit(Inst::Nop { len })
    }

    /// `mov dst, src`.
    pub fn mov_rr(&mut self, dst: Gpr, src: Gpr) -> &mut Self {
        self.emit(Inst::MovRR { dst, src })
    }

    /// `mov dst, imm`.
    pub fn mov_ri(&mut self, dst: Gpr, imm: i64) -> &mut Self {
        self.emit(Inst::MovRI { dst, imm })
    }

    /// `mov dst, qword [mem]`.
    pub fn load(&mut self, dst: Gpr, mem: MemRef) -> &mut Self {
        self.load_w(dst, mem, Width::B8)
    }

    /// `mov dst, <width> [mem]`.
    pub fn load_w(&mut self, dst: Gpr, mem: MemRef, width: Width) -> &mut Self {
        self.emit(Inst::Load { dst, mem, width })
    }

    /// `mov qword [mem], src`.
    pub fn store(&mut self, mem: MemRef, src: Gpr) -> &mut Self {
        self.store_w(mem, src, Width::B8)
    }

    /// `mov <width> [mem], src`.
    pub fn store_w(&mut self, mem: MemRef, src: Gpr, width: Width) -> &mut Self {
        self.emit(Inst::Store { mem, src, width })
    }

    /// `lea dst, [mem]`.
    pub fn lea(&mut self, dst: Gpr, mem: MemRef) -> &mut Self {
        self.emit(Inst::Lea { dst, mem })
    }

    /// `op dst, src` (register source).
    pub fn alu_rr(&mut self, op: AluOp, dst: Gpr, src: Gpr) -> &mut Self {
        self.emit(Inst::Alu {
            op,
            dst,
            src: RegImm::Reg(src),
        })
    }

    /// `op dst, imm`.
    pub fn alu_ri(&mut self, op: AluOp, dst: Gpr, imm: i64) -> &mut Self {
        self.emit(Inst::Alu {
            op,
            dst,
            src: RegImm::Imm(imm),
        })
    }

    /// `op dst, <width> [mem]` — load-op form.
    pub fn alu_load(&mut self, op: AluOp, dst: Gpr, mem: MemRef, width: Width) -> &mut Self {
        self.emit(Inst::AluLoad {
            op,
            dst,
            mem,
            width,
        })
    }

    /// `op <width> [mem], src` — read-modify-write form.
    pub fn alu_store(&mut self, op: AluOp, mem: MemRef, src: RegImm, width: Width) -> &mut Self {
        self.emit(Inst::AluStore {
            op,
            mem,
            src,
            width,
        })
    }

    /// `imul dst, src`.
    pub fn mul_rr(&mut self, dst: Gpr, src: Gpr) -> &mut Self {
        self.emit(Inst::Mul {
            dst,
            src: RegImm::Reg(src),
        })
    }

    /// `imul dst, imm`.
    pub fn mul_ri(&mut self, dst: Gpr, imm: i64) -> &mut Self {
        self.emit(Inst::Mul {
            dst,
            src: RegImm::Imm(imm),
        })
    }

    /// `div src` — RDX:RAX / src (microsequenced).
    pub fn div(&mut self, src: Gpr) -> &mut Self {
        self.emit(Inst::Div { src })
    }

    /// `cmp a, b` (register).
    pub fn cmp_rr(&mut self, a: Gpr, b: Gpr) -> &mut Self {
        self.emit(Inst::Cmp {
            a,
            b: RegImm::Reg(b),
        })
    }

    /// `cmp a, imm`.
    pub fn cmp_ri(&mut self, a: Gpr, imm: i64) -> &mut Self {
        self.emit(Inst::Cmp {
            a,
            b: RegImm::Imm(imm),
        })
    }

    /// `test a, b`.
    pub fn test_rr(&mut self, a: Gpr, b: Gpr) -> &mut Self {
        self.emit(Inst::Test {
            a,
            b: RegImm::Reg(b),
        })
    }

    /// `test a, imm`.
    pub fn test_ri(&mut self, a: Gpr, imm: i64) -> &mut Self {
        self.emit(Inst::Test {
            a,
            b: RegImm::Imm(imm),
        })
    }

    /// `jmp label`.
    pub fn jmp(&mut self, label: Label) -> &mut Self {
        self.emit_branch(Inst::Jmp { target: 0 }, label)
    }

    /// `jmp addr` with a known absolute target.
    pub fn jmp_abs(&mut self, target: u64) -> &mut Self {
        self.emit(Inst::Jmp { target })
    }

    /// `j<cc> label`.
    pub fn jcc(&mut self, cc: Cc, label: Label) -> &mut Self {
        self.emit_branch(Inst::Jcc { cc, target: 0 }, label)
    }

    /// `jmp reg` — indirect.
    pub fn jmp_ind(&mut self, reg: Gpr) -> &mut Self {
        self.emit(Inst::JmpInd { reg })
    }

    /// `call label`.
    pub fn call(&mut self, label: Label) -> &mut Self {
        self.emit_branch(Inst::Call { target: 0 }, label)
    }

    /// `call addr` with a known absolute target.
    pub fn call_abs(&mut self, target: u64) -> &mut Self {
        self.emit(Inst::Call { target })
    }

    /// `ret`.
    pub fn ret(&mut self) -> &mut Self {
        self.emit(Inst::Ret)
    }

    /// `push src`.
    pub fn push(&mut self, src: Gpr) -> &mut Self {
        self.emit(Inst::Push { src })
    }

    /// `pop dst`.
    pub fn pop(&mut self, dst: Gpr) -> &mut Self {
        self.emit(Inst::Pop { dst })
    }

    /// `movdqa dst, [mem]` — vector load.
    pub fn vload(&mut self, dst: Xmm, mem: MemRef) -> &mut Self {
        self.emit(Inst::VLoad { dst, mem })
    }

    /// `movdqa [mem], src` — vector store.
    pub fn vstore(&mut self, mem: MemRef, src: Xmm) -> &mut Self {
        self.emit(Inst::VStore { mem, src })
    }

    /// `movdqa dst, src` — vector move.
    pub fn vmov(&mut self, dst: Xmm, src: Xmm) -> &mut Self {
        self.emit(Inst::VMovRR { dst, src })
    }

    /// `op dst, src` — packed vector ALU.
    pub fn valu(&mut self, op: VecOp, dst: Xmm, src: Xmm) -> &mut Self {
        self.emit(Inst::VAlu { op, dst, src })
    }

    /// `op dst, [mem]` — packed vector ALU with memory source.
    pub fn valu_load(&mut self, op: VecOp, dst: Xmm, mem: MemRef) -> &mut Self {
        self.emit(Inst::VAluLoad { op, dst, mem })
    }

    /// `movq dst(gpr), src(xmm)`.
    pub fn vmov_to_gpr(&mut self, dst: Gpr, src: Xmm) -> &mut Self {
        self.emit(Inst::VMovToGpr { dst, src })
    }

    /// `movq dst(xmm), src(gpr)`.
    pub fn vmov_from_gpr(&mut self, dst: Xmm, src: Gpr) -> &mut Self {
        self.emit(Inst::VMovFromGpr { dst, src })
    }

    /// `clflush [mem]`.
    pub fn clflush(&mut self, mem: MemRef) -> &mut Self {
        self.emit(Inst::Clflush { mem })
    }

    /// `rdtsc`.
    pub fn rdtsc(&mut self) -> &mut Self {
        self.emit(Inst::Rdtsc)
    }

    /// `wrmsr msr, src`.
    pub fn wrmsr(&mut self, msr: u32, src: Gpr) -> &mut Self {
        self.emit(Inst::Wrmsr { msr, src })
    }

    /// `rdmsr dst, msr`.
    pub fn rdmsr(&mut self, dst: Gpr, msr: u32) -> &mut Self {
        self.emit(Inst::Rdmsr { dst, msr })
    }

    /// `hlt`.
    pub fn halt(&mut self) -> &mut Self {
        self.emit(Inst::Halt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = Assembler::new(0x1000);
        let fwd = a.fresh_label();
        let back = a.fresh_label();
        a.bind(back).unwrap();
        a.mov_ri(Gpr::Rax, 1);
        a.jcc(Cc::Ne, fwd);
        a.jmp(back);
        a.bind(fwd).unwrap();
        a.halt();
        let p = a.finish().unwrap();

        let jcc = p
            .iter()
            .find(|pl| matches!(pl.inst, Inst::Jcc { .. }))
            .unwrap();
        let jmp = p
            .iter()
            .find(|pl| matches!(pl.inst, Inst::Jmp { .. }))
            .unwrap();
        let halt = p.iter().find(|pl| matches!(pl.inst, Inst::Halt)).unwrap();
        assert_eq!(jcc.inst.direct_target(), Some(halt.addr));
        assert_eq!(jmp.inst.direct_target(), Some(0x1000));
    }

    #[test]
    fn instructions_are_contiguous() {
        let mut a = Assembler::new(0x2000);
        a.mov_ri(Gpr::Rax, 0x1234);
        a.load(Gpr::Rbx, MemRef::base(Gpr::Rax));
        a.ret();
        let p = a.finish().unwrap();
        let mut expected = 0x2000;
        for pl in &p {
            assert_eq!(pl.addr, expected);
            expected = pl.next_addr();
        }
        assert_eq!(p.end_addr(), expected);
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut a = Assembler::new(0);
        let l = a.fresh_label();
        a.jmp(l);
        assert_eq!(a.finish().unwrap_err(), AsmError::UnboundLabel(Label(0)));
    }

    #[test]
    fn rebinding_is_an_error() {
        let mut a = Assembler::new(0);
        let l = a.fresh_label();
        a.bind(l).unwrap();
        assert_eq!(a.bind(l).unwrap_err(), AsmError::RebindLabel(Label(0)));
    }

    #[test]
    fn align_pads_with_nops() {
        let mut a = Assembler::new(0x101);
        a.align(64);
        assert_eq!(a.here() % 64, 0);
        let p = a.finish().unwrap();
        assert!(p.iter().all(|pl| matches!(pl.inst, Inst::Nop { .. })));
    }

    #[test]
    fn pad_to_reaches_target_with_long_gaps() {
        let mut a = Assembler::new(0);
        a.pad_to(100);
        assert_eq!(a.here(), 100);
    }

    #[test]
    fn regions_record_extents() {
        let mut a = Assembler::new(0x1000);
        a.begin_region("multiply");
        a.mov_ri(Gpr::Rax, 7);
        a.ret();
        a.end_region().unwrap();
        let end = a.here();
        let p = a.finish().unwrap();
        let r = p.region("multiply").unwrap();
        assert_eq!(r.start, 0x1000);
        assert_eq!(r.end, end);
    }

    #[test]
    fn open_region_is_an_error() {
        let mut a = Assembler::new(0);
        a.begin_region("r");
        assert!(matches!(a.finish(), Err(AsmError::BadRegion(_))));
    }

    #[test]
    fn fetch_by_address() {
        let mut a = Assembler::new(0x500);
        a.mov_ri(Gpr::Rcx, 3);
        let second = a.here();
        a.ret();
        let p = a.finish().unwrap();
        assert!(p.fetch(0x500).is_some());
        assert!(matches!(p.fetch(second).unwrap().inst, Inst::Ret));
        assert!(p.fetch(0x501).is_none());
    }
}
