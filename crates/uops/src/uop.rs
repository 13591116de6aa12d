//! Micro-op format.

use crate::ureg::UReg;
use mx86_isa::{AluOp, Cc, Scale, VecOp, Width};
use std::fmt;

/// A memory operand at the micro-op level.
///
/// Unlike the macro-op [`mx86_isa::MemRef`], the base and index may be
/// decoder-internal temporaries — decoy loads address sensitive ranges
/// through temporaries so no architectural register is disturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UMem {
    /// Base register, if any.
    pub base: Option<UReg>,
    /// Index register and scale, if any.
    pub index: Option<(UReg, Scale)>,
    /// Constant displacement.
    pub disp: i64,
    /// Access width.
    pub width: Width,
}

impl UMem {
    /// An absolute address operand.
    pub const fn abs(addr: u64, width: Width) -> UMem {
        UMem {
            base: None,
            index: None,
            disp: addr as i64,
            width,
        }
    }

    /// A base + displacement operand.
    pub const fn base_disp(base: UReg, disp: i64, width: Width) -> UMem {
        UMem {
            base: Some(base),
            index: None,
            disp,
            width,
        }
    }

    /// Converts a macro-op memory operand.
    pub fn from_mem(m: mx86_isa::MemRef, width: Width) -> UMem {
        UMem {
            base: m.base.map(UReg::Gpr),
            index: m.index.map(|(r, s)| (UReg::Gpr(r), s)),
            disp: m.disp,
            width,
        }
    }

    /// Computes the effective address given a register-read closure.
    pub fn effective_address(&self, mut read: impl FnMut(UReg) -> u64) -> u64 {
        let mut addr = self.disp as u64;
        if let Some(b) = self.base {
            addr = addr.wrapping_add(read(b));
        }
        if let Some((i, s)) = self.index {
            addr = addr.wrapping_add(read(i).wrapping_mul(s.factor()));
        }
        addr
    }
}

impl fmt::Display for UMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut wrote = false;
        if let Some(b) = self.base {
            write!(f, "{b}")?;
            wrote = true;
        }
        if let Some((i, s)) = self.index {
            if wrote {
                write!(f, " + ")?;
            }
            write!(f, "{i}*{s}")?;
            wrote = true;
        }
        if self.disp != 0 || !wrote {
            if wrote {
                write!(f, " + {:#x}", self.disp)?;
            } else {
                write!(f, "{:#x}", self.disp)?;
            }
        }
        write!(f, "]")
    }
}

/// Which cache a decoy micro-op targets.
///
/// Stealth-mode decoys sweeping a *data* decoy range load through the L1D
/// path; decoys sweeping an *instruction* range are fetch-touch micro-ops
/// that load the target line through the L1I path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecoyTarget {
    /// Load through the data-cache path.
    Data,
    /// Touch through the instruction-cache path.
    Inst,
}

/// Scalar floating-point operation (used by devectorized float flows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FOp {
    /// Floating add.
    Add,
    /// Floating subtract.
    Sub,
    /// Floating multiply.
    Mul,
}

/// Scalar floating-point operand width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FWidth {
    /// Single precision (f32 bit pattern in the low 32 bits).
    S,
    /// Double precision (f64 bit pattern).
    D,
}

/// The second operand of an ALU or multiply µop: a register or an
/// immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Src {
    /// A register.
    Reg(UReg),
    /// An immediate.
    Imm(i64),
}

impl Src {
    /// The register, if the operand is one.
    pub const fn reg(self) -> Option<UReg> {
        match self {
            Src::Reg(r) => Some(r),
            Src::Imm(_) => None,
        }
    }
}

impl fmt::Display for Src {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Src::Reg(r) => write!(f, "{r}"),
            Src::Imm(i) => write!(f, "{i:#x}"),
        }
    }
}

/// The operation performed by a micro-op, with exactly the operands it
/// names. Implicit operands are not fields: push and pop move `rsp`,
/// `VInsertQ` merges into its destination, branches redirect fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // each variant's doc says what its fields do
pub enum UopKind {
    /// No operation (also used as a microsequencer slot).
    Nop,
    /// `dst ← src` register move.
    Mov { dst: UReg, src: UReg },
    /// `dst ← imm`.
    MovImm { dst: UReg, imm: i64 },
    /// `dst ← a op b`; a `dst` of `None` is a compare/test (flags only).
    /// `flags` is false for devectorized lane arithmetic: the vector
    /// macro-ops it stands in for (`paddb`, …) do not touch flags.
    Alu {
        op: AluOp,
        dst: Option<UReg>,
        a: UReg,
        b: Src,
        flags: bool,
    },
    /// `dst ← a * b`; `flags` as for [`UopKind::Alu`].
    Mul {
        dst: UReg,
        a: UReg,
        b: Src,
        flags: bool,
    },
    /// Scalar float op on GPR/temp bit patterns: `dst ← a op b` (no flags).
    FAlu {
        op: FOp,
        width: FWidth,
        dst: UReg,
        a: UReg,
        b: UReg,
    },
    /// Divide step: `dst ← a / b` (quotient); writes flags. Microsequenced.
    DivQ { dst: UReg, a: UReg, b: UReg },
    /// Divide step: `dst ← a % b` (remainder); writes flags. Microsequenced.
    DivR { dst: UReg, a: UReg, b: UReg },
    /// `dst ← [mem]` scalar load.
    Ld { dst: UReg, mem: UMem },
    /// `[mem] ← src` scalar store.
    St { src: UReg, mem: UMem },
    /// `dst ← &mem` address generation without access.
    Lea { dst: UReg, mem: UMem },
    /// Conditional branch to the absolute `target`; reads flags.
    Br { cc: Cc, target: u64 },
    /// Unconditional branch to the absolute `target`.
    JmpImm { target: u64 },
    /// Unconditional branch to the address in `src`.
    JmpReg { src: UReg },
    /// Push `imm` (call return addresses): `[rsp-8] ← imm; rsp -= 8`.
    PushImm { imm: u64 },
    /// Push `src`: `[rsp-8] ← src; rsp -= 8`.
    Push { src: UReg },
    /// Pop into `dst`: `dst ← [rsp]; rsp += 8`.
    Pop { dst: UReg },
    /// Packed vector ALU: `dst ← a op b` (128-bit).
    VAlu {
        op: VecOp,
        dst: UReg,
        a: UReg,
        b: UReg,
    },
    /// Vector load: `dst ← [mem]` (128-bit).
    VLd { dst: UReg, mem: UMem },
    /// Vector store: `[mem] ← src` (128-bit).
    VSt { src: UReg, mem: UMem },
    /// Vector register move.
    VMov { dst: UReg, src: UReg },
    /// `dst(gpr/tmp) ← the low or `hi` half of src(xmm/vtmp)`.
    VExtractQ { dst: UReg, src: UReg, hi: bool },
    /// `dst(xmm/vtmp).(low or hi half) ← src(gpr/tmp)`; the other half
    /// of `dst` is kept.
    VInsertQ { dst: UReg, src: UReg, hi: bool },
    /// Flush the cache line containing the effective address of `mem`.
    Clflush { mem: UMem },
    /// `dst ← cycle counter`.
    Rdtsc { dst: UReg },
    /// `MSR[msr] ← src` (privileged).
    Wrmsr { msr: u32, src: UReg },
    /// `dst ← MSR[msr]` (privileged).
    Rdmsr { dst: UReg, msr: u32 },
    /// Stop the core.
    Halt,
}

impl UopKind {
    /// Whether the µop reads memory.
    pub const fn is_load(&self) -> bool {
        matches!(
            self,
            UopKind::Ld { .. } | UopKind::VLd { .. } | UopKind::Pop { .. }
        )
    }

    /// Whether the µop writes memory.
    pub const fn is_store(&self) -> bool {
        matches!(
            self,
            UopKind::St { .. }
                | UopKind::VSt { .. }
                | UopKind::Push { .. }
                | UopKind::PushImm { .. }
        )
    }

    /// Whether the µop is a control transfer.
    pub const fn is_branch(&self) -> bool {
        matches!(
            self,
            UopKind::Br { .. } | UopKind::JmpImm { .. } | UopKind::JmpReg { .. }
        )
    }

    /// Whether the µop executes on the vector unit.
    pub const fn is_vector_exec(&self) -> bool {
        matches!(self, UopKind::VAlu { .. })
    }

    /// Structural coverage class of the µop kind: one stable small
    /// integer per kind family (operands like the ALU op or branch
    /// condition are deliberately folded together — coverage bins must
    /// stay coarse and fixed-shape). The class indexes
    /// `csd_telemetry::coverage::UOP_CLASS_NAMES`; a cross-crate test in
    /// `csd-difftest` pins the two tables to each other.
    pub const fn coverage_class(&self) -> u8 {
        match self {
            UopKind::Nop => 0,
            UopKind::Mov { .. } => 1,
            UopKind::MovImm { .. } => 2,
            UopKind::Alu { .. } => 3,
            UopKind::Mul { .. } => 4,
            UopKind::FAlu { .. } => 5,
            UopKind::DivQ { .. } => 6,
            UopKind::DivR { .. } => 7,
            UopKind::Ld { .. } => 8,
            UopKind::St { .. } => 9,
            UopKind::Lea { .. } => 10,
            UopKind::Br { .. } => 11,
            UopKind::JmpImm { .. } => 12,
            UopKind::JmpReg { .. } => 13,
            UopKind::PushImm { .. } => 14,
            UopKind::Push { .. } => 15,
            UopKind::Pop { .. } => 16,
            UopKind::VAlu { .. } => 17,
            UopKind::VLd { .. } => 18,
            UopKind::VSt { .. } => 19,
            UopKind::VMov { .. } => 20,
            UopKind::VExtractQ { .. } => 21,
            UopKind::VInsertQ { .. } => 22,
            UopKind::Clflush { .. } => 23,
            UopKind::Rdtsc { .. } => 24,
            UopKind::Wrmsr { .. } => 25,
            UopKind::Rdmsr { .. } => 26,
            UopKind::Halt => 27,
        }
    }
}

/// The registers a µop names (see [`Uop::regs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UopRegs {
    /// Registers read: the explicit sources, then the memory operand's
    /// base and index.
    pub reads: [Option<UReg>; 4],
    /// The register written, if any.
    pub write: Option<UReg>,
}

/// The back-end class of a µop: the port kind it issues to and the
/// latency it takes (see [`Uop::timing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortClass {
    /// A scalar ALU port at the ALU latency.
    Alu,
    /// A scalar ALU port at the multiply latency.
    Mul,
    /// A scalar ALU port, held for the divide latency (unpipelined).
    Div,
    /// A scalar ALU port at the scalar float latency.
    FAlu,
    /// A load port at the memory access's latency.
    Load,
    /// A store port for one cycle.
    Store,
    /// A store port at the flush's latency.
    Flush,
    /// A vector port at the vector latency.
    Vec,
    /// A vector port at the vector multiply/float latency.
    VecMul,
}

/// What the cycle engine's back end reads of a µop, as small scoreboard
/// indices and flags: [`Uop::regs`] and the port/latency class, decided
/// once instead of matched per dynamic instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UopTiming {
    /// [`UReg::index`] of each register in [`UopRegs::reads`], in order;
    /// [`UopTiming::NONE`] where that list has `None`.
    pub reads: [u8; 4],
    /// [`UReg::index`] of [`UopRegs::write`], or [`UopTiming::NONE`].
    pub write: u8,
    /// The port kind and latency.
    pub class: PortClass,
    /// [`Uop::writes_flags`].
    pub writes_flags: bool,
    /// A conditional branch: it waits for the flags.
    pub reads_flags: bool,
    /// A push or pop: it updates `rsp` implicitly.
    pub moves_rsp: bool,
    /// It micro-fuses with the previous µop of its flow
    /// ([`crate::fusion::can_micro_fuse`]) and so shares its issue slot.
    pub fuses_prev: bool,
}

// Scoreboard indices fit a byte, with `NONE` left over.
const _: () = assert!(UReg::COUNT < UopTiming::NONE as usize);

impl UopTiming {
    /// The index that stands for no register.
    pub const NONE: u8 = u8::MAX;

    /// The timing facts of each µop of `flow`, in order.
    pub fn of_flow(flow: &[Uop]) -> impl Iterator<Item = UopTiming> + '_ {
        flow.iter()
            .enumerate()
            .map(|(i, u)| u.timing(i.checked_sub(1).map(|p| &flow[p])))
    }
}

/// A single micro-op.
///
/// `decoy` marks micro-ops injected by stealth-mode translation; they
/// must never write an architectural register or memory (enforced by
/// [`Uop::validate`] and checked by property tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uop {
    /// Operation and operands.
    pub kind: UopKind,
    /// If set, this is a decoy micro-op injected by stealth translation,
    /// targeting the given cache path.
    pub decoy: Option<DecoyTarget>,
}

impl Uop {
    /// A non-decoy µop.
    pub const fn new(kind: UopKind) -> Uop {
        Uop { kind, decoy: None }
    }

    /// Marks the µop as a data-cache decoy.
    pub const fn decoy(mut self) -> Uop {
        self.decoy = Some(DecoyTarget::Data);
        self
    }

    /// Whether the µop is a decoy of either flavor.
    pub const fn is_decoy(&self) -> bool {
        self.decoy.is_some()
    }

    /// Whether the µop writes the flags register: ALU and multiply µops
    /// unless they are lane arithmetic, and both divide steps. Decoys
    /// never do.
    #[inline]
    pub const fn writes_flags(&self) -> bool {
        self.decoy.is_none()
            && match self.kind {
                UopKind::Alu { flags, .. } | UopKind::Mul { flags, .. } => flags,
                UopKind::DivQ { .. } | UopKind::DivR { .. } => true,
                _ => false,
            }
    }

    /// The registers the µop names, for consumers that track registers
    /// without caring what the µop computes (the cycle scoreboard).
    /// Implicit operands are left out: the `rsp` of push and pop, and the
    /// destination `VInsertQ` merges into.
    #[inline]
    pub fn regs(&self) -> UopRegs {
        use UopKind as K;
        let (write, a, b, mem) = match self.kind {
            K::Nop | K::Halt | K::Br { .. } | K::JmpImm { .. } | K::PushImm { .. } => {
                (None, None, None, None)
            }
            K::Mov { dst, src }
            | K::VMov { dst, src }
            | K::VExtractQ { dst, src, .. }
            | K::VInsertQ { dst, src, .. } => (Some(dst), Some(src), None, None),
            K::MovImm { dst, .. } | K::Pop { dst } | K::Rdtsc { dst } | K::Rdmsr { dst, .. } => {
                (Some(dst), None, None, None)
            }
            K::Alu { dst, a, b, .. } => (dst, Some(a), b.reg(), None),
            K::Mul { dst, a, b, .. } => (Some(dst), Some(a), b.reg(), None),
            K::FAlu { dst, a, b, .. }
            | K::DivQ { dst, a, b }
            | K::DivR { dst, a, b }
            | K::VAlu { dst, a, b, .. } => (Some(dst), Some(a), Some(b), None),
            K::Ld { dst, mem } | K::VLd { dst, mem } | K::Lea { dst, mem } => {
                (Some(dst), None, None, Some(mem))
            }
            K::St { src, mem } | K::VSt { src, mem } => (None, Some(src), None, Some(mem)),
            K::Clflush { mem } => (None, None, None, Some(mem)),
            K::JmpReg { src } | K::Push { src } | K::Wrmsr { src, .. } => {
                (None, Some(src), None, None)
            }
        };
        let (base, index) = match mem {
            Some(m) => (m.base, m.index.map(|(i, _)| i)),
            None => (None, None),
        };
        UopRegs {
            reads: [a, b, base, index],
            write,
        }
    }

    /// The µop's back-end timing facts; `prev` is the µop before it in
    /// its flow, if any.
    #[inline]
    pub fn timing(&self, prev: Option<&Uop>) -> UopTiming {
        use UopKind as K;
        let regs = self.regs();
        let index = |r: Option<UReg>| r.map_or(UopTiming::NONE, |r| r.index() as u8);
        let class = match self.kind {
            _ if self.kind.is_load() => PortClass::Load,
            _ if self.kind.is_store() => PortClass::Store,
            K::VAlu { op, .. } if op.is_multiply() || op.is_float() => PortClass::VecMul,
            K::VAlu { .. } => PortClass::Vec,
            K::Mul { .. } => PortClass::Mul,
            K::DivQ { .. } | K::DivR { .. } => PortClass::Div,
            K::FAlu { .. } => PortClass::FAlu,
            K::Clflush { .. } => PortClass::Flush,
            _ => PortClass::Alu,
        };
        let [a, b, base, idx] = regs.reads;
        UopTiming {
            reads: [index(a), index(b), index(base), index(idx)],
            write: index(regs.write),
            class,
            writes_flags: self.writes_flags(),
            reads_flags: matches!(self.kind, K::Br { .. }),
            moves_rsp: matches!(
                self.kind,
                K::Push { .. } | K::PushImm { .. } | K::Pop { .. }
            ),
            fuses_prev: prev.is_some_and(|p| crate::fusion::can_micro_fuse(p, self)),
        }
    }

    /// Checks the one rule the operand types cannot express: a decoy
    /// writes no architectural register and no memory.
    ///
    /// # Errors
    ///
    /// Returns a description of the violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.decoy.is_none() {
            return Ok(());
        }
        if self.regs().write.is_some_and(UReg::is_architectural) {
            return Err(format!("{self}: decoy µop writes architectural register"));
        }
        if self.kind.is_store() {
            return Err(format!("{self}: decoy µop writes memory"));
        }
        Ok(())
    }
}

/// Writes `name` and its operands as `name a, b, …`.
fn operands(f: &mut fmt::Formatter<'_>, name: &str, ops: &[&dyn fmt::Display]) -> fmt::Result {
    f.write_str(name)?;
    for (i, o) in ops.iter().enumerate() {
        write!(f, "{}{o}", if i == 0 { " " } else { ", " })?;
    }
    Ok(())
}

impl fmt::Display for Uop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use UopKind as K;
        match self.decoy {
            Some(DecoyTarget::Data) => write!(f, "decoy.")?,
            Some(DecoyTarget::Inst) => write!(f, "idecoy.")?,
            None => {}
        }
        let hex = |v: u64| format!("{v:#x}");
        match self.kind {
            K::Nop => operands(f, "unop", &[]),
            K::Mov { dst, src } | K::VMov { dst, src } => operands(f, "umov", &[&dst, &src]),
            K::MovImm { dst, imm } => operands(f, "umov", &[&dst, &Src::Imm(imm)]),
            K::Alu { op, dst, a, b, .. } => match dst {
                Some(d) => operands(f, &format!("u{op}"), &[&d, &a, &b]),
                None => operands(f, &format!("u{op}"), &[&a, &b]),
            },
            K::Mul { dst, a, b, .. } => operands(f, "umul", &[&dst, &a, &b]),
            K::FAlu {
                op,
                width,
                dst,
                a,
                b,
            } => operands(
                f,
                &format!("uf{op:?}{width:?}").to_lowercase(),
                &[&dst, &a, &b],
            ),
            K::DivQ { dst, a, b } => operands(f, "udivq", &[&dst, &a, &b]),
            K::DivR { dst, a, b } => operands(f, "udivr", &[&dst, &a, &b]),
            K::Ld { dst, mem } => operands(f, "uld", &[&dst, &mem]),
            K::St { src, mem } => operands(f, "ust", &[&mem, &src]),
            K::Lea { dst, mem } => operands(f, "ulea", &[&dst, &mem]),
            K::Br { cc, target } => operands(f, &format!("ubr_{cc}"), &[&hex(target)]),
            K::JmpImm { target } => operands(f, "ujmp", &[&hex(target)]),
            K::JmpReg { src } => operands(f, "ujmp", &[&src]),
            K::PushImm { imm } => operands(f, "upush", &[&hex(imm)]),
            K::Push { src } => operands(f, "upush", &[&src]),
            K::Pop { dst } => operands(f, "upop", &[&dst]),
            K::VAlu { op, dst, a, b } => operands(f, &format!("u{op}"), &[&dst, &a, &b]),
            K::VLd { dst, mem } => operands(f, "uvld", &[&dst, &mem]),
            K::VSt { src, mem } => operands(f, "uvst", &[&mem, &src]),
            K::VExtractQ { dst, src, hi } => operands(f, "uvextr", &[&dst, &src, &u8::from(hi)]),
            K::VInsertQ { dst, src, hi } => operands(f, "uvins", &[&dst, &src, &u8::from(hi)]),
            K::Clflush { mem } => operands(f, "uflush", &[&mem]),
            K::Rdtsc { dst } => operands(f, "urdtsc", &[&dst]),
            K::Wrmsr { msr, src } => operands(f, "uwrmsr", &[&hex(msr.into()), &src]),
            K::Rdmsr { dst, msr } => operands(f, "urdmsr", &[&dst, &hex(msr.into())]),
            K::Halt => operands(f, "uhlt", &[]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx86_isa::Gpr;

    fn ld(dst: UReg) -> Uop {
        Uop::new(UopKind::Ld {
            dst,
            mem: UMem::abs(0x1000, Width::B1),
        })
    }

    #[test]
    fn umem_effective_address_with_temps() {
        let m = UMem::base_disp(UReg::Tmp(0), 0x4000, Width::B8);
        let ea = m.effective_address(|r| match r {
            UReg::Tmp(0) => 0x40,
            _ => unreachable!(),
        });
        assert_eq!(ea, 0x4040);
    }

    #[test]
    fn decoy_with_temp_dst_is_valid() {
        assert!(ld(UReg::Tmp(1)).decoy().validate().is_ok());
    }

    #[test]
    fn decoy_with_arch_dst_is_invalid() {
        assert!(ld(UReg::Gpr(Gpr::Rax)).decoy().validate().is_err());
        assert!(ld(UReg::Gpr(Gpr::Rax)).validate().is_ok());
    }

    #[test]
    fn decoy_store_is_invalid() {
        let u = Uop::new(UopKind::St {
            src: UReg::Tmp(0),
            mem: UMem::abs(0x1000, Width::B8),
        })
        .decoy();
        assert!(u.validate().is_err());
    }

    #[test]
    fn classification() {
        assert!(ld(UReg::Tmp(0)).kind.is_load());
        assert!(UopKind::Pop { dst: UReg::Tmp(7) }.is_load());
        assert!(UopKind::PushImm { imm: 0 }.is_store());
        assert!(UopKind::Br {
            cc: Cc::Eq,
            target: 0
        }
        .is_branch());
        let x = UReg::Xmm(mx86_isa::Xmm::new(0));
        let valu = UopKind::VAlu {
            op: VecOp::PXor,
            dst: x,
            a: x,
            b: x,
        };
        assert!(valu.is_vector_exec());
        assert!(!UopKind::VLd {
            dst: x,
            mem: UMem::abs(0, Width::B16)
        }
        .is_vector_exec());
    }

    /// One flags-writer rule: ALU/MUL unless lane arithmetic, both divide
    /// steps, never a decoy.
    #[test]
    fn writes_flags_rule() {
        let t = UReg::Tmp(0);
        let alu = |flags| {
            Uop::new(UopKind::Alu {
                op: AluOp::Add,
                dst: Some(t),
                a: t,
                b: Src::Imm(1),
                flags,
            })
        };
        let mul = |flags| {
            Uop::new(UopKind::Mul {
                dst: t,
                a: t,
                b: Src::Reg(t),
                flags,
            })
        };
        assert!(alu(true).writes_flags());
        assert!(!alu(false).writes_flags());
        assert!(!alu(true).decoy().writes_flags());
        assert!(mul(true).writes_flags());
        assert!(!mul(false).writes_flags());
        assert!(Uop::new(UopKind::DivQ { dst: t, a: t, b: t }).writes_flags());
        assert!(Uop::new(UopKind::DivR { dst: t, a: t, b: t }).writes_flags());
        assert!(!ld(t).writes_flags());
    }

    /// The register view lists explicit operands only: the cycle
    /// scoreboard waits on exactly these.
    #[test]
    fn regs_leave_out_implicit_operands() {
        let (t0, t1, x) = (UReg::Tmp(0), UReg::Tmp(1), UReg::Xmm(mx86_isa::Xmm::new(3)));
        let ins = Uop::new(UopKind::VInsertQ {
            dst: x,
            src: t0,
            hi: true,
        });
        assert_eq!(ins.regs().reads, [Some(t0), None, None, None]);
        assert_eq!(ins.regs().write, Some(x));
        let pop = Uop::new(UopKind::Pop { dst: t1 });
        assert_eq!(pop.regs().reads, [None; 4]);
        let st = Uop::new(UopKind::St {
            src: t1,
            mem: UMem {
                base: Some(t0),
                index: Some((x, mx86_isa::Scale::S8)),
                disp: 0,
                width: Width::B8,
            },
        });
        assert_eq!(st.regs().reads, [Some(t1), None, Some(t0), Some(x)]);
        assert_eq!(st.regs().write, None);
    }

    /// Typed operands shrank the µop from 48 bytes; flows are stored
    /// by value, so this is the memory cost of every table entry.
    #[test]
    fn uop_is_at_most_32_bytes() {
        assert!(std::mem::size_of::<Uop>() <= 32);
    }

    #[test]
    fn display_smoke() {
        let u = Uop::new(UopKind::Ld {
            dst: UReg::Tmp(1),
            mem: UMem::base_disp(UReg::Tmp(0), 0x4000, Width::B1),
        })
        .decoy();
        assert_eq!(u.to_string(), "decoy.uld t1, [t0 + 0x4000]");
        let cmp = Uop::new(UopKind::Alu {
            op: AluOp::Sub,
            dst: None,
            a: UReg::Gpr(Gpr::Rax),
            b: Src::Imm(5),
            flags: true,
        });
        assert_eq!(cmp.to_string(), format!("u{} rax, 0x5", AluOp::Sub));
    }
}
