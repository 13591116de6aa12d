//! Static table-driven macro-op → micro-op translation.

use crate::uop::{Src, UMem, Uop, UopKind};
use crate::ureg::UReg;
use mx86_isa::{AluOp, Inst, RegImm, Width};

/// Instructions that decompose into more than this many µops are
/// microsequenced by the microcode ROM instead of the decoders
/// (the paper: "complex instructions that decompose into more than four
/// micro-ops are microsequenced by a microcode ROM").
pub const MSROM_THRESHOLD: usize = 4;

/// Number of µops in the microsequenced divide flow.
pub const DIV_UOP_COUNT: usize = 8;

/// Which decode resource a translation requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecoderClass {
    /// One µop: any of the four decoders can translate it.
    Simple,
    /// Two to four µops: only the complex decoder (decoder 0).
    Complex,
    /// More than four µops: the microcode ROM sequencer.
    Msrom,
}

/// The result of translating one macro-op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Translation {
    /// The µop flow, in program order.
    pub uops: Vec<Uop>,
    /// Number of µops that occupy front-end storage (µop cache ways); for
    /// custom translations with micro-loops this is the *static* loop body,
    /// smaller than the dynamic `uops` stream.
    pub static_uops: usize,
    /// Whether the flow may be cached in the micro-op cache. Flows longer
    /// than six fused µops are not cacheable (µop-cache line limit).
    pub cacheable: bool,
    /// Whether the flow was produced by the microcode ROM.
    pub from_msrom: bool,
}

impl Translation {
    /// Builds a plain translation where all µops are static and cacheable.
    pub fn plain(uops: Vec<Uop>) -> Translation {
        let n = uops.len();
        Translation {
            uops,
            static_uops: n,
            cacheable: true,
            from_msrom: n > MSROM_THRESHOLD,
        }
    }

    /// The decode resource required.
    pub fn decoder_class(&self) -> DecoderClass {
        if self.from_msrom || self.static_uops > MSROM_THRESHOLD {
            DecoderClass::Msrom
        } else if self.static_uops > 1 {
            DecoderClass::Complex
        } else {
            DecoderClass::Simple
        }
    }
}

fn src(ri: RegImm) -> Src {
    match ri {
        RegImm::Reg(r) => Src::Reg(r.into()),
        RegImm::Imm(i) => Src::Imm(i),
    }
}

/// Translates a macro-op into its *native* µop flow.
///
/// `next_pc` is the address of the following instruction (needed for
/// `call`'s pushed return address). This is the static translation the
/// paper's legacy decode pipeline performs; context-sensitive decoding
/// replaces or augments this flow for instructions it intercepts.
pub fn translate(inst: &Inst, next_pc: u64) -> Translation {
    use UopKind as K;
    let t0 = UReg::Tmp(0);
    let t7 = UReg::Tmp(7);
    let vt0 = UReg::VTmp(0);
    // One µop per listed kind, none of them decoys.
    macro_rules! flow {
        ($($k:expr),* $(,)?) => { vec![$(Uop::new($k)),*] };
    }
    let alu = |op, dst, a, b| K::Alu {
        op,
        dst,
        a,
        b,
        flags: true,
    };

    let uops = match *inst {
        Inst::Nop { .. } => flow![K::Nop],
        Inst::MovRR { dst, src } => flow![K::Mov {
            dst: dst.into(),
            src: src.into(),
        }],
        Inst::MovRI { dst, imm } => flow![K::MovImm {
            dst: dst.into(),
            imm,
        }],
        Inst::Load { dst, mem, width } => flow![K::Ld {
            dst: dst.into(),
            mem: UMem::from_mem(mem, width),
        }],
        Inst::Store { mem, src, width } => flow![K::St {
            src: src.into(),
            mem: UMem::from_mem(mem, width),
        }],
        Inst::Lea { dst, mem } => flow![K::Lea {
            dst: dst.into(),
            mem: UMem::from_mem(mem, Width::B8),
        }],
        Inst::Alu { op, dst, src: b } => flow![alu(op, Some(dst.into()), dst.into(), src(b))],
        Inst::AluLoad {
            op,
            dst,
            mem,
            width,
        } => flow![
            K::Ld {
                dst: t0,
                mem: UMem::from_mem(mem, width),
            },
            alu(op, Some(dst.into()), dst.into(), Src::Reg(t0)),
        ],
        Inst::AluStore {
            op,
            mem,
            src: b,
            width,
        } => {
            let mem = UMem::from_mem(mem, width);
            flow![
                K::Ld { dst: t0, mem },
                alu(op, Some(t0), t0, src(b)),
                K::St { src: t0, mem },
            ]
        }
        Inst::Mul { dst, src: b } => flow![K::Mul {
            dst: dst.into(),
            a: dst.into(),
            b: src(b),
            flags: true,
        }],
        Inst::Div { src } => return translate_div(src),
        Inst::Cmp { a, b } => flow![alu(AluOp::Sub, None, a.into(), src(b))],
        Inst::Test { a, b } => flow![alu(AluOp::And, None, a.into(), src(b))],
        Inst::Jmp { target } => flow![K::JmpImm { target }],
        Inst::Jcc { cc, target } => flow![K::Br { cc, target }],
        Inst::JmpInd { reg } => flow![K::JmpReg { src: reg.into() }],
        Inst::Call { target } => flow![K::PushImm { imm: next_pc }, K::JmpImm { target }],
        Inst::Ret => flow![K::Pop { dst: t7 }, K::JmpReg { src: t7 }],
        Inst::Push { src } => flow![K::Push { src: src.into() }],
        Inst::Pop { dst } => flow![K::Pop { dst: dst.into() }],
        Inst::VLoad { dst, mem } => flow![K::VLd {
            dst: dst.into(),
            mem: UMem::from_mem(mem, Width::B16),
        }],
        Inst::VStore { mem, src } => flow![K::VSt {
            src: src.into(),
            mem: UMem::from_mem(mem, Width::B16),
        }],
        Inst::VMovRR { dst, src } => flow![K::VMov {
            dst: dst.into(),
            src: src.into(),
        }],
        Inst::VAlu { op, dst, src } => flow![K::VAlu {
            op,
            dst: dst.into(),
            a: dst.into(),
            b: src.into(),
        }],
        Inst::VAluLoad { op, dst, mem } => flow![
            K::VLd {
                dst: vt0,
                mem: UMem::from_mem(mem, Width::B16),
            },
            K::VAlu {
                op,
                dst: dst.into(),
                a: dst.into(),
                b: vt0,
            },
        ],
        Inst::VMovToGpr { dst, src } => flow![K::VExtractQ {
            dst: dst.into(),
            src: src.into(),
            hi: false,
        }],
        Inst::VMovFromGpr { dst, src } => flow![K::VInsertQ {
            dst: dst.into(),
            src: src.into(),
            hi: false,
        }],
        Inst::Clflush { mem } => flow![K::Clflush {
            mem: UMem::from_mem(mem, Width::B1),
        }],
        Inst::Rdtsc => flow![K::Rdtsc {
            dst: UReg::Gpr(mx86_isa::Gpr::Rax),
        }],
        Inst::Wrmsr { msr, src } => flow![K::Wrmsr {
            msr,
            src: src.into(),
        }],
        Inst::Rdmsr { dst, msr } => flow![K::Rdmsr {
            dst: dst.into(),
            msr,
        }],
        Inst::Halt => flow![K::Halt],
    };
    Translation::plain(uops)
}

/// The microsequenced divide flow: RAX ← RDX:RAX / src, RDX ← remainder.
///
/// Modeled as an 8-µop MSROM flow (operand staging, quotient, remainder,
/// sequencer slots), matching the order of magnitude of real x86 divides.
fn translate_div(src: mx86_isa::Gpr) -> Translation {
    use UopKind as K;
    let rax = UReg::Gpr(mx86_isa::Gpr::Rax);
    let rdx = UReg::Gpr(mx86_isa::Gpr::Rdx);
    let (t0, t1, b) = (UReg::Tmp(0), UReg::Tmp(1), src.into());
    let mut uops = vec![
        Uop::new(K::Mov { dst: t0, src: rax }),
        Uop::new(K::Mov { dst: t1, src: rdx }),
        Uop::new(K::DivQ { dst: rax, a: t0, b }),
        Uop::new(K::DivR { dst: rdx, a: t0, b }),
    ];
    // Sequencer slots: the MSROM streams in fixed-width groups; pad to the
    // modeled flow length.
    uops.resize(DIV_UOP_COUNT, Uop::new(K::Nop));
    let mut t = Translation::plain(uops);
    t.from_msrom = true;
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx86_isa::{Cc, Gpr, MemRef, VecOp, Xmm};

    fn uop_count(i: Inst) -> usize {
        translate(&i, 0x100).uops.len()
    }

    #[test]
    fn simple_ops_are_one_uop() {
        assert_eq!(
            uop_count(Inst::MovRR {
                dst: Gpr::Rax,
                src: Gpr::Rbx
            }),
            1
        );
        assert_eq!(
            uop_count(Inst::MovRI {
                dst: Gpr::Rax,
                imm: 7
            }),
            1
        );
        assert_eq!(
            uop_count(Inst::Load {
                dst: Gpr::Rax,
                mem: MemRef::abs(0),
                width: Width::B8
            }),
            1
        );
        assert_eq!(
            uop_count(Inst::Jcc {
                cc: Cc::Eq,
                target: 0
            }),
            1
        );
        assert_eq!(
            uop_count(Inst::VAlu {
                op: VecOp::PAddB,
                dst: Xmm::new(0),
                src: Xmm::new(1)
            }),
            1
        );
    }

    #[test]
    fn load_op_is_two_uops_complex() {
        let t = translate(
            &Inst::AluLoad {
                op: AluOp::Xor,
                dst: Gpr::Rax,
                mem: MemRef::base(Gpr::Rbx),
                width: Width::B4,
            },
            0x100,
        );
        assert_eq!(t.uops.len(), 2);
        assert_eq!(t.decoder_class(), DecoderClass::Complex);
        assert!(t.uops[0].kind.is_load());
        assert_eq!(t.uops[0].regs().write, Some(UReg::Tmp(0)));
    }

    #[test]
    fn rmw_is_three_uops() {
        let t = translate(
            &Inst::AluStore {
                op: AluOp::Add,
                mem: MemRef::abs(0x100),
                src: RegImm::Imm(1),
                width: Width::B8,
            },
            0x100,
        );
        assert_eq!(t.uops.len(), 3);
        assert_eq!(t.decoder_class(), DecoderClass::Complex);
    }

    #[test]
    fn div_is_microsequenced() {
        let t = translate(&Inst::Div { src: Gpr::Rbx }, 0x100);
        assert_eq!(t.uops.len(), DIV_UOP_COUNT);
        assert!(t.from_msrom);
        assert_eq!(t.decoder_class(), DecoderClass::Msrom);
    }

    #[test]
    fn call_pushes_return_address() {
        let t = translate(&Inst::Call { target: 0x4000 }, 0x1005);
        assert_eq!(t.uops.len(), 2);
        assert_eq!(t.uops[0].kind, UopKind::PushImm { imm: 0x1005 });
        assert_eq!(t.uops[1].kind, UopKind::JmpImm { target: 0x4000 });
    }

    #[test]
    fn ret_pops_through_temp() {
        let t = translate(&Inst::Ret, 0x1001);
        assert_eq!(t.uops.len(), 2);
        assert_eq!(t.uops[0].kind, UopKind::Pop { dst: UReg::Tmp(7) });
        assert_eq!(t.uops[1].kind, UopKind::JmpReg { src: UReg::Tmp(7) });
    }

    #[test]
    fn cmp_has_no_destination() {
        let t = translate(
            &Inst::Cmp {
                a: Gpr::Rax,
                b: RegImm::Imm(5),
            },
            0,
        );
        assert_eq!(t.uops.len(), 1);
        assert_eq!(t.uops[0].regs().write, None);
        assert!(t.uops[0].writes_flags());
    }

    #[test]
    fn all_native_translations_validate() {
        let insts = [
            Inst::Nop { len: 3 },
            Inst::MovRR {
                dst: Gpr::Rax,
                src: Gpr::Rbx,
            },
            Inst::Load {
                dst: Gpr::Rax,
                mem: MemRef::abs(8),
                width: Width::B8,
            },
            Inst::Store {
                mem: MemRef::abs(8),
                src: Gpr::Rax,
                width: Width::B8,
            },
            Inst::AluStore {
                op: AluOp::Or,
                mem: MemRef::abs(8),
                src: RegImm::Reg(Gpr::Rcx),
                width: Width::B8,
            },
            Inst::Div { src: Gpr::Rcx },
            Inst::Call { target: 64 },
            Inst::Ret,
            Inst::VAluLoad {
                op: VecOp::MulPs,
                dst: Xmm::new(2),
                mem: MemRef::abs(64),
            },
            Inst::Clflush {
                mem: MemRef::abs(0x40),
            },
            Inst::Wrmsr {
                msr: 0x10,
                src: Gpr::Rax,
            },
        ];
        for i in insts {
            for u in translate(&i, 0x10).uops {
                u.validate().unwrap_or_else(|e| panic!("{i}: {e}"));
            }
        }
    }

    #[test]
    fn native_translations_never_produce_decoys() {
        let i = Inst::Load {
            dst: Gpr::Rax,
            mem: MemRef::abs(8),
            width: Width::B8,
        };
        assert!(translate(&i, 0).uops.iter().all(|u| !u.is_decoy()));
    }
}
