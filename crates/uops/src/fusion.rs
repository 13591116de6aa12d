//! Micro-op and macro-op fusion.
//!
//! Fusion is central to the paper's performance story: custom translations
//! are auto-optimized with the existing fusion machinery so that, e.g., the
//! decoy `ld/sub` pair of the stealth micro-loop occupies a single fused
//! slot, and `cmp+jcc` pairs fuse at the macro level. With fusion enabled
//! the paper's µop-cache hit rate only drops from 43% to 42% under CSD.

use crate::uop::{Src, Uop, UopKind};
use mx86_isa::Inst;

/// A fused issue slot holding one or two µops.
///
/// The micro-op cache, micro-op queue, and rename stage all operate on
/// *fused* slots; the scheduler splits a slot back into its component µops
/// at issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// The first (or only) µop.
    pub first: Uop,
    /// The fused companion, if any.
    pub second: Option<Uop>,
}

impl Slot {
    /// A slot holding a single µop.
    pub const fn single(u: Uop) -> Slot {
        Slot {
            first: u,
            second: None,
        }
    }

    /// A slot holding a fused pair.
    pub const fn fused(a: Uop, b: Uop) -> Slot {
        Slot {
            first: a,
            second: Some(b),
        }
    }

    /// Number of unfused µops in the slot.
    pub const fn uop_count(&self) -> usize {
        if self.second.is_some() {
            2
        } else {
            1
        }
    }

    /// Iterates the component µops.
    pub fn uops(&self) -> impl Iterator<Item = &Uop> {
        std::iter::once(&self.first).chain(self.second.as_ref())
    }
}

/// Whether two adjacent µops of the *same* macro-op flow may micro-fuse.
///
/// Rules (mirroring Intel's):
/// - a load followed by an ALU op that consumes the loaded temporary
///   (load-op fusion);
/// - a decoy load followed by the decoy index decrement of the stealth
///   micro-loop (`ld/subi` in the paper's Figure 4c).
pub fn can_micro_fuse(a: &Uop, b: &Uop) -> bool {
    let UopKind::Ld { dst, .. } = a.kind else {
        return false;
    };
    match b.kind {
        UopKind::Alu { a: x, b: y, .. } | UopKind::Mul { a: x, b: y, .. } => {
            let consumes = x == dst || y == Src::Reg(dst);
            let decoy_pair = a.is_decoy() && b.is_decoy();
            consumes || decoy_pair
        }
        _ => false,
    }
}

/// Whether two adjacent *macro-ops* may macro-fuse (`cmp`/`test` + `jcc`).
pub fn can_macro_fuse(a: &Inst, b: &Inst) -> bool {
    matches!(a, Inst::Cmp { .. } | Inst::Test { .. }) && matches!(b, Inst::Jcc { .. })
}

/// Packs a µop flow into fused slots.
///
/// Adjacent µops satisfying [`can_micro_fuse`] share a slot; everything
/// else occupies its own slot. Order is preserved.
pub fn fuse_slots(uops: &[Uop]) -> Vec<Slot> {
    let mut slots = Vec::with_capacity(uops.len());
    let mut i = 0;
    while i < uops.len() {
        if i + 1 < uops.len() && can_micro_fuse(&uops[i], &uops[i + 1]) {
            slots.push(Slot::fused(uops[i], uops[i + 1]));
            i += 2;
        } else {
            slots.push(Slot::single(uops[i]));
            i += 1;
        }
    }
    slots
}

/// Number of fused slots a µop flow occupies (without materializing them).
pub fn fused_len(uops: &[Uop]) -> usize {
    let mut n = 0;
    let mut i = 0;
    while i < uops.len() {
        if i + 1 < uops.len() && can_micro_fuse(&uops[i], &uops[i + 1]) {
            i += 2;
        } else {
            i += 1;
        }
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::translate;
    use crate::uop::UMem;
    use crate::ureg::UReg;
    use mx86_isa::{AluOp, Cc, Gpr, MemRef, RegImm, Width};

    fn ld(dst: UReg, mem: UMem) -> Uop {
        Uop::new(UopKind::Ld { dst, mem })
    }

    /// `r ← r - imm`, writing flags.
    fn sub_imm(r: UReg, imm: i64) -> Uop {
        Uop::new(UopKind::Alu {
            op: AluOp::Sub,
            dst: Some(r),
            a: r,
            b: Src::Imm(imm),
            flags: true,
        })
    }

    #[test]
    fn load_op_pair_fuses() {
        let t = translate(
            &Inst::AluLoad {
                op: AluOp::Add,
                dst: Gpr::Rax,
                mem: MemRef::base(Gpr::Rbx),
                width: Width::B8,
            },
            0,
        );
        let slots = fuse_slots(&t.uops);
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].uop_count(), 2);
        assert_eq!(fused_len(&t.uops), 1);
    }

    #[test]
    fn independent_uops_do_not_fuse() {
        let a = ld(UReg::Tmp(0), UMem::abs(0, Width::B8));
        let b = sub_imm(UReg::Tmp(2), 1);
        assert!(!can_micro_fuse(&a, &b));
        assert_eq!(fuse_slots(&[a, b]).len(), 2);
    }

    #[test]
    fn decoy_ld_sub_pair_fuses() {
        let l = ld(
            UReg::Tmp(1),
            UMem::base_disp(UReg::Tmp(0), 0x8000, Width::B1),
        );
        let sub = sub_imm(UReg::Tmp(0), 64);
        assert!(!can_micro_fuse(&l, &sub));
        assert!(can_micro_fuse(&l.decoy(), &sub.decoy()));
    }

    #[test]
    fn stores_do_not_fuse_with_loads() {
        let l = ld(UReg::Tmp(0), UMem::abs(0, Width::B8));
        let st = Uop::new(UopKind::St {
            src: UReg::Tmp(0),
            mem: UMem::abs(8, Width::B8),
        });
        assert!(!can_micro_fuse(&l, &st));
    }

    #[test]
    fn cmp_jcc_macro_fuses() {
        let cmp = Inst::Cmp {
            a: Gpr::Rax,
            b: RegImm::Imm(0),
        };
        let jcc = Inst::Jcc {
            cc: Cc::Eq,
            target: 0x40,
        };
        let jmp = Inst::Jmp { target: 0x40 };
        assert!(can_macro_fuse(&cmp, &jcc));
        assert!(!can_macro_fuse(&cmp, &jmp));
        assert!(!can_macro_fuse(&jcc, &cmp));
    }

    #[test]
    fn fused_len_matches_fuse_slots() {
        let t = translate(
            &Inst::AluStore {
                op: AluOp::Add,
                mem: MemRef::abs(0x40),
                src: RegImm::Imm(2),
                width: Width::B8,
            },
            0,
        );
        assert_eq!(fused_len(&t.uops), fuse_slots(&t.uops).len());
    }

    #[test]
    fn slot_iteration() {
        let a = Uop::new(UopKind::Nop);
        let s = Slot::fused(a, a);
        assert_eq!(s.uops().count(), 2);
        assert_eq!(Slot::single(a).uops().count(), 1);
    }
}
