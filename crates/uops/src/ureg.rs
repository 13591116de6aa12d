//! The unified internal register namespace.

use mx86_isa::{Gpr, Xmm};
use std::fmt;

/// A register as seen by micro-ops.
///
/// Micro-ops address a wider namespace than the architectural ISA: besides
/// the 16 GPRs and 16 XMM registers, the decoder owns a small set of
/// *temporary* registers (scalar `t0..t7` and vector `vt0..vt3`). Values in
/// temporaries never survive past the micro-op flow of a single macro-op
/// and are invisible to software — the property that lets stealth-mode
/// decoy micro-ops leave architectural state untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UReg {
    /// An architectural general-purpose register.
    Gpr(Gpr),
    /// An architectural vector register.
    Xmm(Xmm),
    /// A decoder-internal scalar temporary (`0..8`).
    Tmp(u8),
    /// A decoder-internal vector temporary (`0..4`).
    VTmp(u8),
}

impl UReg {
    /// Number of scalar temporaries.
    pub const TMP_COUNT: usize = 8;
    /// Number of vector temporaries.
    pub const VTMP_COUNT: usize = 4;
    /// Size of the whole namespace: the range of [`UReg::index`].
    pub const COUNT: usize = Gpr::COUNT + Xmm::COUNT + UReg::TMP_COUNT + UReg::VTMP_COUNT;

    /// Dense index in `0..UReg::COUNT`, for per-register arrays: GPRs,
    /// then XMMs, then scalar and vector temporaries.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            UReg::Gpr(g) => g.index(),
            UReg::Xmm(x) => Gpr::COUNT + x.index(),
            UReg::Tmp(i) => Gpr::COUNT + Xmm::COUNT + i as usize,
            UReg::VTmp(i) => Gpr::COUNT + Xmm::COUNT + UReg::TMP_COUNT + i as usize,
        }
    }

    /// Whether the register is architecturally visible.
    pub const fn is_architectural(self) -> bool {
        matches!(self, UReg::Gpr(_) | UReg::Xmm(_))
    }

    /// Whether the register lives in the vector register file.
    pub const fn is_vector(self) -> bool {
        matches!(self, UReg::Xmm(_) | UReg::VTmp(_))
    }
}

impl From<Gpr> for UReg {
    fn from(g: Gpr) -> Self {
        UReg::Gpr(g)
    }
}

impl From<Xmm> for UReg {
    fn from(x: Xmm) -> Self {
        UReg::Xmm(x)
    }
}

impl fmt::Display for UReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UReg::Gpr(g) => write!(f, "{g}"),
            UReg::Xmm(x) => write!(f, "{x}"),
            UReg::Tmp(i) => write!(f, "t{i}"),
            UReg::VTmp(i) => write!(f, "vt{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn architectural_classification() {
        assert!(UReg::Gpr(Gpr::Rax).is_architectural());
        assert!(UReg::Xmm(Xmm::new(2)).is_architectural());
        assert!(!UReg::Tmp(0).is_architectural());
        assert!(!UReg::VTmp(1).is_architectural());
    }

    #[test]
    fn vector_classification() {
        assert!(UReg::Xmm(Xmm::new(0)).is_vector());
        assert!(UReg::VTmp(0).is_vector());
        assert!(!UReg::Gpr(Gpr::Rax).is_vector());
        assert!(!UReg::Tmp(3).is_vector());
    }

    #[test]
    fn index_is_a_bijection_onto_count() {
        let all: Vec<UReg> = Gpr::ALL
            .into_iter()
            .map(UReg::Gpr)
            .chain(Xmm::all().map(UReg::Xmm))
            .chain((0..UReg::TMP_COUNT as u8).map(UReg::Tmp))
            .chain((0..UReg::VTMP_COUNT as u8).map(UReg::VTmp))
            .collect();
        let mut idx: Vec<usize> = all.iter().map(|r| r.index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..UReg::COUNT).collect::<Vec<_>>());
    }

    #[test]
    fn display() {
        assert_eq!(UReg::Tmp(5).to_string(), "t5");
        assert_eq!(UReg::VTmp(1).to_string(), "vt1");
        assert_eq!(UReg::from(Gpr::Rdi).to_string(), "rdi");
    }
}
