//! The RSA victim: square-and-multiply modular exponentiation.
//!
//! GnuPG's RSA (the paper's I-cache target) spends its time in
//! `square`/`multiply`/`reduce` routines; `multiply` runs **only when the
//! current exponent bit is 1**, so the I-cache lines of `multiply` leak the
//! private exponent bit-by-bit. This victim reproduces that structure with
//! 64-bit arithmetic (see `DESIGN.md` for the bignum substitution): the
//! three routines are separate, NOP-padded, line-aligned functions, and
//! the exponent-bit test is a tainted branch that triggers stealth mode
//! under DIFT.

use crate::victim::Victim;
use csd_pipeline::Core;
use mx86_isa::{AddrRange, AluOp, Assembler, Cc, Gpr, MemRef, Program};

/// Data-segment layout of the RSA victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RsaLayout {
    /// The private exponent (8 bytes, tainted).
    pub exponent: u64,
    /// The modulus (8 bytes; must be `< 2^32` so products stay exact).
    pub modulus: u64,
    /// The message/base input (8 bytes).
    pub base: u64,
    /// The result (8 bytes).
    pub result: u64,
    /// Stack top.
    pub stack: u64,
}

/// The default layout.
pub const RSA_LAYOUT: RsaLayout = RsaLayout {
    exponent: 0x4_0000,
    modulus: 0x4_0008,
    base: 0x4_0010,
    result: 0x4_0018,
    stack: 0x5_0000,
};

/// Bytes of executed NOP padding inside `square`/`multiply`, making each
/// function span several I-cache lines (GnuPG's are "fairly large
/// functions that span multiple cache blocks").
const FN_PAD: u64 = 3 * 64;

fn generate(layout: &RsaLayout) -> Program {
    let mut a = Assembler::new(0x1000);
    let square = a.fresh_label();
    let multiply = a.fresh_label();
    let reduce = a.fresh_label();
    let loop_top = a.fresh_label();
    let skip_mul = a.fresh_label();

    // r8 = exponent (tainted), r9 = modulus, r10 = base, r11 = result.
    a.symbol("rsa_entry");
    a.mov_ri(Gpr::Rsp, layout.stack as i64);
    a.load(Gpr::R8, MemRef::abs(layout.exponent as i64));
    a.load(Gpr::R9, MemRef::abs(layout.modulus as i64));
    a.load(Gpr::R10, MemRef::abs(layout.base as i64));
    a.mov_ri(Gpr::R11, 1);
    a.mov_ri(Gpr::Rcx, 63);

    a.bind(loop_top).unwrap();
    a.call(square);
    // Tainted exponent-bit test: rbx = (exp >> bit) & 1.
    a.mov_rr(Gpr::Rbx, Gpr::R8);
    a.alu_rr(AluOp::Shr, Gpr::Rbx, Gpr::Rcx);
    a.test_ri(Gpr::Rbx, 1);
    a.jcc(Cc::Eq, skip_mul);
    a.call(multiply);
    a.bind(skip_mul).unwrap();
    a.alu_ri(AluOp::Sub, Gpr::Rcx, 1);
    a.jcc(Cc::Ge, loop_top);
    a.store(MemRef::abs(layout.result as i64), Gpr::R11);
    a.halt();

    // square: result = result² mod m
    a.align(64);
    a.begin_region("square");
    a.bind(square).unwrap();
    a.mov_rr(Gpr::Rax, Gpr::R11);
    a.mul_rr(Gpr::Rax, Gpr::R11);
    a.pad_to(a.here() + FN_PAD);
    a.call(reduce);
    a.ret();
    a.end_region().unwrap();

    // multiply: result = result * base mod m  — THE leaking function.
    a.align(64);
    a.begin_region("multiply");
    a.bind(multiply).unwrap();
    a.mov_rr(Gpr::Rax, Gpr::R11);
    a.mul_rr(Gpr::Rax, Gpr::R10);
    a.pad_to(a.here() + FN_PAD);
    a.call(reduce);
    a.ret();
    a.end_region().unwrap();

    // reduce: result = rax mod m
    a.align(64);
    a.begin_region("reduce");
    a.bind(reduce).unwrap();
    a.mov_ri(Gpr::Rdx, 0);
    a.div(Gpr::R9);
    a.mov_rr(Gpr::R11, Gpr::Rdx);
    a.ret();
    a.end_region().unwrap();

    a.finish().expect("RSA program assembles")
}

/// The RSA square-and-multiply victim.
#[derive(Debug, Clone)]
pub struct RsaVictim {
    label: String,
    exponent: u64,
    modulus: u64,
    layout: RsaLayout,
    program: Program,
}

impl RsaVictim {
    /// Builds a victim with the given private `exponent` and `modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero or does not fit 32 bits (the 64-bit
    /// arithmetic substitution requires `modulus² ≤ 2^64`).
    pub fn new(exponent: u64, modulus: u64) -> RsaVictim {
        RsaVictim::named("rsa", exponent, modulus)
    }

    /// Builds a victim with an explicit benchmark label (the paper's
    /// datapoints distinguish the private-exponent "decrypt" direction
    /// from the public-exponent "encrypt" direction).
    ///
    /// # Panics
    ///
    /// As for [`RsaVictim::new`].
    pub fn named(label: impl Into<String>, exponent: u64, modulus: u64) -> RsaVictim {
        assert!(modulus > 1, "modulus must exceed one");
        assert!(modulus < (1 << 32), "modulus must fit 32 bits");
        RsaVictim {
            label: label.into(),
            exponent,
            modulus,
            layout: RSA_LAYOUT,
            program: generate(&RSA_LAYOUT),
        }
    }

    /// The code range of the `multiply` routine (the FLUSH+RELOAD target).
    pub fn multiply_range(&self) -> AddrRange {
        self.program
            .region("multiply")
            .expect("multiply region exists")
    }

    /// The code range of the `square` routine.
    pub fn square_range(&self) -> AddrRange {
        self.program.region("square").expect("square region exists")
    }

    /// The private exponent (attack ground truth).
    pub fn exponent(&self) -> u64 {
        self.exponent
    }

    /// Reference modular exponentiation.
    pub fn modexp(&self, base: u64) -> u64 {
        let m = self.modulus;
        let b = base % m;
        let mut result: u64 = 1;
        for bit in (0..64).rev() {
            result = (result * result) % m;
            if (self.exponent >> bit) & 1 == 1 {
                result = (result * b) % m;
            }
        }
        result
    }
}

impl Victim for RsaVictim {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn install(&self, core: &mut Core) {
        core.mem_mut()
            .write_le(self.layout.exponent, 8, self.exponent);
        core.mem_mut()
            .write_le(self.layout.modulus, 8, self.modulus);
        core.dift_mut()
            .taint_memory(AddrRange::with_len(self.layout.exponent, 8));
    }

    fn prepare(&self, core: &mut Core, input: &[u8]) {
        assert_eq!(input.len(), 8, "RSA base is 8 bytes");
        core.restart();
        let base = u64::from_le_bytes(input.try_into().unwrap()) % self.modulus;
        core.mem_mut().write_le(self.layout.base, 8, base);
    }

    fn collect(&self, core: &Core) -> Vec<u8> {
        core.mem()
            .read_le(self.layout.result, 8)
            .to_le_bytes()
            .to_vec()
    }

    fn input_len(&self) -> usize {
        8
    }

    fn sensitive_data_ranges(&self) -> Vec<AddrRange> {
        Vec::new()
    }

    fn sensitive_inst_ranges(&self) -> Vec<AddrRange> {
        // Obfuscate both key-dependent routines' fetch footprints.
        vec![self.multiply_range(), self.square_range()]
    }

    fn reference(&self, input: &[u8]) -> Vec<u8> {
        let base = u64::from_le_bytes(input.try_into().expect("8-byte base"));
        self.modexp(base % self.modulus).to_le_bytes().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd::CsdConfig;
    use csd_pipeline::{CoreConfig, SimMode};

    fn run(v: &RsaVictim, base: u64) -> u64 {
        let mut core = Core::new(
            CoreConfig::default(),
            CsdConfig::default(),
            v.program().clone(),
            SimMode::Functional,
        );
        v.install(&mut core);
        u64::from_le_bytes(
            v.run_once(&mut core, &base.to_le_bytes())
                .try_into()
                .unwrap(),
        )
    }

    #[test]
    fn program_matches_reference() {
        let v = RsaVictim::new(0xB7E1_5163_9A5F_F36D, 1_000_003);
        for base in [2u64, 7, 12345, 999_999] {
            assert_eq!(run(&v, base), v.modexp(base), "base {base}");
        }
    }

    /// Independent wide-arithmetic modpow for cross-checking.
    fn modpow_u128(mut b: u128, mut e: u64, m: u128) -> u64 {
        let mut r: u128 = 1;
        b %= m;
        while e > 0 {
            if e & 1 == 1 {
                r = r * b % m;
            }
            b = b * b % m;
            e >>= 1;
        }
        r as u64
    }

    #[test]
    fn reference_matches_independent_modpow() {
        let v = RsaVictim::new(13, 497);
        assert_eq!(v.modexp(5), modpow_u128(5, 13, 497));
        assert_eq!(run(&v, 5), modpow_u128(5, 13, 497));
        let v = RsaVictim::new(0xDEAD_BEEF_CAFE, 4_294_967_291);
        for base in [3u64, 65_537, 123_456_789] {
            assert_eq!(
                v.modexp(base),
                modpow_u128(u128::from(base), v.exponent(), 4_294_967_291)
            );
        }
    }

    #[test]
    fn multiply_and_square_are_distinct_multiline_regions() {
        let v = RsaVictim::new(0xABCD, 65_521);
        let m = v.multiply_range();
        let s = v.square_range();
        assert!(!m.overlaps(&s));
        assert!(m.blocks(64).count() >= 4, "multiply spans multiple lines");
        assert!(s.blocks(64).count() >= 4);
        assert_eq!(m.start % 64, 0, "line-aligned for clean F+R targeting");
    }

    #[test]
    fn multiply_lines_fetched_only_for_one_bits() {
        // exponent = 1: multiply runs exactly once (bit 0).
        let v1 = RsaVictim::new(1, 65_521);
        let mut core = Core::new(
            CoreConfig::default(),
            CsdConfig::default(),
            v1.program().clone(),
            SimMode::Functional,
        );
        v1.install(&mut core);
        // Flush I-cache lines of multiply, run, check they were fetched.
        let _ = v1.run_once(&mut core, &7u64.to_le_bytes());
        let m = v1.multiply_range();
        let fetched = m
            .blocks(64)
            .filter(|&l| core.hierarchy().l1i().contains(l))
            .count();
        assert!(fetched >= 4, "multiply fetched for exponent with a 1-bit");
    }

    #[test]
    #[should_panic(expected = "modulus must fit 32 bits")]
    fn oversized_modulus_is_rejected() {
        let _ = RsaVictim::new(3, 1 << 33);
    }
}
