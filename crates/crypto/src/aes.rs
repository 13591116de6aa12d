//! The AES victim: OpenSSL-style T-table AES hand-compiled to mx86.
//!
//! The generated program mirrors the reference cipher exactly — same
//! tables, same per-round T-table lookups — so its *data-cache access
//! pattern* carries the same key dependence the paper attacks: the index
//! of every T-table load is a byte of `state ⊕ round-key`. The four 1 KiB
//! tables span 64 cache lines (paper §IV-D).

use crate::aes_ref::{inv_sbox, td_tables, te_tables, Aes, AesKeySize, DEC_SHIFT, ENC_SHIFT, SBOX};
use crate::victim::{CipherDir, Victim};
use csd_pipeline::Core;
use mx86_isa::{AddrRange, AluOp, Assembler, Gpr, MemRef, Program, Scale, Width};

/// Data-segment layout of the AES victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AesLayout {
    /// Base of T-table `i` (`base + i * 0x400`).
    pub tables: u64,
    /// Base of the final-round S-box (256 bytes).
    pub sbox: u64,
    /// Base of the expanded round keys.
    pub round_keys: u64,
    /// Input block (four 32-bit words).
    pub input: u64,
    /// Output block.
    pub output: u64,
}

/// The default layout: tables at `0x2_0000`, exactly 64 cache lines.
pub const AES_LAYOUT: AesLayout = AesLayout {
    tables: 0x2_0000,
    sbox: 0x2_1000,
    round_keys: 0x2_2000,
    input: 0x2_2200,
    output: 0x2_2240,
};

const S: [Gpr; 4] = [Gpr::R8, Gpr::R9, Gpr::R10, Gpr::R11];
const N: [Gpr; 4] = [Gpr::R12, Gpr::R13, Gpr::R14, Gpr::R15];

/// Emits `rax ← (src >> (24 - 8*k)) & 0xff`.
fn emit_byte_extract(a: &mut Assembler, src: Gpr, k: usize) {
    a.mov_rr(Gpr::Rax, src);
    let sh = 24 - 8 * k as i64;
    if sh > 0 {
        a.alu_ri(AluOp::Shr, Gpr::Rax, sh);
    }
    a.alu_ri(AluOp::And, Gpr::Rax, 0xff);
}

fn generate(size: AesKeySize, shift: [usize; 4], layout: &AesLayout) -> Program {
    let rounds = size.rounds();
    let mut a = Assembler::new(0x1000);
    a.symbol("aes_entry");

    // Round 0: s[c] = input[c] ^ rk[c].
    for (c, &sreg) in S.iter().enumerate() {
        a.load_w(
            sreg,
            MemRef::abs((layout.input + 4 * c as u64) as i64),
            Width::B4,
        );
        a.alu_load(
            AluOp::Xor,
            sreg,
            MemRef::abs((layout.round_keys + 4 * c as u64) as i64),
            Width::B4,
        );
    }

    // Middle rounds: four T-table lookups + round key per column.
    for r in 1..rounds {
        for c in 0..4 {
            for k in 0..4 {
                let src = S[(c + shift[k]) % 4];
                emit_byte_extract(&mut a, src, k);
                let table = layout.tables + 0x400 * k as u64;
                let mem = MemRef::index_disp(Gpr::Rax, Scale::S4, table as i64);
                if k == 0 {
                    a.load_w(N[c], mem, Width::B4);
                } else {
                    a.alu_load(AluOp::Xor, N[c], mem, Width::B4);
                }
            }
            let rk = layout.round_keys + 4 * (4 * r + c) as u64;
            a.alu_load(AluOp::Xor, N[c], MemRef::abs(rk as i64), Width::B4);
        }
        for c in 0..4 {
            a.mov_rr(S[c], N[c]);
        }
    }

    // Final round: S-box bytes, shifted into place, ^ last round key.
    for c in 0..4 {
        for k in 0..4 {
            let src = S[(c + shift[k]) % 4];
            emit_byte_extract(&mut a, src, k);
            a.load_w(
                Gpr::Rbx,
                MemRef::index_disp(Gpr::Rax, Scale::S1, layout.sbox as i64),
                Width::B1,
            );
            let sh = 24 - 8 * k as i64;
            if sh > 0 {
                a.alu_ri(AluOp::Shl, Gpr::Rbx, sh);
            }
            if k == 0 {
                a.mov_rr(N[c], Gpr::Rbx);
            } else {
                a.alu_rr(AluOp::Or, N[c], Gpr::Rbx);
            }
        }
        let rk = layout.round_keys + 4 * (4 * rounds + c) as u64;
        a.alu_load(AluOp::Xor, N[c], MemRef::abs(rk as i64), Width::B4);
        a.store_w(
            MemRef::abs((layout.output + 4 * c as u64) as i64),
            N[c],
            Width::B4,
        );
    }
    a.halt();
    a.finish().expect("AES program assembles")
}

/// An AES (or Rijndael/AES-256) victim in one direction.
#[derive(Debug, Clone)]
pub struct AesVictim {
    aes: Aes,
    dir: CipherDir,
    layout: AesLayout,
    program: Program,
}

impl AesVictim {
    /// Builds the victim for `size` and `dir` with the given `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` does not match the key size.
    pub fn new(size: AesKeySize, dir: CipherDir, key: &[u8]) -> AesVictim {
        let shift = match dir {
            CipherDir::Encrypt => ENC_SHIFT,
            CipherDir::Decrypt => DEC_SHIFT,
        };
        AesVictim {
            aes: Aes::new(size, key),
            dir,
            layout: AES_LAYOUT,
            program: generate(size, shift, &AES_LAYOUT),
        }
    }

    /// The victim's data layout.
    pub fn layout(&self) -> &AesLayout {
        &self.layout
    }

    /// The reference cipher context.
    pub fn aes(&self) -> &Aes {
        &self.aes
    }

    /// Address of the cache line holding T-table `t`, line `l` (for
    /// attack-agent targeting).
    pub fn table_line(&self, t: usize, l: usize) -> u64 {
        self.layout.tables + 0x400 * t as u64 + 64 * l as u64
    }
}

impl Victim for AesVictim {
    fn name(&self) -> String {
        let alg = match self.aes.size() {
            AesKeySize::K128 => "aes",
            AesKeySize::K256 => "rijndael",
        };
        format!("{alg}-{}", self.dir.label())
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn install(&self, core: &mut Core) {
        let (tables, sbox, keys): ([[u32; 256]; 4], [u8; 256], &[u32]) = match self.dir {
            CipherDir::Encrypt => (te_tables(), SBOX, &self.aes.enc_keys),
            CipherDir::Decrypt => (td_tables(), inv_sbox(), &self.aes.dec_keys),
        };
        for (i, t) in tables.iter().enumerate() {
            for (j, &w) in t.iter().enumerate() {
                core.mem_mut().write_le(
                    self.layout.tables + 0x400 * i as u64 + 4 * j as u64,
                    4,
                    u64::from(w),
                );
            }
        }
        core.mem_mut().write_bytes(self.layout.sbox, &sbox);
        for (i, &w) in keys.iter().enumerate() {
            core.mem_mut()
                .write_le(self.layout.round_keys + 4 * i as u64, 4, u64::from(w));
        }
        // The expanded key schedule is the secret: taint it so every
        // state word (and hence every table index) becomes tainted.
        core.dift_mut().taint_memory(AddrRange::with_len(
            self.layout.round_keys,
            4 * keys.len() as u64,
        ));
    }

    fn prepare(&self, core: &mut Core, input: &[u8]) {
        assert_eq!(input.len(), 16, "AES blocks are 16 bytes");
        core.restart();
        for c in 0..4 {
            let w = u32::from_be_bytes(input[4 * c..4 * c + 4].try_into().unwrap());
            core.mem_mut()
                .write_le(self.layout.input + 4 * c as u64, 4, u64::from(w));
        }
    }

    fn collect(&self, core: &Core) -> Vec<u8> {
        let mut ct = Vec::with_capacity(16);
        for c in 0..4 {
            let w = core.mem().read_le(self.layout.output + 4 * c as u64, 4) as u32;
            ct.extend_from_slice(&w.to_be_bytes());
        }
        ct
    }

    fn input_len(&self) -> usize {
        16
    }

    fn sensitive_data_ranges(&self) -> Vec<AddrRange> {
        // All four T-tables plus the final-round S-box: 68 cache lines.
        vec![AddrRange::new(self.layout.tables, self.layout.sbox + 0x100)]
    }

    fn sensitive_inst_ranges(&self) -> Vec<AddrRange> {
        Vec::new()
    }

    fn reference(&self, input: &[u8]) -> Vec<u8> {
        let block: [u8; 16] = input.try_into().expect("16-byte block");
        match self.dir {
            CipherDir::Encrypt => self.aes.encrypt_block(&block).to_vec(),
            CipherDir::Decrypt => self.aes.decrypt_block(&block).to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd::CsdConfig;
    use csd_pipeline::{CoreConfig, SimMode};

    fn fresh_core(v: &AesVictim) -> Core {
        let mut core = Core::new(
            CoreConfig::default(),
            CsdConfig::default(),
            v.program().clone(),
            SimMode::Functional,
        );
        v.install(&mut core);
        core
    }

    #[test]
    fn program_matches_reference_both_sizes_and_directions() {
        for size in [AesKeySize::K128, AesKeySize::K256] {
            let key: Vec<u8> = (0..size.key_bytes() as u8).collect();
            for dir in CipherDir::BOTH {
                let v = AesVictim::new(size, dir, &key);
                let mut core = fresh_core(&v);
                for seed in 0u8..4 {
                    let input: Vec<u8> = (0..16)
                        .map(|i| seed.wrapping_mul(41).wrapping_add(i * 17))
                        .collect();
                    assert_eq!(
                        v.run_once(&mut core, &input),
                        v.reference(&input),
                        "{} seed {seed}",
                        v.name()
                    );
                }
            }
        }
    }

    #[test]
    fn encrypt_then_decrypt_roundtrips_on_the_simulator() {
        let key: Vec<u8> = (0..16).map(|i| i * 7 + 3).collect();
        let enc = AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &key);
        let dec = AesVictim::new(AesKeySize::K128, CipherDir::Decrypt, &key);
        let mut ecore = fresh_core(&enc);
        let mut dcore = fresh_core(&dec);
        let pt: Vec<u8> = (100..116).collect();
        let ct = enc.run_once(&mut ecore, &pt);
        assert_eq!(dec.run_once(&mut dcore, &ct), pt);
    }

    #[test]
    fn table_accesses_are_key_dependent_and_tainted() {
        let key: Vec<u8> = (0..16).collect();
        let v = AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &key);
        let mut core = fresh_core(&v);
        let _ = v.run_once(&mut core, &[0u8; 16]);
        // The victim must have touched T-table lines.
        let touched = (0..64)
            .filter(|&l| core.hierarchy().l1d().contains(AES_LAYOUT.tables + 64 * l))
            .count();
        assert!(
            touched > 16,
            "a block encryption touches many table lines: {touched}"
        );
    }

    #[test]
    fn sensitive_range_covers_all_tables() {
        let v = AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &[0; 16]);
        let r = v.sensitive_data_ranges()[0];
        assert!(r.contains(AES_LAYOUT.tables));
        assert!(r.contains(AES_LAYOUT.tables + 4 * 0x400 - 1));
        assert!(r.contains(AES_LAYOUT.sbox + 0xFF));
        assert_eq!(r.blocks(64).count(), 68);
    }

    #[test]
    fn names_follow_the_benchmark_convention() {
        assert_eq!(
            AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &[0; 16]).name(),
            "aes-enc"
        );
        assert_eq!(
            AesVictim::new(AesKeySize::K256, CipherDir::Decrypt, &[0; 32]).name(),
            "rijndael-dec"
        );
    }
}
