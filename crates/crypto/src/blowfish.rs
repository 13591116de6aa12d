//! The Blowfish victim: a 16-round Feistel cipher with key-dependent
//! S-box loads (MiBench's `blowfish` benchmark).
//!
//! Structure (P-array whitening, `F(x) = ((S0[a]+S1[b])^S2[c])+S3[d]`,
//! byte-indexed 256-entry S-boxes) is standard Blowfish; the initial P/S
//! constants are derived from a deterministic PRNG instead of the digits
//! of π (documented substitution — the side channel lives in the
//! *key-dependent S-box indices*, which are unchanged).

use crate::victim::{CipherDir, Victim};
use csd_pipeline::Core;
use csd_telemetry::SplitMix64;
use mx86_isa::{AddrRange, AluOp, Assembler, Gpr, MemRef, Program, Scale, Width};

const ROUNDS: usize = 16;

/// Reference Blowfish context.
#[derive(Debug, Clone)]
pub struct Blowfish {
    /// The 18-entry P-array after key scheduling.
    pub p: [u32; 18],
    /// The four 256-entry S-boxes after key scheduling.
    pub s: [[u32; 256]; 4],
}

impl Blowfish {
    /// Key-schedules a new context. `key` must be 4–56 bytes.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range key length.
    pub fn new(key: &[u8]) -> Blowfish {
        assert!(
            (4..=56).contains(&key.len()),
            "Blowfish keys are 4..=56 bytes"
        );
        // Initial constants from a fixed PRNG stream (π substitution).
        let mut rng = SplitMix64::new(0x243F_6A88_85A3_08D3);
        let mut p = [0u32; 18];
        let mut s = [[0u32; 256]; 4];
        for v in p.iter_mut() {
            *v = rng.next_u64() as u32;
        }
        for sb in s.iter_mut() {
            for v in sb.iter_mut() {
                *v = rng.next_u64() as u32;
            }
        }

        let mut bf = Blowfish { p, s };
        // XOR the key cyclically into P.
        let mut k = 0;
        for i in 0..18 {
            let mut w = 0u32;
            for _ in 0..4 {
                w = (w << 8) | u32::from(key[k % key.len()]);
                k += 1;
            }
            bf.p[i] ^= w;
        }
        // Replace P and S with successive encryptions of the zero block.
        let (mut l, mut r) = (0u32, 0u32);
        for i in (0..18).step_by(2) {
            (l, r) = bf.encrypt_words(l, r);
            bf.p[i] = l;
            bf.p[i + 1] = r;
        }
        for b in 0..4 {
            for j in (0..256).step_by(2) {
                (l, r) = bf.encrypt_words(l, r);
                bf.s[b][j] = l;
                bf.s[b][j + 1] = r;
            }
        }
        bf
    }

    fn f(&self, x: u32) -> u32 {
        let a = (x >> 24) as usize;
        let b = ((x >> 16) & 0xff) as usize;
        let c = ((x >> 8) & 0xff) as usize;
        let d = (x & 0xff) as usize;
        self.s[0][a]
            .wrapping_add(self.s[1][b])
            .bitxor_add(self.s[2][c], self.s[3][d])
    }

    /// Encrypts a 64-bit block given as two 32-bit words.
    pub fn encrypt_words(&self, mut l: u32, mut r: u32) -> (u32, u32) {
        for i in 0..ROUNDS {
            l ^= self.p[i];
            r ^= self.f(l);
            std::mem::swap(&mut l, &mut r);
        }
        std::mem::swap(&mut l, &mut r);
        r ^= self.p[16];
        l ^= self.p[17];
        (l, r)
    }

    /// Decrypts a 64-bit block.
    pub fn decrypt_words(&self, mut l: u32, mut r: u32) -> (u32, u32) {
        for i in (2..18).rev() {
            l ^= self.p[i];
            r ^= self.f(l);
            std::mem::swap(&mut l, &mut r);
        }
        std::mem::swap(&mut l, &mut r);
        r ^= self.p[1];
        l ^= self.p[0];
        (l, r)
    }

    /// The P-array in the order the victim program consumes it.
    fn p_in_order(&self, dir: CipherDir) -> [u32; 18] {
        match dir {
            CipherDir::Encrypt => self.p,
            CipherDir::Decrypt => {
                // Round keys reversed; final whitening uses p[1], p[0].
                let mut q = [0u32; 18];
                for (i, qi) in q.iter_mut().take(16).enumerate() {
                    *qi = self.p[17 - i];
                }
                q[16] = self.p[1];
                q[17] = self.p[0];
                q
            }
        }
    }
}

trait BitxorAdd {
    fn bitxor_add(self, x: u32, y: u32) -> u32;
}

impl BitxorAdd for u32 {
    fn bitxor_add(self, x: u32, y: u32) -> u32 {
        (self ^ x).wrapping_add(y)
    }
}

/// Data-segment layout of the Blowfish victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlowfishLayout {
    /// Base of S-box `i` (`base + i * 0x400`); 4 KiB total (64 lines).
    pub sboxes: u64,
    /// The P-array (18 words, stored in consumption order).
    pub p: u64,
    /// Input block (L, R as two 32-bit words).
    pub input: u64,
    /// Output block.
    pub output: u64,
}

/// The default layout.
pub const BLOWFISH_LAYOUT: BlowfishLayout = BlowfishLayout {
    sboxes: 0x3_0000,
    p: 0x3_1000,
    input: 0x3_1100,
    output: 0x3_1108,
};

fn generate(layout: &BlowfishLayout) -> Program {
    let mut a = Assembler::new(0x1000);
    let (l, r) = (Gpr::R8, Gpr::R9);
    a.symbol("bf_entry");
    a.load_w(l, MemRef::abs(layout.input as i64), Width::B4);
    a.load_w(r, MemRef::abs((layout.input + 4) as i64), Width::B4);

    let mask32 = 0xFFFF_FFFFi64;
    for i in 0..ROUNDS {
        // l ^= P[i]
        a.alu_load(
            AluOp::Xor,
            l,
            MemRef::abs((layout.p + 4 * i as u64) as i64),
            Width::B4,
        );
        // rbx = F(l)
        for (k, sh) in [(0usize, 24i64), (1, 16), (2, 8), (3, 0)] {
            a.mov_rr(Gpr::Rax, l);
            if sh > 0 {
                a.alu_ri(AluOp::Shr, Gpr::Rax, sh);
            }
            a.alu_ri(AluOp::And, Gpr::Rax, 0xff);
            let table = (layout.sboxes + 0x400 * k as u64) as i64;
            let mem = MemRef::index_disp(Gpr::Rax, Scale::S4, table);
            match k {
                0 => {
                    a.load_w(Gpr::Rbx, mem, Width::B4);
                }
                1 => {
                    a.alu_load(AluOp::Add, Gpr::Rbx, mem, Width::B4);
                    a.alu_ri(AluOp::And, Gpr::Rbx, mask32);
                }
                2 => {
                    a.alu_load(AluOp::Xor, Gpr::Rbx, mem, Width::B4);
                }
                _ => {
                    a.alu_load(AluOp::Add, Gpr::Rbx, mem, Width::B4);
                    a.alu_ri(AluOp::And, Gpr::Rbx, mask32);
                }
            }
        }
        // r ^= F(l); swap(l, r)
        a.alu_rr(AluOp::Xor, r, Gpr::Rbx);
        a.mov_rr(Gpr::Rdx, l);
        a.mov_rr(l, r);
        a.mov_rr(r, Gpr::Rdx);
    }
    // Undo the final swap, then whiten.
    a.mov_rr(Gpr::Rdx, l);
    a.mov_rr(l, r);
    a.mov_rr(r, Gpr::Rdx);
    a.alu_load(
        AluOp::Xor,
        r,
        MemRef::abs((layout.p + 4 * 16) as i64),
        Width::B4,
    );
    a.alu_load(
        AluOp::Xor,
        l,
        MemRef::abs((layout.p + 4 * 17) as i64),
        Width::B4,
    );
    a.store_w(MemRef::abs(layout.output as i64), l, Width::B4);
    a.store_w(MemRef::abs((layout.output + 4) as i64), r, Width::B4);
    a.halt();
    a.finish().expect("Blowfish program assembles")
}

/// A Blowfish victim in one direction.
#[derive(Debug, Clone)]
pub struct BlowfishVictim {
    bf: Blowfish,
    dir: CipherDir,
    layout: BlowfishLayout,
    program: Program,
}

impl BlowfishVictim {
    /// Builds the victim with `key` (4–56 bytes).
    pub fn new(dir: CipherDir, key: &[u8]) -> BlowfishVictim {
        BlowfishVictim {
            bf: Blowfish::new(key),
            dir,
            layout: BLOWFISH_LAYOUT,
            program: generate(&BLOWFISH_LAYOUT),
        }
    }

    /// The reference context.
    pub fn blowfish(&self) -> &Blowfish {
        &self.bf
    }
}

impl Victim for BlowfishVictim {
    fn name(&self) -> String {
        format!("blowfish-{}", self.dir.label())
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn install(&self, core: &mut Core) {
        for (i, sb) in self.bf.s.iter().enumerate() {
            for (j, &w) in sb.iter().enumerate() {
                core.mem_mut().write_le(
                    self.layout.sboxes + 0x400 * i as u64 + 4 * j as u64,
                    4,
                    u64::from(w),
                );
            }
        }
        for (i, &w) in self.bf.p_in_order(self.dir).iter().enumerate() {
            core.mem_mut()
                .write_le(self.layout.p + 4 * i as u64, 4, u64::from(w));
        }
        // P and S are key-derived secrets; tainting P suffices to taint
        // every S-box index.
        core.dift_mut()
            .taint_memory(AddrRange::with_len(self.layout.p, 18 * 4));
    }

    fn prepare(&self, core: &mut Core, input: &[u8]) {
        assert_eq!(input.len(), 8, "Blowfish blocks are 8 bytes");
        core.restart();
        let l = u32::from_be_bytes(input[0..4].try_into().unwrap());
        let r = u32::from_be_bytes(input[4..8].try_into().unwrap());
        core.mem_mut().write_le(self.layout.input, 4, u64::from(l));
        core.mem_mut()
            .write_le(self.layout.input + 4, 4, u64::from(r));
    }

    fn collect(&self, core: &Core) -> Vec<u8> {
        let lo = core.mem().read_le(self.layout.output, 4) as u32;
        let ro = core.mem().read_le(self.layout.output + 4, 4) as u32;
        let mut v = lo.to_be_bytes().to_vec();
        v.extend_from_slice(&ro.to_be_bytes());
        v
    }

    fn input_len(&self) -> usize {
        8
    }

    fn sensitive_data_ranges(&self) -> Vec<AddrRange> {
        vec![AddrRange::with_len(self.layout.sboxes, 4 * 0x400)]
    }

    fn sensitive_inst_ranges(&self) -> Vec<AddrRange> {
        Vec::new()
    }

    fn reference(&self, input: &[u8]) -> Vec<u8> {
        let l = u32::from_be_bytes(input[0..4].try_into().expect("8-byte block"));
        let r = u32::from_be_bytes(input[4..8].try_into().expect("8-byte block"));
        let (lo, ro) = match self.dir {
            CipherDir::Encrypt => self.bf.encrypt_words(l, r),
            CipherDir::Decrypt => self.bf.decrypt_words(l, r),
        };
        let mut v = lo.to_be_bytes().to_vec();
        v.extend_from_slice(&ro.to_be_bytes());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd::CsdConfig;
    use csd_pipeline::{CoreConfig, SimMode};

    #[test]
    fn reference_roundtrips() {
        let bf = Blowfish::new(b"TESTKEY!");
        for (l, r) in [(0u32, 0u32), (0xDEAD_BEEF, 0x0123_4567), (1, u32::MAX)] {
            let (cl, cr) = bf.encrypt_words(l, r);
            assert_ne!((cl, cr), (l, r));
            assert_eq!(bf.decrypt_words(cl, cr), (l, r));
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = Blowfish::new(b"KEY-AAAA");
        let b = Blowfish::new(b"KEY-BBBB");
        assert_ne!(a.encrypt_words(1, 2), b.encrypt_words(1, 2));
    }

    #[test]
    fn program_matches_reference_both_directions() {
        for dir in CipherDir::BOTH {
            let v = BlowfishVictim::new(dir, b"SECRETKEY123");
            let mut core = Core::new(
                CoreConfig::default(),
                CsdConfig::default(),
                v.program().clone(),
                SimMode::Functional,
            );
            v.install(&mut core);
            for seed in 0u8..4 {
                let input: Vec<u8> = (0..8).map(|i| seed.wrapping_mul(31) + i * 11).collect();
                assert_eq!(
                    v.run_once(&mut core, &input),
                    v.reference(&input),
                    "{} seed {seed}",
                    v.name()
                );
            }
        }
    }

    #[test]
    fn simulator_encrypt_then_decrypt_roundtrips() {
        let key = b"ROUNDTRIP-KEY";
        let enc = BlowfishVictim::new(CipherDir::Encrypt, key);
        let dec = BlowfishVictim::new(CipherDir::Decrypt, key);
        let mk = |v: &BlowfishVictim| {
            let mut c = Core::new(
                CoreConfig::default(),
                CsdConfig::default(),
                v.program().clone(),
                SimMode::Functional,
            );
            v.install(&mut c);
            c
        };
        let (mut ec, mut dc) = (mk(&enc), mk(&dec));
        let pt = [9u8, 8, 7, 6, 5, 4, 3, 2];
        let ct = enc.run_once(&mut ec, &pt);
        assert_eq!(dec.run_once(&mut dc, &ct), pt.to_vec());
    }

    #[test]
    fn sbox_range_is_64_lines() {
        let v = BlowfishVictim::new(CipherDir::Encrypt, b"ANYKEY");
        assert_eq!(v.sensitive_data_ranges()[0].blocks(64).count(), 64);
    }

    #[test]
    #[should_panic(expected = "4..=56")]
    fn short_keys_are_rejected() {
        let _ = Blowfish::new(b"ab");
    }
}
