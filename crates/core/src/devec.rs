//! Selective devectorization: scalarizing vector macro-ops (paper §V).
//!
//! When the VPU is power-gated (or still waking), the context-sensitive
//! decoder translates packed vector instructions into equivalent *scalar*
//! µop flows so execution continues on the scalar units. Packed integer
//! adds/subtracts use mask-based SWAR arithmetic over the two 64-bit
//! halves of the 128-bit lane (the paper's Figure 6b optimization: "by
//! employing suitable masks, the computation itself can be optimized in a
//! way that allows us to just perform four adds and accumulate the
//! results"); multiplies and float ops are unrolled lane-wise.
//!
//! Every flow is semantically exact — verified against the VPU's packed
//! semantics by the pipeline's cross-engine tests and by property tests in
//! this crate's test suite.

use csd_uops::{fusion, FOp, FWidth, Translation, UReg, Uop, UopKind};
use mx86_isa::{AluOp, Inst, VecOp, Xmm};

/// High-bit lane mask for a given element width (SWAR carry isolation).
const fn high_mask(elem_bytes: u32) -> u64 {
    match elem_bytes {
        1 => 0x8080_8080_8080_8080,
        2 => 0x8000_8000_8000_8000,
        4 => 0x8000_0000_8000_0000,
        _ => 0x8000_0000_0000_0000,
    }
}

/// Full lane mask for a given element width.
const fn lane_mask(elem_bytes: u32) -> u64 {
    match elem_bytes {
        1 => 0xFF,
        2 => 0xFFFF,
        4 => 0xFFFF_FFFF,
        _ => u64::MAX,
    }
}

// All lane arithmetic suppresses flag writes: the vector macro-ops being
// emulated never touch flags, so the scalar stand-in flow must not
// either (a `cmp; paddb; jcc` sequence must branch identically with the
// VPU gated or powered).
fn alu(op: AluOp, dst: UReg, a: UReg, b: UReg) -> Uop {
    Uop::new(UopKind::Alu(op))
        .dst(dst)
        .src1(a)
        .src2(b)
        .suppress_flags()
}

fn alui(op: AluOp, dst: UReg, a: UReg, imm: u64) -> Uop {
    Uop::new(UopKind::Alu(op))
        .dst(dst)
        .src1(a)
        .imm(imm as i64)
        .suppress_flags()
}

/// Statistics for the devectorizer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DevecStats {
    /// Vector macro-ops scalarized.
    pub devectorized_insts: u64,
    /// Extra µops relative to the native (vector) translation.
    pub extra_uops: u64,
}

impl csd_telemetry::ToJson for DevecStats {
    fn to_json(&self) -> csd_telemetry::Json {
        csd_telemetry::Json::obj([
            (
                "devectorized_insts",
                csd_telemetry::Json::from(self.devectorized_insts),
            ),
            ("extra_uops", csd_telemetry::Json::from(self.extra_uops)),
        ])
    }
}

/// The devectorizing custom decoder.
///
/// Stateless except for statistics; the decision *when* to devectorize
/// belongs to the [`crate::VpuGateController`].
#[derive(Debug, Clone, Default)]
pub struct Devectorizer {
    stats: DevecStats,
}

impl Devectorizer {
    /// A fresh devectorizer.
    pub fn new() -> Devectorizer {
        Devectorizer::default()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DevecStats {
        &self.stats
    }

    /// Accounts one devectorized macro-op whose scalar flow has
    /// `scalar_uops` µops replacing a `native_uops`-µop native translation.
    /// Split out from [`Devectorizer::devectorize`] so a table-served decode
    /// can replay the accounting without rebuilding the flow.
    pub(crate) fn record(&mut self, scalar_uops: usize, native_uops: usize) {
        self.stats.devectorized_insts += 1;
        self.stats.extra_uops += scalar_uops.saturating_sub(native_uops) as u64;
    }

    /// The criticality weight of a vector macro-op: one for simple
    /// instructions, more for those with a higher scalarized µop count
    /// (paper Figure 5).
    pub fn weight(inst: &Inst) -> u32 {
        match inst {
            Inst::VAlu { op, .. } | Inst::VAluLoad { op, .. } => {
                1 + (Self::scalar_uop_estimate(*op) / 16)
            }
            _ if inst.is_vector() => 1,
            _ => 0,
        }
    }

    fn scalar_uop_estimate(op: VecOp) -> u32 {
        match op {
            VecOp::PAnd | VecOp::POr | VecOp::PXor | VecOp::PAddQ => 8,
            VecOp::PAddB | VecOp::PAddW | VecOp::PAddD => 18,
            VecOp::PSubB | VecOp::PSubD => 20,
            VecOp::AddPd | VecOp::MulPd => 8,
            VecOp::AddPs | VecOp::MulPs | VecOp::SubPs => 40,
            VecOp::PMullD => 42,
            VecOp::PMullW => 72,
        }
    }

    /// Scalarizes a vector macro-op, or returns `None` for instructions
    /// that need no devectorization (loads/stores/GPR moves execute on the
    /// LSU and scalar ports regardless of VPU power state).
    pub fn devectorize(&mut self, inst: &Inst, native: &Translation) -> Option<Translation> {
        let uops = match *inst {
            Inst::VAlu { op, dst, src } => self.valu_flow(op, dst, VSrc::Xmm(src), None),
            Inst::VAluLoad { op, dst, mem } => {
                let vt0 = UReg::VTmp(0);
                let ld = Uop::new(UopKind::VLd)
                    .dst(vt0)
                    .mem(csd_uops::UMem::from_mem(mem, mx86_isa::Width::B16));
                self.valu_flow(op, dst, VSrc::VTmp(0), Some(ld))
            }
            Inst::VMovRR { dst, src } => {
                let mut v = Vec::with_capacity(4);
                extract_pair(&mut v, UReg::Xmm(src), UReg::Tmp(0), UReg::Tmp(1));
                insert_pair(&mut v, dst, UReg::Tmp(0), UReg::Tmp(1));
                v
            }
            _ => return None,
        };
        debug_assert!(uops.iter().all(|u| u.validate().is_ok()));

        self.record(uops.len(), native.uops.len());
        let n = uops.len();
        Some(Translation {
            static_uops: n,
            cacheable: fusion::fused_len(&uops) <= 6,
            from_msrom: n > csd_uops::MSROM_THRESHOLD,
            uops,
        })
    }

    fn valu_flow(&self, op: VecOp, dst: Xmm, src: VSrc, prefix: Option<Uop>) -> Vec<Uop> {
        let (x0, x1) = (UReg::Tmp(0), UReg::Tmp(1));
        let (y0, y1) = (UReg::Tmp(2), UReg::Tmp(3));
        let mut v = Vec::with_capacity(24);
        if let Some(p) = prefix {
            v.push(p);
        }
        extract_pair(&mut v, UReg::Xmm(dst), x0, x1);
        let src_reg = match src {
            VSrc::Xmm(x) => UReg::Xmm(x),
            VSrc::VTmp(i) => UReg::VTmp(i),
        };
        extract_pair(&mut v, src_reg, y0, y1);

        for (x, y) in [(x0, y0), (x1, y1)] {
            emit_half(&mut v, op, x, y);
        }
        insert_pair(&mut v, dst, x0, x1);
        v
    }
}

enum VSrc {
    Xmm(Xmm),
    VTmp(u8),
}

fn extract_pair(v: &mut Vec<Uop>, src: UReg, lo: UReg, hi: UReg) {
    v.push(Uop::new(UopKind::VExtractQ).dst(lo).src1(src).imm(0));
    v.push(Uop::new(UopKind::VExtractQ).dst(hi).src1(src).imm(1));
}

fn insert_pair(v: &mut Vec<Uop>, dst: Xmm, lo: UReg, hi: UReg) {
    v.push(
        Uop::new(UopKind::VInsertQ)
            .dst(UReg::Xmm(dst))
            .src1(lo)
            .imm(0),
    );
    v.push(
        Uop::new(UopKind::VInsertQ)
            .dst(UReg::Xmm(dst))
            .src1(hi)
            .imm(1),
    );
}

/// Emits the scalar computation `x ← x op y` for one 64-bit half.
fn emit_half(v: &mut Vec<Uop>, op: VecOp, x: UReg, y: UReg) {
    let (t4, t5, t6) = (UReg::Tmp(4), UReg::Tmp(5), UReg::Tmp(6));
    let w = op.element_bytes();
    match op {
        VecOp::PAnd => v.push(alu(AluOp::And, x, x, y)),
        VecOp::POr => v.push(alu(AluOp::Or, x, x, y)),
        VecOp::PXor => v.push(alu(AluOp::Xor, x, x, y)),
        VecOp::PAddQ => v.push(alu(AluOp::Add, x, x, y)),
        VecOp::PAddB | VecOp::PAddW | VecOp::PAddD => {
            // SWAR add: r = ((x & ~H) + (y & ~H)) ^ ((x ^ y) & H)
            let h = high_mask(w);
            v.push(alui(AluOp::And, t4, x, !h));
            v.push(alui(AluOp::And, t5, y, !h));
            v.push(alu(AluOp::Add, t4, t4, t5));
            v.push(alu(AluOp::Xor, t5, x, y));
            v.push(alui(AluOp::And, t5, t5, h));
            v.push(alu(AluOp::Xor, x, t4, t5));
        }
        VecOp::PSubB | VecOp::PSubD => {
            // SWAR sub: r = ((x | H) - (y & ~H)) ^ ((x ^ ~y) & H)
            let h = high_mask(w);
            v.push(alui(AluOp::Or, t4, x, h));
            v.push(alui(AluOp::And, t5, y, !h));
            v.push(alu(AluOp::Sub, t4, t4, t5));
            v.push(alu(AluOp::Xor, t5, x, y));
            v.push(alui(AluOp::Xor, t5, t5, u64::MAX));
            v.push(alui(AluOp::And, t5, t5, h));
            v.push(alu(AluOp::Xor, x, t4, t5));
        }
        VecOp::PMullW | VecOp::PMullD => {
            emit_lanewise(v, x, y, t4, t5, t6, w, |vv, a, b| {
                vv.push(
                    Uop::new(UopKind::Mul)
                        .dst(a)
                        .src1(a)
                        .src2(b)
                        .suppress_flags(),
                );
            });
        }
        VecOp::AddPs | VecOp::SubPs | VecOp::MulPs => {
            let f = match op {
                VecOp::AddPs => FOp::Add,
                VecOp::SubPs => FOp::Sub,
                _ => FOp::Mul,
            };
            emit_lanewise(v, x, y, t4, t5, t6, 4, |vv, a, b| {
                vv.push(Uop::new(UopKind::FAlu(f, FWidth::S)).dst(a).src1(a).src2(b));
            });
        }
        VecOp::AddPd | VecOp::MulPd => {
            let f = if op == VecOp::AddPd {
                FOp::Add
            } else {
                FOp::Mul
            };
            v.push(Uop::new(UopKind::FAlu(f, FWidth::D)).dst(x).src1(x).src2(y));
        }
    }
}

/// Unrolled lane-wise computation over one 64-bit half: extract each lane
/// of `x` and `y` by shift+mask, apply `op_emit`, reassemble into `x`.
#[allow(clippy::too_many_arguments)] // scratch registers are individual by design
fn emit_lanewise(
    v: &mut Vec<Uop>,
    x: UReg,
    y: UReg,
    t4: UReg,
    t5: UReg,
    acc: UReg,
    elem_bytes: u32,
    op_emit: impl Fn(&mut Vec<Uop>, UReg, UReg),
) {
    let lanes = 8 / elem_bytes;
    let mask = lane_mask(elem_bytes);
    v.push(Uop::new(UopKind::MovImm).dst(acc).imm(0));
    for lane in 0..lanes {
        let sh = (lane * elem_bytes * 8) as u64;
        v.push(alui(AluOp::Shr, t4, x, sh));
        v.push(alui(AluOp::And, t4, t4, mask));
        v.push(alui(AluOp::Shr, t5, y, sh));
        v.push(alui(AluOp::And, t5, t5, mask));
        op_emit(v, t4, t5);
        v.push(alui(AluOp::And, t4, t4, mask));
        v.push(alui(AluOp::Shl, t4, t4, sh));
        v.push(alu(AluOp::Or, acc, acc, t4));
    }
    v.push(Uop::new(UopKind::Mov).dst(x).src1(acc));
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd_uops::translate;
    use mx86_isa::Inst;

    fn devec(op: VecOp) -> Translation {
        let inst = Inst::VAlu {
            op,
            dst: Xmm::new(0),
            src: Xmm::new(1),
        };
        let native = translate(&inst, 0);
        Devectorizer::new().devectorize(&inst, &native).unwrap()
    }

    /// Interprets the scalar flow on u64 temp/xmm-half state — a tiny
    /// reference executor for exactly the µop subset devectorization emits.
    fn run_flow(uops: &[Uop], dst: (u64, u64), src: (u64, u64)) -> (u64, u64) {
        let mut tmps = [0u64; 8];
        let mut xmm0 = dst;
        let xmm1 = src;
        let read = |tmps: &[u64; 8], r: UReg| -> u64 {
            match r {
                UReg::Tmp(i) => tmps[i as usize],
                other => panic!("unexpected register {other}"),
            }
        };
        for u in uops {
            match u.kind {
                UopKind::VExtractQ => {
                    let half = u.imm.unwrap();
                    let v = match u.src1.unwrap() {
                        UReg::Xmm(x) if x.index() == 0 => {
                            if half == 0 {
                                xmm0.0
                            } else {
                                xmm0.1
                            }
                        }
                        UReg::Xmm(x) if x.index() == 1 => {
                            if half == 0 {
                                xmm1.0
                            } else {
                                xmm1.1
                            }
                        }
                        other => panic!("unexpected src {other}"),
                    };
                    if let UReg::Tmp(i) = u.dst.unwrap() {
                        tmps[i as usize] = v;
                    }
                }
                UopKind::VInsertQ => {
                    let v = read(&tmps, u.src1.unwrap());
                    if u.imm.unwrap() == 0 {
                        xmm0.0 = v;
                    } else {
                        xmm0.1 = v;
                    }
                }
                UopKind::MovImm => {
                    if let UReg::Tmp(i) = u.dst.unwrap() {
                        tmps[i as usize] = u.imm.unwrap() as u64;
                    }
                }
                UopKind::Mov => {
                    let v = read(&tmps, u.src1.unwrap());
                    if let UReg::Tmp(i) = u.dst.unwrap() {
                        tmps[i as usize] = v;
                    }
                }
                UopKind::Alu(op) => {
                    let a = read(&tmps, u.src1.unwrap());
                    let b = match u.src2 {
                        Some(r) => read(&tmps, r),
                        None => u.imm.unwrap() as u64,
                    };
                    let r = match op {
                        AluOp::Add => a.wrapping_add(b),
                        AluOp::Sub => a.wrapping_sub(b),
                        AluOp::And => a & b,
                        AluOp::Or => a | b,
                        AluOp::Xor => a ^ b,
                        AluOp::Shl => a.wrapping_shl(b as u32),
                        AluOp::Shr => a.wrapping_shr(b as u32),
                        AluOp::Sar => (a as i64).wrapping_shr(b as u32) as u64,
                    };
                    if let Some(UReg::Tmp(i)) = u.dst {
                        tmps[i as usize] = r;
                    }
                }
                UopKind::Mul => {
                    let a = read(&tmps, u.src1.unwrap());
                    let b = read(&tmps, u.src2.unwrap());
                    if let UReg::Tmp(i) = u.dst.unwrap() {
                        tmps[i as usize] = a.wrapping_mul(b);
                    }
                }
                UopKind::FAlu(op, w) => {
                    let a = read(&tmps, u.src1.unwrap());
                    let b = read(&tmps, u.src2.unwrap());
                    let r = match w {
                        FWidth::S => {
                            let (fa, fb) = (f32::from_bits(a as u32), f32::from_bits(b as u32));
                            let fr = match op {
                                FOp::Add => fa + fb,
                                FOp::Sub => fa - fb,
                                FOp::Mul => fa * fb,
                            };
                            u64::from(fr.to_bits())
                        }
                        FWidth::D => {
                            let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
                            let fr = match op {
                                FOp::Add => fa + fb,
                                FOp::Sub => fa - fb,
                                FOp::Mul => fa * fb,
                            };
                            fr.to_bits()
                        }
                    };
                    if let UReg::Tmp(i) = u.dst.unwrap() {
                        tmps[i as usize] = r;
                    }
                }
                other => panic!("unexpected µop kind {other:?}"),
            }
        }
        xmm0
    }

    /// Lane-wise reference for packed integer ops.
    fn ref_lanes(op: VecOp, x: u64, y: u64) -> u64 {
        let w = op.element_bytes() as u64;
        let lanes = 8 / w;
        let mask = lane_mask(op.element_bytes());
        let mut r = 0u64;
        for l in 0..lanes {
            let sh = l * w * 8;
            let a = (x >> sh) & mask;
            let b = (y >> sh) & mask;
            let v = match op {
                VecOp::PAddB | VecOp::PAddW | VecOp::PAddD | VecOp::PAddQ => {
                    a.wrapping_add(b) & mask
                }
                VecOp::PSubB | VecOp::PSubD => a.wrapping_sub(b) & mask,
                VecOp::PMullW | VecOp::PMullD => a.wrapping_mul(b) & mask,
                VecOp::PAnd => a & b,
                VecOp::POr => a | b,
                VecOp::PXor => a ^ b,
                _ => unreachable!(),
            };
            r |= v << sh;
        }
        r
    }

    fn check_int_op(op: VecOp, x: (u64, u64), y: (u64, u64)) {
        let t = devec(op);
        let got = run_flow(&t.uops, x, y);
        let want = (ref_lanes(op, x.0, y.0), ref_lanes(op, x.1, y.1));
        assert_eq!(got, want, "{op} on {x:x?} {y:x?}");
    }

    #[test]
    fn packed_int_ops_match_lanewise_reference() {
        let samples = [
            (0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210),
            (0xFFFF_FFFF_FFFF_FFFF, 0x0101_0101_0101_0101),
            (0x0000_0000_0000_0000, 0x8080_8080_8080_8080),
            (0x7F7F_7F7F_7F7F_7F7F, 0x0202_0202_0202_0202),
        ];
        let ops = [
            VecOp::PAddB,
            VecOp::PAddW,
            VecOp::PAddD,
            VecOp::PAddQ,
            VecOp::PSubB,
            VecOp::PSubD,
            VecOp::PMullW,
            VecOp::PMullD,
            VecOp::PAnd,
            VecOp::POr,
            VecOp::PXor,
        ];
        for op in ops {
            for &(a, b) in &samples {
                check_int_op(op, (a, b), (b, a));
            }
        }
    }

    #[test]
    fn float_ops_match_scalar_reference() {
        let xs = [1.5f32, -2.25, 0.0, 1024.5];
        let ys = [0.5f32, 3.75, -1.0, 2.0];
        let pack = |v: &[f32]| -> (u64, u64) {
            let b: Vec<u64> = v.iter().map(|f| u64::from(f.to_bits())).collect();
            (b[0] | (b[1] << 32), b[2] | (b[3] << 32))
        };
        for (op, f) in [
            (
                VecOp::AddPs,
                (|a: f32, b: f32| a + b) as fn(f32, f32) -> f32,
            ),
            (VecOp::SubPs, |a, b| a - b),
            (VecOp::MulPs, |a, b| a * b),
        ] {
            let t = devec(op);
            let got = run_flow(&t.uops, pack(&xs), pack(&ys));
            let want: Vec<f32> = xs.iter().zip(&ys).map(|(&a, &b)| f(a, b)).collect();
            assert_eq!(got, pack(&want), "{op}");
        }
    }

    #[test]
    fn double_ops_match_scalar_reference() {
        let x = (2.5f64.to_bits(), (-4.0f64).to_bits());
        let y = (0.25f64.to_bits(), 8.0f64.to_bits());
        let t = devec(VecOp::MulPd);
        let got = run_flow(&t.uops, x, y);
        assert_eq!(got, ((2.5f64 * 0.25).to_bits(), (-4.0f64 * 8.0).to_bits()));
    }

    #[test]
    fn devec_flows_use_no_vector_exec_uops() {
        for op in [VecOp::PAddB, VecOp::PMullW, VecOp::AddPs, VecOp::PXor] {
            let t = devec(op);
            assert!(
                t.uops.iter().all(|u| !u.kind.is_vector_exec()),
                "{op}: scalarized flow must not need the VPU"
            );
        }
    }

    #[test]
    fn weight_scales_with_complexity() {
        let simple = Inst::VAlu {
            op: VecOp::PXor,
            dst: Xmm::new(0),
            src: Xmm::new(1),
        };
        let complex = Inst::VAlu {
            op: VecOp::PMullW,
            dst: Xmm::new(0),
            src: Xmm::new(1),
        };
        assert!(Devectorizer::weight(&complex) > Devectorizer::weight(&simple));
        let scalar = Inst::MovRI {
            dst: mx86_isa::Gpr::Rax,
            imm: 0,
        };
        assert_eq!(Devectorizer::weight(&scalar), 0);
    }

    #[test]
    fn loads_and_stores_pass_through() {
        let mut d = Devectorizer::new();
        let ld = Inst::VLoad {
            dst: Xmm::new(0),
            mem: mx86_isa::MemRef::abs(0x100),
        };
        let native = translate(&ld, 0);
        assert!(d.devectorize(&ld, &native).is_none());
    }

    #[test]
    fn stats_track_expansion() {
        let mut d = Devectorizer::new();
        let inst = Inst::VAlu {
            op: VecOp::PAddB,
            dst: Xmm::new(0),
            src: Xmm::new(1),
        };
        let native = translate(&inst, 0);
        let t = d.devectorize(&inst, &native).unwrap();
        assert_eq!(d.stats().devectorized_insts, 1);
        assert_eq!(d.stats().extra_uops, (t.uops.len() - 1) as u64);
        assert!(t.uops.len() >= 18, "paddb scalarization is a long flow");
    }
}
