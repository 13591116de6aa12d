//! Determinism contracts of the fuzzing stack: shrinker, coverage-class
//! naming, and divergence-class preservation under shrinking.

use csd::OpcodeClass;
use csd_difftest::{
    cosim, mode_matrix, reference_halts, shrink_with, GenProgram, Generator, InjectedBug, ModeLeg,
};
use csd_telemetry::coverage::{uop_class_name, COV_UOP_CLASSES};
use csd_uops::{FOp, FWidth, Src, UMem, UReg, UopKind};
use mx86_isa::{AluOp, Cc, Gpr, Inst, VecOp, Width, Xmm};

fn classes_under(gp: &GenProgram, legs: &[ModeLeg], bug: &InjectedBug) -> Vec<&'static str> {
    let Ok(p) = gp.assemble() else {
        return Vec::new();
    };
    if !reference_halts(&p) {
        return Vec::new();
    }
    let mut classes = cosim(&p, legs, Some(bug)).classes();
    classes.sort_unstable();
    classes
}

/// The fuzzer's failure path: shrinking the same failing program twice
/// under the class-preserving predicate yields byte-identical minimized
/// assembly, and the minimized program fails with exactly the
/// divergence-class set the original did (the corpus records that set,
/// so a class-shifting shrink would poison replay).
#[test]
fn shrink_is_deterministic_and_class_preserving() {
    // One all-features functional leg: the predicate runs a full cosim
    // per shrink attempt, so the test pins the property on the richest
    // single leg instead of paying for the whole matrix each time.
    let legs: Vec<ModeLeg> = mode_matrix()
        .into_iter()
        .filter(|l| l.name() == "fun-sdmu")
        .collect();
    assert_eq!(legs.len(), 1);
    let bug = InjectedBug {
        target: OpcodeClass::MovRI,
        body: vec![Inst::Nop { len: 1 }],
    };
    let gp = Generator::new(0xBAD_C0DE).program();
    let want = classes_under(&gp, &legs, &bug);
    assert!(!want.is_empty(), "nop-ing MovRI must diverge");

    let run = || shrink_with(&gp, &mut |c| classes_under(c, &legs, &bug) == want);
    let a = run();
    let b = run();
    assert_eq!(
        a.program.to_asm(),
        b.program.to_asm(),
        "same input must shrink byte-identically"
    );
    assert_eq!(a.attempts, b.attempts);
    assert!(a.insts < gp.inst_count(), "shrink must make progress");

    let got = classes_under(&a.program, &legs, &bug);
    assert_eq!(
        got,
        want,
        "shrunk reproducer changed divergence classes:\n{}",
        a.program.to_asm()
    );
}

/// `UopKind::coverage_class` (csd-uops) and `UOP_CLASS_NAMES`
/// (csd-telemetry) are maintained in different crates with no shared
/// type; this pins their agreement for every one of the 28 classes, one
/// typed µop per class.
#[test]
fn uop_coverage_classes_match_telemetry_names() {
    let (r, t) = (UReg::Gpr(Gpr::Rax), UReg::Tmp(0));
    let x = UReg::Xmm(Xmm::new(0));
    let mem = UMem::abs(0x40, Width::B8);
    let kinds: [(UopKind, &str); 28] = [
        (UopKind::Nop, "nop"),
        (UopKind::Mov { dst: r, src: t }, "mov"),
        (UopKind::MovImm { dst: r, imm: 1 }, "movimm"),
        (
            UopKind::Alu {
                op: AluOp::Add,
                dst: Some(r),
                a: r,
                b: Src::Imm(1),
                flags: true,
            },
            "alu",
        ),
        (
            UopKind::Mul {
                dst: r,
                a: r,
                b: Src::Reg(t),
                flags: true,
            },
            "mul",
        ),
        (
            UopKind::FAlu {
                op: FOp::Add,
                width: FWidth::S,
                dst: t,
                a: t,
                b: t,
            },
            "falu",
        ),
        (UopKind::DivQ { dst: r, a: t, b: r }, "divq"),
        (UopKind::DivR { dst: r, a: t, b: r }, "divr"),
        (UopKind::Ld { dst: r, mem }, "ld"),
        (UopKind::St { src: r, mem }, "st"),
        (UopKind::Lea { dst: r, mem }, "lea"),
        (
            UopKind::Br {
                cc: Cc::Eq,
                target: 0x40,
            },
            "br",
        ),
        (UopKind::JmpImm { target: 0x40 }, "jmp"),
        (UopKind::JmpReg { src: r }, "jmpreg"),
        (UopKind::PushImm { imm: 0x40 }, "pushimm"),
        (UopKind::Push { src: r }, "push"),
        (UopKind::Pop { dst: r }, "pop"),
        (
            UopKind::VAlu {
                op: VecOp::PAddD,
                dst: x,
                a: x,
                b: x,
            },
            "valu",
        ),
        (UopKind::VLd { dst: x, mem }, "vld"),
        (UopKind::VSt { src: x, mem }, "vst"),
        (UopKind::VMov { dst: x, src: x }, "vmov"),
        (
            UopKind::VExtractQ {
                dst: r,
                src: x,
                hi: false,
            },
            "vextract",
        ),
        (
            UopKind::VInsertQ {
                dst: x,
                src: r,
                hi: true,
            },
            "vinsert",
        ),
        (UopKind::Clflush { mem }, "clflush"),
        (UopKind::Rdtsc { dst: r }, "rdtsc"),
        (UopKind::Wrmsr { msr: 0x10, src: r }, "wrmsr"),
        (UopKind::Rdmsr { dst: r, msr: 0x10 }, "rdmsr"),
        (UopKind::Halt, "halt"),
    ];
    assert_eq!(kinds.len(), COV_UOP_CLASSES, "every class covered");
    let mut seen = [false; COV_UOP_CLASSES];
    for (kind, want) in kinds {
        let class = kind.coverage_class();
        assert_eq!(
            uop_class_name(class),
            want,
            "{kind:?} maps to class {class}"
        );
        assert!(
            !seen[class as usize],
            "class {class} assigned twice ({kind:?})"
        );
        seen[class as usize] = true;
    }
    assert!(seen.iter().all(|s| *s), "all 28 classes reachable");
}
