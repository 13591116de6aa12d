//! Microcode update (MCU) and auto-translation (paper §III-C).
//!
//! CSD exploits the existing (vendor-signed) microcode update procedure to
//! let privileged runtime software push *custom translations written in
//! native x86* into the processor. The update's header carries a reserved
//! field marking it for auto-translation; the decoder then translates the
//! native body into µops using its existing tables, optimizes them with
//! macro/micro-op fusion, and installs the compact flow into the microcode
//! engine's patch table, keyed by the macro-op it replaces and the
//! translation context it belongs to.
//!
//! Custom translations injected this way "should not alter architectural
//! register and memory state, unless explicitly specified in the MCU
//! header" — enforced by [`MicrocodeUpdate::verify`].

use crate::mode::ContextId;
use csd_uops::{fusion, translate, Flow, Translation, UReg};
use mx86_isa::{AluOp, Inst, VecOp};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// The privilege level of the software applying an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrivilegeLevel {
    /// Unprivileged user code.
    User,
    /// The OS kernel / trusted runtime (ring 0).
    Kernel,
}

/// The macro-op class a custom translation replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum OpcodeClass {
    Nop,
    MovRR,
    MovRI,
    Load,
    Store,
    Lea,
    Alu(AluOp),
    AluLoad(AluOp),
    AluStore(AluOp),
    Mul,
    Div,
    Cmp,
    Test,
    Jmp,
    Jcc,
    JmpInd,
    Call,
    Ret,
    Push,
    Pop,
    VLoad,
    VStore,
    VMovRR,
    VAlu(VecOp),
    VAluLoad(VecOp),
    VMovToGpr,
    VMovFromGpr,
    Clflush,
    Rdtsc,
    Wrmsr,
    Rdmsr,
    Halt,
}

impl OpcodeClass {
    /// The class of a concrete instruction.
    pub fn of(inst: &Inst) -> OpcodeClass {
        match *inst {
            Inst::Nop { .. } => OpcodeClass::Nop,
            Inst::MovRR { .. } => OpcodeClass::MovRR,
            Inst::MovRI { .. } => OpcodeClass::MovRI,
            Inst::Load { .. } => OpcodeClass::Load,
            Inst::Store { .. } => OpcodeClass::Store,
            Inst::Lea { .. } => OpcodeClass::Lea,
            Inst::Alu { op, .. } => OpcodeClass::Alu(op),
            Inst::AluLoad { op, .. } => OpcodeClass::AluLoad(op),
            Inst::AluStore { op, .. } => OpcodeClass::AluStore(op),
            Inst::Mul { .. } => OpcodeClass::Mul,
            Inst::Div { .. } => OpcodeClass::Div,
            Inst::Cmp { .. } => OpcodeClass::Cmp,
            Inst::Test { .. } => OpcodeClass::Test,
            Inst::Jmp { .. } => OpcodeClass::Jmp,
            Inst::Jcc { .. } => OpcodeClass::Jcc,
            Inst::JmpInd { .. } => OpcodeClass::JmpInd,
            Inst::Call { .. } => OpcodeClass::Call,
            Inst::Ret => OpcodeClass::Ret,
            Inst::Push { .. } => OpcodeClass::Push,
            Inst::Pop { .. } => OpcodeClass::Pop,
            Inst::VLoad { .. } => OpcodeClass::VLoad,
            Inst::VStore { .. } => OpcodeClass::VStore,
            Inst::VMovRR { .. } => OpcodeClass::VMovRR,
            Inst::VAlu { op, .. } => OpcodeClass::VAlu(op),
            Inst::VAluLoad { op, .. } => OpcodeClass::VAluLoad(op),
            Inst::VMovToGpr { .. } => OpcodeClass::VMovToGpr,
            Inst::VMovFromGpr { .. } => OpcodeClass::VMovFromGpr,
            Inst::Clflush { .. } => OpcodeClass::Clflush,
            Inst::Rdtsc => OpcodeClass::Rdtsc,
            Inst::Wrmsr { .. } => OpcodeClass::Wrmsr,
            Inst::Rdmsr { .. } => OpcodeClass::Rdmsr,
            Inst::Halt => OpcodeClass::Halt,
        }
    }
}

/// Maximum native instructions in an MCU body.
pub const MCU_MAX_BODY: usize = 64;

/// Errors from MCU verification or installation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McuError {
    /// The update was applied from user mode.
    NotPrivileged,
    /// The body does not match the header checksum (tampering).
    BadChecksum,
    /// The body exceeds [`MCU_MAX_BODY`] instructions.
    BodyTooLong(usize),
    /// The body contains a control-transfer instruction (not allowed in a
    /// linear custom translation).
    ContainsBranch,
    /// The body writes architectural register or memory state but the
    /// header does not declare `allow_arch_writes`.
    AltersArchState,
    /// The update is not marked for auto-translation; raw vendor µop
    /// formats are outside this model.
    OpaqueFormat,
}

impl fmt::Display for McuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McuError::NotPrivileged => write!(f, "microcode update requires kernel privilege"),
            McuError::BadChecksum => write!(f, "MCU body fails integrity check"),
            McuError::BodyTooLong(n) => {
                write!(f, "MCU body of {n} instructions exceeds {MCU_MAX_BODY}")
            }
            McuError::ContainsBranch => write!(f, "MCU body may not contain control transfer"),
            McuError::AltersArchState => {
                write!(
                    f,
                    "MCU body alters architectural state without header permission"
                )
            }
            McuError::OpaqueFormat => {
                write!(
                    f,
                    "only auto-translated (native-instruction) MCUs are modeled"
                )
            }
        }
    }
}

impl Error for McuError {}

/// The descriptive header prepended to an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McuHeader {
    /// Update revision (monotonic per target).
    pub revision: u32,
    /// The macro-op class whose translation is replaced.
    pub target: OpcodeClass,
    /// The translation context the flow belongs to.
    pub mode: ContextId,
    /// Reserved field: body is native x86 and must be auto-translated.
    pub auto_translate: bool,
    /// Whether the flow is allowed to write architectural state.
    pub allow_arch_writes: bool,
    /// Integrity checksum over the body.
    pub checksum: u64,
}

/// A microcode update: header plus a body of native instructions.
#[derive(Debug, Clone, PartialEq)]
pub struct MicrocodeUpdate {
    /// The descriptive header.
    pub header: McuHeader,
    /// Custom translation written in native instructions.
    pub body: Vec<Inst>,
}

fn checksum(body: &[Inst]) -> u64 {
    // FNV-1a over each instruction's disassembly and length — stable and
    // tamper-evident for a model.
    let mut bytes = Vec::new();
    for inst in body {
        bytes.extend(inst.to_string().bytes());
        bytes.extend(inst.len().to_le_bytes());
    }
    csd_telemetry::fnv1a64(&bytes)
}

impl MicrocodeUpdate {
    /// Builds a well-formed auto-translated update (checksum computed).
    pub fn new(
        revision: u32,
        target: OpcodeClass,
        mode: ContextId,
        allow_arch_writes: bool,
        body: Vec<Inst>,
    ) -> MicrocodeUpdate {
        MicrocodeUpdate {
            header: McuHeader {
                revision,
                target,
                mode,
                auto_translate: true,
                allow_arch_writes,
                checksum: checksum(&body),
            },
            body,
        }
    }

    /// Verifies sanity and integrity, mirroring the two-stage check
    /// (microcode driver, then processor) of the paper's Figure 2.
    ///
    /// # Errors
    ///
    /// See [`McuError`] for each rejected condition.
    pub fn verify(&self, privilege: PrivilegeLevel) -> Result<(), McuError> {
        if privilege != PrivilegeLevel::Kernel {
            return Err(McuError::NotPrivileged);
        }
        if !self.header.auto_translate {
            return Err(McuError::OpaqueFormat);
        }
        if self.body.len() > MCU_MAX_BODY {
            return Err(McuError::BodyTooLong(self.body.len()));
        }
        if self.header.checksum != checksum(&self.body) {
            return Err(McuError::BadChecksum);
        }
        if self.body.iter().any(Inst::is_branch) {
            return Err(McuError::ContainsBranch);
        }
        if !self.header.allow_arch_writes {
            for inst in &self.body {
                let t = translate(inst, 0);
                let writes_arch = t.uops.iter().any(|u| {
                    u.kind.is_store() || u.regs().write.is_some_and(UReg::is_architectural)
                });
                if writes_arch {
                    return Err(McuError::AltersArchState);
                }
            }
        }
        Ok(())
    }

    /// Auto-translates the native body into an optimized µop flow
    /// (translation + fusion), ready for the patch table.
    pub fn auto_translate(&self) -> Translation {
        let mut uops = Vec::new();
        for inst in &self.body {
            uops.extend(translate(inst, 0).uops);
        }
        let n = uops.len();
        Translation {
            static_uops: n,
            cacheable: fusion::fused_len(&uops) <= 6,
            from_msrom: n > csd_uops::MSROM_THRESHOLD,
            uops,
        }
    }
}

/// The microcode engine's patch table: installed custom translations,
/// keyed by `(macro-op class, translation context)`. Each flow is built
/// once at install and shared with every decode it serves.
#[derive(Debug, Clone, Default)]
pub struct MsromPatchTable {
    patches: HashMap<(OpcodeClass, ContextId), (u32, Arc<Flow>)>,
}

impl MsromPatchTable {
    /// An empty table.
    pub fn new() -> MsromPatchTable {
        MsromPatchTable::default()
    }

    /// Installs a verified update; newer revisions replace older ones,
    /// stale revisions are ignored. Returns whether the table changed.
    pub fn install(&mut self, mcu: &MicrocodeUpdate) -> bool {
        let key = (mcu.header.target, mcu.header.mode);
        match self.patches.get(&key) {
            Some((rev, _)) if *rev >= mcu.header.revision => false,
            _ => {
                let flow = Arc::new(Flow::new(mcu.auto_translate()));
                self.patches.insert(key, (mcu.header.revision, flow));
                true
            }
        }
    }

    /// Looks up the custom flow for a macro-op class in a context.
    pub fn lookup(&self, class: OpcodeClass, mode: ContextId) -> Option<&Arc<Flow>> {
        self.patches.get(&(class, mode)).map(|(_, t)| t)
    }

    /// Number of installed patches.
    pub fn len(&self) -> usize {
        self.patches.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.patches.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx86_isa::Gpr;

    fn counting_nop_body() -> Vec<Inst> {
        // A "decoder performance counter": nop replaced by a counting flow
        // on a temporary — no architectural writes.
        vec![Inst::Nop { len: 1 }]
    }

    #[test]
    fn wellformed_update_verifies_and_installs() {
        let mcu = MicrocodeUpdate::new(
            1,
            OpcodeClass::Nop,
            ContextId::Custom(0),
            false,
            counting_nop_body(),
        );
        mcu.verify(PrivilegeLevel::Kernel).unwrap();
        let mut table = MsromPatchTable::new();
        assert!(table.install(&mcu));
        assert!(table
            .lookup(OpcodeClass::Nop, ContextId::Custom(0))
            .is_some());
        assert!(table.lookup(OpcodeClass::Nop, ContextId::Native).is_none());
    }

    #[test]
    fn user_mode_is_rejected() {
        let mcu = MicrocodeUpdate::new(1, OpcodeClass::Nop, ContextId::Custom(0), false, vec![]);
        assert_eq!(
            mcu.verify(PrivilegeLevel::User),
            Err(McuError::NotPrivileged)
        );
    }

    #[test]
    fn checksum_known_answers() {
        // FNV-1a over "nop1" ++ 1u32 LE (++ "nop3" ++ 3u32 LE).
        let one = MicrocodeUpdate::new(
            1,
            OpcodeClass::Nop,
            ContextId::Custom(0),
            false,
            counting_nop_body(),
        );
        assert_eq!(one.header.checksum, 0xd261_3e93_ce60_dffc);
        let two = vec![Inst::Nop { len: 1 }, Inst::Nop { len: 3 }];
        assert_eq!(checksum(&two), 0xe1fb_1a36_04f3_d655);
    }

    #[test]
    fn tampered_body_fails_checksum() {
        let mut mcu = MicrocodeUpdate::new(
            1,
            OpcodeClass::Nop,
            ContextId::Custom(0),
            false,
            counting_nop_body(),
        );
        mcu.body.push(Inst::Nop { len: 2 });
        assert_eq!(
            mcu.verify(PrivilegeLevel::Kernel),
            Err(McuError::BadChecksum)
        );
    }

    #[test]
    fn branches_are_rejected() {
        let mcu = MicrocodeUpdate::new(
            1,
            OpcodeClass::Nop,
            ContextId::Custom(0),
            false,
            vec![Inst::Jmp { target: 0 }],
        );
        assert_eq!(
            mcu.verify(PrivilegeLevel::Kernel),
            Err(McuError::ContainsBranch)
        );
    }

    #[test]
    fn undeclared_arch_writes_are_rejected() {
        let mcu = MicrocodeUpdate::new(
            1,
            OpcodeClass::Nop,
            ContextId::Custom(0),
            false,
            vec![Inst::MovRI {
                dst: Gpr::Rax,
                imm: 1,
            }],
        );
        assert_eq!(
            mcu.verify(PrivilegeLevel::Kernel),
            Err(McuError::AltersArchState)
        );

        let declared = MicrocodeUpdate::new(
            1,
            OpcodeClass::Nop,
            ContextId::Custom(0),
            true,
            vec![Inst::MovRI {
                dst: Gpr::Rax,
                imm: 1,
            }],
        );
        declared.verify(PrivilegeLevel::Kernel).unwrap();
    }

    #[test]
    fn oversized_body_is_rejected() {
        let body = vec![Inst::Nop { len: 1 }; MCU_MAX_BODY + 1];
        let mcu = MicrocodeUpdate::new(1, OpcodeClass::Nop, ContextId::Custom(0), false, body);
        assert!(matches!(
            mcu.verify(PrivilegeLevel::Kernel),
            Err(McuError::BodyTooLong(_))
        ));
    }

    #[test]
    fn opaque_format_is_rejected() {
        let mut mcu =
            MicrocodeUpdate::new(1, OpcodeClass::Nop, ContextId::Custom(0), false, vec![]);
        mcu.header.auto_translate = false;
        assert_eq!(
            mcu.verify(PrivilegeLevel::Kernel),
            Err(McuError::OpaqueFormat)
        );
    }

    #[test]
    fn revision_ordering_governs_replacement() {
        let mut table = MsromPatchTable::new();
        let v2 = MicrocodeUpdate::new(
            2,
            OpcodeClass::Nop,
            ContextId::Custom(0),
            false,
            counting_nop_body(),
        );
        let v1 = MicrocodeUpdate::new(1, OpcodeClass::Nop, ContextId::Custom(0), false, vec![]);
        assert!(table.install(&v2));
        assert!(!table.install(&v1), "stale revision ignored");
        assert_eq!(table.len(), 1);
        assert_eq!(
            table
                .lookup(OpcodeClass::Nop, ContextId::Custom(0))
                .unwrap()
                .uops
                .len(),
            1
        );
    }

    #[test]
    fn auto_translate_concatenates_and_fuses() {
        let body = vec![
            Inst::Nop { len: 1 },
            Inst::Nop { len: 1 },
            Inst::Nop { len: 1 },
        ];
        let mcu = MicrocodeUpdate::new(1, OpcodeClass::Nop, ContextId::Custom(1), false, body);
        let t = mcu.auto_translate();
        assert_eq!(t.uops.len(), 3);
        assert!(t.cacheable);
    }

    #[test]
    fn opcode_class_distinguishes_alu_ops() {
        let add = Inst::Alu {
            op: AluOp::Add,
            dst: Gpr::Rax,
            src: mx86_isa::RegImm::Imm(1),
        };
        let sub = Inst::Alu {
            op: AluOp::Sub,
            dst: Gpr::Rax,
            src: mx86_isa::RegImm::Imm(1),
        };
        assert_ne!(OpcodeClass::of(&add), OpcodeClass::of(&sub));
    }
}
