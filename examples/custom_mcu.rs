//! The auto-translated microcode-update path (paper §III-C): privileged
//! software pushes a custom translation *written in native instructions*
//! into the microcode engine, here installing a decoder-level
//! "performance counter" that augments `nop` in a custom context.
//!
//! ```sh
//! cargo run --release --example custom_mcu
//! ```

use csd_repro::core::{
    ContextId, CsdConfig, CsdEngine, MicrocodeUpdate, OpcodeClass, PrivilegeLevel,
};
use csd_repro::isa::{Gpr, Inst, Placed};

fn main() {
    let mut engine = CsdEngine::new(CsdConfig::default());

    // The update body is plain native code; the decoder auto-translates it
    // into µops and installs the optimized flow into the patch table.
    let body = vec![
        Inst::Nop { len: 1 },
        Inst::Nop { len: 1 },
        Inst::Nop { len: 1 },
    ];
    let mcu = MicrocodeUpdate::new(1, OpcodeClass::Nop, ContextId::Custom(0), false, body);

    // User mode is rejected; the kernel path verifies header integrity.
    assert!(engine
        .apply_microcode_update(&mcu, PrivilegeLevel::User)
        .is_err());
    engine
        .apply_microcode_update(&mcu, PrivilegeLevel::Kernel)
        .expect("verified update installs");
    println!(
        "microcode update verified and installed ({} patch)",
        engine.patches().len()
    );

    // Tampering is caught by the checksum.
    let mut tampered = mcu.clone();
    tampered.body.push(Inst::MovRI {
        dst: Gpr::Rax,
        imm: 0xbad,
    });
    println!(
        "tampered update rejected: {}",
        engine
            .apply_microcode_update(&tampered, PrivilegeLevel::Kernel)
            .unwrap_err()
    );

    // Decode a nop in the native context, then switch the custom context
    // on: the translation changes instantly, with no pipeline change.
    let nop = Placed {
        addr: 0x1000,
        inst: Inst::Nop { len: 1 },
    };
    let native = engine.decode(&nop, false);
    engine.set_custom_mode(Some(0));
    let custom = engine.decode(&nop, false);
    println!(
        "nop translation: native context -> {} µop(s); custom context -> {} µop(s) [{}]",
        native.flow.uops().len(),
        custom.flow.uops().len(),
        custom.context,
    );
}
