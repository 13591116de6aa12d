//! The block paths against the reference interpreter.
//!
//! The fuzz and difftest legs attach a sink to every core, so their
//! retires go one instruction at a time, and `tests/block_retire.rs`
//! checks the block paths only against that per-instruction retire.
//! Here generated programs run on cores with no sink, so every batch
//! with the flow table enabled retires its straight-line runs on the
//! block path, and the final registers, flags, memory and retired count
//! must match the reference interpreter's. Every leg of the difftest
//! mode matrix runs in both engines.

use csd_difftest::{cosim_untraced, mode_matrix, Generator, ModeLeg};

/// Generated programs per run of the test.
const PROGRAMS: u64 = 400;

/// The mode matrix's legs, each in the functional and the cycle engine.
fn legs() -> Vec<ModeLeg> {
    let mut legs = Vec::new();
    for leg in mode_matrix() {
        for cycle in [false, true] {
            let leg = ModeLeg { cycle, ..leg };
            if !legs.contains(&leg) {
                legs.push(leg);
            }
        }
    }
    legs
}

#[test]
fn untraced_cores_match_the_reference_on_generated_programs() {
    let legs = legs();
    assert_eq!(
        legs.len(),
        34,
        "16 mode combinations and a snapshot leg, twice"
    );
    let mut insts = 0;
    for seed in 0..PROGRAMS {
        let program = Generator::new(seed).program().assemble().unwrap();
        let r = cosim_untraced(&program, &legs);
        assert!(r.ok(), "seed {seed}: {:#?}", r.divergences);
        insts += r.ref_insts;
    }
    assert!(insts > 10_000, "the programs retire {insts} instructions");
}
