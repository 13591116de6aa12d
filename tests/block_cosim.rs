//! The block paths against the reference interpreter.
//!
//! Generated programs run through the ordinary cosimulation, whose legs
//! carry a sink: every batch with the flow table enabled retires its
//! straight-line runs on the block path, traced as the per-instruction
//! path traces them, so the final registers, flags, memory, retired
//! count and the ordered store stream must match the reference
//! interpreter's. Every leg of the difftest mode matrix runs in both
//! engines.

use csd_difftest::{cosim, mode_matrix, Generator, ModeLeg};

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
fn block_paths_match_the_reference_on_generated_programs() {
    let legs = legs();
    assert_eq!(
        legs.len(),
        34,
        "16 mode combinations and a snapshot leg, twice"
    );
    let mut insts = 0;
    for seed in 0..PROGRAMS {
        let program = Generator::new(seed).program().assemble().unwrap();
        let r = cosim(&program, &legs, None);
        assert!(r.ok(), "seed {seed}: {:#?}", r.divergences);
        insts += r.ref_insts;
    }
    assert!(insts > 10_000, "the programs retire {insts} instructions");
}
