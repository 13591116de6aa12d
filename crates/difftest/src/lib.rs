//! # csd-difftest — differential cosimulation for the CSD pipeline
//!
//! CSD's premise is that decoder-level rewriting — stealth decoy
//! injection, selective devectorization, microcode patches, decode
//! memoization — is *semantics-preserving*. This crate proves it
//! continuously:
//!
//! - [`mod@reference`]: an architectural interpreter executing mx86 macro-ops
//!   directly (no µops, no timing, no caches) as the ground-truth oracle;
//! - [`generator`]: a deterministic, SplitMix64-seeded random program
//!   generator whose outputs always terminate;
//! - [`harness`]: runs each program through the cycle-level pipeline
//!   under every leg of the CSD mode matrix (stealth × devec × memo ×
//!   µop-cache, functional and cycle timing, plus a snapshot/restore
//!   leg) and compares final architectural state, the
//!   retired-instruction partition, and the ordered store stream;
//! - [`mod@shrink`]: greedily minimizes any diverging program to a small
//!   reassemblable reproducer;
//! - [`asm`]: parses the printed reassemblable assembly back into IR;
//! - [`mutate`]: seeded mutation operators over generator IR (opcode and
//!   operand flips, insertion/deletion, block duplication, splicing,
//!   leg-mask perturbation) whose accepted mutants always assemble and
//!   always terminate;
//! - [`corpus`]: the persistent regression corpus — content-addressed
//!   `.asm` + `.json` pairs under `tests/corpus/`, replayed as a tier-1
//!   test on every `cargo test`;
//! - [`mod@fuzz`]: the coverage-guided campaign loop tying it together —
//!   structural coverage (µop×mode matrix, decode-context edges,
//!   context-change causes, gate and stealth bins, flow-table/µop-cache
//!   outcomes, divergence classes) decides
//!   which mutants survive, and survivors are shrunk and persisted.
//!
//! The bounded entry point lives in `tests/`. The `fuzz` binary is the
//! one command-line entry: a coverage-guided campaign (`--seed`,
//! `--iters`, `--corpus`, `--modes`, `--jobs`), or with `--programs N` a
//! no-mutation [`sweep`] of `N` freshly generated programs for long soak
//! runs.

#![warn(missing_docs)]

pub mod asm;
pub mod corpus;
pub mod fuzz;
pub mod generator;
pub mod harness;
pub mod mutate;
pub mod reference;
pub mod shrink;

pub use asm::parse_asm;
pub use corpus::{default_corpus_dir, fnv1a64, load_corpus, CorpusEntry, CORPUS_SCHEMA};
pub use fuzz::{active_legs, fuzz, sweep, FuzzConfig, FuzzOutcome};
pub use generator::{GenOp, GenProgram, Generator};
pub use harness::{
    cosim, cosim_with_coverage, mode_matrix, reference_halts, CosimResult, Divergence,
    DivergenceClass, InjectedBug, ModeLeg, STEALTH_WATCHDOG,
};
pub use mutate::{mask_all, FuzzInput, Mutator};
pub use reference::{RefCpu, RefOutcome, StoreRecord};
pub use shrink::{shrink, shrink_with, Shrunk};
