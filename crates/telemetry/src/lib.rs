//! # csd-telemetry — the unified telemetry layer
//!
//! Every counter struct in the workspace (`SimStats`, `CsdStats`, cache
//! and energy statistics, …) serializes through this crate into one
//! nested, machine-readable report, and every simulator component can
//! expose fine-grained events through a zero-cost-when-disabled hook
//! trait. The crate is dependency-free by design: the container image
//! cannot reach a crates.io registry, so JSON emission, deterministic
//! seeding, and event plumbing are all implemented in-tree.
//!
//! The pieces:
//!
//! - [`json`] — a small JSON document model ([`Json`]) with a
//!   *deterministic* serializer (stable key order, shortest-roundtrip
//!   float formatting), a strict parser ([`Json::parse`], which reads
//!   reports back for `suite --render`, corpus metadata and benchmark
//!   goldens), and the [`ToJson`] trait the workspace's counter structs
//!   implement. Same data ⇒ byte-identical output, which is what lets
//!   `BENCH_suite.json` be diffed across runs and commits.
//! - [`rng`] — [`SplitMix64`], the workspace's deterministic PRNG,
//!   [`derive_seed`] for deriving independent per-task streams from one
//!   root seed, and [`fnv1a64`], the one content hash.
//! - [`events`] — the [`EventSink`] hook trait (decode / retire / gate /
//!   stealth-window events) and the [`SinkHandle`] container the
//!   pipeline embeds so tracing can be attached without touching the hot
//!   path when disabled.
//! - [`coverage`] — [`CoverageMap`], the fixed-shape structural coverage
//!   counters behind coverage-guided differential fuzzing, and
//!   [`CoverageSink`], the [`EventSink`] adapter that fills one.
//! - [`exec`] — [`ordered_map`], the one ordered parallel executor
//!   behind suite tasks, plan legs and fuzz candidates.
//! - [`artifact`] — [`write_atomic`], the temp+rename artifact writer
//!   behind every report and corpus file, with typed [`ArtifactError`]s.

#![warn(missing_docs)]

pub mod artifact;
pub mod coverage;
pub mod events;
pub mod exec;
pub mod json;
pub mod rng;

pub use artifact::{write_atomic, ArtifactError};
pub use coverage::{CoverageMap, CoverageSink};
pub use events::{
    ContextKeyEvent, CountingSink, DecodeEvent, EventSink, GateEvent, MemoProbeEvent, RetireEvent,
    SinkHandle, StealthWindowEvent, StoreEvent, UopCacheEvent, UopDecodeEvent,
};
pub use exec::ordered_map;
pub use json::{Json, ParseError, ToJson};
pub use rng::{derive_seed, fnv1a64, SplitMix64};
