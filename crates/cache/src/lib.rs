//! # csd-cache — set-associative cache models and the memory hierarchy
//!
//! Timing- and state-accurate (but data-oblivious) cache models for the CSD
//! reproduction. Caches track *which lines are present*, their replacement
//! state, and dirtiness; actual data contents live in the simulator's flat
//! memory. This is exactly the fidelity cache side-channel experiments
//! need: PRIME+PROBE and FLUSH+RELOAD observe presence and latency, never
//! contents.
//!
//! The [`Hierarchy`] mirrors the paper's baseline (Table I analogue):
//! split 32 KiB L1I/L1D, unified 256 KiB L2, 2 MiB LLC, with `clflush`
//! support that removes a line from every level (the primitive behind
//! FLUSH+RELOAD).
//!
//! ```
//! use csd_cache::{Hierarchy, HierarchyConfig, AccessKind};
//!
//! let mut h = Hierarchy::new(HierarchyConfig::default());
//! let miss = h.access(0x1000, AccessKind::DataRead);
//! let hit = h.access(0x1000, AccessKind::DataRead);
//! assert!(miss.latency > hit.latency);
//! assert_eq!(hit.level, csd_cache::HitLevel::L1);
//! ```

#![warn(missing_docs)]

mod cache;
mod hierarchy;
mod stats;

pub use cache::{Cache, CacheConfig, LineSlot};
pub use hierarchy::{AccessKind, AccessResult, Hierarchy, HierarchyConfig, HitLevel};
pub use stats::{CacheStats, HierarchyStats};
