//! # csd-exp — typed experiment specs and the plan executor
//!
//! The paper's evaluation is one idea applied many ways: warm a victim
//! once, then fork many measured legs that differ only in decode
//! context (stealth on/off, watchdog period, VPU policy). This crate
//! owns that idea end to end:
//!
//! - [`ExperimentSpec`] — a typed description of an experiment: victim,
//!   pipeline, seed, and a list of [`Leg`]s;
//! - [`run_plan`] — the single warm-fork-measure implementation. It
//!   warms once, snapshots, and forks every leg from the shared
//!   checkpoint, optionally on the shared ordered executor;
//! - [`LegResult`] / [`ExperimentResult`] — typed outcomes with one
//!   `ToJson` schema shared by the suite and the examples.
//!
//! The measurement vocabulary (victims, pipeline configurations, VPU
//! policies, the warmed-core recipe) lives in [`measure`] and is
//! re-exported at the crate root.
//!
//! ```
//! use csd_exp::{run_plan, ExperimentSpec, NoCache};
//!
//! let spec = ExperimentSpec::pair("aes-enc", "opt", 7, 1, 1000);
//! let result = run_plan(&spec, &NoCache, 1).unwrap();
//! assert_eq!(result.legs.len(), 2);
//! let (base, stealth) = (&result.legs[0], &result.legs[1]);
//! assert!(stealth.metrics.cycles > base.metrics.cycles);
//! ```

#![warn(missing_docs)]

pub mod measure;
pub mod plan;
pub mod spec;

pub use measure::{
    measure_blocks, pipelines, policies, policy_by_name, security_core, security_victim,
    security_victims, victim_names, warm_up, Pipeline, SecMetrics, CONVENTIONAL_IDLE_GATE,
    DEFAULT_WATCHDOG, WARMUP_OPS,
};
pub use plan::{
    apply_leg_mode, run_plan, run_plan_with, ExpError, ExperimentResult, LegResult, NoCache,
};
pub use spec::{ExperimentSpec, Leg, LegMode};
