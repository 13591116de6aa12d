//! # csd-serve — simulation as a service
//!
//! A dependency-free HTTP/1.1 daemon that serves the repository's
//! experiment grid over the network, plus the `loadgen` client that
//! exercises it. Three ideas:
//!
//! - **Byte determinism survives the network.** A task served from
//!   `POST /v1/experiments` is the exact document `suite --filter`
//!   writes — CI `cmp`s the two.
//! - **Sessions amortize warm-up.** The expensive prefix of a security
//!   experiment (core construction + cache warm-up) is parked as an
//!   `Arc<CoreSnapshot>` in an LRU implementing the `csd-exp`
//!   `CheckpointProvider` trait; experiment plans varying only measured
//!   knobs fork it per leg, byte-identical to a cold run.
//! - **Backpressure over buffering.** A fixed worker pool pulls from a
//!   bounded queue; when it is full the daemon answers `503` with
//!   `Retry-After` instead of hoarding work, and graceful shutdown
//!   drains what was admitted before exiting 0.
//! - **Panics are contained, not fatal.** Jobs run under
//!   `catch_unwind`, locks recover from poisoning ([`lock`]), failures
//!   carry a class ([`error`]), and a seeded fault-injection mode
//!   ([`fault`]) lets a chaos harness prove all of it.
//!
//! See `DESIGN.md` (service architecture and failure model) and the
//! README's "Serving" section for the endpoint reference.

#![warn(missing_docs)]
// The daemon must not have reachable panics on its request path: every
// `unwrap`/`expect` needs an explicit allow with a safety argument, or a
// rewrite into `ServeError`. Tests are exempt — panicking is how tests
// fail. CI runs clippy with `-D warnings`, which makes these deny.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod error;
pub mod fault;
pub mod http;
pub mod lock;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod session;

pub use client::{Backoff, Client, ClientResponse, RetryClient, RetryStats};
pub use csd_exp::{ExperimentSpec, SessionKey, Warmed};
pub use error::{ErrorClass, ServeError};
pub use fault::{FaultMode, FaultSpec};
pub use lock::{poison_recoveries, relock, rewait};
pub use metrics::Metrics;
pub use server::{install_signal_handler, Server, ServerConfig, ShutdownHandle};
pub use session::SessionCache;
