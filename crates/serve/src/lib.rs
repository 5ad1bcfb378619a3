//! # ramiel-serve
//!
//! Multi-model serving layer over the Ramiel runtime — the piece that turns
//! the paper's hyperclustering (batch > 1 filling cross-cluster
//! communication slack) into a *throughput* feature instead of a
//! compile-time constant.
//!
//! - [`plan`] — model registry + plan cache: [`Server::load`] compiles a
//!   model once (clustering, hypercluster schedules at several batch sizes,
//!   packed-weight cache, shared initializer table) into an
//!   `Arc<CompiledPlan>` shared by every request, LRU-bounded, versioned
//!   for hot reload.
//! - [`batcher`] — per-model dynamic micro-batcher: a bounded submission
//!   queue drained by a collector thread that coalesces up to `max_batch`
//!   requests (or a `max_delay` timeout, whichever first) into one
//!   hypercluster execution on a persistent
//!   [`ramiel_runtime::HyperPool`], then scatters per-sample outputs back
//!   to per-request one-shot channels.
//! - [`server`] — the in-process [`Server`] API: admission control
//!   (bounded queues, shed-vs-backpressure policy, per-request deadlines),
//!   supervised execution (retry → per-request sequential fallback, so a
//!   poisoned batch degrades instead of killing the server), and graceful
//!   drain-on-shutdown.
//! - [`tcp`] — newline-delimited JSON over `std::net` TCP, the transport
//!   behind `ramiel serve <model.json> --port N`.
//! - [`trace`] — bounded per-request trace ring; every answered request
//!   leaves a four-phase timeline (queue → batch → execute → respond)
//!   dumpable as a Chrome trace via the TCP `trace` verb.
//! - [`stats`] — the series each [`Server`] records into its one metric
//!   registry ([`Server::metrics`]), rendered by the TCP `metrics` verb,
//!   and the `stats` view of them ([`StatsSnapshot`]).

pub mod batcher;
pub mod plan;
pub mod registry;
pub mod server;
pub mod sha256;
pub mod stats;
pub mod tcp;
pub mod trace;

#[cfg(test)]
mod tests;

pub use plan::{CompiledPlan, PlanCache, PlanSpec};
pub use registry::{Fetched, ManifestEntry, Pulled, Registry, RegistryError};
pub use server::{OverflowPolicy, ServeConfig, ServeError, ServeExecutor, Server, Ticket};
pub use stats::{BatchBucket, LoadSummary, StatsSnapshot};
pub use tcp::{run_tcp, run_tcp_with_registry};
pub use trace::{RequestTrace, TraceRing};
