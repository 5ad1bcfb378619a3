//! Central home for the runtime's timeout constants and the registry's
//! fetch bounds. The data-plane inbox capacity lives in
//! [`ramiel_ir::runtime_model`], where the static capacity lint in
//! `ramiel-verify` reads the same value.

use std::time::Duration;

/// How long a worker may block on a message before declaring the schedule
/// deadlocked (a schedule bug, not a transient condition), unless
/// [`crate::RunOptions::recv_timeout`] sets another.
pub const DEFAULT_RECV_TIMEOUT_MS: u64 = 30_000;

/// [`DEFAULT_RECV_TIMEOUT_MS`] as the executors take it.
pub(crate) const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_millis(DEFAULT_RECV_TIMEOUT_MS);

/// Extra slack the hyperpool's result collector waits beyond the worker
/// recv timeout, so workers time out (with per-op context) before the
/// collector gives up.
pub const COLLECTOR_GRACE_MS: u64 = 2_000;

/// Bound on connecting to a model registry host and on each read of its
/// response: a host that goes silent fails the pull instead of hanging it.
pub const FETCH_TIMEOUT_MS: u64 = 10_000;

/// Largest response body a registry fetch reads (1 GiB); a longer body
/// fails the pull without being read past this many bytes.
pub const FETCH_MAX_BYTES: usize = 1 << 30;
