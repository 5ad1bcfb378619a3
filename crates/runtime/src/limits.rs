//! Central home for the runtime's timeout constants. The data-plane inbox
//! capacity lives in [`ramiel_ir::runtime_model`], where the static
//! capacity lint in `ramiel-verify` reads the same value.

use std::time::Duration;

/// Default worker recv timeout, overridable via [`RECV_TIMEOUT_ENV`].
pub const DEFAULT_RECV_TIMEOUT_MS: u64 = 30_000;

/// Environment variable overriding [`DEFAULT_RECV_TIMEOUT_MS`].
pub const RECV_TIMEOUT_ENV: &str = "RAMIEL_RECV_TIMEOUT_MS";

/// Extra slack the hyperpool's result collector waits beyond the worker
/// recv timeout, so workers time out (with per-op context) before the
/// collector gives up.
pub const COLLECTOR_GRACE_MS: u64 = 2_000;

/// How long a worker may block on a message before declaring the schedule
/// deadlocked (a schedule bug, not a transient condition). Overridable via
/// `RAMIEL_RECV_TIMEOUT_MS` so tests can exercise the deadlock path quickly,
/// or per-run via [`crate::RunOptions::recv_timeout`].
pub(crate) fn default_recv_timeout() -> Duration {
    static TIMEOUT: std::sync::OnceLock<Duration> = std::sync::OnceLock::new();
    *TIMEOUT.get_or_init(|| {
        let default = Duration::from_millis(DEFAULT_RECV_TIMEOUT_MS);
        match std::env::var(RECV_TIMEOUT_ENV) {
            Ok(v) => v
                .parse::<u64>()
                .map(Duration::from_millis)
                .unwrap_or_else(|_| {
                    ramiel_obs::warn(
                        "RT-ENV",
                        format!(
                            "ignoring unparsable RAMIEL_RECV_TIMEOUT_MS=`{v}` \
                             (want milliseconds as an integer); using {}s",
                            default.as_secs()
                        ),
                    );
                    default
                }),
            Err(_) => default,
        }
    })
}
