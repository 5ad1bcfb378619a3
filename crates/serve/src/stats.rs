//! Serving counters: queue depth, batch-size histogram, per-phase latency
//! histograms, shed counts. Entirely lock-free on the hot path — counters
//! are plain atomics and the histograms are the fixed-bucket atomics from
//! [`ramiel_obs::metrics`] (the old per-batch `Mutex<BTreeMap>` histogram
//! is gone).

use ramiel_obs::metrics::{bucket_bounds, Histogram, PeakGauge};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters shared by the server, its lanes, and the stats endpoint.
#[derive(Default)]
pub struct ServeStats {
    /// Requests accepted into a queue.
    pub submitted: AtomicU64,
    /// Requests answered with outputs.
    pub completed: AtomicU64,
    /// Requests answered with an execution error.
    pub failed: AtomicU64,
    /// Requests rejected because the queue was full (after any blocking
    /// backpressure wait).
    pub shed_queue_full: AtomicU64,
    /// Requests rejected because their deadline passed before execution.
    pub shed_deadline: AtomicU64,
    /// Requests rejected during shutdown.
    pub rejected_shutdown: AtomicU64,
    /// Micro-batches executed.
    pub batches: AtomicU64,
    /// Requests carried by those batches (mean batch = this / batches).
    pub batched_requests: AtomicU64,
    /// Batch retries on the standing pool.
    pub retries: AtomicU64,
    /// Batches that degraded to per-request sequential execution.
    pub fallbacks: AtomicU64,
    /// Batches the collector held open for company (the `max_delay`
    /// window) vs. batches it ran at once.
    pub windows_opened: AtomicU64,
    pub windows_skipped: AtomicU64,
    /// Lane collector threads alive: serving, or retired and still
    /// draining. A collector exits only after its pool's workers joined.
    pub live_lanes: AtomicU64,
    /// Time to (re)build a lane's worker pool, nanoseconds.
    pub(crate) lane_build_ns: Histogram,
    /// Deepest queue observed at admission (per-window + lifetime).
    peak_depth: PeakGauge,
    /// Achieved batch sizes (exact buckets below 16, so `max_batch <= 15`
    /// configurations report size-precise histograms).
    batch_sizes: Histogram,
    /// Per-request time-in-queue, nanoseconds (enqueue → collector pop).
    pub(crate) queue_wait_ns: Histogram,
    /// Collector pop → batch execution start, nanoseconds.
    pub(crate) batch_wait_ns: Histogram,
    /// Batch execution window attributed to each request, nanoseconds.
    pub(crate) execute_ns: Histogram,
    /// Execution end → response handed to the caller, nanoseconds.
    pub(crate) respond_ns: Histogram,
    /// End-to-end latency (enqueue → responded), nanoseconds.
    pub(crate) latency_ns: Histogram,
}

impl ServeStats {
    pub fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
        self.batch_sizes.record(size as u64);
    }

    pub fn note_depth(&self, depth: usize) {
        self.peak_depth.observe(depth as u64);
    }

    /// Point-in-time copy of every counter, plus derived means and
    /// quantiles. Leaves the current window running.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.build_snapshot(false)
    }

    /// [`ServeStats::snapshot`], additionally resetting every per-window
    /// gauge (the queue-depth peak) so periodic scrapes see interval
    /// deltas instead of lifetime highs.
    pub fn snapshot_and_reset_window(&self) -> StatsSnapshot {
        self.build_snapshot(true)
    }

    fn build_snapshot(&self, reset_windows: bool) -> StatsSnapshot {
        let batches = self.batches.load(Ordering::Relaxed);
        let batched = self.batched_requests.load(Ordering::Relaxed);
        let queue = self.queue_wait_ns.snapshot();
        let latency = self.latency_ns.snapshot();
        let execute = self.execute_ns.snapshot();
        let lane_build = self.lane_build_ns.snapshot();
        let ms = |ns: u64| ns as f64 / 1e6;
        StatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            batches,
            retries: self.retries.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            windows_opened: self.windows_opened.load(Ordering::Relaxed),
            windows_skipped: self.windows_skipped.load(Ordering::Relaxed),
            live_lanes: self.live_lanes.load(Ordering::SeqCst),
            lane_builds: lane_build.count,
            lane_build_mean_ms: lane_build.mean() / 1e6,
            peak_queue_depth: self.peak_depth.lifetime(),
            window_peak_queue_depth: if reset_windows {
                self.peak_depth.take_window()
            } else {
                self.peak_depth.window()
            },
            mean_batch: if batches > 0 {
                batched as f64 / batches as f64
            } else {
                0.0
            },
            mean_queue_ms: queue.mean() / 1e6,
            queue_p50_ms: ms(queue.percentile(0.5)),
            queue_p99_ms: ms(queue.percentile(0.99)),
            execute_p50_ms: ms(execute.percentile(0.5)),
            execute_p99_ms: ms(execute.percentile(0.99)),
            latency_p50_ms: ms(latency.percentile(0.5)),
            latency_p90_ms: ms(latency.percentile(0.9)),
            latency_p99_ms: ms(latency.percentile(0.99)),
            latency_max_ms: ms(latency.max),
            load: LoadSummary::default(),
            batch_histogram: self
                .batch_sizes
                .snapshot()
                .nonzero()
                .map(|(i, count)| BatchBucket {
                    // Exact below 16; the bucket's lower edge above.
                    size: bucket_bounds(i).0 as usize,
                    count,
                })
                .collect(),
        }
    }
}

/// The load path, summarised from the metric registry's
/// `ramiel_load_phase_ns`, `ramiel_registry_pulls_total` and
/// `ramiel_plan_evictions_total` series (all zero when the registry is
/// disabled): enough to answer "why was this `load` slow" from `stats`.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LoadSummary {
    /// Plans compiled by `Server::load` (first loads and hot swaps).
    pub loads: u64,
    pub pulls_hit: u64,
    pub pulls_miss: u64,
    pub pulls_checksum_refused: u64,
    pub plan_evictions: u64,
    /// Mean time per phase, milliseconds, over the loads that ran it.
    pub fetch_mean_ms: f64,
    pub hash_mean_ms: f64,
    pub store_mean_ms: f64,
    pub import_mean_ms: f64,
    pub compile_mean_ms: f64,
    pub swap_mean_ms: f64,
}

/// One bucket of the achieved-batch-size histogram.
#[derive(Debug, Clone, Serialize)]
pub struct BatchBucket {
    pub size: usize,
    pub count: u64,
}

/// Serializable snapshot returned by `Server::stats` and the TCP `stats`
/// op.
#[derive(Debug, Clone, Serialize)]
pub struct StatsSnapshot {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub shed_queue_full: u64,
    pub shed_deadline: u64,
    pub rejected_shutdown: u64,
    pub batches: u64,
    pub retries: u64,
    pub fallbacks: u64,
    /// Batches held open for company vs. run at once (the window rule).
    pub windows_opened: u64,
    pub windows_skipped: u64,
    /// Lane collector threads alive (serving, or retired and draining).
    pub live_lanes: u64,
    /// Worker-pool (re)builds, and their mean duration.
    pub lane_builds: u64,
    pub lane_build_mean_ms: f64,
    /// Lifetime queue-depth high-water mark.
    pub peak_queue_depth: u64,
    /// Queue-depth high-water mark since the last window reset
    /// ([`ServeStats::snapshot_and_reset_window`], used by the TCP `stats`
    /// and `metrics` ops).
    pub window_peak_queue_depth: u64,
    /// Mean achieved batch size (batched requests / batches).
    pub mean_batch: f64,
    /// Mean time-in-queue per request, milliseconds.
    pub mean_queue_ms: f64,
    pub queue_p50_ms: f64,
    pub queue_p99_ms: f64,
    pub execute_p50_ms: f64,
    pub execute_p99_ms: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    pub latency_p99_ms: f64,
    pub latency_max_ms: f64,
    pub batch_histogram: Vec<BatchBucket>,
    /// Filled by [`crate::Server::stats`]; default from [`ServeStats`] alone,
    /// which does not see the metric registry.
    pub load: LoadSummary,
}
