//! Serve's series in the metric registry, and the `stats` view of them.
//!
//! The registry is serve's one counter and histogram store: each lane
//! records into its `LaneMetrics`, admission into `AdmissionMetrics`,
//! and `StatsSnapshot::read` folds the series back together — counters
//! summed over every `model` series (evicted models' included, so totals
//! never go down), histograms merged, peaks maxed. A `stats` read resets no
//! window: the `metrics` scrape is the one window owner.

use ramiel_obs::metrics::bucket_bounds;
use ramiel_obs::{CounterHandle, GaugeHandle, HistHandle, Metrics, PeakHandle};
use serde::Serialize;

const REQUESTS: &str = "ramiel_requests_total";
const ADMITTED: &str = "ramiel_admitted_total";
const ADMISSION_REJECTED: &str = "ramiel_admission_rejected_total";
const RETRIES: &str = "ramiel_batch_retries_total";
const FALLBACKS: &str = "ramiel_batch_fallbacks_total";
const PHASE: &str = "ramiel_request_phase_ns";
const LATENCY: &str = "ramiel_request_latency_ns";
const BATCH_SIZE: &str = "ramiel_batch_size";
const WINDOW: &str = "ramiel_batch_window_total";
const QUEUE_PEAK: &str = "ramiel_queue_peak_depth";
const LANE_BUILD: &str = "ramiel_lane_build_ns";
pub(crate) const CONN_SPAWN_FAILED: &str = "ramiel_conn_spawn_failed_total";

/// Per-lane handles into the server's metric registry, resolved once at
/// lane spawn (label sets are fixed: the lane's model name).
pub(crate) struct LaneMetrics {
    pub queue_wait: HistHandle,
    pub batch_wait: HistHandle,
    pub execute: HistHandle,
    pub respond: HistHandle,
    pub latency: HistHandle,
    /// Achieved batch sizes (exact buckets below 16); its count is the
    /// number of batches run.
    pub batch_size: HistHandle,
    /// Requests accepted into the queue.
    pub admitted: CounterHandle,
    pub completed: CounterHandle,
    pub failed: CounterHandle,
    pub shed_queue_full: CounterHandle,
    pub shed_deadline: CounterHandle,
    pub rejected_shutdown: CounterHandle,
    /// Batch retries on the standing pool.
    pub retries: CounterHandle,
    /// Batches that degraded to per-request sequential execution.
    pub fallbacks: CounterHandle,
    pub queue_depth: GaugeHandle,
    pub queue_peak: PeakHandle,
    pub window_opened: CounterHandle,
    pub window_skipped: CounterHandle,
    pub lane_build: HistHandle,
}

impl LaneMetrics {
    pub fn new(m: &Metrics, model: &str) -> LaneMetrics {
        let phase = |p: &str| {
            m.histogram(
                PHASE,
                "per-request phase latency, nanoseconds",
                &[("model", model), ("phase", p)],
            )
        };
        let outcome = |o: &str| {
            m.counter(
                REQUESTS,
                "requests by final outcome",
                &[("model", model), ("outcome", o)],
            )
        };
        let window = |d: &str| {
            m.counter(
                WINDOW,
                "batches by whether the collector held them open for company",
                &[("model", model), ("decision", d)],
            )
        };
        let per_model = |name: &str, help: &str| m.counter(name, help, &[("model", model)]);
        LaneMetrics {
            queue_wait: phase("queue"),
            batch_wait: phase("batch"),
            execute: phase("execute"),
            respond: phase("respond"),
            latency: m.histogram(
                LATENCY,
                "end-to-end request latency (enqueue to response), nanoseconds",
                &[("model", model)],
            ),
            batch_size: m.histogram(
                BATCH_SIZE,
                "achieved micro-batch sizes",
                &[("model", model)],
            ),
            admitted: per_model(ADMITTED, "requests accepted into the submission queue"),
            completed: outcome("completed"),
            failed: outcome("failed"),
            shed_queue_full: outcome("shed_queue_full"),
            shed_deadline: outcome("shed_deadline"),
            rejected_shutdown: outcome("rejected_shutdown"),
            retries: per_model(RETRIES, "batch retries on the standing pool"),
            fallbacks: per_model(
                FALLBACKS,
                "batches degraded to per-request sequential execution",
            ),
            queue_depth: m.gauge(
                "ramiel_queue_depth",
                "submission queue depth at the last queue transition",
                &[("model", model)],
            ),
            queue_peak: m.peak_gauge(
                QUEUE_PEAK,
                "queue-depth high-water mark (per scrape window)",
                &[("model", model)],
            ),
            window_opened: window("opened"),
            window_skipped: window("skipped"),
            lane_build: m.histogram(
                LANE_BUILD,
                "time to (re)build a lane's worker pool, nanoseconds",
                &[("model", model)],
            ),
        }
    }
}

/// Requests refused before any lane saw them. The family has no `model`
/// label: no label is ever taken from a client-supplied model name.
pub(crate) struct AdmissionMetrics {
    pub shutdown: CounterHandle,
    pub deadline: CounterHandle,
    /// TCP connections closed unserved because no thread could be spawned
    /// for them.
    pub conn_spawn_failed: CounterHandle,
}

impl AdmissionMetrics {
    pub fn new(m: &Metrics) -> AdmissionMetrics {
        let reason = |r: &str| {
            m.counter(
                ADMISSION_REJECTED,
                "requests refused at admission, before any lane",
                &[("reason", r)],
            )
        };
        AdmissionMetrics {
            shutdown: reason("shutdown"),
            deadline: reason("deadline"),
            conn_spawn_failed: m.counter(
                CONN_SPAWN_FAILED,
                "connections closed unserved because their thread could not be spawned",
                &[],
            ),
        }
    }
}

/// The load path, summarised from the metric registry's
/// `ramiel_load_phase_ns`, `ramiel_registry_pulls_total` and
/// `ramiel_plan_evictions_total` series: enough to answer "why was this
/// `load` slow" from `stats`.
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
    /// Queue-depth high-water mark since the last `metrics` scrape, which
    /// owns the window.
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
    pub load: LoadSummary,
}

impl StatsSnapshot {
    /// The `stats` view of `m`. `live_lanes` and `load` are read by the
    /// caller: the first from its lanes, the second from its load handles.
    pub(crate) fn read(m: &Metrics, live_lanes: u64, load: LoadSummary) -> StatsSnapshot {
        let sum = |name: &str, with: &[(&str, &str)]| m.read(name, with).sum;
        let outcome = |o: &str| sum(REQUESTS, &[("outcome", o)]);
        let refused = |r: &str| sum(ADMISSION_REJECTED, &[("reason", r)]);
        let hist = |name: &str, with: &[(&str, &str)]| m.read(name, with).histogram;
        let sizes = hist(BATCH_SIZE, &[]);
        let queue = hist(PHASE, &[("phase", "queue")]);
        let execute = hist(PHASE, &[("phase", "execute")]);
        let latency = hist(LATENCY, &[]);
        let lane_build = hist(LANE_BUILD, &[]);
        let peak = m.read(QUEUE_PEAK, &[]);
        let ms = |ns: u64| ns as f64 / 1e6;
        StatsSnapshot {
            submitted: sum(ADMITTED, &[]),
            completed: outcome("completed"),
            failed: outcome("failed"),
            shed_queue_full: outcome("shed_queue_full"),
            shed_deadline: outcome("shed_deadline") + refused("deadline"),
            rejected_shutdown: outcome("rejected_shutdown") + refused("shutdown"),
            batches: sizes.count,
            retries: sum(RETRIES, &[]),
            fallbacks: sum(FALLBACKS, &[]),
            windows_opened: sum(WINDOW, &[("decision", "opened")]),
            windows_skipped: sum(WINDOW, &[("decision", "skipped")]),
            live_lanes,
            lane_builds: lane_build.count,
            lane_build_mean_ms: lane_build.mean() / 1e6,
            peak_queue_depth: peak.lifetime_peak,
            window_peak_queue_depth: peak.window_peak,
            mean_batch: sizes.mean(),
            mean_queue_ms: queue.mean() / 1e6,
            queue_p50_ms: ms(queue.percentile(0.5)),
            queue_p99_ms: ms(queue.percentile(0.99)),
            execute_p50_ms: ms(execute.percentile(0.5)),
            execute_p99_ms: ms(execute.percentile(0.99)),
            latency_p50_ms: ms(latency.percentile(0.5)),
            latency_p90_ms: ms(latency.percentile(0.9)),
            latency_p99_ms: ms(latency.percentile(0.99)),
            latency_max_ms: ms(latency.max),
            batch_histogram: sizes
                .nonzero()
                .map(|(i, count)| BatchBucket {
                    // Exact below 16; the bucket's lower edge above.
                    size: bucket_bounds(i).0 as usize,
                    count,
                })
                .collect(),
            load,
        }
    }
}
