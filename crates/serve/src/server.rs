//! The in-process serving front end: admission control, per-model lanes,
//! and graceful shutdown. The TCP transport ([`crate::tcp`]) and the CLI's
//! `ramiel serve` are thin wrappers over [`Server`].

use crate::batcher::{Lane, Request};
use crate::plan::{CompiledPlan, PlanCache, PlanSpec};
use crate::stats::{AdmissionMetrics, LoadSummary, StatsSnapshot};
use crate::trace::TraceRing;
use crossbeam::channel::{unbounded, Receiver};
use ramiel_obs::metrics::{CounterHandle, HistHandle};
use ramiel_obs::{Metrics, Obs};
use ramiel_runtime::{Env, FaultInjector, RuntimeError, StealPool, SupervisorConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What happens when a model's submission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Reject immediately (load shedding): callers get
    /// [`ServeError::QueueFull`] and can back off themselves.
    Shed,
    /// Backpressure: block the submitter up to `max_wait` for space, then
    /// shed anyway (a bounded queue must stay bounded).
    Block { max_wait: Duration },
}

/// Which executor a lane uses for gathered batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeExecutor {
    /// Standing per-model [`ramiel_runtime::HyperPool`] (one worker per
    /// cluster, channel dataflow). The default.
    #[default]
    Hyper,
    /// Shared work-stealing pool ([`ramiel_runtime::StealPool::global`]):
    /// clusters become locality hints, workers are shared across models.
    Stealing,
}

/// Serving policy knobs.
#[derive(Clone)]
pub struct ServeConfig {
    /// Most requests one hypercluster execution may coalesce.
    pub max_batch: usize,
    /// Longest the collector waits after a batch's first request before
    /// executing whatever it has.
    pub max_delay: Duration,
    /// Bound on each model's submission queue.
    pub queue_capacity: usize,
    pub policy: OverflowPolicy,
    /// LRU bound on concurrently loaded plans.
    pub plan_capacity: usize,
    /// Intra-op threads for each plan's [`ramiel_tensor::ExecCtx`]
    /// (1 = sequential kernels).
    pub intra_op: usize,
    /// Retry/backoff/fallback policy for batch execution.
    pub supervisor: SupervisorConfig,
    /// Worker recv timeout; `None` uses `RAMIEL_RECV_TIMEOUT_MS` or 30s.
    pub recv_timeout: Option<Duration>,
    /// Fault injection shared by every lane (chaos tests).
    pub injector: Option<Arc<FaultInjector>>,
    /// Observability sink: batch/retry/fallback instants plus queue-depth
    /// and batch-size counters (disabled handle = one branch per event).
    pub obs: Obs,
    /// Batch executor: per-model hyper pool (default) or the shared
    /// work-stealing pool.
    pub executor: ServeExecutor,
    /// Bound on the in-memory per-request trace ring (`0` disables
    /// tracing; the TCP `trace` verb then returns an empty trace).
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            queue_capacity: 128,
            policy: OverflowPolicy::Block {
                max_wait: Duration::from_secs(1),
            },
            plan_capacity: 4,
            intra_op: 1,
            supervisor: SupervisorConfig::default(),
            recv_timeout: None,
            injector: None,
            obs: Obs::disabled(),
            executor: ServeExecutor::default(),
            trace_capacity: 4096,
        }
    }
}

/// The per-lane slice of [`ServeConfig`] (everything the collector and
/// admission path need).
#[derive(Clone)]
pub(crate) struct LaneConfig {
    pub max_batch: usize,
    pub max_delay: Duration,
    pub queue_capacity: usize,
    pub policy: OverflowPolicy,
    pub supervisor: SupervisorConfig,
    pub recv_timeout: Option<Duration>,
    pub injector: Option<Arc<FaultInjector>>,
    pub obs: Obs,
    pub executor: ServeExecutor,
    /// Server-wide trace ring shared by every lane (`None` = disabled).
    pub trace: Option<Arc<TraceRing>>,
    /// Timebase for trace-ring nanosecond offsets.
    pub epoch: Instant,
}

impl ServeConfig {
    pub(crate) fn lane(&self, trace: Option<Arc<TraceRing>>, epoch: Instant) -> LaneConfig {
        LaneConfig {
            max_batch: self.max_batch.max(1),
            max_delay: self.max_delay,
            queue_capacity: self.queue_capacity.max(1),
            policy: self.policy,
            supervisor: self.supervisor.clone(),
            recv_timeout: self.recv_timeout,
            injector: self.injector.clone(),
            obs: self.obs.clone(),
            executor: self.executor,
            trace,
            epoch,
        }
    }
}

/// Structured serving error. `code()` mirrors the runtime's RT-codes with
/// SV-codes for admission-level rejections.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// No plan loaded under this name.
    UnknownModel(String),
    /// Queue at capacity (after any backpressure wait) — load was shed.
    QueueFull { depth: usize },
    /// The request's deadline passed before it reached execution.
    DeadlineExceeded { stage: &'static str },
    /// The server is draining; new work is rejected.
    ShuttingDown,
    /// Execution failed (post-retry, post-fallback).
    Runtime(RuntimeError),
    /// Serving-layer invariant violation.
    Internal(String),
}

impl ServeError {
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::UnknownModel(_) => "SV-MODEL",
            ServeError::QueueFull { .. } => "SV-FULL",
            ServeError::DeadlineExceeded { .. } => "SV-DEADLINE",
            ServeError::ShuttingDown => "SV-SHUTDOWN",
            ServeError::Runtime(e) => e.code(),
            ServeError::Internal(_) => "SV-INTERNAL",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(m) => write!(f, "unknown model `{m}`"),
            ServeError::QueueFull { depth } => {
                write!(f, "queue full ({depth} requests); load shed")
            }
            ServeError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded ({stage})")
            }
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::Runtime(e) => write!(f, "{e}"),
            ServeError::Internal(m) => write!(f, "serving error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Handle to one in-flight request's response.
pub struct Ticket {
    rx: Receiver<Result<Env, ServeError>>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Block until the response arrives. The drain-on-shutdown guarantee
    /// makes this safe: every admitted request is answered.
    pub fn wait(self) -> Result<Env, ServeError> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(ServeError::Internal("response channel dropped".into())))
    }

    /// [`Ticket::wait`] with a caller-side bound.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Env, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(_) => Err(ServeError::DeadlineExceeded { stage: "wait" }),
        }
    }
}

/// Handles into the metric registry for the load path, resolved once per
/// server: where a `load` spends its time (`ramiel_load_phase_ns`), how the
/// registry answered (`ramiel_registry_pulls_total`) and how often the plan
/// cache evicted (`ramiel_plan_evictions_total`). The TCP `load` verb
/// records the registry phases that run before [`Server::load`] (fetch,
/// hash, store), and `ramiel serve` its file read through
/// [`Server::record_fetch`]; the server records import (handed to
/// [`Server::load_prepared`]), compile and swap.
pub(crate) struct LoadMetrics {
    pub fetch: HistHandle,
    pub hash: HistHandle,
    pub store: HistHandle,
    import: HistHandle,
    compile: HistHandle,
    swap: HistHandle,
    pub pull_hit: CounterHandle,
    pub pull_miss: CounterHandle,
    pub pull_checksum_refused: CounterHandle,
    evictions: CounterHandle,
}

impl LoadMetrics {
    fn new(m: &Metrics) -> LoadMetrics {
        let phase = |p: &str| {
            m.histogram(
                "ramiel_load_phase_ns",
                "model load time by phase, nanoseconds",
                &[("phase", p)],
            )
        };
        let pulls = |r: &str| {
            m.counter(
                "ramiel_registry_pulls_total",
                "registry pulls by result",
                &[("result", r)],
            )
        };
        LoadMetrics {
            fetch: phase("fetch"),
            hash: phase("hash"),
            store: phase("store"),
            import: phase("import"),
            compile: phase("compile"),
            swap: phase("swap"),
            pull_hit: pulls("hit"),
            pull_miss: pulls("miss"),
            pull_checksum_refused: pulls("checksum_refused"),
            evictions: m.counter(
                "ramiel_plan_evictions_total",
                "plans evicted from the LRU plan cache",
                &[],
            ),
        }
    }

    fn summary(&self) -> LoadSummary {
        let mean_ms = |h: &HistHandle| h.snapshot().mean() / 1e6;
        LoadSummary {
            loads: self.compile.snapshot().count,
            pulls_hit: self.pull_hit.get(),
            pulls_miss: self.pull_miss.get(),
            pulls_checksum_refused: self.pull_checksum_refused.get(),
            plan_evictions: self.evictions.get(),
            fetch_mean_ms: mean_ms(&self.fetch),
            hash_mean_ms: mean_ms(&self.hash),
            store_mean_ms: mean_ms(&self.store),
            import_mean_ms: mean_ms(&self.import),
            compile_mean_ms: mean_ms(&self.compile),
            swap_mean_ms: mean_ms(&self.swap),
        }
    }
}

/// Multi-model inference server. Thread-safe: share it behind an `Arc` and
/// call [`submit`](Self::submit)/[`infer`](Self::infer) from any number of
/// client threads.
pub struct Server {
    cfg: ServeConfig,
    cache: PlanCache,
    lanes: parking_lot::Mutex<HashMap<String, Lane>>,
    /// Evicted lanes, told to drain but not yet joined: `load` never waits
    /// for a drain. Reaped once their collector has exited (next `load`);
    /// `shutdown` moves every lane here and joins it.
    retired: parking_lot::Mutex<Vec<Lane>>,
    /// The one store of serve's counters and histograms: `stats` and the
    /// `metrics` verb are both views of it.
    metrics: Metrics,
    load_metrics: LoadMetrics,
    admission: AdmissionMetrics,
    shutting_down: AtomicBool,
    /// Bounded per-request trace ring, shared by all lanes.
    trace: Option<Arc<TraceRing>>,
    /// Timebase for trace offsets and rate windows.
    epoch: Instant,
    /// RequestId mint: ids are unique per server, starting at 1.
    next_id: AtomicU64,
}

impl Server {
    pub fn new(cfg: ServeConfig) -> Server {
        let cache = PlanCache::new(cfg.plan_capacity);
        let trace = if cfg.trace_capacity > 0 {
            Some(Arc::new(TraceRing::new(cfg.trace_capacity)))
        } else {
            None
        };
        let metrics = Metrics::enabled();
        Server {
            load_metrics: LoadMetrics::new(&metrics),
            admission: AdmissionMetrics::new(&metrics),
            metrics,
            cfg,
            cache,
            lanes: parking_lot::Mutex::new(HashMap::new()),
            retired: parking_lot::Mutex::new(Vec::new()),
            shutting_down: AtomicBool::new(false),
            trace,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
        }
    }

    /// Compile `spec` under `name` and start (or hot-reload) its lane.
    /// Reloading an existing name swaps the plan and wakes the lane to
    /// rebuild its workers; loading past the plan-cache capacity retires
    /// the least-recently-used model's lane. Either way the new lane's
    /// workers are being built when this returns, and nothing here waits
    /// for a retired lane: it answers what it had admitted and exits on
    /// its own, and a later `load` (or `shutdown`) collects it.
    pub fn load(&self, name: &str, spec: PlanSpec) -> Result<Arc<CompiledPlan>, ServeError> {
        self.load_after(name, spec, Duration::ZERO)
    }

    /// [`load`](Self::load) for a caller that ran the front of the load path
    /// itself: the TCP `load` verb imports the model first, and `ramiel
    /// serve` imports *and* schedules its start-up model before a server
    /// exists. `import` lands in the import phase and `prepare` (the time
    /// behind the clustering handed over in `spec`, zero when there is
    /// none) is counted into this load's compile phase,
    /// so `stats.load` covers the same work for the start-up model as for a
    /// TCP `load`.
    pub fn load_prepared(
        &self,
        name: &str,
        spec: PlanSpec,
        import: Duration,
        prepare: Duration,
    ) -> Result<Arc<CompiledPlan>, ServeError> {
        self.load_metrics.import.record_duration(import);
        self.load_after(name, spec, prepare)
    }

    /// Record the time a caller spent reading a model's bytes before
    /// importing them (`ramiel serve <file>` reading its start-up model),
    /// under the same `fetch` phase a TCP `load` records its read in.
    pub fn record_fetch(&self, took: Duration) {
        self.load_metrics.fetch.record_duration(took);
    }

    /// `compiled_before`: compile-phase time the caller already spent.
    fn load_after(
        &self,
        name: &str,
        spec: PlanSpec,
        compiled_before: Duration,
    ) -> Result<Arc<CompiledPlan>, ServeError> {
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let start = Instant::now();
        let (plan, evicted) = self.cache.load(name, spec, self.cfg.intra_op)?;
        self.load_metrics
            .compile
            .record_duration(compiled_before + start.elapsed());
        self.load_metrics.evictions.add(evicted.len() as u64);
        let start = Instant::now();
        let mut retiring: Vec<Lane> = Vec::new();
        {
            let mut lanes = self.lanes.lock();
            for old in &evicted {
                if let Some(lane) = lanes.remove(&old.name) {
                    retiring.push(lane);
                }
            }
            match lanes.get(name) {
                Some(lane) => lane.swap_plan(Arc::clone(&plan)),
                None => {
                    lanes.insert(
                        name.to_string(),
                        Lane::spawn(
                            Arc::clone(&plan),
                            self.cfg.lane(self.trace.clone(), self.epoch),
                            &self.metrics,
                        ),
                    );
                }
            }
        }
        for lane in &retiring {
            lane.begin_drain();
        }
        // Reap: retired lanes whose collector already exited drop here
        // (joining a finished thread does not block); the rest keep
        // draining.
        {
            let mut retired = self.retired.lock();
            retired.append(&mut retiring);
            retired.retain(|lane| !lane.is_finished());
        }
        self.load_metrics.swap.record_duration(start.elapsed());
        Ok(plan)
    }

    pub(crate) fn load_metrics(&self) -> &LoadMetrics {
        &self.load_metrics
    }

    /// The compiled plan for `name`, if loaded (marks it recently used).
    pub fn plan(&self, name: &str) -> Option<Arc<CompiledPlan>> {
        self.cache.get(name)
    }

    /// Loaded model names, most-recently-used first.
    pub fn models(&self) -> Vec<String> {
        self.cache.names()
    }

    /// Plan version per loaded model — bumped by every (re)load, so a
    /// client can verify a hot swap took effect via the `stats` verb.
    pub fn model_versions(&self) -> std::collections::BTreeMap<String, u64> {
        self.cache.versions().into_iter().collect()
    }

    /// Submit one inference without a deadline.
    pub fn submit(&self, model: &str, inputs: Env) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(model, inputs, None)
    }

    /// Submit one inference. `deadline` is absolute: work that would start
    /// after it is rejected (dead-on-arrival) instead of executed.
    pub fn submit_with_deadline(
        &self,
        model: &str,
        inputs: Env,
        deadline: Option<Instant>,
    ) -> Result<Ticket, ServeError> {
        if self.shutting_down.load(Ordering::SeqCst) {
            self.admission.shutdown.inc();
            return Err(ServeError::ShuttingDown);
        }
        let now = Instant::now();
        if deadline.is_some_and(|d| d < now) {
            self.admission.deadline.inc();
            return Err(ServeError::DeadlineExceeded { stage: "admission" });
        }
        // Clone the lane's shared state out so admission (which may block
        // under the backpressure policy) never holds the lane map lock.
        let shared = {
            let lanes = self.lanes.lock();
            match lanes.get(model) {
                Some(lane) => Arc::clone(&lane.shared),
                None => return Err(ServeError::UnknownModel(model.to_string())),
            }
        };
        let (tx, rx) = unbounded();
        shared.enqueue(Request {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            inputs,
            deadline,
            enqueued: now,
            popped: None,
            resp: tx,
        })?;
        Ok(Ticket { rx })
    }

    /// Submit and wait: the blocking convenience used by client threads.
    pub fn infer(&self, model: &str, inputs: Env) -> Result<Env, ServeError> {
        self.submit(model, inputs)?.wait()
    }

    /// Point-in-time serving counters, read from the metric registry. Resets
    /// no window: [`metrics_text`](Self::metrics_text) owns the peak window.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::read(
            &self.metrics,
            self.live_lanes(),
            self.load_metrics.summary(),
        )
    }

    /// Lane collector threads alive: serving, or retired and still draining.
    /// A collector exits only after its pool's workers joined.
    fn live_lanes(&self) -> u64 {
        let serving = self
            .lanes
            .lock()
            .values()
            .filter(|l| !l.is_finished())
            .count();
        let retired = self
            .retired
            .lock()
            .iter()
            .filter(|l| !l.is_finished())
            .count();
        (serving + retired) as u64
    }

    /// The per-model metric registry this server records into.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Prometheus text exposition of everything this process knows:
    /// per-model serve series from the registry, the shared steal-pool
    /// telemetry, and server-level gauges. Resets per-window gauges
    /// (scrape-interval delta semantics).
    pub fn metrics_text(&self) -> String {
        let mut out = self.metrics.render_prometheus(true);
        out.push_str("# HELP ramiel_server_models loaded model count\n");
        out.push_str("# TYPE ramiel_server_models gauge\n");
        out.push_str(&format!("ramiel_server_models {}\n", self.models().len()));
        out.push_str("# HELP ramiel_server_uptime_seconds seconds since server start\n");
        out.push_str("# TYPE ramiel_server_uptime_seconds counter\n");
        out.push_str(&format!(
            "ramiel_server_uptime_seconds {:.3}\n",
            self.epoch.elapsed().as_secs_f64()
        ));
        StealPool::global()
            .stats_and_reset_window()
            .render_prometheus(&mut out);
        out
    }

    /// The bounded per-request trace ring, if tracing is enabled.
    pub fn trace_ring(&self) -> Option<&Arc<TraceRing>> {
        self.trace.as_ref()
    }

    /// Chrome trace JSON of the most recent requests (empty `traceEvents`
    /// when tracing is disabled or nothing has been served yet).
    pub fn trace_chrome(&self) -> serde_json::Value {
        match &self.trace {
            Some(ring) => ring.to_chrome_trace(),
            None => serde_json::json!({ "traceEvents": [] }),
        }
    }

    /// Graceful drain: reject new submissions, execute everything already
    /// admitted, stop every lane's workers — retired lanes included.
    /// Idempotent; also runs on drop. The lanes wait out their drain on the
    /// retired list, so a `stats` read meanwhile waits for it too instead of
    /// missing them.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        let mut retired = self.retired.lock();
        retired.extend(self.lanes.lock().drain().map(|(_, lane)| lane));
        // All drain concurrently; then wait for each.
        for lane in retired.iter() {
            lane.begin_drain();
        }
        for lane in retired.iter_mut() {
            lane.shutdown();
        }
    }

    /// Whether [`shutdown`](Self::shutdown) has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}
