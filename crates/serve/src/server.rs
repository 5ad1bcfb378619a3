//! The in-process serving front end: admission control, per-model lanes,
//! and graceful shutdown. The TCP transport ([`crate::tcp`]) and the CLI's
//! `ramiel serve` are thin wrappers over [`Server`]. Serving has one
//! executor: every lane runs its batches on the plan's standing
//! [`ramiel_runtime::HyperPool`], and a server starts no other pool.

use crate::batcher::{Lane, LaneShared, Request};
use crate::plan::{CompiledPlan, Layout, PlanSpec};
use crate::registry::{self, Pulled, Registry, RegistryError};
use crate::stats::{AdmissionMetrics, LoadSummary, StatsSnapshot};
use crate::trace::TraceRing;
use crossbeam::channel::{unbounded, Receiver};
use ramiel_ir::Graph;
use ramiel_obs::metrics::{CounterHandle, HistHandle};
use ramiel_obs::Metrics;
use ramiel_onnx::OnnxError;
use ramiel_runtime::{Env, FaultInjector, RuntimeError, SupervisorConfig};
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

/// Serving policy knobs. Every lane of a server runs with the server's
/// copy, whose `max_batch`, `queue_capacity` and `plan_capacity`
/// [`Server::new`] raised to at least 1.
#[derive(Clone)]
pub struct ServeConfig {
    /// Most requests one hypercluster execution may coalesce: the
    /// collector takes whatever is queued when it pops, up to this many.
    pub max_batch: usize,
    /// Bound on each model's submission queue.
    pub queue_capacity: usize,
    pub policy: OverflowPolicy,
    /// Bound on loaded models: a load past it retires the least recently
    /// used model's lane.
    pub plan_capacity: usize,
    /// Retry/backoff/fallback policy for batch execution.
    pub supervisor: SupervisorConfig,
    /// Worker recv timeout; `None` uses
    /// [`ramiel_runtime::limits::DEFAULT_RECV_TIMEOUT_MS`].
    pub recv_timeout: Option<Duration>,
    /// Fault injection shared by every lane (chaos tests).
    pub injector: Option<Arc<FaultInjector>>,
}

/// Entries the per-request trace ring keeps: the most recent requests.
const TRACE_CAPACITY: usize = 4096;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            queue_capacity: 128,
            policy: OverflowPolicy::Block {
                max_wait: Duration::from_secs(1),
            },
            plan_capacity: 4,
            supervisor: SupervisorConfig::default(),
            recv_timeout: None,
            injector: None,
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
    /// A model's bytes could not be read or pulled (carries its `RG-*`
    /// code).
    Registry(RegistryError),
    /// The importer refused a model's bytes (carries its `ONNX-*` code).
    Import(OnnxError),
    /// A request line ran past the transport's `limit` bytes.
    LineTooLong { limit: usize },
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
            ServeError::Registry(e) => e.code(),
            ServeError::Import(e) => e.code(),
            ServeError::LineTooLong { .. } => "SV-LIMIT",
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
            ServeError::Registry(e) => write!(f, "{e}"),
            ServeError::Import(e) => write!(f, "{e}"),
            ServeError::LineTooLong { limit } => {
                write!(
                    f,
                    "request line longer than {limit} bytes; connection closed"
                )
            }
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
/// server: where a load spends its time (`ramiel_load_phase_ns`), how the
/// registry answered (`ramiel_registry_pulls_total`) and how often the
/// model table retired a model (`ramiel_plan_evictions_total`).
/// [`Server::load_onnx`] records every phase from fetch on; [`Server::load`]
/// starts at compile.
struct LoadMetrics {
    fetch: HistHandle,
    hash: HistHandle,
    store: HistHandle,
    import: HistHandle,
    compile: HistHandle,
    swap: HistHandle,
    pull_hit: CounterHandle,
    pull_miss: CounterHandle,
    pull_checksum_refused: CounterHandle,
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
                "models retired from the model table, least recently used first",
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

/// Where [`Server::load_onnx`] reads a model's ONNX bytes from.
pub enum Source<'a> {
    /// A model reference (`file://…`, `http://…` or a path) pulled through
    /// `registry`: fetched (from the cache when `pin` is cached), hashed,
    /// refused if it misses `pin`, and stored under its digest.
    Pull {
        registry: &'a Registry,
        reference: &'a str,
        pin: Option<&'a str>,
    },
    /// A local file, read as it is.
    File(&'a str),
}

/// The model table: each loaded name's lane, which holds its plan. A
/// load changes it under its lock, minting the plan's version there, so
/// the version order is the order the lanes took their plans in.
struct ModelTable {
    lanes: HashMap<String, Lane>,
    /// The version the next installed plan gets.
    next_version: u64,
}

/// Multi-model inference server. Thread-safe: share it behind an `Arc` and
/// call [`submit`](Self::submit)/[`infer`](Self::infer) from any number of
/// client threads.
///
/// Recency: a load or an admitted submission makes a model the most
/// recently used; a lookup ([`plan`](Self::plan), [`models`](Self::models),
/// [`stats`](Self::stats)) does not. A load past `plan_capacity` retires
/// the least recently used model.
pub struct Server {
    cfg: ServeConfig,
    models: parking_lot::Mutex<ModelTable>,
    /// Recency clock: [`touch`](Self::touch) stamps a lane with its next
    /// tick.
    clock: AtomicU64,
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
    trace: Arc<TraceRing>,
    /// Timebase for trace offsets and rate windows.
    epoch: Instant,
    /// RequestId mint: ids are unique per server, starting at 1.
    next_id: AtomicU64,
}

impl Server {
    pub fn new(mut cfg: ServeConfig) -> Server {
        cfg.max_batch = cfg.max_batch.max(1);
        cfg.queue_capacity = cfg.queue_capacity.max(1);
        cfg.plan_capacity = cfg.plan_capacity.max(1);
        let metrics = Metrics::enabled();
        Server {
            load_metrics: LoadMetrics::new(&metrics),
            admission: AdmissionMetrics::new(&metrics),
            metrics,
            cfg,
            models: parking_lot::Mutex::new(ModelTable {
                lanes: HashMap::new(),
                next_version: 1,
            }),
            clock: AtomicU64::new(1),
            retired: parking_lot::Mutex::new(Vec::new()),
            shutting_down: AtomicBool::new(false),
            trace: Arc::new(TraceRing::new(TRACE_CAPACITY)),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
        }
    }

    /// Compile `spec` under `name` and start (or hot-reload) its lane.
    /// Reloading an existing name swaps the plan and wakes the lane to
    /// rebuild its workers; loading past `plan_capacity` retires the least
    /// recently used model's lane. Either way the new lane's
    /// workers are being built when this returns, and nothing here waits
    /// for a retired lane: it answers what it had admitted and exits on
    /// its own, and a later load (or `shutdown`) collects it.
    pub fn load(&self, name: &str, spec: PlanSpec) -> Result<Arc<CompiledPlan>, ServeError> {
        let start = Instant::now();
        let layout = Layout::new(&spec.graph, &spec.graph.adjacency())?;
        self.install(name, spec, layout, start.elapsed())
    }

    /// Take a model's ONNX bytes from `source` to a plan installed under
    /// `name`, as [`load`](Self::load) installs one. The plan is laid out
    /// over the adjacency snapshot the importer checked the graph with, so
    /// the whole path builds one. Each phase lands in
    /// `ramiel_load_phase_ns`: the read (see [`fetch`](Self::fetch)), the
    /// decode and checks as `import`, and the schedule, fold and plan build
    /// as `compile`. A refused pin stops before anything is cached, imported
    /// or installed. Returns the plan and, for a pull, what the registry
    /// resolved.
    pub fn load_onnx(
        &self,
        name: &str,
        source: Source<'_>,
        switched: bool,
    ) -> Result<(Arc<CompiledPlan>, Option<Pulled>), ServeError> {
        let (bytes, pulled) = self.fetch(source)?;
        // The bytes are dropped once imported.
        let (graph, layout, planning) = self.import(&bytes)?;
        drop(bytes);
        let spec = PlanSpec { graph, switched };
        Ok((self.install(name, spec, layout, planning)?, pulled))
    }

    /// Read a model's ONNX bytes from `source`, recording the read as the
    /// `fetch` load phase, and a pull's hashing and storing as `hash` and
    /// `store` (its answer in `ramiel_registry_pulls_total`). A caller that
    /// rewrites the graph before [`load`](Self::load)ing it reads its bytes
    /// here, so its pull is verified and counted as `load_onnx` counts one.
    pub fn fetch(&self, source: Source<'_>) -> Result<(Vec<u8>, Option<Pulled>), ServeError> {
        let m = &self.load_metrics;
        match source {
            Source::Pull {
                registry,
                reference,
                pin,
            } => {
                let refused = |e: RegistryError| {
                    if matches!(e, RegistryError::Checksum { .. }) {
                        m.pull_checksum_refused.inc();
                    }
                    ServeError::Registry(e)
                };
                let fetched = registry.fetch(reference, pin).map_err(refused)?;
                m.fetch.record_duration(fetched.fetch_time());
                let pulled = registry.admit(&fetched).map_err(refused)?;
                if pulled.cache_hit {
                    m.pull_hit.inc();
                } else {
                    m.pull_miss.inc();
                    m.hash.record_duration(pulled.hash);
                    m.store.record_duration(pulled.store);
                }
                Ok((fetched.into_data(), Some(pulled)))
            }
            Source::File(path) => {
                let start = Instant::now();
                let bytes = registry::read_file(path).map_err(ServeError::Registry)?;
                m.fetch.record_duration(start.elapsed());
                Ok((bytes, None))
            }
        }
    }

    /// Import ONNX `bytes` and lay the plan out inside the importer's
    /// callback. Records the import phase; returns the layout's time, the
    /// front of the compile phase.
    fn import(&self, bytes: &[u8]) -> Result<(Graph, Layout, Duration), ServeError> {
        let start = Instant::now();
        let (graph, (layout, planning)) = ramiel_onnx::import_model_with(bytes, |g, adj| {
            let start = Instant::now();
            (Layout::new(g, adj), start.elapsed())
        })
        .map_err(ServeError::Import)?;
        self.load_metrics
            .import
            .record_duration(start.elapsed().saturating_sub(planning));
        Ok((graph, layout?, planning))
    }

    /// Count a TCP connection closed unserved because its thread could not
    /// be spawned.
    pub(crate) fn count_conn_spawn_failure(&self) {
        self.admission.conn_spawn_failed.inc();
    }

    /// Build the plan, then, under the table lock, give it its version
    /// and swap it into its lane (or spawn one) and retire the least
    /// recently used lanes past `plan_capacity`. `laid_out` is the
    /// compile-phase time already spent on `layout`.
    fn install(
        &self,
        name: &str,
        spec: PlanSpec,
        layout: Layout,
        laid_out: Duration,
    ) -> Result<Arc<CompiledPlan>, ServeError> {
        let start = Instant::now();
        let mut plan = CompiledPlan::build(name, spec, layout)?;
        self.load_metrics
            .compile
            .record_duration(laid_out + start.elapsed());
        let start = Instant::now();
        let mut retiring: Vec<Lane> = Vec::new();
        let plan = {
            let mut table = self.models.lock();
            // Under the lock `shutdown` drains the table with: no lane is
            // spawned after it.
            if self.shutting_down.load(Ordering::SeqCst) {
                return Err(ServeError::ShuttingDown);
            }
            plan.version = table.next_version;
            table.next_version += 1;
            let plan = Arc::new(plan);
            match table.lanes.get(name) {
                Some(lane) => lane.swap_plan(Arc::clone(&plan)),
                None => {
                    let trace = Arc::clone(&self.trace);
                    let lane = Lane::spawn(
                        Arc::clone(&plan),
                        self.cfg.clone(),
                        trace,
                        self.epoch,
                        &self.metrics,
                    );
                    table.lanes.insert(name.to_string(), lane);
                }
            }
            self.touch(&table.lanes[name].shared);
            while table.lanes.len() > self.cfg.plan_capacity {
                let oldest = (table.lanes.iter())
                    .filter(|(n, _)| *n != name)
                    .min_by_key(|(_, l)| l.shared.last_used.load(Ordering::Relaxed))
                    .map(|(n, _)| n.clone())
                    .expect("more lanes than plan_capacity >= 1");
                retiring.extend(table.lanes.remove(&oldest));
            }
            plan
        };
        self.load_metrics.evictions.add(retiring.len() as u64);
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

    /// Make `lane`'s model the most recently used.
    fn touch(&self, lane: &LaneShared) {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        lane.last_used.fetch_max(tick, Ordering::Relaxed);
    }

    /// The compiled plan `name` serves now, if loaded.
    pub fn plan(&self, name: &str) -> Option<Arc<CompiledPlan>> {
        self.models.lock().lanes.get(name).map(|l| l.shared.plan())
    }

    /// Loaded model names, most recently used first.
    pub fn models(&self) -> Vec<String> {
        let table = self.models.lock();
        let mut lanes: Vec<_> = table.lanes.iter().collect();
        lanes.sort_by_key(|(_, l)| std::cmp::Reverse(l.shared.last_used.load(Ordering::Relaxed)));
        lanes.into_iter().map(|(name, _)| name.clone()).collect()
    }

    /// Plan version per loaded model — bumped by every (re)load, so a
    /// client can verify a hot swap took effect via the `stats` verb.
    pub fn model_versions(&self) -> std::collections::BTreeMap<String, u64> {
        let table = self.models.lock();
        let versions = table
            .lanes
            .iter()
            .map(|(n, l)| (n.clone(), l.shared.plan().version));
        versions.collect()
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
        self.admit(model, deadline, |_| Ok(inputs))
    }

    /// Admission for one request to `model`, which is looked up once:
    /// refused after shutdown or past `deadline`, else its inputs are built
    /// from the plan the lane serves and queued, which makes the model the
    /// most recently used.
    pub(crate) fn admit(
        &self,
        model: &str,
        deadline: Option<Instant>,
        inputs: impl FnOnce(&CompiledPlan) -> Result<Env, ServeError>,
    ) -> Result<Ticket, ServeError> {
        if self.shutting_down.load(Ordering::SeqCst) {
            self.admission.shutdown.inc();
            return Err(ServeError::ShuttingDown);
        }
        if deadline.is_some_and(|d| d < Instant::now()) {
            self.admission.deadline.inc();
            return Err(ServeError::DeadlineExceeded { stage: "admission" });
        }
        // Clone the lane's shared state out so admission (which may block
        // under the backpressure policy) never holds the table lock.
        let lane = (self.models.lock().lanes.get(model))
            .map(|l| Arc::clone(&l.shared))
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        let inputs = inputs(&lane.plan())?;
        let (tx, rx) = unbounded();
        lane.enqueue(Request {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            inputs,
            deadline,
            enqueued: Instant::now(),
            popped: None,
            resp: tx,
        })?;
        self.touch(&lane);
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
        let serving = (self.models.lock().lanes.values())
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

    /// Prometheus text exposition of the server: per-model serve series
    /// from the registry and server-level gauges. Resets per-window gauges
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
        out
    }

    /// The bounded per-request trace ring.
    pub fn trace_ring(&self) -> &TraceRing {
        &self.trace
    }

    /// Chrome trace JSON of the most recent requests (no events before
    /// anything has been served).
    pub fn trace_chrome(&self) -> serde_json::Value {
        self.trace.to_chrome_trace()
    }

    /// Graceful drain: reject new submissions, execute everything already
    /// admitted, stop every lane's workers — retired lanes included.
    /// Idempotent; also runs on drop. The lanes wait out their drain on the
    /// retired list, so a `stats` read meanwhile waits for it too instead of
    /// missing them.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        let mut retired = self.retired.lock();
        retired.extend(self.models.lock().lanes.drain().map(|(_, lane)| lane));
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
