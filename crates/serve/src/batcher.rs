//! Per-model dynamic micro-batcher.
//!
//! Each loaded model gets one *lane*: a bounded submission queue
//! (`std::sync::Mutex` + `Condvar` — the vendored `parking_lot` has no
//! condvar) drained by a dedicated collector thread. The collector blocks
//! for the first request, takes whatever else is already queued behind it
//! (up to `max_batch`), and runs them at once as ONE hypercluster job on a
//! persistent [`HyperPool`], the lane's only executor, whose workers live
//! as long as the lane's plan version. Per-sample outputs scatter back to
//! per-request one-shot channels.
//!
//! ## A lane dispatches on arrival
//!
//! The collector never holds a batch open for requests that have not
//! arrived yet: batches form only from requests that queued while the
//! previous batch executed. Waiting for a partner does not pay on a CPU
//! whose cores the standing workers already hold: a batch-2 NASNet run
//! takes nearly twice as long as a batch-1 run, so a 2 ms window saved
//! about 1 ms of execution per pair of requests.
//!
//! ## Lane lifecycle
//!
//! The collector builds its pool when the lane is spawned — before any
//! request, overlapping the `load` reply — and rebuilds it when
//! `Lane::swap_plan` wakes it with a new plan version. A request that
//! races a swap still finds the rebuild on its path; that time is recorded
//! under `ramiel_lane_build_ns` and counted as execution, not batch-wait.
//!
//! ## State machine (per collector iteration)
//!
//! ```text
//!        ┌──── idle: sync pool to plan version, wait(not_empty) ────┐
//!        ▼                                                          │
//!   pop first + everything queued behind it, up to max_batch        │
//!        ▼                                                          │
//!   drop dead-on-arrival (deadline passed in queue)                 │
//!        ▼                                                          │
//!   supervise(batch on HyperPool, one request on the sequential     │
//!             executor): retry retryable failures (≤ max_retries);  │
//!             with fallback, after that or after a deterministic    │
//!             failure of a batch of 2+, re-run each request alone   │
//!        ▼                                                          │
//!   scatter one result per request ─────────────────────────────────┘
//! ```
//!
//! Draining: shutdown flips `draining` *under the queue lock* (so
//! admission is linearized against it), wakes everything, and the
//! collector keeps executing until the queue is empty — in-flight and
//! already-queued requests complete; new ones are rejected.

use crate::plan::CompiledPlan;
use crate::server::{OverflowPolicy, ServeConfig, ServeError};
use crate::stats::LaneMetrics;
use crate::trace::{RequestTrace, TraceRing};
use crossbeam::channel::Sender;
use ramiel_obs::Metrics;
use ramiel_runtime::supervisor::supervise;
use ramiel_runtime::{run_sequential_opts, Env, HyperPool, RunOptions, RuntimeError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// One queued inference request.
pub(crate) struct Request {
    /// Server-unique id minted at admission; names the request in the
    /// trace ring.
    pub id: u64,
    pub inputs: Env,
    pub deadline: Option<Instant>,
    pub enqueued: Instant,
    /// When the collector popped this request off the queue (`None` until
    /// then). Queue-wait = popped − enqueued; batch-wait = exec − popped.
    pub popped: Option<Instant>,
    /// One-shot response channel (crossbeam unbounded, used once).
    pub resp: Sender<Result<Env, ServeError>>,
}

pub(crate) struct LaneShared {
    queue: StdMutex<VecDeque<Request>>,
    /// Signalled on push; the collector waits here.
    not_empty: Condvar,
    /// Signalled on pop; blocked (backpressure-policy) submitters wait here.
    space: Condvar,
    /// Set under the queue lock by `shutdown`, read under it by admission
    /// and the collector's exit check.
    draining: AtomicBool,
    /// Swapped on hot reload; [`Lane::swap_plan`] wakes the collector,
    /// which rebuilds its pool for the new version.
    plan: parking_lot::Mutex<Arc<CompiledPlan>>,
    /// The server's recency tick of the last load or admitted submission;
    /// the model table retires the lane with the oldest.
    pub last_used: AtomicU64,
    /// The server's config (`max_batch` and `queue_capacity` at least 1).
    cfg: ServeConfig,
    /// Server-wide trace ring shared by every lane.
    trace: Arc<TraceRing>,
    /// Timebase for trace-ring nanosecond offsets.
    epoch: Instant,
    /// The lane's model name (stable across hot reloads — lanes are keyed
    /// by name), used for metric labels and trace entries.
    model: String,
    metrics: LaneMetrics,
}

fn lock<'a, T>(m: &'a StdMutex<T>) -> MutexGuard<'a, T> {
    // A collector panic can poison the queue mutex; the data (a request
    // queue) stays valid, so keep serving rather than cascading panics.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running lane: shared state + the collector thread's handle.
pub(crate) struct Lane {
    pub shared: Arc<LaneShared>,
    handle: Option<JoinHandle<()>>,
}

impl Lane {
    pub fn spawn(
        plan: Arc<CompiledPlan>,
        cfg: ServeConfig,
        trace: Arc<TraceRing>,
        epoch: Instant,
        registry: &Metrics,
    ) -> Lane {
        let model = plan.name.clone();
        let metrics = LaneMetrics::new(registry, &model);
        let shared = Arc::new(LaneShared {
            queue: StdMutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            space: Condvar::new(),
            draining: AtomicBool::new(false),
            plan: parking_lot::Mutex::new(plan),
            last_used: AtomicU64::new(0),
            cfg,
            trace,
            epoch,
            model,
            metrics,
        });
        let collector_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("ramiel-serve-lane".into())
            .spawn(move || collector(collector_shared))
            .expect("spawn lane collector");
        Lane {
            shared,
            handle: Some(handle),
        }
    }

    /// Reject new work and tell the collector to finish what is queued and
    /// exit. Does not wait for it: every admitted request is still
    /// answered, by the collector, on its own time.
    pub fn begin_drain(&self) {
        {
            let _q = lock(&self.shared.queue);
            self.shared.draining.store(true, Ordering::SeqCst);
        }
        self.shared.not_empty.notify_all();
        self.shared.space.notify_all();
    }

    /// Whether the collector (and with it the pool's workers) has exited.
    pub fn is_finished(&self) -> bool {
        self.handle.as_ref().is_none_or(JoinHandle::is_finished)
    }

    /// Drain and stop: reject new work, execute everything queued, join
    /// the collector (which drops the pool's workers). Idempotent.
    pub fn shutdown(&mut self) {
        self.begin_drain();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// Swap in a reloaded plan and wake the collector so it rebuilds its
    /// pool now, not inside the next request. A batch already gathered
    /// runs on whichever plan it reads at its execution boundary.
    pub fn swap_plan(&self, plan: Arc<CompiledPlan>) {
        *self.shared.plan.lock() = plan;
        // Through the queue lock, so a collector that has compared versions
        // but not parked yet cannot miss the wake.
        drop(lock(&self.shared.queue));
        self.shared.not_empty.notify_all();
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl LaneShared {
    /// The plan the lane serves now.
    pub fn plan(&self) -> Arc<CompiledPlan> {
        Arc::clone(&self.plan.lock())
    }

    /// What every execution of `plan` on this lane runs with, over the
    /// plan's one weight table: pool workers at build time (which index
    /// it) and the sequential fallback per batch (which looks weights up
    /// by name).
    fn run_opts(&self, plan: &CompiledPlan) -> RunOptions {
        RunOptions {
            injector: self.cfg.injector.clone(),
            recv_timeout: self.cfg.recv_timeout,
            init_values: Some(Arc::clone(&plan.weights)),
            ..RunOptions::default()
        }
    }

    /// Admission: enforce the bounded queue per the overflow policy, then
    /// enqueue and wake the collector.
    pub fn enqueue(&self, req: Request) -> Result<(), ServeError> {
        let mut q = lock(&self.queue);
        if self.draining.load(Ordering::SeqCst) {
            self.metrics.rejected_shutdown.inc();
            return Err(ServeError::ShuttingDown);
        }
        if q.len() >= self.cfg.queue_capacity {
            match self.cfg.policy {
                OverflowPolicy::Shed => {
                    self.metrics.shed_queue_full.inc();
                    return Err(ServeError::QueueFull { depth: q.len() });
                }
                OverflowPolicy::Block { max_wait } => {
                    let give_up = Instant::now() + max_wait;
                    while q.len() >= self.cfg.queue_capacity
                        && !self.draining.load(Ordering::SeqCst)
                    {
                        let now = Instant::now();
                        if now >= give_up {
                            self.metrics.shed_queue_full.inc();
                            return Err(ServeError::QueueFull { depth: q.len() });
                        }
                        let (guard, _timeout) = self
                            .space
                            .wait_timeout(q, give_up - now)
                            .unwrap_or_else(|e| e.into_inner());
                        q = guard;
                    }
                    if self.draining.load(Ordering::SeqCst) {
                        self.metrics.rejected_shutdown.inc();
                        return Err(ServeError::ShuttingDown);
                    }
                }
            }
        }
        q.push_back(req);
        let depth = q.len();
        drop(q);
        self.metrics.admitted.inc();
        self.metrics.queue_depth.set(depth as u64);
        self.metrics.queue_peak.observe(depth as u64);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Record everything about an answered request in one place: the four
    /// phase histograms (queue-wait, batch-wait, execute, respond), the
    /// end-to-end latency, the per-model outcome counter, and one
    /// [`RequestTrace`] ring entry.
    ///
    /// `exec_start..exec_end` is the batch's execution window (equal
    /// instants for requests that never executed). Phase deltas use
    /// `saturating_duration_since`, so slightly out-of-order stamps clamp
    /// to zero instead of panicking.
    ///
    /// Call this BEFORE sending the response: once a caller's `wait()`
    /// returns, its request is fully visible in metrics, `stats` and the
    /// trace ring.
    fn observe_done(
        &self,
        r: &Request,
        outcome: &'static str,
        batch: usize,
        exec_start: Instant,
        exec_end: Instant,
    ) {
        let responded = Instant::now();
        let popped = r.popped.unwrap_or(r.enqueued);
        let queue = popped.saturating_duration_since(r.enqueued);
        let batch_wait = exec_start.saturating_duration_since(popped);
        let execute = exec_end.saturating_duration_since(exec_start);
        let respond = responded.saturating_duration_since(exec_end);
        let latency = responded.saturating_duration_since(r.enqueued);

        self.metrics.queue_wait.record_duration(queue);
        self.metrics.batch_wait.record_duration(batch_wait);
        self.metrics.execute.record_duration(execute);
        self.metrics.respond.record_duration(respond);
        self.metrics.latency.record_duration(latency);
        match outcome {
            "completed" => self.metrics.completed.inc(),
            "failed" => self.metrics.failed.inc(),
            "shed_deadline" => self.metrics.shed_deadline.inc(),
            _ => {}
        }

        let ns = |i: Instant| i.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.trace.push(RequestTrace {
            id: r.id,
            model: self.model.clone(),
            batch,
            outcome,
            enqueued_ns: ns(r.enqueued),
            popped_ns: ns(popped),
            exec_start_ns: ns(exec_start),
            exec_end_ns: ns(exec_end),
            responded_ns: ns(responded),
        });
    }
}

/// The lane's standing pool and the plan version it was last built for
/// (0 = never). `pool` is `None` while no build for `version` succeeded;
/// the next batch then retries and reports the failure as its own.
struct LanePool {
    version: u64,
    pool: Option<HyperPool>,
}

impl LanePool {
    /// Bring the pool to `plan`'s version. A version change means new
    /// graph/weights, so the standing workers are rebuilt (old ones join
    /// first).
    fn sync(&mut self, sh: &LaneShared, plan: &CompiledPlan) -> Result<(), RuntimeError> {
        if self.version == plan.version && self.pool.is_some() {
            return Ok(());
        }
        let start = Instant::now();
        self.pool = None;
        self.version = plan.version;
        let built = HyperPool::with_options(
            &plan.graph,
            plan.num_clusters(),
            &plan.ctx,
            &sh.run_opts(plan),
        );
        sh.metrics.lane_build.record_duration(start.elapsed());
        self.pool = Some(built?);
        Ok(())
    }
}

/// The collector thread: sync pool → idle-wait → pop → execute, until
/// drained. The pool is a local, so the thread finishes only after the
/// pool's workers joined: a finished collector is a lane with no threads.
fn collector(sh: Arc<LaneShared>) {
    let mut pool = LanePool {
        version: 0,
        pool: None,
    };
    loop {
        // Off the request path: at spawn, and when a swap woke us. A failed
        // build is retried — and reported — by the next batch.
        let _ = pool.sync(&sh, &sh.plan());
        let batch: Vec<Request> = {
            // Idle: block for the first request of the next batch, and take
            // whatever queued up behind it.
            let mut q = lock(&sh.queue);
            loop {
                let n = q.len().min(sh.cfg.max_batch);
                if n > 0 {
                    let popped = Instant::now();
                    let batch = q
                        .drain(..n)
                        .map(|mut r| {
                            r.popped = Some(popped);
                            r
                        })
                        .collect();
                    sh.metrics.queue_depth.set(q.len() as u64);
                    sh.space.notify_all();
                    break batch;
                }
                if sh.draining.load(Ordering::SeqCst) {
                    return; // drained: queue empty and no new admissions
                }
                if sh.plan.lock().version != pool.version {
                    break Vec::new(); // hot swap: rebuild before the next request
                }
                q = sh.not_empty.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        if !batch.is_empty() {
            execute_batch(&sh, &mut pool, batch);
        }
    }
}

fn fail_all(
    sh: &LaneShared,
    batch: Vec<Request>,
    err: &ServeError,
    exec_start: Instant,
    exec_end: Instant,
) {
    let n = batch.len();
    for r in batch {
        sh.observe_done(&r, "failed", n, exec_start, exec_end);
        let _ = r.resp.send(Err(err.clone()));
    }
}

/// Execute one gathered batch: deadline-filter, rebuild the pool if a hot
/// swap raced this batch, run it under
/// [`ramiel_runtime::supervisor::supervise`], scatter the per-request
/// results.
fn execute_batch(sh: &LaneShared, pool: &mut LanePool, batch: Vec<Request>) {
    // Dead-on-arrival filter: reject expired work *before* spending any
    // execution on it.
    let now = Instant::now();
    let mut live: Vec<Request> = Vec::with_capacity(batch.len());
    for r in batch {
        if r.deadline.is_some_and(|d| d < now) {
            // Dead-on-arrival: the execution window is empty.
            sh.observe_done(&r, "shed_deadline", 0, now, now);
            let _ = r
                .resp
                .send(Err(ServeError::DeadlineExceeded { stage: "queued" }));
        } else {
            live.push(r);
        }
    }
    if live.is_empty() {
        return;
    }

    let plan = sh.plan();
    // Hot reload boundary. The idle collector already rebuilt for every
    // swap it was woken for; only a swap that raced this batch leaves work
    // here. That rebuild is execution set-up, not waiting for batch-mates:
    // the execution window starts before it.
    let mut exec_start = None;
    if pool.version != plan.version || pool.pool.is_none() {
        let t = Instant::now();
        exec_start = Some(t);
        if let Err(e) = pool.sync(sh, &plan) {
            fail_all(sh, live, &ServeError::Runtime(e), t, Instant::now());
            return;
        }
    }

    let n = live.len();
    sh.metrics.batch_size.record(n as u64);

    // Resolve the batch's schedule up front so setup errors fail the whole
    // batch before any execution.
    let sched = match plan.schedule_for(n) {
        Ok(s) => s,
        Err(e) => {
            let t = Instant::now();
            fail_all(sh, live, &e, t, t);
            return;
        }
    };
    let inputs: Arc<Vec<Env>> = Arc::new(live.iter().map(|r| r.inputs.clone()).collect());

    // The standing pool survives failed jobs, so the supervisor retries
    // the batch on it and, when it gives up, re-runs each request alone on
    // the sequential executor. Every request is charged the whole
    // supervised window, retries, backoff and fallback included: that is
    // the latency callers actually saw.
    let exec_start = exec_start.unwrap_or_else(Instant::now);
    let workers = pool.pool.as_mut().expect("hyper pool synced above");
    let opts = sh.run_opts(&plan);
    let (results, report) = supervise(
        n,
        &sh.cfg.supervisor,
        &opts.obs,
        || workers.run_batch(&sched, &inputs),
        |i| run_sequential_opts(&plan.graph, &inputs[i], &plan.ctx, &opts),
    );
    let exec_end = Instant::now();
    sh.metrics.retries.add(u64::from(report.attempts - 1));
    if report.fell_back {
        sh.metrics.fallbacks.inc();
    }
    for (r, res) in live.into_iter().zip(results) {
        let outcome = if res.is_ok() { "completed" } else { "failed" };
        sh.observe_done(&r, outcome, n, exec_start, exec_end);
        let _ = r.resp.send(res.map_err(ServeError::Runtime));
    }
}
