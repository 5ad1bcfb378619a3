//! Per-model dynamic micro-batcher.
//!
//! Each loaded model gets one *lane*: a bounded submission queue
//! (`std::sync::Mutex` + `Condvar` — the vendored `parking_lot` has no
//! condvar) drained by a dedicated collector thread. The collector blocks
//! for the first request, takes whatever else is already queued, and then
//! — only if the lane has evidence of a second caller — holds the batch
//! open until it has `max_batch` requests or `max_delay` has elapsed since
//! the first. The batch executes as ONE hypercluster job on a persistent
//! [`HyperPool`], the lane's only executor, whose workers live as long as
//! the lane's plan version. Per-sample outputs scatter back to per-request
//! one-shot channels.
//!
//! ## The batch window opens only for company
//!
//! Waiting `max_delay` buys nothing when nobody else is calling, and it is
//! the largest part of a small model's latency. So the window opens iff
//! the lane itself has seen concurrency:
//!
//! 1. the previous batch coalesced more than one request, **or**
//! 2. this batch's first request was enqueued before the previous batch
//!    stopped executing (it arrived during execution; the caller being
//!    served then was still waiting for its reply), **or**
//! 3. the immediate drain of the queue already found more than one.
//!
//! Otherwise the batch runs at once. A window that expires with a single
//! request clears (1), so a caller that leaves costs the one who stays at
//! most one wasted wait, and a caller that joins goes un-coalesced for at
//! most one batch: two closed-loop callers phase-lock into batch-2 runs (A
//! runs alone, B arrives during A's execution, B's window catches A's next
//! request). `max_delay` keeps its meaning as the window's upper bound.
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
//!   pop first + everything queued ──▶ company? ──yes──▶ window: pop │
//!        │                               │no            until max_batch
//!        │◀──────────────────────────────┘              or max_delay │
//!        ▼                                                          │
//!   drop dead-on-arrival (deadline passed in queue)                 │
//!        ▼                                                          │
//!   run batch on HyperPool ──retry (retryable, ≤N)──┐               │
//!        │                                          │               │
//!        ├── ok: scatter per-sample outputs ────────┼───────────────┘
//!        └── still failing: per-request sequential
//!            fallback (isolates a poisoned sample) ─┘
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
use ramiel_runtime::{run_sequential_opts, Env, HyperPool, RunOptions, RuntimeError};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// One queued inference request.
pub(crate) struct Request {
    /// Server-unique id minted at admission; names the request in the
    /// trace ring and on its batch's `serve:batch` instant.
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
    /// The server's config (`max_batch` and `queue_capacity` at least 1).
    cfg: ServeConfig,
    /// Server-wide trace ring shared by every lane (`None` = disabled).
    trace: Option<Arc<TraceRing>>,
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
        trace: Option<Arc<TraceRing>>,
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
    /// What every execution on this lane runs with: pool workers at build
    /// time (which index the plan's weight table) and the sequential
    /// fallback per batch (which looks weights up by name).
    fn run_opts(&self) -> RunOptions {
        RunOptions {
            injector: self.cfg.injector.clone(),
            recv_timeout: self.cfg.recv_timeout,
            obs: self.cfg.obs.clone(),
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
        self.cfg.obs.counter("serve:queue_depth", depth as f64);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Record everything about an answered request in one place: the four
    /// phase histograms (queue-wait, batch-wait, execute, respond), the
    /// end-to-end latency, the per-model outcome counter, and — when
    /// tracing is on — one [`RequestTrace`] ring entry.
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

        if let Some(ring) = &self.trace {
            let ns = |i: Instant| i.saturating_duration_since(self.epoch).as_nanos() as u64;
            ring.push(RequestTrace {
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
        let built = HyperPool::with_weights(
            plan.num_clusters(),
            &plan.ctx,
            &sh.run_opts(),
            Arc::clone(&plan.weights),
        );
        sh.metrics.lane_build.record_duration(start.elapsed());
        self.pool = Some(built?);
        Ok(())
    }
}

/// The collector thread: sync pool → idle-wait → gather → execute, until
/// drained. The pool is a local, so the thread finishes only after the
/// pool's workers joined: a finished collector is a lane with no threads.
fn collector(sh: Arc<LaneShared>) {
    let mut pool = LanePool {
        version: 0,
        pool: None,
    };
    // Evidence of a second caller (see the module docs): the previous
    // batch coalesced, or a request was enqueued before it stopped
    // executing — which its own caller, still waiting for the reply then,
    // cannot have done.
    let mut coalesced = false;
    let mut busy_until: Option<Instant> = None;
    loop {
        // Off the request path: at spawn, and when a swap woke us. A failed
        // build is retried — and reported — by the next batch.
        let _ = pool.sync(&sh, &Arc::clone(&sh.plan.lock()));
        let mut batch: Vec<Request> = Vec::new();
        let take = |q: &mut VecDeque<Request>, batch: &mut Vec<Request>| {
            while batch.len() < sh.cfg.max_batch {
                let Some(mut r) = q.pop_front() else { break };
                r.popped = Some(Instant::now());
                sh.metrics.queue_depth.set(q.len() as u64);
                sh.space.notify_one();
                batch.push(r);
            }
        };
        {
            // Idle: block for the first request of the next batch, and take
            // whatever queued up behind it.
            let mut q = lock(&sh.queue);
            loop {
                take(&mut q, &mut batch);
                if !batch.is_empty() {
                    break;
                }
                if sh.draining.load(Ordering::SeqCst) {
                    return; // drained: queue empty and no new admissions
                }
                if sh.plan.lock().version != pool.version {
                    break; // hot swap: rebuild before the next request
                }
                q = sh.not_empty.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        }
        if batch.is_empty() {
            continue;
        }
        // Gather: hold the batch open — up to max_batch, up to max_delay
        // after the first — only for company.
        let arrived_during_execution = busy_until.is_some_and(|t| batch[0].enqueued < t);
        let company = coalesced || arrived_during_execution || batch.len() > 1;
        let full = |batch: &Vec<Request>| {
            batch.len() >= sh.cfg.max_batch || sh.draining.load(Ordering::SeqCst)
        };
        if company && !full(&batch) {
            sh.metrics.window_opened.inc();
            let batch_deadline = Instant::now() + sh.cfg.max_delay;
            let mut q = lock(&sh.queue);
            loop {
                take(&mut q, &mut batch);
                if full(&batch) {
                    break;
                }
                let now = Instant::now();
                if now >= batch_deadline {
                    break;
                }
                q = sh
                    .not_empty
                    .wait_timeout(q, batch_deadline - now)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        } else {
            sh.metrics.window_skipped.inc();
        }
        coalesced = batch.len() > 1;
        busy_until = Some(execute_batch(&sh, &mut pool, batch));
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
/// swap raced this batch, run with supervised retries, degrade to
/// per-request sequential execution if the batch stays poisoned, scatter
/// results. Returns when the batch stopped executing (before any reply
/// went out): a request enqueued earlier than that arrived while the lane
/// was busy.
fn execute_batch(sh: &LaneShared, pool: &mut LanePool, batch: Vec<Request>) -> Instant {
    let obs = &sh.cfg.obs;
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
        return now;
    }

    let plan = Arc::clone(&sh.plan.lock());
    // Hot reload boundary. The idle collector already rebuilt for every
    // swap it was woken for; only a swap that raced this batch leaves work
    // here. That rebuild is execution set-up, not waiting for batch-mates:
    // the execution window starts before it.
    let mut exec_start = None;
    if pool.version != plan.version || pool.pool.is_none() {
        let t = Instant::now();
        exec_start = Some(t);
        if let Err(e) = pool.sync(sh, &plan) {
            let failed = Instant::now();
            fail_all(sh, live, &ServeError::Runtime(e), t, failed);
            return failed;
        }
    }

    let n = live.len();
    sh.metrics.batch_size.record(n as u64);
    obs.instant(
        0,
        format!("serve:batch x{n}"),
        "serve",
        serde_json::json!({
            "model": plan.name, "batch": n, "version": plan.version,
            "requests": live.iter().map(|r| r.id).collect::<Vec<_>>(),
        }),
    );
    obs.counter("serve:batch_size", n as f64);

    // Resolve the batch's schedule up front so setup errors fail the whole
    // batch before any execution.
    let sched = match plan.schedule_for(n) {
        Ok(s) => s,
        Err(e) => {
            let t = Instant::now();
            fail_all(sh, live, &e, t, t);
            return t;
        }
    };
    let inputs: Arc<Vec<Env>> = Arc::new(live.iter().map(|r| r.inputs.clone()).collect());

    // Supervised execution on the standing pool: retry transient-shaped
    // failures with bounded backoff (the pool survives failed jobs). The
    // execution window charged to each request spans the whole retry loop
    // (backoff sleeps included) — that is the latency callers actually saw.
    let sup = &sh.cfg.supervisor;
    let mut attempt = 0u32;
    let exec_start = exec_start.unwrap_or_else(Instant::now);
    let workers = pool.pool.as_mut().expect("hyper pool synced above");
    let result: Result<Vec<Env>, RuntimeError> = loop {
        match workers.run_batch(&sched, &inputs) {
            Ok(outs) => break Ok(outs),
            Err(e) => {
                if !e.is_retryable() || attempt >= sup.max_retries {
                    break Err(e);
                }
                sh.metrics.retries.inc();
                obs.instant(
                    0,
                    format!("serve:retry (attempt {})", attempt + 2),
                    "serve",
                    serde_json::json!({ "model": plan.name, "error": e.code() }),
                );
                std::thread::sleep(sup.backoff(attempt));
                attempt += 1;
            }
        }
    };

    let exec_end = Instant::now();

    match result {
        Ok(outs) => {
            for (r, out) in live.into_iter().zip(outs) {
                sh.observe_done(&r, "completed", n, exec_start, exec_end);
                let _ = r.resp.send(Ok(out));
            }
        }
        Err(batch_err) if sup.fallback => {
            // Degrade, don't die: re-run each sample alone on the reference
            // sequential executor. A poisoned sample fails alone; its
            // batch-mates still get answers.
            sh.metrics.fallbacks.inc();
            obs.instant(
                0,
                "serve:fallback to per-request sequential".to_string(),
                "serve",
                serde_json::json!({ "model": plan.name, "error": batch_err.code() }),
            );
            let run_opts = sh.run_opts().init_values(Arc::clone(plan.named_weights()));
            for r in live {
                let solo_start = Instant::now();
                let res = catch_unwind(AssertUnwindSafe(|| {
                    run_sequential_opts(&plan.graph, &r.inputs, &plan.ctx, &run_opts)
                }))
                .unwrap_or_else(|payload| {
                    Err(ramiel_runtime::fault::panic_to_error(None, payload))
                });
                let solo_end = Instant::now();
                match res {
                    Ok(out) => {
                        sh.observe_done(&r, "completed", 1, solo_start, solo_end);
                        let _ = r.resp.send(Ok(out));
                    }
                    Err(e) => {
                        sh.observe_done(&r, "failed", 1, solo_start, solo_end);
                        let _ = r.resp.send(Err(ServeError::Runtime(e)));
                    }
                }
            }
        }
        Err(e) => {
            fail_all(sh, live, &ServeError::Runtime(e), exec_start, exec_end);
        }
    }
    exec_end
}
