//! Work-stealing dataflow executor.
//!
//! The engine whose schedule is *dynamic*: instead of assigning each cluster
//! to a dedicated thread with channels on every cross-cluster edge (the
//! paper's model, [`crate::hyperpool`]), graph nodes
//! are executed by dependency-count readiness on a **persistent pool** of
//! worker threads with per-worker Chase-Lev-style deques and a global
//! injector:
//!
//! - each worker owns a deque: it pushes newly-ready successor tasks to the
//!   *bottom* and pops from the bottom (LIFO — the just-produced tensor is
//!   cache-hot), while idle peers steal from the *top* (FIFO — the oldest,
//!   most parallelism-rich work migrates first);
//! - the submitting thread **participates**: it claims a deque slot and
//!   executes tasks alongside the pool, so batch-1 latency degenerates to
//!   roughly the sequential walk plus per-task bookkeeping instead of
//!   paying a thread handoff per node;
//! - cluster assignments are demoted to *initial-placement locality hints*:
//!   root tasks of cluster 0 seed the caller's own deque, other clusters
//!   spread round-robin over the workers, and from then on the steal
//!   discipline owns placement;
//! - there are **no per-edge channels**: produced tensors land in per-job
//!   slots and consumers are released by atomic dependency counters. This
//!   is why `ramiel analyze` reports the stealing variant as estimate-only
//!   (sound first-ready memory bound, no channel lints): there is no static
//!   per-edge structure for RA0401 to check, and no static schedule
//!   to replay.
//!
//! Schedules are therefore *not replayable*: which worker runs which node
//! depends on OS scheduling. Correctness rests on kernels being pure and
//! deterministic per node — the scheduling-conformance harness
//! (`tests/steal_conformance.rs`) drives thousands of seeded interleavings
//! through [`StealChaos`] stalls/placement permutations and asserts
//! bit-identical outputs and liveness.
//!
//! Everything the static executors honor is threaded through: RunOptions
//! (obs, fault injection, in-place reuse marks gated by `Arc::get_mut`),
//! the model's one [`crate::Weights`] table (fixed when the plan is
//! built, indexed per fetch), MemGauge accounting identical to the
//! `reuse::Liveness` model (so the analyze first-ready resident-sum
//! bound stays sound), supervisor retry/fallback ([`crate::run`] with
//! [`crate::Engine::Stealing`]), and batch execution for serve. `FaultKind::DropMessage` is a no-op here, as in the
//! sequential executor: there are no channels to drop from.

use crate::fault::{node_error, panic_to_error, Armed, FaultInjector, INJECT_MARKER};
use crate::limits::DEFAULT_RECV_TIMEOUT;
use crate::program::{GraphProgram, InSrc};
use crate::reuse::charge_bytes;
use crate::run::RunOptions;
use crate::{Env, Result, RuntimeError, Weights};
use parking_lot::Mutex;
use ramiel_cluster::hyper::HyperClustering;
use ramiel_cluster::Clustering;
use ramiel_ir::{Graph, OpKind};
use ramiel_obs::metrics::{Histogram, HistogramSnapshot};
use ramiel_obs::Obs;
use ramiel_tensor::{eval_op, eval_op_inplace, ExecCtx, ExecError, MemGauge, Value};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};
use std::time::{Duration, Instant};

/// Deterministic per-task hash for the scheduling adversary (and nothing
/// else — fault plans keep their own splitmix stream in [`crate::fault`]).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Scheduling adversary knobs for the conformance harness: a seed-derived
/// per-task stall plus placement permutations (rotated ready-successor
/// order, occasional diversion to the global injector). The *plan* is a
/// pure function of the seed; the resulting interleaving still varies with
/// OS scheduling, which is exactly what the harness wants to stress.
/// Ignored by every engine except [`crate::Engine::Stealing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealChaos {
    pub seed: u64,
    /// Upper bound for the per-task stall, in microseconds.
    pub max_stall_us: u64,
}

/// A dependency-resolved execution plan for one (graph, batch) pair:
/// everything [`StealPool::run_plan`] needs, its weight table included,
/// fully owned. Build once and reuse across runs.
pub struct StealPlan {
    batch: usize,
    /// The slot-resolved graph (shared with the hypercluster pool's
    /// [`crate::PlannedBatch`] when both come from one plan build).
    prog: Arc<GraphProgram>,
    /// Locality hint (cluster id) per task `b * nodes.len() + n`.
    hints: Vec<u32>,
    /// The weights the program's `InSrc::Weight` operands index.
    weights: Arc<Weights>,
}

impl StealPlan {
    /// Plan a batch-1..n run using a clustering's assignment as locality
    /// hints (the same hint for every batch element of a node), over
    /// `graph`'s weights, converted here.
    pub fn new(graph: &Graph, clustering: &Clustering, batch: usize) -> Result<StealPlan> {
        if batch == 0 {
            return Err(RuntimeError::Setup("steal plan needs batch >= 1".into()));
        }
        let prog = Arc::new(GraphProgram::new(graph)?);
        let hc = ramiel_cluster::hypercluster(clustering, batch);
        Self::with_program(&prog, crate::initializer_values(graph)?, &hc)
    }

    /// Plan from a hyperclustering (per-(batch, node) hints from the
    /// hypercluster worker assignment) over a slot resolution and the
    /// weight table of its graph, both already held by the caller
    /// ([`crate::run`] and `ramiel run` pass the model's shared table):
    /// integer work only.
    pub fn with_program(
        prog: &Arc<GraphProgram>,
        weights: Arc<Weights>,
        hints: &HyperClustering,
    ) -> Result<StealPlan> {
        let (batch, nn) = (hints.batch, prog.nodes.len());
        if batch == 0 {
            return Err(RuntimeError::Setup("steal plan needs batch >= 1".into()));
        }
        if prog.num_weights() != weights.len() {
            return Err(RuntimeError::Setup(format!(
                "steal plan reads {} weights but was given {}",
                prog.num_weights(),
                weights.len()
            )));
        }
        let mut hint = vec![u32::MAX; batch * nn];
        for (w, ops) in hints.hyperclusters.iter().enumerate() {
            for op in ops.iter().filter(|op| op.batch < batch && op.node < nn) {
                hint[op.batch * nn + op.node] = w as u32;
            }
        }
        Ok(StealPlan {
            batch,
            prog: Arc::clone(prog),
            hints: hint,
            weights,
        })
    }

    pub fn batch(&self) -> usize {
        self.batch
    }

    pub fn num_tasks(&self) -> usize {
        self.batch * self.prog.nodes.len()
    }

    /// The slot-resolved graph this plan executes.
    pub fn program(&self) -> &Arc<GraphProgram> {
        &self.prog
    }
}

/// One produced tensor instance.
struct Slot {
    val: Option<Value>,
    /// Bytes currently charged to the gauge for this slot.
    charged: u64,
    /// Reads (plus output pin) remaining before the value is dead.
    remaining: u32,
}

/// Mutable state of one in-flight run. Fully owned (plan, inputs, ctx are
/// Arcs/clones), so abandoned jobs — timeout, fault — can be drained by the
/// pool after the caller returned without any lifetime gymnastics.
struct JobInner {
    plan: Arc<StealPlan>,
    inputs: Vec<Env>,
    ctx: ExecCtx,
    injector: Option<Arc<FaultInjector>>,
    obs: Obs,
    reuse: bool,
    chaos: Option<StealChaos>,
    gauge: Option<Arc<MemGauge>>,
    /// Pending dependency count per task.
    pending: Vec<AtomicU32>,
    /// Produced tensor instances, `b * num_slots + base`.
    slots: Vec<Mutex<Slot>>,
    out_envs: Mutex<Vec<Env>>,
    completed: AtomicUsize,
    total: usize,
    /// Absolute deadline (submission time + recv timeout). Injected stalls
    /// sleep in bounded chunks against it, so a stalled *participating
    /// caller* still observes its own timeout — there is no peer blocked in
    /// `recv` to flag it, unlike the channel executors.
    deadline: Instant,
    done: AtomicBool,
    dead: AtomicBool,
    err: Mutex<Option<RuntimeError>>,
    finalized: AtomicBool,
    wait_m: StdMutex<()>,
    wait_cv: Condvar,
}

impl JobInner {
    fn new(
        plan: &Arc<StealPlan>,
        inputs: Vec<Env>,
        ctx: &ExecCtx,
        opts: &RunOptions,
        deadline: Instant,
    ) -> JobInner {
        let pending = (0..plan.batch)
            .flat_map(|_| plan.prog.nodes.iter().map(|n| AtomicU32::new(n.preds)))
            .collect();
        let slots = (0..plan.batch)
            .flat_map(|_| {
                plan.prog.slot_reads.iter().map(|&r| {
                    Mutex::new(Slot {
                        val: None,
                        charged: 0,
                        remaining: r,
                    })
                })
            })
            .collect();
        let batch = plan.batch;
        JobInner {
            plan: Arc::clone(plan),
            inputs,
            ctx: ctx.clone(),
            injector: opts.injector.clone(),
            obs: opts.obs.clone(),
            reuse: opts.reuse,
            chaos: opts.steal_chaos,
            gauge: ctx.mem_gauge().cloned(),
            pending,
            slots,
            out_envs: Mutex::new(vec![Env::new(); batch]),
            completed: AtomicUsize::new(0),
            total: batch * plan.prog.nodes.len(),
            deadline,
            done: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            err: Mutex::new(None),
            finalized: AtomicBool::new(false),
            wait_m: StdMutex::new(()),
            wait_cv: Condvar::new(),
        }
    }

    fn slot(&self, batch: usize, base: u32) -> &Mutex<Slot> {
        &self.slots[batch * self.plan.prog.num_slots() + base as usize]
    }

    fn notify(&self) {
        let _g = self.wait_m.lock().unwrap_or_else(|e| e.into_inner());
        self.wait_cv.notify_all();
    }

    fn finish(&self) {
        self.done.store(true, Ordering::SeqCst);
        self.notify();
    }

    fn fail(&self, e: RuntimeError) {
        {
            let mut err = self.err.lock();
            if err.is_none() {
                *err = Some(e);
            }
        }
        self.dead.store(true, Ordering::SeqCst);
        self.notify();
    }

    /// Free every remaining gauge charge (pinned graph outputs, values kept
    /// by `reuse: false`, anything live on an error path). Called
    /// synchronously by the successful caller — so a shared gauge reads
    /// `live_bytes() == 0` the moment `run_plan` returns — and idempotently
    /// from `Drop` for abandoned jobs.
    fn finalize(&self) {
        if self.finalized.swap(true, Ordering::SeqCst) {
            return;
        }
        for s in &self.slots {
            let mut sl = s.lock();
            if sl.charged > 0 {
                if let Some(g) = &self.gauge {
                    g.free(sl.charged as usize);
                }
                sl.charged = 0;
            }
            sl.val = None;
        }
    }
}

impl Drop for JobInner {
    fn drop(&mut self) {
        self.finalize();
    }
}

/// One schedulable unit: a (batch, node) instance of a job.
struct Task {
    job: Arc<JobInner>,
    /// `b * num_nodes + n`.
    task: u32,
}

/// How many deque slots are reserved for participating callers (beyond the
/// background workers). Callers past this budget still run correctly —
/// they seed the injector and steal like everyone else, they just lack an
/// owned LIFO deque.
const CALLER_SLOTS: usize = 16;

/// Per-slot execution telemetry: one entry per deque slot plus a final
/// aggregate entry for slotless callers. All relaxed atomics — recording
/// is a handful of uncontended RMWs per task, cheap enough to stay
/// unconditionally on (the batch-1 stealing-vs-sequential bench guard
/// bounds the cost).
#[derive(Default)]
struct SlotTelemetry {
    /// Tasks executed from this slot.
    tasks: AtomicU64,
    /// Successful steals *by* this slot from peer deques.
    steals: AtomicU64,
    /// Nanoseconds parked/waiting for work.
    idle_ns: AtomicU64,
}

/// Pool-wide telemetry shared by all slots.
struct PoolTelemetry {
    /// `deques.len() + 1` entries; the last aggregates slotless callers.
    slots: Vec<SlotTelemetry>,
    injector_pushes: AtomicU64,
    injector_pops: AtomicU64,
    /// Per-task execution time, nanoseconds (kernel body, excluding chaos
    /// stalls and queueing).
    exec_ns: Histogram,
}

impl PoolTelemetry {
    fn new(slots: usize) -> PoolTelemetry {
        PoolTelemetry {
            slots: (0..slots).map(|_| SlotTelemetry::default()).collect(),
            injector_pushes: AtomicU64::new(0),
            injector_pops: AtomicU64::new(0),
            exec_ns: Histogram::new(),
        }
    }
}

/// Point-in-time aggregate of a pool's telemetry: lifetime counters summed
/// over slots and the per-task execution histogram.
#[derive(Debug, Clone)]
pub struct StealPoolStats {
    pub workers: usize,
    /// Tasks executed, summed over slots.
    pub tasks: u64,
    /// Successful peer-deque steals, summed over slots.
    pub steals: u64,
    pub injector_pushes: u64,
    pub injector_pops: u64,
    /// Nanoseconds spent parked waiting for work, summed over slots.
    pub idle_ns: u64,
    pub exec_ns: HistogramSnapshot,
}

impl StealPoolStats {
    /// One-line human summary for CLI output.
    pub fn text_summary(&self) -> String {
        let steal_pct = if self.tasks > 0 {
            100.0 * self.steals as f64 / self.tasks as f64
        } else {
            0.0
        };
        format!(
            "tasks {} | steals {} ({steal_pct:.1}%) | injector push/pop {}/{} | \
             idle {:.2} ms | exec p50 {} ns p99 {} ns max {} ns",
            self.tasks,
            self.steals,
            self.injector_pushes,
            self.injector_pops,
            self.idle_ns as f64 / 1e6,
            self.exec_ns.percentile(0.5),
            self.exec_ns.percentile(0.99),
            self.exec_ns.max,
        )
    }
}

struct PoolShared {
    /// `workers` worker-owned deques followed by `CALLER_SLOTS` caller
    /// deques. Bottom = back (owner LIFO), top = front (thief FIFO).
    deques: Vec<Mutex<VecDeque<Task>>>,
    injector: Mutex<VecDeque<Task>>,
    workers: usize,
    free_caller_slots: Mutex<Vec<usize>>,
    sleepers: AtomicUsize,
    gate: StdMutex<()>,
    cv: Condvar,
    stop: AtomicBool,
    telemetry: PoolTelemetry,
}

impl PoolShared {
    /// Telemetry slot for an executor identity: deque slot, or the final
    /// aggregate entry for slotless callers.
    fn tel(&self, me: Option<usize>) -> &SlotTelemetry {
        &self.telemetry.slots[me.unwrap_or(self.deques.len())]
    }

    /// Pop in steal order: own deque bottom, then the injector, then peer
    /// deque tops.
    fn next_task(&self, me: Option<usize>) -> Option<Task> {
        if let Some(me) = me {
            if let Some(t) = self.deques[me].lock().pop_back() {
                return Some(t);
            }
        }
        if let Some(t) = self.injector.lock().pop_front() {
            self.telemetry.injector_pops.fetch_add(1, Ordering::Relaxed);
            return Some(t);
        }
        let n = self.deques.len();
        let start = me.map(|m| m + 1).unwrap_or(0);
        for i in 0..n {
            let victim = (start + i) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(t) = self.deques[victim].lock().pop_front() {
                self.tel(me).steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    /// Push one ready task: to the executor's own deque bottom (LIFO), or
    /// the injector for slotless callers / diverted chaos pushes.
    fn push_local(&self, me: Option<usize>, t: Task) {
        match me {
            Some(me) => self.push_deque(me, t),
            None => {
                self.injector.lock().push_back(t);
                self.telemetry
                    .injector_pushes
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Push onto a specific deque.
    fn push_deque(&self, slot: usize, t: Task) {
        self.deques[slot].lock().push_back(t);
    }

    fn wake(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_all();
        }
    }

    /// Execute one task and release its ready successors. Any panic inside
    /// the node body (injected or genuine) fails the task's job; the
    /// executing thread survives.
    fn exec_task(&self, t: Task, me: Option<usize>) {
        let job = t.job;
        if job.dead.load(Ordering::SeqCst) {
            return;
        }
        let nn = job.plan.prog.nodes.len();
        let (b, n) = ((t.task as usize) / nn, (t.task as usize) % nn);
        let exec_idx = me.unwrap_or(self.deques.len());
        let h = job.chaos.map(|c| mix64(c.seed ^ u64::from(t.task)));
        if let (Some(c), Some(h)) = (job.chaos, h) {
            let stall = h % (c.max_stall_us + 1);
            if stall > 0 {
                std::thread::sleep(Duration::from_micros(stall));
            }
        }
        self.tel(me).tasks.fetch_add(1, Ordering::Relaxed);
        let exec_start = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| run_node(&job, b, n, exec_idx)));
        self.telemetry
            .exec_ns
            .record(exec_start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        match r {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                job.fail(e);
                return;
            }
            Err(payload) => {
                job.fail(panic_to_error(Some(exec_idx), payload));
                return;
            }
        }
        if job.completed.fetch_add(1, Ordering::SeqCst) + 1 == job.total {
            job.finish();
            return;
        }
        // Release successors whose last dependency this was, newly-ready
        // tasks going LIFO to the executor's own deque.
        let mut ready: Vec<u32> = Vec::new();
        for &s in job.plan.prog.succs(n) {
            let st = (b * nn + s as usize) as u32;
            if job.pending[st as usize].fetch_sub(1, Ordering::SeqCst) == 1 {
                ready.push(st);
            }
        }
        if ready.is_empty() {
            return;
        }
        let mut divert = false;
        if let Some(h) = h {
            // Placement permutation: rotate the push order and occasionally
            // divert the whole set to the injector, so different seeds give
            // different steal orders.
            let rot = ((h >> 24) as usize) % ready.len();
            ready.rotate_left(rot);
            divert = (h >> 40) & 3 == 0;
        }
        let target = if divert { None } else { me };
        let pushed = ready.len();
        for st in ready {
            self.push_local(
                target,
                Task {
                    job: Arc::clone(&job),
                    task: st,
                },
            );
        }
        // Keep one successor's worth of work for ourselves implicitly (we
        // just pushed LIFO and will pop it next); wake peers for the rest.
        if pushed > 1 || target.is_none() {
            self.wake();
        }
    }
}

/// Sleep an injected delay, bounded by the job's deadline: the stall fires
/// (faithfully to the fault plan) but can never drag a run past its recv
/// timeout, because the stalled thread may be the only one enforcing it.
fn bounded_stall(job: &JobInner, d: Duration) -> Result<()> {
    let end = Instant::now() + d;
    loop {
        if job.dead.load(Ordering::SeqCst) {
            return Ok(()); // the job already failed; no point stalling on
        }
        let now = Instant::now();
        if now >= end {
            return Ok(());
        }
        if now >= job.deadline {
            return Err(RuntimeError::Timeout {
                cluster: None,
                pending_ops: job.total - job.completed.load(Ordering::SeqCst),
                detail: "injected stall exceeded the work-stealing run's recv timeout".into(),
            });
        }
        std::thread::sleep(
            (end - now)
                .min(job.deadline - now)
                .min(Duration::from_millis(1)),
        );
    }
}

/// The node body: arm faults, gather operands (honoring in-place marks),
/// evaluate, publish outputs to slots, consume inputs. Mirrors
/// `hyperpool::run_job` minus the channels.
fn run_node(job: &JobInner, b: usize, n: usize, exec_idx: usize) -> Result<()> {
    let plan = &*job.plan.prog;
    let node = &plan.nodes[n];
    let weights = &job.plan.weights;

    // Fault injection: arm this execution's faults, if any. DropMessage is
    // a no-op (no channels to drop from), as in the sequential executor.
    let armed = match &job.injector {
        Some(inj) => Armed::new(
            &inj.begin_node(node.id, b),
            &job.obs,
            Some(exec_idx),
            node.id,
            b,
        ),
        None => Armed::default(),
    };
    if !armed.recv_delay.is_zero() {
        bounded_stall(job, armed.recv_delay)?;
    }

    let outputs = if matches!(node.op, OpKind::Constant) {
        if armed.kernel_fault {
            let e = ExecError(INJECT_MARKER.into());
            return Err(node_error(Some(exec_idx), node.id, plan.node_name(n), e));
        }
        let v = node.payload.and_then(|k| weights.at(k)).ok_or_else(|| {
            RuntimeError::Setup(format!("Constant `{}` missing payload", plan.node_name(n)))
        })?;
        vec![v.clone()]
    } else {
        // A node marked by the in-place pass takes its dying operand *out*
        // of its slot (sole remaining read), so the kernel's `Arc::get_mut`
        // gate can overwrite the buffer in place.
        let mark = if job.reuse { node.mark } else { None };
        let mut owned_slot = None;
        let fetch = |found: Option<&Value>, name: &str| {
            found.cloned().ok_or_else(|| {
                RuntimeError::Setup(format!("task ({b}, {n}): tensor `{name}` unavailable"))
            })
        };
        let ins: Result<Vec<Value>> = plan
            .inputs(n)
            .iter()
            .enumerate()
            .map(|(i, src)| match *src {
                InSrc::Slot(base) => {
                    let mut sl = job.slot(b, base).lock();
                    if mark == Some(i) && sl.remaining == 1 {
                        if let Some(v) = sl.val.take() {
                            owned_slot = Some(i);
                            return Ok(v);
                        }
                    }
                    sl.val.clone().ok_or_else(|| {
                        RuntimeError::Setup(format!(
                            "task ({b}, {n}): operand `{}` missing from its slot",
                            plan.value_name(base)
                        ))
                    })
                }
                InSrc::Weight(k) => fetch(weights.at(k), plan.weight_name(k)),
                InSrc::Input(v) => fetch(job.inputs[b].get(plan.value_name(v)), plan.value_name(v)),
            })
            .collect();
        let hooked = armed
            .kernel_fault
            .then(|| FaultInjector::kernel_fault_ctx(&job.ctx, Some(exec_idx), node.id));
        let eval_ctx = hooked.as_ref().unwrap_or(&job.ctx);
        match owned_slot {
            Some(s) => eval_op_inplace(eval_ctx, &node.op, ins?, s),
            None => eval_op(eval_ctx, &node.op, &ins?),
        }
        .map_err(|e| node_error(Some(exec_idx), node.id, plan.node_name(n), e))?
    };

    if !armed.send_delay.is_zero() {
        bounded_stall(job, armed.send_delay)?;
    }
    if job.dead.load(Ordering::SeqCst) {
        return Ok(()); // a peer already failed the job; don't publish
    }
    for (&base, v) in plan.out_slots(n).iter().zip(outputs) {
        let bytes = charge_bytes(&node.op, &v);
        if plan.slot_is_output[base as usize] {
            job.out_envs.lock()[b].insert(plan.value_name(base).to_string(), v.clone());
        }
        let mut sl = job.slot(b, base).lock();
        if let Some(g) = &job.gauge {
            g.alloc(bytes as usize);
            if sl.charged > 0 {
                g.free(sl.charged as usize); // defensive: never double-charge
            }
        }
        sl.charged = bytes;
        if sl.remaining == 0 {
            // No reader and not a graph output: charged and immediately
            // dead, matching the estimator (which samples the peak after
            // production, before eviction).
            if let Some(g) = &job.gauge {
                g.free(bytes as usize);
            }
            sl.charged = 0;
        } else {
            sl.val = Some(v);
        }
    }
    if job.reuse {
        for src in plan.inputs(n) {
            if let InSrc::Slot(base) = src {
                let mut sl = job.slot(b, *base).lock();
                sl.remaining = sl.remaining.saturating_sub(1);
                if sl.remaining == 0 {
                    sl.val = None;
                    if sl.charged > 0 {
                        if let Some(g) = &job.gauge {
                            g.free(sl.charged as usize);
                        }
                        sl.charged = 0;
                    }
                }
            }
        }
    }
    Ok(())
}

fn worker_main(shared: Arc<PoolShared>, w: usize) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        if let Some(t) = shared.next_task(Some(w)) {
            shared.exec_task(t, Some(w));
            continue;
        }
        // Park: register as a sleeper, re-scan under the gate so a push
        // that races our scan either lands before it or blocks on the gate
        // until we are inside `wait_timeout`.
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        let idle_start = Instant::now();
        {
            let g = shared.gate.lock().unwrap_or_else(|e| e.into_inner());
            if !shared.stop.load(Ordering::SeqCst) && shared.scan_is_empty() {
                let _ = shared
                    .cv
                    .wait_timeout(g, Duration::from_millis(5))
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        shared.telemetry.slots[w]
            .idle_ns
            .fetch_add(idle_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shared.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

impl PoolShared {
    fn scan_is_empty(&self) -> bool {
        if !self.injector.lock().is_empty() {
            return false;
        }
        self.deques.iter().all(|d| d.lock().is_empty())
    }
}

/// A persistent work-stealing pool. One process-wide instance
/// ([`StealPool::global`]) serves every [`crate::Engine::Stealing`] run — no
/// per-run thread spawn — but private pools can be built for tests.
pub struct StealPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Background worker count: `available_parallelism - 1` (the caller
/// participates), clamped to [1, 8].
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1))
        .unwrap_or(3)
        .clamp(1, 8)
}

impl StealPool {
    /// Build a private pool with `workers` background threads.
    pub fn new(workers: usize) -> StealPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            deques: (0..workers + CALLER_SLOTS)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            injector: Mutex::new(VecDeque::new()),
            workers,
            free_caller_slots: Mutex::new((workers..workers + CALLER_SLOTS).collect()),
            sleepers: AtomicUsize::new(0),
            gate: StdMutex::new(()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            telemetry: PoolTelemetry::new(workers + CALLER_SLOTS + 1),
        });
        let handles = (0..workers)
            .map(|w| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ramiel-steal-{w}"))
                    .spawn(move || worker_main(sh, w))
                    .expect("spawn steal worker")
            })
            .collect();
        StealPool { shared, handles }
    }

    /// The process-wide pool, spawned on first use.
    pub fn global() -> &'static StealPool {
        static POOL: OnceLock<StealPool> = OnceLock::new();
        POOL.get_or_init(|| StealPool::new(default_workers()))
    }

    pub fn num_workers(&self) -> usize {
        self.shared.workers
    }

    /// Telemetry snapshot: lifetime counters summed over slots, per-task
    /// execution histogram.
    pub fn stats(&self) -> StealPoolStats {
        let tel = &self.shared.telemetry;
        let sum = |get: fn(&SlotTelemetry) -> &AtomicU64| {
            (tel.slots.iter())
                .map(|s| get(s).load(Ordering::Relaxed))
                .sum()
        };
        StealPoolStats {
            workers: self.shared.workers,
            tasks: sum(|s| &s.tasks),
            steals: sum(|s| &s.steals),
            injector_pushes: tel.injector_pushes.load(Ordering::Relaxed),
            injector_pops: tel.injector_pops.load(Ordering::Relaxed),
            idle_ns: sum(|s| &s.idle_ns),
            exec_ns: tel.exec_ns.snapshot(),
        }
    }

    /// Execute one planned run. The calling thread participates: it claims
    /// a deque slot, seeds root tasks by locality hint (cluster 0 stays
    /// local, others spread over the workers), executes and steals alongside
    /// the pool, and enforces the recv-timeout deadline. On success the
    /// graph outputs are returned and every gauge charge has been released.
    pub fn run_plan(
        &self,
        plan: &Arc<StealPlan>,
        inputs: &[Env],
        ctx: &ExecCtx,
        opts: &RunOptions,
    ) -> Result<Vec<Env>> {
        if inputs.len() != plan.batch {
            return Err(RuntimeError::Setup(format!(
                "steal plan expects {} input envs, got {}",
                plan.batch,
                inputs.len()
            )));
        }
        let _run_span = opts.obs.span(0, "steal:run", "steal");
        if plan.prog.nodes.is_empty() {
            let mut outs = vec![Env::new(); plan.batch];
            plan.prog
                .backfill_outputs(&mut outs, inputs, |k| plan.weights.at(k));
            return Ok(outs);
        }

        let timeout = opts.recv_timeout.unwrap_or(DEFAULT_RECV_TIMEOUT);
        let deadline = Instant::now() + timeout;
        let job = Arc::new(JobInner::new(plan, inputs.to_vec(), ctx, opts, deadline));

        let me = self.shared.free_caller_slots.lock().pop();
        // Seed roots by locality hint: cluster 0 (the longest chain) stays
        // on the caller's deque, other clusters round-robin over workers.
        let nn = plan.prog.nodes.len();
        let mut seeded_remote = false;
        for b in 0..plan.batch {
            for &r in &plan.prog.roots {
                let tid = (b * nn + r as usize) as u32;
                let hint = plan.hints[tid as usize];
                let t = Task {
                    job: Arc::clone(&job),
                    task: tid,
                };
                if hint == 0 && me.is_some() {
                    self.shared.push_local(me, t);
                } else if hint == u32::MAX {
                    self.shared.push_local(None, t);
                    seeded_remote = true;
                } else {
                    let w = (hint as usize).saturating_sub(1) % self.shared.workers;
                    self.shared.push_deque(w, t);
                    seeded_remote = true;
                }
            }
        }
        if seeded_remote {
            self.shared.wake();
        }

        let result =
            loop {
                if job.done.load(Ordering::SeqCst) {
                    break Ok(());
                }
                if job.dead.load(Ordering::SeqCst) {
                    break Err(job.err.lock().clone().unwrap_or_else(|| {
                        RuntimeError::Setup("job died without an error".into())
                    }));
                }
                if let Some(t) = self.shared.next_task(me) {
                    self.shared.exec_task(t, me);
                    continue;
                }
                if Instant::now() >= deadline {
                    job.fail(RuntimeError::Timeout {
                        cluster: None,
                        pending_ops: job.total - job.completed.load(Ordering::SeqCst),
                        detail: format!(
                            "work-stealing run exceeded its {}ms recv timeout",
                            timeout.as_millis()
                        ),
                    });
                    continue; // loop observes `dead` and reports the error
                }
                let idle_start = Instant::now();
                let g = job.wait_m.lock().unwrap_or_else(|e| e.into_inner());
                if !job.done.load(Ordering::SeqCst) && !job.dead.load(Ordering::SeqCst) {
                    let _ = job
                        .wait_cv
                        .wait_timeout(g, Duration::from_micros(200))
                        .unwrap_or_else(|e| e.into_inner());
                }
                self.shared
                    .tel(me)
                    .idle_ns
                    .fetch_add(idle_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            };

        // Hand the slot back; any foreign tasks our deque accumulated go to
        // the injector so their jobs keep making progress. Tasks of a dead
        // job are dropped on pop by `exec_task`.
        if let Some(m) = me {
            let drained: Vec<Task> = self.shared.deques[m].lock().drain(..).collect();
            if !drained.is_empty() {
                let mut inj = self.shared.injector.lock();
                for t in drained {
                    inj.push_back(t);
                }
                drop(inj);
                self.shared.wake();
            }
            self.shared.free_caller_slots.lock().push(m);
        }

        result?;
        let mut outs = std::mem::take(&mut *job.out_envs.lock());
        job.finalize();
        plan.prog
            .backfill_outputs(&mut outs, inputs, |k| plan.weights.at(k));
        Ok(outs)
    }
}

impl Drop for StealPool {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        {
            let _g = self.shared.gate.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_sequential;
    use crate::fault::{Fault, FaultKind, FaultPlan};
    use crate::run::{run, Engine};
    use crate::synth_inputs;
    use ramiel_cluster::{cluster_graph, switched_hypercluster, StaticCost};
    use ramiel_models::{build, synthetic, ModelConfig, ModelKind};
    use std::slice::from_ref;

    #[test]
    fn stealing_matches_sequential_on_every_model() {
        let cfg = ModelConfig::tiny();
        let ctx = ExecCtx::sequential();
        for kind in ModelKind::all() {
            let g = build(kind, &cfg);
            let clustering = cluster_graph(&g, &StaticCost);
            let inputs = synth_inputs(&g, 5);
            let seq = run_sequential(&g, &inputs, &ctx).unwrap();
            let steal = run(
                &g,
                &clustering,
                from_ref(&inputs),
                &ctx,
                &RunOptions::default().engine(Engine::Stealing),
            )
            .single()
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert_eq!(seq, steal, "{}", kind.name());
        }
    }

    #[test]
    fn hyper_stealing_matches_per_sample_sequential() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let ctx = ExecCtx::sequential();
        let hc = switched_hypercluster(&clustering, 3);
        let inputs: Vec<Env> = (0..3).map(|b| synth_inputs(&g, 60 + b as u64)).collect();
        let outs = run(
            &g,
            &hc,
            &inputs,
            &ctx,
            &RunOptions::default().engine(Engine::Stealing),
        )
        .outputs
        .unwrap();
        for (b, inp) in inputs.iter().enumerate() {
            let seq = run_sequential(&g, inp, &ctx).unwrap();
            assert_eq!(seq, outs[b], "batch {b}");
        }
    }

    #[test]
    fn plan_is_reusable_across_runs_and_pools() {
        let g = build(ModelKind::Googlenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let ctx = ExecCtx::sequential();
        let plan = Arc::new(StealPlan::new(&g, &clustering, 1).unwrap());
        let pool = StealPool::new(2);
        let inputs = synth_inputs(&g, 9);
        let opts = RunOptions::default();
        let a = pool
            .run_plan(&plan, std::slice::from_ref(&inputs), &ctx, &opts)
            .unwrap();
        let b = StealPool::global()
            .run_plan(&plan, std::slice::from_ref(&inputs), &ctx, &opts)
            .unwrap();
        assert_eq!(a, b);
        drop(pool); // private pool joins its workers cleanly
    }

    #[test]
    fn chaos_stalls_and_permutations_do_not_change_outputs() {
        let g = synthetic::fork_join(4, 3, 3);
        let clustering = cluster_graph(&g, &StaticCost);
        let ctx = ExecCtx::sequential();
        let inputs = synth_inputs(&g, 17);
        let seq = run_sequential(&g, &inputs, &ctx).unwrap();
        for seed in 0..16 {
            let opts = RunOptions::default()
                .engine(Engine::Stealing)
                .steal_chaos(StealChaos {
                    seed,
                    max_stall_us: 200,
                });
            let got = run(&g, &clustering, from_ref(&inputs), &ctx, &opts)
                .single()
                .unwrap();
            assert_eq!(seq, got, "seed {seed}");
        }
    }

    #[test]
    fn injected_kernel_fault_is_structured() {
        let g = synthetic::fork_join(4, 3, 3);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 11);
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![Fault {
                node: 2,
                batch: 0,
                exec_index: 0,
                kind: FaultKind::KernelError,
            }],
        });
        let opts = RunOptions::with_injector(inj.clone()).engine(Engine::Stealing);
        let err = run(
            &g,
            &clustering,
            from_ref(&inputs),
            &ExecCtx::sequential(),
            &opts,
        )
        .single()
        .unwrap_err();
        assert_eq!(err.code(), "RT-INJECT", "got {err}");
        assert_eq!(inj.fired().len(), 1);
    }

    #[test]
    fn timeout_reports_pending_ops_and_frees_the_caller() {
        // A RecvDelay far beyond the recv timeout: the caller must return
        // with RT-TIMEOUT instead of waiting the stall out.
        let g = synthetic::chain(6);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 3);
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![Fault {
                node: 2,
                batch: 0,
                exec_index: 0,
                kind: FaultKind::RecvDelay { millis: 2_000 },
            }],
        });
        let opts = RunOptions::with_injector(inj)
            .engine(Engine::Stealing)
            .recv_timeout(Duration::from_millis(100));
        let start = Instant::now();
        let err = run(
            &g,
            &clustering,
            from_ref(&inputs),
            &ExecCtx::sequential(),
            &opts,
        )
        .single()
        .unwrap_err();
        assert_eq!(err.code(), "RT-TIMEOUT", "got {err}");
        assert!(
            start.elapsed() < Duration::from_millis(1_500),
            "caller waited out the injected stall"
        );
        match err {
            RuntimeError::Timeout { pending_ops, .. } => assert!(pending_ops > 0),
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn gauge_reads_zero_after_success() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let gauge = MemGauge::new();
        let ctx = ExecCtx::sequential().with_mem_gauge(gauge.clone());
        let inputs = synth_inputs(&g, 5);
        run(
            &g,
            &clustering,
            from_ref(&inputs),
            &ctx,
            &RunOptions::default().engine(Engine::Stealing),
        )
        .single()
        .unwrap();
        assert_eq!(gauge.live_bytes(), 0);
        assert!(gauge.peak_bytes() > 0);
    }

    #[test]
    fn telemetry_counts_every_task_once() {
        let g = build(ModelKind::Googlenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let ctx = ExecCtx::sequential();
        let plan = Arc::new(StealPlan::new(&g, &clustering, 1).unwrap());
        let pool = StealPool::new(2);
        let inputs = synth_inputs(&g, 21);
        let before = pool.stats();
        pool.run_plan(
            &plan,
            std::slice::from_ref(&inputs),
            &ctx,
            &RunOptions::default(),
        )
        .unwrap();
        let after = pool.stats();
        let ran = after.tasks - before.tasks;
        assert_eq!(ran as usize, plan.num_tasks(), "every task counted once");
        assert_eq!(after.exec_ns.count, after.tasks, "one exec sample per task");
        assert!(after.exec_ns.sum > 0);
        assert!(after.exec_ns.percentile(0.99) >= after.exec_ns.percentile(0.5));
        // A finished run leaves the injector empty, and a steal is a task.
        assert_eq!(after.injector_pops, after.injector_pushes);
        assert!(after.steals <= after.tasks);
    }

    #[test]
    fn wrong_batch_count_rejected() {
        let g = synthetic::chain(3);
        let clustering = cluster_graph(&g, &StaticCost);
        let hc = ramiel_cluster::hypercluster(&clustering, 2);
        let inputs = vec![synth_inputs(&g, 0)];
        let err = run(
            &g,
            &hc,
            &inputs,
            &ExecCtx::sequential(),
            &RunOptions::default().engine(Engine::Stealing),
        )
        .outputs
        .unwrap_err();
        assert_eq!(err.code(), "RT-SETUP");
    }

    #[test]
    fn a_plan_over_another_graphs_weights_is_refused() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let prog = Arc::new(GraphProgram::new(&g).unwrap());
        let hc = ramiel_cluster::hypercluster(&cluster_graph(&g, &StaticCost), 1);
        let other = crate::initializer_values(&synthetic::chain(3)).unwrap();
        let Err(err) = StealPlan::with_program(&prog, other, &hc) else {
            panic!("a plan over the wrong weight table was built");
        };
        assert_eq!(err.code(), "RT-SETUP", "got {err}");
    }
}
