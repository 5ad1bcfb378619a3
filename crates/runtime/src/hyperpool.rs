//! The channel executor: one standing worker per (hyper)cluster, one inbox
//! message per cross-cluster tensor — the paper's runtime, and the only
//! channel worker loop in the crate.
//!
//! [`HyperPool`] keeps the workers alive across jobs, each job shipping an
//! [`Arc`]'d schedule ([`PlannedBatch`]) so consecutive jobs can run at
//! different batch sizes (whatever the serving micro-batcher collected
//! before its delay budget ran out) without respawning threads or
//! recomputing routing tables. Batch 1 is a hyperclustering of width 1.
//! The per-run placement the generated Python mirrors — threads spawned for
//! one inference and joined at its end — is the same pool built, used for
//! one job and dropped ([`crate::run`] with [`crate::Engine::Channels`]).
//!
//! ## Worker programs
//!
//! A [`PlannedBatch`] is compiled, not interpreted: on top of the shared
//! [`GraphProgram`] (names → base slots, once per graph) every worker gets
//! a `WorkerProgram` — dense *local* slot ids for each tensor instance
//! `(tensor, batch)` it produces or receives, per-op operand sources,
//! output slots with their remote consumers as `(worker, that worker's
//! slot)`, the per-job read-count template and, per slot, the ops waiting
//! on it. Running a job is then index work: a message is `(job, slot)`,
//! its arrival decrements the waiting ops' missing-operand counters, and
//! an op whose counter reaches zero joins the ready set. A weight operand
//! is an index into the pool's weight table; only graph inputs are still
//! looked up by name, in the request.
//!
//! Workers execute their op list **first-ready-first** (lowest ready index
//! first). For linear/merged clusters (ordered by decreasing
//! `distance_to_end`) this degenerates to strict in-order execution; for
//! *switched* hyperclusters it is load-bearing — a strict in-order worker
//! can deadlock on cross-batch wait cycles, which is why the paper calls
//! automatic switched hyperclustering "complex" and hand-tunes it for
//! larger models. Messages are tagged with the job id so back-to-back jobs
//! cannot cross-talk.
//!
//! ## Failure semantics
//!
//! A failing or panicking job must not kill the pool. Workers catch panics
//! per job, report a structured [`RuntimeError`] through the done channel,
//! and broadcast `JobAbort` so peers blocked on that job's tensors give up
//! immediately instead of waiting out the recv timeout; the collector then
//! reports the *root cause* (kernel error, panic, injected fault, timeout)
//! rather than a peer's secondary teardown error. The pool stays
//! serviceable for the next job — which is what lets the serving layer
//! retry a poisoned batch (or degrade it to per-request sequential
//! execution) without tearing the server down. Fault injection
//! ([`crate::fault`]) and the recv timeout come from [`RunOptions`].
//!
//! ## Profiling
//!
//! A job submitted through [`HyperPool::run_batch_profiled`] returns a
//! [`ProfileDb`]: one [`OpRecord`] per executed op (time blocked in `recv`
//! charged as slack to the op before the wait), one [`WorkerSpan`] per
//! worker, the pool's cumulative per-edge channel statistics. Unprofiled
//! jobs pay one untaken branch per op and per blocking wait.

use crate::fault::{node_error, panic_to_error, Armed, FaultInjector, INJECT_MARKER};
use crate::limits::default_recv_timeout;
use crate::profile::{OpRecord, ProfileDb, WorkerSpan};
use crate::program::{weight_table, GraphProgram, InSrc};
use crate::reuse::charge_bytes;
use crate::run::RunOptions;
use crate::{value_bytes, Env, Result, RuntimeError};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError};
use ramiel_cluster::hyper::HyperClustering;
use ramiel_ir::graph::Adjacency;
use ramiel_ir::{Graph, OpKind};
use ramiel_obs::{ChannelEdgeStats, ChannelMeter, Obs};
use ramiel_tensor::{eval_op, eval_op_inplace, ExecCtx, ExecError, MemGauge, Value};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// "No local slot": an instance a worker has not been given one for yet
/// (while compiling), or an operand that is not a slot at all.
const UNASSIGNED: u32 = u32::MAX;

/// One produced output of a scheduled op.
#[derive(Debug, PartialEq)]
struct OutSpec {
    /// Local slot the value lands in on the producing worker.
    slot: u32,
    /// Base slot in the [`GraphProgram`] (names the tensor).
    base: u32,
    graph_output: bool,
    /// Range into `WorkerProgram::sends`: the remote consumers.
    sends: (u32, u32),
}

/// One schedule entry, resolved: which node, which batch element, where
/// its operands and outputs live.
#[derive(Debug, PartialEq)]
struct ProgOp {
    /// Node index in the [`GraphProgram`].
    node: u32,
    batch: u32,
    /// Range into `WorkerProgram::operands`, one entry per input position
    /// of the node.
    ins: (u32, u32),
    /// Range into `WorkerProgram::outs`, one entry per output.
    outs: (u32, u32),
    /// Slot-sourced operand positions: the op is ready once that many
    /// slot arrivals have been counted.
    missing: u32,
}

/// What one worker executes for one schedule: its op list with every
/// tensor instance resolved to a dense local slot. Flat tables, so a
/// program is a handful of allocations whatever the batch size.
#[derive(Debug, PartialEq, Default)]
struct WorkerProgram {
    ops: Vec<ProgOp>,
    /// Local slot per operand position; [`UNASSIGNED`] where the node reads
    /// a graph input or a weight (fetched as the [`GraphProgram`] node's
    /// operand at that position says).
    operands: Vec<u32>,
    outs: Vec<OutSpec>,
    /// `(consumer worker, the consumer's local slot)` per cross-worker edge.
    sends: Vec<(u32, u32)>,
    /// Per local slot: reads by this worker's ops, plus one pin for graph
    /// outputs produced here (the per-job liveness template).
    reads: Vec<u32>,
    /// Per local slot `s`, `waiters[waiter_start[s]..waiter_start[s + 1]]`
    /// are the ops reading it, one entry per consuming input position.
    waiter_start: Vec<u32>,
    waiters: Vec<u32>,
}

/// A hypercluster schedule compiled into per-worker programs. Built once
/// per (clustering, batch size) and shared — via `Arc` — by every job that
/// executes at that batch size, so the per-job cost of a different batch
/// size is a pointer swap, not a recompute.
#[derive(Debug, PartialEq)]
pub struct PlannedBatch {
    hc: HyperClustering,
    prog: Arc<GraphProgram>,
    workers: Vec<WorkerProgram>,
}

impl PlannedBatch {
    /// Precompute ownership and routing for `hc` over `graph`. Fails fast
    /// (RT-SETUP) on schedules that reference unassigned producers.
    pub fn new(graph: &Graph, hc: HyperClustering) -> Result<PlannedBatch> {
        PlannedBatch::with_adjacency(graph, &graph.adjacency(), hc)
    }

    /// [`PlannedBatch::new`] over an adjacency snapshot the caller already
    /// holds (a plan build shares one with the clustering passes).
    pub fn with_adjacency(
        graph: &Graph,
        adj: &Adjacency<'_>,
        hc: HyperClustering,
    ) -> Result<PlannedBatch> {
        let prog = Arc::new(GraphProgram::with_adjacency(graph, adj)?);
        PlannedBatch::with_program(&prog, hc)
    }

    /// Compile `hc` over an already-resolved graph: names were resolved
    /// once in `prog`, so planning another batch size is integer work only.
    pub fn with_program(prog: &Arc<GraphProgram>, hc: HyperClustering) -> Result<PlannedBatch> {
        let nn = prog.nodes.len();
        let ns = prog.num_slots();
        let batch = hc.batch.max(1);
        let mut owner = vec![UNASSIGNED; batch * nn];
        for (w, ops) in hc.hyperclusters.iter().enumerate() {
            for op in ops {
                if op.node >= nn || op.batch >= batch {
                    return Err(RuntimeError::Setup(format!(
                        "schedule entry (batch {}, node {}) is outside the graph",
                        op.batch, op.node
                    )));
                }
                owner[op.batch * nn + op.node] = w as u32;
            }
        }

        // Pass 1, per worker: local slots for everything it produces, then
        // for everything it reads from a peer — each such read is one
        // cross-worker edge `(instance, consumer, consumer's slot)`.
        let mut local = vec![UNASSIGNED; batch * ns];
        let mut touched: Vec<usize> = Vec::new();
        let mut edges: Vec<(u32, u32, u32)> = Vec::new();
        let mut workers: Vec<WorkerProgram> = Vec::with_capacity(hc.hyperclusters.len());
        for (w, ops) in hc.hyperclusters.iter().enumerate() {
            let mut wp = WorkerProgram::default();
            for op in ops {
                let outs_start = wp.outs.len() as u32;
                for &base in prog.out_slots(op.node) {
                    let inst = op.batch * ns + base as usize;
                    if local[inst] != UNASSIGNED {
                        return Err(RuntimeError::Setup(format!(
                            "node {} (batch {}) is scheduled twice on worker {w}",
                            op.node, op.batch
                        )));
                    }
                    local[inst] = wp.reads.len() as u32;
                    touched.push(inst);
                    let graph_output = prog.slot_is_output[base as usize];
                    wp.outs.push(OutSpec {
                        slot: wp.reads.len() as u32,
                        base,
                        graph_output,
                        sends: (0, 0),
                    });
                    wp.reads.push(u32::from(graph_output));
                }
                wp.ops.push(ProgOp {
                    node: op.node as u32,
                    batch: op.batch as u32,
                    ins: (0, 0),
                    outs: (outs_start, wp.outs.len() as u32),
                    missing: 0,
                });
            }
            // (slot, op) per slot-sourced operand position, in op order.
            let mut reads_of: Vec<(u32, u32)> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                let ins_start = wp.operands.len() as u32;
                for src in prog.inputs(op.node) {
                    let InSrc::Slot(base) = src else {
                        wp.operands.push(UNASSIGNED);
                        continue;
                    };
                    let inst = op.batch * ns + *base as usize;
                    if local[inst] == UNASSIGNED {
                        let p = prog.slot_producer[*base as usize] as usize;
                        if owner[op.batch * nn + p] == UNASSIGNED {
                            return Err(RuntimeError::Setup(format!("node {p} unassigned")));
                        }
                        local[inst] = wp.reads.len() as u32;
                        touched.push(inst);
                        edges.push((inst as u32, w as u32, local[inst]));
                        wp.reads.push(0);
                    }
                    let slot = local[inst];
                    wp.reads[slot as usize] += 1;
                    wp.operands.push(slot);
                    reads_of.push((slot, i as u32));
                    wp.ops[i].missing += 1;
                }
                wp.ops[i].ins = (ins_start, wp.operands.len() as u32);
            }
            // Waiter lists, grouped by slot (stable: op order within one).
            wp.waiter_start = vec![0; wp.reads.len() + 1];
            for &(slot, _) in &reads_of {
                wp.waiter_start[slot as usize + 1] += 1;
            }
            for s in 0..wp.reads.len() {
                wp.waiter_start[s + 1] += wp.waiter_start[s];
            }
            let mut cursor = wp.waiter_start.clone();
            wp.waiters = vec![0; reads_of.len()];
            for &(slot, op) in &reads_of {
                wp.waiters[cursor[slot as usize] as usize] = op;
                cursor[slot as usize] += 1;
            }
            for inst in touched.drain(..) {
                local[inst] = UNASSIGNED;
            }
            workers.push(wp);
        }

        // Pass 2: hand every producer the consumers of its outputs. Sorted,
        // so one instance's edges are contiguous and in worker order.
        edges.sort_unstable();
        for wp in &mut workers {
            let WorkerProgram {
                ops, outs, sends, ..
            } = wp;
            for op in ops.iter() {
                for out in &mut outs[op.outs.0 as usize..op.outs.1 as usize] {
                    let inst = (op.batch as usize * ns + out.base as usize) as u32;
                    let start = sends.len() as u32;
                    let first = edges.partition_point(|e| e.0 < inst);
                    sends.extend(
                        edges[first..]
                            .iter()
                            .take_while(|e| e.0 == inst)
                            .map(|e| (e.1, e.2)),
                    );
                    out.sends = (start, sends.len() as u32);
                }
            }
        }
        Ok(PlannedBatch {
            hc,
            prog: Arc::clone(prog),
            workers,
        })
    }

    /// Batch size this schedule executes.
    pub fn batch(&self) -> usize {
        self.hc.batch
    }

    /// Worker count the schedule expects (one per hypercluster).
    pub fn num_workers(&self) -> usize {
        self.hc.num_hyperclusters()
    }

    /// The slot-resolved graph this schedule was compiled over.
    pub fn program(&self) -> &Arc<GraphProgram> {
        &self.prog
    }
}

enum PoolMsg {
    Job {
        id: u64,
        inputs: Arc<Vec<Env>>,
        plan: Arc<PlannedBatch>,
        /// Collect per-op records and a worker span for this job.
        profile: bool,
    },
    /// A tensor for the receiver's local `slot` in job `job`, plus the
    /// sending worker (for per-edge channel metrics).
    Tensor {
        job: u64,
        slot: u32,
        value: Value,
        from: usize,
    },
    /// A peer failed this job: stop waiting for its tensors.
    JobAbort(u64),
    Stop,
}

/// `(batch element, base slot, value)` per graph output a worker produced.
type Produced = Vec<(usize, u32, Value)>;

struct PoolDone {
    job: u64,
    outputs: Produced,
    error: Option<RuntimeError>,
    /// Per-op records and this worker's wall window over the job
    /// (profiled jobs only).
    records: Vec<OpRecord>,
    span: Option<WorkerSpan>,
}

/// A standing pool of hypercluster workers. Create once per compiled plan,
/// call [`run_batch`](Self::run_batch) per micro-batch (any batch size whose
/// [`PlannedBatch`] matches the worker count), drop to stop.
pub struct HyperPool {
    worker_txs: Vec<Sender<PoolMsg>>,
    done_rx: Receiver<PoolDone>,
    handles: Vec<JoinHandle<()>>,
    next_job: u64,
    workers: usize,
    /// The weight table the programs' `InSrc::Weight` operands index.
    weights: Arc<Vec<Value>>,
    recv_timeout: Duration,
    meter: Arc<ChannelMeter>,
    /// Timebase of worker-side profiling records, and where it sits on the
    /// obs timeline.
    epoch: Instant,
    obs: Obs,
}

impl HyperPool {
    /// Spawn `workers` standing workers over `graph` (one per cluster of
    /// the clustering every submitted [`PlannedBatch`] was derived from).
    pub fn new(graph: &Graph, workers: usize, ctx: &ExecCtx) -> Result<HyperPool> {
        HyperPool::with_options(graph, workers, ctx, &RunOptions::default())
    }

    /// [`HyperPool::new`] with explicit [`RunOptions`] (shared initializer
    /// table, fault injection, recv timeout, obs sink). Workers take what
    /// they execute from each job's [`PlannedBatch`], so this is channel
    /// set-up plus thread spawns: nothing of `graph` is copied but its
    /// weights, when `opts` brings no shared table (a shared table is
    /// indexed in the order of `graph.initializers`, one lookup per weight).
    pub fn with_options(
        graph: &Graph,
        workers: usize,
        ctx: &ExecCtx,
        opts: &RunOptions,
    ) -> Result<HyperPool> {
        let weights = weight_table(graph, opts.init_values.as_deref())?;
        HyperPool::with_weights(workers, ctx, opts, weights)
    }

    /// [`HyperPool::with_options`] over a weight table the caller already
    /// holds: entry `k` is the `k`-th initializer of the graph the
    /// submitted schedules were planned from. `opts.init_values` is not
    /// read.
    pub fn with_weights(
        workers: usize,
        ctx: &ExecCtx,
        opts: &RunOptions,
        weights: Arc<Vec<Value>>,
    ) -> Result<HyperPool> {
        let recv_timeout = opts.recv_timeout.unwrap_or_else(default_recv_timeout);

        // Worker inboxes are bounded (capacity from `limits`, shared with
        // the ramiel-analyze RA0401 lint); the done channel stays unbounded
        // control plane.
        let channels: Vec<(Sender<PoolMsg>, Receiver<PoolMsg>)> = (0..workers)
            .map(|_| bounded(crate::limits::DATA_CHANNEL_CAPACITY))
            .collect();
        let worker_txs: Vec<Sender<PoolMsg>> = channels.iter().map(|(s, _)| s.clone()).collect();
        let (done_tx, done_rx) = unbounded::<PoolDone>();
        let meter = Arc::new(ChannelMeter::new(workers));
        let epoch = Instant::now();

        let mut handles = Vec::with_capacity(workers);
        for (w, (_, rx)) in channels.iter().enumerate() {
            let rx = rx.clone();
            let peer_txs = worker_txs.clone();
            let weights = Arc::clone(&weights);
            let done_tx = done_tx.clone();
            let ctx = ctx.clone();
            let injector = opts.injector.clone();
            let meter = Arc::clone(&meter);
            let obs = opts.obs.clone();
            let reuse = opts.reuse;
            handles.push(std::thread::spawn(move || {
                worker_main(WorkerState {
                    me: w,
                    weights: &weights,
                    rx,
                    peer_txs: &peer_txs,
                    done_tx,
                    ctx: &ctx,
                    injector: injector.as_ref(),
                    recv_timeout,
                    meter: &meter,
                    obs,
                    reuse,
                    epoch,
                });
            }));
        }

        Ok(HyperPool {
            worker_txs,
            done_rx,
            handles,
            next_job: 0,
            workers,
            weights,
            recv_timeout,
            meter,
            epoch,
            obs: opts.obs.clone(),
        })
    }

    /// Worker count (schedules submitted here must match it).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cumulative per-edge channel statistics since the pool was created.
    pub fn channel_stats(&self) -> Vec<ChannelEdgeStats> {
        self.meter.stats()
    }

    /// Execute one micro-batch through the standing workers. Returns one
    /// output environment per batch element.
    pub fn run_batch(
        &mut self,
        plan: &Arc<PlannedBatch>,
        inputs: &Arc<Vec<Env>>,
    ) -> Result<Vec<Env>> {
        self.submit(plan, inputs, false).map(|(outs, _)| outs)
    }

    /// [`run_batch`](Self::run_batch) plus the job's [`ProfileDb`].
    pub fn run_batch_profiled(
        &mut self,
        plan: &Arc<PlannedBatch>,
        inputs: &Arc<Vec<Env>>,
    ) -> Result<(Vec<Env>, ProfileDb)> {
        let (outs, db) = self.submit(plan, inputs, true)?;
        Ok((outs, db.expect("profiled job builds a db")))
    }

    pub(crate) fn submit(
        &mut self,
        plan: &Arc<PlannedBatch>,
        inputs: &Arc<Vec<Env>>,
        profile: bool,
    ) -> Result<(Vec<Env>, Option<ProfileDb>)> {
        if plan.num_workers() != self.workers {
            return Err(RuntimeError::Setup(format!(
                "schedule has {} hyperclusters but the pool has {} workers",
                plan.num_workers(),
                self.workers
            )));
        }
        if plan.prog.num_weights() != self.weights.len() {
            return Err(RuntimeError::Setup(format!(
                "schedule reads {} weights but the pool holds {}",
                plan.prog.num_weights(),
                self.weights.len()
            )));
        }
        if inputs.len() != plan.batch() {
            return Err(RuntimeError::Setup(format!(
                "schedule expects {} input envs, got {}",
                plan.batch(),
                inputs.len()
            )));
        }
        let id = self.next_job;
        self.next_job += 1;
        for tx in &self.worker_txs {
            tx.send(PoolMsg::Job {
                id,
                inputs: Arc::clone(inputs),
                plan: Arc::clone(plan),
                profile,
            })
            .map_err(|_| RuntimeError::ChannelClosed {
                cluster: None,
                detail: "pool worker hung up".into(),
            })?;
        }
        let mut db = profile.then(|| {
            let mut db = ProfileDb::new(self.workers, plan.batch());
            // obs-timeline position of the pool epoch all records count from
            db.set_epoch_offset_ns(
                self.obs
                    .now_ns()
                    .saturating_sub(self.epoch.elapsed().as_nanos() as u64),
            );
            db
        });
        let mut outs = vec![Env::new(); plan.batch()];
        let mut errors: Vec<RuntimeError> = Vec::new();
        // Workers bound their own recvs by `recv_timeout` and then report a
        // structured Timeout; waiting strictly longer here means a wedged
        // *worker* surfaces as its own error instead of racing this
        // collector-side deadline (losing that race strands the worker's
        // late PoolDone in the channel for the next job to trip over).
        let wait = self
            .recv_timeout
            .saturating_add(Duration::from_millis(crate::limits::COLLECTOR_GRACE_MS));
        let mut received = 0;
        while received < self.workers {
            let done = self
                .done_rx
                .recv_timeout(wait)
                .map_err(|_| RuntimeError::Timeout {
                    cluster: None,
                    pending_ops: self.workers - received,
                    detail: format!("pool collector timed out waiting for job {id} results"),
                })?;
            if done.job != id {
                // Stale completion from a job a previous (timed-out)
                // collection abandoned — drain and ignore.
                continue;
            }
            received += 1;
            if let Some(e) = done.error {
                errors.push(e);
            }
            if let Some(db) = db.as_mut() {
                db.extend(done.records);
                if let Some(span) = done.span {
                    db.push_worker_span(span);
                }
            }
            for (b, base, v) in done.outputs {
                outs[b].insert(plan.prog.value_name(base).to_string(), v);
            }
        }
        if let Some(db) = db.as_mut() {
            db.set_channels(self.meter.stats());
        }
        // Report the root cause, not a peer's secondary abort error.
        if let Some(e) = errors
            .into_iter()
            .enumerate()
            .min_by_key(|(i, e)| (e.severity_rank(), *i))
            .map(|(_, e)| e)
        {
            return Err(e);
        }
        let weights = &self.weights;
        plan.prog
            .backfill_outputs(&mut outs, inputs, |k| weights.get(k as usize));
        Ok((outs, db))
    }
}

impl Drop for HyperPool {
    fn drop(&mut self) {
        for tx in &self.worker_txs {
            let _ = tx.send(PoolMsg::Stop);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

struct WorkerState<'a> {
    me: usize,
    weights: &'a [Value],
    rx: Receiver<PoolMsg>,
    peer_txs: &'a [Sender<PoolMsg>],
    done_tx: Sender<PoolDone>,
    ctx: &'a ExecCtx,
    injector: Option<&'a Arc<FaultInjector>>,
    recv_timeout: Duration,
    meter: &'a ChannelMeter,
    obs: Obs,
    reuse: bool,
    epoch: Instant,
}

/// A worker's per-job tensor state, indexed by its program's local slots.
/// Lives across jobs so a job allocates nothing for it once the vectors
/// have grown to the largest schedule seen.
#[derive(Default)]
struct JobState {
    vals: Vec<Option<Value>>,
    /// Reads remaining per slot before the value is dead (graph outputs
    /// produced here carry one extra pin so they stay charged for the
    /// whole job, matching the static estimate).
    remaining: Vec<u32>,
    /// Gauge-charged bytes per slot (all zero when no gauge is attached).
    charged: Vec<u64>,
    /// Slot arrivals each op still waits for.
    missing: Vec<u32>,
    /// Ops whose operands have all arrived; lowest index runs first.
    ready: BinaryHeap<Reverse<u32>>,
}

impl JobState {
    fn begin(&mut self, wp: &WorkerProgram) {
        self.vals.clear();
        self.vals.resize(wp.reads.len(), None);
        self.remaining.clear();
        self.remaining.extend_from_slice(&wp.reads);
        self.charged.clear();
        self.charged.resize(wp.reads.len(), 0);
        self.missing.clear();
        self.missing.extend(wp.ops.iter().map(|op| op.missing));
        self.ready.clear();
    }

    /// A value materialized in `slot` (produced here or received): charge
    /// `bytes` to the gauge and release the ops it was the last missing
    /// operand of.
    fn fill(
        &mut self,
        wp: &WorkerProgram,
        gauge: Option<&Arc<MemGauge>>,
        slot: u32,
        v: Value,
        bytes: u64,
    ) {
        let s = slot as usize;
        if let Some(g) = gauge {
            g.alloc(bytes as usize);
            // Re-materializing a slot must not leak the previous charge.
            g.free(self.charged[s] as usize);
            self.charged[s] = bytes;
        }
        self.vals[s] = Some(v);
        for &op in &wp.waiters[wp.waiter_start[s] as usize..wp.waiter_start[s + 1] as usize] {
            let m = &mut self.missing[op as usize];
            if *m > 0 {
                *m -= 1;
                if *m == 0 {
                    self.ready.push(Reverse(op));
                }
            }
        }
    }

    /// The value in `slot` is dead: drop it and release its gauge charge.
    fn evict(&mut self, gauge: Option<&Arc<MemGauge>>, slot: u32) {
        let s = slot as usize;
        self.vals[s] = None;
        if let Some(g) = gauge {
            g.free(self.charged[s] as usize);
            self.charged[s] = 0;
        }
    }

    /// Job over (success, error or panic): free every remaining charge —
    /// pinned graph outputs, values kept alive by `reuse: false`, anything
    /// live on an error path — so a gauge shared across jobs doesn't
    /// accumulate phantom live bytes, and drop the values.
    fn end(&mut self, gauge: Option<&Arc<MemGauge>>) {
        if let Some(g) = gauge {
            for c in self.charged.drain(..) {
                g.free(c as usize);
            }
        }
        self.vals.clear();
    }
}

fn job_abort_error(me: usize) -> RuntimeError {
    RuntimeError::ChannelClosed {
        cluster: Some(me),
        detail: crate::ABORT_DETAIL.into(),
    }
}

fn worker_main(st: WorkerState<'_>) {
    // Tensors that arrived before their job started on this worker:
    // (job, local slot in that job's program, value).
    let mut stash: Vec<(u64, u32, Value)> = Vec::new();
    // Jobs a peer aborted before we started (or finished) them.
    let mut aborted: HashSet<u64> = HashSet::new();
    let mut state = JobState::default();

    while let Ok(msg) = st.rx.recv() {
        let (job, inputs, plan, profile) = match msg {
            PoolMsg::Stop => return,
            PoolMsg::Tensor {
                job,
                slot,
                value,
                from,
            } => {
                st.meter.on_recv(from, st.me, 0);
                stash.push((job, slot, value));
                continue;
            }
            PoolMsg::JobAbort(j) => {
                aborted.insert(j);
                continue;
            }
            PoolMsg::Job {
                id,
                inputs,
                plan,
                profile,
            } => (id, inputs, plan, profile),
        };

        let job_start_ns = st.epoch.elapsed().as_nanos() as u64;
        let mut records = Vec::new();
        let (outputs, error) = if aborted.contains(&job) {
            (Vec::new(), Some(job_abort_error(st.me)))
        } else {
            // Panics must not kill the pool thread: catch per job, report
            // as a structured error, keep serving.
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_job(
                    &st,
                    &mut state,
                    &mut stash,
                    &mut aborted,
                    job,
                    &inputs,
                    &plan,
                    profile.then_some(&mut records),
                )
            }));
            state.end(st.ctx.mem_gauge());
            match r {
                Ok(pair) => pair,
                Err(payload) => (Vec::new(), Some(panic_to_error(Some(st.me), payload))),
            }
        };

        if error.is_some() {
            // Unblock peers waiting on this job's tensors. try_send: a full
            // inbox means the peer is not blocked in recv; it will hit its
            // own recv timeout if it ever waits on this job again.
            for (t, tx) in st.peer_txs.iter().enumerate() {
                if t != st.me {
                    let _ = tx.try_send(PoolMsg::JobAbort(job));
                }
            }
        }
        // Jobs finish in submission order: stale stash/abort entries for
        // this or earlier jobs can never be read again.
        stash.retain(|(j, _, _)| *j > job);
        aborted.retain(|j| *j > job);

        let span = profile.then(|| WorkerSpan {
            worker: st.me,
            start_ns: job_start_ns,
            end_ns: st.epoch.elapsed().as_nanos() as u64,
        });
        if st
            .done_tx
            .send(PoolDone {
                job,
                outputs,
                error,
                records,
                span,
            })
            .is_err()
        {
            return;
        }
    }
}

/// Execute one job's hypercluster ops on this worker, first-ready-first.
/// Returns the graph outputs this worker produced and the first error;
/// a profiled job also fills `records`, one entry per executed op.
#[allow(clippy::too_many_arguments)]
fn run_job(
    st: &WorkerState<'_>,
    state: &mut JobState,
    stash: &mut Vec<(u64, u32, Value)>,
    aborted: &mut HashSet<u64>,
    job: u64,
    inputs: &[Env],
    plan: &PlannedBatch,
    mut records: Option<&mut Vec<OpRecord>>,
) -> (Produced, Option<RuntimeError>) {
    let me = st.me;
    let prog = &*plan.prog;
    let wp = &plan.workers[me];
    let gauge = st.ctx.mem_gauge();
    state.begin(wp);
    // Move stashed early arrivals for this job in.
    let mut k = 0;
    while k < stash.len() {
        if stash[k].0 == job {
            let (_, slot, v) = stash.swap_remove(k);
            let bytes = value_bytes(&v);
            state.fill(wp, gauge, slot, v, bytes);
        } else {
            k += 1;
        }
    }
    for (i, op) in wp.ops.iter().enumerate() {
        if op.missing == 0 {
            state.ready.push(Reverse(i as u32));
        }
    }
    let mut left = wp.ops.len();
    let mut outputs: Produced = Vec::new();

    // Route an inbox message (`$waited`: ns this worker blocked for it);
    // returns an error to surface, if any.
    macro_rules! take_msg {
        ($msg:expr, $waited:expr) => {
            match $msg {
                PoolMsg::Tensor {
                    job: j,
                    slot,
                    value,
                    from,
                } => {
                    st.meter.on_recv(from, me, $waited);
                    if j == job {
                        let bytes = value_bytes(&value);
                        state.fill(wp, gauge, slot, value, bytes);
                    } else if j > job {
                        stash.push((j, slot, value));
                    } // j < job: stale, drop
                }
                PoolMsg::JobAbort(j) => {
                    if j == job {
                        return (outputs, Some(job_abort_error(me)));
                    }
                    aborted.insert(j);
                }
                PoolMsg::Stop | PoolMsg::Job { .. } => {
                    return (
                        outputs,
                        Some(RuntimeError::Setup(format!(
                            "worker {me}: protocol error mid-job {job}"
                        ))),
                    );
                }
            }
        };
    }

    while left > 0 {
        // Drain any already-arrived messages without blocking.
        loop {
            match st.rx.try_recv() {
                Ok(msg) => take_msg!(msg, 0),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    return (
                        outputs,
                        Some(RuntimeError::ChannelClosed {
                            cluster: Some(me),
                            detail: "pool inbox closed".into(),
                        }),
                    )
                }
            }
        }
        // Lowest-index op whose operands have all arrived.
        let Some(Reverse(i)) = state.ready.pop() else {
            // Block for the next message (bounded, so schedule bugs surface
            // as errors instead of hangs). Profiled jobs charge the wait to
            // the channel edge and, as slack, to the op that preceded it.
            let wait_start = records.is_some().then(Instant::now);
            match st.rx.recv_timeout(st.recv_timeout) {
                Ok(msg) => {
                    let waited = wait_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
                    if let Some(last) = records.as_mut().and_then(|r| r.last_mut()) {
                        last.slack_after_ns += waited;
                    }
                    take_msg!(msg, waited)
                }
                Err(_) => {
                    return (
                        outputs,
                        Some(RuntimeError::Timeout {
                            cluster: Some(me),
                            pending_ops: left,
                            detail: format!(
                                "worker {me}: timed out waiting for job {job} messages; \
                                 run `ramiel check <model>` to statically diagnose the schedule"
                            ),
                        }),
                    )
                }
            }
            continue;
        };

        left -= 1;
        let op = &wp.ops[i as usize];
        let node = &prog.nodes[op.node as usize];
        let batch = op.batch as usize;
        let operands = &wp.operands[op.ins.0 as usize..op.ins.1 as usize];
        let out_specs = &wp.outs[op.outs.0 as usize..op.outs.1 as usize];

        // Fault injection: arm this execution's faults, if any.
        let armed = match st.injector {
            Some(inj) => Armed::new(
                &inj.begin_node(node.id, batch),
                &st.obs,
                Some(me),
                node.id,
                batch,
            ),
            None => Armed::default(),
        };
        if !armed.recv_delay.is_zero() {
            std::thread::sleep(armed.recv_delay);
        }

        let op_start = records.is_some().then(Instant::now);
        let result = if matches!(node.op, OpKind::Constant) {
            // A Constant's payload is already in the shared weight table —
            // share it, don't re-convert (so an armed kernel fault has no
            // kernel to travel through).
            let payload = node.payload.and_then(|k| st.weights.get(k as usize));
            match payload {
                _ if armed.kernel_fault => Err(ExecError(INJECT_MARKER.into())),
                Some(v) => Ok(vec![v.clone()]),
                None => Err(ExecError("Constant missing payload".into())),
            }
        } else {
            // A node marked by the in-place pass takes its dying operand
            // *out* of its slot (sole remaining read), so the kernel's
            // `Arc::get_mut` gate can overwrite the buffer in place.
            let mark = if st.reuse { node.mark } else { None };
            let mut owned_slot = None;
            let mut ins: Vec<Value> = Vec::with_capacity(operands.len());
            for (pos, (src, &slot)) in prog
                .inputs(op.node as usize)
                .iter()
                .zip(operands)
                .enumerate()
            {
                let found = match *src {
                    InSrc::Slot(_) => {
                        let s = slot as usize;
                        if mark == Some(pos) && state.remaining[s] == 1 {
                            if let Some(v) = state.vals[s].take() {
                                owned_slot = Some(pos);
                                ins.push(v);
                                continue;
                            }
                        }
                        state.vals[s].clone()
                    }
                    InSrc::Weight(k) => st.weights.get(k as usize).cloned(),
                    InSrc::Input(v) => inputs[batch].get(prog.value_name(v)).cloned(),
                };
                match found {
                    Some(v) => ins.push(v),
                    None => {
                        let tensor = match *src {
                            InSrc::Slot(v) | InSrc::Input(v) => prog.value_name(v),
                            InSrc::Weight(k) => prog.weight_name(k),
                        };
                        return (
                            outputs,
                            Some(RuntimeError::Setup(format!(
                                "worker {me}: tensor `{tensor}` (batch {batch}) unavailable"
                            ))),
                        );
                    }
                }
            }
            let hooked = armed
                .kernel_fault
                .then(|| FaultInjector::kernel_fault_ctx(st.ctx, Some(me), node.id));
            let eval_ctx = hooked.as_ref().unwrap_or(st.ctx);
            match owned_slot {
                Some(s) => eval_op_inplace(eval_ctx, &node.op, ins, s),
                None => eval_op(eval_ctx, &node.op, &ins),
            }
        };
        let outs = match result {
            Ok(o) => o,
            Err(e) => {
                let name = prog.node_name(op.node as usize);
                return (outputs, Some(node_error(Some(me), node.id, name, e)));
            }
        };
        if let (Some(records), Some(start)) = (records.as_mut(), op_start) {
            records.push(OpRecord {
                worker: me,
                batch,
                node: node.id,
                start_ns: (start - st.epoch).as_nanos() as u64,
                end_ns: st.epoch.elapsed().as_nanos() as u64,
                slack_after_ns: 0,
            });
        }
        if !armed.send_delay.is_zero() {
            std::thread::sleep(armed.send_delay);
        }
        for (spec, v) in out_specs.iter().zip(outs) {
            if !armed.drop_msgs {
                for &(t, slot) in &wp.sends[spec.sends.0 as usize..spec.sends.1 as usize] {
                    let t = t as usize;
                    st.meter
                        .on_send(me, t, value_bytes(&v), crate::value_copied_bytes(&v));
                    if st.peer_txs[t]
                        .send(PoolMsg::Tensor {
                            job,
                            slot,
                            value: v.clone(),
                            from: me,
                        })
                        .is_err()
                    {
                        return (
                            outputs,
                            Some(RuntimeError::ChannelClosed {
                                cluster: Some(me),
                                detail: "peer worker hung up".into(),
                            }),
                        );
                    }
                }
            }
            if spec.graph_output {
                outputs.push((batch, spec.base, v.clone()));
            }
            let bytes = charge_bytes(&node.op, &v);
            state.fill(wp, gauge, spec.slot, v, bytes);
        }
        if st.reuse {
            // Inputs whose last local read this was — and outputs with no
            // local reader (already shipped/recorded above) — die here.
            for &s in operands.iter().filter(|&&s| s != UNASSIGNED) {
                let r = &mut state.remaining[s as usize];
                if *r > 0 {
                    *r -= 1;
                    if *r == 0 {
                        state.evict(gauge, s);
                    }
                }
            }
            for spec in out_specs {
                if state.remaining[spec.slot as usize] == 0 {
                    state.evict(gauge, spec.slot);
                }
            }
        }
    }

    (outputs, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_sequential;
    use crate::fault::{quiet_injected_panics, Fault, FaultKind, FaultPlan};
    use crate::synth_inputs;
    use ramiel_cluster::{cluster_graph, hypercluster, switched_hypercluster, StaticCost};
    use ramiel_models::{build, synthetic, ModelConfig, ModelKind};

    fn plans_for(
        graph: &Graph,
        clustering: &ramiel_cluster::Clustering,
        batches: &[usize],
        switched: bool,
    ) -> Vec<Arc<PlannedBatch>> {
        batches
            .iter()
            .map(|&b| {
                let hc = if switched {
                    switched_hypercluster(clustering, b)
                } else {
                    hypercluster(clustering, b)
                };
                Arc::new(PlannedBatch::new(graph, hc).unwrap())
            })
            .collect()
    }

    #[test]
    fn pool_matches_sequential_at_every_batch_size() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let ctx = ExecCtx::sequential();
        let plans = plans_for(&g, &clustering, &[1, 2, 4], false);
        let mut pool = HyperPool::new(&g, clustering.num_clusters(), &ctx).unwrap();
        // Interleave batch sizes job to job, the way a micro-batcher does.
        for (job, plan) in plans.iter().cycle().take(6).enumerate() {
            let inputs: Vec<Env> = (0..plan.batch())
                .map(|b| synth_inputs(&g, (job * 10 + b) as u64))
                .collect();
            let outs = pool.run_batch(plan, &Arc::new(inputs.clone())).unwrap();
            for (b, inp) in inputs.iter().enumerate() {
                let seq = run_sequential(&g, inp, &ctx).unwrap();
                assert_eq!(seq, outs[b], "job {job} batch {b}");
            }
        }
    }

    #[test]
    fn pool_executes_switched_schedules() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let ctx = ExecCtx::sequential();
        let plans = plans_for(&g, &clustering, &[3], true);
        let mut pool = HyperPool::new(&g, clustering.num_clusters(), &ctx).unwrap();
        let inputs: Vec<Env> = (0..3).map(|b| synth_inputs(&g, 40 + b as u64)).collect();
        let outs = pool
            .run_batch(&plans[0], &Arc::new(inputs.clone()))
            .unwrap();
        for (b, inp) in inputs.iter().enumerate() {
            let seq = run_sequential(&g, inp, &ctx).unwrap();
            assert_eq!(seq, outs[b], "batch {b}");
        }
    }

    #[test]
    fn mismatched_schedule_rejected() {
        let g = synthetic::chain(4);
        let clustering = cluster_graph(&g, &StaticCost);
        let ctx = ExecCtx::sequential();
        let plan = plans_for(&g, &clustering, &[2], false).remove(0);
        let mut pool = HyperPool::new(&g, clustering.num_clusters() + 1, &ctx).unwrap();
        let inputs: Vec<Env> = (0..2).map(|b| synth_inputs(&g, b as u64)).collect();
        let err = pool.run_batch(&plan, &Arc::new(inputs)).unwrap_err();
        assert_eq!(err.code(), "RT-SETUP");
    }

    fn one_fault(node: usize, kind: FaultKind) -> RunOptions {
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![Fault {
                node,
                batch: 0,
                exec_index: 0,
                kind,
            }],
        });
        RunOptions::with_injector(inj).recv_timeout(Duration::from_secs(5))
    }

    #[test]
    fn pool_survives_injected_panic_and_keeps_serving() {
        quiet_injected_panics();
        let g = synthetic::fork_join(4, 3, 2);
        let clustering = cluster_graph(&g, &StaticCost);
        let ctx = ExecCtx::sequential();
        for batch in [1usize, 2] {
            // panic on the first job's execution of node 1, then behave
            let opts = one_fault(1, FaultKind::WorkerPanic);
            let plan = plans_for(&g, &clustering, &[batch], false).remove(0);
            let mut pool =
                HyperPool::with_options(&g, clustering.num_clusters(), &ctx, &opts).unwrap();
            let inputs: Vec<Env> = (0..batch).map(|b| synth_inputs(&g, b as u64)).collect();
            let shared = Arc::new(inputs.clone());
            let err = pool.run_batch(&plan, &shared).unwrap_err();
            assert_eq!(err.code(), "RT-INJECT", "got {err}");
            // The pool must still be alive and produce correct results.
            let outs = pool.run_batch(&plan, &shared).unwrap();
            for (b, inp) in inputs.iter().enumerate() {
                let seq = run_sequential(&g, inp, &ctx).unwrap();
                assert_eq!(seq, outs[b], "batch {b}");
            }
        }
    }

    /// A standing batch-1 pool over `clustering` and its one schedule.
    fn batch1_pool(
        g: &Graph,
        clustering: &ramiel_cluster::Clustering,
        opts: &RunOptions,
    ) -> (HyperPool, Arc<PlannedBatch>) {
        let plan = plans_for(g, clustering, &[1], false).remove(0);
        let ctx = ExecCtx::sequential();
        let pool = HyperPool::with_options(g, clustering.num_clusters(), &ctx, opts).unwrap();
        (pool, plan)
    }

    fn run1(pool: &mut HyperPool, plan: &Arc<PlannedBatch>, inputs: &Env) -> Result<Env> {
        let mut outs = pool.run_batch(plan, &Arc::new(vec![inputs.clone()]))?;
        Ok(outs.pop().expect("batch 1 yields one output env"))
    }

    #[test]
    fn batch1_pool_matches_sequential_across_many_jobs() {
        let ctx = ExecCtx::sequential();
        for g in [
            build(ModelKind::Squeezenet, &ModelConfig::tiny()),
            synthetic::fork_join(4, 3, 2),
        ] {
            let clustering = cluster_graph(&g, &StaticCost);
            let (mut pool, plan) = batch1_pool(&g, &clustering, &RunOptions::default());
            for seed in 0..8u64 {
                let inputs = synth_inputs(&g, seed);
                let seq = run_sequential(&g, &inputs, &ctx).unwrap();
                assert_eq!(run1(&mut pool, &plan, &inputs).unwrap(), seq, "seed {seed}");
            }
        }
    }

    #[test]
    fn shared_remote_tensor_reaches_every_consumer() {
        // One producer cluster, one consumer cluster where TWO nodes read
        // the producer's tensor: it crosses the boundary once (one edge per
        // consumer worker), so the worker must keep it available after the
        // first consumer — regression test for the starvation this caused
        // on multi-head models.
        use ramiel_cluster::{Cluster, Clustering};
        use ramiel_ir::{DType, GraphBuilder};
        let mut b = GraphBuilder::new("shared");
        let x = b.input("x", DType::F32, vec![4]);
        let p = b.op("p", OpKind::Relu, vec![x]);
        let u = b.op("u", OpKind::Relu, vec![p.clone()]);
        let v = b.op("v", OpKind::Neg, vec![p]);
        let w = b.op("w", OpKind::Add, vec![u, v]);
        b.output(&w);
        let g = b.finish().unwrap();
        let clustering = Clustering::new(vec![Cluster::new(vec![0]), Cluster::new(vec![1, 2, 3])]);
        let inputs = synth_inputs(&g, 9);
        let seq = run_sequential(&g, &inputs, &ExecCtx::sequential()).unwrap();
        let opts = RunOptions::default().recv_timeout(Duration::from_secs(5));
        let (mut pool, plan) = batch1_pool(&g, &clustering, &opts);
        assert_eq!(run1(&mut pool, &plan, &inputs).unwrap(), seq);
        assert_eq!(pool.channel_stats().iter().map(|e| e.sends).sum::<u64>(), 1);
    }

    #[test]
    fn pool_reports_kernel_errors() {
        // Gather shape inference uses only the indices' *shape*, so this
        // graph validates and the out-of-range index fails at run time.
        use ramiel_ir::{DType, GraphBuilder};
        let mut b = GraphBuilder::new("bad");
        let x = b.input("x", DType::F32, vec![2, 2]);
        let idx = b.init("idx", ramiel_ir::TensorData::vec_i64(vec![5]));
        let y = b.op("g", OpKind::Gather { axis: 0 }, vec![x, idx]);
        b.output(&y);
        let g = b.finish().unwrap();
        let clustering = cluster_graph(&g, &StaticCost);
        let (mut pool, plan) = batch1_pool(&g, &clustering, &RunOptions::default());
        let err = run1(&mut pool, &plan, &synth_inputs(&g, 1)).unwrap_err();
        assert_eq!(err.code(), "RT-KERNEL");
        assert!(err.to_string().contains("out of range"), "{err}");
        drop(pool); // clean shutdown after an error
    }

    #[test]
    fn pool_reports_injected_kernel_fault_with_node() {
        let g = synthetic::fork_join(3, 2, 2);
        let clustering = cluster_graph(&g, &StaticCost);
        let opts = one_fault(2, FaultKind::KernelError);
        let (mut pool, plan) = batch1_pool(&g, &clustering, &opts);
        let err = run1(&mut pool, &plan, &synth_inputs(&g, 1)).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Injected { node: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn profiled_job_records_every_op_once_and_the_next_job_records_nothing() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let ctx = ExecCtx::sequential();
        let plan = plans_for(&g, &clustering, &[2], true).remove(0);
        let mut pool = HyperPool::new(&g, clustering.num_clusters(), &ctx).unwrap();
        let inputs: Vec<Env> = (0..2).map(|b| synth_inputs(&g, 70 + b as u64)).collect();
        let shared = Arc::new(inputs.clone());
        pool.run_batch(&plan, &shared).unwrap(); // the pool is standing
        let (outs, db) = pool.run_batch_profiled(&plan, &shared).unwrap();
        for (b, inp) in inputs.iter().enumerate() {
            assert_eq!(run_sequential(&g, inp, &ctx).unwrap(), outs[b], "batch {b}");
        }
        let mut seen: Vec<(usize, usize)> =
            db.records().iter().map(|r| (r.batch, r.node)).collect();
        seen.sort_unstable();
        let every: Vec<(usize, usize)> = (0..2)
            .flat_map(|b| (0..g.num_nodes()).map(move |n| (b, n)))
            .collect();
        assert_eq!(seen, every, "every (batch, node) exactly once");
        assert_eq!(db.worker_spans().len(), pool.workers());
        for rep in db.slack_report() {
            let span = db
                .worker_spans()
                .iter()
                .find(|s| s.worker == rep.worker)
                .expect("one span per worker");
            let wall = span.end_ns - span.start_ns;
            assert!(
                rep.busy_ns + rep.slack_ns <= wall,
                "worker {}: busy {} + slack {} exceeds its wall window {wall}",
                rep.worker,
                rep.busy_ns,
                rep.slack_ns,
            );
        }
        assert!(
            !db.channels().is_empty(),
            "cross-cluster traffic is metered"
        );
        // Profiling is per job: the next one ships no records back.
        let (_, db) = pool.submit(&plan, &shared, false).unwrap();
        assert!(db.is_none());
    }

    #[test]
    fn dropping_pool_stops_workers() {
        let g = synthetic::chain(4);
        let clustering = cluster_graph(&g, &StaticCost);
        let pool = HyperPool::new(&g, clustering.num_clusters(), &ExecCtx::sequential()).unwrap();
        drop(pool); // must not hang
    }
}
