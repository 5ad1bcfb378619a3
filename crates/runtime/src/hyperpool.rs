//! Persistent *hypercluster* worker pool — the serving-path executor.
//!
//! [`crate::ClusterPool`] keeps workers alive across batch-1 inferences;
//! a serving layer that coalesces requests into hypercluster batches needs
//! the same shape for batch > 1, with the batch size varying job to job
//! (whatever the micro-batcher managed to collect before its delay budget
//! ran out). [`HyperPool`] is that executor: one standing worker per
//! cluster, each job shipping an [`Arc`]'d schedule ([`PlannedBatch`]) so
//! consecutive jobs can run at different batch sizes without respawning
//! threads or recomputing routing tables.
//!
//! Workers execute their op list **first-ready-first**, exactly like the
//! per-run executor in [`crate::parallel`] — load-bearing for *switched*
//! hyperclusters, where strict in-order execution can deadlock on
//! cross-batch wait cycles. Messages are tagged `(job, tensor, batch)` so
//! back-to-back jobs cannot cross-talk.
//!
//! ## Failure semantics
//!
//! Same contract as [`crate::ClusterPool`]: a failing or panicking job must
//! not kill the pool. Workers catch panics per job, report a structured
//! [`RuntimeError`] through the done channel, and broadcast `JobAbort` so
//! peers blocked on that job's tensors give up immediately. The pool stays
//! serviceable for the next job — which is what lets the serving layer
//! retry a poisoned batch (or degrade it to per-request sequential
//! execution) without tearing the server down.

use crate::fault::{panic_to_error, FaultInjector, FaultKind, InjectedPanic, INJECT_MARKER};
use crate::parallel::{default_recv_timeout, RunOptions};
use crate::reuse::{charge_bytes, Liveness};
use crate::{value_bytes, Env, Result, RuntimeError};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError};
use ramiel_cluster::hyper::{HyperClustering, HyperOp};
use ramiel_ir::graph::Adjacency;
use ramiel_ir::{Graph, OpKind};
use ramiel_obs::{ChannelEdgeStats, ChannelMeter, Obs};
use ramiel_passes::{inplace_marks, InPlaceMarks};
use ramiel_tensor::{eval_op, eval_op_inplace, ExecCtx, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A tensor instance: (job id, tensor name, batch element).
type Key = (u64, String, usize);

/// A hypercluster schedule plus its precomputed message-routing table.
/// Built once per (clustering, batch size) and shared — via `Arc` — by
/// every job that executes at that batch size, so the per-job cost of a
/// different batch size is a pointer swap, not a recompute.
#[derive(Debug, PartialEq)]
pub struct PlannedBatch {
    hc: HyperClustering,
    /// For every produced tensor instance `(name, batch)`, the remote
    /// workers that consume it.
    consumers: HashMap<(String, usize), Vec<usize>>,
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
        let mut owner: HashMap<(usize, usize), usize> = HashMap::new();
        for (w, ops) in hc.hyperclusters.iter().enumerate() {
            for op in ops {
                owner.insert((op.batch, op.node), w);
            }
        }
        let mut consumers: HashMap<(String, usize), Vec<usize>> = HashMap::new();
        for (w, ops) in hc.hyperclusters.iter().enumerate() {
            for op in ops {
                let node = &graph.nodes[op.node];
                for inp in &node.inputs {
                    if let Some(&p) = adj.producer_of.get(inp) {
                        let pw = owner
                            .get(&(op.batch, p))
                            .ok_or_else(|| RuntimeError::Setup(format!("node {p} unassigned")))?;
                        if *pw != w {
                            let entry = consumers.entry((inp.clone(), op.batch)).or_default();
                            if !entry.contains(&w) {
                                entry.push(w);
                            }
                        }
                    }
                }
            }
        }
        Ok(PlannedBatch { hc, consumers })
    }

    /// Batch size this schedule executes.
    pub fn batch(&self) -> usize {
        self.hc.batch
    }

    /// Worker count the schedule expects (one per hypercluster).
    pub fn num_workers(&self) -> usize {
        self.hc.num_hyperclusters()
    }

    /// The underlying schedule.
    pub fn hyperclustering(&self) -> &HyperClustering {
        &self.hc
    }
}

enum PoolMsg {
    Job {
        id: u64,
        inputs: Arc<Vec<Env>>,
        plan: Arc<PlannedBatch>,
    },
    /// Tensor plus the sending worker (for per-edge channel metrics).
    Tensor(Key, Value, usize),
    /// A peer failed this job: stop waiting for its tensors.
    JobAbort(u64),
    Stop,
}

struct PoolDone {
    job: u64,
    /// (batch element, tensor name, value) graph outputs this worker made.
    outputs: Vec<(usize, String, Value)>,
    error: Option<RuntimeError>,
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
    graph_outputs: Vec<String>,
    init_values: Arc<HashMap<String, Value>>,
    recv_timeout: Duration,
    meter: Arc<ChannelMeter>,
}

impl HyperPool {
    /// Spawn `workers` standing workers over `graph` (one per cluster of
    /// the clustering every submitted [`PlannedBatch`] was derived from).
    pub fn new(graph: &Graph, workers: usize, ctx: &ExecCtx) -> Result<HyperPool> {
        HyperPool::with_options(graph, workers, ctx, &RunOptions::default())
    }

    /// [`HyperPool::new`] with explicit [`RunOptions`] (shared initializer
    /// table, fault injection, recv timeout, obs sink).
    pub fn with_options(
        graph: &Graph,
        workers: usize,
        ctx: &ExecCtx,
        opts: &RunOptions,
    ) -> Result<HyperPool> {
        if workers == 0 {
            return Err(RuntimeError::Setup("pool needs at least one worker".into()));
        }
        let ctx = &opts.apply_backend(ctx);
        let recv_timeout = opts.recv_timeout.unwrap_or_else(default_recv_timeout);
        let init_values = match &opts.init_values {
            Some(iv) => Arc::clone(iv),
            None => crate::initializer_values(graph)?,
        };
        let graph_outputs = graph.outputs.clone();
        let marks = Arc::new(if opts.reuse {
            inplace_marks(graph)
        } else {
            InPlaceMarks::empty()
        });
        // Workers read structure and shapes; weights reach them through
        // `init_values`. Their copy of the graph therefore leaves the
        // initializer payloads behind instead of duplicating every weight.
        let graph = Arc::new(Graph {
            name: graph.name.clone(),
            nodes: graph.nodes.clone(),
            inputs: graph.inputs.clone(),
            outputs: graph.outputs.clone(),
            initializers: Default::default(),
            value_info: graph.value_info.clone(),
        });

        // Worker inboxes are bounded (capacity from `limits`, shared with
        // the ramiel-analyze RA0401 lint); the done channel stays unbounded
        // control plane.
        let channels: Vec<(Sender<PoolMsg>, Receiver<PoolMsg>)> = (0..workers)
            .map(|_| bounded(crate::limits::DATA_CHANNEL_CAPACITY))
            .collect();
        let worker_txs: Vec<Sender<PoolMsg>> = channels.iter().map(|(s, _)| s.clone()).collect();
        let (done_tx, done_rx) = unbounded::<PoolDone>();
        let meter = Arc::new(ChannelMeter::new(workers));

        let mut handles = Vec::with_capacity(workers);
        for (w, (_, rx)) in channels.iter().enumerate() {
            let rx = rx.clone();
            let peer_txs = worker_txs.clone();
            let graph = Arc::clone(&graph);
            let init_values = Arc::clone(&init_values);
            let done_tx = done_tx.clone();
            let ctx = ctx.clone();
            let injector = opts.injector.clone();
            let meter = Arc::clone(&meter);
            let obs = opts.obs.clone();
            let marks = Arc::clone(&marks);
            let reuse = opts.reuse;
            handles.push(std::thread::spawn(move || {
                worker_main(WorkerState {
                    graph: &graph,
                    me: w,
                    init_values: &init_values,
                    rx,
                    peer_txs: &peer_txs,
                    done_tx,
                    ctx: &ctx,
                    injector: injector.as_ref(),
                    recv_timeout,
                    meter: &meter,
                    obs,
                    marks: &marks,
                    reuse,
                });
            }));
        }

        Ok(HyperPool {
            worker_txs,
            done_rx,
            handles,
            next_job: 0,
            workers,
            graph_outputs,
            init_values,
            recv_timeout,
            meter,
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
        if plan.num_workers() != self.workers {
            return Err(RuntimeError::Setup(format!(
                "schedule has {} hyperclusters but the pool has {} workers",
                plan.num_workers(),
                self.workers
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
            })
            .map_err(|_| RuntimeError::ChannelClosed {
                cluster: None,
                detail: "pool worker hung up".into(),
            })?;
        }
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
            for (b, name, v) in done.outputs {
                outs[b].insert(name, v);
            }
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
        // Outputs that are direct inputs/initializers (degenerate but legal).
        for (b, env) in outs.iter_mut().enumerate() {
            for name in &self.graph_outputs {
                if !env.contains_key(name) {
                    if let Some(v) = inputs[b].get(name).or_else(|| self.init_values.get(name)) {
                        env.insert(name.clone(), v.clone());
                    }
                }
            }
        }
        Ok(outs)
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
    graph: &'a Graph,
    me: usize,
    init_values: &'a HashMap<String, Value>,
    rx: Receiver<PoolMsg>,
    peer_txs: &'a [Sender<PoolMsg>],
    done_tx: Sender<PoolDone>,
    ctx: &'a ExecCtx,
    injector: Option<&'a Arc<FaultInjector>>,
    recv_timeout: Duration,
    meter: &'a ChannelMeter,
    obs: Obs,
    marks: &'a InPlaceMarks,
    reuse: bool,
}

fn job_abort_error(me: usize) -> RuntimeError {
    RuntimeError::ChannelClosed {
        cluster: Some(me),
        detail: crate::ABORT_DETAIL.into(),
    }
}

fn worker_main(st: WorkerState<'_>) {
    let graph_outputs: HashSet<&str> = st.graph.outputs.iter().map(String::as_str).collect();
    // Tensors that arrived before their job started on this worker.
    let mut stash: HashMap<Key, Value> = HashMap::new();
    // Jobs a peer aborted before we started (or finished) them.
    let mut aborted: HashSet<u64> = HashSet::new();

    while let Ok(msg) = st.rx.recv() {
        let (job, inputs, plan) = match msg {
            PoolMsg::Stop => return,
            PoolMsg::Tensor(key, v, from) => {
                st.meter.on_recv(from, st.me, 0);
                stash.insert(key, v);
                continue;
            }
            PoolMsg::JobAbort(j) => {
                aborted.insert(j);
                continue;
            }
            PoolMsg::Job { id, inputs, plan } => (id, inputs, plan),
        };

        let (outputs, error) = if aborted.contains(&job) {
            (Vec::new(), Some(job_abort_error(st.me)))
        } else {
            // Panics must not kill the pool thread: catch per job, report
            // as a structured error, keep serving.
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_job(
                    &st,
                    &graph_outputs,
                    &mut stash,
                    &mut aborted,
                    job,
                    &inputs,
                    &plan,
                )
            }));
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
        stash.retain(|(j, _, _), _| *j > job);
        aborted.retain(|j| *j > job);

        if st
            .done_tx
            .send(PoolDone {
                job,
                outputs,
                error,
            })
            .is_err()
        {
            return;
        }
    }
}

/// Execute one job's hypercluster ops on this worker, first-ready-first.
/// Returns the graph outputs this worker produced and the first error.
#[allow(clippy::type_complexity)]
fn run_job(
    st: &WorkerState<'_>,
    graph_outputs: &HashSet<&str>,
    stash: &mut HashMap<Key, Value>,
    aborted: &mut HashSet<u64>,
    job: u64,
    inputs: &[Env],
    plan: &PlannedBatch,
) -> (Vec<(usize, String, Value)>, Option<RuntimeError>) {
    let me = st.me;
    let ops: &[HyperOp] = &plan.hc.hyperclusters[me];
    // Tensor instances of *this* job available to this worker.
    let mut env: HashMap<(String, usize), Value> = HashMap::new();
    // Per-job liveness: reads remaining per tensor instance on this worker
    // (graph outputs produced here get one extra pin so they stay charged
    // for the whole job, matching the static estimate).
    let mut live = {
        let mut uses: HashMap<(String, usize), usize> = HashMap::new();
        for op in ops {
            let node = &st.graph.nodes[op.node];
            for t in &node.inputs {
                *uses.entry((t.clone(), op.batch)).or_insert(0) += 1;
            }
            for name in &node.outputs {
                if graph_outputs.contains(name.as_str()) {
                    *uses.entry((name.clone(), op.batch)).or_insert(0) += 1;
                }
            }
        }
        Liveness::new(uses, st.ctx.mem_gauge().cloned())
    };
    // Move stashed early arrivals for this job in.
    let mine: Vec<Key> = stash
        .keys()
        .filter(|(j, _, _)| *j == job)
        .cloned()
        .collect();
    for key in mine {
        if let Some(v) = stash.remove(&key) {
            live.charge((key.1.clone(), key.2), value_bytes(&v));
            env.insert((key.1, key.2), v);
        }
    }
    let mut remaining: Vec<bool> = vec![true; ops.len()];
    let mut left = ops.len();
    let mut outputs: Vec<(usize, String, Value)> = Vec::new();

    let available = |env: &HashMap<(String, usize), Value>, tensor: &str, batch: usize| -> bool {
        env.contains_key(&(tensor.to_string(), batch))
            || st.init_values.contains_key(tensor)
            || inputs[batch].contains_key(tensor)
    };
    let fetch =
        |env: &HashMap<(String, usize), Value>, tensor: &str, batch: usize| -> Result<Value> {
            if let Some(v) = env.get(&(tensor.to_string(), batch)) {
                return Ok(v.clone());
            }
            if let Some(v) = inputs[batch].get(tensor) {
                return Ok(v.clone());
            }
            if let Some(v) = st.init_values.get(tensor) {
                return Ok(v.clone());
            }
            Err(RuntimeError::Setup(format!(
                "worker {me}: tensor `{tensor}` (batch {batch}) unavailable"
            )))
        };
    // Route an inbox message; returns an error to surface, if any.
    macro_rules! take_msg {
        ($msg:expr) => {
            match $msg {
                PoolMsg::Tensor((j, name, b), v, from) => {
                    st.meter.on_recv(from, me, 0);
                    if j == job {
                        live.charge((name.clone(), b), value_bytes(&v));
                        env.insert((name, b), v);
                    } else if j > job {
                        stash.insert((j, name, b), v);
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
                Ok(msg) => take_msg!(msg),
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
        // First op whose operands are all available.
        let next = ops.iter().enumerate().position(|(i, op)| {
            remaining[i]
                && st.graph.nodes[op.node]
                    .inputs
                    .iter()
                    .all(|t| available(&env, t, op.batch))
        });
        let Some(i) = next else {
            // Block for the next message (bounded, so schedule bugs surface
            // as errors instead of hangs).
            match st.rx.recv_timeout(st.recv_timeout) {
                Ok(msg) => take_msg!(msg),
                Err(_) => {
                    return (
                        outputs,
                        Some(RuntimeError::Timeout {
                            cluster: Some(me),
                            pending_ops: left,
                            detail: format!(
                                "worker {me}: timed out waiting for job {job} messages"
                            ),
                        }),
                    )
                }
            }
            continue;
        };

        remaining[i] = false;
        left -= 1;
        let op = &ops[i];
        let node = &st.graph.nodes[op.node];

        // Fault injection: arm this execution's faults, if any.
        let armed = match st.injector {
            Some(inj) => inj.begin_node(op.node, op.batch),
            None => Vec::new(),
        };
        let mut kernel_fault = false;
        let mut drop_msgs = false;
        let mut send_delay = None;
        for kind in &armed {
            st.obs.instant(
                me as u32,
                format!("fault:{}", kind.name()),
                "fault",
                serde_json::json!({ "node": op.node, "batch": op.batch, "job": job }),
            );
            match kind {
                FaultKind::KernelError => kernel_fault = true,
                FaultKind::WorkerPanic => std::panic::panic_any(InjectedPanic {
                    node: op.node,
                    cluster: Some(me),
                }),
                FaultKind::SendDelay { millis } => {
                    send_delay = Some(Duration::from_millis(*millis))
                }
                FaultKind::RecvDelay { millis } => {
                    std::thread::sleep(Duration::from_millis(*millis))
                }
                FaultKind::DropMessage => drop_msgs = true,
            }
        }

        let result = if matches!(node.op, OpKind::Constant) {
            if kernel_fault {
                return (
                    outputs,
                    Some(RuntimeError::Injected {
                        cluster: Some(me),
                        node: op.node,
                        kind: FaultKind::KernelError,
                    }),
                );
            }
            // A Constant's payload is already in the shared initializer
            // table under its output name — share it, don't re-convert.
            st.init_values
                .get(&node.outputs[0])
                .ok_or_else(|| {
                    ramiel_tensor::ExecError(format!("Constant `{}` missing payload", node.name))
                })
                .map(|v| vec![v.clone()])
        } else {
            // A node marked by the in-place pass takes its dying operand
            // *out* of the env (sole remaining read), so the kernel's
            // `Arc::get_mut` gate can overwrite the buffer in place.
            let mark = st.marks.slot(op.node);
            let mut owned_slot = None;
            let mut ins: Vec<Value> = Vec::with_capacity(node.inputs.len());
            for (slot, t) in node.inputs.iter().enumerate() {
                if mark == Some(slot) {
                    let key = (t.clone(), op.batch);
                    if live.remaining(&key) == 1 {
                        if let Some(v) = env.remove(&key) {
                            owned_slot = Some(slot);
                            ins.push(v);
                            continue;
                        }
                    }
                }
                match fetch(&env, t, op.batch) {
                    Ok(v) => ins.push(v),
                    Err(e) => return (outputs, Some(e)),
                }
            }
            let hooked;
            let eval_ctx = if kernel_fault {
                hooked = FaultInjector::kernel_fault_ctx(st.ctx, Some(me), op.node);
                &hooked
            } else {
                st.ctx
            };
            match owned_slot {
                Some(s) => eval_op_inplace(eval_ctx, &node.op, ins, s),
                None => eval_op(eval_ctx, &node.op, &ins),
            }
        };
        let outs = match result {
            Ok(o) => o,
            Err(e) => {
                let err = if e.0.starts_with(INJECT_MARKER) {
                    RuntimeError::Injected {
                        cluster: Some(me),
                        node: op.node,
                        kind: FaultKind::KernelError,
                    }
                } else {
                    RuntimeError::Kernel {
                        cluster: Some(me),
                        node: Some(op.node),
                        msg: format!("{}: {}", node.name, e.0),
                    }
                };
                return (outputs, Some(err));
            }
        };
        if let Some(d) = send_delay {
            std::thread::sleep(d);
        }
        for (name, v) in node.outputs.iter().zip(outs) {
            if !drop_msgs {
                if let Some(targets) = plan.consumers.get(&(name.clone(), op.batch)) {
                    for &t in targets {
                        st.meter
                            .on_send(me, t, value_bytes(&v), crate::value_copied_bytes(&v));
                        if st.peer_txs[t]
                            .send(PoolMsg::Tensor(
                                (job, name.clone(), op.batch),
                                v.clone(),
                                me,
                            ))
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
            }
            if graph_outputs.contains(name.as_str()) {
                outputs.push((op.batch, name.clone(), v.clone()));
            }
            live.charge((name.clone(), op.batch), charge_bytes(&node.op, &v));
            env.insert((name.clone(), op.batch), v);
        }
        if st.reuse {
            // Inputs whose last local read this was — and outputs with no
            // local reader (already shipped/recorded above) — die here.
            for t in &node.inputs {
                let key = (t.clone(), op.batch);
                if live.consume(&key) {
                    env.remove(&key);
                    live.discharge(&key);
                }
            }
            for name in &node.outputs {
                let key = (name.clone(), op.batch);
                if live.remaining(&key) == 0 {
                    env.remove(&key);
                    live.discharge(&key);
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
    use crate::fault::{Fault, FaultPlan};
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
    fn pool_matches_sequential_across_batch_sizes() {
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

    #[test]
    fn pool_survives_injected_panic_and_keeps_serving() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info.payload().downcast_ref::<InjectedPanic>().is_some() {
                    return;
                }
                prev(info);
            }));
        });
        let g = synthetic::fork_join(4, 3, 2);
        let clustering = cluster_graph(&g, &StaticCost);
        let ctx = ExecCtx::sequential();
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![Fault {
                node: 1,
                batch: 0,
                exec_index: 0,
                kind: FaultKind::WorkerPanic,
            }],
        });
        let opts = RunOptions::with_injector(inj).recv_timeout(Duration::from_secs(5));
        let plan = plans_for(&g, &clustering, &[2], false).remove(0);
        let mut pool = HyperPool::with_options(&g, clustering.num_clusters(), &ctx, &opts).unwrap();
        let inputs: Vec<Env> = (0..2).map(|b| synth_inputs(&g, b as u64)).collect();
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

    #[test]
    fn dropping_pool_stops_workers() {
        let g = synthetic::chain(4);
        let clustering = cluster_graph(&g, &StaticCost);
        let pool = HyperPool::new(&g, clustering.num_clusters(), &ExecCtx::sequential()).unwrap();
        drop(pool); // must not hang
    }
}
