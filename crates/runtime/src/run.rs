//! The one-shot entry point: [`run`] executes a schedule once on the engine
//! [`RunOptions`] names and layers profiling and supervision on top.
//!
//! - [`Engine::Channels`] is the paper's executor: one OS thread per
//!   (hyper)cluster, spawned for the run and joined at its end, one inbox
//!   message per cross-cluster tensor — the placement the generated Python
//!   mirrors. It owns no worker loop: it compiles the schedule into a
//!   [`PlannedBatch`], spawns a [`HyperPool`] from the options, runs one job
//!   and drops the pool.
//! - [`Engine::Stealing`] submits to the process-wide [`StealPool`] with
//!   the schedule demoted to locality hints.
//! - [`Engine::Sequential`] ignores the schedule and walks each batch
//!   element on the calling thread (the supervisor's fallback).

use crate::exec::run_sequential_batch;
use crate::fault::FaultInjector;
use crate::hyperpool::{HyperPool, PlannedBatch};
use crate::profile::ProfileDb;
use crate::program::GraphProgram;
use crate::stealing::{StealChaos, StealPlan, StealPool};
use crate::supervisor::{supervise, RunReport, SupervisorConfig};
use crate::{Env, Result, RuntimeError};
use ramiel_cluster::hyper::HyperClustering;
use ramiel_cluster::Clustering;
use ramiel_ir::Graph;
use ramiel_obs::Obs;
use ramiel_tensor::{ExecCtx, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Which executor [`run`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The reference topological walk on the calling thread.
    Sequential,
    /// One worker thread per (hyper)cluster, spawned per run.
    #[default]
    Channels,
    /// The shared work-stealing pool.
    Stealing,
}

/// Execution options: the engine and what [`run`] layers on it, fault
/// injection, failure-detection knobs, and the observability sink. The
/// standing pools and the sequential executor read the fields that apply
/// to them and ignore `engine`, `profile` and `supervisor`.
#[derive(Clone)]
pub struct RunOptions {
    /// Executor [`run`] drives (default [`Engine::Channels`]).
    pub engine: Engine,
    /// Collect a [`ProfileDb`] (per-op records, worker spans, per-edge
    /// channel statistics) for the run. The stealing engine has no per-op
    /// profile — its telemetry is [`StealPool::stats`] — and returns none.
    pub profile: bool,
    /// Retry / backoff / sequential-fallback policy; `None` is one attempt.
    pub supervisor: Option<SupervisorConfig>,
    /// Fault injector shared across workers (and across supervised retries).
    pub injector: Option<Arc<FaultInjector>>,
    /// Worker recv timeout; `None` uses `RAMIEL_RECV_TIMEOUT_MS` or 30s.
    pub recv_timeout: Option<Duration>,
    /// Observability sink for structured fault/abort/supervisor events;
    /// disabled by default (one null check per event).
    pub obs: Obs,
    /// Pre-converted initializer table (see [`crate::initializer_values`]).
    /// When set, runs reuse these shared `Value`s instead of re-converting
    /// the graph's `TensorData` — the win for repeated inference, since the
    /// conversion is the only remaining deep copy of the weights. A
    /// [`crate::HyperPool`] takes its weights out of it by name once, when
    /// it is built, and indexes them from then on.
    pub init_values: Option<Arc<HashMap<String, Value>>>,
    /// Lifetime-driven buffer reuse (on by default): evict tensors from
    /// worker environments after their last consumer and honor the
    /// `ramiel_passes::inplace` marks via `Arc::get_mut`. Outputs are
    /// bit-identical either way (the in-place kernels mirror the allocating
    /// ones and only fire on provably dead, uniquely-owned buffers); turning
    /// this off exists for memory-accounting baselines.
    pub reuse: bool,
    /// Scheduling adversary for the work-stealing executor (seeded stalls
    /// and placement permutations); ignored by the static executors. Used
    /// by the conformance harness — see `tests/steal_conformance.rs`.
    pub steal_chaos: Option<StealChaos>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            engine: Engine::default(),
            profile: false,
            supervisor: None,
            injector: None,
            recv_timeout: None,
            obs: Obs::default(),
            init_values: None,
            reuse: true,
            steal_chaos: None,
        }
    }
}

impl RunOptions {
    pub fn with_injector(injector: Arc<FaultInjector>) -> Self {
        RunOptions {
            injector: Some(injector),
            ..RunOptions::default()
        }
    }

    /// Select the executor [`run`] drives.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Collect a [`ProfileDb`] for the run.
    pub fn profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Supervise the run: retry, backoff, sequential fallback.
    pub fn supervisor(mut self, cfg: SupervisorConfig) -> Self {
        self.supervisor = Some(cfg);
        self
    }

    /// Enable or disable lifetime-driven buffer reuse.
    pub fn reuse(mut self, reuse: bool) -> Self {
        self.reuse = reuse;
        self
    }

    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = Some(timeout);
        self
    }

    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Reuse a shared initializer table across runs.
    pub fn init_values(mut self, init_values: Arc<HashMap<String, Value>>) -> Self {
        self.init_values = Some(init_values);
        self
    }

    /// Arm the work-stealing scheduling adversary (no-op on the static
    /// executors).
    pub fn steal_chaos(mut self, chaos: StealChaos) -> Self {
        self.steal_chaos = Some(chaos);
        self
    }
}

/// What [`run`] executes: a batch-1 clustering (one input env) or a
/// hyperclustering (one input env per batch element). Built by `.into()`
/// from a reference to either.
#[derive(Debug, Clone, Copy)]
pub enum Schedule<'a> {
    Clusters(&'a Clustering),
    Hyper(&'a HyperClustering),
}

impl<'a> From<&'a Clustering> for Schedule<'a> {
    fn from(c: &'a Clustering) -> Self {
        Schedule::Clusters(c)
    }
}

impl<'a> From<&'a HyperClustering> for Schedule<'a> {
    fn from(hc: &'a HyperClustering) -> Self {
        Schedule::Hyper(hc)
    }
}

/// Everything one [`run`] produced. The report is filled in on failure too
/// (attempts made, the errors that ended them, the faults that fired).
#[derive(Debug)]
pub struct Run {
    /// One output environment per input environment, or the root-cause
    /// error of the last attempt.
    pub outputs: Result<Vec<Env>>,
    pub report: RunReport,
    /// Present when [`RunOptions::profile`] was set, the run succeeded and
    /// the engine that produced the outputs records one.
    pub profile: Option<ProfileDb>,
}

impl Run {
    /// The outputs of a batch-1 run.
    pub fn single(self) -> Result<Env> {
        let mut outs = self.outputs?;
        match (outs.pop(), outs.is_empty()) {
            (Some(env), true) => Ok(env),
            _ => Err(RuntimeError::Setup(
                "`single` needs a run over exactly one input env".into(),
            )),
        }
    }
}

/// Execute `schedule` over `inputs` (one env per batch element) on
/// [`RunOptions::engine`]. With [`RunOptions::supervisor`] set, retryable
/// failures are retried with backoff and finally re-executed sequentially;
/// one initializer table (the caller's, or converted here) is shared by
/// every attempt and the fallback.
pub fn run<'a>(
    graph: &Graph,
    schedule: impl Into<Schedule<'a>>,
    inputs: &[Env],
    ctx: &ExecCtx,
    opts: &RunOptions,
) -> Run {
    // A clustering is its own batch-1 hyperclustering: hypercluster `i` is
    // cluster `i`.
    let hc = match schedule.into() {
        Schedule::Clusters(c) => Cow::Owned(ramiel_cluster::hypercluster(c, 1)),
        Schedule::Hyper(hc) => Cow::Borrowed(hc),
    };
    let mut opts = opts.clone();
    // Unsupervised is the same code path with one attempt and no fallback.
    let cfg = opts.supervisor.take().unwrap_or(SupervisorConfig {
        max_retries: 0,
        fallback: false,
        ..SupervisorConfig::default()
    });
    if opts.init_values.is_none() {
        // One conversion for every attempt, batch element and the fallback.
        // On failure each engine converts for itself, which surfaces the
        // same error with run context attached.
        opts.init_values = crate::initializer_values(graph).ok();
    }
    supervise(&opts, &cfg, |engine| match engine {
        Engine::Sequential => run_sequential_batch(graph, inputs, ctx, &opts, opts.profile),
        Engine::Channels => {
            let plan = Arc::new(PlannedBatch::new(graph, hc.as_ref().clone())?);
            let mut pool = HyperPool::with_options(graph, plan.num_workers(), ctx, &opts)?;
            pool.submit(&plan, &Arc::new(inputs.to_vec()), opts.profile)
        }
        Engine::Stealing => {
            let init = match &opts.init_values {
                Some(init) => Arc::clone(init),
                None => crate::initializer_values(graph)?,
            };
            let prog = Arc::new(GraphProgram::new(graph)?);
            let plan = Arc::new(StealPlan::with_program(&prog, init, &hc)?);
            let outs = StealPool::global().run_plan(&plan, inputs, ctx, &opts)?;
            Ok((outs, None))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_sequential;
    use crate::fault::{Fault, FaultKind, FaultPlan};
    use crate::synth_inputs;
    use ramiel_cluster::{cluster_graph, switched_hypercluster, StaticCost};
    use ramiel_models::{build, synthetic, ModelConfig, ModelKind};
    use std::slice::from_ref;
    use std::time::Instant;

    fn assert_close(a: &Env, b: &Env) {
        assert_eq!(a.len(), b.len());
        for (k, va) in a {
            let vb = &b[k];
            match (va, vb) {
                (Value::F32(x), Value::F32(y)) => {
                    assert_eq!(x.shape(), y.shape(), "{k} shape");
                    for (p, q) in x.data().iter().zip(y.data()) {
                        assert!((p - q).abs() <= 1e-4 * p.abs().max(1.0), "{k}: {p} vs {q}");
                    }
                }
                _ => assert_eq!(va, vb, "{k}"),
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_on_fork_join() {
        let g = synthetic::fork_join(4, 3, 3);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 11);
        let ctx = ExecCtx::sequential();
        let seq = run_sequential(&g, &inputs, &ctx).unwrap();
        let par = run(
            &g,
            &clustering,
            from_ref(&inputs),
            &ctx,
            &RunOptions::default(),
        )
        .single()
        .unwrap();
        assert_close(&seq, &par);
    }

    #[test]
    fn parallel_matches_sequential_on_every_model() {
        let cfg = ModelConfig::tiny();
        let ctx = ExecCtx::sequential();
        for kind in ModelKind::all() {
            let g = build(kind, &cfg);
            let clustering = cluster_graph(&g, &StaticCost);
            let inputs = synth_inputs(&g, 5);
            let seq = run_sequential(&g, &inputs, &ctx).unwrap();
            let par = run(
                &g,
                &clustering,
                from_ref(&inputs),
                &ctx,
                &RunOptions::default(),
            )
            .single()
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert_close(&seq, &par);
        }
    }

    #[test]
    fn hypercluster_matches_per_sample_sequential() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let ctx = ExecCtx::sequential();
        for batch in [2usize, 4] {
            let hc = ramiel_cluster::hypercluster(&clustering, batch);
            let inputs: Vec<Env> = (0..batch).map(|b| synth_inputs(&g, b as u64)).collect();
            let outs = run(&g, &hc, &inputs, &ctx, &RunOptions::default())
                .outputs
                .unwrap();
            for (b, inp) in inputs.iter().enumerate() {
                let seq = run_sequential(&g, inp, &ctx).unwrap();
                assert_close(&seq, &outs[b]);
            }
        }
    }

    #[test]
    fn switched_hypercluster_executes_without_deadlock() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let ctx = ExecCtx::sequential();
        let hc = switched_hypercluster(&clustering, 3);
        let inputs: Vec<Env> = (0..3).map(|b| synth_inputs(&g, 100 + b as u64)).collect();
        let outs = run(&g, &hc, &inputs, &ctx, &RunOptions::default())
            .outputs
            .unwrap();
        for (b, inp) in inputs.iter().enumerate() {
            let seq = run_sequential(&g, inp, &ctx).unwrap();
            assert_close(&seq, &outs[b]);
        }
    }

    #[test]
    fn channel_sends_copy_headers_not_payloads() {
        // The zero-copy regression guard: every cross-cluster message
        // carries its full logical payload in `bytes`, but the sender only
        // deep-copies the Value header + shape vector (the element buffer
        // is Arc-shared). Aggregate copied bytes must therefore sit far
        // below aggregate payload bytes. A 64 KiB activation crossing two
        // clusters makes the header/payload gap unmistakable.
        use ramiel_cluster::{Cluster, Clustering};
        use ramiel_ir::{DType, GraphBuilder, OpKind};
        let mut b = GraphBuilder::new("zc");
        let x = b.input("x", DType::F32, vec![1, 16384]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let c = b.op("c", OpKind::Sigmoid, vec![a]);
        b.output(&c);
        let g = b.finish().unwrap();
        let clustering = Clustering::new(vec![Cluster::new(vec![0]), Cluster::new(vec![1])]);
        let inputs = synth_inputs(&g, 9);
        let profiled = RunOptions::default().profile(true);
        let db = run(
            &g,
            &clustering,
            from_ref(&inputs),
            &ExecCtx::sequential(),
            &profiled,
        )
        .profile
        .unwrap();
        let stats = db.channels();
        assert!(!stats.is_empty(), "expected cross-cluster traffic");
        let bytes: u64 = stats.iter().map(|c| c.bytes).sum();
        let copied: u64 = stats.iter().map(|c| c.copied_bytes).sum();
        assert!(copied > 0, "sends still copy the value header");
        assert!(
            copied * 2 <= bytes,
            "copied {copied} of {bytes} payload bytes — channel sends are deep-copying again"
        );
    }

    #[test]
    fn shared_init_table_is_reusable_across_runs() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 21);
        let ctx = ExecCtx::sequential();
        let iv = crate::initializer_values(&g).unwrap();
        let opts = RunOptions::default().init_values(Arc::clone(&iv));
        let a = run(&g, &clustering, from_ref(&inputs), &ctx, &opts)
            .single()
            .unwrap();
        let b = run(&g, &clustering, from_ref(&inputs), &ctx, &opts)
            .single()
            .unwrap();
        let fresh = run(
            &g,
            &clustering,
            from_ref(&inputs),
            &ctx,
            &RunOptions::default(),
        )
        .single()
        .unwrap();
        // Same table, same inputs, deterministic kernels → identical envs.
        assert_eq!(a, b);
        assert_eq!(a, fresh);
        // The shared table survives the runs untouched (COW means a run can
        // never mutate the weights in place).
        assert_eq!(iv.len(), g.initializers.len());
    }

    #[test]
    fn profiler_records_every_op() {
        let g = synthetic::fork_join(3, 2, 2);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 1);
        let profiled = RunOptions::default().profile(true);
        let db = run(
            &g,
            &clustering,
            from_ref(&inputs),
            &ExecCtx::sequential(),
            &profiled,
        )
        .profile
        .unwrap();
        assert_eq!(db.records().len(), g.num_nodes());
        // end >= start for every record
        assert!(db.records().iter().all(|r| r.end_ns >= r.start_ns));
    }

    #[test]
    fn invalid_schedule_missing_producers_fails_fast() {
        // A schedule that omits the producer ops entirely (check_coverage
        // would reject it) must error at setup, not hang in recv. Note
        // first-ready-first execution makes *covering* schedules
        // deadlock-free by construction: the topologically-minimal
        // unexecuted op always has its operands en route, so only broken
        // schedules like this one can stall — and they are caught here.
        use ramiel_cluster::hyper::{HyperClustering, HyperOp};
        use ramiel_ir::{DType, GraphBuilder, OpKind};

        let mut b = GraphBuilder::new("dl");
        let x = b.input("x", DType::F32, vec![2]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let c = b.op("c", OpKind::Sigmoid, vec![a]);
        b.output(&c);
        let g = b.finish().unwrap();

        let hc = HyperClustering {
            batch: 2,
            hyperclusters: vec![
                vec![HyperOp { batch: 0, node: 1 }],
                vec![HyperOp { batch: 1, node: 1 }],
            ],
            switched: true,
        };
        let inputs = vec![synth_inputs(&g, 0), synth_inputs(&g, 1)];
        let err = run(
            &g,
            &hc,
            &inputs,
            &ExecCtx::sequential(),
            &RunOptions::default(),
        )
        .outputs
        .unwrap_err();
        assert_eq!(err.code(), "RT-SETUP");
        assert!(err.to_string().contains("unassigned"), "unexpected: {err}");
    }

    #[test]
    fn adversarial_cross_batch_order_still_completes() {
        // The wait-cycle shape that deadlocks strict in-order workers:
        // W0 = [c(b0), a(b1)], W1 = [c(b1), a(b0)]. First-ready-first
        // execution reorders around the blocked head and completes.
        use ramiel_cluster::hyper::{HyperClustering, HyperOp};
        use ramiel_ir::{DType, GraphBuilder, OpKind};

        let mut b = GraphBuilder::new("adv");
        let x = b.input("x", DType::F32, vec![2]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let c = b.op("c", OpKind::Sigmoid, vec![a]);
        b.output(&c);
        let g = b.finish().unwrap();

        let hc = HyperClustering {
            batch: 2,
            hyperclusters: vec![
                vec![HyperOp { batch: 0, node: 1 }, HyperOp { batch: 1, node: 0 }],
                vec![HyperOp { batch: 1, node: 1 }, HyperOp { batch: 0, node: 0 }],
            ],
            switched: true,
        };
        hc.check_coverage(2).unwrap();
        let inputs = vec![synth_inputs(&g, 0), synth_inputs(&g, 1)];
        let ctx = ExecCtx::sequential();
        let outs = run(&g, &hc, &inputs, &ctx, &RunOptions::default())
            .outputs
            .unwrap();
        for (b_i, inp) in inputs.iter().enumerate() {
            let seq = crate::exec::run_sequential(&g, inp, &ctx).unwrap();
            assert_eq!(seq, outs[b_i]);
        }
    }

    #[test]
    fn wrong_batch_count_rejected() {
        let g = synthetic::chain(3);
        let clustering = cluster_graph(&g, &StaticCost);
        let hc = ramiel_cluster::hypercluster(&clustering, 2);
        let inputs = vec![synth_inputs(&g, 0)]; // only 1 env for batch 2
        let err = run(
            &g,
            &hc,
            &inputs,
            &ExecCtx::sequential(),
            &RunOptions::default(),
        )
        .outputs
        .unwrap_err();
        assert_eq!(err.code(), "RT-SETUP");
    }

    /// Find a node whose output crosses clusters (so dropping its message
    /// actually starves a consumer).
    fn cross_cluster_producer(g: &Graph, clustering: &Clustering) -> usize {
        let assign = clustering.assignment();
        let adj = g.adjacency();
        for node in &g.nodes {
            for inp in &node.inputs {
                if let Some(&p) = adj.producer_of.get(inp) {
                    if assign[&p] != assign[&node.id] {
                        return p;
                    }
                }
            }
        }
        panic!("graph has no cross-cluster edge");
    }

    #[test]
    fn injected_kernel_fault_is_structured_and_aborts_peers() {
        let g = synthetic::fork_join(4, 3, 3);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 11);
        let node = cross_cluster_producer(&g, &clustering);
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![Fault {
                node,
                batch: 0,
                exec_index: 0,
                kind: FaultKind::KernelError,
            }],
        });
        let opts = RunOptions::with_injector(inj.clone()).recv_timeout(Duration::from_secs(5));
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
        assert_eq!(err.code(), "RT-INJECT", "got {err}");
        assert!(
            matches!(err, RuntimeError::Injected { node: n, .. } if n == node),
            "{err}"
        );
        assert_eq!(inj.fired().len(), 1);
        // abort broadcast must beat the 5s recv timeout by a wide margin
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "peers waited out the timeout"
        );
    }

    #[test]
    fn injected_worker_panic_is_captured_not_propagated() {
        let g = synthetic::fork_join(4, 3, 3);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 3);
        let node = cross_cluster_producer(&g, &clustering);
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![Fault {
                node,
                batch: 0,
                exec_index: 0,
                kind: FaultKind::WorkerPanic,
            }],
        });
        let opts = RunOptions::with_injector(inj).recv_timeout(Duration::from_secs(5));
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
        assert!(
            matches!(
                err,
                RuntimeError::Injected {
                    kind: FaultKind::WorkerPanic,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn dropped_message_surfaces_as_timeout() {
        let g = synthetic::fork_join(4, 3, 3);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 7);
        let node = cross_cluster_producer(&g, &clustering);
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![Fault {
                node,
                batch: 0,
                exec_index: 0,
                kind: FaultKind::DropMessage,
            }],
        });
        let opts = RunOptions::with_injector(inj).recv_timeout(Duration::from_millis(200));
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
    }

    #[test]
    fn delays_do_not_change_outputs() {
        let g = synthetic::fork_join(3, 2, 2);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 9);
        let ctx = ExecCtx::sequential();
        let seq = run_sequential(&g, &inputs, &ctx).unwrap();
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![
                Fault {
                    node: 0,
                    batch: 0,
                    exec_index: 0,
                    kind: FaultKind::SendDelay { millis: 10 },
                },
                Fault {
                    node: 1,
                    batch: 0,
                    exec_index: 0,
                    kind: FaultKind::RecvDelay { millis: 10 },
                },
            ],
        });
        let opts = RunOptions::with_injector(inj.clone());
        let par = run(&g, &clustering, from_ref(&inputs), &ctx, &opts)
            .single()
            .unwrap();
        assert_close(&seq, &par);
        assert_eq!(inj.fired().len(), 2);
    }

    #[test]
    fn empty_plan_injector_changes_nothing() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 5);
        let ctx = ExecCtx::sequential();
        let seq = run_sequential(&g, &inputs, &ctx).unwrap();
        let inj = FaultInjector::new(FaultPlan::none());
        let opts = RunOptions::with_injector(inj.clone());
        let par = run(&g, &clustering, from_ref(&inputs), &ctx, &opts)
            .single()
            .unwrap();
        assert_close(&seq, &par);
        assert!(inj.fired().is_empty());
    }
}
