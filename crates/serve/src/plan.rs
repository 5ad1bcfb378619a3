//! Model registry and plan cache.
//!
//! A load pays every per-model cost exactly once — the paper's schedule
//! stage with its clustering folded to at most one cluster per core (see
//! `Layout`), the slot-resolved graph program with its in-place marks,
//! the batch-1 hypercluster schedule compiled to per-worker programs (other
//! batch sizes are compiled on their first batch), the shared weight
//! table (whose buffers are the graph's own payloads, moved, not copied,
//! and indexed by the slot program's weight operands),
//! and a per-plan [`ExecCtx`] whose packed-weight cache persists across
//! requests — and shares the result as an [`Arc<CompiledPlan>`]. The cache
//! is LRU-bounded ([`PlanCache::new`]) and every (re)load gets a fresh
//! monotonically increasing `version`, which is how lanes detect hot
//! reloads: a collector thread compares its pool's version against the
//! plan's and rebuilds workers when they diverge.

use crate::server::ServeError;
use parking_lot::Mutex;
use ramiel_cluster::{
    bound_clusters, hypercluster, schedule_stage, switched_hypercluster, Clustering, CostModel,
    HyperClustering, PipelineReport, Scheduled, StaticCost,
};
use ramiel_ir::graph::Adjacency;
use ramiel_ir::Graph;
use ramiel_runtime::{GraphProgram, PlannedBatch};
use ramiel_tensor::{ExecCtx, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A graph to compile into a plan, as it is: [`crate::Server::load`]
/// schedules it with the paper's pipeline and folds the result.
pub struct PlanSpec {
    pub graph: Graph,
    /// Use switched (Fig. 9) instead of plain (Fig. 8) hyperclustering for
    /// batch > 1 schedules.
    pub switched: bool,
}

impl PlanSpec {
    pub fn new(graph: Graph) -> PlanSpec {
        PlanSpec {
            graph,
            switched: false,
        }
    }
}

/// The half of a plan that reads the graph's adjacency, built over a
/// snapshot the caller holds so an import and a plan build share one.
///
/// The clustering is the paper's ([`schedule_stage`] under
/// [`StaticCost`]) folded by [`bound_clusters`] to at most `P` clusters,
/// `P` being [`std::thread::available_parallelism`]: a plan's standing
/// pool runs one worker per cluster, so no plan asks for more workers than
/// the host has cores. When `P` cannot be read, the clustering is not
/// folded.
pub(crate) struct Layout {
    clustering: Clustering,
    program: GraphProgram,
    report: PipelineReport,
    schedule_time: Duration,
}

impl Layout {
    /// Schedule, fold and slot-resolve `graph`; `adj` is a snapshot of it.
    pub(crate) fn new(graph: &Graph, adj: &Adjacency<'_>) -> Result<Layout, ServeError> {
        let start = Instant::now();
        let Scheduled {
            clustering,
            distances,
            report,
        } = schedule_stage(graph, adj, &StaticCost, &ramiel_obs::Obs::disabled());
        let schedule_time = start.elapsed();
        let clustering = match std::thread::available_parallelism() {
            Ok(p) => {
                let cost: Vec<u64> = graph
                    .nodes
                    .iter()
                    .map(|n| StaticCost.node_cost(graph, n))
                    .collect();
                bound_clusters(&clustering, &distances, &cost, p.get())
            }
            Err(_) => clustering,
        };
        let program = GraphProgram::with_adjacency(graph, adj).map_err(ServeError::Runtime)?;
        Ok(Layout {
            clustering,
            program,
            report,
            schedule_time,
        })
    }
}

/// A fully compiled, execution-ready model plan, shared by every request.
pub struct CompiledPlan {
    pub name: String,
    /// Monotonic across the owning [`PlanCache`]; bumped on every reload
    /// of the same name (hot reload).
    pub version: u64,
    /// The graph the plan was compiled from, minus its weights: `load`
    /// moves every initializer payload into [`weights`](Self::weights),
    /// so `graph.initializers` is empty ([`weight`](Self::weight) answers
    /// for an initializer by name). Nodes, inputs, outputs and `value_info`
    /// are unchanged.
    pub graph: Graph,
    /// The paper's clustering folded to at most one cluster per core (see
    /// `Layout`): the plan's standing pools run one worker per cluster.
    pub clustering: Clustering,
    pub switched: bool,
    /// The schedule stage's statistics, unfolded: the paper's counts.
    pub report: PipelineReport,
    /// Time the schedule stage took.
    pub schedule_time: Duration,
    /// Shared weights — every fetch is a refcount bump. Entry `k` is the
    /// `k`-th initializer of the spec's graph (in `Graph::initializers`
    /// order), its payload moved in; the slot program's weight operands
    /// index it.
    pub weights: Arc<Vec<Value>>,
    /// `weight_names[k]` names `weights[k]`; sorted, since it keeps the
    /// order of `Graph::initializers`.
    weight_names: Vec<String>,
    /// The weights keyed by name, for the name-keyed sequential fallback:
    /// built on the first fallback, never on the load path.
    named_weights: OnceLock<Arc<HashMap<String, Value>>>,
    /// Per-plan execution context: its packed-weight cache warms up on the
    /// first request and is reused by every later one (clones share it).
    pub ctx: ExecCtx,
    /// The graph with every tensor name resolved to a slot (and the
    /// in-place marks): built once here, shared by every schedule below and
    /// through them by the lane's pool workers.
    program: Arc<GraphProgram>,
    /// Hypercluster schedules compiled to per-worker programs, keyed by
    /// batch size.
    schedules: Mutex<BTreeMap<usize, Arc<PlannedBatch>>>,
}

impl std::fmt::Debug for CompiledPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledPlan")
            .field("name", &self.name)
            .field("version", &self.version)
            .field("clusters", &self.clustering.num_clusters())
            .field("switched", &self.switched)
            .finish_non_exhaustive()
    }
}

impl CompiledPlan {
    /// Compile `spec` over its `layout`, with batch 1 planned. The cache
    /// sets the version when it takes the plan in.
    pub(crate) fn build(
        name: &str,
        spec: PlanSpec,
        layout: Layout,
        intra_op: usize,
    ) -> Result<CompiledPlan, ServeError> {
        let PlanSpec {
            mut graph,
            switched,
        } = spec;
        let Layout {
            clustering,
            program,
            report,
            schedule_time,
        } = layout;
        // Every schedule compiles from the one slot resolution, whatever
        // its batch size.
        let program = Arc::new(program);
        let batch1 = PlannedBatch::with_program(&program, hyper_schedule(&clustering, switched, 1))
            .map_err(ServeError::Runtime)?;
        let (weight_names, weights) = take_initializers(&mut graph)?;
        let ctx = if intra_op > 1 {
            ExecCtx::with_intra_op(intra_op)
        } else {
            ExecCtx::sequential()
        };
        Ok(CompiledPlan {
            name: name.to_string(),
            version: 0,
            graph,
            clustering,
            switched,
            report,
            schedule_time,
            weights: Arc::new(weights),
            weight_names,
            named_weights: OnceLock::new(),
            ctx,
            program,
            schedules: Mutex::new(BTreeMap::from([(1, Arc::new(batch1))])),
        })
    }

    /// The schedule (plus routing table) for `batch` samples — precompiled
    /// at load for batch 1, planned lazily (then cached) for any other size
    /// the micro-batcher manages to collect.
    pub fn schedule_for(&self, batch: usize) -> Result<Arc<PlannedBatch>, ServeError> {
        if batch == 0 {
            return Err(ServeError::Internal("batch size 0".into()));
        }
        let mut schedules = self.schedules.lock();
        if let Some(p) = schedules.get(&batch) {
            return Ok(Arc::clone(p));
        }
        let hc = hyper_schedule(&self.clustering, self.switched, batch);
        let planned =
            Arc::new(PlannedBatch::with_program(&self.program, hc).map_err(ServeError::Runtime)?);
        schedules.insert(batch, Arc::clone(&planned));
        Ok(planned)
    }

    /// Cluster count == standing worker count for this plan's pools, at
    /// most the host's core count at every batch size (a hyperclustering
    /// has one hypercluster per cluster).
    pub fn num_clusters(&self) -> usize {
        self.clustering.num_clusters()
    }

    /// The weight an initializer of the spec's graph became.
    pub fn weight(&self, name: &str) -> Option<&Value> {
        let k = self
            .weight_names
            .binary_search_by(|n| n.as_str().cmp(name))
            .ok()?;
        self.weights.get(k)
    }

    /// The weights keyed by name, as the sequential executor takes them.
    /// Built on the first call (refcount bumps, no payload copied).
    pub fn named_weights(&self) -> &Arc<HashMap<String, Value>> {
        self.named_weights.get_or_init(|| {
            let named = self.weight_names.iter().cloned();
            Arc::new(named.zip(self.weights.iter().cloned()).collect())
        })
    }

    /// Batch sizes with a planned schedule (load-time + lazily added).
    pub fn planned_batches(&self) -> Vec<usize> {
        self.schedules.lock().keys().copied().collect()
    }
}

/// Move `graph`'s initializer payloads into a runtime table, each buffer
/// wrapped as it is (no element copied), in `graph.initializers` order:
/// the names, and the weights the slot program's weight indices address.
fn take_initializers(graph: &mut Graph) -> Result<(Vec<String>, Vec<Value>), ServeError> {
    let initializers = std::mem::take(&mut graph.initializers);
    let mut names = Vec::with_capacity(initializers.len());
    let mut weights = Vec::with_capacity(initializers.len());
    for (name, data) in initializers {
        names.push(name);
        weights
            .push(Value::from_owned_tensor_data(data).map_err(|e| ServeError::Runtime(e.into()))?);
    }
    Ok((names, weights))
}

/// Plain (Fig. 8) or switched (Fig. 9) hyperclustering of `clustering`.
fn hyper_schedule(clustering: &Clustering, switched: bool, batch: usize) -> HyperClustering {
    if switched {
        switched_hypercluster(clustering, batch)
    } else {
        hypercluster(clustering, batch)
    }
}

/// LRU-bounded registry of compiled plans, keyed by model name.
pub struct PlanCache {
    capacity: usize,
    /// Most-recently-used first.
    inner: Mutex<Vec<Arc<CompiledPlan>>>,
    next_version: AtomicU64,
}

impl PlanCache {
    /// `capacity` is clamped to at least 1.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Vec::new()),
            next_version: AtomicU64::new(1),
        }
    }

    /// Insert `plan` under its name with the next version. Reloading an
    /// existing name replaces the plan; inserting past capacity evicts the
    /// least-recently-used plans. Returns the inserted plan and whatever
    /// was evicted (so the server can drain those lanes).
    pub fn insert(&self, mut plan: CompiledPlan) -> (Arc<CompiledPlan>, Vec<Arc<CompiledPlan>>) {
        plan.version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(plan);
        let mut inner = self.inner.lock();
        inner.retain(|p| p.name != plan.name);
        inner.insert(0, Arc::clone(&plan));
        let mut evicted = Vec::new();
        while inner.len() > self.capacity {
            evicted.push(inner.pop().expect("len > capacity >= 1"));
        }
        (plan, evicted)
    }

    /// Fetch by name, marking the plan most-recently-used.
    pub fn get(&self, name: &str) -> Option<Arc<CompiledPlan>> {
        let mut inner = self.inner.lock();
        let idx = inner.iter().position(|p| p.name == name)?;
        let plan = inner.remove(idx);
        inner.insert(0, Arc::clone(&plan));
        Some(plan)
    }

    /// Loaded model names, most-recently-used first.
    pub fn names(&self) -> Vec<String> {
        self.inner.lock().iter().map(|p| p.name.clone()).collect()
    }

    /// `(name, version)` for every loaded plan, most-recently-used first —
    /// the observable a hot-swap verifier polls for the version bump.
    pub fn versions(&self) -> Vec<(String, u64)> {
        self.inner
            .lock()
            .iter()
            .map(|p| (p.name.clone(), p.version))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}
