//! Model registry and plan cache.
//!
//! `load()` pays every per-model cost exactly once — clustering (folded to
//! at most one cluster per core, see [`PlanParts`]), the
//! slot-resolved graph program with its in-place marks, hypercluster
//! schedules compiled to per-worker programs at the batch sizes the
//! micro-batcher will actually hit, the shared initializer table (whose
//! buffers are the graph's own payloads, moved, not copied), and a
//! per-plan [`ExecCtx`] whose packed-weight cache persists across requests
//! — and shares the result as an [`Arc<CompiledPlan>`]. The cache is
//! LRU-bounded ([`PlanCache::new`]) and every (re)load gets a fresh
//! monotonically increasing `version`, which is how lanes detect hot
//! reloads: a collector thread compares its pool's version against the
//! plan's and rebuilds workers when they diverge.

use crate::server::ServeError;
use parking_lot::Mutex;
use ramiel_cluster::{
    bound_clusters, cluster_over, distance_to_end_with, hypercluster, switched_hypercluster,
    Clustering, CostModel, HyperClustering, StaticCost,
};
use ramiel_ir::graph::Adjacency;
use ramiel_ir::{Graph, TensorInfo};
use ramiel_runtime::{GraphProgram, PlannedBatch};
use ramiel_tensor::{ExecCtx, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What to compile into a plan. The graph is the only required piece:
/// callers that already hold an adjacency snapshot of it (an importer that
/// just checked it, the CLI's `schedule` path) pass the plan's
/// [`PlanParts`] built over that snapshot, so `load()` builds none of its
/// own; otherwise `load()` builds the parts itself.
pub struct PlanSpec {
    pub graph: Graph,
    /// `None` → `load()` clusters `graph` with the paper's pipeline under
    /// [`StaticCost`], over a snapshot of its own.
    pub parts: Option<PlanParts>,
    /// Use switched (Fig. 9) instead of plain (Fig. 8) hyperclustering for
    /// batch > 1 schedules.
    pub switched: bool,
    /// Batch sizes to pre-plan at load time. Batch 1 is always included;
    /// other sizes the batcher reaches are planned lazily on first use.
    pub batch_sizes: Vec<usize>,
    /// Pre-converted weights to share (e.g. from `ramiel::prepare`);
    /// `None` → the graph's own payloads become the table at load.
    pub init_values: Option<Arc<HashMap<String, Value>>>,
}

impl PlanSpec {
    pub fn new(graph: Graph) -> PlanSpec {
        PlanSpec {
            graph,
            parts: None,
            switched: false,
            batch_sizes: Vec::new(),
            init_values: None,
        }
    }
}

/// The half of a plan that reads the graph's adjacency: the clustering the
/// plan runs and the slot-resolved graph program. Both constructors take
/// a snapshot of `graph` the caller holds, so an import, a schedule and a
/// plan build share one.
///
/// The clustering is the paper's LC + merge folded by
/// [`bound_clusters`] to at most `P` clusters, `P` being
/// [`std::thread::available_parallelism`]: a plan's standing pool runs one
/// worker per cluster, so no plan asks for more workers than the host has
/// cores. When `P` cannot be read, the clustering is not folded.
pub struct PlanParts {
    clustering: Clustering,
    program: GraphProgram,
}

impl PlanParts {
    /// Cluster `graph` as the paper does — distances under [`StaticCost`],
    /// LC, merging — then fold and resolve it. `adj` is a snapshot of
    /// `graph`.
    pub(crate) fn new(graph: &Graph, adj: &Adjacency<'_>) -> Result<PlanParts, ServeError> {
        let dist = distance_to_end_with(graph, adj, &StaticCost);
        let clustering = cluster_over(graph, adj, &dist);
        PlanParts::with_clustering(graph, adj, &clustering, &dist)
    }

    /// Fold and resolve a clustering of `graph` the caller already computed
    /// (the CLI's `schedule`), given the distance table it was built over.
    pub fn with_clustering(
        graph: &Graph,
        adj: &Adjacency<'_>,
        clustering: &Clustering,
        dist: &[u64],
    ) -> Result<PlanParts, ServeError> {
        let clustering = match std::thread::available_parallelism() {
            Ok(p) => {
                let cost: Vec<u64> = graph
                    .nodes
                    .iter()
                    .map(|n| StaticCost.node_cost(graph, n))
                    .collect();
                bound_clusters(clustering, dist, &cost, p.get())
            }
            Err(_) => clustering.clone(),
        };
        let program = GraphProgram::with_adjacency(graph, adj).map_err(ServeError::Runtime)?;
        Ok(PlanParts {
            clustering,
            program,
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
    /// moves every initializer payload into [`init_values`](Self::init_values),
    /// so `graph.initializers` is empty and each initializer's shape and
    /// dtype are in `graph.value_info` instead (`Graph::tensor_info` still
    /// answers for it). Nodes, inputs and outputs are unchanged.
    pub graph: Graph,
    /// The paper's clustering folded to at most one cluster per core (see
    /// [`PlanParts`]): the plan's standing pools run one worker per cluster.
    pub clustering: Clustering,
    pub switched: bool,
    /// Shared weights — every fetch is a refcount bump. Built from the
    /// spec's graph by moving its payloads (or the spec's own table).
    pub init_values: Arc<HashMap<String, Value>>,
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
    pub(crate) fn build(
        name: &str,
        version: u64,
        spec: PlanSpec,
        intra_op: usize,
    ) -> Result<CompiledPlan, ServeError> {
        let PlanSpec {
            mut graph,
            parts,
            switched,
            batch_sizes,
            init_values,
        } = spec;
        let PlanParts {
            clustering,
            program,
        } = match parts {
            Some(parts) => parts,
            None => PlanParts::new(&graph, &graph.adjacency())?,
        };
        // Every load-time schedule compiles from the one slot resolution,
        // whatever its batch size.
        let program = Arc::new(program);
        let mut schedules = BTreeMap::new();
        for b in batch_sizes.into_iter().chain([1]) {
            if b == 0 {
                return Err(ServeError::Internal("batch size 0".into()));
            }
            if let std::collections::btree_map::Entry::Vacant(slot) = schedules.entry(b) {
                let hc = hyper_schedule(&clustering, switched, b);
                let planned =
                    PlannedBatch::with_program(&program, hc).map_err(ServeError::Runtime)?;
                slot.insert(Arc::new(planned));
            }
        }
        let weights = take_initializers(&mut graph)?;
        let init_values = init_values.unwrap_or_else(|| Arc::new(weights));
        let ctx = if intra_op > 1 {
            ExecCtx::with_intra_op(intra_op)
        } else {
            ExecCtx::sequential()
        };
        Ok(CompiledPlan {
            name: name.to_string(),
            version,
            graph,
            clustering,
            switched,
            init_values,
            ctx,
            program,
            schedules: Mutex::new(schedules),
        })
    }

    /// The schedule (plus routing table) for `batch` samples — precompiled
    /// at load for the spec'd sizes, planned lazily (then cached) for any
    /// other size the micro-batcher manages to collect.
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

    /// Batch sizes with a planned schedule (load-time + lazily added).
    pub fn planned_batches(&self) -> Vec<usize> {
        self.schedules.lock().keys().copied().collect()
    }
}

/// Move `graph`'s initializer payloads into a runtime table, each buffer
/// wrapped as it is (no element copied), leaving the shape and dtype of
/// every initializer in `graph.value_info`.
fn take_initializers(graph: &mut Graph) -> Result<HashMap<String, Value>, ServeError> {
    let initializers = std::mem::take(&mut graph.initializers);
    let mut table = HashMap::with_capacity(initializers.len());
    for (name, data) in initializers {
        let info = TensorInfo::new(name.clone(), data.dtype(), data.shape.clone());
        graph.value_info.insert(name.clone(), info);
        let value =
            Value::from_owned_tensor_data(data).map_err(|e| ServeError::Runtime(e.into()))?;
        table.insert(name, value);
    }
    Ok(table)
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

    /// Compile `spec` under `name` and insert it. Reloading an existing
    /// name replaces the plan (with a bumped `version`); inserting past
    /// capacity evicts the least-recently-used plans. Returns the new plan
    /// and whatever was evicted (so the server can drain those lanes).
    /// Compilation runs outside the cache lock.
    #[allow(clippy::type_complexity)]
    pub fn load(
        &self,
        name: &str,
        spec: PlanSpec,
        intra_op: usize,
    ) -> Result<(Arc<CompiledPlan>, Vec<Arc<CompiledPlan>>), ServeError> {
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(CompiledPlan::build(name, version, spec, intra_op)?);
        let mut inner = self.inner.lock();
        inner.retain(|p| p.name != name);
        inner.insert(0, Arc::clone(&plan));
        let mut evicted = Vec::new();
        while inner.len() > self.capacity {
            evicted.push(inner.pop().expect("len > capacity >= 1"));
        }
        Ok((plan, evicted))
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
