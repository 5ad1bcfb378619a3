//! Compiled plans.
//!
//! A load pays every per-model cost exactly once — the paper's schedule
//! stage with its clustering folded to at most one cluster per core (see
//! `Layout`), the slot-resolved graph program with its in-place marks,
//! the batch-1 hypercluster schedule compiled to per-worker programs (other
//! batch sizes are compiled on their first batch), the model's one
//! [`Weights`] table (whose buffers are the graph's own payloads, moved,
//! not copied: the lane's workers index it by the slot program's weight
//! operands, the sequential fallback looks it up by name), and a per-plan
//! [`ExecCtx`] whose packed-weight cache persists across requests — and
//! shares the result as an [`Arc<CompiledPlan>`]. The
//! server's model table hands it to the model's lane with a fresh,
//! monotonically increasing `version`, which is how lanes detect hot
//! reloads: a collector thread compares its pool's version against the
//! plan's and rebuilds workers when they diverge.

use crate::server::ServeError;
use parking_lot::Mutex;
use ramiel_cluster::{
    bound_clusters, clustering_view, hypercluster, schedule_stage, switched_hypercluster,
    Clustering, CostModel, HyperClustering, PipelineReport, Scheduled, StaticCost,
};
use ramiel_ir::graph::Adjacency;
use ramiel_ir::Graph;
use ramiel_runtime::{GraphProgram, PlannedBatch, Weights};
use ramiel_tensor::ExecCtx;
use std::collections::BTreeMap;
use std::sync::Arc;
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
/// folded. Debug builds verify the result, as the schedule stage verifies
/// its own clusterings.
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
        if cfg!(debug_assertions) {
            let view = clustering_view(&clustering);
            ramiel_verify::assert_schedule_invariants(graph, adj, &view, "after bound_clusters");
        }
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
    /// Minted by the owning [`crate::Server`]'s model table, monotonic
    /// across it; bumped on every reload of the same name (hot reload).
    pub version: u64,
    /// The graph the plan was compiled from, minus its weights: `load`
    /// moves every initializer payload into [`weights`](Self::weights),
    /// so `graph.initializers` is empty. Nodes, inputs, outputs and
    /// `value_info` are unchanged.
    pub graph: Graph,
    /// The paper's clustering folded to at most one cluster per core (see
    /// `Layout`): the plan's standing pools run one worker per cluster.
    pub clustering: Clustering,
    pub switched: bool,
    /// The schedule stage's statistics, unfolded: the paper's counts.
    pub report: PipelineReport,
    /// Time the schedule stage took.
    pub schedule_time: Duration,
    /// The spec graph's initializers, their payloads moved in: every fetch
    /// is a refcount bump. The lane's pool and its sequential fallback both
    /// read this one table.
    pub weights: Arc<Weights>,
    /// Per-plan execution context, with sequential kernels: the lane's
    /// standing workers are the plan's only threads. Its packed-weight
    /// cache warms up on the first request and is reused by every later
    /// one (clones share it).
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
    /// Compile `spec` over its `layout`, with batch 1 planned. The model
    /// table sets the version when it takes the plan in.
    pub(crate) fn build(
        name: &str,
        spec: PlanSpec,
        layout: Layout,
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
        let initializers = std::mem::take(&mut graph.initializers);
        let weights = Weights::from_initializers(initializers).map_err(ServeError::Runtime)?;
        Ok(CompiledPlan {
            name: name.to_string(),
            version: 0,
            graph,
            clustering,
            switched,
            report,
            schedule_time,
            weights: Arc::new(weights),
            ctx: ExecCtx::sequential(),
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
}

/// Plain (Fig. 8) or switched (Fig. 9) hyperclustering of `clustering`.
fn hyper_schedule(clustering: &Clustering, switched: bool, batch: usize) -> HyperClustering {
    if switched {
        switched_hypercluster(clustering, batch)
    } else {
        hypercluster(clustering, batch)
    }
}
