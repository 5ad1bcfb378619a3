//! # ramiel-cluster
//!
//! The paper's core contribution: task parallelization of ML dataflow graphs
//! via **recursive critical-path-based Linear Clustering** (Kim & Browne's
//! LC, Algorithm 1), a **cluster-merging** fixpoint pass (Algorithms 2–3),
//! and **hyperclustering** for batch sizes > 1 (plain and *switched*).
//!
//! Pipeline (batch = 1), run by [`schedule_stage`] for every caller that
//! schedules a model (`ramiel::schedule` and `serve`'s plan build):
//!
//! ```text
//! Graph ──cost model──▶ distance_to_end ──▶ LC ──▶ merge ──▶ Clustering + PipelineReport
//! ```
//!
//! The serving layer adds one step the paper does not take: [`bound`] folds
//! the merged clustering to at most one cluster per core.
//!
//! The [`cost`] module also computes the paper's *potential parallelism*
//! factor (Table I): total weighted node cost divided by the weighted
//! critical-path length (edges count 1 each).

pub mod baselines;
pub mod bound;
pub mod cost;
pub mod critical_path;
pub mod distance;
pub mod dsc;
pub mod hyper;
pub mod lc;
pub mod merge;
pub mod types;
pub mod verify_view;

pub use baselines::{level_clustering, round_robin, single_cluster};
pub use bound::bound_clusters;
pub use cost::{CostModel, FlopCost, MeasuredCost, StaticCost};
pub use critical_path::{
    critical_path, parallelism_report, parallelism_report_with, ParallelismReport,
};
pub use distance::{distance_to_end, distance_to_end_with};
pub use dsc::dsc_clustering;
pub use hyper::{hypercluster, switched_hypercluster, HyperClustering};
pub use lc::{linear_clustering, linear_clustering_with};
pub use merge::{merge_clusters_fixpoint, merge_clusters_once};
pub use types::{Cluster, Clustering};
pub use verify_view::{clustering_view, hyper_view, stealing_view};

use ramiel_ir::graph::Adjacency;
use ramiel_ir::Graph;
use serde::Serialize;

/// Per-stage statistics of a schedule: the node counts around the graph
/// rewrites (Table III) and what the schedule stage made of the result
/// (Tables I and II).
#[derive(Debug, Clone, Serialize)]
pub struct PipelineReport {
    pub model: String,
    pub nodes_before: usize,
    pub nodes_after_prune: usize,
    pub nodes_after_cloning: usize,
    /// Table II "Before Merging".
    pub clusters_before_merge: usize,
    /// Table II "After Merging" (== Table III/IV cluster count).
    pub clusters_after_merge: usize,
    pub cross_cluster_edges: usize,
    pub parallelism: ParallelismReport,
}

/// What [`schedule_stage`] computes.
pub struct Scheduled {
    /// The merged clustering.
    pub clustering: Clustering,
    /// Distance-to-end table of the graph (reusable by simulators and by
    /// [`bound_clusters`]).
    pub distances: Vec<u64>,
    /// The stage's statistics. Its node counts are the scheduled graph's
    /// own; a caller that rewrote the graph first puts in the counts from
    /// before the rewrites.
    pub report: PipelineReport,
}

/// The paper's schedule stage (Fig. 10): distance pass → Linear Clustering
/// → merge fixpoint → [`PipelineReport`], all over `adj`, a snapshot of
/// `graph`. Every stage runs in an `obs` span carrying its cluster counts.
/// Debug builds re-verify the partition, ordering and deadlock-freedom
/// invariants after LC and after merging via `ramiel-verify`.
pub fn schedule_stage(
    graph: &Graph,
    adj: &Adjacency<'_>,
    cost: &dyn CostModel,
    obs: &ramiel_obs::Obs,
) -> Scheduled {
    let (distances, clusters_before_merge, clustering) = cluster_stages(graph, adj, cost, obs);
    let nodes = graph.num_nodes();
    let report = PipelineReport {
        model: graph.name.clone(),
        nodes_before: nodes,
        nodes_after_prune: nodes,
        nodes_after_cloning: nodes,
        clusters_before_merge,
        clusters_after_merge: clustering.num_clusters(),
        cross_cluster_edges: clustering.cross_cluster_edges_with(graph, adj),
        parallelism: parallelism_report_with(graph, adj, cost, &distances),
    };
    Scheduled {
        clustering,
        distances,
        report,
    }
}

/// The merged clustering of [`schedule_stage`] under any cost model, without
/// its report: the entry the ablations use.
pub fn cluster_graph(graph: &Graph, cost: &dyn CostModel) -> Clustering {
    cluster_graph_with(graph, &graph.adjacency(), cost)
}

/// [`cluster_graph`] over an adjacency snapshot the caller already holds.
pub fn cluster_graph_with(graph: &Graph, adj: &Adjacency<'_>, cost: &dyn CostModel) -> Clustering {
    cluster_stages(graph, adj, cost, &ramiel_obs::Obs::disabled()).2
}

/// Distances, LC and the merge fixpoint of [`schedule_stage`]: returns the
/// distance table, LC's cluster count and the merged clustering.
fn cluster_stages(
    graph: &Graph,
    adj: &Adjacency<'_>,
    cost: &dyn CostModel,
    obs: &ramiel_obs::Obs,
) -> (Vec<u64>, usize, Clustering) {
    let check = |c: &Clustering, stage: &str| {
        if cfg!(debug_assertions) {
            ramiel_verify::assert_schedule_invariants(graph, adj, &clustering_view(c), stage);
        }
    };
    let distances = {
        let _span = obs.span(0, "distance-to-end pass", "compile");
        distance_to_end_with(graph, adj, cost)
    };
    let mut span = obs.span(0, "linear clustering", "compile");
    let lc = linear_clustering_with(adj, &distances);
    let clusters_before_merge = lc.num_clusters();
    span.set_args(serde_json::json!({ "clusters": clusters_before_merge }));
    span.finish();
    check(&lc, "after linear_clustering");
    let mut span = obs.span(0, "cluster merging", "compile");
    let clustering = merge_clusters_fixpoint(&lc, &distances);
    span.set_args(serde_json::json!({
        "clusters_before": clusters_before_merge,
        "clusters_after": clustering.num_clusters(),
    }));
    span.finish();
    check(&clustering, "after merge_clusters_fixpoint");
    (distances, clusters_before_merge, clustering)
}
