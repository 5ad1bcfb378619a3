//! # ramiel-cluster
//!
//! The paper's core contribution: task parallelization of ML dataflow graphs
//! via **recursive critical-path-based Linear Clustering** (Kim & Browne's
//! LC, Algorithm 1), a **cluster-merging** fixpoint pass (Algorithms 2–3),
//! and **hyperclustering** for batch sizes > 1 (plain and *switched*).
//!
//! Pipeline (batch = 1):
//!
//! ```text
//! Graph ──cost model──▶ distance_to_end ──▶ LC ──▶ merge ──▶ Clustering
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

/// Run the full batch-1 clustering pipeline: distances → LC → merge.
///
/// Debug builds re-verify the partition, ordering and deadlock-freedom
/// invariants after each stage via `ramiel-verify`.
pub fn cluster_graph(graph: &Graph, cost: &dyn CostModel) -> Clustering {
    cluster_graph_with(graph, &graph.adjacency(), cost)
}

/// [`cluster_graph`] over an adjacency snapshot the caller already holds:
/// the distance pass and LC share it instead of each rebuilding their own.
pub fn cluster_graph_with(graph: &Graph, adj: &Adjacency<'_>, cost: &dyn CostModel) -> Clustering {
    let dist = distance_to_end_with(graph, adj, cost);
    cluster_over(graph, adj, &dist)
}

/// LC and merging over a distance table the caller already holds (see
/// [`cluster_graph_with`]).
pub fn cluster_over(graph: &Graph, adj: &Adjacency<'_>, dist: &[u64]) -> Clustering {
    let check = |c: &Clustering, stage: &str| {
        if cfg!(debug_assertions) {
            ramiel_verify::assert_schedule_invariants(graph, adj, &clustering_view(c), stage);
        }
    };
    let lc = linear_clustering_with(adj, dist);
    check(&lc, "after linear_clustering");
    let merged = merge_clusters_fixpoint(&lc, dist);
    check(&merged, "after merge_clusters_fixpoint");
    merged
}
