//! Critical path extraction and the paper's *potential parallelism* factor.
//!
//! `Parallelism = Wt.Cost of Nodes / Wt.Cost of Critical Path` (Section
//! III-A). The critical-path cost includes one edge cost per traversed edge,
//! which is why graphs with long dependency chains (SqueezeNet) can come out
//! below 1×.

use crate::cost::CostModel;
use crate::distance::{distance_to_end, distance_to_end_with};
use ramiel_ir::graph::Adjacency;
use ramiel_ir::{Graph, NodeId};
use serde::Serialize;

/// Extract one critical path (node ids, source → sink) and its weighted cost.
pub fn critical_path(graph: &Graph, cost: &dyn CostModel) -> (Vec<NodeId>, u64) {
    let dist = distance_to_end(graph, cost);
    critical_path_from_distances(graph, cost, &dist)
}

/// Critical path given precomputed distances (avoids recomputing them).
pub fn critical_path_from_distances(
    graph: &Graph,
    cost: &dyn CostModel,
    dist: &[u64],
) -> (Vec<NodeId>, u64) {
    if graph.num_nodes() == 0 {
        return (Vec::new(), 0);
    }
    let adj = graph.adjacency();
    // Start at the source-like node with the largest distance. (Non-source
    // nodes never have a larger distance than their ancestors.)
    let mut cur = (0..graph.num_nodes())
        .max_by_key(|&i| (dist[i], std::cmp::Reverse(i)))
        .expect("non-empty graph");
    let mut path = vec![cur];
    loop {
        let next = adj.succs[cur]
            .iter()
            .copied()
            .max_by_key(|&v| (dist[v], std::cmp::Reverse(v)));
        match next {
            Some(v)
                if dist[cur]
                    == cost.node_cost(graph, &graph.nodes[cur]) + cost.edge_cost() + dist[v] =>
            {
                path.push(v);
                cur = v;
            }
            _ => break,
        }
    }
    let total = dist[path[0]];
    (path, total)
}

/// The Table I row for one model.
#[derive(Debug, Clone, Serialize)]
pub struct ParallelismReport {
    pub model: String,
    pub num_nodes: usize,
    pub num_edges: usize,
    /// `Wt.Cost of Nodes`.
    pub total_node_cost: u64,
    /// `Wt.Cost of Critical Path` (node costs + 1 per edge).
    pub critical_path_cost: u64,
    /// `total_node_cost / critical_path_cost`.
    pub parallelism: f64,
}

/// Compute the paper's Table I metrics for a graph.
pub fn parallelism_report(graph: &Graph, cost: &dyn CostModel) -> ParallelismReport {
    let adj = graph.adjacency();
    let dist = distance_to_end_with(graph, &adj, cost);
    parallelism_report_with(graph, &adj, cost, &dist)
}

/// [`parallelism_report`] for a caller already holding the adjacency and the
/// distance table: the critical-path cost is the largest distance-to-end.
pub fn parallelism_report_with(
    graph: &Graph,
    adj: &Adjacency<'_>,
    cost: &dyn CostModel,
    dist: &[u64],
) -> ParallelismReport {
    let total = cost.total_cost(graph);
    let cp = dist.iter().copied().max().unwrap_or(0);
    ParallelismReport {
        model: graph.name.clone(),
        num_nodes: graph.num_nodes(),
        num_edges: graph.dependence_pairs(adj).count(),
        total_node_cost: total,
        critical_path_cost: cp,
        parallelism: total as f64 / cp.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::StaticCost;
    use ramiel_ir::{DType, GraphBuilder, OpKind};

    #[test]
    fn pure_chain_parallelism_below_one() {
        // A chain's CP includes edge costs, so parallelism < 1 (the paper's
        // SqueezeNet effect).
        let mut b = GraphBuilder::new("chain");
        let mut t = b.input("x", DType::F32, vec![4]);
        for i in 0..5 {
            t = b.op(&format!("r{i}"), OpKind::Relu, vec![t]);
        }
        b.output(&t);
        let g = b.finish().unwrap();
        let rep = parallelism_report(&g, &StaticCost);
        assert_eq!(rep.total_node_cost, 5);
        assert_eq!(rep.critical_path_cost, 9); // 5 nodes + 4 edges
        assert!(rep.parallelism < 1.0);
    }

    #[test]
    fn wide_fork_parallelism_above_one() {
        // 4 parallel heavy branches from one root.
        let mut b = GraphBuilder::new("fork");
        let x = b.input("x", DType::F32, vec![1, 4, 8, 8]);
        let root = b.op("root", OpKind::Relu, vec![x]);
        let mut branches = Vec::new();
        for _ in 0..4 {
            let c = b.conv(&root, 4, 4, (3, 3), (1, 1), (1, 1), 1);
            branches.push(c);
        }
        let join = b.op("join", OpKind::Concat { axis: 1 }, branches);
        b.output(&join);
        let g = b.finish().unwrap();
        let rep = parallelism_report(&g, &StaticCost);
        // total = 1 + 4·8 + 1 = 34 ; CP = 1 +1+ 8 +1+ 1 = 12
        assert_eq!(rep.total_node_cost, 34);
        assert_eq!(rep.critical_path_cost, 12);
        assert!(rep.parallelism > 2.0);
    }

    #[test]
    fn critical_path_follows_heaviest_branch() {
        let mut b = GraphBuilder::new("fork");
        let x = b.input("x", DType::F32, vec![1, 4, 8, 8]);
        let root = b.op("root", OpKind::Relu, vec![x]);
        let light = b.op("light", OpKind::Relu, vec![root.clone()]);
        let heavy = b.conv(&root, 4, 4, (5, 5), (1, 1), (2, 2), 1);
        let join = b.op("join", OpKind::Add, vec![light, heavy]);
        b.output(&join);
        let g = b.finish().unwrap();
        let (path, total) = critical_path(&g, &StaticCost);
        // root(0) → conv(2) → join(3)
        assert_eq!(path, vec![0, 2, 3]);
        assert_eq!(total, 1 + 1 + 14 + 1 + 1);
    }

    #[test]
    fn empty_graph_cp_is_zero() {
        let g = Graph::new("empty");
        let (path, cost) = critical_path(&g, &StaticCost);
        assert!(path.is_empty());
        assert_eq!(cost, 0);
    }
}
