//! Algorithm 1: Recursive Critical-Path-based Linear Clustering.
//!
//! Repeatedly peels the current critical path off the graph:
//!
//! 1. among ready nodes (in-degree 0 in the remainder graph) pick the one
//!    with the largest `distance_to_end` (a max-heap of ready nodes, smallest
//!    id first among equals);
//! 2. extend the path by always stepping to the remaining successor with the
//!    largest `distance_to_end`;
//! 3. while stepping, delete the other outgoing edges of the current node
//!    and all incoming edges of the chosen successor, so the remainder graph
//!    only connects still-unclustered nodes;
//! 4. the peeled path becomes a cluster; iterate until no nodes remain.
//!
//! Every cluster is a *linear* path of the original graph, and the clusters
//! partition the node set (the properties the proptest suite pins down).

use crate::types::{Cluster, Clustering};
use ramiel_ir::graph::Adjacency;
use ramiel_ir::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Run Linear Clustering. `dist` is the distance-to-end table from
/// [`crate::distance::distance_to_end`].
pub fn linear_clustering(graph: &Graph, dist: &[u64]) -> Clustering {
    linear_clustering_with(&graph.adjacency(), dist)
}

/// [`linear_clustering`] over an adjacency snapshot the caller already holds
/// (the algorithm reads nothing else of the graph).
pub fn linear_clustering_with(adj: &Adjacency<'_>, dist: &[u64]) -> Clustering {
    let n = adj.succs.len();
    assert_eq!(dist.len(), n, "distance table size mismatch");
    // The remainder graph is implicit: step 3 deletes an edge exactly when
    // one of its ends is clustered, so an edge is live iff both ends are
    // unclustered and `indegree[v]` counts v's unclustered predecessors.
    let mut indegree: Vec<usize> = adj.preds.iter().map(Vec::len).collect();
    let mut clustered = vec![false; n];
    let mut clusters = Vec::new();

    // readyL: a max-heap keyed (largest distance, then smallest id). A node
    // enters when its last live incoming edge dies; one that a path absorbed
    // meanwhile is skipped when popped.
    let key = |i: usize| (dist[i], Reverse(i));
    let mut ready: BinaryHeap<(u64, Reverse<usize>)> =
        (0..n).filter(|&i| indegree[i] == 0).map(key).collect();

    while let Some((_, Reverse(head))) = ready.pop() {
        if clustered[head] {
            continue;
        }
        let mut cluster = vec![head];
        clustered[head] = true;
        let mut cur = head;
        loop {
            let next = adj.succs[cur]
                .iter()
                .copied()
                .filter(|&v| !clustered[v])
                .max_by_key(|&v| key(v));
            // cur is clustered: its outgoing edges leave the remainder graph
            // (the chosen one becomes internal to the cluster).
            for &v in &adj.succs[cur] {
                if !clustered[v] {
                    indegree[v] -= 1;
                    if indegree[v] == 0 {
                        ready.push(key(v));
                    }
                }
            }
            let Some(s_node) = next else { break };
            cluster.push(s_node);
            clustered[s_node] = true;
            cur = s_node;
        }
        clusters.push(Cluster::new(cluster));
    }

    assert_eq!(
        clusters.iter().map(Cluster::len).sum::<usize>(),
        n,
        "acyclic remainder graph must have a ready node"
    );
    Clustering::new(clusters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::StaticCost;
    use crate::distance::distance_to_end;
    use ramiel_ir::{DType, GraphBuilder, OpKind};

    fn cluster(g: &Graph) -> Clustering {
        let dist = distance_to_end(g, &StaticCost);
        linear_clustering(g, &dist)
    }

    #[test]
    fn chain_is_one_cluster() {
        let mut b = GraphBuilder::new("chain");
        let mut t = b.input("x", DType::F32, vec![4]);
        for i in 0..6 {
            t = b.op(&format!("r{i}"), OpKind::Relu, vec![t]);
        }
        b.output(&t);
        let g = b.finish().unwrap();
        let c = cluster(&g);
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.clusters[0].nodes, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn diamond_peels_heavy_path_first() {
        let mut b = GraphBuilder::new("d");
        let x = b.input("x", DType::F32, vec![1, 4, 8, 8]);
        let a = b.op("a", OpKind::Relu, vec![x]); // 0
        let light = b.op("light", OpKind::Relu, vec![a.clone()]); // 1
        let heavy = b.conv(&a, 4, 4, (3, 3), (1, 1), (1, 1), 1); // 2
        let j = b.op("j", OpKind::Add, vec![light, heavy]); // 3
        b.output(&j);
        let g = b.finish().unwrap();
        let c = cluster(&g);
        assert_eq!(c.num_clusters(), 2);
        // critical path a → conv → join
        assert_eq!(c.clusters[0].nodes, vec![0, 2, 3]);
        assert_eq!(c.clusters[1].nodes, vec![1]);
        c.check_partition(&g).unwrap();
        c.check_internal_order(&g).unwrap();
    }

    #[test]
    fn two_independent_chains_become_two_clusters() {
        let mut b = GraphBuilder::new("two");
        let x = b.input("x", DType::F32, vec![4]);
        let y = b.input("y", DType::F32, vec![4]);
        let mut t1 = x;
        let mut t2 = y;
        for i in 0..3 {
            t1 = b.op(&format!("a{i}"), OpKind::Relu, vec![t1]);
            t2 = b.op(&format!("b{i}"), OpKind::Sigmoid, vec![t2]);
        }
        b.output(&t1);
        b.output(&t2);
        let g = b.finish().unwrap();
        let c = cluster(&g);
        assert_eq!(c.num_clusters(), 2);
        c.check_partition(&g).unwrap();
    }

    #[test]
    fn clusters_are_linear_paths_of_the_graph() {
        // fork-join with 3 branches of different lengths
        let mut b = GraphBuilder::new("fj");
        let x = b.input("x", DType::F32, vec![1, 4, 8, 8]);
        let root = b.op("root", OpKind::Relu, vec![x]);
        let mut outs = Vec::new();
        for n in 1..=3usize {
            let mut t = root.clone();
            for _ in 0..n {
                t = b.conv(&t, 4, 4, (3, 3), (1, 1), (1, 1), 1);
            }
            outs.push(t);
        }
        let j = b.op("join", OpKind::Concat { axis: 1 }, outs);
        b.output(&j);
        let g = b.finish().unwrap();
        let c = cluster(&g);
        c.check_partition(&g).unwrap();
        // every cluster must be a path: consecutive nodes connected by edges
        let adj = g.adjacency();
        for cl in &c.clusters {
            for w in cl.nodes.windows(2) {
                assert!(
                    adj.succs[w[0]].contains(&w[1]),
                    "cluster nodes {w:?} not an edge"
                );
            }
        }
    }
}
