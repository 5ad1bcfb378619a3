//! Algorithm 1: Recursive Critical-Path-based Linear Clustering.
//!
//! Repeatedly peels the current critical path off the graph:
//!
//! 1. among ready nodes (in-degree 0 in the remainder graph) pick the one
//!    with the largest `distance_to_end`;
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
    // Mutable remainder-graph adjacency. Vec<bool> edge presence keyed by
    // (u, index into adj.succs[u]) keeps this O(V+E) overall.
    let mut out_alive: Vec<Vec<bool>> = adj.succs.iter().map(|s| vec![true; s.len()]).collect();
    let mut indegree: Vec<usize> = adj.preds.iter().map(|p| p.len()).collect();
    let mut clustered = vec![false; n];
    let mut remaining = n;
    let mut clusters = Vec::new();

    while remaining > 0 {
        // readyL ← unclustered nodes with no incoming live edges.
        let c_node = (0..n)
            .filter(|&i| !clustered[i] && indegree[i] == 0)
            .max_by_key(|&i| (dist[i], std::cmp::Reverse(i)))
            .expect("acyclic remainder graph must have a ready node");

        let mut cluster = vec![c_node];
        clustered[c_node] = true;
        remaining -= 1;
        let mut cur = c_node;

        loop {
            // Remaining successors of cur.
            let next = adj.succs[cur]
                .iter()
                .enumerate()
                .filter(|(ei, &v)| out_alive[cur][*ei] && !clustered[v])
                .map(|(_, &v)| v)
                .max_by_key(|&v| (dist[v], std::cmp::Reverse(v)));
            let Some(s_node) = next else { break };

            // Remove all outgoing edges of cur (including the chosen one —
            // it is now internal to the cluster).
            for (ei, &v) in adj.succs[cur].iter().enumerate() {
                if out_alive[cur][ei] {
                    out_alive[cur][ei] = false;
                    indegree[v] -= 1;
                }
            }
            // Remove all incoming edges of s_node from the remainder graph.
            for &p in &adj.preds[s_node] {
                if let Some(ei) = adj.succs[p].iter().position(|&v| v == s_node) {
                    if out_alive[p][ei] {
                        out_alive[p][ei] = false;
                        indegree[s_node] -= 1;
                    }
                }
            }
            cluster.push(s_node);
            clustered[s_node] = true;
            remaining -= 1;
            cur = s_node;
        }

        // Drop any leftover outgoing edges of the path's tail so downstream
        // nodes become ready.
        for (ei, &v) in adj.succs[cur].iter().enumerate() {
            if out_alive[cur][ei] {
                out_alive[cur][ei] = false;
                indegree[v] -= 1;
            }
        }

        clusters.push(Cluster::new(cluster));
    }

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
