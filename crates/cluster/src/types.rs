//! Clustering result types and their invariants.

use ramiel_ir::graph::Adjacency;
use ramiel_ir::{Graph, NodeId};
use serde::Serialize;
use std::collections::HashMap;

/// One cluster: an ordered list of node ids executed sequentially on one
/// worker. Linear Clustering produces paths; merging produces unions of
/// paths kept in decreasing `distance_to_end` order (a valid topological
/// order, since distance strictly decreases along dependence edges).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Cluster {
    pub nodes: Vec<NodeId>,
}

impl Cluster {
    pub fn new(nodes: Vec<NodeId>) -> Self {
        Cluster { nodes }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// First node — the one with the largest distance-to-end.
    pub fn entry(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node — the one with the smallest distance-to-end.
    pub fn exit(&self) -> NodeId {
        *self.nodes.last().expect("clusters are non-empty")
    }
}

/// A complete clustering: a partition of the graph's nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Clustering {
    pub clusters: Vec<Cluster>,
}

impl Clustering {
    pub fn new(clusters: Vec<Cluster>) -> Self {
        Clustering { clusters }
    }

    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// node id → cluster index.
    pub fn assignment(&self) -> HashMap<NodeId, usize> {
        let mut m = HashMap::new();
        for (ci, c) in self.clusters.iter().enumerate() {
            for &n in &c.nodes {
                m.insert(n, ci);
            }
        }
        m
    }

    /// Check the partition invariant: every node of `graph` appears in
    /// exactly one cluster. Returns an error message on violation.
    pub fn check_partition(&self, graph: &Graph) -> Result<(), String> {
        let mut seen = vec![false; graph.num_nodes()];
        for c in &self.clusters {
            if c.is_empty() {
                return Err("empty cluster".into());
            }
            for &n in &c.nodes {
                if n >= seen.len() {
                    return Err(format!("cluster references unknown node {n}"));
                }
                if seen[n] {
                    return Err(format!("node {n} appears in two clusters"));
                }
                seen[n] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("node {missing} missing from all clusters"));
        }
        Ok(())
    }

    /// Check that every cluster's node order respects the graph's dependence
    /// edges *within the cluster* (required for sequential replay).
    pub fn check_internal_order(&self, graph: &Graph) -> Result<(), String> {
        let adj = graph.adjacency();
        for (ci, c) in self.clusters.iter().enumerate() {
            let pos: HashMap<NodeId, usize> =
                c.nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
            for &u in &c.nodes {
                for &v in &adj.succs[u] {
                    if let (Some(&pu), Some(&pv)) = (pos.get(&u), pos.get(&v)) {
                        if pu >= pv {
                            return Err(format!(
                                "cluster {ci} orders node {v} before its producer {u}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Count of cross-cluster dependence edges (each becomes a message in
    /// the generated parallel code).
    pub fn cross_cluster_edges(&self, graph: &Graph) -> usize {
        self.cross_cluster_edges_with(graph, &graph.adjacency())
    }

    /// [`Clustering::cross_cluster_edges`] over an adjacency snapshot the
    /// caller already holds.
    pub fn cross_cluster_edges_with(&self, graph: &Graph, adj: &Adjacency<'_>) -> usize {
        // Dense node id → cluster index; ids no cluster names stay at MAX.
        let mut assign = vec![usize::MAX; graph.num_nodes()];
        for (ci, c) in self.clusters.iter().enumerate() {
            for &n in &c.nodes {
                if let Some(slot) = assign.get_mut(n) {
                    *slot = ci;
                }
            }
        }
        graph
            .dependence_pairs(adj)
            .filter(|&(u, v)| assign[u] != assign[v])
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_ir::{DType, GraphBuilder, OpKind};

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new("d");
        let x = b.input("x", DType::F32, vec![4]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let p = b.op("p", OpKind::Relu, vec![a.clone()]);
        let q = b.op("q", OpKind::Relu, vec![a]);
        let j = b.op("j", OpKind::Add, vec![p, q]);
        b.output(&j);
        b.finish().unwrap()
    }

    #[test]
    fn partition_check_accepts_valid() {
        let g = diamond();
        let c = Clustering::new(vec![Cluster::new(vec![0, 1, 3]), Cluster::new(vec![2])]);
        c.check_partition(&g).unwrap();
        c.check_internal_order(&g).unwrap();
        assert_eq!(c.cross_cluster_edges(&g), 2); // a→q and q→j
    }

    #[test]
    fn partition_check_rejects_duplicates_and_missing() {
        let g = diamond();
        let dup = Clustering::new(vec![Cluster::new(vec![0, 1, 3]), Cluster::new(vec![1, 2])]);
        assert!(dup.check_partition(&g).is_err());
        let missing = Clustering::new(vec![Cluster::new(vec![0, 1, 3])]);
        assert!(missing.check_partition(&g).is_err());
    }

    #[test]
    fn internal_order_check_rejects_reversed_deps() {
        let g = diamond();
        let bad = Clustering::new(vec![
            Cluster::new(vec![1, 0, 3]), // p before its producer a
            Cluster::new(vec![2]),
        ]);
        assert!(bad.check_internal_order(&g).is_err());
    }

    #[test]
    fn assignment_maps_every_node() {
        let c = Clustering::new(vec![Cluster::new(vec![0, 2]), Cluster::new(vec![1])]);
        let a = c.assignment();
        assert_eq!(a[&0], 0);
        assert_eq!(a[&1], 1);
        assert_eq!(a[&2], 0);
    }
}
