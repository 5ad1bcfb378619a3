//! Algorithms 2 & 3: Cluster Merging.
//!
//! Linear Clustering leaves behind many short side clusters because zeroing
//! the critical path disconnects the graph. Merging combines clusters whose
//! *spans* do not overlap, where a cluster's span in distance-to-end space is
//! the interval `[eSpan, sSpan]`:
//!
//! - `sSpan(cl)` = `distance_to_end(entry_node(cl))`
//! - `eSpan(cl)` = `distance_to_end(exit_node(cl))`
//!
//! Two clusters merge when `sSpan(cl1) < eSpan(cl2) || sSpan(cl2) <
//! eSpan(cl1)` — one finishes (in schedule potential) strictly before the
//! other starts, so a single worker can run both without serializing any
//! parallelism. [`merge_clusters_once`] is Algorithm 2 (one pass);
//! [`merge_clusters_fixpoint`] is Algorithm 3 (iterate until no merge
//! happens).
//!
//! The merged node list is kept sorted by decreasing `distance_to_end`.
//! Because distance strictly decreases along every dependence edge, this
//! order is always a valid sequential execution order for the merged
//! cluster.

use crate::types::{Cluster, Clustering};

fn s_span(c: &Cluster, dist: &[u64]) -> u64 {
    dist[c.entry()]
}

fn e_span(c: &Cluster, dist: &[u64]) -> u64 {
    dist[c.exit()]
}

fn spans_disjoint(a: &Cluster, b: &Cluster, dist: &[u64]) -> bool {
    s_span(a, dist) < e_span(b, dist) || s_span(b, dist) < e_span(a, dist)
}

pub(crate) fn union(a: &Cluster, b: &Cluster, dist: &[u64]) -> Cluster {
    let mut nodes: Vec<usize> = a.nodes.iter().chain(&b.nodes).copied().collect();
    // Decreasing distance; ties broken by node id for determinism (tied
    // nodes are never dependent, so any tie order is execution-safe).
    nodes.sort_by_key(|&n| (std::cmp::Reverse(dist[n]), n));
    Cluster::new(nodes)
}

/// Algorithm 2: one merging sweep. Returns the merged clustering and
/// whether any merge happened.
pub fn merge_clusters_once(clustering: &Clustering, dist: &[u64]) -> (Clustering, bool) {
    let clusters = &clustering.clusters;
    let k = clusters.len();
    let mut skip = vec![false; k];
    let mut merged = Vec::with_capacity(k);
    let mut merge_done = false;
    for i in 0..k {
        if skip[i] {
            continue;
        }
        let partner = (0..k)
            .find(|&j| j != i && !skip[j] && spans_disjoint(&clusters[i], &clusters[j], dist));
        match partner {
            Some(j) => {
                merged.push(union(&clusters[i], &clusters[j], dist));
                skip[i] = true;
                skip[j] = true;
                merge_done = true;
            }
            None => merged.push(clusters[i].clone()),
        }
    }
    (Clustering::new(merged), merge_done)
}

/// Algorithm 3: iterate [`merge_clusters_once`] until a fixed point.
pub fn merge_clusters_fixpoint(clustering: &Clustering, dist: &[u64]) -> Clustering {
    let mut current = clustering.clone();
    loop {
        let (next, merge_done) = merge_clusters_once(&current, dist);
        current = next;
        if !merge_done {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::StaticCost;
    use crate::distance::distance_to_end;
    use crate::lc::linear_clustering;
    use ramiel_ir::{DType, Graph, GraphBuilder, OpKind};

    /// Fire-module-style graph: repeated fork-join pairs like SqueezeNet's
    /// Fig. 5, where LC produces one long cluster and several one-node side
    /// clusters that merging should coalesce.
    fn squeeze_like(num_fires: usize) -> Graph {
        let mut b = GraphBuilder::new("squeeze-like");
        let mut t = b.input("x", DType::F32, vec![1, 8, 16, 16]);
        t = b.conv_relu(&t, 8, 8, 3, 1, 1);
        for _ in 0..num_fires {
            let sq = b.conv_relu(&t, 8, 4, 1, 1, 0);
            let e1 = b.conv_relu(&sq, 4, 4, 1, 1, 0);
            let e3 = b.conv_relu(&sq, 4, 4, 3, 1, 1);
            t = b.op("cat", OpKind::Concat { axis: 1 }, vec![e1, e3]);
        }
        b.output(&t);
        b.finish().unwrap()
    }

    #[test]
    fn merging_reduces_side_clusters() {
        let g = squeeze_like(4);
        let dist = distance_to_end(&g, &StaticCost);
        let lc = linear_clustering(&g, &dist);
        let merged = merge_clusters_fixpoint(&lc, &dist);
        assert!(lc.num_clusters() > merged.num_clusters());
        // Fig 5: side clusters C2..C4 merge into one ⇒ exactly 2 remain.
        assert_eq!(merged.num_clusters(), 2);
        merged.check_partition(&g).unwrap();
        merged.check_internal_order(&g).unwrap();
    }

    #[test]
    fn merge_preserves_partition_invariants() {
        let g = squeeze_like(6);
        let dist = distance_to_end(&g, &StaticCost);
        let lc = linear_clustering(&g, &dist);
        lc.check_partition(&g).unwrap();
        let merged = merge_clusters_fixpoint(&lc, &dist);
        merged.check_partition(&g).unwrap();
        merged.check_internal_order(&g).unwrap();
    }

    #[test]
    fn disjoint_spans_merge_overlapping_do_not() {
        // dist values chosen by hand
        let dist = vec![10, 8, 5, 4, 2];
        let a = Cluster::new(vec![0, 1]); // span [8, 10]
        let b = Cluster::new(vec![2, 3]); // span [4, 5]
        let c = Cluster::new(vec![4]); // span [2, 2]
        assert!(spans_disjoint(&a, &b, &dist)); // 5 < 8
        assert!(spans_disjoint(&b, &c, &dist));
        let overlapping = Cluster::new(vec![1, 3]); // span [4, 8]
        assert!(!spans_disjoint(&a, &overlapping, &dist)); // 8 !< 8 and 10 !< 4
    }

    #[test]
    fn union_orders_by_decreasing_distance() {
        let dist = vec![10, 8, 5, 4, 2];
        let a = Cluster::new(vec![0, 1]);
        let b = Cluster::new(vec![2, 4]);
        let u = union(&a, &b, &dist);
        assert_eq!(u.nodes, vec![0, 1, 2, 4]);
        let u2 = union(&b, &a, &dist);
        assert_eq!(u2.nodes, vec![0, 1, 2, 4]); // symmetric
    }

    #[test]
    fn fixpoint_reaches_stability() {
        let g = squeeze_like(5);
        let dist = distance_to_end(&g, &StaticCost);
        let lc = linear_clustering(&g, &dist);
        let m1 = merge_clusters_fixpoint(&lc, &dist);
        let (m2, merged_again) = merge_clusters_once(&m1, &dist);
        assert!(!merged_again);
        assert_eq!(m1, m2);
    }

    #[test]
    fn single_cluster_is_untouched() {
        let c = Clustering::new(vec![Cluster::new(vec![0, 1, 2])]);
        let dist = vec![5, 3, 1];
        let (m, done) = merge_clusters_once(&c, &dist);
        assert!(!done);
        assert_eq!(m, c);
    }
}
