//! A processor budget on the merged clustering: fold it to at most `p`
//! clusters.
//!
//! The paper's merge (Algorithms 2–3) only joins clusters whose spans are
//! disjoint, so it keeps one cluster per path that can run concurrently with
//! the others — NASNet keeps 9 — however many cores will run them. A
//! standing executor gives each cluster its own worker, so past the core
//! count the workers time-share the cores and every cross-cluster message
//! pays a context switch: the paper's scheduling-overhead cliff.
//!
//! [`bound_clusters`] maps the merged clusters onto `p` processors by
//! Graham's longest-processing-time list scheduling: clusters in decreasing
//! cost, each onto the processor with the least cost so far. After the
//! merge fixpoint every pair of clusters overlaps in distance-to-end, so no
//! pairing is free and what is left to choose is the balance. The cluster
//! holding the critical path is the heaviest on every zoo model, so it
//! takes the first processor and gets company only while that processor is
//! the least loaded: on BERT (3 clusters onto 2) it stays alone.
//!
//! Each processor's clusters are combined with [`crate::merge`]'s union,
//! which keeps the nodes in decreasing-distance order. Every cluster is then
//! a subsequence of one global order that respects every dependence edge,
//! so each is a valid sequential order and the clusters cannot wait on each
//! other in a cycle.

use crate::merge::union;
use crate::types::{Cluster, Clustering};

/// Fold `clustering` to at most `p` clusters (`p = 0` counts as 1). `dist`
/// is the distance-to-end table the clustering was built over and `cost`
/// each node's cost; a clustering already within the budget comes back
/// unchanged.
pub fn bound_clusters(clustering: &Clustering, dist: &[u64], cost: &[u64], p: usize) -> Clustering {
    let p = p.max(1);
    if clustering.num_clusters() <= p {
        return clustering.clone();
    }
    let weight: Vec<u64> = clustering
        .clusters
        .iter()
        .map(|c| c.nodes.iter().map(|&n| cost[n]).sum())
        .collect();
    let mut longest_first: Vec<usize> = (0..weight.len()).collect();
    longest_first.sort_by_key(|&i| (std::cmp::Reverse(weight[i]), i));
    let mut load = vec![0u64; p];
    let mut bins: Vec<Option<Cluster>> = vec![None; p];
    for i in longest_first {
        let b = (0..p)
            .min_by_key(|&b| (load[b], b))
            .expect("p >= 1 processors");
        let c = &clustering.clusters[i];
        load[b] += weight[i];
        bins[b] = Some(match bins[b].take() {
            None => c.clone(),
            Some(bin) => union(&bin, c, dist),
        });
    }
    Clustering::new(bins.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustering(clusters: &[&[usize]]) -> Clustering {
        Clustering::new(clusters.iter().map(|c| Cluster::new(c.to_vec())).collect())
    }

    #[test]
    fn within_budget_is_unchanged() {
        let c = clustering(&[&[0, 1], &[2]]);
        let dist = [9, 5, 4];
        assert_eq!(bound_clusters(&c, &dist, &[1; 3], 2), c);
        assert_eq!(bound_clusters(&c, &dist, &[1; 3], 8), c);
    }

    #[test]
    fn heaviest_first_onto_the_least_loaded_processor() {
        // Cluster costs 6, 3, 2, 2 (node 0 is worth 4).
        let dist = [10, 6, 1, 8, 4, 7, 2, 3, 1];
        let cost = [4, 1, 1, 2, 1, 1, 1, 1, 1];
        let c = clustering(&[&[0, 1, 2], &[3, 4], &[5, 6], &[7, 8]]);
        // 6 | 3 | 2, then the last 2 joins the 2: loads 6, 3, 4.
        let three = bound_clusters(&c, &dist, &cost, 3);
        assert_eq!(three, clustering(&[&[0, 1, 2], &[3, 4], &[5, 7, 6, 8]]));
        // 6 | 3, then 2 and 2 both land beside the 3: loads 6, 7.
        let two = bound_clusters(&c, &dist, &cost, 2);
        assert_eq!(two, clustering(&[&[0, 1, 2], &[3, 5, 4, 7, 6, 8]]));
        let one = bound_clusters(&c, &dist, &cost, 1);
        assert_eq!(one, clustering(&[&[0, 3, 5, 1, 4, 7, 6, 2, 8]]));
        assert_eq!(bound_clusters(&c, &dist, &cost, 0), one);
    }

    #[test]
    fn a_light_critical_path_takes_company() {
        // The critical path (node 0 first) costs 3 and the side clusters 2
        // each, so the path's processor is the least loaded in its turn.
        let dist = [10, 6, 1, 8, 4, 7, 2, 3, 1];
        let c = clustering(&[&[0, 1, 2], &[3, 4], &[5, 6], &[7, 8]]);
        let two = bound_clusters(&c, &dist, &[1; 9], 2);
        assert_eq!(two, clustering(&[&[0, 1, 7, 2, 8], &[3, 5, 4, 6]]));
    }
}
