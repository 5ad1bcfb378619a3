//! Property-based tests over randomly generated dataflow graphs: the
//! clustering algorithms' invariants must hold on *every* DAG, not just the
//! model zoo.

use proptest::prelude::*;
use ramiel_cluster::{
    cluster_graph, distance_to_end, hypercluster, linear_clustering, merge_clusters_fixpoint,
    switched_hypercluster, StaticCost,
};
use ramiel_models::synthetic;
use ramiel_runtime::{
    run, run_sequential, simulate_clustering, simulate_sequential, synth_inputs, RunOptions,
    SimConfig,
};
use ramiel_tensor::{ExecCtx, Value};
use std::slice::from_ref;

fn graph_strategy() -> impl Strategy<Value = ramiel_ir::Graph> {
    (any::<u64>(), 1usize..8, 1usize..6, 1usize..4).prop_map(|(seed, layers, width, lookback)| {
        synthetic::layered_random(seed, layers, width, lookback)
    })
}

/// Linear Clustering as it was before the ready heap: the same peeling
/// loop, with the next path head found by scanning every node. Kept here
/// as the reference the heap-driven picker must reproduce cluster by
/// cluster.
fn scan_linear_clustering(g: &ramiel_ir::Graph, dist: &[u64]) -> Vec<Vec<usize>> {
    use std::cmp::Reverse;
    let adj = g.adjacency();
    let n = g.num_nodes();
    let mut out_alive: Vec<Vec<bool>> = adj.succs.iter().map(|s| vec![true; s.len()]).collect();
    let mut indegree: Vec<usize> = adj.preds.iter().map(Vec::len).collect();
    let mut clustered = vec![false; n];
    let mut clusters = Vec::new();
    while let Some(head) = (0..n)
        .filter(|&i| !clustered[i] && indegree[i] == 0)
        .max_by_key(|&i| (dist[i], Reverse(i)))
    {
        let mut cluster = vec![head];
        clustered[head] = true;
        let mut cur = head;
        loop {
            let next = adj.succs[cur]
                .iter()
                .enumerate()
                .filter(|(ei, &v)| out_alive[cur][*ei] && !clustered[v])
                .map(|(_, &v)| v)
                .max_by_key(|&v| (dist[v], Reverse(v)));
            for (ei, &v) in adj.succs[cur].iter().enumerate() {
                if std::mem::take(&mut out_alive[cur][ei]) {
                    indegree[v] -= 1;
                }
            }
            let Some(s) = next else { break };
            for &p in &adj.preds[s] {
                let ei = adj.succs[p].iter().position(|&v| v == s).unwrap();
                if std::mem::take(&mut out_alive[p][ei]) {
                    indegree[s] -= 1;
                }
            }
            cluster.push(s);
            clustered[s] = true;
            cur = s;
        }
        clusters.push(cluster);
    }
    clusters
}

fn assert_heap_lc_matches_scan(g: &ramiel_ir::Graph) {
    let dist = distance_to_end(g, &StaticCost);
    let heap: Vec<Vec<usize>> = linear_clustering(g, &dist)
        .clusters
        .into_iter()
        .map(|c| c.nodes)
        .collect();
    assert_eq!(heap, scan_linear_clustering(g, &dist), "{}", g.name);
}

/// The eight zoo graphs at full size (NASNet peels 337 paths off 1356
/// nodes): the heap picks the path heads the scan picked.
#[test]
fn heap_lc_matches_scan_on_the_full_size_zoo() {
    use ramiel_models::{build, ModelConfig, ModelKind};
    for kind in ModelKind::all() {
        assert_heap_lc_matches_scan(&build(kind, &ModelConfig::full()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ready heap changes how the next path head is found, not which
    /// one: clusterings are identical to the scan-based picker's.
    #[test]
    fn heap_lc_matches_scan(g in graph_strategy()) {
        assert_heap_lc_matches_scan(&g);
    }

    /// Algorithm 1's contract: clusters partition the node set and every
    /// cluster is a linear path of the graph.
    #[test]
    fn lc_produces_a_partition_of_linear_paths(g in graph_strategy()) {
        let dist = distance_to_end(&g, &StaticCost);
        let lc = linear_clustering(&g, &dist);
        lc.check_partition(&g).unwrap();
        lc.check_internal_order(&g).unwrap();
        let adj = g.adjacency();
        for cl in &lc.clusters {
            for w in cl.nodes.windows(2) {
                prop_assert!(adj.succs[w[0]].contains(&w[1]), "not a path edge: {w:?}");
            }
        }
    }

    /// Algorithms 2–3: merging preserves the partition, never increases the
    /// cluster count, keeps execution order valid, and reaches a fixpoint.
    #[test]
    fn merging_preserves_partition_and_reaches_fixpoint(g in graph_strategy()) {
        let dist = distance_to_end(&g, &StaticCost);
        let lc = linear_clustering(&g, &dist);
        let merged = merge_clusters_fixpoint(&lc, &dist);
        merged.check_partition(&g).unwrap();
        merged.check_internal_order(&g).unwrap();
        prop_assert!(merged.num_clusters() <= lc.num_clusters());
        let (again, changed) = ramiel_cluster::merge_clusters_once(&merged, &dist);
        prop_assert!(!changed);
        prop_assert_eq!(again, merged);
    }

    /// The distance pass is a strict potential: it decreases along every
    /// dependence edge by at least cost + edge weight.
    #[test]
    fn distance_is_a_strict_potential(g in graph_strategy()) {
        let dist = distance_to_end(&g, &StaticCost);
        let adj = g.adjacency();
        for u in 0..g.num_nodes() {
            for &v in &adj.succs[u] {
                prop_assert!(dist[u] > dist[v]);
            }
        }
    }

    /// Parallel execution over the merged clustering computes exactly what
    /// the sequential interpreter computes.
    #[test]
    fn parallel_equals_sequential(g in graph_strategy(), seed in any::<u64>()) {
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, seed);
        let ctx = ExecCtx::sequential();
        let seq = run_sequential(&g, &inputs, &ctx).unwrap();
        let par = run(&g, &clustering, from_ref(&inputs), &ctx, &RunOptions::default())
            .single()
            .unwrap();
        prop_assert_eq!(seq.len(), par.len());
        for (k, va) in &seq {
            match (va, &par[k]) {
                (Value::F32(x), Value::F32(y)) => {
                    prop_assert_eq!(x.shape(), y.shape());
                    for (p, q) in x.data().iter().zip(y.data()) {
                        prop_assert!(
                            (p.is_nan() && q.is_nan())
                                || p == q
                                || (p - q).abs() <= 1e-4 * p.abs().max(1.0)
                        );
                    }
                }
                (va, vb) => prop_assert_eq!(va, vb),
            }
        }
    }

    /// The simulator conserves work: total busy time equals the sequential
    /// cost, and the makespan is bounded by it on both sides.
    #[test]
    fn simulator_conserves_work(g in graph_strategy()) {
        let clustering = cluster_graph(&g, &StaticCost);
        let sim = simulate_clustering(&g, &clustering, &StaticCost, &SimConfig::default()).unwrap();
        let seq = simulate_sequential(&g, &StaticCost, 1);
        prop_assert_eq!(sim.busy.iter().sum::<u64>(), seq);
        prop_assert!(sim.makespan <= seq + g.num_edges() as u64);
        // makespan at least the critical path over the clustering
        let max_busy = *sim.busy.iter().max().unwrap();
        prop_assert!(sim.makespan >= max_busy);
    }

    /// Hyperclusterings cover every (batch, node) pair exactly once, for
    /// both variants and arbitrary batch sizes.
    #[test]
    fn hyperclusters_cover_every_sample(g in graph_strategy(), batch in 1usize..6) {
        let clustering = cluster_graph(&g, &StaticCost);
        hypercluster(&clustering, batch).check_coverage(g.num_nodes()).unwrap();
        switched_hypercluster(&clustering, batch).check_coverage(g.num_nodes()).unwrap();
    }

    /// Pruning + cloning keep graphs valid and semantics intact on random
    /// DAGs.
    #[test]
    fn passes_preserve_semantics(g in graph_strategy(), seed in any::<u64>()) {
        let inputs = synth_inputs(&g, seed);
        let ctx = ExecCtx::sequential();
        let baseline = run_sequential(&g, &inputs, &ctx).unwrap();

        let mut optimized = g.clone();
        ramiel_passes::prune(&mut optimized).unwrap();
        ramiel_passes::clone_nodes(
            &mut optimized,
            &StaticCost,
            &ramiel_passes::CloneConfig::default(),
        )
        .unwrap();
        ramiel_ir::validate::validate(&optimized).unwrap();
        let after = run_sequential(&optimized, &inputs, &ctx).unwrap();
        for (k, va) in &baseline {
            match (va, &after[k]) {
                (Value::F32(x), Value::F32(y)) => {
                    for (p, q) in x.data().iter().zip(y.data()) {
                        prop_assert!(
                            (p.is_nan() && q.is_nan())
                                || p == q
                                || (p - q).abs() <= 1e-4 * p.abs().max(1.0)
                        );
                    }
                }
                (va, vb) => prop_assert_eq!(va, vb),
            }
        }
    }
}
