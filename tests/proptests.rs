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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
