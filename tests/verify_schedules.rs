//! Property + golden tests for the static schedule verifier.
//!
//! Property side: every schedule the pipeline can legitimately produce over
//! random DAGs — linear clustering, LC + merging, post-pass clusterings, and
//! both hypercluster variants — must verify with zero errors. Golden side:
//! hand-corrupted schedules must be rejected with the *specific* diagnostic
//! codes documented in `ramiel::verify::codes`; these are regression tests
//! for violation classes that previously surfaced only as a runtime recv
//! timeout (or not at all).

use proptest::prelude::*;
use ramiel::verify::{analyze, codes, verify, ExecPolicy, ScheduleView, Severity};
use ramiel_cluster::{
    bound_clusters, cluster_graph, clustering_view, distance_to_end, hyper_view, hypercluster,
    linear_clustering, merge_clusters_fixpoint, switched_hypercluster, CostModel, StaticCost,
};
use ramiel_ir::{DType, Graph, GraphBuilder, OpKind};
use ramiel_models::{build, synthetic, ModelConfig, ModelKind};

fn graph_strategy() -> impl Strategy<Value = Graph> {
    (any::<u64>(), 1usize..8, 1usize..6, 1usize..4).prop_map(|(seed, layers, width, lookback)| {
        synthetic::layered_random(seed, layers, width, lookback)
    })
}

/// Codes of error-severity findings, for readable failure messages.
fn error_codes(graph: &Graph, view: &ScheduleView) -> Vec<&'static str> {
    let report = verify(graph, Some(view));
    report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code)
        .collect()
}

fn has_code(graph: &Graph, view: &ScheduleView, code: &str) -> bool {
    verify(graph, Some(view))
        .diagnostics
        .iter()
        .any(|d| d.code == code)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Raw linear clustering, the merged fixpoint and its fold to `p`
    /// clusters all verify clean.
    #[test]
    fn lc_and_merged_verify_error_free(g in graph_strategy(), p in 1usize..5) {
        let dist = distance_to_end(&g, &StaticCost);
        let lc = linear_clustering(&g, &dist);
        prop_assert_eq!(error_codes(&g, &clustering_view(&lc)), Vec::<&str>::new());
        let merged = merge_clusters_fixpoint(&lc, &dist);
        prop_assert_eq!(error_codes(&g, &clustering_view(&merged)), Vec::<&str>::new());
        let folded = bound_clusters(&merged, &dist, &node_costs(&g), p);
        prop_assert!(folded.num_clusters() <= p);
        prop_assert_eq!(error_codes(&g, &clustering_view(&folded)), Vec::<&str>::new());
    }

    /// Clusterings over pruned + cloned graphs verify clean too — the passes
    /// must not manufacture schedules the verifier rejects.
    #[test]
    fn post_pass_clusterings_verify_error_free(g in graph_strategy()) {
        let mut g = g;
        ramiel_passes::prune(&mut g).unwrap();
        ramiel_passes::clone_nodes(
            &mut g,
            &StaticCost,
            &ramiel_passes::CloneConfig::default(),
        )
        .unwrap();
        let clustering = cluster_graph(&g, &StaticCost);
        prop_assert_eq!(error_codes(&g, &clustering_view(&clustering)), Vec::<&str>::new());
    }

    /// Plain and switched hyperclusterings verify clean for every batch size.
    #[test]
    fn hyper_views_verify_error_free(g in graph_strategy(), batch in 2usize..6) {
        let clustering = cluster_graph(&g, &StaticCost);
        let plain = hypercluster(&clustering, batch);
        prop_assert_eq!(error_codes(&g, &hyper_view(&plain)), Vec::<&str>::new());
        let switched = switched_hypercluster(&clustering, batch);
        prop_assert_eq!(error_codes(&g, &hyper_view(&switched)), Vec::<&str>::new());
    }
}

fn node_costs(g: &Graph) -> Vec<u64> {
    g.nodes.iter().map(|n| StaticCost.node_cost(g, n)).collect()
}

/// The fold `serve` applies, on every zoo model at full size and a range of
/// core counts: a valid, deadlock-free partition of at most `p` clusters
/// whose analysis (memory estimate, channel capacity) finds no error and a
/// non-zero peak; a clustering already within the budget comes back as it
/// was; and BERT's critical-path cluster is never folded into another.
#[test]
fn folded_zoo_clusterings_verify_within_budget() {
    for kind in ModelKind::all() {
        let g = build(kind, &ModelConfig::full());
        let dist = distance_to_end(&g, &StaticCost);
        let merged = merge_clusters_fixpoint(&linear_clustering(&g, &dist), &dist);
        let cost = node_costs(&g);
        let cp_entry = (0..g.num_nodes()).max_by_key(|&n| (dist[n], std::cmp::Reverse(n)));
        let cp_cluster = |c: &ramiel_cluster::Clustering| {
            c.clusters
                .iter()
                .find(|c| c.nodes.contains(&cp_entry.unwrap()))
                .cloned()
        };
        for p in [1, 2, 3, 4, 8] {
            let folded = bound_clusters(&merged, &dist, &cost, p);
            let at = format!("{} at p = {p}", kind.name());
            assert!(folded.num_clusters() <= p, "{at}");
            folded.check_partition(&g).expect(&at);
            folded.check_internal_order(&g).expect(&at);
            let view = clustering_view(&folded);
            assert_eq!(error_codes(&g, &view), Vec::<&str>::new(), "{at}");
            let a = analyze(&g, &view);
            assert!(!a.report.has_errors(), "{at}: {}", a.report.render());
            assert!(a.memory.peak_bytes > 0, "{at}");
            if merged.num_clusters() <= p {
                assert_eq!(folded, merged, "{at}");
            }
            if kind == ModelKind::Bert && p >= 2 {
                assert_eq!(cp_cluster(&folded), cp_cluster(&merged), "{at}");
            }
        }
    }
    // SqueezeNet merges to two clusters: no budget of two or more folds it.
    let g = build(ModelKind::Squeezenet, &ModelConfig::full());
    assert_eq!(cluster_graph(&g, &StaticCost).num_clusters(), 2);
}

// ---- golden corruption tests ------------------------------------------------

/// in → a → {p, q} → j, node ids 0..=3.
fn diamond() -> Graph {
    let mut b = GraphBuilder::new("diamond");
    let x = b.input("x", DType::F32, vec![4]);
    let a = b.op("a", OpKind::Relu, vec![x]);
    let p = b.op("p", OpKind::Relu, vec![a.clone()]);
    let q = b.op("q", OpKind::Relu, vec![a]);
    let j = b.op("j", OpKind::Add, vec![p, q]);
    b.output(&j);
    b.finish().unwrap()
}

#[test]
fn swapped_in_cluster_order_is_rejected() {
    let g = diamond();
    // j scheduled before its operand p on the same worker: order violation,
    // schedule-graph cycle, and a provable execution stall, each with its own
    // code so the report names the bug three complementary ways.
    let v = ScheduleView::single_batch(vec![vec![0, 3, 1], vec![2]], ExecPolicy::InOrder);
    for code in [
        codes::ORDER_VIOLATION,
        codes::SCHEDULE_CYCLE,
        codes::CHANNEL_DEADLOCK,
    ] {
        assert!(has_code(&g, &v, code), "expected {code}");
    }
}

#[test]
fn cross_cluster_wait_cycle_is_rejected() {
    let g = diamond();
    // Worker 0 runs p then waits for q's consumer output; worker 1 runs j
    // (needs p AND q) before q — the two workers wait on each other.
    let v = ScheduleView::single_batch(vec![vec![0, 1], vec![3, 2]], ExecPolicy::InOrder);
    assert!(has_code(&g, &v, codes::SCHEDULE_CYCLE));
    assert!(has_code(&g, &v, codes::CHANNEL_DEADLOCK));
}

#[test]
fn missing_and_duplicate_nodes_are_rejected() {
    let g = diamond();
    let missing = ScheduleView::single_batch(vec![vec![0, 1, 3]], ExecPolicy::InOrder);
    assert!(has_code(&g, &missing, codes::OP_MISSING));

    let duplicated =
        ScheduleView::single_batch(vec![vec![0, 1, 2], vec![2, 3]], ExecPolicy::InOrder);
    assert!(has_code(&g, &duplicated, codes::OP_DUPLICATE));

    let unknown = ScheduleView::single_batch(vec![vec![0, 1, 2, 3, 9]], ExecPolicy::InOrder);
    assert!(has_code(&g, &unknown, codes::OP_UNKNOWN));
}

#[test]
fn coverage_errors_gate_deeper_checks() {
    let g = diamond();
    // Missing node 2 also breaks j's operands, but the verifier must report
    // the root cause (coverage) without cascading cycle/deadlock noise.
    let v = ScheduleView::single_batch(vec![vec![0, 1, 3]], ExecPolicy::InOrder);
    let report = verify(&g, Some(&v));
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == codes::OP_MISSING));
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.code != codes::CHANNEL_DEADLOCK && d.code != codes::SCHEDULE_CYCLE));
}

#[test]
fn valid_handwritten_schedule_passes() {
    let g = diamond();
    let v = ScheduleView::single_batch(vec![vec![0, 1, 3], vec![2]], ExecPolicy::InOrder);
    let report = verify(&g, Some(&v));
    assert!(
        !report.has_errors(),
        "unexpected errors:\n{}",
        report.render()
    );
}
