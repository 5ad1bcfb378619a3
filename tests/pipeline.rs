//! Cross-crate integration tests: the full Ramiel pipeline on every model,
//! checking structural invariants after each stage.

use ramiel::obs::Obs;
use ramiel::{schedule, HyperMode, PipelineOptions};
use ramiel_cluster::StaticCost;
use ramiel_ir::validate::validate;
use ramiel_models::{build, ModelConfig, ModelKind};

#[test]
fn pipeline_invariants_hold_for_every_model() {
    let cfg = ModelConfig::tiny();
    for kind in ModelKind::all() {
        let g = build(kind, &cfg);
        let c = schedule(g, &PipelineOptions::all_optimizations())
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        validate(&c.graph).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        c.clustering
            .check_partition(&c.graph)
            .unwrap_or_else(|e| panic!("{}: partition: {e}", kind.name()));
        c.clustering
            .check_internal_order(&c.graph)
            .unwrap_or_else(|e| panic!("{}: order: {e}", kind.name()));
        assert!(
            c.report.clusters_after_merge <= c.report.clusters_before_merge,
            "{}: merging must not increase cluster count",
            kind.name()
        );
    }
}

#[test]
fn full_scale_pipeline_on_all_models() {
    // Paper-faithful topology (full block counts); pipeline only, no
    // execution, so this stays fast even for 1400-node NASNet.
    let cfg = ModelConfig::full();
    for kind in ModelKind::all() {
        let g = build(kind, &cfg);
        let nodes = g.num_nodes();
        let c = schedule(g, &PipelineOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert_eq!(c.report.nodes_before, nodes);
        assert!(c.report.clusters_after_merge >= 1);
        // generated code mentions every cluster
        let code = c.emit(&Obs::disabled());
        for ci in 0..c.report.clusters_after_merge {
            assert!(
                code.parallel.contains(&format!("def cluster_{ci}(")),
                "{}: missing cluster {ci} in codegen",
                kind.name()
            );
        }
    }
}

/// `schedule` reads its report off the adjacency and distance table it
/// already holds; the numbers are the standalone helpers' numbers.
#[test]
fn schedule_report_equals_the_standalone_helpers() {
    let cfg = ModelConfig::full();
    for kind in ModelKind::all() {
        for opts in [
            PipelineOptions::default(),
            PipelineOptions::all_optimizations(),
        ] {
            let s = schedule(build(kind, &cfg), &opts).unwrap();
            let standalone = ramiel_cluster::parallelism_report(&s.graph, &StaticCost);
            let got = &s.report.parallelism;
            let tag = format!("{} (prune {})", kind.name(), opts.prune);
            assert_eq!(got.model, standalone.model, "{tag}");
            assert_eq!(got.num_nodes, standalone.num_nodes, "{tag}");
            assert_eq!(got.num_edges, standalone.num_edges, "{tag}");
            assert_eq!(got.total_node_cost, standalone.total_node_cost, "{tag}");
            assert_eq!(
                got.critical_path_cost, standalone.critical_path_cost,
                "{tag}"
            );
            assert_eq!(got.parallelism, standalone.parallelism, "{tag}");
            assert_eq!(
                got.critical_path_cost,
                ramiel_cluster::critical_path(&s.graph, &StaticCost).1,
                "{tag}"
            );
            assert_eq!(
                s.report.cross_cluster_edges,
                s.clustering.cross_cluster_edges(&s.graph),
                "{tag}"
            );
            assert_eq!(
                s.report.clusters_after_merge,
                s.clustering.num_clusters(),
                "{tag}"
            );
        }
    }
}

/// Compiling is `schedule` then `emit`, and the modules follow the schedule
/// they were emitted from: one `def cluster_i(` per cluster, and a hyper
/// module exactly when the schedule is hyperclustered.
#[test]
fn compile_extends_schedule() {
    let g = build(ModelKind::Googlenet, &ModelConfig::tiny());
    for (batch, hyper) in [(1, HyperMode::Off), (2, HyperMode::Plain)] {
        let opts = PipelineOptions {
            batch,
            hyper,
            ..PipelineOptions::all_optimizations()
        };
        let s = schedule(g.clone(), &opts).unwrap();
        let code = s.emit(&Obs::disabled());
        let n = s.clustering.num_clusters();
        for ci in 0..=n {
            let def = format!("def cluster_{ci}(");
            assert_eq!(code.parallel.contains(&def), ci < n, "batch {batch}: {def}");
        }
        assert_eq!(s.hyper.is_some(), batch > 1);
        assert_eq!(code.hyper.is_some(), s.hyper.is_some());
    }
}

#[test]
fn pruning_then_clustering_reduces_both_nodes_and_clusters_on_yolo() {
    let cfg = ModelConfig::full();
    let plain = schedule(build(ModelKind::YoloV5, &cfg), &PipelineOptions::default()).unwrap();
    let pruned = schedule(
        build(ModelKind::YoloV5, &cfg),
        &PipelineOptions {
            prune: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(pruned.graph.num_nodes() < plain.graph.num_nodes());
    assert!(pruned.report.clusters_after_merge <= plain.report.clusters_after_merge);
}

#[test]
fn hyperclustering_covers_all_batch_elements() {
    let cfg = ModelConfig::tiny();
    for batch in [2usize, 4, 8, 12] {
        for mode in [HyperMode::Plain, HyperMode::Switched] {
            let c = schedule(
                build(ModelKind::Squeezenet, &cfg),
                &PipelineOptions {
                    batch,
                    hyper: mode,
                    ..Default::default()
                },
            )
            .unwrap();
            let hc = c.hyper.expect("hyperclustering on");
            hc.check_coverage(c.graph.num_nodes())
                .unwrap_or_else(|e| panic!("batch {batch} {mode:?}: {e}"));
        }
    }
}

/// Dominant Sequence Clustering, the comparison algorithm the
/// clustering-strategy ablation runs, partitions every zoo model into
/// valid, verifiable clusters that execute.
#[test]
fn dsc_scheduler_is_a_valid_alternative() {
    use ramiel_cluster::{clustering_view, dsc_clustering};
    use ramiel_runtime::{run, run_sequential, synth_inputs, RunOptions};
    use ramiel_tensor::ExecCtx;
    use std::slice::from_ref;
    let cfg = ModelConfig::tiny();
    for kind in ModelKind::all() {
        let g = build(kind, &cfg);
        let c = dsc_clustering(&g, &StaticCost);
        c.check_partition(&g)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        c.check_internal_order(&g)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        let report = ramiel::verify::verify(&g, Some(&clustering_view(&c)));
        assert!(
            !report.has_errors(),
            "{}:\n{}",
            kind.name(),
            report.render()
        );
    }
    // DSC schedules execute correctly too
    let g = build(ModelKind::Googlenet, &cfg);
    let c = dsc_clustering(&g, &StaticCost);
    let inputs = synth_inputs(&g, 77);
    let ctx = ExecCtx::sequential();
    let seq = run_sequential(&g, &inputs, &ctx).unwrap();
    let par = run(&g, &c, from_ref(&inputs), &ctx, &RunOptions::default())
        .single()
        .unwrap();
    assert_eq!(
        seq.keys().collect::<Vec<_>>(),
        par.keys().collect::<Vec<_>>()
    );
}

#[test]
fn compile_is_deterministic() {
    let cfg = ModelConfig::tiny();
    for kind in [ModelKind::Squeezenet, ModelKind::NasNet, ModelKind::Bert] {
        let c1 = schedule(build(kind, &cfg), &PipelineOptions::all_optimizations()).unwrap();
        let c2 = schedule(build(kind, &cfg), &PipelineOptions::all_optimizations()).unwrap();
        assert_eq!(c1.clustering, c2.clustering, "{}", kind.name());
        assert_eq!(
            c1.emit(&Obs::disabled()).parallel,
            c2.emit(&Obs::disabled()).parallel,
            "{}",
            kind.name()
        );
        assert_eq!(c1.distances, c2.distances, "{}", kind.name());
    }
}

#[test]
fn cluster_counts_shrink_like_table_ii() {
    // Table II: merging collapses cluster counts dramatically (9→2 for
    // SqueezeNet, 30→4 GoogleNet, 76→5 BERT, 244→67 NASNet). Exact values
    // depend on the export; we check the qualitative collapse (≥2x).
    let cfg = ModelConfig::full();
    for kind in [
        ModelKind::Squeezenet,
        ModelKind::Googlenet,
        ModelKind::InceptionV3,
        ModelKind::Bert,
        ModelKind::NasNet,
    ] {
        let c = schedule(build(kind, &cfg), &PipelineOptions::default()).unwrap();
        assert!(
            c.report.clusters_after_merge * 2 <= c.report.clusters_before_merge,
            "{}: {} → {} is not a ≥2x reduction",
            kind.name(),
            c.report.clusters_before_merge,
            c.report.clusters_after_merge
        );
    }
}

#[test]
fn distance_strictly_decreases_along_edges_for_all_models() {
    let cfg = ModelConfig::tiny();
    for kind in ModelKind::all() {
        let g = build(kind, &cfg);
        let dist = ramiel_cluster::distance_to_end(&g, &StaticCost);
        let adj = g.adjacency();
        for u in 0..g.num_nodes() {
            for &v in &adj.succs[u] {
                assert!(dist[u] > dist[v], "{}: {u}->{v}", kind.name());
            }
        }
    }
}
