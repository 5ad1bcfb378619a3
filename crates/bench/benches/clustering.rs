//! Criterion bench: the clustering pipeline itself (Tables I–III).
//!
//! Measures the paper's *compile-side* passes — distance computation,
//! Linear Clustering (Alg. 1), merging (Algs. 2–3) and the parallelism
//! report — on every model, plus the pruning passes on the three models
//! that carry constant subgraphs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ramiel_cluster::{
    cluster_graph, distance_to_end, linear_clustering, merge_clusters_fixpoint, parallelism_report,
    StaticCost,
};
use ramiel_models::{build, ModelConfig, ModelKind};
use std::hint::black_box;

fn bench_distance_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_pass");
    for kind in [ModelKind::Squeezenet, ModelKind::Bert, ModelKind::NasNet] {
        let g = build(kind, &ModelConfig::full());
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &g, |b, g| {
            b.iter(|| distance_to_end(black_box(g), &StaticCost));
        });
    }
    group.finish();
}

fn bench_linear_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("linear_clustering");
    for kind in ModelKind::all() {
        let g = build(kind, &ModelConfig::full());
        let dist = distance_to_end(&g, &StaticCost);
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &(&g, &dist),
            |b, (g, dist)| {
                b.iter(|| linear_clustering(black_box(g), black_box(dist)));
            },
        );
    }
    group.finish();
}

fn bench_cluster_merging(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_merging");
    for kind in [ModelKind::Googlenet, ModelKind::NasNet] {
        let g = build(kind, &ModelConfig::full());
        let dist = distance_to_end(&g, &StaticCost);
        let lc = linear_clustering(&g, &dist);
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &(&lc, &dist),
            |b, (lc, dist)| {
                b.iter(|| merge_clusters_fixpoint(black_box(lc), black_box(dist)));
            },
        );
    }
    group.finish();
}

fn bench_parallelism_report(c: &mut Criterion) {
    let g = build(ModelKind::InceptionV4, &ModelConfig::full());
    c.bench_function("parallelism_report/inception_v4", |b| {
        b.iter(|| parallelism_report(black_box(&g), &StaticCost));
    });
}

fn bench_full_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_graph_end_to_end");
    for kind in [ModelKind::Squeezenet, ModelKind::NasNet] {
        let g = build(kind, &ModelConfig::full());
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &g, |b, g| {
            b.iter(|| cluster_graph(black_box(g), &StaticCost));
        });
    }
    group.finish();
}

fn bench_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("constprop_dce");
    group.sample_size(10);
    for kind in [ModelKind::YoloV5, ModelKind::Bert, ModelKind::NasNet] {
        let g = build(kind, &ModelConfig::full());
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &g, |b, g| {
            b.iter(|| {
                let mut g = g.clone();
                ramiel_passes::prune(&mut g).expect("prune succeeds");
                g
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_distance_pass,
    bench_linear_clustering,
    bench_cluster_merging,
    bench_parallelism_report,
    bench_full_clustering,
    bench_pruning
);
criterion_main!(benches);
