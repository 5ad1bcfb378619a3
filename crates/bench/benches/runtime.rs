//! Criterion bench: real execution, sequential vs clustered-parallel
//! (Tables IV–VI).
//!
//! Note the host caveat recorded in EXPERIMENTS.md: on a single-core
//! container the parallel executor pays thread/message overhead with no
//! parallel hardware underneath, so the *measured* ratios here are the
//! overhead story; the speedup shape lives in the simulator benches and the
//! `tables` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ramiel::{schedule, PipelineOptions};
use ramiel_cluster::{hypercluster, StaticCost};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{
    run, run_sequential, simulate_clustering, synth_inputs, HyperPool, PlannedBatch, RunOptions,
    SimConfig,
};
use ramiel_tensor::ExecCtx;
use std::hint::black_box;
use std::slice::from_ref;
use std::sync::Arc;

/// Table IV models kept to the quicker half so the bench suite stays snappy;
/// the `tables` binary covers all eight.
const MODELS: [ModelKind; 4] = [
    ModelKind::Squeezenet,
    ModelKind::Googlenet,
    ModelKind::InceptionV3,
    ModelKind::YoloV5,
];

fn bench_sequential_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("table4_sequential");
    group.sample_size(10);
    for kind in MODELS {
        let compiled = schedule(
            build(kind, &ModelConfig::full()),
            &PipelineOptions::default(),
        )
        .expect("pipeline");
        let inputs = synth_inputs(&compiled.graph, 42);
        let ctx = ExecCtx::sequential();
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &compiled,
            |b, c| {
                b.iter(|| run_sequential(black_box(&c.graph), &inputs, &ctx).expect("seq"));
            },
        );
    }
    group.finish();
}

fn bench_parallel_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("table4_parallel");
    group.sample_size(10);
    for kind in MODELS {
        let compiled = schedule(
            build(kind, &ModelConfig::full()),
            &PipelineOptions::default(),
        )
        .expect("pipeline");
        let inputs = synth_inputs(&compiled.graph, 42);
        let ctx = ExecCtx::sequential();
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &compiled,
            |b, c| {
                b.iter(|| {
                    run(
                        black_box(&c.graph),
                        &c.clustering,
                        from_ref(&inputs),
                        &ctx,
                        &RunOptions::default(),
                    )
                    .single()
                    .expect("par")
                });
            },
        );
    }
    group.finish();
}

fn bench_intra_op(c: &mut Criterion) {
    // Table V: the intra-op knob (rayon pool size) on one conv-heavy model.
    let mut group = c.benchmark_group("table5_intra_op");
    group.sample_size(10);
    let compiled = schedule(
        build(ModelKind::InceptionV3, &ModelConfig::full()),
        &PipelineOptions::default(),
    )
    .expect("pipeline");
    let inputs = synth_inputs(&compiled.graph, 42);
    for threads in [1usize, 2, 4] {
        let ctx = ExecCtx::with_intra_op(threads);
        group.bench_with_input(BenchmarkId::new("sequential", threads), &threads, |b, _| {
            b.iter(|| run_sequential(&compiled.graph, &inputs, &ctx).expect("seq"));
        });
    }
    group.finish();
}

fn bench_pruned_execution(c: &mut Criterion) {
    // Table VI: LC vs LC+DCE on the prunable models (real execution).
    let mut group = c.benchmark_group("table6_lc_dce");
    group.sample_size(10);
    for kind in [ModelKind::YoloV5, ModelKind::Bert] {
        for (label, prune) in [("lc", false), ("lc_dce", true)] {
            let compiled = schedule(
                build(kind, &ModelConfig::full()),
                &PipelineOptions {
                    prune,
                    ..Default::default()
                },
            )
            .expect("pipeline");
            let inputs = synth_inputs(&compiled.graph, 42);
            let ctx = ExecCtx::sequential();
            group.bench_with_input(BenchmarkId::new(label, kind.name()), &compiled, |b, c| {
                b.iter(|| {
                    run(
                        &c.graph,
                        &c.clustering,
                        from_ref(&inputs),
                        &ctx,
                        &RunOptions::default(),
                    )
                    .single()
                    .expect("par")
                });
            });
        }
    }
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    // The simulator itself must stay cheap — it is run inside every table.
    let mut group = c.benchmark_group("simulator");
    for kind in [ModelKind::Squeezenet, ModelKind::NasNet] {
        let compiled = schedule(
            build(kind, &ModelConfig::full()),
            &PipelineOptions::default(),
        )
        .expect("pipeline");
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &compiled,
            |b, c| {
                b.iter(|| {
                    simulate_clustering(
                        black_box(&c.graph),
                        &c.clustering,
                        &StaticCost,
                        &SimConfig::default(),
                    )
                    .expect("sim")
                });
            },
        );
    }
    group.finish();
}

fn bench_pool_vs_spawn(c: &mut Criterion) {
    // serving-shape ablation: a standing batch-1 HyperPool (the paper's
    // long-lived processes) vs the same pool spawned per inference
    let compiled = schedule(
        build(ModelKind::Squeezenet, &ModelConfig::full()),
        &PipelineOptions::default(),
    )
    .expect("pipeline");
    let inputs = synth_inputs(&compiled.graph, 42);
    let ctx = ExecCtx::sequential();
    let mut group = c.benchmark_group("pool_vs_spawn");
    group.sample_size(20);
    group.bench_function("spawn_per_inference", |b| {
        b.iter(|| {
            run(
                &compiled.graph,
                &compiled.clustering,
                from_ref(&inputs),
                &ctx,
                &RunOptions::default(),
            )
            .single()
            .expect("par")
        });
    });
    let plan = PlannedBatch::new(&compiled.graph, hypercluster(&compiled.clustering, 1))
        .map(Arc::new)
        .expect("plan");
    let mut pool = HyperPool::new(&compiled.graph, plan.num_workers(), &ctx).expect("pool");
    let one = Arc::new(vec![inputs.clone()]);
    group.bench_function("standing_pool", |b| {
        b.iter(|| pool.run_batch(&plan, &one).expect("pool run"));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sequential_execution,
    bench_parallel_execution,
    bench_intra_op,
    bench_pruned_execution,
    bench_simulator,
    bench_pool_vs_spawn
);
criterion_main!(benches);
