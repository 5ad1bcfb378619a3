//! Criterion bench: hyperclustering (Figs. 13–14).
//!
//! Measures batched execution through plain and switched hyperclusters
//! against the per-sample sequential baseline, plus the schedule-construction
//! cost itself (which must stay negligible — it runs inside Ramiel's compile
//! path when batch > 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ramiel::{schedule, PipelineOptions};
use ramiel_cluster::{hypercluster, switched_hypercluster};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{run, run_sequential, synth_inputs, Env, RunOptions};
use ramiel_tensor::ExecCtx;
use std::hint::black_box;

fn squeezenet() -> ramiel::ScheduledModel {
    schedule(
        build(ModelKind::Squeezenet, &ModelConfig::full()),
        &PipelineOptions::default(),
    )
    .expect("pipeline")
}

fn bench_hyper_construction(c: &mut Criterion) {
    let compiled = squeezenet();
    let mut group = c.benchmark_group("hypercluster_construction");
    for batch in [2usize, 4, 8, 12] {
        group.bench_with_input(BenchmarkId::new("plain", batch), &batch, |b, &batch| {
            b.iter(|| hypercluster(black_box(&compiled.clustering), batch));
        });
        group.bench_with_input(BenchmarkId::new("switched", batch), &batch, |b, &batch| {
            b.iter(|| switched_hypercluster(black_box(&compiled.clustering), batch));
        });
    }
    group.finish();
}

fn bench_fig13_execution(c: &mut Criterion) {
    let compiled = squeezenet();
    let ctx = ExecCtx::sequential();
    let mut group = c.benchmark_group("fig13_hyper_execution");
    group.sample_size(10);
    for batch in [2usize, 4, 8] {
        let inputs: Vec<Env> = (0..batch)
            .map(|b| synth_inputs(&compiled.graph, b as u64))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("sequential_batch", batch),
            &inputs,
            |b, inputs| {
                b.iter(|| {
                    for inp in inputs {
                        run_sequential(&compiled.graph, inp, &ctx).expect("seq");
                    }
                });
            },
        );
        let hc = hypercluster(&compiled.clustering, batch);
        group.bench_with_input(
            BenchmarkId::new("hyperclustered", batch),
            &inputs,
            |b, inputs| {
                b.iter(|| {
                    run(&compiled.graph, &hc, inputs, &ctx, &RunOptions::default())
                        .outputs
                        .expect("hyper")
                });
            },
        );
    }
    group.finish();
}

fn bench_fig14_switched(c: &mut Criterion) {
    let compiled = squeezenet();
    let ctx = ExecCtx::sequential();
    let mut group = c.benchmark_group("fig14_switched_execution");
    group.sample_size(10);
    for batch in [2usize, 3, 4] {
        let inputs: Vec<Env> = (0..batch)
            .map(|b| synth_inputs(&compiled.graph, 100 + b as u64))
            .collect();
        let plain = hypercluster(&compiled.clustering, batch);
        let switched = switched_hypercluster(&compiled.clustering, batch);
        group.bench_with_input(BenchmarkId::new("plain", batch), &inputs, |b, inputs| {
            b.iter(|| {
                run(
                    &compiled.graph,
                    &plain,
                    inputs,
                    &ctx,
                    &RunOptions::default(),
                )
                .outputs
                .expect("hyper")
            });
        });
        group.bench_with_input(BenchmarkId::new("switched", batch), &inputs, |b, inputs| {
            b.iter(|| {
                run(
                    &compiled.graph,
                    &switched,
                    inputs,
                    &ctx,
                    &RunOptions::default(),
                )
                .outputs
                .expect("hyper")
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hyper_construction,
    bench_fig13_execution,
    bench_fig14_switched
);
criterion_main!(benches);
