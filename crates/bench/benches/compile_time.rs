//! Criterion bench: compile time, Ramiel vs IOS (Table VIII).
//!
//! The paper's headline: Ramiel generates code in seconds where IOS's
//! dynamic program takes minutes to hours (10×–500×). Here both run over the
//! same graphs and cost model; the gap comes purely from algorithmic
//! complexity (two linear passes vs a subset DP).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ramiel::obs::Obs;
use ramiel::{schedule, CompileError, PipelineOptions};
use ramiel_cluster::StaticCost;
use ramiel_ios::{ios_schedule, IosConfig};
use ramiel_ir::Graph;
use ramiel_models::{build, ModelConfig, ModelKind};
use std::hint::black_box;

const MODELS: [ModelKind; 3] = [
    ModelKind::Squeezenet,
    ModelKind::InceptionV3,
    ModelKind::NasNet,
];

/// One pipeline entry point over the Table VIII models, graph clone
/// included (the pipeline consumes its graph).
fn bench_pipeline<T>(
    c: &mut Criterion,
    group: &str,
    stage: fn(Graph, &PipelineOptions) -> Result<T, CompileError>,
) {
    let mut group = c.benchmark_group(group);
    group.sample_size(10);
    for kind in MODELS {
        let g = build(kind, &ModelConfig::full());
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &g, |b, g| {
            b.iter(|| {
                stage(black_box(g.clone()), &PipelineOptions::all_optimizations())
                    .expect("pipeline")
            });
        });
    }
    group.finish();
}

/// The paper's `CT`: schedule + emission.
fn bench_ramiel_compile(c: &mut Criterion) {
    bench_pipeline(c, "table8_ramiel_compile", |g, opts| {
        schedule(g, opts).map(|s| s.emit(&Obs::disabled()))
    });
}

/// The part of the pipeline that `serve`/`run` pay: no Python emitted. Same
/// models and options as `table8_ramiel_compile`, so the difference between
/// the two groups is emission.
fn bench_schedule(c: &mut Criterion) {
    bench_pipeline(c, "schedule", schedule);
}

fn bench_ios_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("table8_ios_compile");
    group.sample_size(10);
    for kind in MODELS {
        let g = build(kind, &ModelConfig::full());
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &g, |b, g| {
            b.iter(|| ios_schedule(black_box(g), &StaticCost, &IosConfig::default()));
        });
    }
    group.finish();
}

fn bench_codegen_only(c: &mut Criterion) {
    // isolate the code-generation stage (the part unique to Ramiel among
    // auto-parallelizers: readable Python out)
    let mut group = c.benchmark_group("codegen");
    for kind in [ModelKind::Squeezenet, ModelKind::Bert] {
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
                    ramiel_codegen::generate_parallel(
                        black_box(&c.graph),
                        &c.clustering,
                        &ramiel_codegen::CodegenOptions::default(),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ramiel_compile,
    bench_schedule,
    bench_ios_compile,
    bench_codegen_only
);
criterion_main!(benches);
