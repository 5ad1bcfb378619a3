//! Criterion bench: cost of the fault-injection plumbing when it is idle.
//!
//! The supervised runtime threads a `FaultInjector` hook through every
//! executor. The contract (ISSUE: overhead guard) is that a run with *no*
//! injector — the production configuration — pays only an `Option` check
//! per node, and a run with an *empty* plan pays one failed `HashMap`
//! lookup per node. Both must be noise-level (<1%) next to real kernels.
//! Compare the `group` bars: `baseline` (no injector), `empty_plan`
//! (injector armed with zero faults), and `supervised` (full supervisor
//! wrapper, zero faults, retries never triggered).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ramiel::{schedule, PipelineOptions};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{
    run, run_sequential, run_sequential_opts, synth_inputs, FaultInjector, FaultPlan, RunOptions,
    SupervisorConfig,
};
use ramiel_tensor::ExecCtx;
use std::hint::black_box;
use std::slice::from_ref;

fn bench_sequential_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_overhead_sequential");
    group.sample_size(20);
    let compiled = schedule(
        build(ModelKind::Squeezenet, &ModelConfig::full()),
        &PipelineOptions::default(),
    )
    .expect("pipeline");
    let inputs = synth_inputs(&compiled.graph, 42);
    let ctx = ExecCtx::sequential();
    group.bench_function(BenchmarkId::from_parameter("baseline"), |b| {
        b.iter(|| run_sequential(black_box(&compiled.graph), &inputs, &ctx).expect("seq"));
    });
    let empty = RunOptions::with_injector(FaultInjector::new(FaultPlan::none()));
    group.bench_function(BenchmarkId::from_parameter("empty_plan"), |b| {
        b.iter(|| {
            run_sequential_opts(black_box(&compiled.graph), &inputs, &ctx, &empty).expect("seq")
        });
    });
    group.finish();
}

fn bench_parallel_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_overhead_parallel");
    group.sample_size(20);
    let compiled = schedule(
        build(ModelKind::Squeezenet, &ModelConfig::full()),
        &PipelineOptions::default(),
    )
    .expect("pipeline");
    let inputs = synth_inputs(&compiled.graph, 42);
    let ctx = ExecCtx::sequential();
    group.bench_function(BenchmarkId::from_parameter("baseline"), |b| {
        b.iter(|| {
            run(
                black_box(&compiled.graph),
                &compiled.clustering,
                from_ref(&inputs),
                &ctx,
                &RunOptions::default(),
            )
            .single()
            .expect("par")
        });
    });
    let empty = RunOptions::with_injector(FaultInjector::new(FaultPlan::none()));
    group.bench_function(BenchmarkId::from_parameter("empty_plan"), |b| {
        b.iter(|| {
            run(
                black_box(&compiled.graph),
                &compiled.clustering,
                from_ref(&inputs),
                &ctx,
                &empty,
            )
            .single()
            .expect("par")
        });
    });
    let supervised = RunOptions::default().supervisor(SupervisorConfig::default());
    group.bench_function(BenchmarkId::from_parameter("supervised"), |b| {
        b.iter(|| {
            let r = run(
                black_box(&compiled.graph),
                &compiled.clustering,
                from_ref(&inputs),
                &ctx,
                &supervised,
            );
            assert_eq!(r.report.attempts, 1);
            r.single().expect("supervised")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sequential_overhead, bench_parallel_overhead);
criterion_main!(benches);
