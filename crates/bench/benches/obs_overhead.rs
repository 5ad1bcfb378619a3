//! Criterion bench: cost of the observability plumbing when it is OFF.
//!
//! Every executor and the compile pipeline now carry a `ramiel_obs::Obs`
//! handle. The contract (ISSUE: disabled-instrumentation overhead guard) is
//! that the disabled handle — the default for every non-`profile` code path
//! — costs one branch per call site: `disabled` must be indistinguishable
//! from `baseline`, and `enabled` shows what full tracing costs. The last
//! two groups price the raw APIs per call on both handles: obs spans, and
//! the metrics registry's histogram/counter hot path that every serve
//! response touches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ramiel::obs::Obs;
use ramiel::{schedule, PipelineOptions};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{run, synth_inputs, RunOptions};
use ramiel_tensor::ExecCtx;
use std::hint::black_box;
use std::slice::from_ref;

fn bench_parallel_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead_parallel");
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
    // disabled handle threaded through RunOptions: the production default
    let disabled = RunOptions::default().obs(Obs::disabled());
    group.bench_function(BenchmarkId::from_parameter("disabled"), |b| {
        b.iter(|| {
            run(
                black_box(&compiled.graph),
                &compiled.clustering,
                from_ref(&inputs),
                &ctx,
                &disabled,
            )
            .single()
            .expect("par")
        });
    });
    group.bench_function(BenchmarkId::from_parameter("enabled_profiled"), |b| {
        b.iter(|| {
            let obs = Obs::enabled();
            let opts = RunOptions::default().obs(obs.clone()).profile(true);
            let r = run(
                black_box(&compiled.graph),
                &compiled.clustering,
                from_ref(&inputs),
                &ctx,
                &opts,
            );
            let db = r.profile.as_ref().expect("profiled run");
            db.export_to_obs(&obs, &compiled.graph);
            assert!(!obs.is_empty());
            r.single().expect("par")
        });
    });
    group.finish();
}

fn bench_compile_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead_compile");
    group.sample_size(20);
    let g = build(ModelKind::Googlenet, &ModelConfig::full());
    // Schedule + emission, every stage recording into `opts.obs`. The
    // default sink is the disabled one, so `disabled` is also the baseline.
    let compile = |opts: &PipelineOptions| {
        let s = schedule(black_box(g.clone()), opts).expect("compile");
        s.emit(&opts.obs)
    };
    let disabled = PipelineOptions::all_optimizations();
    group.bench_function(BenchmarkId::from_parameter("disabled"), |b| {
        b.iter(|| compile(&disabled));
    });
    group.bench_function(BenchmarkId::from_parameter("enabled"), |b| {
        b.iter(|| {
            compile(&PipelineOptions {
                obs: Obs::enabled(),
                ..PipelineOptions::all_optimizations()
            })
        });
    });
    group.finish();
}

fn bench_raw_api(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_api_per_call");
    let disabled = Obs::disabled();
    group.bench_function(BenchmarkId::from_parameter("span_disabled"), |b| {
        b.iter(|| {
            for _ in 0..1000 {
                let _span = black_box(&disabled).span(0, "x", "bench");
            }
        });
    });
    let enabled = Obs::enabled();
    group.bench_function(BenchmarkId::from_parameter("span_enabled"), |b| {
        b.iter(|| {
            for _ in 0..1000 {
                let _span = black_box(&enabled).span(0, "x", "bench");
            }
        });
    });
    group.finish();
}

fn bench_metrics_record(c: &mut Criterion) {
    use ramiel::obs::Metrics;
    let mut group = c.benchmark_group("metrics_record_per_call");
    // Value stream spread across octaves, like real nanosecond latencies.
    let gen = |i: u64| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 34;
    group.bench_function(BenchmarkId::from_parameter("baseline"), |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                black_box(gen(i));
            }
        });
    });
    let off = Metrics::disabled().histogram("bench_off_ns", "bench", &[]);
    group.bench_function(BenchmarkId::from_parameter("record_disabled"), |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                off.record(black_box(gen(i)));
            }
        });
    });
    let reg = Metrics::enabled();
    let on = reg.histogram("bench_on_ns", "bench", &[]);
    group.bench_function(BenchmarkId::from_parameter("record_enabled"), |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                on.record(black_box(gen(i)));
            }
        });
    });
    let counter = reg.counter("bench_total", "bench", &[]);
    group.bench_function(BenchmarkId::from_parameter("counter_enabled"), |b| {
        b.iter(|| {
            for _ in 0..1000u64 {
                counter.inc();
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_parallel_obs_overhead,
    bench_compile_obs_overhead,
    bench_raw_api,
    bench_metrics_record
);
criterion_main!(benches);
