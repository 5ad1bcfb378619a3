//! Criterion bench: the tensor kernels underlying every measured table —
//! the substrate analogue of PyTorch's operator microbenchmarks, plus the
//! intra-op scaling ablation (Table V's mechanism).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ramiel_tensor::kernels::conv::{conv2d, ConvSpec};
use ramiel_tensor::kernels::gemm::{matmul, mm};
use ramiel_tensor::kernels::movement::transpose;
use ramiel_tensor::kernels::norm::softmax;
use ramiel_tensor::kernels::pool::{avg_pool, max_pool};
use ramiel_tensor::kernels::reduce::reduce_mean;
use ramiel_tensor::{ExecCtx, Value};
use std::hint::black_box;

fn f32t(shape: Vec<usize>, seed: u64) -> ramiel_tensor::Tensor<f32> {
    Value::random_f32(shape, seed).f32().expect("f32").clone()
}

fn bench_conv(c: &mut Criterion) {
    let x = f32t(vec![1, 16, 32, 32], 1);
    let w = f32t(vec![16, 16, 3, 3], 2);
    let spec = ConvSpec {
        kernel: (3, 3),
        stride: (1, 1),
        pads: (1, 1),
        groups: 1,
    };
    let mut group = c.benchmark_group("conv2d_3x3_16ch_32px");
    group.sample_size(20);
    for threads in [1usize, 2, 4] {
        let ctx = ExecCtx::with_intra_op(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| conv2d(&ctx, black_box(&x), &w, None, &spec).expect("conv"));
        });
    }
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let a = f32t(vec![128, 256], 3);
    let bm = f32t(vec![256, 128], 4);
    let mut group = c.benchmark_group("matmul_128x256x128");
    group.sample_size(20);
    for threads in [1usize, 2, 4] {
        let ctx = ExecCtx::with_intra_op(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| matmul(&ctx, black_box(&a), &bm).expect("matmul"));
        });
    }
    group.finish();
}

fn bench_batched_attention_matmul(c: &mut Criterion) {
    // BERT-shaped scores product: [1, 4, 32, 16] x [1, 4, 16, 32]
    let q = f32t(vec![1, 4, 32, 16], 5);
    let k = f32t(vec![1, 4, 16, 32], 6);
    let ctx = ExecCtx::sequential();
    c.bench_function("attention_qk_matmul", |b| {
        b.iter(|| matmul(&ctx, black_box(&q), &k).expect("matmul"));
    });
}

/// The tiny BERT's layout ops: head split/merge and key transposes, and
/// layernorm's row mean.
fn bench_bert_layout(c: &mut Criterion) {
    let mut group = c.benchmark_group("transpose");
    for (label, shape, perm) in [
        ("1x32x4x16_0213", vec![1, 32, 4, 16], [0, 2, 1, 3]),
        ("1x4x32x16_0132", vec![1, 4, 32, 16], [0, 1, 3, 2]),
    ] {
        let x = f32t(shape, 9);
        group.bench_function(label, |b| {
            b.iter(|| transpose(black_box(&x), &perm).expect("transpose"));
        });
    }
    group.finish();
    let x = f32t(vec![1, 32, 64], 10);
    c.bench_function("reduce_mean_1x32x64_last_axis", |b| {
        b.iter(|| reduce_mean(black_box(&x), &[-1], true).expect("reduce_mean"));
    });
}

/// `gemm::mm` on the tiny BERT's shapes: qkv projection, FFN expansion
/// and contraction, and one head's attention scores and context.
fn bench_bert_mm(c: &mut Criterion) {
    let ctx = ExecCtx::sequential();
    let mut group = c.benchmark_group("mm");
    for (label, m, k, n) in [
        ("qkv_32x64x64", 32usize, 64usize, 64usize),
        ("ffn_32x64x256", 32, 64, 256),
        ("ffn_32x256x64", 32, 256, 64),
        ("scores_32x16x32", 32, 16, 32),
        ("context_32x32x16", 32, 32, 16),
    ] {
        let a = f32t(vec![m, k], 11);
        let bm = f32t(vec![k, n], 12);
        let mut out = vec![0.0f32; m * n];
        group.bench_function(label, |b| {
            b.iter(|| {
                mm(&ctx, black_box(a.data()), bm.data(), &mut out, m, k, n);
                black_box(&mut out);
            });
        });
    }
    group.finish();
}

/// NASNet's 3x3 pools: the stride-1 cell pools and the stride-2 reduction.
fn bench_nasnet_pools(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_3x3");
    for (label, shape, stride) in [
        ("s1_1x8x16x16", vec![1, 8, 16, 16], 1usize),
        ("s2_1x40x16x16", vec![1, 40, 16, 16], 2),
    ] {
        let x = f32t(shape, 13);
        let spec = ramiel_ir::PoolSpec {
            kernel: (3, 3),
            stride: (stride, stride),
            pads: (1, 1),
            ceil_mode: false,
        };
        group.bench_function(format!("max_{label}"), |b| {
            b.iter(|| max_pool(black_box(&x), &spec).expect("max_pool"));
        });
        group.bench_function(format!("avg_{label}"), |b| {
            b.iter(|| avg_pool(black_box(&x), &spec).expect("avg_pool"));
        });
    }
    group.finish();
}

fn bench_softmax(c: &mut Criterion) {
    let x = f32t(vec![4, 32, 32], 7);
    c.bench_function("softmax_last_axis", |b| {
        b.iter(|| softmax(black_box(&x), -1).expect("softmax"));
    });
}

fn bench_eval_dispatch(c: &mut Criterion) {
    // per-op dispatch overhead (relevant to the cluster executor's floor)
    let ctx = ExecCtx::sequential();
    let x = Value::random_f32(vec![64], 8);
    c.bench_function("eval_op_relu_64", |b| {
        b.iter(|| {
            ramiel_tensor::eval_op(
                &ctx,
                &ramiel_ir::OpKind::Relu,
                black_box(std::slice::from_ref(&x)),
            )
            .expect("relu")
        });
    });
}

criterion_group!(
    benches,
    bench_conv,
    bench_matmul,
    bench_batched_attention_matmul,
    bench_bert_layout,
    bench_bert_mm,
    bench_nasnet_pools,
    bench_softmax,
    bench_eval_dispatch
);
criterion_main!(benches);
