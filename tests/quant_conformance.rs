//! Conformance suite for the `QuantI8` kernel backend.
//!
//! The i8 backend deliberately trades accuracy for a smaller integer
//! datapath: Gemm/MatMul/Conv quantize activations at the kernel edge,
//! accumulate exactly in i32, and dequantize the output. That breaks
//! bit-identity with the f32 backends *by design*, so its contract is
//! split in two:
//!
//! 1. **Accuracy vs f32** — on every built-in model generator, the
//!    sequential QuantI8 run must stay within a quantization-scaled
//!    tolerance of the sequential f32 run. The error budget is relative
//!    to each tensor's dynamic range (max |x|), not elementwise — a
//!    near-zero element downstream of a 127-step grid legitimately has
//!    huge *relative* error while being bang on in absolute terms.
//! 2. **Determinism across executors** — i32 accumulation is exact, so
//!    unlike f32 there is no reassociation excuse at all: every executor
//!    running QuantI8 must be *bit-identical* to sequential QuantI8.

#[path = "support/executors.rs"]
mod executors;

use executors::for_each_executor;
use ramiel_cluster::{cluster_graph, StaticCost};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{run_sequential, synth_inputs, Env, KernelBackend};
use ramiel_tensor::{ExecCtx, Value};

/// Error budget for i8 quantization, relative to each output tensor's
/// max-abs. Per-tensor symmetric quantization contributes ~1/254 of the
/// range per quantized operand; a few chained Gemm/Conv layers compound
/// that, and softmax/layernorm renormalization can amplify it further.
const QTOL: f32 = 0.08;

/// Worst absolute error in `got` vs `expect`, scaled by `expect`'s
/// dynamic range; `None` when within budget.
fn range_divergence(expect: &Env, got: &Env) -> Option<(String, String)> {
    for (name, va) in expect {
        let Some(vb) = got.get(name) else {
            return Some((name.clone(), "missing from output".into()));
        };
        match (va, vb) {
            (Value::F32(x), Value::F32(y)) => {
                if x.shape() != y.shape() {
                    return Some((
                        name.clone(),
                        format!("shape {:?} vs {:?}", x.shape(), y.shape()),
                    ));
                }
                let range = x.data().iter().fold(0f32, |m, v| m.max(v.abs())).max(1e-3);
                let mut worst = 0f32;
                let mut worst_at = 0usize;
                for (i, (p, q)) in x.data().iter().zip(y.data()).enumerate() {
                    if p.is_nan() && q.is_nan() {
                        continue;
                    }
                    let err = (p - q).abs() / range;
                    if err > worst {
                        worst = err;
                        worst_at = i;
                    }
                }
                if worst > QTOL {
                    return Some((
                        name.clone(),
                        format!(
                            "worst range-relative err {worst:.3e} at flat index {worst_at} \
                             ({} vs {}, range {range})",
                            x.data()[worst_at],
                            y.data()[worst_at]
                        ),
                    ));
                }
            }
            (va, vb) => {
                if va != vb {
                    return Some((name.clone(), "non-f32 outputs differ exactly".into()));
                }
            }
        }
    }
    None
}

/// First `(tensor, index)` where two envs differ in f32 bit patterns.
fn first_bit_divergence(expect: &Env, got: &Env) -> Option<(String, String)> {
    for (name, va) in expect {
        let Some(vb) = got.get(name) else {
            return Some((name.clone(), "missing from output".into()));
        };
        match (va, vb) {
            (Value::F32(x), Value::F32(y)) => {
                if x.shape() != y.shape() {
                    return Some((
                        name.clone(),
                        format!("shape {:?} vs {:?}", x.shape(), y.shape()),
                    ));
                }
                for (i, (p, q)) in x.data().iter().zip(y.data()).enumerate() {
                    if p.to_bits() != q.to_bits() {
                        return Some((
                            name.clone(),
                            format!("bits differ at flat index {i}: {p} vs {q}"),
                        ));
                    }
                }
            }
            (va, vb) => {
                if va != vb {
                    return Some((name.clone(), "non-f32 outputs differ".into()));
                }
            }
        }
    }
    None
}

/// QuantI8 sequential tracks f32 sequential within the range-relative
/// budget, on every built-in model generator.
#[test]
fn quant_backend_tracks_f32_on_all_models() {
    let cfg = ModelConfig::tiny();
    let fctx = ExecCtx::sequential();
    let qctx = fctx.with_backend(KernelBackend::QuantI8);
    for kind in ModelKind::all() {
        let model = kind.name();
        let g = build(kind, &cfg);
        for seed in [11u64, 92] {
            let inputs = synth_inputs(&g, seed);
            let f32_out = run_sequential(&g, &inputs, &fctx)
                .unwrap_or_else(|e| panic!("{model}: f32 sequential: {e}"));
            let q_out = run_sequential(&g, &inputs, &qctx)
                .unwrap_or_else(|e| panic!("{model}: quant sequential: {e}"));
            if let Some((tensor, why)) = range_divergence(&f32_out, &q_out) {
                panic!(
                    "{model} (seed {seed}): QuantI8 drifted beyond the quantization \
                     budget from f32: first diverging tensor `{tensor}`: {why}"
                );
            }
        }
    }
}

/// Every executor running QuantI8 is bit-identical to QuantI8 sequential:
/// i32 accumulation is exact, so executors have no reassociation latitude.
#[test]
fn quant_backend_is_bit_identical_across_executors() {
    let cfg = ModelConfig::tiny();
    let qctx = ExecCtx::sequential().with_backend(KernelBackend::QuantI8);
    for kind in ModelKind::all() {
        let model = kind.name();
        let g = build(kind, &cfg);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs: Vec<Env> = (0..3)
            .map(|b| synth_inputs(&g, 53 * b as u64 + 29))
            .collect();
        let baseline: Vec<Env> = inputs
            .iter()
            .map(|inp| {
                run_sequential(&g, inp, &qctx)
                    .unwrap_or_else(|e| panic!("{model}: quant sequential: {e}"))
            })
            .collect();

        for_each_executor(&g, &clustering, &inputs, &qctx, |executor, outs| {
            for (b, out) in outs.unwrap().iter().enumerate() {
                if let Some((tensor, why)) = first_bit_divergence(&baseline[b], out) {
                    panic!(
                        "{model}: QuantI8 `{executor}` not bit-identical on element {b}: \
                         `{tensor}`: {why}"
                    );
                }
            }
        });
    }
}

/// The `--backend` surface on `RunOptions` reaches the same kernels: a
/// plain f32 context plus `RunOptions::default().backend(QuantI8)` must
/// match a QuantI8 context bit-for-bit.
#[test]
fn run_options_backend_override_matches_quant_ctx() {
    use ramiel_runtime::{run_sequential_opts, RunOptions};
    let cfg = ModelConfig::tiny();
    let fctx = ExecCtx::sequential();
    let qctx = fctx.with_backend(KernelBackend::QuantI8);
    let g = build(ModelKind::Bert, &cfg);
    let inputs = synth_inputs(&g, 77);
    let via_ctx = run_sequential(&g, &inputs, &qctx).unwrap();
    let opts = RunOptions::default().backend(KernelBackend::QuantI8);
    let via_opts = run_sequential_opts(&g, &inputs, &fctx, &opts).unwrap();
    if let Some((tensor, why)) = first_bit_divergence(&via_ctx, &via_opts) {
        panic!("RunOptions backend override diverged from quant ctx: `{tensor}`: {why}");
    }
}
