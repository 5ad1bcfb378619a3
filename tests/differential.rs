//! Cross-executor differential conformance suite.
//!
//! Every way the runtime can execute a graph — each [`Engine`] of
//! [`ramiel_runtime::run`] under each schedule shape (the clustering one
//! sample at a time, plain and switched hyperclusterings over the whole
//! batch), plus the standing batch-1 [`HyperPool`] — must compute the same
//! function as the reference sequential executor, on every built-in model
//! generator, at batch 1 and batch 4. Divergence messages name the model,
//! the executor, the batch element, and the *first diverging tensor* with
//! its worst elementwise error, so a regression is attributable from the
//! assert text alone.

#[path = "support/executors.rs"]
mod executors;

use executors::for_each_executor;
use ramiel_cluster::{cluster_graph, StaticCost};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{run_sequential, synth_inputs, Env, RuntimeError};
use ramiel_tensor::{ExecCtx, Value};

/// Relative/absolute tolerance for f32 outputs: parallel execution may
/// reassociate reductions, so exact equality is too strict in general.
const TOL: f32 = 1e-4;

/// First output tensor (in name order — `Env` is a BTreeMap) that diverges
/// beyond tolerance, with a human-readable reason.
fn first_divergence(expect: &Env, got: &Env) -> Option<(String, String)> {
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
                let mut worst = 0f32;
                let mut worst_at = 0usize;
                for (i, (p, q)) in x.data().iter().zip(y.data()).enumerate() {
                    if p.is_nan() && q.is_nan() {
                        continue;
                    }
                    let err = (p - q).abs() / p.abs().max(1.0);
                    if err > worst {
                        worst = err;
                        worst_at = i;
                    }
                }
                if worst > TOL {
                    return Some((
                        name.clone(),
                        format!(
                            "worst rel err {worst:.3e} at flat index {worst_at} \
                             ({} vs {})",
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
    if got.len() != expect.len() {
        return Some(("<extra>".into(), "executor produced extra outputs".into()));
    }
    None
}

fn assert_conforms(expect: &Env, got: &Env, model: &str, executor: &str, batch_elem: usize) {
    if let Some((tensor, why)) = first_divergence(expect, got) {
        panic!(
            "{model}: executor `{executor}` diverged from sequential on batch \
             element {batch_elem}: first diverging tensor `{tensor}`: {why}"
        );
    }
}

/// The full matrix: 8 generators × batch {1, 4} × every executor.
#[test]
fn all_executors_conform_on_all_models() {
    let cfg = ModelConfig::tiny();
    let ctx = ExecCtx::sequential();
    for kind in ModelKind::all() {
        let model = kind.name();
        let g = build(kind, &cfg);
        let clustering = cluster_graph(&g, &StaticCost);
        for batch in [1usize, 4] {
            let inputs: Vec<Env> = (0..batch)
                .map(|b| synth_inputs(&g, 1000 * b as u64 + 17))
                .collect();
            let baseline: Vec<Env> = inputs
                .iter()
                .map(|inp| {
                    run_sequential(&g, inp, &ctx)
                        .unwrap_or_else(|e| panic!("{model}: sequential: {e}"))
                })
                .collect();
            for_each_executor(&g, &clustering, &inputs, &ctx, |executor, outs| {
                let outs = outs.unwrap_or_else(|e| panic!("{model}: {executor} b{batch}: {e}"));
                assert_eq!(outs.len(), batch, "{model}: {executor} output count");
                for (b, out) in outs.iter().enumerate() {
                    assert_conforms(&baseline[b], out, model, executor, b);
                }
            });
        }
    }
}

/// First `(tensor, index)` where two envs differ in their f32 *bit
/// patterns* (or any non-f32 value differs at all).
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

/// Stronger than tolerance conformance: with a shared kernel context, every
/// executor must produce *bit-identical* outputs. The transports move the
/// same Arc-shared buffers through the same kernels, and every `mm` path
/// (sequential blocked, row-block parallel, column-tile parallel) accumulates
/// each output element in the same ascending-k order — so there is no
/// legitimate source of even a 1-ulp difference between executors. Any bit
/// that flips here means an executor copied, truncated, or reassociated
/// something it shouldn't have.
#[test]
fn executors_are_bit_identical_with_shared_kernels() {
    let cfg = ModelConfig::tiny();
    let ctx = ExecCtx::sequential();
    for kind in ModelKind::all() {
        let model = kind.name();
        let g = build(kind, &cfg);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs: Vec<Env> = (0..3)
            .map(|b| synth_inputs(&g, 31 * b as u64 + 7))
            .collect();
        let baseline: Vec<Env> = inputs
            .iter()
            .map(|inp| run_sequential(&g, inp, &ctx).unwrap())
            .collect();
        for_each_executor(&g, &clustering, &inputs, &ctx, |executor, outs| {
            for (b, out) in outs.unwrap().iter().enumerate() {
                if let Some((tensor, why)) = first_bit_divergence(&baseline[b], out) {
                    panic!(
                        "{model}: `{executor}` not bit-identical on element {b}: \
                         `{tensor}`: {why}"
                    );
                }
            }
        });
    }
}

/// Executors must also agree on *failure*: a graph with a runtime data error
/// fails on every executor with the same stable error code.
#[test]
fn executors_agree_on_kernel_failures() {
    use ramiel_ir::{DType, GraphBuilder, OpKind, TensorData};
    let mut b = GraphBuilder::new("bad-gather");
    let x = b.input("x", DType::F32, vec![2, 2]);
    let idx = b.init("idx", TensorData::vec_i64(vec![9])); // out of range
    let y = b.op("g", OpKind::Gather { axis: 0 }, vec![x, idx]);
    b.output(&y);
    let g = b.finish().unwrap();
    let clustering = cluster_graph(&g, &StaticCost);
    let ctx = ExecCtx::sequential();
    let inputs = synth_inputs(&g, 5);

    let check = |executor: &str, err: RuntimeError| {
        assert_eq!(err.code(), "RT-KERNEL", "{executor}: {err}");
        assert!(
            err.to_string().contains("out of range"),
            "{executor} should carry the kernel message: {err}"
        );
    };
    check(
        "run_sequential",
        run_sequential(&g, &inputs, &ctx).unwrap_err(),
    );
    let twice = [inputs.clone(), inputs];
    for_each_executor(&g, &clustering, &twice, &ctx, |executor, outs| {
        check(executor, outs.unwrap_err())
    });
}
