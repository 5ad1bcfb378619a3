//! Single-node operator evaluation: the bridge from [`ramiel_ir::OpKind`] to
//! the kernels. Both the runtime executors and the constant-propagation pass
//! drive graphs through this one function, so folding and execution can never
//! disagree on semantics.

use crate::ctx::ExecCtx;
use crate::kernels::conv::{conv2d, ConvSpec};
use crate::kernels::elementwise as ew;
use crate::kernels::gemm::{gemm, matmul};
use crate::kernels::movement as mv;
use crate::kernels::norm;
use crate::kernels::pool;
use crate::kernels::reduce;
use crate::tensor::Tensor;
use crate::value::Value;
use crate::{exec_err, Result};
use ramiel_ir::OpKind;

fn want(inputs: &[Value], n: usize, op: &OpKind) -> Result<()> {
    if inputs.len() < n {
        return exec_err(format!(
            "{} expects at least {n} inputs, got {}",
            op.name(),
            inputs.len()
        ));
    }
    Ok(())
}

/// Extract a shape vector from a 1-D i64 tensor value.
fn shape_operand(v: &Value) -> Result<Vec<i64>> {
    Ok(v.i64()?.data().to_vec())
}

/// Dispatch a movement kernel over any dtype.
macro_rules! movement {
    ($val:expr, |$t:ident| $body:expr) => {
        match $val {
            Value::F32($t) => Ok(Value::F32($body?)),
            Value::I64($t) => Ok(Value::I64($body?)),
            Value::Bool($t) => Ok(Value::Bool($body?)),
        }
    };
}

/// Evaluate one operator application. `Constant` nodes are resolved by the
/// caller (the payload lives in the graph initializer table, not in the
/// inputs), so they are rejected here.
pub fn eval_op(ctx: &ExecCtx, op: &OpKind, inputs: &[Value]) -> Result<Vec<Value>> {
    // Fault-injection hook: an armed hook fails the evaluation here, at the
    // kernel boundary, so injected kernel errors exercise the same error
    // path as real ones.
    if let Some(msg) = ctx.kernel_fault(op) {
        return exec_err(msg);
    }
    let one = |v: Value| -> Result<Vec<Value>> { Ok(vec![v]) };
    match op {
        OpKind::Conv {
            kernel,
            stride,
            pads,
            groups,
        } => {
            want(inputs, 2, op)?;
            let spec = ConvSpec {
                kernel: *kernel,
                stride: *stride,
                pads: *pads,
                groups: *groups,
            };
            let bias = inputs.get(2).map(|b| b.f32()).transpose()?;
            let y = conv2d(ctx, inputs[0].f32()?, inputs[1].f32()?, bias, &spec)?;
            one(Value::F32(y))
        }
        OpKind::MatMul => {
            want(inputs, 2, op)?;
            let y = matmul(ctx, inputs[0].f32()?, inputs[1].f32()?)?;
            one(Value::F32(y))
        }
        OpKind::Gemm { trans_b } => {
            want(inputs, 2, op)?;
            let bias = inputs.get(2).map(|b| b.f32()).transpose()?;
            let y = gemm(ctx, inputs[0].f32()?, inputs[1].f32()?, bias, *trans_b)?;
            one(Value::F32(y))
        }
        OpKind::Relu => unary(inputs, op, |v| v.max(0.0)),
        OpKind::LeakyRelu { alpha } => {
            let a = *alpha;
            unary(inputs, op, move |v| if v >= 0.0 { v } else { a * v })
        }
        OpKind::Sigmoid => unary(inputs, op, |v| 1.0 / (1.0 + (-v).exp())),
        OpKind::Tanh => unary(inputs, op, f32::tanh),
        OpKind::Gelu => unary(inputs, op, ew::gelu),
        OpKind::Erf => unary(inputs, op, ew::erf),
        OpKind::Sqrt => unary(inputs, op, f32::sqrt),
        OpKind::Exp => unary(inputs, op, f32::exp),
        OpKind::Neg => unary(inputs, op, |v| -v),
        OpKind::Clip { min, max } => {
            let (lo, hi) = (*min, *max);
            unary(inputs, op, move |v| v.clamp(lo, hi))
        }
        OpKind::Dropout | OpKind::Identity => {
            want(inputs, 1, op)?;
            one(inputs[0].clone())
        }
        OpKind::Add => binary(inputs, op, |a, b| a + b, |a, b| a + b),
        OpKind::Sub => binary(inputs, op, |a, b| a - b, |a, b| a - b),
        OpKind::Mul => binary(inputs, op, |a, b| a * b, |a, b| a * b),
        OpKind::Div => binary(inputs, op, |a, b| a / b, |a, b| a / b),
        OpKind::Pow => binary(inputs, op, f32::powf, |a, b| a.pow(b as u32)),
        OpKind::Equal => {
            want(inputs, 2, op)?;
            one(ew::equal(&inputs[0], &inputs[1])?)
        }
        OpKind::Where => {
            want(inputs, 3, op)?;
            one(Value::F32(ew::where_select(
                inputs[0].bool()?,
                inputs[1].f32()?,
                inputs[2].f32()?,
            )?))
        }
        OpKind::Softmax { axis } => {
            want(inputs, 1, op)?;
            one(Value::F32(norm::softmax(inputs[0].f32()?, *axis)?))
        }
        OpKind::BatchNorm { epsilon } => {
            want(inputs, 5, op)?;
            one(Value::F32(norm::batch_norm(
                inputs[0].f32()?,
                inputs[1].f32()?,
                inputs[2].f32()?,
                inputs[3].f32()?,
                inputs[4].f32()?,
                *epsilon,
            )?))
        }
        OpKind::LayerNorm { epsilon } => {
            want(inputs, 3, op)?;
            one(Value::F32(norm::layer_norm(
                inputs[0].f32()?,
                inputs[1].f32()?,
                inputs[2].f32()?,
                *epsilon,
            )?))
        }
        OpKind::ReduceMean { axes, keepdims } => {
            want(inputs, 1, op)?;
            one(Value::F32(reduce::reduce_mean(
                inputs[0].f32()?,
                axes,
                *keepdims,
            )?))
        }
        OpKind::MaxPool(spec) => {
            want(inputs, 1, op)?;
            one(Value::F32(pool::max_pool(inputs[0].f32()?, spec)?))
        }
        OpKind::AveragePool(spec) => {
            want(inputs, 1, op)?;
            one(Value::F32(pool::avg_pool(inputs[0].f32()?, spec)?))
        }
        OpKind::GlobalAveragePool => {
            want(inputs, 1, op)?;
            one(Value::F32(pool::global_avg_pool(inputs[0].f32()?)?))
        }
        OpKind::Concat { axis } => {
            want(inputs, 1, op)?;
            match &inputs[0] {
                Value::F32(_) => {
                    let ts: Result<Vec<&Tensor<f32>>> = inputs.iter().map(|v| v.f32()).collect();
                    one(Value::F32(mv::concat(&ts?, *axis)?))
                }
                Value::I64(_) => {
                    let ts: Result<Vec<&Tensor<i64>>> = inputs.iter().map(|v| v.i64()).collect();
                    one(Value::I64(mv::concat(&ts?, *axis)?))
                }
                Value::Bool(_) => {
                    let ts: Result<Vec<&Tensor<bool>>> = inputs.iter().map(|v| v.bool()).collect();
                    one(Value::Bool(mv::concat(&ts?, *axis)?))
                }
            }
        }
        OpKind::Split { axis, parts } => {
            want(inputs, 1, op)?;
            match &inputs[0] {
                Value::F32(t) => Ok(mv::split(t, *axis, parts)?
                    .into_iter()
                    .map(Value::F32)
                    .collect()),
                Value::I64(t) => Ok(mv::split(t, *axis, parts)?
                    .into_iter()
                    .map(Value::I64)
                    .collect()),
                Value::Bool(t) => Ok(mv::split(t, *axis, parts)?
                    .into_iter()
                    .map(Value::Bool)
                    .collect()),
            }
        }
        OpKind::Slice {
            axes,
            starts,
            ends,
            steps,
        } => {
            want(inputs, 1, op)?;
            movement!(&inputs[0], |t| mv::slice(t, axes, starts, ends, steps)).map(|v| vec![v])
        }
        OpKind::Gather { axis } => {
            want(inputs, 2, op)?;
            let idx = inputs[1].i64()?;
            movement!(&inputs[0], |t| mv::gather(t, idx, *axis)).map(|v| vec![v])
        }
        OpKind::Reshape => {
            want(inputs, 2, op)?;
            let spec = shape_operand(&inputs[1])?;
            let numel = inputs[0].numel();
            let shape = resolve_reshape(&spec, inputs[0].shape(), numel)?;
            movement!(&inputs[0], |t| t.reshaped(shape.clone())).map(|v| vec![v])
        }
        OpKind::Transpose { perm } => {
            want(inputs, 1, op)?;
            movement!(&inputs[0], |t| mv::transpose(t, perm)).map(|v| vec![v])
        }
        OpKind::Flatten { axis } => {
            want(inputs, 1, op)?;
            let shape = inputs[0].shape();
            let a = if *axis == shape.len() as isize {
                shape.len()
            } else {
                ramiel_ir::shape::norm_axis(*axis, shape.len())
                    .map_err(|e| crate::ExecError(e.to_string()))?
            };
            let lead: usize = shape[..a].iter().product();
            let tail: usize = shape[a..].iter().product();
            movement!(&inputs[0], |t| t.reshaped(vec![lead, tail])).map(|v| vec![v])
        }
        OpKind::Unsqueeze { axes } => {
            want(inputs, 1, op)?;
            let shape = unsqueeze_shape(inputs[0].shape(), axes)?;
            movement!(&inputs[0], |t| t.reshaped(shape.clone())).map(|v| vec![v])
        }
        OpKind::Squeeze { axes } => {
            want(inputs, 1, op)?;
            let shape = squeeze_shape(inputs[0].shape(), axes)?;
            movement!(&inputs[0], |t| t.reshaped(shape.clone())).map(|v| vec![v])
        }
        OpKind::Expand => {
            want(inputs, 2, op)?;
            let spec = shape_operand(&inputs[1])?;
            let target: Vec<usize> = spec.iter().map(|&d| d.max(0) as usize).collect();
            movement!(&inputs[0], |t| mv::expand(t, &target)).map(|v| vec![v])
        }
        OpKind::Resize { scale } => {
            want(inputs, 1, op)?;
            one(Value::F32(mv::resize_nearest(inputs[0].f32()?, *scale)?))
        }
        OpKind::Pad { pads } => {
            want(inputs, 1, op)?;
            movement!(&inputs[0], |t| mv::pad_spatial(t, *pads)).map(|v| vec![v])
        }
        OpKind::Cast { to } => {
            want(inputs, 1, op)?;
            one(mv::cast(&inputs[0], *to)?)
        }
        OpKind::Shape => {
            want(inputs, 1, op)?;
            let dims: Vec<i64> = inputs[0].shape().iter().map(|&d| d as i64).collect();
            let n = dims.len();
            one(Value::I64(Tensor::new(vec![n], dims)?))
        }
        OpKind::ConstantOfShape { value } => {
            want(inputs, 1, op)?;
            let spec = shape_operand(&inputs[0])?;
            let shape: Vec<usize> = spec.iter().map(|&d| d.max(0) as usize).collect();
            one(Value::F32(Tensor::full(shape, *value)))
        }
        OpKind::Constant => exec_err("Constant nodes are resolved from the initializer table"),
    }
}

/// [`eval_op`] with an in-place hint: the caller asserts that `inputs[slot]`
/// is dead after this op (its last consumer) and has dropped every
/// environment handle to it. If the buffer is also uniquely owned
/// (`Arc::get_mut` succeeds) and the op is an elementwise kernel that can
/// write its result over that operand, the output reuses the input buffer
/// with zero allocation. Any other case — shared buffer, non-elementwise op,
/// dtype or shape mismatch, armed fault hook — falls back to [`eval_op`], so
/// the hint is only ever an optimization, never a semantic change.
pub fn eval_op_inplace(
    ctx: &ExecCtx,
    op: &OpKind,
    mut inputs: Vec<Value>,
    slot: usize,
) -> Result<Vec<Value>> {
    if ctx.kernel_fault(op).is_none() {
        if let Some(out) = try_inplace(op, &mut inputs, slot) {
            return Ok(out);
        }
    }
    eval_op(ctx, op, &inputs)
}

/// The in-place fast paths. Closures here must mirror the [`eval_op`] arms
/// exactly — the differential suite holds both paths bit-identical.
fn try_inplace(op: &OpKind, inputs: &mut Vec<Value>, slot: usize) -> Option<Vec<Value>> {
    match op {
        OpKind::Relu => unary_inplace(inputs, slot, |v| v.max(0.0)),
        OpKind::LeakyRelu { alpha } => {
            let a = *alpha;
            unary_inplace(inputs, slot, move |v| if v >= 0.0 { v } else { a * v })
        }
        OpKind::Sigmoid => unary_inplace(inputs, slot, |v| 1.0 / (1.0 + (-v).exp())),
        OpKind::Tanh => unary_inplace(inputs, slot, f32::tanh),
        OpKind::Gelu => unary_inplace(inputs, slot, ew::gelu),
        OpKind::Erf => unary_inplace(inputs, slot, ew::erf),
        OpKind::Sqrt => unary_inplace(inputs, slot, f32::sqrt),
        OpKind::Exp => unary_inplace(inputs, slot, f32::exp),
        OpKind::Neg => unary_inplace(inputs, slot, |v| -v),
        OpKind::Clip { min, max } => {
            let (lo, hi) = (*min, *max);
            unary_inplace(inputs, slot, move |v| v.clamp(lo, hi))
        }
        OpKind::Add => binary_inplace(inputs, slot, |a, b| a + b),
        OpKind::Sub => binary_inplace(inputs, slot, |a, b| a - b),
        OpKind::Mul => binary_inplace(inputs, slot, |a, b| a * b),
        OpKind::Div => binary_inplace(inputs, slot, |a, b| a / b),
        OpKind::Pow => binary_inplace(inputs, slot, f32::powf),
        _ => None,
    }
}

fn unary_inplace(
    inputs: &mut Vec<Value>,
    slot: usize,
    f: impl Fn(f32) -> f32,
) -> Option<Vec<Value>> {
    if slot != 0 || inputs.len() != 1 {
        return None;
    }
    let Value::F32(t) = &mut inputs[0] else {
        return None;
    };
    for v in t.try_data_mut()?.iter_mut() {
        *v = f(*v);
    }
    Some(vec![inputs.swap_remove(0)])
}

fn binary_inplace(
    inputs: &mut Vec<Value>,
    slot: usize,
    f: impl Fn(f32, f32) -> f32,
) -> Option<Vec<Value>> {
    if slot > 1 || inputs.len() != 2 {
        return None;
    }
    let (lhs, rhs) = inputs.split_at_mut(1);
    let (Value::F32(a), Value::F32(b)) = (&mut lhs[0], &mut rhs[0]) else {
        return None;
    };
    // In-place only covers the same-shape case; broadcasts change the output
    // extent and must go through the allocating kernel.
    if a.shape() != b.shape() {
        return None;
    }
    if slot == 0 {
        let dst = a.try_data_mut()?;
        for (d, &y) in dst.iter_mut().zip(b.data()) {
            *d = f(*d, y);
        }
        Some(vec![inputs.swap_remove(0)])
    } else {
        let dst = b.try_data_mut()?;
        for (d, &x) in dst.iter_mut().zip(a.data()) {
            *d = f(x, *d);
        }
        Some(vec![inputs.swap_remove(1)])
    }
}

fn unary(inputs: &[Value], op: &OpKind, f: impl Fn(f32) -> f32) -> Result<Vec<Value>> {
    want(inputs, 1, op)?;
    Ok(vec![Value::F32(ew::unary_f32(inputs[0].f32()?, f))])
}

fn binary(
    inputs: &[Value],
    op: &OpKind,
    ff: impl Fn(f32, f32) -> f32,
    fi: impl Fn(i64, i64) -> i64,
) -> Result<Vec<Value>> {
    want(inputs, 2, op)?;
    match (&inputs[0], &inputs[1]) {
        (Value::F32(a), Value::F32(b)) => Ok(vec![Value::F32(ew::binary_f32(a, b, ff)?)]),
        (Value::I64(a), Value::I64(b)) => Ok(vec![Value::I64(ew::binary_i64(a, b, fi)?)]),
        _ => exec_err(format!("{} requires matching dtypes", op.name())),
    }
}

/// Resolve a reshape spec (with -1 / 0 conventions) against an input shape.
pub fn resolve_reshape(spec: &[i64], in_shape: &[usize], numel: usize) -> Result<Vec<usize>> {
    let mut shape = Vec::with_capacity(spec.len());
    let mut infer_at = None;
    for (i, &d) in spec.iter().enumerate() {
        match d {
            -1 => {
                if infer_at.is_some() {
                    return exec_err("Reshape allows a single -1");
                }
                infer_at = Some(i);
                shape.push(1);
            }
            0 => match in_shape.get(i) {
                Some(&v) => shape.push(v),
                None => return exec_err("Reshape 0-dim copies past input rank"),
            },
            d if d > 0 => shape.push(d as usize),
            _ => return exec_err("Reshape dims must be -1, 0 or positive"),
        }
    }
    let partial: usize = shape.iter().product();
    if let Some(i) = infer_at {
        if partial == 0 || !numel.is_multiple_of(partial) {
            return exec_err("Reshape cannot infer -1 dimension");
        }
        shape[i] = numel / partial;
    } else if partial != numel {
        return exec_err(format!(
            "Reshape element count mismatch: {numel} -> {partial}"
        ));
    }
    Ok(shape)
}

fn unsqueeze_shape(in_shape: &[usize], axes: &[isize]) -> Result<Vec<usize>> {
    let out_rank = in_shape.len() + axes.len();
    let mut at = vec![false; out_rank];
    for &a in axes {
        let ax = ramiel_ir::shape::norm_axis(a, out_rank)
            .map_err(|e| crate::ExecError(e.to_string()))?;
        at[ax] = true;
    }
    let mut it = in_shape.iter();
    Ok(at
        .iter()
        .map(|&ins| if ins { 1 } else { *it.next().unwrap() })
        .collect())
}

fn squeeze_shape(in_shape: &[usize], axes: &[isize]) -> Result<Vec<usize>> {
    let rank = in_shape.len();
    let mut drop = vec![false; rank];
    for &a in axes {
        let ax =
            ramiel_ir::shape::norm_axis(a, rank).map_err(|e| crate::ExecError(e.to_string()))?;
        if in_shape[ax] != 1 {
            return exec_err(format!("cannot squeeze non-unit axis {ax}"));
        }
        drop[ax] = true;
    }
    Ok(in_shape
        .iter()
        .enumerate()
        .filter(|(i, _)| !drop[*i])
        .map(|(_, &d)| d)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(shape: Vec<usize>, data: Vec<f32>) -> Value {
        Value::F32(Tensor::new(shape, data).unwrap())
    }

    #[test]
    fn relu_add_chain() {
        let ctx = ExecCtx::sequential();
        let x = f(vec![3], vec![-1., 0., 2.]);
        let r = eval_op(&ctx, &OpKind::Relu, &[x]).unwrap().remove(0);
        let y = f(vec![3], vec![1., 1., 1.]);
        let s = eval_op(&ctx, &OpKind::Add, &[r, y]).unwrap().remove(0);
        assert_eq!(s.f32().unwrap().data(), &[1., 1., 3.]);
    }

    #[test]
    fn shape_then_gather_then_reshape() {
        let ctx = ExecCtx::sequential();
        let x = f(vec![2, 6], vec![0.0; 12]);
        let s = eval_op(&ctx, &OpKind::Shape, std::slice::from_ref(&x))
            .unwrap()
            .remove(0);
        assert_eq!(s.i64().unwrap().data(), &[2, 6]);
        let idx = Value::I64(Tensor::new(vec![1], vec![1]).unwrap());
        let d = eval_op(&ctx, &OpKind::Gather { axis: 0 }, &[s, idx])
            .unwrap()
            .remove(0);
        assert_eq!(d.i64().unwrap().data(), &[6]);
        let spec = Value::I64(Tensor::new(vec![2], vec![3, -1]).unwrap());
        let r = eval_op(&ctx, &OpKind::Reshape, &[x, spec])
            .unwrap()
            .remove(0);
        assert_eq!(r.shape(), &[3, 4]);
    }

    #[test]
    fn constant_rejected_here() {
        let ctx = ExecCtx::sequential();
        assert!(eval_op(&ctx, &OpKind::Constant, &[]).is_err());
    }

    #[test]
    fn dropout_is_identity_at_inference() {
        let ctx = ExecCtx::sequential();
        let x = f(vec![2], vec![3., 4.]);
        let y = eval_op(&ctx, &OpKind::Dropout, std::slice::from_ref(&x))
            .unwrap()
            .remove(0);
        assert_eq!(x, y);
    }

    #[test]
    fn integer_add_supported() {
        let ctx = ExecCtx::sequential();
        let a = Value::I64(Tensor::new(vec![2], vec![1, 2]).unwrap());
        let b = Value::I64(Tensor::new(vec![2], vec![10, 20]).unwrap());
        let y = eval_op(&ctx, &OpKind::Add, &[a, b]).unwrap().remove(0);
        assert_eq!(y.i64().unwrap().data(), &[11, 22]);
    }

    #[test]
    fn mixed_dtype_binary_rejected() {
        let ctx = ExecCtx::sequential();
        let a = f(vec![1], vec![1.0]);
        let b = Value::I64(Tensor::new(vec![1], vec![1]).unwrap());
        assert!(eval_op(&ctx, &OpKind::Add, &[a, b]).is_err());
    }

    #[test]
    fn constant_of_shape_fills() {
        let ctx = ExecCtx::sequential();
        let spec = Value::I64(Tensor::new(vec![2], vec![2, 3]).unwrap());
        let y = eval_op(&ctx, &OpKind::ConstantOfShape { value: 0.5 }, &[spec])
            .unwrap()
            .remove(0);
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.f32().unwrap().data(), &[0.5; 6]);
    }

    #[test]
    fn flatten_matches_ir_shape_inference() {
        let ctx = ExecCtx::sequential();
        let x = f(vec![2, 3, 4], vec![0.0; 24]);
        let y = eval_op(&ctx, &OpKind::Flatten { axis: 1 }, &[x])
            .unwrap()
            .remove(0);
        assert_eq!(y.shape(), &[2, 12]);
    }

    #[test]
    fn inplace_unary_reuses_unique_buffer() {
        let ctx = ExecCtx::sequential();
        let x = f(vec![4], vec![-1., 2., -3., 4.]);
        let ptr = x.f32().unwrap().data_ptr();
        let y = eval_op_inplace(&ctx, &OpKind::Relu, vec![x], 0)
            .unwrap()
            .remove(0);
        assert_eq!(y.f32().unwrap().data(), &[0., 2., 0., 4.]);
        assert_eq!(y.f32().unwrap().data_ptr(), ptr, "must reuse the buffer");
    }

    #[test]
    fn inplace_falls_back_when_shared() {
        let ctx = ExecCtx::sequential();
        let x = f(vec![3], vec![-1., 0., 2.]);
        let keep = x.clone(); // second handle forces the copy path
        let ptr = keep.f32().unwrap().data_ptr();
        let y = eval_op_inplace(&ctx, &OpKind::Relu, vec![x], 0)
            .unwrap()
            .remove(0);
        assert_eq!(y.f32().unwrap().data(), &[0., 0., 2.]);
        assert_ne!(y.f32().unwrap().data_ptr(), ptr);
        assert_eq!(keep.f32().unwrap().data(), &[-1., 0., 2.], "untouched");
    }

    #[test]
    fn inplace_binary_both_slots_match_eval_op() {
        let ctx = ExecCtx::sequential();
        let mk = || {
            (
                f(vec![3], vec![1., 2., 3.]),
                f(vec![3], vec![10., 20., 30.]),
            )
        };
        for op in [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div] {
            let (a, b) = mk();
            let want = eval_op(&ctx, &op, &[a.clone(), b.clone()]).unwrap();
            for slot in 0..2 {
                let (a, b) = mk();
                let got = eval_op_inplace(&ctx, &op, vec![a, b], slot).unwrap();
                assert_eq!(got, want, "{op:?} slot {slot}");
            }
        }
    }

    #[test]
    fn inplace_broadcast_falls_back_correctly() {
        let ctx = ExecCtx::sequential();
        let a = f(vec![2, 2], vec![1., 2., 3., 4.]);
        let s = f(vec![], vec![10.]);
        let y = eval_op_inplace(&ctx, &OpKind::Add, vec![a, s], 0)
            .unwrap()
            .remove(0);
        assert_eq!(y.f32().unwrap().data(), &[11., 12., 13., 14.]);
    }

    #[test]
    fn unsqueeze_squeeze_eval() {
        let ctx = ExecCtx::sequential();
        let x = f(vec![3], vec![1., 2., 3.]);
        let u = eval_op(&ctx, &OpKind::Unsqueeze { axes: vec![0] }, &[x])
            .unwrap()
            .remove(0);
        assert_eq!(u.shape(), &[1, 3]);
        let s = eval_op(&ctx, &OpKind::Squeeze { axes: vec![0] }, &[u])
            .unwrap()
            .remove(0);
        assert_eq!(s.shape(), &[3]);
    }
}
