//! Data-movement kernels: concat, split, slice, gather, transpose, pad,
//! resize, expand, cast. All are generic over the element type where the
//! semantics allow it; `eval` dispatches per dtype.

use crate::tensor::{broadcast_strides, walk_rows, Tensor};
use crate::value::Value;
use crate::{exec_err, Result};
use ramiel_ir::shape::{broadcast, norm_axis};
use ramiel_ir::DType;

fn ax(axis: isize, rank: usize) -> Result<usize> {
    norm_axis(axis, rank).map_err(|e| crate::ExecError(e.to_string()))
}

/// `x` read from `base` through `strides` at every index of `shape`, in
/// row-major order. Rows that are contiguous in `x` are copied whole.
fn strided_copy<T: Copy>(x: &[T], base: usize, shape: &[usize], strides: &[usize]) -> Vec<T> {
    let mut data = Vec::with_capacity(shape.iter().product());
    walk_rows(shape, [strides], |[off], len, [step]| {
        let off = base + off;
        if step == 1 {
            data.extend_from_slice(&x[off..off + len]);
        } else {
            data.extend((0..len).map(|i| x[off + i * step]));
        }
    });
    data
}

/// Concatenate along `axis`.
pub fn concat<T: Copy + Default>(inputs: &[&Tensor<T>], axis: isize) -> Result<Tensor<T>> {
    let first = inputs
        .first()
        .ok_or_else(|| crate::ExecError("Concat with no inputs".into()))?;
    let rank = first.rank();
    let a = ax(axis, rank)?;
    let mut out_shape = first.shape().to_vec();
    out_shape[a] = inputs.iter().map(|t| t.shape()[a]).sum();
    for t in inputs {
        if t.rank() != rank {
            return exec_err("Concat rank mismatch");
        }
        for d in 0..rank {
            if d != a && t.shape()[d] != first.shape()[d] {
                return exec_err(format!("Concat dim {d} mismatch"));
            }
        }
    }
    let outer: usize = first.shape()[..a].iter().product();
    let inner: usize = first.shape()[a + 1..].iter().product();
    let mut data = Vec::with_capacity(out_shape.iter().product());
    for o in 0..outer {
        for t in inputs {
            let block = t.shape()[a] * inner;
            data.extend_from_slice(&t.data()[o * block..(o + 1) * block]);
        }
    }
    Tensor::new(out_shape, data)
}

/// Split along `axis` into the given part sizes.
pub fn split<T: Copy + Default>(
    x: &Tensor<T>,
    axis: isize,
    parts: &[usize],
) -> Result<Vec<Tensor<T>>> {
    let a = ax(axis, x.rank())?;
    if parts.iter().sum::<usize>() != x.shape()[a] {
        return exec_err("Split parts do not sum to the axis extent");
    }
    let outer: usize = x.shape()[..a].iter().product();
    let inner: usize = x.shape()[a + 1..].iter().product();
    let full = x.shape()[a] * inner;
    let mut outs = Vec::with_capacity(parts.len());
    let mut start = 0usize;
    for &p in parts {
        let mut shape = x.shape().to_vec();
        shape[a] = p;
        let mut data = Vec::with_capacity(outer * p * inner);
        for o in 0..outer {
            let base = o * full + start * inner;
            data.extend_from_slice(&x.data()[base..base + p * inner]);
        }
        outs.push(Tensor::new(shape, data)?);
        start += p;
    }
    Ok(outs)
}

/// Strided slice (positive steps).
pub fn slice<T: Copy + Default>(
    x: &Tensor<T>,
    axes: &[isize],
    starts: &[i64],
    ends: &[i64],
    steps: &[i64],
) -> Result<Tensor<T>> {
    let rank = x.rank();
    let in_strides = x.strides();
    let mut start = vec![0usize; rank];
    let mut strides = in_strides.clone();
    let mut extent: Vec<usize> = x.shape().to_vec();
    for (((&axis, &s), &e), &st) in axes.iter().zip(starts).zip(ends).zip(steps) {
        let a = ax(axis, rank)?;
        if st <= 0 {
            return exec_err("slice supports positive steps only");
        }
        let dim = x.shape()[a] as i64;
        let clamp = |v: i64| if v < 0 { v + dim } else { v }.clamp(0, dim);
        let (cs, ce) = (clamp(s), clamp(e.min(dim)));
        start[a] = cs as usize;
        extent[a] = if ce > cs {
            ((ce - cs + st - 1) / st) as usize
        } else {
            0
        };
        // An axis of one element is never stepped, and its `st` may be any
        // i64: keep it out of the stride product.
        strides[a] = if extent[a] > 1 {
            st as usize * in_strides[a]
        } else {
            0
        };
    }
    let base = start.iter().zip(&in_strides).map(|(s, st)| s * st).sum();
    let data = strided_copy(x.data(), base, &extent, &strides);
    Tensor::new(extent, data)
}

/// Gather along `axis` using i64 indices (negative indices wrap).
pub fn gather<T: Copy + Default>(
    data: &Tensor<T>,
    indices: &Tensor<i64>,
    axis: isize,
) -> Result<Tensor<T>> {
    let a = ax(axis, data.rank())?;
    let dim = data.shape()[a] as i64;
    let outer: usize = data.shape()[..a].iter().product();
    let inner: usize = data.shape()[a + 1..].iter().product();
    let mut out_shape = Vec::new();
    out_shape.extend_from_slice(&data.shape()[..a]);
    out_shape.extend_from_slice(indices.shape());
    out_shape.extend_from_slice(&data.shape()[a + 1..]);
    let mut out = Vec::with_capacity(out_shape.iter().product());
    for o in 0..outer {
        for &raw in indices.data() {
            let i = if raw < 0 { raw + dim } else { raw };
            if i < 0 || i >= dim {
                return exec_err(format!("gather index {raw} out of range for dim {dim}"));
            }
            let base = o * data.shape()[a] * inner + (i as usize) * inner;
            out.extend_from_slice(&data.data()[base..base + inner]);
        }
    }
    Tensor::new(out_shape, out)
}

/// Axis permutation.
pub fn transpose<T: Copy + Default>(x: &Tensor<T>, perm: &[usize]) -> Result<Tensor<T>> {
    let rank = x.rank();
    if perm.len() != rank {
        return exec_err("transpose perm rank mismatch");
    }
    let out_shape: Vec<usize> = perm.iter().map(|&p| x.shape()[p]).collect();
    let in_strides = x.strides();
    let perm_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
    let data = strided_copy(x.data(), 0, &out_shape, &perm_strides);
    Tensor::new(out_shape, data)
}

/// Zero spatial padding of an NCHW tensor: `(top, left, bottom, right)`.
pub fn pad_spatial<T: Copy + Default>(
    x: &Tensor<T>,
    pads: (usize, usize, usize, usize),
) -> Result<Tensor<T>> {
    if x.rank() != 4 {
        return exec_err("Pad expects NCHW input");
    }
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (t, l, b, r) = pads;
    let (ho, wo) = (h + t + b, w + l + r);
    let mut out = vec![T::default(); n * c * ho * wo];
    for img in 0..n * c {
        for y in 0..h {
            let src = &x.data()[img * h * w + y * w..][..w];
            let dst = &mut out[img * ho * wo + (y + t) * wo + l..][..w];
            dst.copy_from_slice(src);
        }
    }
    Tensor::new(vec![n, c, ho, wo], out)
}

/// Nearest-neighbour integer upsampling of an NCHW tensor.
pub fn resize_nearest(x: &Tensor<f32>, scale: (usize, usize)) -> Result<Tensor<f32>> {
    if x.rank() != 4 {
        return exec_err("Resize expects NCHW input");
    }
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (sh, sw) = scale;
    let (ho, wo) = (h * sh, w * sw);
    let mut out = Vec::with_capacity(n * c * ho * wo);
    for img in 0..n * c {
        let xi = &x.data()[img * h * w..(img + 1) * h * w];
        for oy in 0..ho {
            let iy = oy / sh;
            for ox in 0..wo {
                out.push(xi[iy * w + ox / sw]);
            }
        }
    }
    Tensor::new(vec![n, c, ho, wo], out)
}

/// Broadcast-copy to a target shape.
pub fn expand<T: Copy + Default>(x: &Tensor<T>, target: &[usize]) -> Result<Tensor<T>> {
    let shape = match broadcast(x.shape(), target) {
        Some(s) => s,
        None => return exec_err("Expand target does not broadcast"),
    };
    let strides = broadcast_strides(x.shape(), shape.len());
    let data = strided_copy(x.data(), 0, &shape, &strides);
    Tensor::new(shape, data)
}

/// Dtype conversion.
pub fn cast(x: &Value, to: DType) -> Result<Value> {
    let shape = x.shape().to_vec();
    Ok(match (x, to) {
        (Value::F32(t), DType::F32) => Value::F32(t.clone()),
        (Value::I64(t), DType::I64) => Value::I64(t.clone()),
        (Value::Bool(t), DType::Bool) => Value::Bool(t.clone()),
        (Value::F32(t), DType::I64) => Value::I64(Tensor::new(
            shape,
            t.data().iter().map(|&v| v as i64).collect(),
        )?),
        (Value::I64(t), DType::F32) => Value::F32(Tensor::new(
            shape,
            t.data().iter().map(|&v| v as f32).collect(),
        )?),
        (Value::Bool(t), DType::F32) => Value::F32(Tensor::new(
            shape,
            t.data()
                .iter()
                .map(|&v| if v { 1.0 } else { 0.0 })
                .collect(),
        )?),
        (Value::Bool(t), DType::I64) => Value::I64(Tensor::new(
            shape,
            t.data().iter().map(|&v| i64::from(v)).collect(),
        )?),
        (Value::F32(t), DType::Bool) => Value::Bool(Tensor::new(
            shape,
            t.data().iter().map(|&v| v != 0.0).collect(),
        )?),
        (Value::I64(t), DType::Bool) => Value::Bool(Tensor::new(
            shape,
            t.data().iter().map(|&v| v != 0).collect(),
        )?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: Vec<usize>, data: Vec<f32>) -> Tensor<f32> {
        Tensor::new(shape, data).unwrap()
    }

    #[test]
    fn concat_axis1() {
        let a = t(vec![2, 1], vec![1., 3.]);
        let b = t(vec![2, 2], vec![10., 20., 30., 40.]);
        let y = concat(&[&a, &b], 1).unwrap();
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.data(), &[1., 10., 20., 3., 30., 40.]);
    }

    #[test]
    fn split_then_concat_roundtrips() {
        let x = t(vec![2, 4], (0..8).map(|v| v as f32).collect());
        let parts = split(&x, 1, &[1, 3]).unwrap();
        assert_eq!(parts[0].shape(), &[2, 1]);
        assert_eq!(parts[1].shape(), &[2, 3]);
        let back = concat(&[&parts[0], &parts[1]], 1).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn slice_strided_and_negative() {
        let x = t(vec![6], (0..6).map(|v| v as f32).collect());
        let y = slice(&x, &[0], &[1], &[i64::MAX], &[2]).unwrap();
        assert_eq!(y.data(), &[1., 3., 5.]);
        let z = slice(&x, &[0], &[-2], &[i64::MAX], &[1]).unwrap();
        assert_eq!(z.data(), &[4., 5.]);
    }

    #[test]
    fn gather_rows_and_negative_index() {
        let x = t(vec![3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let idx = Tensor::new(vec![2], vec![2i64, -3]).unwrap();
        let y = gather(&x, &idx, 0).unwrap();
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.data(), &[5., 6., 1., 2.]);
        let bad = Tensor::new(vec![1], vec![3i64]).unwrap();
        assert!(gather(&x, &bad, 0).is_err());
    }

    #[test]
    fn transpose_2d() {
        let x = t(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let y = transpose(&x, &[1, 0]).unwrap();
        assert_eq!(y.shape(), &[3, 2]);
        assert_eq!(y.data(), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn transpose_batched_attention_layout() {
        // [B, S, H, D] -> [B, H, S, D]
        let x = t(vec![1, 2, 2, 1], vec![1., 2., 3., 4.]);
        let y = transpose(&x, &[0, 2, 1, 3]).unwrap();
        assert_eq!(y.shape(), &[1, 2, 2, 1]);
        assert_eq!(y.data(), &[1., 3., 2., 4.]);
    }

    #[test]
    fn pad_and_resize() {
        let x = t(vec![1, 1, 1, 1], vec![7.0]);
        let p = pad_spatial(&x, (1, 1, 0, 0)).unwrap();
        assert_eq!(p.shape(), &[1, 1, 2, 2]);
        assert_eq!(p.data(), &[0., 0., 0., 7.]);
        let r = resize_nearest(&x, (2, 3)).unwrap();
        assert_eq!(r.shape(), &[1, 1, 2, 3]);
        assert_eq!(r.data(), &[7.0; 6]);
    }

    #[test]
    fn expand_broadcasts() {
        let x = t(vec![1, 2], vec![1., 2.]);
        let y = expand(&x, &[3, 2]).unwrap();
        assert_eq!(y.shape(), &[3, 2]);
        assert_eq!(y.data(), &[1., 2., 1., 2., 1., 2.]);
    }

    #[test]
    fn cast_roundtrips() {
        let x = Value::F32(t(vec![3], vec![1.5, 0.0, -2.0]));
        let i = cast(&x, DType::I64).unwrap();
        assert_eq!(i.i64().unwrap().data(), &[1, 0, -2]);
        let b = cast(&x, DType::Bool).unwrap();
        assert_eq!(b.bool().unwrap().data(), &[true, false, true]);
        let f = cast(&i, DType::F32).unwrap();
        assert_eq!(f.f32().unwrap().data(), &[1.0, 0.0, -2.0]);
    }
}
