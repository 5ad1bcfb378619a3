//! Unary and binary elementwise kernels with numpy broadcasting.

use crate::tensor::{broadcast_strides, walk_rows, Tensor};
use crate::value::Value;
use crate::{exec_err, Result};
use ramiel_ir::shape::broadcast;

/// Apply a unary f32 function elementwise.
pub fn unary_f32(x: &Tensor<f32>, f: impl Fn(f32) -> f32) -> Tensor<f32> {
    let data = x.data().iter().map(|&v| f(v)).collect();
    Tensor::new(x.shape().to_vec(), data).expect("unary preserves shape")
}

/// The `erf`-based GELU used by BERT: `0.5 x (1 + erf(x/√2))`.
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + erf(x / std::f32::consts::SQRT_2))
}

/// Abramowitz–Stegun 7.1.26 rational approximation of erf, accurate to ~1e-7.
pub fn erf(x: f32) -> f32 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_4 * t - 1.453_152_1) * t) + 1.421_413_7) * t - 0.284_496_74) * t
            + 0.254_829_6)
            * t
            * (-x * x).exp();
    sign * y
}

/// Binary broadcasting over f32 tensors.
pub fn binary_f32(
    a: &Tensor<f32>,
    b: &Tensor<f32>,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Tensor<f32>> {
    binary_generic(a, b, f)
}

/// Binary broadcasting over i64 tensors.
pub fn binary_i64(
    a: &Tensor<i64>,
    b: &Tensor<i64>,
    f: impl Fn(i64, i64) -> i64,
) -> Result<Tensor<i64>> {
    binary_generic(a, b, f)
}

fn binary_generic<T: Copy + Default, R: Copy + Default>(
    a: &Tensor<T>,
    b: &Tensor<T>,
    f: impl Fn(T, T) -> R,
) -> Result<Tensor<R>> {
    let out_shape = match broadcast(a.shape(), b.shape()) {
        Some(s) => s,
        None => {
            return exec_err(format!(
                "cannot broadcast {:?} with {:?}",
                a.shape(),
                b.shape()
            ))
        }
    };
    // Fast path: identical shapes.
    if a.shape() == b.shape() {
        let data = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(&x, &y)| f(x, y))
            .collect();
        return Tensor::new(out_shape, data);
    }
    // Fast path: scalar / single-element rhs or lhs.
    if b.numel() == 1 {
        let y = b.data()[0];
        let data = a.data().iter().map(|&x| f(x, y)).collect();
        return Tensor::new(out_shape, data);
    }
    if a.numel() == 1 {
        let x = a.data()[0];
        let data = b.data().iter().map(|&y| f(x, y)).collect();
        return Tensor::new(out_shape, data);
    }
    // Fast path: one side broadcasts only over *leading* axes (its shape,
    // leading 1s stripped, is a suffix of the output shape) — bias add
    // `[m, n] + [n]`, mask add `[.., s] + [1, 1, 1, s]`. The small buffer
    // tiles the output, so the loop is a chunked zip instead of a walk over
    // two stride sets. Same `f` on the same pairs in the same order, so
    // results are bit-identical to the general loop.
    if a.shape() == out_shape {
        if let Some(bn) = suffix_numel(b.shape(), &out_shape) {
            let bd = &b.data()[..bn];
            let data = a
                .data()
                .chunks_exact(bn)
                .flat_map(|ch| ch.iter().zip(bd).map(|(&x, &y)| f(x, y)))
                .collect();
            return Tensor::new(out_shape, data);
        }
        // Fast path: one side broadcasts only over *trailing* axes (its
        // shape, trailing 1s stripped, is a prefix of the output shape) —
        // layernorm's per-row mean/std, `[m, n] - [m, 1]`. Each small-side
        // element covers one contiguous run of the output.
        if let Some(run) = prefix_run(b.shape(), &out_shape) {
            let mut data = Vec::with_capacity(a.numel());
            for (ch, &y) in a.data().chunks_exact(run).zip(b.data()) {
                data.extend(ch.iter().map(|&x| f(x, y)));
            }
            return Tensor::new(out_shape, data);
        }
    }
    if b.shape() == out_shape {
        if let Some(an) = suffix_numel(a.shape(), &out_shape) {
            let ad = &a.data()[..an];
            let data = b
                .data()
                .chunks_exact(an)
                .flat_map(|ch| ad.iter().zip(ch).map(|(&x, &y)| f(x, y)))
                .collect();
            return Tensor::new(out_shape, data);
        }
        if let Some(run) = prefix_run(a.shape(), &out_shape) {
            let mut data = Vec::with_capacity(b.numel());
            for (&x, ch) in a.data().iter().zip(b.data().chunks_exact(run)) {
                data.extend(ch.iter().map(|&y| f(x, y)));
            }
            return Tensor::new(out_shape, data);
        }
    }
    // General broadcast: both operands walked through their broadcast
    // strides.
    let sa = broadcast_strides(a.shape(), out_shape.len());
    let sb = broadcast_strides(b.shape(), out_shape.len());
    let (ad, bd) = (a.data(), b.data());
    let mut data = Vec::with_capacity(out_shape.iter().product());
    walk_rows(&out_shape, [&sa, &sb], |[oa, ob], len, [ta, tb]| {
        data.extend((0..len).map(|i| f(ad[oa + i * ta], bd[ob + i * tb])));
    });
    Tensor::new(out_shape, data)
}

/// If `small` (leading 1s stripped) is exactly the trailing slice of
/// `out`, the small buffer tiles the output; returns its element count.
/// Zero-size and all-ones shapes fall through to other paths.
fn suffix_numel(small: &[usize], out: &[usize]) -> Option<usize> {
    let eff: &[usize] = &small[small.iter().take_while(|&&d| d == 1).count()..];
    let n: usize = eff.iter().product();
    (n > 1 && eff.len() <= out.len() && out[out.len() - eff.len()..] == *eff).then_some(n)
}

/// If `small` is full-rank and, trailing 1s stripped, is exactly the
/// leading slice of `out`, each small element maps to one contiguous
/// output run; returns the run length (product of the remaining `out`
/// dims). Full rank is required because broadcasting right-aligns: a
/// lower-rank `small` pads with *leading* 1s, so its dims never align
/// with `out`'s prefix.
fn prefix_run(small: &[usize], out: &[usize]) -> Option<usize> {
    if small.len() != out.len() {
        return None;
    }
    let keep = small.len() - small.iter().rev().take_while(|&&d| d == 1).count();
    let eff = &small[..keep];
    if eff.iter().product::<usize>() > 1 && out[..keep] == *eff {
        let run: usize = out[keep..].iter().product();
        (run > 0).then_some(run)
    } else {
        None
    }
}

/// Elementwise equality producing a bool tensor.
pub fn equal(a: &Value, b: &Value) -> Result<Value> {
    match (a, b) {
        (Value::F32(x), Value::F32(y)) => Ok(Value::Bool(binary_generic(x, y, |p, q| p == q)?)),
        (Value::I64(x), Value::I64(y)) => Ok(Value::Bool(binary_generic(x, y, |p, q| p == q)?)),
        _ => exec_err("Equal requires two tensors of the same dtype"),
    }
}

/// `where(cond, a, b)` ternary select with broadcasting.
pub fn where_select(cond: &Tensor<bool>, a: &Tensor<f32>, b: &Tensor<f32>) -> Result<Tensor<f32>> {
    let s1 = broadcast(cond.shape(), a.shape())
        .and_then(|s| broadcast(&s, b.shape()))
        .ok_or_else(|| crate::ExecError("Where operands do not broadcast".into()))?;
    let sc = broadcast_strides(cond.shape(), s1.len());
    let sa = broadcast_strides(a.shape(), s1.len());
    let sb = broadcast_strides(b.shape(), s1.len());
    let (cd, ad, bd) = (cond.data(), a.data(), b.data());
    let mut data = Vec::with_capacity(s1.iter().product());
    walk_rows(&s1, [&sc, &sa, &sb], |[oc, oa, ob], len, [tc, ta, tb]| {
        data.extend((0..len).map(|i| {
            if cd[oc + i * tc] {
                ad[oa + i * ta]
            } else {
                bd[ob + i * tb]
            }
        }));
    });
    Tensor::new(s1, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::reference::{broadcast_offset, unravel};
    use crate::tensor::strides_of;

    fn t(shape: Vec<usize>, data: Vec<f32>) -> Tensor<f32> {
        Tensor::new(shape, data).unwrap()
    }

    #[test]
    fn unary_relu() {
        let x = t(vec![4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = unary_f32(&x, |v| v.max(0.0));
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn binary_same_shape_and_scalar() {
        let a = t(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = t(vec![2, 2], vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(
            binary_f32(&a, &b, |x, y| x + y).unwrap().data(),
            &[11.0, 22.0, 33.0, 44.0]
        );
        let s = t(vec![], vec![2.0]);
        assert_eq!(
            binary_f32(&a, &s, |x, y| x * y).unwrap().data(),
            &[2.0, 4.0, 6.0, 8.0]
        );
    }

    #[test]
    fn binary_row_broadcast() {
        let a = t(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let row = t(vec![3], vec![10., 20., 30.]);
        let y = binary_f32(&a, &row, |x, y| x + y).unwrap();
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.data(), &[11., 22., 33., 14., 25., 36.]);
    }

    #[test]
    fn binary_column_broadcast() {
        let a = t(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let col = t(vec![2, 1], vec![100., 200.]);
        let y = binary_f32(&a, &col, |x, y| x + y).unwrap();
        assert_eq!(y.data(), &[101., 102., 103., 204., 205., 206.]);
    }

    /// The general unravel/stride loop, kept as the semantic reference for
    /// the contiguous fast paths.
    fn binary_reference(a: &Tensor<f32>, b: &Tensor<f32>) -> Vec<f32> {
        let out_shape = broadcast(a.shape(), b.shape()).unwrap();
        let numel: usize = out_shape.iter().product();
        let sa = strides_of(a.shape());
        let sb = strides_of(b.shape());
        let mut coords = vec![0usize; out_shape.len()];
        let mut data = Vec::with_capacity(numel);
        for idx in 0..numel {
            unravel(idx, &out_shape, &mut coords);
            let x = a.data()[broadcast_offset(&coords, a.shape(), &sa)];
            let y = b.data()[broadcast_offset(&coords, b.shape(), &sb)];
            data.push(x + y);
        }
        data
    }

    #[test]
    fn broadcast_fast_paths_match_reference() {
        let fill = |shape: &[usize]| {
            let n: usize = shape.iter().product();
            t(
                shape.to_vec(),
                (0..n).map(|i| i as f32 * 0.5 + 1.0).collect(),
            )
        };
        // (bias add, mask add, layernorm row stats, internal-1 suffix,
        // and the right-alignment trap: [4,1] against [4,4,5] must NOT
        // take the prefix path — broadcasting pads it to [1,4,1].)
        let cases: &[(&[usize], &[usize])] = &[
            (&[7, 5], &[5]),
            (&[2, 3, 4, 5], &[1, 1, 1, 5]),
            (&[7, 5], &[7, 1]),
            (&[2, 32, 9, 9], &[2, 32, 9, 1]),
            (&[4, 2, 1, 3], &[2, 1, 3]),
            (&[4, 4, 5], &[4, 1]),
            (&[3, 1], &[3, 4]),
            (&[5], &[7, 5]),
        ];
        for (sa, sb) in cases {
            let a = fill(sa);
            let b = fill(sb);
            let got = binary_f32(&a, &b, |x, y| x + y).unwrap();
            assert_eq!(
                got.data(),
                &binary_reference(&a, &b)[..],
                "mismatch for {sa:?} + {sb:?}"
            );
        }
    }

    #[test]
    fn incompatible_shapes_error() {
        let a = t(vec![2], vec![1., 2.]);
        let b = t(vec![3], vec![1., 2., 3.]);
        assert!(binary_f32(&a, &b, |x, y| x + y).is_err());
    }

    #[test]
    fn erf_reference_points() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427).abs() < 1e-3);
        assert!((erf(-1.0) + 0.8427).abs() < 1e-3);
        assert!((erf(3.0) - 0.99998).abs() < 1e-4);
    }

    #[test]
    fn gelu_matches_definition_at_zero_and_large() {
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu(-10.0).abs() < 1e-4);
    }

    #[test]
    fn where_and_equal() {
        let a = t(vec![3], vec![1., 2., 3.]);
        let b = t(vec![3], vec![1., 0., 3.]);
        let eq = equal(&Value::F32(a.clone()), &Value::F32(b.clone())).unwrap();
        let c = eq.bool().unwrap();
        assert_eq!(c.data(), &[true, false, true]);
        let w = where_select(c, &a, &b).unwrap();
        assert_eq!(w.data(), &[1., 0., 3.]);
    }
}
