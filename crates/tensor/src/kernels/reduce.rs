//! Reduction kernels.

use crate::tensor::{broadcast_strides, walk_rows, Tensor};
use crate::Result;
use ramiel_ir::shape::norm_axis;

/// Mean over the given axes (negative allowed), optionally keeping reduced
/// axes as size-1 dims.
pub fn reduce_mean(x: &Tensor<f32>, axes: &[isize], keepdims: bool) -> Result<Tensor<f32>> {
    let rank = x.rank();
    let mut reduce = vec![false; rank];
    for &a in axes {
        reduce[norm_axis(a, rank).map_err(|e| crate::ExecError(e.to_string()))?] = true;
    }
    let mut out_shape_kept: Vec<usize> = x
        .shape()
        .iter()
        .enumerate()
        .map(|(i, &d)| if reduce[i] { 1 } else { d })
        .collect();
    let out_numel: usize = out_shape_kept.iter().product();
    let reduced_count: usize = x
        .shape()
        .iter()
        .enumerate()
        .filter(|(i, _)| reduce[*i])
        .map(|(_, &d)| d)
        .product();
    let mut acc = vec![0.0f32; out_numel];
    // Walk the input in index order; a reduced axis (extent 1 in the kept
    // shape, so stride 0) does not move the output offset. Every output
    // element still receives its addends in ascending input index, one add
    // each.
    let out_strides = broadcast_strides(&out_shape_kept, rank);
    let mut idx = 0;
    walk_rows(x.shape(), [&out_strides], |[off], len, [step]| {
        let row = &x.data()[idx..idx + len];
        idx += len;
        if step == 0 {
            let mut sum = acc[off];
            for &v in row {
                sum += v;
            }
            acc[off] = sum;
        } else {
            for (o, &v) in acc[off..off + len].iter_mut().zip(row) {
                *o += v;
            }
        }
    });
    let inv = 1.0 / reduced_count.max(1) as f32;
    for v in &mut acc {
        *v *= inv;
    }
    if !keepdims {
        out_shape_kept = x
            .shape()
            .iter()
            .enumerate()
            .filter(|(i, _)| !reduce[*i])
            .map(|(_, &d)| d)
            .collect();
    }
    Tensor::new(out_shape_kept, acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: Vec<usize>, data: Vec<f32>) -> Tensor<f32> {
        Tensor::new(shape, data).unwrap()
    }

    #[test]
    fn mean_over_last_axis() {
        let x = t(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let y = reduce_mean(&x, &[-1], true).unwrap();
        assert_eq!(y.shape(), &[2, 1]);
        assert_eq!(y.data(), &[2.0, 5.0]);
        let z = reduce_mean(&x, &[1], false).unwrap();
        assert_eq!(z.shape(), &[2]);
    }

    #[test]
    fn mean_over_multiple_axes() {
        let x = t(vec![2, 2, 2], (1..=8).map(|v| v as f32).collect());
        let y = reduce_mean(&x, &[0, 2], false).unwrap();
        assert_eq!(y.shape(), &[2]);
        // axis0/axis2 groups: {1,2,5,6} and {3,4,7,8}
        assert_eq!(y.data(), &[3.5, 5.5]);
    }

    #[test]
    fn mean_over_all_axes_gives_scalar_shape() {
        let x = t(vec![2, 2], vec![1., 2., 3., 4.]);
        let y = reduce_mean(&x, &[0, 1], false).unwrap();
        assert_eq!(y.shape(), &[] as &[usize]);
        assert_eq!(y.data(), &[2.5]);
    }
}
