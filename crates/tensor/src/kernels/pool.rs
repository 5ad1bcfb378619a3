//! Spatial pooling kernels (NCHW).

use super::conv::{clip, interior};
use crate::tensor::Tensor;
use crate::{exec_err, Result};
use ramiel_ir::PoolSpec;

/// The first `L` columns of `out`, all with their whole windows in bounds,
/// folded side by side with the accumulators in registers: `rows` are the
/// window's input rows, `x0` the first tap of the first column.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fold_lanes<const L: usize>(
    rows: std::slice::ChunksExact<'_, f32>,
    x0: usize,
    kw: usize,
    sw: usize,
    init: f32,
    fold: &impl Fn(f32, f32) -> f32,
    finish: impl Fn(f32) -> f32,
    out: &mut [f32],
) {
    let mut acc = [init; L];
    for xrow in rows {
        for kx in 0..kw {
            let taps = &xrow[x0 + kx..][..(L - 1) * sw + 1];
            if sw == 1 {
                // Contiguous taps: one vector load, not a gather.
                for (o, &v) in acc.iter_mut().zip(taps) {
                    *o = fold(*o, v);
                }
            } else {
                for (l, o) in acc.iter_mut().enumerate() {
                    *o = fold(*o, taps[l * sw]);
                }
            }
        }
    }
    for (o, acc) in out[..L].iter_mut().zip(acc) {
        *o = finish(acc);
    }
}

/// One pooling pass. Every output element folds its in-bounds taps into
/// `init` with `fold` in ascending (`ky`, `kx`) order and is then finished
/// with the tap count; a window wholly in padding yields 0. Tap ranges are
/// clipped once per output row and column, so no tap is bounds-tested, and
/// the columns whose whole window is in bounds go through [`fold_lanes`].
fn pool_generic(
    x: &Tensor<f32>,
    spec: &PoolSpec,
    init: f32,
    fold: impl Fn(f32, f32) -> f32,
    finish: impl Fn(f32, usize) -> f32,
) -> Result<Tensor<f32>> {
    if x.rank() != 4 {
        return exec_err("pooling expects NCHW input");
    }
    // Defensive twin of the RV0002 graph check: a hand-built spec with a
    // zero stride or kernel gets a diagnostic, not a panic.
    if spec.stride.0 == 0 || spec.stride.1 == 0 {
        return exec_err(format!("pool stride {:?} must be nonzero", spec.stride));
    }
    if spec.kernel.0 == 0 || spec.kernel.1 == 0 {
        return exec_err(format!("pool kernel {:?} must be nonzero", spec.kernel));
    }
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let ho = spec.out_extent(h, 0);
    let wo = spec.out_extent(w, 1);
    if ho == 0 || wo == 0 {
        return exec_err("pool kernel larger than padded input");
    }
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.pads;
    let (ox_lo, ox_hi, lanes) = interior(w, kw, sw, pw, wo);
    let finish = |acc: f32, count: usize| if count == 0 { 0.0 } else { finish(acc, count) };
    let mut out = vec![0.0f32; n * c * ho * wo];
    if h * w == 0 {
        // Every window lies wholly in padding.
        return Tensor::new(vec![n, c, ho, wo], out);
    }
    for (xi, oi) in x.data().chunks(h * w).zip(out.chunks_mut(ho * wo)) {
        for (oy, orow) in oi.chunks_mut(wo).enumerate() {
            let (iy_lo, iy_hi) = clip((oy * sh) as isize - ph as isize, kh, h);
            let xrows = || xi[iy_lo * w..iy_hi * w].chunks_exact(w);
            // Interior columns, eight or four at a time. A short last chunk
            // moves back to overlap its predecessor: a recomputed output is
            // stored with the same value.
            let mut ox = ox_lo;
            while lanes > 0 && ox < ox_hi {
                let start = ox.min(ox_hi - lanes);
                let x0 = start * sw - pw;
                let done = |acc| finish(acc, (iy_hi - iy_lo) * kw);
                let out = &mut orow[start..];
                if lanes == 8 {
                    fold_lanes::<8>(xrows(), x0, kw, sw, init, &fold, done, out);
                } else {
                    fold_lanes::<4>(xrows(), x0, kw, sw, init, &fold, done, out);
                }
                ox = start + lanes;
            }
            // Border columns, and the interior of a map narrower than four:
            // one output at a time over its clipped window.
            for ox in (0..ox_lo).chain(ox..wo) {
                let (ix_lo, ix_hi) = clip((ox * sw) as isize - pw as isize, kw, w);
                let mut acc = init;
                for xrow in xrows() {
                    for &v in &xrow[ix_lo..ix_hi] {
                        acc = fold(acc, v);
                    }
                }
                orow[ox] = finish(acc, (iy_hi - iy_lo) * (ix_hi - ix_lo));
            }
        }
    }
    Tensor::new(vec![n, c, ho, wo], out)
}

/// Max pooling.
pub fn max_pool(x: &Tensor<f32>, spec: &PoolSpec) -> Result<Tensor<f32>> {
    pool_generic(x, spec, f32::NEG_INFINITY, f32::max, |acc, _| acc)
}

/// Average pooling (padding excluded from the divisor).
pub fn avg_pool(x: &Tensor<f32>, spec: &PoolSpec) -> Result<Tensor<f32>> {
    // ONNX count_include_pad=0 semantics: average over the in-bounds
    // window only.
    pool_generic(
        x,
        spec,
        0.0,
        |acc, v| acc + v,
        |acc, count| acc / count as f32,
    )
}

/// Global average pooling: NCHW → NC11.
pub fn global_avg_pool(x: &Tensor<f32>) -> Result<Tensor<f32>> {
    if x.rank() != 4 {
        return exec_err("GlobalAveragePool expects NCHW input");
    }
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let hw = (h * w) as f32;
    let mut out = Vec::with_capacity(n * c);
    for img in 0..n * c {
        let s: f32 = x.data()[img * h * w..(img + 1) * h * w].iter().sum();
        out.push(s / hw);
    }
    Tensor::new(vec![n, c, 1, 1], out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: Vec<usize>, data: Vec<f32>) -> Tensor<f32> {
        Tensor::new(shape, data).unwrap()
    }

    #[test]
    fn max_pool_2x2() {
        let x = t(vec![1, 1, 2, 2], vec![1., 5., 3., 2.]);
        let spec = PoolSpec {
            kernel: (2, 2),
            stride: (2, 2),
            pads: (0, 0),
            ceil_mode: false,
        };
        let y = max_pool(&x, &spec).unwrap();
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[5.0]);
    }

    #[test]
    fn avg_pool_excludes_padding() {
        let x = t(vec![1, 1, 2, 2], vec![4., 4., 4., 4.]);
        let spec = PoolSpec {
            kernel: (3, 3),
            stride: (1, 1),
            pads: (1, 1),
            ceil_mode: false,
        };
        let y = avg_pool(&x, &spec).unwrap();
        // corner windows see 4 in-bounds values of 4.0 → average 4.0
        assert_eq!(y.data(), &[4.0; 4]);
    }

    #[test]
    fn global_avg() {
        let x = t(vec![1, 2, 2, 2], vec![1., 2., 3., 4., 10., 10., 10., 10.]);
        let y = global_avg_pool(&x).unwrap();
        assert_eq!(y.shape(), &[1, 2, 1, 1]);
        assert_eq!(y.data(), &[2.5, 10.0]);
    }

    #[test]
    fn zero_stride_is_an_error_not_a_panic() {
        let x = t(vec![1, 1, 4, 4], vec![0.0; 16]);
        for (kernel, stride) in [((2, 2), (0, 1)), ((2, 2), (1, 0)), ((0, 2), (1, 1))] {
            let spec = PoolSpec {
                kernel,
                stride,
                pads: (0, 0),
                ceil_mode: false,
            };
            assert!(max_pool(&x, &spec).is_err(), "{spec:?}");
            assert!(avg_pool(&x, &spec).is_err(), "{spec:?}");
        }
    }

    #[test]
    fn ceil_mode_adds_ragged_window() {
        let x = t(vec![1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let spec = PoolSpec {
            kernel: (2, 2),
            stride: (2, 2),
            pads: (0, 0),
            ceil_mode: true,
        };
        let y = max_pool(&x, &spec).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[5., 6., 8., 9.]);
    }
}
