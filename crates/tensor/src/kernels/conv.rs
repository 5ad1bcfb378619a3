//! 2-D convolution (NCHW, OIHW weights, grouped).
//!
//! The kernel is a direct convolution with the inner loop running along the
//! contiguous width axis. When an intra-op pool is attached, output images
//! `(batch, out-channel)` pairs are distributed across it — the same
//! work-splitting PyTorch's OpenMP backend applies.

use super::gemm::{mm_on, Avx2};
use crate::ctx::ExecCtx;
use crate::tensor::Tensor;
use crate::{exec_err, Result};
use rayon::prelude::*;

/// Convolution attributes (mirrors `OpKind::Conv`).
#[derive(Debug, Clone, Copy)]
pub struct ConvSpec {
    pub kernel: (usize, usize),
    pub stride: (usize, usize),
    pub pads: (usize, usize),
    pub groups: usize,
}

/// Defensive attribute check. `ir::validate` rejects these graphs up front
/// (RV0002); the kernels still refuse them so a hand-built spec degrades to
/// an `ExecError` instead of a divide-by-zero panic in the output-size math.
fn check_spec(spec: &ConvSpec) -> Result<()> {
    if spec.stride.0 == 0 || spec.stride.1 == 0 {
        return exec_err(format!("conv2d stride {:?} must be nonzero", spec.stride));
    }
    if spec.kernel.0 == 0 || spec.kernel.1 == 0 {
        return exec_err(format!("conv2d kernel {:?} must be nonzero", spec.kernel));
    }
    if spec.groups == 0 {
        return exec_err("conv2d groups must be nonzero");
    }
    Ok(())
}

/// The input coordinates `[lo, hi)` that a window of `k` taps starting at
/// `i0` covers on an axis of `extent` elements (empty when it lies wholly
/// in padding). Shared with the pooling kernels.
pub(crate) fn clip(i0: isize, k: usize, extent: usize) -> (usize, usize) {
    let lo = i0.clamp(0, extent as isize);
    let hi = (i0 + k as isize).clamp(lo, extent as isize);
    (lo as usize, hi as usize)
}

/// The output columns `[lo, hi)` of a row of `wo` whose `kw` kernel columns
/// are all in bounds (input width `w`, stride `sw`, left padding `pw`), and
/// how many of them are computed side by side: 8, 4, or 0 when fewer than
/// four fit. Shared with the pooling kernels.
pub(crate) fn interior(
    w: usize,
    kw: usize,
    sw: usize,
    pw: usize,
    wo: usize,
) -> (usize, usize, usize) {
    let fit = w.saturating_add(pw).checked_sub(kw);
    let hi = fit.map_or(0, |v| v / sw + 1).min(wo);
    let lo = pw.div_ceil(sw).min(hi);
    let lanes = match hi - lo {
        8.. => 8,
        4.. => 4,
        _ => 0,
    };
    (lo, hi, lanes)
}

/// One output image: a single batch element and output channel.
///
/// Every output element is `bias`, then for each input channel and each
/// in-bounds kernel row, ascending, `+= (0.0 + Σ x·w over the in-bounds
/// kernel columns, ascending)` — each product a multiply then an add.
struct Image<'a> {
    /// The group's input channels, `[cg, h, wd]`.
    x: &'a [f32],
    /// This output channel's weights, `[cg, kh, kw]`.
    w: &'a [f32],
    bias: f32,
    spec: &'a ConvSpec,
    cg: usize,
    h: usize,
    wd: usize,
}

impl Image<'_> {
    /// The (channel, input row) pairs under the window whose first input
    /// row is `iy0`, in the order they are accumulated; rows in padding are
    /// left out. (Yielding indices and slicing in the loop body measured
    /// 5–25 % faster than yielding the row slices.)
    #[inline(always)]
    fn taps(&self, iy0: isize) -> impl Iterator<Item = (usize, usize)> {
        let (iy_lo, iy_hi) = clip(iy0, self.spec.kernel.0, self.h);
        (0..self.cg).flat_map(move |c| (iy_lo..iy_hi).map(move |iy| (c, iy)))
    }

    /// The input and weight rows of channel `c` at input row `iy`, under a
    /// window whose first input row is `iy0`.
    #[inline(always)]
    fn rows(&self, c: usize, iy: usize, iy0: isize) -> (&[f32], &[f32]) {
        let (kh, kw) = self.spec.kernel;
        let ky = (iy as isize - iy0) as usize;
        (
            &self.x[(c * self.h + iy) * self.wd..][..self.wd],
            &self.w[(c * kh + ky) * kw..][..kw],
        )
    }

    /// `L` neighbouring output columns whose kernel columns are all in
    /// bounds, side by side with the accumulators in registers; `x0` is the
    /// first tap of the first column.
    #[inline(always)]
    fn lanes<const L: usize>(&self, iy0: isize, x0: usize) -> [f32; L] {
        let sw = self.spec.stride.1;
        let mut acc = [self.bias; L];
        for (c, iy) in self.taps(iy0) {
            let (xrow, wrow) = self.rows(c, iy, iy0);
            let mut part = [0.0f32; L];
            for (kx, &wv) in wrow.iter().enumerate() {
                let xs = &xrow[x0 + kx..][..(L - 1) * sw + 1];
                if sw == 1 {
                    // Contiguous taps: one vector load, not a gather.
                    for (p, &xv) in part.iter_mut().zip(xs) {
                        *p += xv * wv;
                    }
                } else {
                    for (l, p) in part.iter_mut().enumerate() {
                        *p += xs[l * sw] * wv;
                    }
                }
            }
            for (a, p) in acc.iter_mut().zip(part) {
                *a += p;
            }
        }
        acc
    }

    /// One output column over its clipped kernel columns.
    #[inline(always)]
    fn one(&self, iy0: isize, ox: usize) -> f32 {
        let ix0 = (ox * self.spec.stride.1) as isize - self.spec.pads.1 as isize;
        let (ix_lo, ix_hi) = clip(ix0, self.spec.kernel.1, self.wd);
        let kx_lo = (ix_lo as isize - ix0).clamp(0, self.spec.kernel.1 as isize) as usize;
        let mut o = self.bias;
        for (c, iy) in self.taps(iy0) {
            let (xrow, wrow) = self.rows(c, iy, iy0);
            let mut part = 0.0f32;
            for (&xv, &wv) in xrow[ix_lo..ix_hi].iter().zip(&wrow[kx_lo..]) {
                part += xv * wv;
            }
            o += part;
        }
        o
    }

    /// The whole image into `out` (`[ho, wo]`). Interior columns go eight
    /// or four at a time through [`Image::lanes`]; a short last chunk moves
    /// back to overlap its predecessor (a recomputed output is stored with
    /// the same value). Border columns, and the interior of a map narrower
    /// than four, go through [`Image::one`].
    #[inline(always)]
    fn compute(&self, out: &mut [f32], wo: usize) {
        let (sh, sw) = self.spec.stride;
        let (ph, pw) = self.spec.pads;
        let (ox_lo, ox_hi, lanes) = interior(self.wd, self.spec.kernel.1, sw, pw, wo);
        for (oy, orow) in out.chunks_mut(wo).enumerate() {
            let iy0 = (oy * sh) as isize - ph as isize;
            let mut ox = ox_lo;
            while lanes > 0 && ox < ox_hi {
                let start = ox.min(ox_hi - lanes);
                let x0 = start * sw - pw;
                if lanes == 8 {
                    orow[start..start + 8].copy_from_slice(&self.lanes::<8>(iy0, x0));
                } else {
                    orow[start..start + 4].copy_from_slice(&self.lanes::<4>(iy0, x0));
                }
                ox = start + lanes;
            }
            for ox in (0..ox_lo).chain(ox..wo) {
                orow[ox] = self.one(iy0, ox);
            }
        }
    }
}

/// [`Image::compute`] compiled for AVX2: eight lanes are one register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn compute_avx2(img: &Image, out: &mut [f32], wo: usize) {
    img.compute(out, wo)
}

/// Grouped 2-D convolution: `x` NCHW, `w` [M, C/groups, kh, kw], optional
/// per-output-channel bias. Runs the AVX2 copy of the kernels when the CPU
/// has it.
pub fn conv2d(
    ctx: &ExecCtx,
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    bias: Option<&Tensor<f32>>,
    spec: &ConvSpec,
) -> Result<Tensor<f32>> {
    conv2d_on(Avx2::detect(), ctx, x, w, bias, spec)
}

/// [`conv2d`] on the baseline-target copy of the kernels whatever the CPU:
/// the reference the detected entry is tested against.
pub fn conv2d_portable(
    ctx: &ExecCtx,
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    bias: Option<&Tensor<f32>>,
    spec: &ConvSpec,
) -> Result<Tensor<f32>> {
    conv2d_on(None, ctx, x, w, bias, spec)
}

/// Checks the operands against `spec` and one another; returns the output
/// height and width.
fn output_extents(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    bias: Option<&Tensor<f32>>,
    spec: &ConvSpec,
) -> Result<(usize, usize)> {
    if x.rank() != 4 || w.rank() != 4 {
        return exec_err("conv2d expects NCHW input and OIHW weight");
    }
    check_spec(spec)?;
    let (c, m, cg, g) = (x.shape()[1], w.shape()[0], w.shape()[1], spec.groups);
    if c != cg * g || m % g != 0 {
        return exec_err(format!(
            "conv2d channel mismatch: input {c}, weight {cg}×{g} groups, out {m}"
        ));
    }
    if (w.shape()[2], w.shape()[3]) != spec.kernel {
        return exec_err("conv2d kernel attribute disagrees with weight shape");
    }
    if let Some(b) = bias.filter(|b| b.numel() != m) {
        return exec_err(format!("conv2d bias length {} != {m}", b.numel()));
    }
    let extent = |size: usize, axis: fn((usize, usize)) -> usize| match (size + 2 * axis(spec.pads))
        .checked_sub(axis(spec.kernel))
    {
        Some(v) => Ok(v / axis(spec.stride) + 1),
        None => exec_err("conv2d kernel larger than padded input"),
    };
    Ok((
        extent(x.shape()[2], |p| p.0)?,
        extent(x.shape()[3], |p| p.1)?,
    ))
}

/// `out` is `[.., m, hw]`: adds each output channel's bias to its image.
fn add_bias(out: &mut [f32], bias: Option<&Tensor<f32>>, hw: usize) {
    if let Some(b) = bias {
        for (img, bv) in out.chunks_mut(hw).zip(b.data().iter().cycle()) {
            img.iter_mut().for_each(|v| *v += bv);
        }
    }
}

fn conv2d_on(
    avx2: Option<Avx2>,
    ctx: &ExecCtx,
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    bias: Option<&Tensor<f32>>,
    spec: &ConvSpec,
) -> Result<Tensor<f32>> {
    let (ho, wo) = output_extents(x, w, bias, spec)?;
    let (n, c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (m, cg, g) = (w.shape()[0], w.shape()[1], spec.groups);
    // Pointwise fast path: a 1×1 / stride-1 / unpadded / ungrouped conv is
    // the matrix product `w[m×c] · x[c×(h·w)]` per batch image, which the
    // blocked `mm` kernel runs far faster than the direct loop (Inception
    // and SqueezeNet are full of these).
    if spec.kernel == (1, 1) && spec.stride == (1, 1) && spec.pads == (0, 0) && g == 1 {
        let hw = h * wd;
        let mut out = vec![0.0f32; n * m * hw];
        for ni in 0..n {
            let xn = &x.data()[ni * c * hw..(ni + 1) * c * hw];
            let on = &mut out[ni * m * hw..(ni + 1) * m * hw];
            mm_on(avx2, ctx, w.data(), xn, on, m, c, hw);
        }
        add_bias(&mut out, bias, hw);
        return Tensor::new(vec![n, m, h, wd], out);
    }
    let (kh, kw) = spec.kernel;
    let m_per_g = m / g;
    let mut out = vec![0.0f32; n * m * ho * wo];

    let run = |(idx, oimg): (usize, &mut [f32])| {
        let (ni, mi) = (idx / m, idx % m);
        let gi = mi / m_per_g;
        let xg = &x.data()[ni * c * h * wd + gi * cg * h * wd..][..cg * h * wd];
        let wm = &w.data()[mi * cg * kh * kw..(mi + 1) * cg * kh * kw];
        let img = Image {
            x: xg,
            w: wm,
            bias: bias.map_or(0.0, |b| b.data()[mi]),
            spec,
            cg,
            h,
            wd,
        };
        match avx2 {
            // SAFETY: `compute_avx2` needs the `avx2` target feature, and an
            // `Avx2` value exists only after the CPU reported it.
            #[cfg(target_arch = "x86_64")]
            Some(_) => unsafe { compute_avx2(&img, oimg, wo) },
            _ => img.compute(oimg, wo),
        }
    };

    if ctx.parallel() && n * m >= 2 {
        ctx.install(|| {
            out.par_chunks_mut(ho * wo).enumerate().for_each(run);
        });
    } else {
        out.chunks_mut(ho * wo).enumerate().for_each(run);
    }
    Tensor::new(vec![n, m, ho, wo], out)
}

/// im2col + GEMM formulation of the same convolution. Lowers each (batch,
/// group) to a `[M/g, C/g·kh·kw] × [C/g·kh·kw, Ho·Wo]` matrix product —
/// trades memory for the cache behaviour of `mm`. Exact same results as
/// [`conv2d`] (pinned by a property test); the exact reference the 1×1
/// fast path is checked against, in this module's tests and in
/// `kernel_props.rs`.
pub fn conv2d_im2col(
    ctx: &ExecCtx,
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    bias: Option<&Tensor<f32>>,
    spec: &ConvSpec,
) -> Result<Tensor<f32>> {
    let (ho, wo) = output_extents(x, w, bias, spec)?;
    let (n, c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (m, cg, g) = (w.shape()[0], w.shape()[1], spec.groups);
    let (kh, kw) = spec.kernel;
    let m_per_g = m / g;
    let k = cg * kh * kw;
    let cols = ho * wo;
    let mut out = vec![0.0f32; n * m * cols];
    let mut col = vec![0.0f32; k * cols];

    for ni in 0..n {
        for gi in 0..g {
            // unfold the input patch matrix for this (batch, group)
            col.fill(0.0);
            for ci in 0..cg {
                let xc = &x.data()[(ni * c + gi * cg + ci) * h * wd..][..h * wd];
                for ky in 0..kh {
                    for kx in 0..kw {
                        let row = (ci * kh + ky) * kw + kx;
                        for oy in 0..ho {
                            let iy = (oy * spec.stride.0 + ky) as isize - spec.pads.0 as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            let dst = &mut col[row * cols + oy * wo..][..wo];
                            let src = &xc[iy as usize * wd..(iy as usize + 1) * wd];
                            for (ox, d) in dst.iter_mut().enumerate() {
                                let ix = (ox * spec.stride.1 + kx) as isize - spec.pads.1 as isize;
                                if ix >= 0 && (ix as usize) < wd {
                                    *d = src[ix as usize];
                                }
                            }
                        }
                    }
                }
            }
            // W[gi] is already [m_per_g, k] row-major
            let wg = &w.data()[gi * m_per_g * k..(gi + 1) * m_per_g * k];
            let base = (ni * m + gi * m_per_g) * cols;
            let og = &mut out[base..base + m_per_g * cols];
            super::gemm::mm(ctx, wg, &col, og, m_per_g, k, cols);
        }
    }
    add_bias(&mut out, bias, cols);
    Tensor::new(vec![n, m, ho, wo], out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: Vec<usize>, data: Vec<f32>) -> Tensor<f32> {
        Tensor::new(shape, data).unwrap()
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let ctx = ExecCtx::sequential();
        let x = t(vec![1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let w = t(vec![1, 1, 1, 1], vec![1.0]);
        let spec = ConvSpec {
            kernel: (1, 1),
            stride: (1, 1),
            pads: (0, 0),
            groups: 1,
        };
        let y = conv2d(&ctx, &x, &w, None, &spec).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn box_filter_with_padding() {
        let ctx = ExecCtx::sequential();
        let x = t(vec![1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let w = t(vec![1, 1, 3, 3], vec![1.0; 9]);
        let spec = ConvSpec {
            kernel: (3, 3),
            stride: (1, 1),
            pads: (1, 1),
            groups: 1,
        };
        let y = conv2d(&ctx, &x, &w, None, &spec).unwrap();
        // every output = sum of in-bounds neighbours = 10 at all 4 positions
        assert_eq!(y.data(), &[10., 10., 10., 10.]);
    }

    #[test]
    fn stride_two_downsamples() {
        let ctx = ExecCtx::sequential();
        let x = t(vec![1, 1, 4, 4], (0..16).map(|v| v as f32).collect());
        let w = t(vec![1, 1, 1, 1], vec![1.0]);
        let spec = ConvSpec {
            kernel: (1, 1),
            stride: (2, 2),
            pads: (0, 0),
            groups: 1,
        };
        let y = conv2d(&ctx, &x, &w, None, &spec).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[0., 2., 8., 10.]);
    }

    #[test]
    fn bias_added_per_channel() {
        let ctx = ExecCtx::sequential();
        let x = t(vec![1, 1, 2, 2], vec![0.0; 4]);
        let w = t(vec![2, 1, 1, 1], vec![1.0, 1.0]);
        let b = t(vec![2], vec![5.0, -3.0]);
        let spec = ConvSpec {
            kernel: (1, 1),
            stride: (1, 1),
            pads: (0, 0),
            groups: 1,
        };
        let y = conv2d(&ctx, &x, &w, Some(&b), &spec).unwrap();
        assert_eq!(&y.data()[..4], &[5.0; 4]);
        assert_eq!(&y.data()[4..], &[-3.0; 4]);
    }

    #[test]
    fn grouped_conv_keeps_groups_independent() {
        let ctx = ExecCtx::sequential();
        // 2 input channels, 2 groups, each 1→1 channel with weight 2 / 3.
        let x = t(vec![1, 2, 1, 1], vec![10.0, 100.0]);
        let w = t(vec![2, 1, 1, 1], vec![2.0, 3.0]);
        let spec = ConvSpec {
            kernel: (1, 1),
            stride: (1, 1),
            pads: (0, 0),
            groups: 2,
        };
        let y = conv2d(&ctx, &x, &w, None, &spec).unwrap();
        assert_eq!(y.data(), &[20.0, 300.0]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq = ExecCtx::sequential();
        let par = ExecCtx::with_intra_op(4);
        let x = crate::value::Value::random_f32(vec![2, 3, 16, 16], 1);
        let w = crate::value::Value::random_f32(vec![8, 3, 3, 3], 2);
        let spec = ConvSpec {
            kernel: (3, 3),
            stride: (1, 1),
            pads: (1, 1),
            groups: 1,
        };
        let y1 = conv2d(&seq, x.f32().unwrap(), w.f32().unwrap(), None, &spec).unwrap();
        let y2 = conv2d(&par, x.f32().unwrap(), w.f32().unwrap(), None, &spec).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn im2col_matches_direct_on_fixed_cases() {
        let ctx = ExecCtx::sequential();
        for (cin, cout, groups, k, stride, pad) in [
            (3usize, 8usize, 1usize, 3usize, 1usize, 1usize),
            (4, 4, 4, 3, 1, 1), // depthwise
            (6, 4, 2, 1, 1, 0), // grouped pointwise
            (3, 5, 1, 5, 2, 2), // strided 5x5
        ] {
            let x = crate::value::Value::random_f32(vec![2, cin, 9, 7], 11);
            let w = crate::value::Value::random_f32(vec![cout, cin / groups, k, k], 12);
            let b = crate::value::Value::random_f32(vec![cout], 13);
            let spec = ConvSpec {
                kernel: (k, k),
                stride: (stride, stride),
                pads: (pad, pad),
                groups,
            };
            let direct = conv2d(
                &ctx,
                x.f32().unwrap(),
                w.f32().unwrap(),
                Some(b.f32().unwrap()),
                &spec,
            )
            .unwrap();
            let lowered = conv2d_im2col(
                &ctx,
                x.f32().unwrap(),
                w.f32().unwrap(),
                Some(b.f32().unwrap()),
                &spec,
            )
            .unwrap();
            assert_eq!(direct.shape(), lowered.shape());
            for (p, q) in direct.data().iter().zip(lowered.data()) {
                assert!((p - q).abs() < 1e-4, "{p} vs {q}");
            }
        }
    }

    #[test]
    fn zero_stride_is_an_error_not_a_panic() {
        // Regression: stride 0 used to reach the output-size division and
        // panic; it must surface as an ExecError from both conv paths.
        let ctx = ExecCtx::sequential();
        let x = t(vec![1, 1, 4, 4], vec![0.0; 16]);
        let w = t(vec![1, 1, 2, 2], vec![0.0; 4]);
        for (stride, kernel) in [((0, 1), (2, 2)), ((1, 0), (2, 2)), ((1, 1), (0, 2))] {
            let spec = ConvSpec {
                kernel,
                stride,
                pads: (0, 0),
                groups: 1,
            };
            assert!(conv2d(&ctx, &x, &w, None, &spec).is_err(), "{spec:?}");
            assert!(
                conv2d_im2col(&ctx, &x, &w, None, &spec).is_err(),
                "{spec:?}"
            );
        }
        let spec = ConvSpec {
            kernel: (2, 2),
            stride: (1, 1),
            pads: (0, 0),
            groups: 0,
        };
        assert!(conv2d(&ctx, &x, &w, None, &spec).is_err());
    }

    #[test]
    fn pointwise_fast_path_matches_im2col_exactly() {
        // The 1×1/s1/p0/g1 fast path computes the very same mm the im2col
        // lowering does, so the two must agree bit-for-bit.
        let ctx = ExecCtx::sequential();
        let x = crate::value::Value::random_f32(vec![2, 6, 5, 7], 21);
        let w = crate::value::Value::random_f32(vec![4, 6, 1, 1], 22);
        let b = crate::value::Value::random_f32(vec![4], 23);
        let spec = ConvSpec {
            kernel: (1, 1),
            stride: (1, 1),
            pads: (0, 0),
            groups: 1,
        };
        let fast = conv2d(
            &ctx,
            x.f32().unwrap(),
            w.f32().unwrap(),
            Some(b.f32().unwrap()),
            &spec,
        )
        .unwrap();
        let lowered = conv2d_im2col(
            &ctx,
            x.f32().unwrap(),
            w.f32().unwrap(),
            Some(b.f32().unwrap()),
            &spec,
        )
        .unwrap();
        assert_eq!(fast, lowered);
    }

    #[test]
    fn channel_mismatch_rejected() {
        let ctx = ExecCtx::sequential();
        let x = t(vec![1, 3, 4, 4], vec![0.0; 48]);
        let w = t(vec![2, 2, 1, 1], vec![0.0; 4]);
        let spec = ConvSpec {
            kernel: (1, 1),
            stride: (1, 1),
            pads: (0, 0),
            groups: 1,
        };
        assert!(conv2d(&ctx, &x, &w, None, &spec).is_err());
    }
}
