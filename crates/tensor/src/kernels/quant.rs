//! Per-tensor symmetric i8 quantized kernels for the heavy ops
//! (`Gemm`/`MatMul`/`Conv`), selected by `KernelBackend::QuantI8`.
//!
//! ## Scheme
//!
//! A tensor is quantized with one scale: `scale = max_abs / 127`, `q =
//! round(v / scale)` clamped to `[-127, 127]` (the symmetric range; -128 is
//! unused so negation stays closed). Zero-point is always 0, which makes
//! padding in conv exact and keeps the kernels additive.
//!
//! Constant weights are quantized **once per plan** through the
//! [`crate::pack::PackedWeightCache`] carried by the `ExecCtx` (same
//! buffer-identity keying as the f32 packed weights); activations are
//! quantized at the kernel edge on every call. Accumulation is exact i32 —
//! `127·127·k` stays far below `i32::MAX` for every model shape here — and
//! the single dequantize multiply happens at the output edge.
//!
//! ## Conformance contract
//!
//! Integer accumulation is associative, so `QuantI8` is bit-identical
//! *across executors* for a fixed plan. Against the f32 backends it is only
//! tolerance-close; `tests/quant_conformance.rs` pins both properties.

use super::gemm::batch_offsets;
use crate::ctx::ExecCtx;
use crate::kernels::conv::ConvSpec;
use crate::tensor::Tensor;
use crate::{exec_err, Result};
use ramiel_ir::shape::broadcast;
use rayon::prelude::*;

/// Quantize `data` with one symmetric per-tensor scale. Returns the i8
/// codes and the scale such that `code · scale ≈ value` with absolute error
/// ≤ `scale / 2` for every finite input (non-finite inputs saturate to
/// ±127, NaN to 0). All-zero (and empty) tensors get scale 1.0 so
/// dequantization is exact for them.
pub fn quantize_symmetric(data: &[f32]) -> (Vec<i8>, f32) {
    let mut max_abs = 0.0f32;
    for &v in data {
        let a = v.abs();
        if a.is_finite() && a > max_abs {
            max_abs = a;
        }
    }
    let scale = if max_abs == 0.0 {
        1.0
    } else {
        // `max` guards subnormal tensors whose `max_abs / 127` would
        // underflow to zero and take the whole tensor with it.
        (max_abs / 127.0).max(f32::MIN_POSITIVE)
    };
    // f64 division keeps the rounding decision exact, so the error bound
    // `|q·scale - v| ≤ scale/2` holds without slack for f32 inputs.
    let inv = 1.0f64 / scale as f64;
    let q = data
        .iter()
        .map(|&v| {
            let r = (v as f64 * inv).round();
            if r.is_nan() {
                0
            } else {
                r.clamp(-127.0, 127.0) as i8
            }
        })
        .collect();
    (q, scale)
}

/// Reconstruct f32 values from codes: `q[i] · scale`.
pub fn dequantize(q: &[i8], scale: f32) -> Vec<f32> {
    q.iter().map(|&c| c as f32 * scale).collect()
}

/// Integer matrix product `a[m×k] · b[k×n]` with i32 accumulation,
/// dequantized by `scale` at the output edge. Row-parallel over the
/// intra-op pool when one is attached; integer adds are associative, so
/// every split is exactly equal.
pub fn mm_i8(
    ctx: &ExecCtx,
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
    scale: f32,
) -> Vec<f32> {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    let mut out = vec![0.0f32; m * n];
    let row = |(i, orow): (usize, &mut [f32])| {
        let mut acc = vec![0i32; n];
        let arow = &a[i * k..(i + 1) * k];
        for (kk, &av) in arow.iter().enumerate() {
            let av = av as i32;
            let brow = &b[kk * n..(kk + 1) * n];
            for (s, &bv) in acc.iter_mut().zip(brow) {
                *s += av * bv as i32;
            }
        }
        for (o, &s) in orow.iter_mut().zip(&acc) {
            *o = s as f32 * scale;
        }
    };
    if ctx.parallel() && m * k * n >= 16_384 {
        ctx.install(|| {
            out.par_chunks_mut(n).enumerate().for_each(row);
        });
    } else {
        out.chunks_mut(n).enumerate().for_each(row);
    }
    out
}

/// Quantized fully-connected layer: weights come from the per-plan cache
/// (transposed to `[k, n]` when `trans_b`), activations are quantized per
/// call, bias is added in f32 after dequantization.
pub fn gemm_q(
    ctx: &ExecCtx,
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    bias: Option<&Tensor<f32>>,
    trans_b: bool,
) -> Result<Tensor<f32>> {
    if x.rank() != 2 || w.rank() != 2 {
        return exec_err("Gemm operands must be 2-D");
    }
    let (m, k) = (x.shape()[0], x.shape()[1]);
    let (n, wk) = if trans_b {
        (w.shape()[0], w.shape()[1])
    } else {
        (w.shape()[1], w.shape()[0])
    };
    if k != wk {
        return exec_err(format!("Gemm inner dims {k} != {wk}"));
    }
    let wq = if trans_b {
        ctx.packed().quant_kn(w, k, n)
    } else {
        ctx.packed().quant_flat(w)
    };
    let (xq, sx) = quantize_symmetric(x.data());
    let mut out = mm_i8(ctx, &xq, &wq.data, m, k, n, sx * wq.scale);
    if let Some(b) = bias {
        if b.numel() != n {
            return exec_err(format!("Gemm bias length {} != {n}", b.numel()));
        }
        for row in out.chunks_mut(n) {
            for (o, &bv) in row.iter_mut().zip(b.data()) {
                *o += bv;
            }
        }
    }
    Tensor::new(vec![m, n], out)
}

/// Quantized batched matmul with numpy broadcasting over the leading axes.
/// Both operands are (usually) activations here, so both are quantized per
/// call with their own per-tensor scales.
pub fn matmul_q(ctx: &ExecCtx, a: &Tensor<f32>, b: &Tensor<f32>) -> Result<Tensor<f32>> {
    let (ra, rb) = (a.rank(), b.rank());
    if ra < 2 || rb < 2 {
        return exec_err("MatMul operands must have rank >= 2");
    }
    let (m, k1) = (a.shape()[ra - 2], a.shape()[ra - 1]);
    let (k2, n) = (b.shape()[rb - 2], b.shape()[rb - 1]);
    if k1 != k2 {
        return exec_err(format!("MatMul inner dims {k1} != {k2}"));
    }
    let batch = match broadcast(&a.shape()[..ra - 2], &b.shape()[..rb - 2]) {
        Some(s) => s,
        None => return exec_err("MatMul batch dims do not broadcast"),
    };
    let nb: usize = batch.iter().product();
    let mut out_shape = batch.clone();
    out_shape.push(m);
    out_shape.push(n);

    let (aq, sa) = quantize_symmetric(a.data());
    let (bq, sb) = quantize_symmetric(b.data());
    let scale = sa * sb;
    let mut out = vec![0.0f32; nb * m * n];

    let offsets = batch_offsets(&a.shape()[..ra - 2], &b.shape()[..rb - 2], &batch);
    for (bi, (ao, bo)) in offsets.into_iter().enumerate() {
        let (ao, bo) = (ao * m * k1, bo * k1 * n);
        let res = mm_i8(
            ctx,
            &aq[ao..ao + m * k1],
            &bq[bo..bo + k1 * n],
            m,
            k1,
            n,
            scale,
        );
        out[bi * m * n..(bi + 1) * m * n].copy_from_slice(&res);
    }
    Tensor::new(out_shape, out)
}

/// One quantized output image: i32 accumulation over all taps, one
/// dequantize + bias add at the end. Borders are tested per tap;
/// zero-point 0 makes padding exact.
#[allow(clippy::too_many_arguments)]
fn conv_one_output_i8(
    x: &[i8],
    w: &[i8],
    out: &mut [f32],
    bias: f32,
    scale: f32,
    spec: &ConvSpec,
    cg: usize,
    h: usize,
    wd: usize,
    ho: usize,
    wo: usize,
) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.pads;
    let mut acc = vec![0i32; ho * wo];
    for c in 0..cg {
        let xc = &x[c * h * wd..(c + 1) * h * wd];
        let wc = &w[c * kh * kw..(c + 1) * kh * kw];
        for oy in 0..ho {
            let iy0 = (oy * sh) as isize - ph as isize;
            let arow = &mut acc[oy * wo..(oy + 1) * wo];
            for ky in 0..kh {
                let iy = iy0 + ky as isize;
                if iy < 0 || iy as usize >= h {
                    continue;
                }
                let xrow = &xc[(iy as usize) * wd..(iy as usize + 1) * wd];
                let wrow = &wc[ky * kw..(ky + 1) * kw];
                for (ox, o) in arow.iter_mut().enumerate() {
                    let ix0 = (ox * sw) as isize - pw as isize;
                    for (kx, &wv) in wrow.iter().enumerate() {
                        let ix = ix0 + kx as isize;
                        if ix >= 0 && (ix as usize) < wd {
                            *o += xrow[ix as usize] as i32 * wv as i32;
                        }
                    }
                }
            }
        }
    }
    for (o, &s) in out.iter_mut().zip(&acc) {
        *o = bias + s as f32 * scale;
    }
}

/// Quantized grouped 2-D convolution: `x` NCHW, `w` OIHW from the per-plan
/// quantized-weight cache, optional f32 bias. Same shape/attribute
/// validation and the same pointwise fast path as the f32 kernel.
pub fn conv2d_q(
    ctx: &ExecCtx,
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    bias: Option<&Tensor<f32>>,
    spec: &ConvSpec,
) -> Result<Tensor<f32>> {
    if x.rank() != 4 || w.rank() != 4 {
        return exec_err("conv2d expects NCHW input and OIHW weight");
    }
    crate::kernels::conv::check_spec(spec)?;
    let (n, c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (m, cg) = (w.shape()[0], w.shape()[1]);
    let g = spec.groups;
    if c != cg * g || m % g != 0 {
        return exec_err(format!(
            "conv2d channel mismatch: input {c}, weight {cg}×{g} groups, out {m}"
        ));
    }
    if (w.shape()[2], w.shape()[3]) != spec.kernel {
        return exec_err("conv2d kernel attribute disagrees with weight shape");
    }
    if let Some(b) = bias {
        if b.numel() != m {
            return exec_err(format!("conv2d bias length {} != {m}", b.numel()));
        }
    }
    let wq = ctx.packed().quant_flat(w);
    let (xq, sx) = quantize_symmetric(x.data());
    let scale = sx * wq.scale;

    if spec.kernel == (1, 1) && spec.stride == (1, 1) && spec.pads == (0, 0) && g == 1 {
        let hw = h * wd;
        let mut out = vec![0.0f32; n * m * hw];
        for ni in 0..n {
            let xn = &xq[ni * c * hw..(ni + 1) * c * hw];
            let prod = mm_i8(ctx, &wq.data, xn, m, c, hw, scale);
            out[ni * m * hw..(ni + 1) * m * hw].copy_from_slice(&prod);
        }
        if let Some(b) = bias {
            for (mi, img) in out.chunks_mut(hw).enumerate() {
                let bv = b.data()[mi % m];
                for v in img {
                    *v += bv;
                }
            }
        }
        return Tensor::new(vec![n, m, h, wd], out);
    }

    let (kh, kw) = spec.kernel;
    let ho = match (h + 2 * spec.pads.0).checked_sub(kh) {
        Some(v) => v / spec.stride.0 + 1,
        None => return exec_err("conv2d kernel larger than padded input"),
    };
    let wo = match (wd + 2 * spec.pads.1).checked_sub(kw) {
        Some(v) => v / spec.stride.1 + 1,
        None => return exec_err("conv2d kernel larger than padded input"),
    };
    let m_per_g = m / g;
    let mut out = vec![0.0f32; n * m * ho * wo];

    let run = |(idx, oimg): (usize, &mut [f32])| {
        let (ni, mi) = (idx / m, idx % m);
        let gi = mi / m_per_g;
        let xg = &xq[ni * c * h * wd + gi * cg * h * wd..][..cg * h * wd];
        let wm = &wq.data[mi * cg * kh * kw..(mi + 1) * cg * kh * kw];
        let bv = bias.map_or(0.0, |b| b.data()[mi]);
        conv_one_output_i8(xg, wm, oimg, bv, scale, spec, cg, h, wd, ho, wo);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let vals = vec![1.0f32, -2.5, 0.31, 100.0, -99.9, 0.0, -0.0, 3.7e-3];
        let (q, scale) = quantize_symmetric(&vals);
        let deq = dequantize(&q, scale);
        for (v, d) in vals.iter().zip(&deq) {
            assert!(
                (v - d).abs() <= scale * 0.5,
                "{v} -> {d} exceeds half-step {scale}"
            );
        }
    }

    #[test]
    fn degenerate_tensors_quantize_safely() {
        // all zeros (incl. -0.0)
        let (q, s) = quantize_symmetric(&[0.0, -0.0]);
        assert_eq!(q, vec![0, 0]);
        assert_eq!(s, 1.0);
        assert_eq!(dequantize(&q, s), vec![0.0, 0.0]);
        // empty
        let (q, s) = quantize_symmetric(&[]);
        assert!(q.is_empty());
        assert_eq!(s, 1.0);
        // subnormal-only: scale must not underflow to 0
        let (_, s) = quantize_symmetric(&[1.0e-40, -3.0e-41]);
        assert!(s > 0.0 && s.is_finite());
        // non-finite values saturate instead of poisoning the scale
        let (q, s) = quantize_symmetric(&[f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.0]);
        assert!(s.is_finite());
        assert_eq!(q[0], 127);
        assert_eq!(q[1], -127);
        assert_eq!(q[2], 0);
    }

    #[test]
    fn mm_i8_matches_exact_integer_reference() {
        let (m, k, n) = (3, 5, 4);
        let a: Vec<i8> = (0..m * k).map(|i| (i as i8) - 7).collect();
        let b: Vec<i8> = (0..k * n).map(|i| 3 - (i as i8)).collect();
        let ctx = ExecCtx::sequential();
        let y = mm_i8(&ctx, &a, &b, m, k, n, 0.5);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for kk in 0..k {
                    acc += a[i * k + kk] as i32 * b[kk * n + j] as i32;
                }
                assert_eq!(y[i * n + j], acc as f32 * 0.5);
            }
        }
    }

    #[test]
    fn gemm_q_close_to_f32_gemm() {
        let ctx = ExecCtx::sequential();
        let qctx = ctx.with_backend(crate::ctx::KernelBackend::QuantI8);
        let x = Value::random_f32(vec![4, 32], 1).f32().unwrap().clone();
        let w = Value::random_f32(vec![8, 32], 2).f32().unwrap().clone();
        let b = Value::random_f32(vec![8], 3).f32().unwrap().clone();
        let exact = crate::kernels::gemm::gemm(&ctx, &x, &w, Some(&b), true).unwrap();
        let quant = gemm_q(&qctx, &x, &w, Some(&b), true).unwrap();
        let max_abs = exact.data().iter().fold(0.0f32, |a, v| a.max(v.abs()));
        for (e, q) in exact.data().iter().zip(quant.data()) {
            assert!(
                (e - q).abs() <= 0.05 * max_abs.max(1.0),
                "{e} vs {q} (max {max_abs})"
            );
        }
        // the weight was quantized once and cached on the shared plan cache
        assert!(qctx.packed().quant_len() >= 1);
        let quant2 = gemm_q(&qctx, &x, &w, Some(&b), true).unwrap();
        assert_eq!(quant, quant2, "quantized path is deterministic");
    }

    #[test]
    fn conv2d_q_close_to_f32_conv() {
        let ctx = ExecCtx::sequential();
        let qctx = ctx.with_backend(crate::ctx::KernelBackend::QuantI8);
        let x = Value::random_f32(vec![1, 3, 9, 9], 4)
            .f32()
            .unwrap()
            .clone();
        let w = Value::random_f32(vec![4, 3, 3, 3], 5)
            .f32()
            .unwrap()
            .clone();
        let spec = ConvSpec {
            kernel: (3, 3),
            stride: (1, 1),
            pads: (1, 1),
            groups: 1,
        };
        let exact = crate::kernels::conv::conv2d(&ctx, &x, &w, None, &spec).unwrap();
        let quant = conv2d_q(&qctx, &x, &w, None, &spec).unwrap();
        assert_eq!(exact.shape(), quant.shape());
        let max_abs = exact.data().iter().fold(0.0f32, |a, v| a.max(v.abs()));
        for (e, q) in exact.data().iter().zip(quant.data()) {
            assert!((e - q).abs() <= 0.05 * max_abs.max(1.0), "{e} vs {q}");
        }
    }

    #[test]
    fn matmul_q_broadcasts_like_f32() {
        let ctx = ExecCtx::sequential().with_backend(crate::ctx::KernelBackend::QuantI8);
        let a = Value::random_f32(vec![2, 1, 3, 8], 6)
            .f32()
            .unwrap()
            .clone();
        let b = Value::random_f32(vec![8, 5], 7).f32().unwrap().clone();
        let y = matmul_q(&ctx, &a, &b).unwrap();
        assert_eq!(y.shape(), &[2, 1, 3, 5]);
        let exact = crate::kernels::gemm::matmul(&ctx, &a, &b).unwrap();
        let max_abs = exact.data().iter().fold(0.0f32, |a, v| a.max(v.abs()));
        for (e, q) in exact.data().iter().zip(y.data()) {
            assert!((e - q).abs() <= 0.06 * max_abs.max(1.0));
        }
    }
}
