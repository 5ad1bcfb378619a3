//! Matrix-multiply kernels: `MatMul` (batched, broadcasting) and `Gemm`.
//!
//! There is one kernel, `block`: a register tile of up to `MR` (4) rows by
//! `W` columns whose accumulators stay in registers across the whole `k`
//! sweep. Each output element is `0.0`, then `+= a[i,kk] * b[kk,j]` for
//! ascending `kk` — a multiply, then an add, never a fused multiply-add —
//! so the sequential, row-block parallel and column-tile parallel paths, on
//! either entry, are bit-identical to one another and to the naive triple
//! loop. The runtime's cross-executor equivalence tests rely on this. There
//! is deliberately no `av == 0.0` skip: besides costing a branch per
//! element on dense inputs, it broke IEEE semantics (`0·∞` and `0·NaN`
//! must produce NaN, not be elided).
//!
//! The body is compiled twice: once for the build's baseline target (the
//! portable entry, [`mm_portable`], which is also the test reference) and
//! once under `#[target_feature(enable = "avx2")]`, entered from [`mm`]
//! when the CPU reports AVX2. AVX2 widens the lanes only; it does not
//! enable FMA, and Rust never contracts `a * b + c` on its own.

use crate::ctx::ExecCtx;
use crate::tensor::{broadcast_strides, walk_rows, Tensor};
use crate::{exec_err, Result};
use ramiel_ir::shape::broadcast;
use rayon::prelude::*;

/// Rows of the register tile. With 16 columns that is 8 256-bit (or, at 8
/// columns, 8 128-bit) accumulators, leaving registers for the `b` row and
/// the broadcast `a` element.
const MR: usize = 4;
/// Row-block height of the sequential and row-parallel paths.
const MB: usize = 32;
/// Column-tile width of the few-rows parallel split.
const NB: usize = 512;

/// Proof that this CPU reported AVX2: the only way to the
/// `#[target_feature]` copy of the kernels.
#[derive(Clone, Copy)]
pub(crate) struct Avx2(());

impl Avx2 {
    /// `std` caches the CPUID probe, so this is one atomic load.
    pub(crate) fn detect() -> Option<Avx2> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return Some(Avx2(()));
        }
        None
    }
}

/// `R × W` register tile: `out[r][..W] = a[r] · b[.., ..W]` for the `R`
/// rows of `a` (row stride `k`), `b` and `out` based at the tile's first
/// column (row strides `n` and `ldo`).
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    ldo: usize,
) {
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..][..k]);
    let mut acc = [[0.0f32; W]; R];
    for kk in 0..k {
        let bv: &[f32; W] = b[kk * n..][..W].try_into().expect("W columns");
        for (row, arow) in acc.iter_mut().zip(arows) {
            let av = arow[kk];
            for (o, &bl) in row.iter_mut().zip(bv) {
                *o += av * bl;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[r * ldo..][..W].copy_from_slice(row);
    }
}

/// All rows of `a` against the `W` columns at `b`/`out`'s base.
#[inline(always)]
fn strip<const W: usize>(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, ldo: usize) {
    let rows = a.len() / k;
    let mut i = 0;
    while i + MR <= rows {
        tile::<MR, W>(&a[i * k..], b, &mut out[i * ldo..], k, n, ldo);
        i += MR;
    }
    match rows - i {
        3 => tile::<3, W>(&a[i * k..], b, &mut out[i * ldo..], k, n, ldo),
        2 => tile::<2, W>(&a[i * k..], b, &mut out[i * ldo..], k, n, ldo),
        1 => tile::<1, W>(&a[i * k..], b, &mut out[i * ldo..], k, n, ldo),
        _ => {}
    }
}

/// `out = a · b[.., j0..j0+width]` for the whole rows in `a` (row stride
/// `k`), `out` based at column `j0` with row stride `ldo`: strips of
/// `WIDE` columns, then 8, 4 and single columns for the ragged edge.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // hot inner kernel: scalars beat a param struct here
fn block<const WIDE: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    j0: usize,
    width: usize,
    ldo: usize,
) {
    let mut j = 0;
    while j + WIDE <= width {
        strip::<WIDE>(a, &b[j0 + j..], &mut out[j..], k, n, ldo);
        j += WIDE;
    }
    if j + 8 <= width {
        strip::<8>(a, &b[j0 + j..], &mut out[j..], k, n, ldo);
        j += 8;
    }
    if j + 4 <= width {
        strip::<4>(a, &b[j0 + j..], &mut out[j..], k, n, ldo);
        j += 4;
    }
    while j < width {
        strip::<1>(a, &b[j0 + j..], &mut out[j..], k, n, ldo);
        j += 1;
    }
}

/// [`block`] compiled for AVX2: 16-column strips, two 256-bit registers
/// per tile row.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn block_avx2(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    j0: usize,
    width: usize,
    ldo: usize,
) {
    block::<16>(a, b, out, k, n, j0, width, ldo)
}

/// [`block`] through the entry `avx2` selects.
#[allow(clippy::too_many_arguments)]
fn run_block(
    avx2: Option<Avx2>,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    j0: usize,
    width: usize,
    ldo: usize,
) {
    match avx2 {
        // SAFETY: `block_avx2` needs the `avx2` target feature, and an
        // `Avx2` value exists only after `is_x86_feature_detected!("avx2")`
        // returned true on this CPU.
        #[cfg(target_arch = "x86_64")]
        Some(_) => unsafe { block_avx2(a, b, out, k, n, j0, width, ldo) },
        _ => block::<8>(a, b, out, k, n, j0, width, ldo),
    }
}

/// Single 2-D matrix product `out = a[m×k] · b[k×n]`, written into the
/// caller's `out`, optionally parallel over the intra-op pool. With enough
/// rows the parallel split is by row blocks; when `m` is small relative to
/// the pool it splits columns too, so parallelism is not capped at `m`
/// tasks. Runs the AVX2 copy of the tile when the CPU has it.
pub fn mm(ctx: &ExecCtx, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    mm_on(Avx2::detect(), ctx, a, b, out, m, k, n)
}

/// [`mm`] on the baseline-target copy of the tile whatever the CPU: the
/// reference the detected entry is tested against.
pub fn mm_portable(
    ctx: &ExecCtx,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    mm_on(None, ctx, a, b, out, m, k, n)
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn mm_on(
    avx2: Option<Avx2>,
    ctx: &ExecCtx,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(out.len(), m * n);
    if k == 0 || m * n == 0 {
        return out.fill(0.0);
    }
    let rows = |oblk: &mut [f32], i0: usize| {
        let arows = &a[i0 * k..][..oblk.len() / n * k];
        run_block(avx2, arows, b, oblk, k, n, 0, n, n);
    };
    if !(ctx.parallel() && m * k * n >= 16_384) {
        for (bi, oblk) in out.chunks_mut(n * MB).enumerate() {
            rows(oblk, bi * MB);
        }
        return;
    }
    let threads = ctx.intra_op_threads();
    if m >= 2 * threads {
        // Enough rows: parallelize over row blocks.
        let rows_per = m.div_ceil(4 * threads).clamp(1, MB);
        ctx.install(|| {
            out.par_chunks_mut(n * rows_per)
                .enumerate()
                .for_each(|(bi, oblk)| rows(oblk, bi * rows_per));
        });
    } else {
        // Few rows (transformer Gemms: m = batch·seq, n large): one task per
        // (row, column-tile) so the pool still fills.
        let tiles: Vec<(usize, usize, &mut [f32])> = out
            .chunks_mut(n)
            .enumerate()
            .flat_map(|(i, row)| {
                let tiles = row.chunks_mut(NB).enumerate();
                tiles.map(move |(t, tile)| (i, t * NB, tile))
            })
            .collect();
        ctx.install(|| {
            tiles.into_par_iter().for_each(|(i, j0, tile)| {
                let w = tile.len();
                run_block(avx2, &a[i * k..(i + 1) * k], b, tile, k, n, j0, w, w);
            });
        });
    }
}

/// Which matrix of each operand (leading dims `a_batch`, `b_batch`) every
/// index of their broadcast `batch` shape multiplies, in row-major order.
fn batch_offsets(a_batch: &[usize], b_batch: &[usize], batch: &[usize]) -> Vec<(usize, usize)> {
    let sa = broadcast_strides(a_batch, batch.len());
    let sb = broadcast_strides(b_batch, batch.len());
    let mut offsets = Vec::with_capacity(batch.iter().product());
    walk_rows(batch, [&sa, &sb], |[oa, ob], len, [ta, tb]| {
        offsets.extend((0..len).map(|i| (oa + i * ta, ob + i * tb)));
    });
    offsets
}

/// Batched matmul with numpy broadcasting over the leading axes.
pub fn matmul(ctx: &ExecCtx, a: &Tensor<f32>, b: &Tensor<f32>) -> Result<Tensor<f32>> {
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
    let mut out = vec![0.0f32; nb * m * n];

    let offsets = batch_offsets(&a.shape()[..ra - 2], &b.shape()[..rb - 2], &batch);
    for ((ao, bo), o) in offsets.into_iter().zip(out.chunks_mut((m * n).max(1))) {
        let (ad, bd) = (
            &a.data()[ao * m * k1..][..m * k1],
            &b.data()[bo * k1 * n..][..k1 * n],
        );
        mm(ctx, ad, bd, o, m, k1, n);
    }
    Tensor::new(out_shape, out)
}

/// Fully-connected `y = x · Wᵀ + bias` (`transB=1` Gemm) or `x · W + bias`.
pub fn gemm(
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
    // W in [k, n] layout so mm can stream rows. For transB weights the
    // transpose is packed once per plan and found by buffer identity on
    // every later call; untransposed weights are already in layout.
    let packed;
    let wkn: &[f32] = if trans_b {
        packed = ctx.packed().gemm_kn(w, k, n);
        &packed
    } else {
        w.data()
    };
    let mut out = vec![0.0f32; m * n];
    mm(ctx, x.data(), wkn, &mut out, m, k, n);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: Vec<usize>, data: Vec<f32>) -> Tensor<f32> {
        Tensor::new(shape, data).unwrap()
    }

    #[test]
    fn mm_2x2() {
        let ctx = ExecCtx::sequential();
        let a = t(vec![2, 2], vec![1., 2., 3., 4.]);
        let b = t(vec![2, 2], vec![5., 6., 7., 8.]);
        let y = matmul(&ctx, &a, &b).unwrap();
        assert_eq!(y.data(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn batched_matmul_broadcasts_rhs() {
        let ctx = ExecCtx::sequential();
        // a: [2, 1, 2] batch of row vectors; b: [2, 3] shared
        let a = t(vec![2, 1, 2], vec![1., 0., 0., 1.]);
        let b = t(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let y = matmul(&ctx, &a, &b).unwrap();
        assert_eq!(y.shape(), &[2, 1, 3]);
        assert_eq!(y.data(), &[1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn gemm_trans_b_with_bias() {
        let ctx = ExecCtx::sequential();
        let x = t(vec![1, 3], vec![1., 2., 3.]);
        // W [2,3] with transB: y = x·Wᵀ → [1,2]
        let w = t(vec![2, 3], vec![1., 0., 0., 0., 1., 0.]);
        let b = t(vec![2], vec![10., 20.]);
        let y = gemm(&ctx, &x, &w, Some(&b), true).unwrap();
        assert_eq!(y.data(), &[11., 22.]);
    }

    #[test]
    fn gemm_untransposed() {
        let ctx = ExecCtx::sequential();
        let x = t(vec![1, 2], vec![1., 2.]);
        let w = t(vec![2, 2], vec![1., 2., 3., 4.]);
        let y = gemm(&ctx, &x, &w, None, false).unwrap();
        assert_eq!(y.data(), &[7., 10.]);
    }

    #[test]
    fn gemm_packs_trans_b_weight_once() {
        let ctx = ExecCtx::sequential();
        let x = crate::value::Value::random_f32(vec![4, 16], 1);
        let w = crate::value::Value::random_f32(vec![8, 16], 2);
        let (x, w) = (x.f32().unwrap().clone(), w.f32().unwrap().clone());
        let y1 = gemm(&ctx, &x, &w, None, true).unwrap();
        let y2 = gemm(&ctx, &x, &w, None, true).unwrap();
        assert_eq!(y1, y2);
        let (hits, misses) = ctx.packed().stats();
        assert_eq!((hits, misses), (1, 1), "second call must hit the cache");
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq = ExecCtx::sequential();
        let par = ExecCtx::with_intra_op(4);
        let a = crate::value::Value::random_f32(vec![64, 96], 7);
        let b = crate::value::Value::random_f32(vec![96, 48], 8);
        let (a, b) = (a.f32().unwrap().clone(), b.f32().unwrap().clone());
        let y1 = matmul(&seq, &a, &b).unwrap();
        let y2 = matmul(&par, &a, &b).unwrap();
        for (p, q) in y1.data().iter().zip(y2.data()) {
            assert!((p - q).abs() < 1e-4);
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        // Covers both parallel splits: many rows (row-block path) and few
        // rows with a wide output (column-tile path).
        let seq = ExecCtx::sequential();
        let par = ExecCtx::with_intra_op(4);
        for (m, k, n, seed) in [(64, 96, 48, 11), (3, 128, 1100, 12)] {
            let a = crate::value::Value::random_f32(vec![m, k], seed);
            let b = crate::value::Value::random_f32(vec![k, n], seed + 100);
            let (a, b) = (a.f32().unwrap().clone(), b.f32().unwrap().clone());
            let y1 = matmul(&seq, &a, &b).unwrap();
            let y2 = matmul(&par, &a, &b).unwrap();
            assert_eq!(
                y1.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
                y2.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
                "mm {m}x{k}x{n} must be bit-identical across contexts"
            );
        }
    }

    #[test]
    fn zero_times_inf_and_nan_propagate() {
        // Regression: mm used to skip `av == 0.0` operands, so a zero in
        // `a` silently swallowed an ∞ or NaN in `b`. IEEE says 0·∞ = NaN.
        let seq = ExecCtx::sequential();
        let par = ExecCtx::with_intra_op(4);
        let (m, k, n) = (4, 8, 512); // m·k·n ≥ 16384 → parallel path engages
        let mut a = vec![1.0f32; m * k];
        for i in 0..m {
            a[i * k] = 0.0; // kk = 0 contribution is 0·b
        }
        let mut b = vec![1.0f32; k * n];
        b[0] = f32::INFINITY; // row kk=0, col 0
        b[1] = f32::NAN; // row kk=0, col 1
        for ctx in [&seq, &par] {
            let mut y = vec![f32::NAN; m * n];
            mm(ctx, &a, &b, &mut y, m, k, n);
            for i in 0..m {
                assert!(y[i * n].is_nan(), "0·∞ must yield NaN (row {i})");
                assert!(y[i * n + 1].is_nan(), "0·NaN must yield NaN (row {i})");
                assert_eq!(y[i * n + 2], 7.0, "finite columns unaffected");
            }
        }
    }

    #[test]
    fn shape_errors() {
        let ctx = ExecCtx::sequential();
        let a = t(vec![2, 3], vec![0.; 6]);
        let b = t(vec![2, 3], vec![0.; 6]);
        assert!(matmul(&ctx, &a, &b).is_err());
        let w = t(vec![4, 4], vec![0.; 16]);
        assert!(gemm(&ctx, &a, &w, None, false).is_err());
    }
}
