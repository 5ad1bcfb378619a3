//! Property-based tests for the tensor kernels: each optimized kernel is
//! pinned against a straightforward reference implementation on random
//! shapes and data.

use proptest::prelude::*;
use ramiel_ir::shape::{broadcast, norm_axis};
use ramiel_ir::PoolSpec;
use ramiel_tensor::kernels::conv::{conv2d, conv2d_im2col, conv2d_portable, ConvSpec};
use ramiel_tensor::kernels::elementwise::{binary_f32, where_select};
use ramiel_tensor::kernels::gemm::{gemm, matmul, mm, mm_portable};
use ramiel_tensor::kernels::movement::{concat, expand, slice, split, transpose};
use ramiel_tensor::kernels::norm::softmax;
use ramiel_tensor::kernels::pool::{avg_pool, max_pool};
use ramiel_tensor::kernels::reduce::reduce_mean;
use ramiel_tensor::tensor::{strides_of, Tensor};
use ramiel_tensor::{ExecCtx, Value};

fn close(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(p, q)| (p - q).abs() <= tol * p.abs().max(1.0))
}

fn rand_t(shape: Vec<usize>, seed: u64) -> Tensor<f32> {
    Value::random_f32(shape, seed)
        .f32()
        .expect("f32 by construction")
        .clone()
}

/// Naive O(n³) reference matmul for 2-D operands.
fn reference_mm(a: &Tensor<f32>, b: &Tensor<f32>) -> Vec<f32> {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += a.data()[i * k + kk] * b.data()[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_matches_reference(
        m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in any::<u64>()
    ) {
        let ctx = ExecCtx::sequential();
        let a = rand_t(vec![m, k], seed);
        let b = rand_t(vec![k, n], seed ^ 1);
        let fast = matmul(&ctx, &a, &b).unwrap();
        let slow = reference_mm(&a, &b);
        prop_assert!(close(fast.data(), &slow, 1e-4));
    }

    #[test]
    fn gemm_equals_matmul_plus_bias(
        m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in any::<u64>()
    ) {
        let ctx = ExecCtx::sequential();
        let x = rand_t(vec![m, k], seed);
        let w = rand_t(vec![k, n], seed ^ 2);
        let b = rand_t(vec![n], seed ^ 3);
        let y = gemm(&ctx, &x, &w, Some(&b), false).unwrap();
        let mut reference = reference_mm(&x, &w);
        for row in reference.chunks_mut(n) {
            for (o, &bv) in row.iter_mut().zip(b.data()) {
                *o += bv;
            }
        }
        prop_assert!(close(y.data(), &reference, 1e-4));
    }

    #[test]
    fn im2col_conv_matches_direct(
        cin_g in 1usize..4, cout_g in 1usize..4, groups in 1usize..3,
        k in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..3,
        h in 4usize..10, w in 4usize..10,
        seed in any::<u64>()
    ) {
        let ctx = ExecCtx::sequential();
        let (cin, cout) = (cin_g * groups, cout_g * groups);
        let pad = k / 2;
        let x = rand_t(vec![1, cin, h, w], seed);
        let wt = rand_t(vec![cout, cin_g, k, k], seed ^ 4);
        let spec = ConvSpec {
            kernel: (k, k),
            stride: (stride, stride),
            pads: (pad, pad),
            groups,
        };
        let a = conv2d(&ctx, &x, &wt, None, &spec).unwrap();
        let b = conv2d_im2col(&ctx, &x, &wt, None, &spec).unwrap();
        prop_assert_eq!(a.shape(), b.shape());
        prop_assert!(close(a.data(), b.data(), 1e-4));
    }

    #[test]
    fn binary_broadcast_matches_scalar_loop(
        rows in 1usize..6, cols in 1usize..6, seed in any::<u64>()
    ) {
        let a = rand_t(vec![rows, cols], seed);
        let row = rand_t(vec![cols], seed ^ 5);
        let fast = binary_f32(&a, &row, |x, y| x + y).unwrap();
        for i in 0..rows {
            for j in 0..cols {
                let expect = a.data()[i * cols + j] + row.data()[j];
                prop_assert_eq!(fast.data()[i * cols + j], expect);
            }
        }
    }

    #[test]
    fn softmax_is_a_distribution(
        rows in 1usize..6, cols in 1usize..8, seed in any::<u64>()
    ) {
        let x = rand_t(vec![rows, cols], seed);
        let y = softmax(&x, -1).unwrap();
        for row in y.data().chunks(cols) {
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn transpose_is_an_involution(
        a in 1usize..5, b in 1usize..5, c in 1usize..5, seed in any::<u64>()
    ) {
        let x = rand_t(vec![a, b, c], seed);
        let perm = vec![2, 0, 1];
        let inverse = vec![1, 2, 0];
        let y = transpose(&x, &perm).unwrap();
        let back = transpose(&y, &inverse).unwrap();
        prop_assert_eq!(x, back);
    }

    #[test]
    fn split_concat_roundtrip(
        outer in 1usize..5, p1 in 1usize..5, p2 in 1usize..5, seed in any::<u64>()
    ) {
        let x = rand_t(vec![outer, p1 + p2], seed);
        let parts = split(&x, 1, &[p1, p2]).unwrap();
        let refs: Vec<&Tensor<f32>> = parts.iter().collect();
        let back = concat(&refs, 1).unwrap();
        prop_assert_eq!(x, back);
    }

    #[test]
    fn intra_op_pool_agrees_with_sequential(
        m in 8usize..24, k in 8usize..24, n in 8usize..24, seed in any::<u64>()
    ) {
        let seq = ExecCtx::sequential();
        let par = ExecCtx::with_intra_op(2);
        let a = rand_t(vec![m, k], seed);
        let b = rand_t(vec![k, n], seed ^ 6);
        let y1 = matmul(&seq, &a, &b).unwrap();
        let y2 = matmul(&par, &a, &b).unwrap();
        prop_assert!(close(y1.data(), y2.data(), 1e-4));
    }
}

// Copy-on-write sharing properties: a clone is a refcount bump until
// written, and a write through one handle can never leak into — or read
// torn state from — any other handle on the same buffer.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cow_clone_mutation_never_aliases(
        len in 1usize..64, idx_seed in any::<u64>(), seed in any::<u64>()
    ) {
        let t = rand_t(vec![len], seed);
        let before: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();

        let mut c = t.clone();
        prop_assert!(c.shares_data(&t), "clone must share until written");

        let i = (idx_seed as usize) % len;
        c.data_mut()[i] = f32::from_bits(t.data()[i].to_bits() ^ 1);
        prop_assert!(!c.shares_data(&t), "write must unshare the buffer");

        // The original is bit-for-bit untouched…
        let after: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&before, &after);
        // …and the clone differs exactly at the written element.
        for (j, (p, q)) in t.data().iter().zip(c.data()).enumerate() {
            if j == i {
                prop_assert_ne!(p.to_bits(), q.to_bits());
            } else {
                prop_assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    #[test]
    fn cow_reshape_shares_and_unshares_like_clone(
        r in 1usize..8, cpick in 1usize..8, seed in any::<u64>()
    ) {
        let t = rand_t(vec![r, cpick], seed);
        let mut v = t.reshaped(vec![cpick * r]).unwrap();
        prop_assert!(v.data_arc().as_ptr() == t.data_arc().as_ptr());
        v.data_mut()[0] += 1.0;
        prop_assert!(v.data_arc().as_ptr() != t.data_arc().as_ptr());
        // the reshape write never reaches the original
        let flat: Vec<u32> = t.data().iter().map(|x| x.to_bits()).collect();
        let orig: Vec<u32> = rand_t(vec![r, cpick], seed).data().iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(flat, orig);
    }
}

// ---------------------------------------------------------------------------
// The rewritten f32 kernels against the loops they replaced.
//
// `old` holds test-local copies of the previous kernels: a div/mod
// `unravel` per element, a bounds test per tap, an axpy GEMM. Each new
// kernel must produce the same bits: it may walk memory differently, but
// every output element's arithmetic chain is unchanged. NaN payloads are
// the one thing not compared — which operand's payload an `a + b` or
// `a * b` of two NaNs keeps is up to the compiler's operand order — so a
// NaN must meet a NaN and everything else must meet its exact bits.
// ---------------------------------------------------------------------------

mod old {
    use super::*;

    /// Convert a linear index into per-axis coordinates for `shape`.
    fn unravel(mut idx: usize, shape: &[usize], coords: &mut [usize]) {
        for i in (0..shape.len()).rev() {
            coords[i] = idx % shape[i];
            idx /= shape[i];
        }
    }

    /// Linear offset of `coords` within a tensor of the given strides, where
    /// `coords` may be longer than `strides` (leading axes are broadcast
    /// away) and any axis with extent 1 contributes 0.
    fn broadcast_offset(coords: &[usize], shape: &[usize], strides: &[usize]) -> usize {
        let lead = coords.len() - shape.len();
        let mut off = 0;
        for (i, (&s, &st)) in shape.iter().zip(strides).enumerate() {
            let c = if s == 1 { 0 } else { coords[lead + i] };
            off += c * st;
        }
        off
    }

    pub fn transpose(x: &Tensor<f32>, perm: &[usize]) -> Vec<f32> {
        let out_shape: Vec<usize> = perm.iter().map(|&p| x.shape()[p]).collect();
        let in_strides = x.strides();
        let perm_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        let mut coords = vec![0usize; x.rank()];
        (0..x.numel())
            .map(|idx| {
                unravel(idx, &out_shape, &mut coords);
                let off: usize = coords.iter().zip(&perm_strides).map(|(c, s)| c * s).sum();
                x.data()[off]
            })
            .collect()
    }

    pub fn reduce_mean(x: &Tensor<f32>, axes: &[isize]) -> Vec<f32> {
        let rank = x.rank();
        let mut reduce = vec![false; rank];
        for &a in axes {
            reduce[norm_axis(a, rank).unwrap()] = true;
        }
        let kept: Vec<usize> = (0..rank)
            .map(|i| if reduce[i] { 1 } else { x.shape()[i] })
            .collect();
        let count: usize = (0..rank)
            .filter(|&i| reduce[i])
            .map(|i| x.shape()[i])
            .product();
        let mut acc = vec![0.0f32; kept.iter().product()];
        let out_strides = strides_of(&kept);
        let mut coords = vec![0usize; rank];
        for idx in 0..x.numel() {
            unravel(idx, x.shape(), &mut coords);
            let off: usize = (0..rank)
                .map(|i| {
                    if reduce[i] {
                        0
                    } else {
                        coords[i] * out_strides[i]
                    }
                })
                .sum();
            acc[off] += x.data()[idx];
        }
        let inv = 1.0 / count.max(1) as f32;
        acc.iter().map(|v| v * inv).collect()
    }

    /// `extent`/`start`/`step` are per axis, already clamped.
    pub fn slice(x: &Tensor<f32>, extent: &[usize], start: &[usize], step: &[usize]) -> Vec<f32> {
        let in_strides = x.strides();
        let mut coords = vec![0usize; x.rank()];
        (0..extent.iter().product())
            .map(|idx| {
                unravel(idx, extent, &mut coords);
                let off: usize = (0..x.rank())
                    .map(|i| (start[i] + coords[i] * step[i]) * in_strides[i])
                    .sum();
                x.data()[off]
            })
            .collect()
    }

    /// `f` over the operands broadcast to `shape`: the general loop every
    /// elementwise fast path, `expand` and `where_select` used to share.
    pub fn broadcast_map<const N: usize>(
        shape: &[usize],
        operands: [(&[usize], &[f32]); N],
        f: impl Fn([f32; N]) -> f32,
    ) -> Vec<f32> {
        let strides = operands.map(|(s, _)| strides_of(s));
        let mut coords = vec![0usize; shape.len()];
        (0..shape.iter().product())
            .map(|idx| {
                unravel(idx, shape, &mut coords);
                f(std::array::from_fn(|i| {
                    let (s, d) = operands[i];
                    d[broadcast_offset(&coords, s, &strides[i])]
                }))
            })
            .collect()
    }

    pub fn pool(x: &Tensor<f32>, spec: &PoolSpec, is_max: bool) -> Vec<f32> {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (ho, wo) = (spec.out_extent(h, 0), spec.out_extent(w, 1));
        let (kh, kw) = spec.kernel;
        let (sh, sw) = spec.stride;
        let (ph, pw) = spec.pads;
        let mut out = vec![0.0f32; n * c * ho * wo];
        for img in 0..n * c {
            let xi = &x.data()[img * h * w..(img + 1) * h * w];
            let oi = &mut out[img * ho * wo..(img + 1) * ho * wo];
            for oy in 0..ho {
                for ox in 0..wo {
                    let iy0 = (oy * sh) as isize - ph as isize;
                    let ix0 = (ox * sw) as isize - pw as isize;
                    let mut acc = if is_max { f32::NEG_INFINITY } else { 0.0 };
                    let mut count = 0usize;
                    for ky in 0..kh {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = ix0 + kx as isize;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            let v = xi[iy as usize * w + ix as usize];
                            if is_max {
                                acc = acc.max(v);
                            } else {
                                acc += v;
                            }
                            count += 1;
                        }
                    }
                    oi[oy * wo + ox] = match (count, is_max) {
                        (0, _) => 0.0,
                        (_, true) => acc,
                        (_, false) => acc / count as f32,
                    };
                }
            }
        }
        out
    }

    pub fn mm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for kk in 0..k {
            for i in 0..m {
                let av = a[i * k + kk];
                for j in 0..n {
                    out[i * n + j] += av * b[kk * n + j];
                }
            }
        }
        out
    }

    pub fn conv2d(
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        bias: Option<&Tensor<f32>>,
        spec: &ConvSpec,
    ) -> Vec<f32> {
        let (n, c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (m, cg) = (w.shape()[0], w.shape()[1]);
        let (kh, kw) = spec.kernel;
        let (sh, sw) = spec.stride;
        let (ph, pw) = spec.pads;
        let ho = (h + 2 * ph - kh) / sh + 1;
        let wo = (wd + 2 * pw - kw) / sw + 1;
        let m_per_g = m / spec.groups;
        let mut out = vec![0.0f32; n * m * ho * wo];
        // The pointwise shape was, and is, one matrix product per batch
        // image with the bias added last.
        if (spec.kernel, spec.stride, spec.pads, spec.groups) == ((1, 1), (1, 1), (0, 0), 1) {
            for (xn, on) in x.data().chunks(c * h * wd).zip(out.chunks_mut(m * h * wd)) {
                on.copy_from_slice(&mm(w.data(), xn, m, c, h * wd));
                if let Some(b) = bias {
                    for (img, bv) in on.chunks_mut(h * wd).zip(b.data()) {
                        img.iter_mut().for_each(|v| *v += bv);
                    }
                }
            }
            return out;
        }
        for (idx, oimg) in out.chunks_mut(ho * wo).enumerate() {
            let (ni, mi) = (idx / m, idx % m);
            let xg = &x.data()[(ni * c + mi / m_per_g * cg) * h * wd..][..cg * h * wd];
            let wm = &w.data()[mi * cg * kh * kw..(mi + 1) * cg * kh * kw];
            oimg.fill(bias.map_or(0.0, |b| b.data()[mi]));
            for ci in 0..cg {
                let xc = &xg[ci * h * wd..(ci + 1) * h * wd];
                let wc = &wm[ci * kh * kw..(ci + 1) * kh * kw];
                for oy in 0..ho {
                    let iy0 = (oy * sh) as isize - ph as isize;
                    for ky in 0..kh {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        let xrow = &xc[iy as usize * wd..(iy as usize + 1) * wd];
                        let wrow = &wc[ky * kw..(ky + 1) * kw];
                        for ox in 0..wo {
                            let ix0 = (ox * sw) as isize - pw as isize;
                            let mut acc = 0.0f32;
                            for (kx, &wv) in wrow.iter().enumerate() {
                                let ix = ix0 + kx as isize;
                                if ix >= 0 && (ix as usize) < wd {
                                    acc += xrow[ix as usize] * wv;
                                }
                            }
                            oimg[oy * wo + ox] += acc;
                        }
                    }
                }
            }
        }
        out
    }
}

/// Small deterministic generator for the structured parts of a case
/// (shapes, permutations, axis subsets) that a flat strategy cannot express.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }
}

/// Random data with the awkward corners of f32 mixed in — signed zeros,
/// infinities, NaN, a subnormal, a huge value — one element in `one_in`.
/// Kernels that sum many inputs per output take them rarely, or every
/// output would be NaN and only NaN-ness would be compared.
fn awkward_t(shape: Vec<usize>, seed: u64, one_in: usize) -> Tensor<f32> {
    const SPECIAL: [f32; 8] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE / 2.0,
        3.0e38,
        -1.0,
    ];
    let mut rng = Rng::new(seed ^ 0x5EED);
    let (shape, mut data) = rand_t(shape, seed).into_parts();
    for v in &mut data {
        if rng.below(one_in) == 0 {
            *v = SPECIAL[rng.below(SPECIAL.len())];
        }
    }
    Tensor::new(shape, data).unwrap()
}

/// Index of the first element whose bits differ (NaN matches any NaN).
fn first_divergence(got: &[f32], want: &[f32]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} elements, expected {}", got.len(), want.len()));
    }
    got.iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()))
        .map(|i| format!("index {i}: {} vs {}", got[i], want[i]))
}

macro_rules! assert_same_bits {
    ($got:expr, $want:expr, $($ctx:tt)+) => {
        if let Some(why) = first_divergence($got, $want) {
            panic!("{}: {why}", format!($($ctx)+));
        }
    };
}

/// Shape of `rank` axes with extents 0–4; 0 and 1 are common on purpose.
fn small_shape(rng: &mut Rng, rank: usize) -> Vec<usize> {
    (0..rank)
        .map(|_| [0, 1, 1, 2, 3, 4, 2, 3][rng.below(8)])
        .collect()
}

/// `shape` with some axes dropped from the front and some set to 1: an
/// operand that broadcasts into `shape`.
fn broadcastable(rng: &mut Rng, shape: &[usize]) -> Vec<usize> {
    let lead = rng.below(shape.len() + 1);
    shape[lead..]
        .iter()
        .map(|&d| if rng.below(3) == 0 { 1 } else { d })
        .collect()
}

/// Whether the running CPU takes the AVX2 entry of `mm`/`conv2d`; prints
/// the skip notice once when it does not.
fn detected_entry_is_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return true;
    }
    eprintln!("AVX2 absent: the detected entry is the portable entry on this CPU");
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn transpose_matches_old_loop(rank in 0usize..6, seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let shape = small_shape(&mut rng, rank);
        let mut perm: Vec<usize> = (0..rank).collect();
        for i in (1..rank).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        let x = awkward_t(shape.clone(), seed, 8);
        let got = transpose(&x, &perm).unwrap();
        let want_shape: Vec<usize> = perm.iter().map(|&p| shape[p]).collect();
        prop_assert_eq!(got.shape(), &want_shape[..]);
        assert_same_bits!(got.data(), &old::transpose(&x, &perm), "{shape:?} perm {perm:?}");
    }

    #[test]
    fn reduce_mean_matches_old_loop(rank in 0usize..6, seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let shape = small_shape(&mut rng, rank);
        // A random subset of the axes (sometimes all of them), each spelled
        // either from the front or, negative, from the back.
        let all = rank > 0 && rng.below(4) == 0;
        let mut axes: Vec<isize> = Vec::new();
        for a in 0..rank {
            if all || rng.below(2) == 0 {
                let back = rng.below(2) == 0;
                axes.push(if back { a as isize - rank as isize } else { a as isize });
            }
        }
        let x = awkward_t(shape.clone(), seed, 40);
        let want = old::reduce_mean(&x, &axes);
        for keepdims in [true, false] {
            let got = reduce_mean(&x, &axes, keepdims).unwrap();
            let reduced = |i: usize| axes.iter().any(|&a| norm_axis(a, rank).unwrap() == i);
            let want_shape: Vec<usize> = (0..rank)
                .filter(|&i| keepdims || !reduced(i))
                .map(|i| if reduced(i) { 1 } else { shape[i] })
                .collect();
            prop_assert_eq!(got.shape(), &want_shape[..]);
            assert_same_bits!(got.data(), &want, "{shape:?} axes {axes:?} keepdims {keepdims}");
        }
    }

    #[test]
    fn slice_matches_old_loop(rank in 1usize..5, seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let shape: Vec<usize> = (0..rank).map(|_| 1 + rng.below(6)).collect();
        let x = awkward_t(shape.clone(), seed, 8);
        // Slice a random subset of the axes; the rest stay whole.
        let (mut axes, mut starts, mut ends, mut steps) = (vec![], vec![], vec![], vec![]);
        let (mut extent, mut start, mut step) = (shape.clone(), vec![0; rank], vec![1; rank]);
        for a in 0..rank {
            if rng.below(3) == 0 {
                continue;
            }
            let dim = shape[a];
            let (s, e, st) = (rng.below(dim + 1), rng.below(dim + 2), 1 + rng.below(3));
            axes.push(if rng.below(2) == 0 { a as isize } else { a as isize - rank as isize });
            // Ends past the extent (ONNX's "to the end") and negative starts.
            starts.push(if s > 0 && s < dim && rng.below(3) == 0 { s as i64 - dim as i64 } else { s as i64 });
            ends.push(if e > dim { i64::MAX } else { e as i64 });
            steps.push(st as i64);
            let e = e.min(dim);
            (start[a], step[a]) = (s, st);
            extent[a] = if e > s { (e - s).div_ceil(st) } else { 0 };
        }
        let got = slice(&x, &axes, &starts, &ends, &steps).unwrap();
        prop_assert_eq!(got.shape(), &extent[..]);
        assert_same_bits!(
            got.data(),
            &old::slice(&x, &extent, &start, &step),
            "{shape:?} axes {axes:?} starts {starts:?} ends {ends:?} steps {steps:?}"
        );
    }

    #[test]
    fn expand_and_broadcast_binary_match_old_loop(rank in 0usize..5, seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let shape = small_shape(&mut rng, rank);
        let (sa, sb, sc) = (
            broadcastable(&mut rng, &shape),
            broadcastable(&mut rng, &shape),
            broadcastable(&mut rng, &shape),
        );
        let (a, b) = (awkward_t(sa.clone(), seed, 8), awkward_t(sb.clone(), seed ^ 1, 8));

        let got = expand(&a, &shape).unwrap();
        let target = broadcast(&sa, &shape).unwrap();
        prop_assert_eq!(got.shape(), &target[..]);
        let want = old::broadcast_map(&target, [(&sa, a.data())], |[v]| v);
        assert_same_bits!(got.data(), &want, "expand {sa:?} to {shape:?}");

        // Every pair goes through `binary_f32`, so this also pins the
        // same-shape / scalar / suffix / prefix fast paths to the general loop.
        let out = broadcast(&sa, &sb).unwrap();
        let got = binary_f32(&a, &b, |p, q| p - q).unwrap();
        prop_assert_eq!(got.shape(), &out[..]);
        let want = old::broadcast_map(&out, [(&sa, a.data()), (&sb, b.data())], |[p, q]| p - q);
        assert_same_bits!(got.data(), &want, "{sa:?} - {sb:?}");

        let out3 = broadcast(&out, &sc).unwrap();
        let cond: Vec<bool> = (0..sc.iter().product()).map(|_| rng.below(2) == 0).collect();
        let cond_f32: Vec<f32> = cond.iter().map(|&c| f32::from(u8::from(c))).collect();
        let got = where_select(&Tensor::new(sc.clone(), cond).unwrap(), &a, &b).unwrap();
        prop_assert_eq!(got.shape(), &out3[..]);
        let want = old::broadcast_map(
            &out3,
            [(&sc, &cond_f32), (&sa, a.data()), (&sb, b.data())],
            |[c, p, q]| if c != 0.0 { p } else { q },
        );
        assert_same_bits!(got.data(), &want, "where {sc:?} ? {sa:?} : {sb:?}");
    }

    #[test]
    fn pools_match_old_loop(
        h in 1usize..20, w in 1usize..20,
        kh in 1usize..5, kw in 1usize..5,
        sh in 1usize..4, sw in 1usize..4,
        ph in 0usize..4, pw in 0usize..4,
        ceil_mode in any::<bool>(),
        seed in any::<u64>()
    ) {
        // Pads are not held below the kernel, so with ph >= kh the first
        // windows lie wholly in padding.
        let spec = PoolSpec { kernel: (kh, kw), stride: (sh, sw), pads: (ph, pw), ceil_mode };
        let x = awkward_t(vec![1, 2, h, w], seed, 24);
        if spec.out_extent(h, 0) == 0 || spec.out_extent(w, 1) == 0 {
            prop_assert!(max_pool(&x, &spec).is_err() && avg_pool(&x, &spec).is_err());
        } else {
            let got = max_pool(&x, &spec).unwrap();
            prop_assert_eq!(got.shape(), &[1, 2, spec.out_extent(h, 0), spec.out_extent(w, 1)]);
            assert_same_bits!(got.data(), &old::pool(&x, &spec, true), "max {h}x{w} {spec:?}");
            let got = avg_pool(&x, &spec).unwrap();
            assert_same_bits!(got.data(), &old::pool(&x, &spec, false), "avg {h}x{w} {spec:?}");
        }
    }

    /// m, k, n up to 69 cross every ragged edge of the register tile (4-row
    /// tiles; 16-, 8-, 4- and 1-column strips) on both entries; with two
    /// intra-op threads the larger cases also take the parallel splits.
    #[test]
    fn mm_matches_old_loop_on_both_entries(
        m in 1usize..70, k in 1usize..70, n in 1usize..70, seed in any::<u64>()
    ) {
        detected_entry_is_avx2();
        let a = awkward_t(vec![m, k], seed, 400);
        let b = awkward_t(vec![k, n], seed ^ 9, 400);
        let want = old::mm(a.data(), b.data(), m, k, n);
        for ctx in [ExecCtx::sequential(), ExecCtx::with_intra_op(2)] {
            let mut got = vec![f32::NAN; m * n];
            mm(&ctx, a.data(), b.data(), &mut got, m, k, n);
            assert_same_bits!(&got, &want, "detected entry {m}x{k}x{n}");
            got.fill(f32::NAN);
            mm_portable(&ctx, a.data(), b.data(), &mut got, m, k, n);
            assert_same_bits!(&got, &want, "portable entry {m}x{k}x{n}");
        }
    }

    #[test]
    fn conv_matches_old_loop_on_both_entries(
        cin_g in 1usize..4, cout_g in 1usize..4, groups in 1usize..4,
        kernel in prop::sample::select(vec![(1usize, 1usize), (3, 3), (5, 5), (7, 1), (1, 3)]),
        sh in 1usize..3, sw in 1usize..3,
        ph in 0usize..4, pw in 0usize..4,
        h in 1usize..12, w in 1usize..24,
        with_bias in any::<bool>(),
        seed in any::<u64>()
    ) {
        detected_entry_is_avx2();
        // One case in five is the pointwise shape that runs through `mm`.
        let (kernel, sh, sw, ph, pw, groups) = match seed % 5 {
            0 => ((1, 1), 1, 1, 0, 0, 1),
            _ => (kernel, sh, sw, ph, pw, groups),
        };
        let spec = ConvSpec { kernel, stride: (sh, sw), pads: (ph, pw), groups };
        let x = awkward_t(vec![2, cin_g * groups, h, w], seed, 200);
        let wt = awkward_t(vec![cout_g * groups, cin_g, kernel.0, kernel.1], seed ^ 4, 200);
        let bias = with_bias.then(|| awkward_t(vec![cout_g * groups], seed ^ 5, 8));
        if h + 2 * ph < kernel.0 || w + 2 * pw < kernel.1 {
            prop_assert!(conv2d(&ExecCtx::sequential(), &x, &wt, bias.as_ref(), &spec).is_err());
        } else {
            let want = old::conv2d(&x, &wt, bias.as_ref(), &spec);
            for ctx in [ExecCtx::sequential(), ExecCtx::with_intra_op(2)] {
                let got = conv2d(&ctx, &x, &wt, bias.as_ref(), &spec).unwrap();
                assert_same_bits!(got.data(), &want, "detected entry {h}x{w} {spec:?}");
                let got = conv2d_portable(&ctx, &x, &wt, bias.as_ref(), &spec).unwrap();
                assert_same_bits!(got.data(), &want, "portable entry {h}x{w} {spec:?}");
            }
        }
    }
}

/// The two parallel splits of `mm` at sizes the proptest range does not
/// reach — row blocks (many rows) and column tiles (few rows, wide, with a
/// ragged last tile) — on both entries, against the old loop.
#[test]
fn mm_parallel_splits_match_old_loop_on_both_entries() {
    let par = ExecCtx::with_intra_op(4);
    for (m, k, n, seed) in [(64, 96, 48, 11), (3, 128, 1100, 12), (9, 260, 521, 13)] {
        let a = awkward_t(vec![m, k], seed, 4000);
        let b = awkward_t(vec![k, n], seed + 100, 4000);
        let want = old::mm(a.data(), b.data(), m, k, n);
        let mut got = vec![f32::NAN; m * n];
        mm(&par, a.data(), b.data(), &mut got, m, k, n);
        assert_same_bits!(&got, &want, "detected entry {m}x{k}x{n}");
        got.fill(f32::NAN);
        mm_portable(&par, a.data(), b.data(), &mut got, m, k, n);
        assert_same_bits!(&got, &want, "portable entry {m}x{k}x{n}");
    }
}
