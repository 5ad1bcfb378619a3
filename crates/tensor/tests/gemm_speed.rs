//! The register-tiled GEMM against a naive triple loop, by time: on the two
//! shapes that carry the tiny BERT (qkv projection, FFN expansion)
//! `gemm::mm` must run at least twice as fast as an `i, j, kk` loop with
//! the same per-element chain, so the ratio is what register tiling and the
//! wider lanes buy. Release builds only: a debug build times the bounds
//! checks, not the tile.

#![cfg(not(debug_assertions))]

use ramiel_tensor::kernels::gemm::mm;
use ramiel_tensor::{ExecCtx, Value};
use std::hint::black_box;
use std::time::Instant;

/// One ascending-`kk` chain per output element, accumulator in a scalar.
fn naive_mm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

#[test]
fn mm_is_at_least_twice_a_naive_triple_loop() {
    // One product is ~10 µs, too close to the clock's resolution to time
    // alone, so a sample is `REPS` back-to-back products.
    const REPS: usize = 50;
    const ROUNDS: usize = 6;
    let ctx = ExecCtx::sequential();
    for (m, k, n) in [(32usize, 64usize, 64usize), (32, 64, 256)] {
        let a = Value::random_f32(vec![m, k], 3);
        let b = Value::random_f32(vec![k, n], 4);
        let (a, b) = (a.f32().unwrap().data(), b.f32().unwrap().data());
        let mut out = vec![0.0f32; m * n];
        let mut time = |f: &mut dyn FnMut(&mut [f32])| {
            let start = Instant::now();
            for _ in 0..REPS {
                f(&mut out);
                black_box(&mut out);
            }
            start.elapsed().as_secs_f64()
        };
        // Both sides are sampled round-robin after one warm-up round and
        // each keeps its minimum, so a host frequency dip or a noisy
        // neighbour can only discard rounds, never manufacture a ratio.
        let mut ratio = || {
            let (mut naive, mut tiled) = (f64::INFINITY, f64::INFINITY);
            for round in 0..=ROUNDS {
                let n_s = time(&mut |o| naive_mm(a, b, o, m, k, n));
                let t_s = time(&mut |o| mm(&ctx, a, b, o, m, k, n));
                if round > 0 {
                    (naive, tiled) = (naive.min(n_s), tiled.min(t_s));
                }
            }
            naive / tiled
        };
        // A real regression fails every attempt; a loaded host gets three
        // independent windows to clear the bar.
        let mut got = ratio();
        for _ in 0..2 {
            if got >= 2.0 {
                break;
            }
            got = ratio();
        }
        assert!(
            got >= 2.0,
            "gemm::mm on {m}x{k}x{n} ran only {got:.2}x a naive triple loop (need >= 2x): \
             the register tile regressed"
        );
    }
}
