//! Measured ceilings of the host, the denominators for the kernel rates.
//! One thread, because every serve lane runs its kernels with one intra-op
//! thread. Built for the same target as the kernels (baseline x86-64, no
//! fused multiply-add), so the "FMA" loop is a multiply and a dependent add.

use std::hint::black_box;
use std::time::Instant;

/// Peak f32 multiply-add rate of one core in GFLOP/s: 64 independent
/// accumulator chains (enough to hide the add latency at any vector width
/// the compiler picks), best of five.
pub fn fma_gflops() -> f64 {
    const LANES: usize = 64;
    const ITERS: usize = 2_000_000;
    let mut best = 0.0f64;
    for _ in 0..5 {
        let mut acc = [0.5f32; LANES];
        let (mul, add) = (black_box(0.999_999f32), black_box(1e-7f32));
        let start = Instant::now();
        for _ in 0..ITERS {
            for a in acc.iter_mut() {
                *a = *a * mul + add;
            }
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(acc);
        best = best.max(2.0 * (LANES * ITERS) as f64 / secs / 1e9);
    }
    best
}

/// Sustained memory bandwidth of one core in GB/s: the STREAM triad
/// `a[i] = b[i] + s * c[i]` over three 32 MiB arrays (far beyond any
/// cache), counting 12 bytes per element, best of five.
pub fn stream_gb_s() -> f64 {
    const N: usize = 8 << 20;
    let mut a = vec![0.0f32; N];
    let b = vec![1.0f32; N];
    let c = vec![2.0f32; N];
    let s = black_box(3.0f32);
    let mut best = 0.0f64;
    for _ in 0..5 {
        let start = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + s * *z;
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(&mut a);
        best = best.max(12.0 * N as f64 / secs / 1e9);
    }
    best
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `model name` of the first CPU in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
