//! `bench_json` — machine-readable benchmark summary.
//!
//! Runs a quick sequential-vs-parallel timing sweep, the batch-1
//! work-stealing guard (stealing must beat sequential on every model),
//! the disabled-obs and disabled-metrics overhead guards, and one
//! profile-guided reclustering comparison, then writes the lot as JSON. `scripts/bench.sh` calls this
//! and drops the result at the repo root as `BENCH_<date>.json`.
//!
//! ```sh
//! cargo run --release -p ramiel-bench --bin bench_json -- out.json [--full] [--iters N]
//! ```

use ramiel::obs::Obs;
use ramiel::{compile, PipelineOptions};
use ramiel_cluster::{distance_to_end, linear_clustering, merge_clusters_fixpoint};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{
    run, run_sequential, run_sequential_opts, simulate_clustering, synth_inputs, RunOptions,
    SimConfig,
};
use ramiel_tensor::{ExecCtx, MemGauge};
use serde::Serialize;
use std::slice::from_ref;
use std::time::Instant;

#[derive(Serialize)]
struct ModelRow {
    model: String,
    nodes: usize,
    clusters: usize,
    seq_ms: f64,
    par_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct StealingRow {
    model: String,
    nodes: usize,
    seq_ms: f64,
    steal_ms: f64,
    /// seq / steal at batch 1 — the guard: must stay ≥ 1.0 on every model.
    speedup: f64,
}

#[derive(Serialize)]
struct ObsOverhead {
    model: String,
    baseline_ms: f64,
    disabled_obs_ms: f64,
    enabled_obs_ms: f64,
    /// disabled / baseline — the guard: must stay ≈ 1.0.
    disabled_over_baseline: f64,
}

#[derive(Serialize)]
struct MetricsOverhead {
    /// ns per iteration of the bare value-generation loop (no metrics call).
    baseline_ns: f64,
    /// ns per `HistHandle::record` through a disabled registry's handle —
    /// one `Option` branch on a `None`.
    disabled_record_ns: f64,
    /// ns per `HistHandle::record` through an enabled registry's handle —
    /// bucket index + two relaxed atomics + a `fetch_max`.
    enabled_record_ns: f64,
    /// disabled_record_ns - baseline_ns — the guard: must stay under 5 ns,
    /// i.e. a disabled metrics handle on the serve hot path is free.
    disabled_minus_baseline_ns: f64,
}

#[derive(Serialize)]
struct GemmRow {
    shape: String,
    /// Min-of-rounds of a naive `i, j, kk` triple loop on the shape.
    naive_ms: f64,
    /// Min-of-rounds of `gemm::mm` (the register tile, detected entry).
    mm_ms: f64,
    /// naive / mm — the guard: must stay ≥ 2 on both shapes. Same
    /// per-element chain on both sides, so the ratio is what register
    /// tiling and the wider lanes buy, nothing else.
    speedup: f64,
}

#[derive(Serialize)]
struct BackendRow {
    model: String,
    /// Sequential-executor min-of-iters per kernel backend.
    scalar_ms: f64,
    quant_i8_ms: f64,
    /// scalar / quant-i8 — reported, not guarded: the i8 path trades
    /// per-call activation quantization for narrower arithmetic, and which
    /// side wins is shape-dependent.
    quant_speedup: f64,
}

#[derive(Serialize)]
struct ProfileFeedback {
    model: String,
    sampled_nodes: usize,
    ns_per_unit: u64,
    static_clusters: usize,
    measured_clusters: usize,
    /// Simulated makespans under the measured cost model (units).
    static_makespan: u64,
    measured_makespan: u64,
}

#[derive(Serialize)]
struct ZeroCopy {
    model: String,
    /// Buffer size used by the clone microbench, in bytes.
    clone_buffer_bytes: usize,
    /// ns to clone a `Value` holding that buffer — a refcount bump on the
    /// Arc-shared storage plus a shape-vector copy.
    value_clone_ns: f64,
    /// ns to deep-copy the same buffer — what `clone()` cost before the
    /// storage was shared, and what a channel send used to pay.
    deep_copy_ns: f64,
    /// Logical payload bytes shipped over cluster channels during one
    /// parallel inference (what a serializing transport would move).
    channel_bytes: u64,
    /// Bytes the senders actually copied for those messages (value headers
    /// + shape vectors; element buffers are shared).
    channel_copied_bytes: u64,
    /// channel_bytes / channel_copied_bytes — the regression guard:
    /// `bench_json` exits nonzero if this drops below 2.
    bytes_reduction: f64,
}

#[derive(Serialize)]
struct MemoryRow {
    model: String,
    /// `ramiel-analyze`'s static upper bound over the sequential order.
    estimate_bytes: u64,
    /// Measured gauge high-water mark with in-place reuse + liveness
    /// eviction (the default execution mode).
    peak_reuse_bytes: u64,
    /// Measured gauge high-water mark with `reuse: false` (no in-place
    /// rewriting, no eviction — every intermediate stays resident).
    peak_no_reuse_bytes: u64,
    /// `1 - reuse/no_reuse` — the guard: ≥ 0.25 on Squeezenet and BERT,
    /// and `peak_reuse_bytes` must never exceed `estimate_bytes`.
    reduction: f64,
}

#[derive(Serialize)]
struct ServeBench {
    model: String,
    /// Closed-loop client threads.
    concurrency: usize,
    /// Total requests per mode (concurrency × per-client).
    requests: u64,
    /// Throughput of batch-1 per-request execution: every request runs the
    /// parallel executor directly (fresh worker threads per call — the
    /// `ramiel run` path), same concurrency, same model, same clustering.
    per_request_rps: f64,
    per_request_p50_ms: f64,
    per_request_p99_ms: f64,
    /// Throughput through the serving layer: requests coalesced by the
    /// dynamic micro-batcher into hypercluster executions on the standing
    /// worker pool.
    batched_rps: f64,
    batched_p50_ms: f64,
    batched_p99_ms: f64,
    /// Mean achieved batch size under load (server's own histogram).
    mean_batch: f64,
    /// batched_rps / per_request_rps — the guard: must stay ≥ 1.5.
    speedup: f64,
    /// Responses differing from the sequential baseline — must be 0.
    mismatches: u64,
}

#[derive(Serialize)]
struct Summary {
    config: String,
    iters: usize,
    models: Vec<ModelRow>,
    gemm: Vec<GemmRow>,
    backends: Vec<BackendRow>,
    stealing: Vec<StealingRow>,
    memory: Vec<MemoryRow>,
    obs_overhead: ObsOverhead,
    metrics_overhead: MetricsOverhead,
    profile_feedback: ProfileFeedback,
    zero_copy: ZeroCopy,
    serve: ServeBench,
}

fn time_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3 / iters as f64
}

/// Min-of-iters timing: the right statistic for a guard comparing two
/// executors on the same host — the minimum is the least-noise sample,
/// so scheduler jitter can't manufacture a fake regression (or hide one).
fn time_min_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// One timed unit of backend kernel work: the f32 `mm` entry point for
/// ScalarF32, or the i8 quantize → integer-mm → dequantize pipeline for
/// QuantI8.
fn run_backend_mm(
    ctx: &ramiel_tensor::ExecCtx,
    a: &ramiel_tensor::Tensor<f32>,
    b: &ramiel_tensor::Tensor<f32>,
    out: &mut [f32],
) {
    use ramiel_runtime::KernelBackend;
    if ctx.backend() == KernelBackend::QuantI8 {
        std::hint::black_box(
            ramiel_tensor::kernels::quant::matmul_q(ctx, a, b).expect("quant matmul"),
        );
    } else {
        let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
        ramiel_tensor::kernels::gemm::mm(ctx, a.data(), b.data(), out, m, k, n);
        std::hint::black_box(out);
    }
}

/// The triple loop `gemm::mm` is guarded against: one ascending-`kk` chain
/// per output element, accumulator in a scalar.
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args.first().cloned();
    let full = args.iter().any(|a| a == "--full");
    let iters = args
        .iter()
        .position(|a| a == "--iters")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3usize)
        .max(1);
    let cfg = if full {
        ModelConfig::full()
    } else {
        ModelConfig::tiny()
    };
    let ctx = ExecCtx::sequential();

    let mut models = Vec::new();
    for kind in [
        ModelKind::Squeezenet,
        ModelKind::Googlenet,
        ModelKind::InceptionV3,
        ModelKind::Bert,
    ] {
        let c = compile(build(kind, &cfg), &PipelineOptions::default()).expect("pipeline");
        let inputs = synth_inputs(&c.graph, 42);
        let seq_ms = time_ms(iters, || {
            run_sequential(&c.graph, &inputs, &ctx).expect("seq");
        });
        let par_ms = time_ms(iters, || {
            run(
                &c.graph,
                &c.clustering,
                from_ref(&inputs),
                &ctx,
                &RunOptions::default(),
            )
            .single()
            .expect("par");
        });
        models.push(ModelRow {
            model: kind.name().to_string(),
            nodes: c.graph.num_nodes(),
            clusters: c.clustering.num_clusters(),
            seq_ms,
            par_ms,
            speedup: seq_ms / par_ms.max(1e-9),
        });
    }

    let minimum = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);

    // The f32 GEMM tile against a naive triple loop on the two shapes that
    // carry the tiny BERT (qkv projection, FFN expansion). Both sides are
    // sampled round-robin and the guard reads the *minimum* — the
    // least-contaminated estimate of the kernel's true cost — so a host
    // frequency dip or a noisy neighbor can only discard rounds, never
    // manufacture a ratio. A shape that still lands under the bar gets
    // re-measured up to two more times before the guard declares a
    // regression: a real regression fails every attempt, while a
    // loaded-host dip has three independent windows to clear.
    let mut gemm = Vec::new();
    for (label, m, k, n) in [
        ("BERT qkv mm 32x64x64", 32usize, 64usize, 64usize),
        ("BERT ffn mm 32x64x256", 32, 64, 256),
    ] {
        let a = ramiel_tensor::Value::random_f32(vec![m, k], 3);
        let b = ramiel_tensor::Value::random_f32(vec![k, n], 4);
        let (a, b) = (a.f32().expect("f32").data(), b.f32().expect("f32").data());
        let mut out = vec![0.0f32; m * n];
        // Each sample is `REPS` back-to-back products: one is ~10 µs, too
        // close to the clock's resolution to time alone.
        const REPS: usize = 50;
        let mut measure = || {
            let (mut naive, mut tiled) = (vec![], vec![]);
            for _ in 0..iters.max(5) + 1 {
                let start = Instant::now();
                for _ in 0..REPS {
                    naive_mm(a, b, &mut out, m, k, n);
                    std::hint::black_box(&mut out);
                }
                naive.push(start.elapsed().as_secs_f64() * 1e3 / REPS as f64);
                let start = Instant::now();
                for _ in 0..REPS {
                    ramiel_tensor::kernels::gemm::mm(&ctx, a, b, &mut out, m, k, n);
                    std::hint::black_box(&mut out);
                }
                tiled.push(start.elapsed().as_secs_f64() * 1e3 / REPS as f64);
            }
            // The first round is the warm-up.
            (minimum(&naive[1..]), minimum(&tiled[1..]))
        };
        let (mut naive_ms, mut mm_ms) = measure();
        for attempt in 0..2 {
            if naive_ms / mm_ms.max(1e-9) >= 2.0 {
                break;
            }
            eprintln!(
                "gemm: {label} at {:.2}x on attempt {} — re-measuring",
                naive_ms / mm_ms.max(1e-9),
                attempt + 1,
            );
            (naive_ms, mm_ms) = measure();
        }
        gemm.push(GemmRow {
            shape: label.to_string(),
            naive_ms,
            mm_ms,
            speedup: naive_ms / mm_ms.max(1e-9),
        });
    }
    for row in &gemm {
        if row.speedup < 2.0 {
            eprintln!(
                "gemm guard FAILED: gemm::mm ran {} only {:.2}x faster than a naive \
                 triple loop ({:.4} vs {:.4} ms, need >= 2x) — the register tile \
                 regressed",
                row.shape, row.speedup, row.mm_ms, row.naive_ms
            );
            std::process::exit(1);
        }
    }

    // Per-backend kernel costs on BERT's Gemm work, informational: the
    // dominant Gemm shapes of BERT-base at seq 128 straight through the
    // kernel entry points, and one whole-model run per backend. Samples
    // are interleaved round-robin and the minimum is reported.
    let backends = {
        use ramiel_runtime::KernelBackend;
        let rounds = iters.max(5);
        let mut rows = Vec::new();
        let row = |model: &str, scalar_ms: f64, quant_i8_ms: f64| BackendRow {
            model: model.to_string(),
            scalar_ms,
            quant_i8_ms,
            quant_speedup: scalar_ms / quant_i8_ms.max(1e-9),
        };
        for (label, m, k, n) in [
            ("BERT qkv mm 128x768x768", 128usize, 768usize, 768usize),
            ("BERT ffn mm 128x768x3072", 128, 768, 3072),
        ] {
            let a = ramiel_tensor::Value::random_f32(vec![m, k], 3);
            let b = ramiel_tensor::Value::random_f32(vec![k, n], 4);
            let (a, b) = (a.f32().expect("f32"), b.f32().expect("f32"));
            let mut out = vec![0.0f32; m * n];
            let ctxs = [ctx.clone(), ctx.with_backend(KernelBackend::QuantI8)];
            let mut samples = [vec![], vec![]];
            for c in &ctxs {
                run_backend_mm(c, a, b, &mut out); // warm-up
            }
            for _ in 0..rounds {
                for (i, c) in ctxs.iter().enumerate() {
                    let start = Instant::now();
                    run_backend_mm(c, a, b, &mut out);
                    samples[i].push(start.elapsed().as_secs_f64() * 1e3);
                }
            }
            let [sc, qu] = samples;
            rows.push(row(label, minimum(&sc), minimum(&qu)));
        }
        let bcfg = ModelConfig {
            hidden: 512,
            seq_len: 128,
            depth_pct: 9,
            ..ModelConfig::full()
        };
        let c =
            compile(build(ModelKind::Bert, &bcfg), &PipelineOptions::default()).expect("pipeline");
        let inputs = synth_inputs(&c.graph, 42);
        let opts: Vec<RunOptions> = KernelBackend::all()
            .iter()
            .map(|&b| RunOptions::default().backend(b))
            .collect();
        let mut samples = [vec![], vec![]];
        for o in &opts {
            run_sequential_opts(&c.graph, &inputs, &ctx, o).expect("seq"); // warm-up
        }
        for _ in 0..rounds {
            for (i, o) in opts.iter().enumerate() {
                let start = Instant::now();
                run_sequential_opts(&c.graph, &inputs, &ctx, o).expect("seq");
                samples[i].push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        let [sc, qu] = samples;
        rows.push(row(
            "BERT (whole model, hidden 512)",
            minimum(&sc),
            minimum(&qu),
        ));
        rows
    };

    // Work-stealing at batch 1 on every built-in model: the standing
    // StealPool (plan prebuilt, workers persistent) against the sequential
    // executor, min-of-iters on both sides. The guard is the executor's
    // whole pitch — task parallelism cheap enough to pay off on a single
    // request, no batching required — so stealing losing to sequential on
    // ANY model is a regression that fails the run.
    let mut stealing = Vec::new();
    {
        use ramiel_runtime::{StealPlan, StealPool};
        use std::sync::Arc;
        let pool = StealPool::global();
        let steal_iters = iters.max(5);
        let opts = RunOptions::default();
        for kind in ModelKind::all() {
            let c = compile(build(kind, &cfg), &PipelineOptions::default()).expect("pipeline");
            let inputs = synth_inputs(&c.graph, 42);
            let plan = Arc::new(StealPlan::new(&c.graph, &c.clustering, 1).expect("steal plan"));
            let one = [inputs.clone()];
            let seq_ms = time_min_ms(steal_iters, || {
                run_sequential(&c.graph, &inputs, &ctx).expect("seq");
            });
            let steal_ms = time_min_ms(steal_iters, || {
                pool.run_plan(&plan, &one, &ctx, &opts).expect("steal");
            });
            stealing.push(StealingRow {
                model: kind.name().to_string(),
                nodes: c.graph.num_nodes(),
                seq_ms,
                steal_ms,
                speedup: seq_ms / steal_ms.max(1e-9),
            });
        }
        for row in &stealing {
            if row.steal_ms > row.seq_ms {
                eprintln!(
                    "stealing guard FAILED: {} batch-1 work-stealing took {:.4} ms vs \
                     {:.4} ms sequential ({:.2}x) — the stealing executor must beat \
                     sequential at batch 1 on every model",
                    row.model, row.steal_ms, row.seq_ms, row.speedup
                );
                std::process::exit(1);
            }
        }
    }

    // Peak live bytes: the in-place reuse + liveness eviction path against
    // a keep-everything run, with ramiel-analyze's static bound as the
    // soundness reference.
    let mut memory = Vec::new();
    for kind in [
        ModelKind::Squeezenet,
        ModelKind::Googlenet,
        ModelKind::InceptionV3,
        ModelKind::Bert,
    ] {
        let c = compile(build(kind, &cfg), &PipelineOptions::default()).expect("pipeline");
        let inputs = synth_inputs(&c.graph, 42);
        let order = ramiel_ir::topo::topo_sort(&c.graph).expect("topo");
        let view = ramiel::verify::ScheduleView::single_batch(
            vec![order],
            ramiel::verify::ExecPolicy::InOrder,
        );
        let (est, _) = ramiel::analyze::memory::estimate_memory(&c.graph, &view);
        let measure = |opts: &RunOptions| {
            let gauge = MemGauge::new();
            let gctx = ExecCtx::sequential().with_mem_gauge(gauge.clone());
            run_sequential_opts(&c.graph, &inputs, &gctx, opts).expect("seq");
            gauge.peak_bytes()
        };
        let peak_reuse_bytes = measure(&RunOptions::default());
        let peak_no_reuse_bytes = measure(&RunOptions::default().reuse(false));
        let row = MemoryRow {
            model: kind.name().to_string(),
            estimate_bytes: est.peak_bytes,
            peak_reuse_bytes,
            peak_no_reuse_bytes,
            reduction: 1.0 - peak_reuse_bytes as f64 / peak_no_reuse_bytes.max(1) as f64,
        };
        if row.peak_reuse_bytes > row.estimate_bytes {
            eprintln!(
                "memory guard FAILED: {} measured peak {} B exceeds the static \
                 estimate {} B — the analyzer's bound is no longer sound",
                row.model, row.peak_reuse_bytes, row.estimate_bytes
            );
            std::process::exit(1);
        }
        if matches!(kind, ModelKind::Squeezenet | ModelKind::Bert) && row.reduction < 0.25 {
            eprintln!(
                "memory guard FAILED: in-place reuse cut {}'s peak live bytes by \
                 only {:.0}% ({} vs {} B, need >= 25%) — eviction or in-place \
                 marking regressed",
                row.model,
                row.reduction * 100.0,
                row.peak_reuse_bytes,
                row.peak_no_reuse_bytes
            );
            std::process::exit(1);
        }
        memory.push(row);
    }

    // Overhead guard: a disabled Obs handle must cost nothing measurable.
    let c = compile(
        build(ModelKind::Squeezenet, &cfg),
        &PipelineOptions::default(),
    )
    .expect("pipeline");
    let inputs = synth_inputs(&c.graph, 42);
    let baseline_ms = time_ms(iters, || {
        run(
            &c.graph,
            &c.clustering,
            from_ref(&inputs),
            &ctx,
            &RunOptions::default(),
        )
        .single()
        .expect("par");
    });
    let disabled = RunOptions::default().obs(Obs::disabled());
    let disabled_obs_ms = time_ms(iters, || {
        run(&c.graph, &c.clustering, from_ref(&inputs), &ctx, &disabled)
            .single()
            .expect("par");
    });
    let enabled_obs_ms = time_ms(iters, || {
        let obs = Obs::enabled();
        let opts = RunOptions::default().obs(obs.clone()).profile(true);
        run(&c.graph, &c.clustering, from_ref(&inputs), &ctx, &opts)
            .single()
            .expect("par");
    });
    let obs_overhead = ObsOverhead {
        model: "Squeezenet".to_string(),
        baseline_ms,
        disabled_obs_ms,
        enabled_obs_ms,
        disabled_over_baseline: disabled_obs_ms / baseline_ms.max(1e-9),
    };

    // Metrics hot path: the per-request latency/phase histograms sit on
    // every serve response, so `HistHandle::record` must be branch-cheap
    // when the registry is disabled and a handful of relaxed atomics when
    // it is not. Min-of-reps per mode so scheduler noise can't trip the
    // absolute-nanosecond guard.
    let metrics_overhead = {
        use ramiel::obs::Metrics;
        const LOOP: u64 = 2_000_000;
        const REPS: usize = 5;
        let time_ns = |f: &mut dyn FnMut(u64)| -> f64 {
            for i in 0..50_000u64 {
                f(i); // warm-up
            }
            let mut best = f64::INFINITY;
            for _ in 0..REPS {
                let start = Instant::now();
                for i in 0..LOOP {
                    f(i);
                }
                best = best.min(start.elapsed().as_nanos() as f64 / LOOP as f64);
            }
            best
        };
        // Same synthetic value stream in all three modes: a cheap mix that
        // spreads samples across histogram octaves like real latencies do.
        let gen = |i: u64| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 34;
        let baseline_ns = time_ns(&mut |i| {
            std::hint::black_box(gen(i));
        });
        let off = Metrics::disabled().histogram("bench_off_ns", "bench", &[]);
        let disabled_record_ns = time_ns(&mut |i| {
            off.record(std::hint::black_box(gen(i)));
        });
        let reg = Metrics::enabled();
        let on = reg.histogram("bench_on_ns", "bench", &[]);
        let enabled_record_ns = time_ns(&mut |i| {
            on.record(std::hint::black_box(gen(i)));
        });
        MetricsOverhead {
            baseline_ns,
            disabled_record_ns,
            enabled_record_ns,
            disabled_minus_baseline_ns: disabled_record_ns - baseline_ns,
        }
    };
    if metrics_overhead.disabled_minus_baseline_ns > 5.0 {
        eprintln!(
            "metrics guard FAILED: a disabled HistHandle::record costs {:.2} ns over \
             the bare loop ({:.2} vs {:.2} ns/op, need < 5 ns) — the disabled path \
             is no longer a single branch",
            metrics_overhead.disabled_minus_baseline_ns,
            metrics_overhead.disabled_record_ns,
            metrics_overhead.baseline_ns
        );
        std::process::exit(1);
    }

    // Fig. 10 feedback loop: measured profile → MeasuredCost → recluster.
    let profiled = RunOptions::default().profile(true);
    let db = run(&c.graph, &c.clustering, from_ref(&inputs), &ctx, &profiled)
        .profile
        .expect("profiled");
    let measured = db.measured_cost(&c.graph);
    let dist = distance_to_end(&c.graph, &measured);
    let tuned = merge_clusters_fixpoint(&linear_clustering(&c.graph, &dist), &dist);
    let sim_cfg = SimConfig {
        comm_latency: 8,
        dispatch_overhead: 0,
    };
    let base_sim = simulate_clustering(&c.graph, &c.clustering, &measured, &sim_cfg).expect("sim");
    let tuned_sim = simulate_clustering(&c.graph, &tuned, &measured, &sim_cfg).expect("sim");
    let profile_feedback = ProfileFeedback {
        model: "Squeezenet".to_string(),
        sampled_nodes: measured.sampled_nodes(),
        ns_per_unit: measured.ns_per_unit(),
        static_clusters: c.clustering.num_clusters(),
        measured_clusters: tuned.num_clusters(),
        static_makespan: base_sim.makespan,
        measured_makespan: tuned_sim.makespan,
    };

    // Zero-copy health: clone-vs-deep-copy microbench plus the
    // bytes-copied-per-inference guard on BERT's parallel executor.
    let zero_copy = {
        let clone_buffer_bytes = 4 << 20; // 4 MiB of f32s
        let v = ramiel_tensor::Value::random_f32(vec![clone_buffer_bytes / 4], 7);
        let micro_iters = 1000;
        let start = Instant::now();
        for _ in 0..micro_iters {
            std::hint::black_box(v.clone());
        }
        let value_clone_ns = start.elapsed().as_nanos() as f64 / micro_iters as f64;
        let data = v.f32().expect("f32 by construction").data();
        let deep_iters = 20;
        let start = Instant::now();
        for _ in 0..deep_iters {
            std::hint::black_box(data.to_vec());
        }
        let deep_copy_ns = start.elapsed().as_nanos() as f64 / deep_iters as f64;

        let c =
            compile(build(ModelKind::Bert, &cfg), &PipelineOptions::default()).expect("pipeline");
        let inputs = synth_inputs(&c.graph, 42);
        let profiled = RunOptions::default().profile(true);
        let db = run(&c.graph, &c.clustering, from_ref(&inputs), &ctx, &profiled)
            .profile
            .expect("profiled");
        let channel_bytes: u64 = db.channels().iter().map(|e| e.bytes).sum();
        let channel_copied_bytes: u64 = db.channels().iter().map(|e| e.copied_bytes).sum();
        ZeroCopy {
            model: "BERT".to_string(),
            clone_buffer_bytes,
            value_clone_ns,
            deep_copy_ns,
            channel_bytes,
            channel_copied_bytes,
            bytes_reduction: channel_bytes as f64 / channel_copied_bytes.max(1) as f64,
        }
    };
    if zero_copy.channel_bytes > 0 && zero_copy.bytes_reduction < 2.0 {
        eprintln!(
            "zero-copy guard FAILED: channel sends copied {} of {} payload bytes \
             ({}x reduction, need >= 2x) — sends are deep-copying again",
            zero_copy.channel_copied_bytes, zero_copy.channel_bytes, zero_copy.bytes_reduction
        );
        std::process::exit(1);
    }

    // Serving: closed-loop load through the serving layer (plan cache +
    // standing pool + dynamic micro-batching) vs batch-1 per-request
    // execution (each request runs the parallel executor directly, spawning
    // its workers per call, as `ramiel run` does). Same model, same
    // clustering, same client count — the delta is what the serving
    // subsystem buys over executing every request on its own.
    let serve = {
        use ramiel_bench::{baseline_outputs, closed_loop_load, per_request_load};
        use ramiel_serve::{PlanSpec, ServeConfig, Server};
        use std::sync::Arc;
        use std::time::Duration;

        let kind = ModelKind::Squeezenet;
        let prepared =
            ramiel::prepare(build(kind, &cfg), &PipelineOptions::default()).expect("pipeline");
        let graph = prepared.scheduled.graph.clone();
        let clustering = prepared.scheduled.clustering.clone();
        let concurrency = 8;
        let per_client = 24.max(iters * 8);
        let expected = Arc::new(baseline_outputs(&graph, concurrency, per_client));

        let per_request = per_request_load(&graph, &clustering, &expected, concurrency, per_client);

        let max_batch = concurrency;
        let server = Arc::new(Server::new(ServeConfig {
            max_batch,
            max_delay: Duration::from_millis(2),
            ..ServeConfig::default()
        }));
        let spec = PlanSpec {
            clustering: Some(clustering),
            batch_sizes: (1..=max_batch).collect(),
            init_values: Some(Arc::clone(&prepared.init_values)),
            ..PlanSpec::new(graph.clone())
        };
        server.load(kind.name(), spec).expect("load");
        let batched = closed_loop_load(
            &server,
            kind.name(),
            &graph,
            &expected,
            concurrency,
            per_client,
        );
        server.shutdown();

        ServeBench {
            model: kind.name().to_string(),
            concurrency,
            requests: (concurrency * per_client) as u64,
            per_request_rps: per_request.throughput_rps,
            per_request_p50_ms: per_request.p50_ms,
            per_request_p99_ms: per_request.p99_ms,
            batched_rps: batched.throughput_rps,
            batched_p50_ms: batched.p50_ms,
            batched_p99_ms: batched.p99_ms,
            mean_batch: batched.mean_batch,
            speedup: batched.throughput_rps / per_request.throughput_rps.max(1e-9),
            mismatches: per_request.mismatches
                + batched.mismatches
                + per_request.failed
                + batched.failed,
        }
    };
    if serve.mismatches > 0 {
        eprintln!(
            "serve guard FAILED: {} responses diverged from the sequential baseline (or failed)",
            serve.mismatches
        );
        std::process::exit(1);
    }
    if serve.speedup < 1.5 {
        eprintln!(
            "serve guard FAILED: dynamic batching gained only {:.2}x throughput over \
             batch-1 per-request execution ({:.1} vs {:.1} req/s, need >= 1.5x)",
            serve.speedup, serve.batched_rps, serve.per_request_rps
        );
        std::process::exit(1);
    }

    let summary = Summary {
        config: if full { "full" } else { "tiny" }.to_string(),
        iters,
        models,
        gemm,
        backends,
        stealing,
        memory,
        obs_overhead,
        metrics_overhead,
        profile_feedback,
        zero_copy,
        serve,
    };
    let json = serde_json::to_string_pretty(&summary).expect("serialize");
    match out_path {
        Some(p) => {
            std::fs::write(&p, &json).expect("write summary");
            eprintln!("wrote {p}");
        }
        None => println!("{json}"),
    }
}
