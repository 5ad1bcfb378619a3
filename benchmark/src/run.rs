//! One run of one workload: the measured run (end-to-end metrics, tracing
//! off) and the traced run (per-layer metrics).

use crate::host;
use crate::layers::{self, WalkInput};
use crate::load::{cold_start, run_phase, Fixture, Kind, Phase, Stop, Workload};
use crate::scrape::{quantile_ms, scrape};
use crate::server::{cpu_ms, peak_rss_mib, Conn, ServerChild};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// (name, unit) of every end-to-end figure the measured run prints, in
/// report order. `fail_share` is not here because a bounded metric may never
/// be 0: it travels as the result's `failed` / `attempted`. Which of these
/// are bounded is `BENCHMARK.json`'s decision: a figure it does not list
/// under `end_to_end` was demoted, is printed as informational, and comes
/// out of the traced run as the per-layer `bench.<name>`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("cpu_ms_per_op", "ms"),
];

/// (name, unit) of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("host.nproc", "count"),
    ("host.fma_gflops", "GFLOP/s"),
    ("host.stream_gb_s", "GB/s"),
    ("onnx.import_ms", "ms"),
    ("onnx.bytes", "B"),
    ("verify.check_ms", "ms"),
    ("cluster.distance_ms", "ms"),
    ("cluster.lc_ms", "ms"),
    ("cluster.merge_ms", "ms"),
    ("cluster.hyper_ms", "ms"),
    ("cluster.clusters_before_merge", "count"),
    ("cluster.clusters_after_merge", "count"),
    ("cluster.cross_edges", "count"),
    ("core.prepare_ms", "ms"),
    ("core.init_values_ms", "ms"),
    ("serve.plan_load_ms", "ms"),
    ("serve.plan_evictions", "count"),
    ("serve.registry.pull_ms", "ms"),
    ("serve.registry.sha256_mb_s", "MB/s"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.batch_wait_p50_ms", "ms"),
    ("serve.execute_p50_ms", "ms"),
    ("serve.execute_p95_ms", "ms"),
    ("serve.respond_p50_ms", "ms"),
    ("serve.mean_batch", "count"),
    ("serve.batches", "count"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.fallbacks", "count"),
    ("serve.tcp.decode_ms", "ms"),
    ("serve.tcp.encode_ms", "ms"),
    ("serve.tcp.request_bytes", "B"),
    ("serve.tcp.response_bytes", "B"),
    ("serve.tcp.ping_p50_ms", "ms"),
    ("serve.tcp.remainder_ms", "ms"),
    ("runtime.seq_ms", "ms"),
    ("runtime.hyper_b1_ms", "ms"),
    ("runtime.hyper_b2_ms", "ms"),
    ("runtime.steal_b1_ms", "ms"),
    ("runtime.speedup_vs_seq", "ratio"),
    ("runtime.overhead_share", "share"),
    ("runtime.channel_msgs", "count"),
    ("runtime.channel_copied_bytes", "B"),
    ("runtime.steals", "count"),
    ("runtime.idle_ms", "ms"),
    ("runtime.peak_live_bytes", "B"),
    ("tensor.kernel_ms_per_infer", "ms"),
    ("tensor.top_op_share", "share"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.conv_gflops", "GFLOP/s"),
    ("tensor.gemm_gb_s", "GB/s"),
    ("obs.metrics_scrape_ms", "ms"),
    ("obs.trace_overhead_share", "share"),
    ("bench.samples", "count"),
    ("bench.client_cpu_share", "share"),
    ("bench.latency_p50_ms", "ms"),
    ("bench.latency_p95_ms", "ms"),
    ("bench.latency_p99_ms", "ms"),
    ("bench.throughput_ops_s", "1/s"),
    ("bench.peak_rss_mib", "MiB"),
    ("bench.cpu_ms_per_op", "ms"),
];

/// The per-layer counts that repeat exactly for a given seed.
pub const EXACT: [&str; 8] = [
    "onnx.bytes",
    "cluster.clusters_before_merge",
    "cluster.clusters_after_merge",
    "cluster.cross_edges",
    "serve.tcp.request_bytes",
    "serve.tcp.response_bytes",
    "runtime.channel_msgs",
    "runtime.channel_copied_bytes",
];

/// Where things are and how long the phases last.
pub struct Config {
    /// The `ramiel` binary of the commit under test.
    pub ramiel: PathBuf,
    /// `benchmark/`: `golden.json` is read from here, `out/` written here.
    pub dir: PathBuf,
    pub warmup: Duration,
    pub timed: Duration,
    /// Cold starts per measured run; `setup_s` is their median.
    pub cold_starts: usize,
}

pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// name -> (value, unit, samples behind it)
    pub metrics: Vec<(&'static str, f64, &'static str, usize)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Free-form lines for the human report.
    pub notes: Vec<String>,
    /// What `ramiel serve` printed about itself before it listened.
    pub server_banner: Vec<String>,
}

/// The run's private directory under `out/`, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(cfg: &Config) -> Result<Scratch, String> {
        let dir = cfg
            .dir
            .join("out")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        // The server is handed absolute paths, whatever it makes of its cwd.
        dir.canonicalize()
            .map(Scratch)
            .map_err(|e| format!("{}: {e}", dir.display()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn timed(d: Duration) -> impl Fn(Instant) -> Stop {
    move |start| Stop::At(start + d)
}

fn ensure_samples(phase: &Phase, what: &str) -> Result<(), String> {
    if phase.latencies_ms.is_empty() {
        return Err(format!(
            "{what}: no operation completed ({} attempted): {}",
            phase.attempted,
            phase.errors.join("; ")
        ));
    }
    Ok(())
}

/// The measured run: `cold_starts` cold starts (the last server stays up),
/// a warm-up, then the timed closed-loop phase with tracing off. Every
/// figure is taken over the whole timed phase.
pub fn measured_run(cfg: &Config, w: &'static Workload, seed: u64) -> Result<Outcome, String> {
    let scratch = Scratch::new(cfg)?;
    let fx = Fixture::build(w, seed, &scratch.0.join("models"), &cfg.dir)?;

    let mut setups = Vec::new();
    let mut server: Option<ServerChild> = None;
    for i in 0..cfg.cold_starts.max(1) {
        if let Some(previous) = server.take() {
            previous.shutdown();
        }
        let (s, secs) = cold_start(&fx, &cfg.ramiel, &scratch.0.join(format!("cache-{i}")))?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one cold start ran");

    run_phase(&fx, server.addr, timed(cfg.warmup), None);
    let cpu_before = cpu_ms(server.pid())?;
    let phase = run_phase(&fx, server.addr, timed(cfg.timed), None);
    let cpu_after = cpu_ms(server.pid())?;
    let peak_rss = peak_rss_mib(server.pid())?;
    let server_banner = server.banner.clone();
    server.shutdown();
    ensure_samples(&phase, w.name)?;

    let n = phase.latencies_ms.len();
    let value = |name: &str| match name {
        "latency_p50_ms" => (percentile(&phase.latencies_ms, 0.50), n),
        "latency_p95_ms" => (percentile(&phase.latencies_ms, 0.95), n),
        "throughput_ops_s" => (n as f64 / phase.elapsed_s, n),
        "setup_s" => (median(&setups), setups.len()),
        "peak_rss_mib" => (peak_rss, 1),
        "cpu_ms_per_op" => ((cpu_after - cpu_before) / n as f64, n),
        other => unreachable!("`{other}` is not an end-to-end metric"),
    };
    Ok(Outcome {
        workload: w.name,
        seed,
        traced: false,
        metrics: END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let (v, samples) = value(name);
                (name, v, unit, samples)
            })
            .collect(),
        attempted: phase.attempted,
        failed: phase.failed,
        notes: vec![format!(
            "fail_share {:.6} ({} of {} attempted)",
            phase.failed as f64 / phase.attempted.max(1) as f64,
            phase.failed,
            phase.attempted
        )],
        errors: phase.errors,
        server_banner,
    })
}

/// The traced run: a shortened untraced phase, the same phase again with
/// client spans and a `metrics`/`stats` scrape on either side, then the
/// in-process layer walk. Writes `out/trace-<workload>.json`.
pub fn traced_run(cfg: &Config, w: &'static Workload, seed: u64) -> Result<Outcome, String> {
    let scratch = Scratch::new(cfg)?;
    let fx = Fixture::build(w, seed, &scratch.0.join("models"), &cfg.dir)?;
    let tracer = Tracer::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes = Vec::new();

    let (server, _) = cold_start(&fx, &cfg.ramiel, &scratch.0.join("cache-0"))?;
    run_phase(&fx, server.addr, timed(cfg.warmup), None);
    // The untraced phase gives the demoted end-to-end figures and the base
    // of the tracing overhead.
    let quarter = cfg.timed / 4;
    let own_before = cpu_ms(std::process::id())?;
    let cpu_before = cpu_ms(server.pid())?;
    let untraced = run_phase(&fx, server.addr, timed(quarter), None);
    let cpu_after = cpu_ms(server.pid())?;
    let own_after = cpu_ms(std::process::id())?;
    ensure_samples(&untraced, w.name)?;

    let lanes: Vec<String> = fx.models.iter().map(|mf| mf.lane.clone()).collect();
    let mut control = Conn::connect(server.addr).map_err(|e| format!("control connection: {e}"))?;
    let before = scrape(&mut control, &lanes)?;
    let phase = run_phase(&fx, server.addr, timed(quarter), Some((&tracer, w.name)));
    let after = scrape(&mut control, &lanes)?;
    ensure_samples(&phase, w.name)?;
    let server_side = after.since(&before);

    let mut pings = Vec::new();
    for _ in 0..200 {
        pings.push(control.call("ping")?.1.as_secs_f64() * 1e3);
    }
    m.insert("bench.peak_rss_mib", peak_rss_mib(server.pid())?);
    let server_banner = server.banner.clone();
    server.shutdown();

    // Every `bench.*` figure describes the untraced phase.
    let n = untraced.latencies_ms.len();
    let p50 = percentile(&phase.latencies_ms, 0.50);
    let untraced_p50 = percentile(&untraced.latencies_ms, 0.50);
    m.insert("bench.samples", n as f64);
    m.insert("bench.latency_p50_ms", untraced_p50);
    m.insert(
        "bench.latency_p95_ms",
        percentile(&untraced.latencies_ms, 0.95),
    );
    m.insert(
        "bench.latency_p99_ms",
        percentile(&untraced.latencies_ms, 0.99),
    );
    m.insert("bench.throughput_ops_s", n as f64 / untraced.elapsed_s);
    m.insert("bench.cpu_ms_per_op", (cpu_after - cpu_before) / n as f64);
    let client_share = (own_after - own_before) / (untraced.elapsed_s * 1e3 * fx.conns() as f64);
    m.insert("bench.client_cpu_share", client_share);
    if client_share > 0.7 {
        notes.push(format!(
            "WARNING: the generator used {:.0}% of its threads' time; these numbers measure the generator",
            client_share * 100.0
        ));
    }
    if n < 1000 {
        notes.push(format!(
            "bench.latency_p99_ms rests on {n} samples (fewer than 1000): do not read it"
        ));
    }
    m.insert(
        "obs.trace_overhead_share",
        (p50 - untraced_p50) / untraced_p50,
    );
    m.insert(
        "obs.metrics_scrape_ms",
        median(&[before.metrics_scrape_ms, after.metrics_scrape_ms]),
    );

    let phases = ["queue", "batch", "execute", "respond"].map(|p| server_side.phase_ms(p, 0.5));
    let server_p50 = quantile_ms(&server_side.latency, 0.5);
    m.insert("serve.queue_wait_p50_ms", phases[0]);
    m.insert("serve.batch_wait_p50_ms", phases[1]);
    m.insert("serve.execute_p50_ms", phases[2]);
    m.insert(
        "serve.execute_p95_ms",
        server_side.phase_ms("execute", 0.95),
    );
    m.insert("serve.respond_p50_ms", phases[3]);
    m.insert(
        "serve.mean_batch",
        if server_side.batches > 0.0 {
            server_side.batched_requests / server_side.batches
        } else {
            0.0
        },
    );
    m.insert("serve.batches", server_side.batches);
    m.insert("serve.shed", server_side.shed);
    m.insert("serve.retries", server_side.retries);
    m.insert("serve.fallbacks", server_side.fallbacks);
    // Each verified cold_swap op loaded one plan; whatever did not make the
    // plan list longer pushed another plan out.
    let loads = if w.kind == Kind::ColdSwap {
        phase.latencies_ms.len() as f64
    } else {
        0.0
    };
    m.insert(
        "serve.plan_evictions",
        (loads - (after.models.len() as f64 - before.models.len() as f64)).max(0.0),
    );
    m.insert("serve.tcp.ping_p50_ms", percentile(&pings, 0.5));
    let remainder = p50 - server_p50;
    let residue = server_p50 - phases.iter().sum::<f64>();
    m.insert("serve.tcp.remainder_ms", remainder);
    notes.push(format!(
        "client p50 {p50:.4} ms = server phases {:.4} (queue {:.4} + batch-wait {:.4} + execute {:.4} + respond {:.4}) \
         + serve.tcp.remainder_ms {remainder:.4} + residue {residue:.4}",
        phases.iter().sum::<f64>(),
        phases[0],
        phases[1],
        phases[2],
        phases[3],
    ));

    m.insert("host.nproc", host::nproc() as f64);
    m.insert(
        "host.fma_gflops",
        tracer
            .scope("host.fma_gflops", "host", 0, |_| host::fma_gflops())
            .0,
    );
    m.insert(
        "host.stream_gb_s",
        tracer
            .scope("host.stream_gb_s", "host", 0, |_| host::stream_gb_s())
            .0,
    );

    // The layer walk, once per model of the workload; `cold_swap` reports
    // the mean over its eight models.
    let walks: Vec<BTreeMap<&'static str, f64>> = tracer
        .scope("layer walk", "bench", 0, |walk_span| {
            fx.models
                .iter()
                .zip(&phase.sample_replies)
                .map(|(mf, reply)| {
                    let reply = reply.as_deref().ok_or_else(|| {
                        format!(
                            "{}: the traced phase never reached this model",
                            mf.model.key
                        )
                    })?;
                    tracer
                        .scope(
                            &format!("model:{}", mf.model.key),
                            "bench",
                            walk_span,
                            |parent| {
                                layers::walk(
                                    &WalkInput {
                                        model: &mf.model,
                                        inputs: [&mf.inputs[0], &mf.inputs[1]],
                                        request_line: &mf.lines[0],
                                        reply_line: reply,
                                        scratch: &scratch.0,
                                    },
                                    &tracer,
                                    parent,
                                )
                            },
                        )
                        .0
                })
                .collect::<Result<Vec<_>, String>>()
        })
        .0?;
    for name in walks[0].keys() {
        let values: Vec<f64> = walks.iter().filter_map(|w| w.get(name).copied()).collect();
        m.insert(name, values.iter().sum::<f64>() / values.len() as f64);
    }
    let kernel_share = m["tensor.kernel_ms_per_infer"] / p50;
    notes.push(format!(
        "tensor.kernel_ms_per_infer / client p50 = {kernel_share:.3}; kernel rates against the host: \
         gemm {:.2} and conv {:.2} of {:.2} GFLOP/s, gemm {:.2} of {:.2} GB/s \
         (flops and bytes are computed from tensor shapes)",
        m["tensor.gemm_gflops"], m["tensor.conv_gflops"], m["host.fma_gflops"],
        m["tensor.gemm_gb_s"], m["host.stream_gb_s"],
    ));
    notes.push(format!(
        "runtime.speedup_vs_seq {:.3} = runtime.seq_ms {:.4} / runtime.hyper_b1_ms {:.4}",
        m["runtime.speedup_vs_seq"], m["runtime.seq_ms"], m["runtime.hyper_b1_ms"],
    ));
    notes.push(format!(
        "obs.trace_overhead_share {:+.4} = (traced p50 {p50:.4} - untraced p50 {untraced_p50:.4}) / untraced p50",
        m["obs.trace_overhead_share"],
    ));

    let trace = tracer.to_chrome(&format!("ramiel benchmark: {}", w.name));
    let spans =
        layers::check_chrome_trace(&trace).map_err(|e| format!("the trace is not valid: {e}"))?;
    let out = cfg.dir.join("out");
    let path = out.join(format!("trace-{}.json", w.name));
    std::fs::write(&path, &trace).map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!(
        "wrote {} ({spans} spans, validated)",
        path.display()
    ));

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            // Only the client's own figures rest on the phase's samples.
            let samples = if name.starts_with("bench.") { n } else { 0 };
            m.get(name)
                .map(|&v| (name, v, unit, samples))
                .ok_or_else(|| format!("the traced run produced no `{name}`"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Outcome {
        workload: w.name,
        seed,
        traced: true,
        metrics,
        attempted: untraced.attempted + phase.attempted,
        failed: untraced.failed + phase.failed,
        errors: untraced.errors.into_iter().chain(phase.errors).collect(),
        notes,
        server_banner,
    })
}
