//! Every call the benchmark makes into the repo's crates.
//!
//! This is the one file that names `ramiel*` items, so it is the whole list
//! of public signatures a refactor must keep (or change together with a
//! benchmark issue); `benchmark/README.md` repeats the list. The end-to-end
//! metrics do not come through here: they use the process boundary only.
//! What does come through here is
//!
//! * set-up: build the eight zoo graphs and export them to `.onnx` bytes;
//! * the correctness reference: the sequential scalar executor;
//! * the layer walk of the traced run: one timed call per layer function.

use crate::gen::{Dtype, Elems, InputSpec, Tensor};
use crate::stats::median;
use crate::trace::Tracer;
use ramiel::{prepare, PipelineOptions};
use ramiel_cluster::{
    clustering_view, distance_to_end, hypercluster, linear_clustering, merge_clusters_fixpoint,
    StaticCost,
};
use ramiel_ir::tensor_data::Payload;
use ramiel_ir::{DType, Graph, OpKind, TensorData};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_obs::metrics::{bucket_bounds, bucket_index, parse_prometheus, ParsedSample};
use ramiel_obs::validate_chrome_trace;
use ramiel_onnx::{export_model, import_model};
use ramiel_runtime::{
    initializer_values, run_sequential_opts, run_sequential_profiled, Env, HyperPool, PlannedBatch,
    RunOptions, StealPlan, StealPool,
};
use ramiel_serve::{sha256, PlanSpec, Registry, ServeConfig, Server};
use ramiel_tensor::{ExecCtx, MemGauge, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The eight zoo models, keyed by their CLI spelling, in Table I order.
pub const ZOO: [&str; 8] = [
    "squeezenet",
    "googlenet",
    "inception-v3",
    "inception-v4",
    "yolo-v5",
    "retinanet",
    "bert",
    "nasnet",
];

fn kind_of(key: &str) -> ModelKind {
    match key {
        "squeezenet" => ModelKind::Squeezenet,
        "googlenet" => ModelKind::Googlenet,
        "inception-v3" => ModelKind::InceptionV3,
        "inception-v4" => ModelKind::InceptionV4,
        "yolo-v5" => ModelKind::YoloV5,
        "retinanet" => ModelKind::Retinanet,
        "bert" => ModelKind::Bert,
        "nasnet" => ModelKind::NasNet,
        other => panic!("`{other}` is not one of the eight zoo models"),
    }
}

/// The zoo graph at `ModelConfig::full()`, as `.onnx` file bytes.
pub fn export_zoo(key: &str) -> Vec<u8> {
    export_model(&build(kind_of(key), &ModelConfig::full()))
}

pub fn sha256_hex(bytes: &[u8]) -> String {
    sha256::hex_digest(bytes)
}

/// `Ok(complete span count)` when `ramiel_obs` accepts the trace.
pub fn check_chrome_trace(text: &str) -> Result<usize, String> {
    validate_chrome_trace(text).map(|s| s.complete_spans)
}

/// The samples of the `metrics` verb's Prometheus text.
pub fn parse_metrics(text: &str) -> Vec<ParsedSample> {
    parse_prometheus(text)
}

/// Inclusive bounds of the bucket of the program's latency histograms that
/// holds `v`: lets a scraped quantile be interpolated inside its bucket.
pub fn histogram_bucket_of(v: u64) -> (u64, u64) {
    bucket_bounds(bucket_index(v))
}

/// One model as the server will see it: the graph imported back from the
/// exported bytes, never the in-memory original.
pub struct Model {
    pub key: &'static str,
    pub onnx: Vec<u8>,
    graph: Graph,
}

fn to_value(t: &Tensor) -> Result<Value, String> {
    let payload = match &t.elems {
        Elems::F32(v) => Payload::F32(v.clone()),
        Elems::I64(v) => Payload::I64(v.clone()),
        Elems::Bool(v) => Payload::Bool(v.clone()),
    };
    Value::from_tensor_data(&TensorData {
        shape: t.shape.clone(),
        payload,
    })
    .map_err(|e| format!("input `{}`: {e:?}", t.name))
}

fn to_env(tensors: &[Tensor]) -> Result<Env, String> {
    tensors
        .iter()
        .map(|t| Ok((t.name.clone(), to_value(t)?)))
        .collect()
}

fn from_env(env: &Env) -> Vec<Tensor> {
    env.iter()
        .map(|(name, v)| {
            let td = v.to_tensor_data();
            Tensor {
                name: name.clone(),
                shape: td.shape,
                elems: match td.payload {
                    Payload::F32(v) => Elems::F32(v),
                    Payload::I64(v) => Elems::I64(v),
                    Payload::Bool(v) => Elems::Bool(v),
                },
            }
        })
        .collect()
}

impl Model {
    pub fn import(key: &'static str, onnx: Vec<u8>) -> Result<Model, String> {
        let graph = import_model(&onnx).map_err(|e| format!("{key}: {e}"))?;
        Ok(Model { key, onnx, graph })
    }

    pub fn nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    pub fn input_specs(&self) -> Vec<InputSpec> {
        self.graph
            .inputs
            .iter()
            .map(|i| InputSpec {
                name: i.name.clone(),
                dtype: match i.dtype {
                    DType::F32 => Dtype::F32,
                    DType::I64 => Dtype::I64,
                    DType::Bool => Dtype::Bool,
                },
                shape: i.shape.clone(),
            })
            .collect()
    }

    /// Reference outputs for each input set: the sequential executor on the
    /// scalar f32 backend, the one every other executor is held to.
    pub fn reference(&self, inputs: &[Vec<Tensor>]) -> Result<Vec<Vec<Tensor>>, String> {
        let ctx = ExecCtx::sequential();
        let init = initializer_values(&self.graph).map_err(|e| e.to_string())?;
        let opts = RunOptions::default().init_values(init);
        inputs
            .iter()
            .map(|tensors| {
                let out = run_sequential_opts(&self.graph, &to_env(tensors)?, &ctx, &opts)
                    .map_err(|e| format!("{}: reference run failed: {e}", self.key))?;
                Ok(from_env(&out))
            })
            .collect()
    }
}

/// How often one layer call is repeated: at least `min` times, then until
/// `budget` is spent or `max` is reached. The median is reported. `max` is
/// small because every call is a span, and `validate_chrome_trace` takes
/// time quadratic in the size of the trace.
#[derive(Clone, Copy)]
struct Reps {
    min: usize,
    max: usize,
    budget: Duration,
}

const QUICK: Reps = Reps {
    min: 5,
    max: 15,
    budget: Duration::from_millis(30),
};
const RUNS: Reps = Reps {
    min: 9,
    max: 25,
    budget: Duration::from_millis(300),
};

struct Walk<'a> {
    tracer: &'a Tracer,
    /// Span id of the layer being walked.
    layer: u64,
    cat: &'static str,
}

impl Walk<'_> {
    /// Median milliseconds of `f`, each call in its own span under the layer.
    fn time<T>(&self, name: &str, reps: Reps, mut f: impl FnMut() -> T) -> f64 {
        let begin = Instant::now();
        let mut ms = Vec::new();
        while ms.len() < reps.min || (ms.len() < reps.max && begin.elapsed() < reps.budget) {
            let (out, took) = self.tracer.scope(name, self.cat, self.layer, |_| f());
            black_box(out);
            ms.push(took.as_secs_f64() * 1e3);
        }
        median(&ms)
    }

    /// `f` takes its argument by value (a graph, mostly), so one copy per
    /// repetition is made outside the timed call.
    fn time_owned<A: Clone, T>(
        &self,
        name: &str,
        arg: &A,
        n: usize,
        mut f: impl FnMut(A) -> T,
    ) -> f64 {
        let mut copies: Vec<A> = (0..n).map(|_| arg.clone()).collect();
        let exactly = Reps {
            min: n,
            max: n,
            budget: Duration::ZERO,
        };
        self.time(name, exactly, || {
            f(copies.pop().expect("one copy per repetition"))
        })
    }
}

fn shape_of(g: &Graph, name: &str) -> Option<Vec<usize>> {
    g.value_info
        .get(name)
        .map(|i| i.shape.clone())
        .or_else(|| {
            g.inputs
                .iter()
                .find(|i| i.name == name)
                .map(|i| i.shape.clone())
        })
        .or_else(|| g.initializers.get(name).map(|t| t.shape.clone()))
}

/// Multiply-add work and bytes touched by one Gemm/MatMul/Conv node,
/// *computed from its tensor shapes*: 2 flops per multiply-add; bytes are
/// 4 x (both operands + the output), each counted once.
fn kernel_work(g: &Graph, node: &ramiel_ir::Node) -> Option<(f64, f64)> {
    let a = shape_of(g, node.inputs.first()?)?;
    let b = shape_of(g, node.inputs.get(1)?)?;
    let out = shape_of(g, node.outputs.first()?)?;
    let numel = |s: &[usize]| s.iter().product::<usize>() as f64;
    let inner = match &node.op {
        OpKind::Gemm { .. } | OpKind::MatMul => *a.last()? as f64,
        OpKind::Conv { kernel, groups, .. } => {
            (a.get(1)? / (*groups).max(1)) as f64 * (kernel.0 * kernel.1) as f64
        }
        _ => return None,
    };
    Some((
        2.0 * numel(&out) * inner,
        4.0 * (numel(&a) + numel(&b) + numel(&out)),
    ))
}

/// Rate of the dominant shape of one kernel family: every node whose work
/// equals the largest node's, pooled. Returns (GFLOP/s, GB/s), zeros when
/// the model has no such node.
fn dominant_rate(g: &Graph, node_ms: &[f64], family: fn(&OpKind) -> bool) -> (f64, f64) {
    let work: Vec<(usize, f64, f64)> = g
        .nodes
        .iter()
        .filter(|n| family(&n.op))
        .filter_map(|n| kernel_work(g, n).map(|(f, b)| (n.id, f, b)))
        .collect();
    let top = work.iter().map(|w| w.1).fold(0.0, f64::max);
    let (mut flops, mut bytes, mut ms) = (0.0, 0.0, 0.0);
    for &(id, f, b) in work.iter().filter(|w| w.1 == top) {
        flops += f;
        bytes += b;
        ms += node_ms[id];
    }
    if ms <= 0.0 {
        return (0.0, 0.0);
    }
    (flops / ms / 1e6, bytes / ms / 1e6)
}

/// The request as `serve::tcp` decodes it (its own struct is private; the
/// public pieces it is made of are `serde_json` and `Value::from_tensor_data`).
#[derive(Deserialize)]
struct WireRequest {
    #[allow(dead_code)]
    id: Option<u64>,
    #[allow(dead_code)]
    op: String,
    inputs: Option<BTreeMap<String, TensorData>>,
}

#[derive(Serialize)]
struct WireResponse {
    id: u64,
    ok: bool,
    outputs: Option<BTreeMap<String, TensorData>>,
}

pub struct WalkInput<'a> {
    pub model: &'a Model,
    /// Two input sets from the workload's pool (the second only feeds the
    /// batch-2 schedule).
    pub inputs: [&'a [Tensor]; 2],
    /// A real request line of the workload and the server's reply to it.
    pub request_line: &'a [u8],
    pub reply_line: &'a [u8],
    /// Directory the registry probe may write into.
    pub scratch: &'a Path,
}

/// Walk one model through every layer's public entry points, one span per
/// call, and return the layer metrics that come from inside the process.
pub fn walk(
    input: &WalkInput<'_>,
    tracer: &Tracer,
    parent: u64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let model = input.model;
    let g = &model.graph;
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", model.key);
    let layer = |name: &'static str, f: &mut dyn FnMut(&Walk<'_>) -> Result<(), String>| {
        tracer
            .scope(&format!("layer:{name}"), name, parent, |id| {
                f(&Walk {
                    tracer,
                    layer: id,
                    cat: name,
                })
            })
            .0
    };

    layer("onnx", &mut |w| {
        m.insert("onnx.bytes", model.onnx.len() as f64);
        m.insert(
            "onnx.import_ms",
            w.time("import_model", QUICK, || import_model(&model.onnx)),
        );
        Ok(())
    })?;

    let dist = distance_to_end(g, &StaticCost);
    let lc = linear_clustering(g, &dist);
    let clustering = merge_clusters_fixpoint(&lc, &dist);
    layer("cluster", &mut |w| {
        m.insert(
            "cluster.distance_ms",
            w.time("distance_to_end", QUICK, || distance_to_end(g, &StaticCost)),
        );
        m.insert(
            "cluster.lc_ms",
            w.time("linear_clustering", QUICK, || linear_clustering(g, &dist)),
        );
        m.insert(
            "cluster.merge_ms",
            w.time("merge_clusters_fixpoint", QUICK, || {
                merge_clusters_fixpoint(&lc, &dist)
            }),
        );
        m.insert(
            "cluster.hyper_ms",
            w.time("hypercluster(batch 2)", QUICK, || {
                hypercluster(&clustering, 2)
            }),
        );
        m.insert("cluster.clusters_before_merge", lc.num_clusters() as f64);
        m.insert(
            "cluster.clusters_after_merge",
            clustering.num_clusters() as f64,
        );
        m.insert(
            "cluster.cross_edges",
            clustering.cross_cluster_edges(g) as f64,
        );
        Ok(())
    })?;

    layer("verify", &mut |w| {
        let view = clustering_view(&clustering);
        let mut errors = false;
        m.insert(
            "verify.check_ms",
            w.time("verify", QUICK, || {
                errors |= ramiel_verify::verify(g, Some(&view)).has_errors();
            }),
        );
        if errors {
            return Err(format!("{}: ramiel_verify reports errors", model.key));
        }
        Ok(())
    })?;

    let init = initializer_values(g).map_err(|e| err("initializer_values", &e))?;
    layer("core", &mut |w| {
        let mut failed = None;
        m.insert(
            "core.prepare_ms",
            w.time_owned("prepare", g, 3, |graph| {
                if let Err(e) = prepare(graph, &PipelineOptions::default()) {
                    failed = Some(e.to_string());
                }
            }),
        );
        m.insert(
            "core.init_values_ms",
            w.time("initializer_values", QUICK, || initializer_values(g)),
        );
        failed.map_or(Ok(()), |e| Err(err("prepare", &e)))
    })?;

    layer("serve", &mut |w| {
        let mut failed = None;
        let servers: Vec<Server> = (0..3)
            .map(|_| Server::new(ServeConfig::default()))
            .collect();
        let mut next = servers.iter();
        m.insert(
            "serve.plan_load_ms",
            w.time_owned("Server::load", g, servers.len(), |graph| {
                let server = next.next().expect("one server per repetition");
                if let Err(e) = server.load(model.key, PlanSpec::new(graph)) {
                    failed = Some(e.to_string());
                }
            }),
        );
        servers.iter().for_each(Server::shutdown);
        if let Some(e) = failed {
            return Err(err("Server::load", &e));
        }

        let file = input.scratch.join(format!("{}.onnx", model.key));
        std::fs::write(&file, &model.onnx).map_err(|e| err("write model file", &e))?;
        let registry = Registry::new(input.scratch.join("registry"));
        let source = format!("file://{}", file.display());
        let pulled = registry
            .pull(&source, None)
            .map_err(|e| err("Registry::pull", &e))?;
        let mut hit = true;
        m.insert(
            "serve.registry.pull_ms",
            w.time("Registry::pull (pinned, cached)", QUICK, || {
                hit &= registry
                    .pull(&source, Some(&pulled.sha256))
                    .is_ok_and(|p| p.cache_hit);
            }),
        );
        if !hit {
            return Err(format!(
                "{}: a pinned pull missed the registry cache",
                model.key
            ));
        }
        let sha_ms = w.time("sha256::hex_digest", QUICK, || {
            sha256::hex_digest(&model.onnx)
        });
        m.insert(
            "serve.registry.sha256_mb_s",
            model.onnx.len() as f64 / 1e6 / (sha_ms / 1e3),
        );
        Ok(())
    })?;

    let env = to_env(input.inputs[0])?;
    let ctx = ExecCtx::sequential();
    let opts = RunOptions::default().init_values(Arc::clone(&init));
    let outputs =
        run_sequential_opts(g, &env, &ctx, &opts).map_err(|e| err("run_sequential", &e))?;

    layer("serve.tcp", &mut |w| {
        let request = std::str::from_utf8(input.request_line).map_err(|e| err("request", &e))?;
        let mut failed = None;
        m.insert(
            "serve.tcp.decode_ms",
            w.time("decode request", QUICK, || {
                let decoded = serde_json::from_str::<WireRequest>(request)
                    .map_err(|e| e.to_string())
                    .and_then(|r| r.inputs.ok_or_else(|| "no inputs".to_string()))
                    .and_then(|inputs| {
                        inputs
                            .values()
                            .map(|td| Value::from_tensor_data(td).map_err(|e| format!("{e:?}")))
                            .collect::<Result<Vec<Value>, String>>()
                    });
                match decoded {
                    Ok(values) => {
                        black_box(values);
                    }
                    Err(e) => failed = Some(e),
                }
            }),
        );
        m.insert(
            "serve.tcp.encode_ms",
            w.time("encode response", QUICK, || {
                serde_json::to_string(&WireResponse {
                    id: 0,
                    ok: true,
                    outputs: Some(
                        outputs
                            .iter()
                            .map(|(name, v)| (name.clone(), v.to_tensor_data()))
                            .collect(),
                    ),
                })
            }),
        );
        m.insert("serve.tcp.request_bytes", input.request_line.len() as f64);
        m.insert("serve.tcp.response_bytes", input.reply_line.len() as f64);
        failed.map_or(Ok(()), |e| Err(err("decode request", &e)))
    })?;

    let mut node_ms = vec![0.0; g.num_nodes()];
    layer("runtime", &mut |w| {
        let mut failed: Option<String> = None;
        let mut note = |r: Result<(), String>| {
            if let Err(e) = r {
                failed.get_or_insert(e);
            }
        };
        let seq_ms = w.time("run_sequential", RUNS, || {
            note(
                run_sequential_opts(g, &env, &ctx, &opts)
                    .map(drop)
                    .map_err(|e| e.to_string()),
            )
        });
        m.insert("runtime.seq_ms", seq_ms);

        // Per-node times and the share of wall time that is not kernel time.
        let mut per_node: Vec<Vec<f64>> = vec![Vec::new(); g.num_nodes()];
        let mut shares = Vec::new();
        w.time(
            "run_sequential_profiled",
            RUNS,
            || match run_sequential_profiled(g, &env, &ctx, &opts) {
                Ok((_, db)) => {
                    let mut busy = 0u64;
                    for r in db.records() {
                        busy += r.end_ns - r.start_ns;
                        per_node[r.node].push((r.end_ns - r.start_ns) as f64 / 1e6);
                    }
                    let wall = db
                        .worker_spans()
                        .first()
                        .map_or(0, |s| s.end_ns - s.start_ns);
                    if wall > 0 {
                        shares.push(1.0 - busy as f64 / wall as f64);
                    }
                }
                Err(e) => note(Err(e.to_string())),
            },
        );
        m.insert("runtime.overhead_share", median(&shares));
        for (slot, samples) in node_ms.iter_mut().zip(&per_node) {
            *slot = if samples.is_empty() {
                0.0
            } else {
                median(samples)
            };
        }

        let gauge = MemGauge::new();
        let gauged = ExecCtx::sequential().with_mem_gauge(Arc::clone(&gauge));
        note(
            run_sequential_opts(g, &env, &gauged, &opts)
                .map(drop)
                .map_err(|e| e.to_string()),
        );
        m.insert("runtime.peak_live_bytes", gauge.peak_bytes() as f64);

        // The standing hypercluster pool, driven the way a serve lane drives it.
        let planned =
            |batch: usize| PlannedBatch::new(g, hypercluster(&clustering, batch)).map(Arc::new);
        let pool = HyperPool::with_options(g, clustering.num_clusters(), &ctx, &opts);
        match (pool, planned(1), planned(2)) {
            (Ok(mut pool), Ok(plan1), Ok(plan2)) => {
                let one = Arc::new(vec![env.clone()]);
                let two = match to_env(input.inputs[1]) {
                    Ok(second) => Arc::new(vec![env.clone(), second]),
                    Err(e) => return Err(e),
                };
                note(
                    pool.run_batch(&plan1, &one)
                        .map(drop)
                        .map_err(|e| e.to_string()),
                );
                let sends = |p: &HyperPool| {
                    p.channel_stats().iter().fold((0u64, 0u64), |acc, e| {
                        (acc.0 + e.sends, acc.1 + e.copied_bytes)
                    })
                };
                let before = sends(&pool);
                note(
                    pool.run_batch(&plan1, &one)
                        .map(drop)
                        .map_err(|e| e.to_string()),
                );
                let after = sends(&pool);
                m.insert("runtime.channel_msgs", (after.0 - before.0) as f64);
                m.insert("runtime.channel_copied_bytes", (after.1 - before.1) as f64);
                let b1 = w.time("HyperPool::run_batch(1)", RUNS, || {
                    note(
                        pool.run_batch(&plan1, &one)
                            .map(drop)
                            .map_err(|e| e.to_string()),
                    )
                });
                let b2 = w.time("HyperPool::run_batch(2)", RUNS, || {
                    note(
                        pool.run_batch(&plan2, &two)
                            .map(drop)
                            .map_err(|e| e.to_string()),
                    )
                });
                m.insert("runtime.hyper_b1_ms", b1);
                m.insert("runtime.hyper_b2_ms", b2 / 2.0);
                m.insert("runtime.speedup_vs_seq", seq_ms / b1);
            }
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => note(Err(e.to_string())),
        }

        match StealPlan::new(g, &clustering, 1).map(Arc::new) {
            Ok(plan) => {
                let pool = StealPool::global();
                let one = [env.clone()];
                note(
                    pool.run_plan(&plan, &one, &ctx, &opts)
                        .map(drop)
                        .map_err(|e| e.to_string()),
                );
                let before = pool.stats();
                let mut runs = 0u64;
                let ms = w.time("StealPool::run_plan(1)", RUNS, || {
                    runs += 1;
                    note(
                        pool.run_plan(&plan, &one, &ctx, &opts)
                            .map(drop)
                            .map_err(|e| e.to_string()),
                    )
                });
                let after = pool.stats();
                m.insert("runtime.steal_b1_ms", ms);
                m.insert(
                    "runtime.steals",
                    (after.steals - before.steals) as f64 / runs as f64,
                );
                m.insert(
                    "runtime.idle_ms",
                    (after.idle_ns - before.idle_ns) as f64 / 1e6 / runs as f64,
                );
            }
            Err(e) => note(Err(e.to_string())),
        }
        failed.map_or(Ok(()), |e| Err(err("runtime", &e)))
    })?;

    let kernel_ms: f64 = node_ms.iter().sum();
    let mut by_kind: BTreeMap<&'static str, f64> = BTreeMap::new();
    for n in &g.nodes {
        *by_kind.entry(n.op.name()).or_default() += node_ms[n.id];
    }
    let top = by_kind.values().copied().fold(0.0, f64::max);
    let (gemm_gflops, gemm_gb_s) = dominant_rate(g, &node_ms, |op| {
        matches!(op, OpKind::Gemm { .. } | OpKind::MatMul)
    });
    let (conv_gflops, _) = dominant_rate(g, &node_ms, |op| matches!(op, OpKind::Conv { .. }));
    m.insert("tensor.kernel_ms_per_infer", kernel_ms);
    m.insert(
        "tensor.top_op_share",
        if kernel_ms > 0.0 {
            top / kernel_ms
        } else {
            0.0
        },
    );
    m.insert("tensor.gemm_gflops", gemm_gflops);
    m.insert("tensor.gemm_gb_s", gemm_gb_s);
    m.insert("tensor.conv_gflops", conv_gflops);
    Ok(m)
}
