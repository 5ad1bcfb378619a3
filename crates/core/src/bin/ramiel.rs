//! `ramiel` — command-line front end for the pipeline.
//!
//! ```text
//! ramiel models                          list built-in models
//! ramiel report                          Table-I-style parallelism metrics
//! ramiel compile <model> [flags]         run the pipeline, emit Python code
//! ramiel run <model> [flags]             execute seq/parallel and time it
//! ramiel profile <model> [flags]         profiled run on four executor lanes,
//!                                        emits a Chrome/Perfetto trace plus
//!                                        cost-model accuracy + reclustering
//! ramiel check <model|all> [flags]       statically verify the schedule
//! ramiel analyze <model|all> [flags]     tensor lifetimes, static peak
//!                                        memory, happens-before channel
//!                                        lints (`--json` for machine use)
//! ramiel export <model> <path>           save a model as .rmodel.json, or
//!                                        as ONNX with --onnx / a .onnx path
//! ramiel pull <url> [--sha256 H]         fetch a model into the content-
//!                                        addressed cache (file:// or http://)
//! ramiel fileserver <dir> [--port N]     loopback static file server (CI)
//! ramiel serve <model> [flags]           dynamic-batching inference server
//!                                        (newline-delimited JSON over TCP);
//!                                        <model> may be a .onnx path or a
//!                                        URL pulled through the registry
//!                                        (--sha256 pins the digest)
//! ramiel request [flags]                 send requests to a running server
//! ramiel top [flags]                     live metrics table for a running
//!                                        server (polls the `metrics` verb)
//! ```
//!
//! Only `compile` (and `fuzz`) emits Python. `run`, `profile`, `simulate`,
//! `check`, `analyze` and `serve` stop at the schedule (`ramiel::schedule` /
//! `ramiel::prepare`): same clustering and summary lines, no code generated;
//! their `compile time:` line is the schedule stage alone.
//!
//! `<model>` is a built-in name (`squeezenet`, `googlenet`, `inception-v3`,
//! `inception-v4`, `yolo-v5`, `bert`, `retinanet`, `nasnet`) or a path to a
//! model file — `.rmodel.json`, `.rmodel` text, or binary `.onnx` (all
//! three route through the same loader).
//!
//! Flags: `--prune` (const-prop + DCE), `--clone` (task cloning),
//! `--batch N` + `--switched` (hyperclustering), `--intra-op N` (rayon
//! intra-op threads), `--iters N`, `--mode <seq|par|both>` (`run`: which
//! side to time; with `--batch N` both sides run N samples and report
//! ms/sample), `--out DIR`, `--tiny` (reduced model), `--deny-warnings`
//! (`check`: warnings also fail the run).
//!
//! Serving flags (`serve`): `--port N` (default 7878, 0 = ephemeral),
//! `--max-batch N` (micro-batch bound, default 8), `--max-delay-ms N`
//! (batch window, default 2), `--queue-cap N` (default 128), `--shed`
//! (reject on full queue instead of blocking). Client flags (`request`):
//! `--port N`, `--op <ping|infer_synth|stats|metrics|trace|load|shutdown>`,
//! `--seed N`, `--count N`, `--deadline-ms N`; `--op load` hot-swaps a model
//! into the running server (`--source <ref>`, optional `--sha256` pin) and
//! prints the new plan version. The `metrics` op prints the
//! server's Prometheus exposition; `trace` prints (and validates) a Chrome
//! trace of recent requests. `ramiel top` takes `--port N`,
//! `--interval-ms N` (default 1000) and `--frames N` (0 = forever).
//!
//! Chaos flags (`run` only): `--chaos-seed N` derives a deterministic
//! fault plan and executes under the supervisor, `--chaos-faults N` sets
//! how many faults the plan holds (default 3), `--max-retries N` bounds
//! supervised retries (default 2), `--fallback` re-runs sequentially once
//! retries are exhausted.
//!
//! `--executor <channel|stealing>` (`run`, `analyze`) picks the parallel
//! executor: `channel` (default) is the paper's one-thread-per-cluster
//! channel dataflow; `stealing` runs the graph on the persistent
//! work-stealing pool with clusters demoted to locality hints. Chaos flags
//! compose with it. Under `analyze`, `--executor stealing` analyzes the
//! dynamic schedule's estimate-only view (sound first-ready memory bound,
//! no channel lints — the executor has no channels to lint).
//!
//! `ramiel check` runs the pipeline, then statically verifies the resulting
//! `(graph, schedule)` pair with `ramiel-verify`: partition coverage, cycle
//! analysis, in-order soundness, channel deadlock-freedom, shape honesty,
//! plus advisory lints. Exit code is non-zero on any error (and on warnings
//! under `--deny-warnings`); advice never fails the run. `check all` sweeps
//! every built-in model through batch-1, plain batch-4 and switched batch-4
//! pipelines.

use ramiel::diag::Gate;
use ramiel::{
    compile, schedule, HyperMode, PipelineOptions, PipelineReport, ScheduledModel, Scheduler,
};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{
    run, run_sequential, run_sequential_opts, synth_inputs, Engine, Env, RunOptions, Schedule,
};
use ramiel_tensor::ExecCtx;
use std::process::ExitCode;
use std::slice::from_ref;
use std::sync::Arc;
use std::time::Instant;

fn parse_model(name: &str, cfg: &ModelConfig) -> Result<ramiel_ir::Graph, String> {
    match builtin_kind(name) {
        Some(k) => Ok(build(k, cfg)),
        // Unified loader: JSON / text `.rmodel` and binary `.onnx` all route
        // through `ramiel_onnx::load_model`, so every verb accepts any of
        // the three encodings.
        None => ramiel_onnx::load_model(name).map_err(|e| not_loadable(name, e)),
    }
}

/// The zoo model a CLI model argument names, if it names one.
fn builtin_kind(name: &str) -> Option<ModelKind> {
    match name.to_ascii_lowercase().as_str() {
        "squeezenet" => Some(ModelKind::Squeezenet),
        "googlenet" => Some(ModelKind::Googlenet),
        "inception-v3" | "inceptionv3" => Some(ModelKind::InceptionV3),
        "inception-v4" | "inceptionv4" => Some(ModelKind::InceptionV4),
        "yolo-v5" | "yolo" | "yolov5" => Some(ModelKind::YoloV5),
        "bert" => Some(ModelKind::Bert),
        "retinanet" => Some(ModelKind::Retinanet),
        "nasnet" => Some(ModelKind::NasNet),
        _ => None,
    }
}

fn not_loadable(name: &str, e: ramiel_onnx::LoadError) -> String {
    format!("`{name}` is not a built-in model or loadable file: {e}")
}

struct Flags {
    prune: bool,
    clone: bool,
    batch: usize,
    switched: bool,
    intra_op: usize,
    iters: usize,
    out: Option<String>,
    tiny: bool,
    mode: String,
    scheduler: Scheduler,
    deny_warnings: bool,
    chaos_seed: Option<u64>,
    chaos_faults: usize,
    max_retries: u32,
    fallback: bool,
    port: u16,
    max_batch: usize,
    max_delay_ms: u64,
    queue_cap: usize,
    shed: bool,
    op: String,
    seed: u64,
    count: usize,
    deadline_ms: Option<u64>,
    json: bool,
    stealing: bool,
    interval_ms: u64,
    frames: usize,
    sha256: Option<String>,
    cache: Option<String>,
    onnx: bool,
    source: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        prune: false,
        clone: false,
        batch: 1,
        switched: false,
        intra_op: 1,
        iters: 3,
        out: None,
        tiny: false,
        mode: "both".into(),
        scheduler: Scheduler::LcMerge,
        deny_warnings: false,
        chaos_seed: None,
        chaos_faults: 3,
        max_retries: 2,
        fallback: false,
        port: 7878,
        max_batch: 8,
        max_delay_ms: 2,
        queue_cap: 128,
        shed: false,
        op: "infer_synth".into(),
        seed: 0,
        count: 1,
        deadline_ms: None,
        json: false,
        stealing: false,
        interval_ms: 1000,
        frames: 0,
        sha256: None,
        cache: None,
        onnx: false,
        source: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--prune" => f.prune = true,
            "--onnx" => f.onnx = true,
            "--sha256" => f.sha256 = Some(value("--sha256")?),
            "--cache" => f.cache = Some(value("--cache")?),
            "--source" => f.source = Some(value("--source")?),
            "--deny-warnings" => f.deny_warnings = true,
            "--json" => f.json = true,
            "--clone" => f.clone = true,
            "--switched" => f.switched = true,
            "--tiny" => f.tiny = true,
            "--batch" => {
                f.batch = value("--batch")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?
            }
            "--intra-op" => {
                f.intra_op = value("--intra-op")?
                    .parse()
                    .map_err(|e| format!("--intra-op: {e}"))?
            }
            "--iters" => {
                f.iters = value("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?
            }
            "--fallback" => f.fallback = true,
            "--chaos-seed" => {
                f.chaos_seed = Some(
                    value("--chaos-seed")?
                        .parse()
                        .map_err(|e| format!("--chaos-seed: {e}"))?,
                )
            }
            "--chaos-faults" => {
                f.chaos_faults = value("--chaos-faults")?
                    .parse()
                    .map_err(|e| format!("--chaos-faults: {e}"))?
            }
            "--max-retries" => {
                f.max_retries = value("--max-retries")?
                    .parse()
                    .map_err(|e| format!("--max-retries: {e}"))?
            }
            "--out" => f.out = Some(value("--out")?),
            "--mode" => {
                f.mode = match value("--mode")?.as_str() {
                    m @ ("seq" | "par" | "both") => m.to_string(),
                    other => return Err(format!("unknown mode `{other}` (seq|par|both)")),
                }
            }
            "--shed" => f.shed = true,
            "--port" => {
                f.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?
            }
            "--max-batch" => {
                f.max_batch = value("--max-batch")?
                    .parse()
                    .map_err(|e| format!("--max-batch: {e}"))?
            }
            "--max-delay-ms" => {
                f.max_delay_ms = value("--max-delay-ms")?
                    .parse()
                    .map_err(|e| format!("--max-delay-ms: {e}"))?
            }
            "--queue-cap" => {
                f.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?
            }
            "--op" => f.op = value("--op")?,
            "--interval-ms" => {
                f.interval_ms = value("--interval-ms")?
                    .parse()
                    .map_err(|e| format!("--interval-ms: {e}"))?
            }
            "--frames" => {
                f.frames = value("--frames")?
                    .parse()
                    .map_err(|e| format!("--frames: {e}"))?
            }
            "--seed" => {
                f.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--count" => {
                f.count = value("--count")?
                    .parse()
                    .map_err(|e| format!("--count: {e}"))?
            }
            "--deadline-ms" => {
                f.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                )
            }
            "--executor" => {
                f.stealing = match value("--executor")?.as_str() {
                    "channel" | "parallel" => false,
                    "stealing" => true,
                    other => return Err(format!("unknown executor `{other}` (channel|stealing)")),
                }
            }
            "--scheduler" => {
                f.scheduler = match value("--scheduler")?.as_str() {
                    "lc" => Scheduler::LcMerge,
                    "dsc" => Scheduler::Dsc,
                    other => return Err(format!("unknown scheduler `{other}` (lc|dsc)")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(f)
}

fn options(f: &Flags) -> PipelineOptions {
    PipelineOptions {
        prune: f.prune,
        cloning: f.clone.then(ramiel_passes::CloneConfig::default),
        batch: f.batch,
        hyper: if f.batch > 1 {
            if f.switched {
                HyperMode::Switched
            } else {
                HyperMode::Plain
            }
        } else {
            HyperMode::Off
        },
        scheduler: f.scheduler,
        ..Default::default()
    }
}

fn cmd_models(detail: bool) {
    for k in ModelKind::all() {
        let g = build(k, &ModelConfig::full());
        println!(
            "{:14} {:5} nodes {:5} edges {:8} params",
            k.name(),
            g.num_nodes(),
            g.num_edges(),
            g.num_parameters()
        );
        if detail {
            for (op, count) in ramiel_models::op_histogram(&g) {
                println!("    {op:<22} {count:4}");
            }
        }
    }
}

fn cmd_report() {
    println!(
        "{:<14} {:>7} {:>13} {:>8} {:>12}",
        "Model", "#Nodes", "Wt.NodeCost", "Wt.CP", "Parallelism"
    );
    for k in ModelKind::all() {
        let g = build(k, &ModelConfig::full());
        let r = ramiel_cluster::parallelism_report(&g, &ramiel_cluster::StaticCost);
        println!(
            "{:<14} {:>7} {:>13} {:>8} {:>11.2}x",
            r.model, r.num_nodes, r.total_node_cost, r.critical_path_cost, r.parallelism
        );
    }
}

/// The pipeline summary every verb prints first. `time` is what the verb
/// paid: schedule + emission under `compile`, the schedule stage alone
/// under the verbs that execute, analyze or serve.
fn summarize(r: &PipelineReport, time: std::time::Duration) {
    println!("model:                 {}", r.model);
    println!(
        "nodes:                 {} → prune {} → clone {}",
        r.nodes_before, r.nodes_after_prune, r.nodes_after_cloning
    );
    println!(
        "clusters:              {} → merged {}",
        r.clusters_before_merge, r.clusters_after_merge
    );
    println!("cross-cluster edges:   {}", r.cross_cluster_edges);
    println!("potential parallelism: {:.2}x", r.parallelism.parallelism);
    println!("compile time:          {time:.2?}");
}

fn cmd_compile(model: &str, f: &Flags) -> Result<(), String> {
    let cfg = if f.tiny {
        ModelConfig::tiny()
    } else {
        ModelConfig::full()
    };
    let g = parse_model(model, &cfg)?;
    let c = compile(g, &options(f)).map_err(|e| e.to_string())?;
    summarize(&c.report, c.compile_time);
    if let Some(dir) = &f.out {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let base = std::path::Path::new(dir);
        std::fs::write(base.join("parallel.py"), &c.parallel_code).map_err(|e| e.to_string())?;
        std::fs::write(base.join("sequential.py"), &c.sequential_code)
            .map_err(|e| e.to_string())?;
        if let Some(hyper_code) = &c.hyper_code {
            std::fs::write(base.join("hyper.py"), hyper_code).map_err(|e| e.to_string())?;
        }
        let assignment: std::collections::HashMap<usize, usize> = c.clustering.assignment();
        std::fs::write(
            base.join("clusters.dot"),
            ramiel_ir::dot::to_dot(&c.graph, Some(&assignment)),
        )
        .map_err(|e| e.to_string())?;
        std::fs::write(
            base.join("report.json"),
            serde_json::to_string_pretty(&c.report).map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())?;
        println!("wrote parallel.py, sequential.py, clusters.dot, report.json to {dir}");
    }
    Ok(())
}

fn cmd_run(model: &str, f: &Flags) -> Result<(), String> {
    let cfg = if f.tiny {
        ModelConfig::tiny()
    } else {
        ModelConfig::full()
    };
    let g = parse_model(model, &cfg)?;
    // prepare() = schedule + one shared initializer-table conversion; every
    // executor below reuses that table through RunOptions.
    let prepared = ramiel::prepare(g, &options(f)).map_err(|e| e.to_string())?;
    let c = &prepared.scheduled;
    summarize(&c.report, c.schedule_time);
    // What was compiled is what runs: the hyperclustering over `--batch`
    // samples when there is one, the clustering over a single sample
    // otherwise.
    let schedule = match &c.hyper {
        Some(hc) => Schedule::Hyper(hc),
        None => Schedule::Clusters(&c.clustering),
    };
    let batch = c.hyper.as_ref().map_or(1, |hc| hc.batch);
    let inputs: Vec<Env> = (0..batch)
        .map(|b| synth_inputs(&c.graph, 42 + b as u64))
        .collect();
    let ctx = ExecCtx::with_intra_op(f.intra_op);
    let run_opts = prepared.run_options();

    if let Some(seed) = f.chaos_seed {
        return cmd_run_chaos(c, schedule, &inputs, &ctx, run_opts, seed, f);
    }

    let time_it = |label: &str, body: &dyn Fn() -> Result<(), String>| -> Result<(), String> {
        body()?; // warm-up
        let start = Instant::now();
        for _ in 0..f.iters {
            body()?;
        }
        let ms = start.elapsed().as_secs_f64() * 1e3 / f.iters as f64;
        println!(
            "{label}: {ms:.2} ms/iter over {} iters (batch {batch}, {:.2} ms/sample)",
            f.iters,
            ms / batch as f64
        );
        Ok(())
    };
    let time_engine = |label: &str, engine: Engine| {
        let opts = run_opts.clone().engine(engine);
        time_it(label, &|| {
            run(&c.graph, schedule, &inputs, &ctx, &opts)
                .outputs
                .map(drop)
                .map_err(|e| e.to_string())
        })
    };

    if f.mode != "par" {
        time_engine("sequential", Engine::Sequential)?;
    }
    if f.mode != "seq" {
        if f.stealing {
            // Plan once (it is reusable and what a serving deployment would
            // cache); time only the pool executions.
            let plan = match schedule {
                Schedule::Hyper(hc) => ramiel_runtime::StealPlan::from_hyper(&c.graph, hc),
                Schedule::Clusters(cl) => ramiel_runtime::StealPlan::new(&c.graph, cl, 1),
            };
            let plan = Arc::new(plan.map_err(|e| e.to_string())?);
            let pool = ramiel_runtime::StealPool::global();
            time_it("stealing  ", &|| {
                pool.run_plan(&plan, &inputs, &ctx, &run_opts)
                    .map(drop)
                    .map_err(|e| e.to_string())
            })?;
            println!("{}", pool.stats().text_summary());
        } else {
            time_engine("parallel  ", Engine::Channels)?;
        }
    }
    Ok(())
}

/// `ramiel run --chaos-seed N`: execute one supervised parallel inference
/// under a deterministic fault plan and report what the supervisor did.
fn cmd_run_chaos(
    c: &ScheduledModel,
    schedule: Schedule<'_>,
    inputs: &[Env],
    ctx: &ExecCtx,
    base_opts: RunOptions,
    seed: u64,
    f: &Flags,
) -> Result<(), String> {
    use ramiel_runtime::{FaultInjector, FaultPlan, SupervisorConfig};
    let plan = FaultPlan::random(seed, c.graph.num_nodes(), inputs.len(), f.chaos_faults);
    println!("chaos plan (seed {seed}):");
    for fault in &plan.faults {
        println!(
            "    node {:4} exec {:2}: {}",
            fault.node, fault.exec_index, fault.kind
        );
    }
    let mut opts = base_opts
        .clone()
        .engine(if f.stealing {
            Engine::Stealing
        } else {
            Engine::Channels
        })
        .supervisor(SupervisorConfig {
            max_retries: f.max_retries,
            fallback: f.fallback,
            ..Default::default()
        });
    opts.injector = Some(FaultInjector::new(plan));
    let start = Instant::now();
    let r = run(&c.graph, schedule, inputs, ctx, &opts);
    let elapsed = start.elapsed();
    println!("attempts:              {}", r.report.attempts);
    println!("fell back:             {}", r.report.fell_back);
    println!("faults fired:          {}", r.report.faults_fired.len());
    for e in &r.report.errors {
        println!("    [{}] {e}", e.code());
    }
    let outs = r.outputs.map_err(|e| format!("[{}] {e}", e.code()))?;
    // Baseline with the same options, minus the injector.
    for (inp, out) in inputs.iter().zip(&outs) {
        let baseline =
            run_sequential_opts(&c.graph, inp, ctx, &base_opts).map_err(|e| e.to_string())?;
        if baseline != *out {
            return Err("supervised run diverged from the sequential baseline".into());
        }
    }
    println!("outcome:               ok in {elapsed:.2?} (matches sequential)");
    Ok(())
}

/// `ramiel profile <model>`: compile with stage tracing, run the model on
/// four lanes with profiling on (sequential; the channel engine per run at
/// batch 1 and over the hyperclustering; a standing pool), merge
/// everything onto one Chrome/Perfetto trace, and print a cost-model
/// prediction-accuracy table plus a profile-guided reclustering comparison.
fn cmd_profile(model: &str, f: &Flags) -> Result<(), String> {
    use ramiel::obs::{validate_chrome_trace, Obs};
    use ramiel_cluster::{distance_to_end, linear_clustering, merge_clusters_fixpoint};
    use ramiel_runtime::{
        predict_report, run_sequential_profiled, simulate_clustering, HyperPool, PlannedBatch,
        SimConfig,
    };

    let cfg = if f.tiny {
        ModelConfig::tiny()
    } else {
        ModelConfig::full()
    };
    let g = parse_model(model, &cfg)?;

    // One shared timeline; pids keep the stories apart in the trace UI.
    let obs = Obs::enabled();
    obs.with_pid(0).name_process("diagnostics");
    obs.with_pid(1).name_process("compile pipeline");
    obs.with_pid(2).name_process("sequential executor");
    obs.with_pid(3).name_process("parallel executor");
    obs.with_pid(4).name_process("hypercluster executor");
    obs.with_pid(5).name_process("cluster pool");

    // prepare_with_obs() converts the initializer table once; each profiled
    // executor run shares it through its RunOptions.
    let prepared =
        ramiel::prepare_with_obs(g, &options(f), &obs.with_pid(1)).map_err(|e| e.to_string())?;
    let c = &prepared.scheduled;
    summarize(&c.report, c.schedule_time);
    println!();

    let ctx = ExecCtx::with_intra_op(f.intra_op);
    let inputs = synth_inputs(&c.graph, 42);

    let seq_opts = prepared.run_options().obs(obs.with_pid(2));
    let (seq_out, seq_db) = run_sequential_profiled(&c.graph, &inputs, &ctx, &seq_opts)
        .map_err(|e| format!("sequential: {e}"))?;
    seq_db.export_to_obs(&obs.with_pid(2), &c.graph);

    // A profiled one-shot channel run: outputs plus its ProfileDb.
    let profiled = |label: &str, schedule: Schedule<'_>, inputs: &[Env], pid: u32| {
        let opts = prepared.run_options().obs(obs.with_pid(pid)).profile(true);
        let r = run(&c.graph, schedule, inputs, &ctx, &opts);
        let outs = r.outputs.map_err(|e| format!("{label}: {e}"))?;
        let db = r.profile.expect("a profiled channel run returns its db");
        db.export_to_obs(&obs.with_pid(pid), &c.graph);
        Ok::<_, String>((outs, db))
    };

    let (par_out, par_db) = profiled("parallel", (&c.clustering).into(), from_ref(&inputs), 3)?;
    if par_out[0] != seq_out {
        return Err("parallel output diverged from sequential".into());
    }

    let hc = match &c.hyper {
        Some(hc) => hc.clone(),
        None => ramiel_cluster::hypercluster(&c.clustering, 1),
    };
    let batch_inputs: Vec<_> = (0..hc.batch)
        .map(|b| synth_inputs(&c.graph, 42 + b as u64))
        .collect();
    profiled("hyper", (&hc).into(), &batch_inputs, 4)?;

    // The standing pool: one profiled job on workers that outlive it.
    let pool_opts = prepared.run_options().obs(obs.with_pid(5));
    let plan1 = PlannedBatch::new(&c.graph, ramiel_cluster::hypercluster(&c.clustering, 1))
        .map(Arc::new)
        .map_err(|e| format!("pool: {e}"))?;
    let mut pool = HyperPool::with_options(&c.graph, plan1.num_workers(), &ctx, &pool_opts)
        .map_err(|e| format!("pool: {e}"))?;
    let (pool_out, pool_db) = pool
        .run_batch_profiled(&plan1, &Arc::new(vec![inputs.clone()]))
        .map_err(|e| format!("pool: {e}"))?;
    pool_db.export_to_obs(&obs.with_pid(5), &c.graph);
    if pool_out[0] != seq_out {
        return Err("pool output diverged from sequential".into());
    }
    drop(pool);

    // Prediction accuracy: the cost model that drove clustering vs what the
    // parallel run actually measured.
    let cost = options(f).cost.model();
    print!(
        "{}",
        predict_report(&c.graph, cost.as_ref(), &par_db).render()
    );
    println!();

    // Profile-guided feedback: replay the measured per-node times into LC
    // and compare both clusterings under the measured cost model.
    let measured = par_db.measured_cost(&c.graph);
    let dist = distance_to_end(&c.graph, &measured);
    let reclustered = merge_clusters_fixpoint(&linear_clustering(&c.graph, &dist), &dist);
    let sim_cfg = SimConfig {
        comm_latency: 8,
        dispatch_overhead: 0,
    };
    let base = simulate_clustering(&c.graph, &c.clustering, &measured, &sim_cfg)
        .map_err(|e| e.to_string())?;
    let tuned = simulate_clustering(&c.graph, &reclustered, &measured, &sim_cfg)
        .map_err(|e| e.to_string())?;
    println!(
        "profile-guided reclustering ({} of {} nodes sampled, {} ns/unit):",
        measured.sampled_nodes(),
        c.graph.num_nodes(),
        measured.ns_per_unit(),
    );
    println!(
        "  original clustering:   {:3} clusters, makespan {:>8} measured units",
        c.clustering.num_clusters(),
        base.makespan
    );
    println!(
        "  measured reclustering: {:3} clusters, makespan {:>8} measured units",
        reclustered.num_clusters(),
        tuned.makespan
    );

    // Export, validating before we claim success (the CI smoke gate).
    let trace = obs.to_chrome_trace();
    let stats = validate_chrome_trace(&trace).map_err(|e| format!("malformed trace: {e}"))?;
    // A model given by path names its trace after the file stem, so the
    // trace lands in `--out` (or the working directory), not in a directory
    // spelled by the argument.
    let stem = std::path::Path::new(model)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(model);
    let path = match &f.out {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            format!("{dir}/{stem}-trace.json")
        }
        None => format!("{stem}-trace.json"),
    };
    std::fs::write(&path, &trace).map_err(|e| e.to_string())?;
    println!();
    print!("{}", obs.text_report());
    println!(
        "trace: {} events ({} spans, {} instants, {} counters) -> {path}",
        stats.total_events, stats.complete_spans, stats.instants, stats.counters
    );
    println!("open it at https://ui.perfetto.dev (Open trace file) or chrome://tracing");
    Ok(())
}

fn cmd_simulate(model: &str, f: &Flags) -> Result<(), String> {
    use ramiel_runtime::{simulate_clustering, simulate_hyper, simulate_sequential, SimConfig};
    let cfg = if f.tiny {
        ModelConfig::tiny()
    } else {
        ModelConfig::full()
    };
    let g = parse_model(model, &cfg)?;
    let c = schedule(g, &options(f)).map_err(|e| e.to_string())?;
    summarize(&c.report, c.schedule_time);
    let sim_cfg = SimConfig {
        comm_latency: 8,
        dispatch_overhead: 0,
    };
    let cost = ramiel_cluster::StaticCost;
    let seq = simulate_sequential(&c.graph, &cost, f.batch.max(1));
    let sim = match &c.hyper {
        Some(hc) => simulate_hyper(&c.graph, hc, &cost, &sim_cfg),
        None => simulate_clustering(&c.graph, &c.clustering, &cost, &sim_cfg),
    }
    .map_err(|e| e.to_string())?;
    println!(
        "simulated sequential:  {seq} units (batch {})",
        f.batch.max(1)
    );
    println!("simulated parallel:    {} units", sim.makespan);
    println!(
        "simulated speedup:     {:.2}x",
        seq as f64 / sim.makespan as f64
    );
    println!("per-worker busy:       {:?}", sim.busy);
    println!(
        "slack fraction:        {:.0}%",
        100.0 * sim.slack_fraction()
    );
    Ok(())
}

/// Differential fuzzing: random layered DAGs through the full pipeline,
/// comparing parallel execution of the optimized graph against plain
/// sequential execution of the original.
fn cmd_fuzz(f: &Flags) -> Result<(), String> {
    use ramiel_models::synthetic;
    let graphs = f.iters.max(1) * 10;
    let mut max_nodes = 0usize;
    for seed in 0..graphs as u64 {
        let layers = 2 + (seed % 7) as usize;
        let width = 1 + (seed % 5) as usize;
        let g = synthetic::layered_random(seed * 7919 + 17, layers, width, 2);
        max_nodes = max_nodes.max(g.num_nodes());
        let inputs = synth_inputs(&g, seed);
        let ctx = ExecCtx::sequential();
        let baseline = run_sequential(&g, &inputs, &ctx)
            .map_err(|e| format!("seed {seed}: sequential: {e}"))?;
        let c = compile(g, &PipelineOptions::all_optimizations())
            .map_err(|e| format!("seed {seed}: compile: {e}"))?;
        c.clustering
            .check_partition(&c.graph)
            .map_err(|e| format!("seed {seed}: partition: {e}"))?;
        let par = run(
            &c.graph,
            &c.clustering,
            from_ref(&inputs),
            &ctx,
            &RunOptions::default(),
        )
        .single()
        .map_err(|e| format!("seed {seed}: parallel: {e}"))?;
        for (k, a) in &baseline {
            let b = par
                .get(k)
                .ok_or_else(|| format!("seed {seed}: output `{k}` missing"))?;
            if a != b {
                return Err(format!("seed {seed}: output `{k}` diverged"));
            }
        }
    }
    println!(
        "fuzzed {graphs} random graphs (largest {max_nodes} nodes): all differential checks passed"
    );
    Ok(())
}

/// Schedule one pipeline and return its graph + schedule view.
fn schedule_view(
    g: ramiel_ir::Graph,
    opts: &PipelineOptions,
) -> Result<(ScheduledModel, ramiel::verify::ScheduleView), String> {
    let c = schedule(g, opts).map_err(|e| e.to_string())?;
    let view = match &c.hyper {
        Some(hc) => ramiel_cluster::hyper_view(hc),
        None => ramiel_cluster::clustering_view(&c.clustering),
    };
    Ok((c, view))
}

/// Verify one scheduled pipeline and print its verdict.
fn check_one(
    label: &str,
    g: ramiel_ir::Graph,
    opts: &PipelineOptions,
    deny: bool,
) -> Result<Gate, String> {
    let (c, view) = schedule_view(g, opts)?;
    let report = ramiel::verify::verify(&c.graph, Some(&view));
    Ok(ramiel::diag::print_report("check", label, &report, deny))
}

/// The `check all` / `analyze all` pipeline sweep: default options at
/// batch 1 plus both hypercluster variants at batch 4.
fn sweep_configs() -> [(&'static str, PipelineOptions); 3] {
    [
        ("batch=1", PipelineOptions::default()),
        (
            "batch=4 hyper",
            PipelineOptions {
                batch: 4,
                hyper: HyperMode::Plain,
                ..Default::default()
            },
        ),
        (
            "batch=4 switched",
            PipelineOptions {
                batch: 4,
                hyper: HyperMode::Switched,
                ..Default::default()
            },
        ),
    ]
}

fn cmd_check(model: &str, f: &Flags) -> Result<Gate, String> {
    let cfg = if f.tiny {
        ModelConfig::tiny()
    } else {
        ModelConfig::full()
    };
    let mut gate = Gate::Clean;
    if model == "all" {
        for k in ModelKind::all() {
            for (tag, opts) in &sweep_configs() {
                let label = format!("{} [{tag}]", k.name());
                gate = gate.worst(check_one(&label, build(k, &cfg), opts, f.deny_warnings)?);
            }
        }
    } else {
        let g = parse_model(model, &cfg)?;
        let label = format!("{model} [batch={}]", f.batch);
        gate = check_one(&label, g, &options(f), f.deny_warnings)?;
    }
    if gate.failed() {
        eprintln!("check found problems (see diagnostics above)");
    }
    Ok(gate)
}

#[derive(serde::Serialize)]
struct DiagJson {
    code: String,
    severity: String,
    span: String,
    message: String,
}

#[derive(serde::Serialize)]
struct AnalyzeJson {
    model: String,
    memory: ramiel::analyze::MemoryEstimate,
    intervals: usize,
    alias_classes: usize,
    diagnostics: Vec<DiagJson>,
}

/// Analyze one scheduled pipeline: per-cluster memory table plus lints.
fn analyze_one(
    label: &str,
    g: ramiel_ir::Graph,
    opts: &PipelineOptions,
    f: &Flags,
) -> Result<Gate, String> {
    let (c, view) = schedule_view(g, opts)?;
    // The stealing executor has no static schedule: analyze its
    // estimate-only view (single first-ready worker — sound memory bound,
    // nothing for the channel lints to inspect) instead of pretending the
    // clustering's channel structure exists at runtime.
    let view = if f.stealing {
        ramiel_cluster::stealing_view(&c.graph, f.batch.max(1))
    } else {
        view
    };
    let a = ramiel::analyze::analyze(&c.graph, &view);
    if f.json {
        let json = AnalyzeJson {
            model: label.to_string(),
            memory: a.memory.clone(),
            intervals: a.lifetimes.intervals.len(),
            alias_classes: a.lifetimes.alias_classes,
            diagnostics: a
                .report
                .diagnostics
                .iter()
                .map(|d| DiagJson {
                    code: d.code.to_string(),
                    severity: d.severity.to_string(),
                    span: d.span.to_string(),
                    message: d.message.clone(),
                })
                .collect(),
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&json).map_err(|e| e.to_string())?
        );
        return Ok(Gate::of(&a.report, f.deny_warnings));
    }
    let gate = ramiel::diag::print_report("analyze", label, &a.report, f.deny_warnings);
    let m = &a.memory;
    println!(
        "    peak memory: {} bytes over {} workers ({}); {} intervals, {} alias classes",
        m.peak_bytes,
        m.per_worker.len(),
        if m.exact {
            "exact in-order replay"
        } else {
            "first-ready sum bound"
        },
        a.lifetimes.intervals.len(),
        a.lifetimes.alias_classes,
    );
    for wm in &m.per_worker {
        println!(
            "      worker {:>3}  peak {:>12} B  resident {:>12} B  {:>5} ops",
            wm.worker, wm.peak_bytes, wm.resident_bytes, wm.ops
        );
    }
    Ok(gate)
}

fn cmd_analyze(model: &str, f: &Flags) -> Result<Gate, String> {
    let cfg = if f.tiny {
        ModelConfig::tiny()
    } else {
        ModelConfig::full()
    };
    let mut gate = Gate::Clean;
    if model == "all" {
        for k in ModelKind::all() {
            let label = format!("{} [batch={}]", k.name(), f.batch);
            gate = gate.worst(analyze_one(&label, build(k, &cfg), &options(f), f)?);
        }
    } else {
        let g = parse_model(model, &cfg)?;
        let label = format!("{model} [batch={}]", f.batch);
        gate = analyze_one(&label, g, &options(f), f)?;
    }
    if gate.failed() && !f.json {
        eprintln!("analyze found problems (see diagnostics above)");
    }
    Ok(gate)
}

/// `ramiel serve <model> --port N`: schedule once, then serve inference over
/// newline-delimited JSON TCP with dynamic micro-batching into hypercluster
/// executions. Runs until a client sends `{"op":"shutdown"}` (graceful
/// drain: queued requests finish first). Start-up plans batch 1 only; the
/// first batch of any other size plans it.
fn cmd_serve(model: &str, f: &Flags) -> Result<(), String> {
    use ramiel_serve::{run_tcp_with_registry, OverflowPolicy, PlanSpec, ServeConfig, Server};
    use std::sync::Arc;
    use std::time::Duration;

    let cfg = if f.tiny {
        ModelConfig::tiny()
    } else {
        ModelConfig::full()
    };
    let registry = Arc::new(registry_from_flags(f));
    // A URL model reference (or a checksum-pinned local one) goes through
    // the registry so the bytes are content-addressed and the pin verified;
    // anything else takes the plain built-in/file path.
    // Reading the model's bytes is the load's `fetch` phase and decoding
    // them its `import`, as for a TCP `load`; a built-in model has no read.
    let (g, fetch_time, import_time) = if model.contains("://") || f.sha256.is_some() {
        // Decode the buffer the registry hashed: the blob is never re-read.
        let registry_err = |e: ramiel_serve::RegistryError| format!("[{}] {e}", e.code());
        let fetched = registry
            .fetch(model, f.sha256.as_deref())
            .map_err(registry_err)?;
        let pulled = registry.admit(&fetched).map_err(registry_err)?;
        println!("pulled {} (sha256 {})", pulled.source, pulled.sha256);
        let start = Instant::now();
        let g = ramiel_onnx::load_model_bytes(fetched.data()).map_err(|e| e.to_string())?;
        (g, Some(fetched.fetch_time()), start.elapsed())
    } else if let Some(kind) = builtin_kind(model) {
        let start = Instant::now();
        (build(kind, &cfg), None, start.elapsed())
    } else {
        let start = Instant::now();
        let bytes = ramiel_onnx::read_model_file(model).map_err(|e| not_loadable(model, e))?;
        let fetch_time = start.elapsed();
        let start = Instant::now();
        let g =
            ramiel_onnx::decode_model_file(model, &bytes).map_err(|e| not_loadable(model, e))?;
        (g, Some(fetch_time), start.elapsed())
    };
    let start = Instant::now();
    let scheduled = ramiel::schedule(g, &options(f)).map_err(|e| e.to_string())?;
    let schedule_time = start.elapsed();
    summarize(&scheduled.report, scheduled.schedule_time);

    let serve_cfg = ServeConfig {
        max_batch: f.max_batch,
        max_delay: Duration::from_millis(f.max_delay_ms),
        queue_capacity: f.queue_cap,
        policy: if f.shed {
            OverflowPolicy::Shed
        } else {
            OverflowPolicy::Block {
                max_wait: Duration::from_secs(1),
            }
        },
        intra_op: f.intra_op,
        supervisor: ramiel_runtime::SupervisorConfig {
            max_retries: f.max_retries,
            fallback: true,
            ..Default::default()
        },
        executor: if f.stealing {
            ramiel_serve::ServeExecutor::Stealing
        } else {
            ramiel_serve::ServeExecutor::Hyper
        },
        ..Default::default()
    };
    // Hand the clustering to the plan cache so `load` doesn't redo pipeline
    // work, and the time it took to the load telemetry so `stats.load`
    // explains start-up like a TCP `load`. The graph keeps its weights: the
    // plan converts them where a TCP `load` does, by moving the payloads.
    let spec = PlanSpec {
        clustering: Some(scheduled.clustering),
        switched: f.switched,
        ..PlanSpec::new(scheduled.graph)
    };
    let server = Arc::new(Server::new(serve_cfg));
    if let Some(took) = fetch_time {
        server.record_fetch(took);
    }
    server
        .load_prepared(model, spec, import_time, schedule_time)
        .map_err(|e| e.to_string())?;
    println!(
        "serving `{model}` (max batch {}, window {} ms, queue {}{})",
        f.max_batch,
        f.max_delay_ms,
        f.queue_cap,
        if f.shed { ", shedding" } else { "" },
    );
    let listener = std::net::TcpListener::bind(("127.0.0.1", f.port))
        .map_err(|e| format!("bind 127.0.0.1:{}: {e}", f.port))?;
    run_tcp_with_registry(&server, model, listener, Some(registry)).map_err(|e| e.to_string())?;
    let s = server.stats();
    println!(
        "served {} requests in {} batches (mean batch {:.2}, {} shed, {} failed)",
        s.completed,
        s.batches,
        s.mean_batch,
        s.shed_queue_full + s.shed_deadline,
        s.failed
    );
    Ok(())
}

/// One round-trip to a running `ramiel serve`: send `req` (no trailing
/// newline needed) and return the parsed response object.
fn serve_roundtrip(port: u16, req: &str) -> Result<serde_json::Value, String> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(("127.0.0.1", port))
        .map_err(|e| format!("connect 127.0.0.1:{port}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    writer
        .write_all(format!("{req}\n").as_bytes())
        .and_then(|_| writer.flush())
        .map_err(|e| e.to_string())?;
    let mut resp = String::new();
    reader.read_line(&mut resp).map_err(|e| e.to_string())?;
    if resp.is_empty() {
        return Err("server closed the connection".into());
    }
    serde_json::from_str(&resp).map_err(|e| e.to_string())
}

/// `ramiel request`: minimal client for a running `ramiel serve` — sends
/// `--count` ops and prints one response line each. The `metrics` and
/// `trace` ops additionally validate what came back (Prometheus samples
/// must parse; the Chrome trace must pass `validate_chrome_trace`) and
/// print the payload itself, so they double as CI well-formedness gates.
fn cmd_request(f: &Flags) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(("127.0.0.1", f.port))
        .map_err(|e| format!("connect 127.0.0.1:{}: {e}", f.port))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    for i in 0..f.count.max(1) {
        let req = match f.op.as_str() {
            "infer_synth" => {
                let deadline = f
                    .deadline_ms
                    .map(|ms| format!(",\"deadline_ms\":{ms}"))
                    .unwrap_or_default();
                format!(
                    "{{\"id\":{i},\"op\":\"infer_synth\",\"seed\":{}{deadline}}}",
                    f.seed + i as u64
                )
            }
            op @ ("ping" | "stats" | "shutdown" | "metrics" | "trace") => {
                format!("{{\"id\":{i},\"op\":\"{op}\"}}")
            }
            "load" => {
                let source = f
                    .source
                    .as_deref()
                    .ok_or("--op load needs --source <model reference>")?;
                let mut req = format!(
                    "{{\"id\":{i},\"op\":\"load\",\"source\":{}",
                    serde_json::to_string(source).map_err(|e| e.to_string())?
                );
                if let Some(pin) = &f.sha256 {
                    req.push_str(&format!(",\"sha256\":\"{pin}\""));
                }
                req.push('}');
                req
            }
            other => {
                return Err(format!(
                    "unknown op `{other}` (ping|infer_synth|stats|metrics|trace|load|shutdown)"
                ))
            }
        };
        writer
            .write_all(format!("{req}\n").as_bytes())
            .and_then(|_| writer.flush())
            .map_err(|e| e.to_string())?;
        let mut resp = String::new();
        reader.read_line(&mut resp).map_err(|e| e.to_string())?;
        if resp.is_empty() {
            return Err("server closed the connection".into());
        }
        let v: serde_json::Value = serde_json::from_str(&resp).map_err(|e| e.to_string())?;
        match f.op.as_str() {
            "metrics" => {
                let text = v
                    .get("metrics")
                    .and_then(|m| m.as_str())
                    .ok_or("metrics response has no `metrics` field")?;
                let samples = ramiel::obs::parse_prometheus(text);
                if samples.is_empty() {
                    return Err("metrics exposition parsed to zero samples".into());
                }
                print!("{text}");
                eprintln!("# {} samples parsed", samples.len());
            }
            "trace" => {
                let trace = v
                    .get("trace")
                    .ok_or("trace response has no `trace` field")?;
                let stats = ramiel::obs::validate_chrome_trace(&trace.to_string())
                    .map_err(|e| format!("trace is not a valid Chrome trace: {e}"))?;
                println!("{trace}");
                eprintln!(
                    "# valid Chrome trace: {} events, {} spans",
                    stats.total_events, stats.complete_spans
                );
            }
            _ => print!("{resp}"),
        }
        if v.get("ok").and_then(|b| b.as_bool()) != Some(true) {
            return Err(format!("request {i} failed"));
        }
    }
    Ok(())
}

/// Per-model aggregates extracted from one Prometheus scrape (see
/// [`cmd_top`]).
#[derive(Default, Clone)]
struct TopRow {
    completed: f64,
    shed: f64,
    batches: f64,
    batched: f64,
    depth: f64,
    peak: f64,
    /// `(le, cumulative count)` latency buckets, ns.
    latency: Vec<(f64, f64)>,
}

/// `ramiel top`: poll a running server's `metrics` verb every
/// `--interval-ms` and render a live per-model table (rps, windowed
/// p50/p99, mean batch, queue depth, shed/s) plus steal-pool rates.
/// `--frames N` stops after N scrapes (0 = until the server goes away).
fn cmd_top(f: &Flags) -> Result<(), String> {
    use std::collections::BTreeMap;

    let parse_frame = |text: &str| -> (BTreeMap<String, TopRow>, f64, f64, [f64; 4]) {
        let samples = ramiel::obs::parse_prometheus(text);
        let mut rows: BTreeMap<String, TopRow> = BTreeMap::new();
        let (mut steals, mut tasks) = (0.0, 0.0);
        // Lifetime lane totals over all models: windows opened / skipped,
        // pool builds and their summed duration (ns).
        let mut lanes = [0.0f64; 4];
        for s in &samples {
            if let Some(model) = s.label("model") {
                let row = rows.entry(model.to_string()).or_default();
                match s.name.as_str() {
                    "ramiel_batch_window_total" => match s.label("decision") {
                        Some("opened") => lanes[0] += s.value,
                        _ => lanes[1] += s.value,
                    },
                    "ramiel_lane_build_ns_count" => lanes[2] += s.value,
                    "ramiel_lane_build_ns_sum" => lanes[3] += s.value,
                    "ramiel_requests_total" => match s.label("outcome") {
                        Some("completed") => row.completed += s.value,
                        Some(o) if o.starts_with("shed") => row.shed += s.value,
                        _ => {}
                    },
                    "ramiel_batch_size_count" => row.batches += s.value,
                    "ramiel_batch_size_sum" => row.batched += s.value,
                    "ramiel_queue_depth" => row.depth = s.value,
                    "ramiel_queue_peak_depth" => row.peak = row.peak.max(s.value),
                    "ramiel_request_latency_ns_bucket" => {
                        if let Some(le) = s.label("le").and_then(|l| l.parse::<f64>().ok()) {
                            row.latency.push((le, s.value));
                        }
                    }
                    _ => {}
                }
            } else {
                match s.name.as_str() {
                    "ramiel_steal_steals_total" => steals += s.value,
                    "ramiel_steal_tasks_total" => tasks += s.value,
                    _ => {}
                }
            }
        }
        for row in rows.values_mut() {
            row.latency
                .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        }
        (rows, steals, tasks, lanes)
    };

    let interval = std::time::Duration::from_millis(f.interval_ms.max(50));
    let mut prev: Option<(BTreeMap<String, TopRow>, f64, f64)> = None;
    let mut frame = 0usize;
    loop {
        let resp = serve_roundtrip(f.port, "{\"id\":0,\"op\":\"metrics\"}")?;
        let text = resp
            .get("metrics")
            .and_then(|m| m.as_str())
            .ok_or("metrics response has no `metrics` field")?;
        let (rows, steals, tasks, lanes) = parse_frame(text);
        let dt = interval.as_secs_f64();

        // Live terminal mode clears between frames; single-frame mode
        // (CI, scripts) just prints the table once.
        if f.frames != 1 {
            print!("\x1b[2J\x1b[H");
        }
        println!(
            "ramiel top — 127.0.0.1:{}  (frame {}, every {:.1}s)",
            f.port,
            frame + 1,
            dt
        );
        println!(
            "{:<14} {:>8} {:>9} {:>9} {:>10} {:>7} {:>7} {:>7}",
            "MODEL", "RPS", "P50(ms)", "P99(ms)", "MEANBATCH", "DEPTH", "PEAK", "SHED/S"
        );
        for (model, row) in &rows {
            let prev_row = prev.as_ref().and_then(|(r, _, _)| r.get(model));
            let rate = |cur: f64, prior: f64| ((cur - prior) / dt).max(0.0);
            let (rps, sheds) = match prev_row {
                Some(p) => (rate(row.completed, p.completed), rate(row.shed, p.shed)),
                None => (0.0, 0.0),
            };
            // Windowed percentiles: le-aligned saturating differencing
            // against the previous frame (robust to a server restarted
            // between frames); first frame falls back to lifetime buckets.
            let window: Vec<(f64, f64)> = match prev_row {
                Some(p) => ramiel::obs::window_buckets(&row.latency, &p.latency),
                _ => row.latency.clone(),
            };
            let p50 = ramiel::obs::quantile_from_buckets(&window, 0.5) / 1e6;
            let p99 = ramiel::obs::quantile_from_buckets(&window, 0.99) / 1e6;
            let mean_batch = if row.batches > 0.0 {
                row.batched / row.batches
            } else {
                0.0
            };
            println!(
                "{:<14} {:>8.1} {:>9.2} {:>9.2} {:>10.2} {:>7.0} {:>7.0} {:>7.1}",
                model, rps, p50, p99, mean_batch, row.depth, row.peak, sheds
            );
        }
        let (steal_rate, task_rate) = match &prev {
            Some((_, ps, pt)) => (((steals - ps) / dt).max(0.0), ((tasks - pt) / dt).max(0.0)),
            None => (0.0, 0.0),
        };
        println!("steal pool: {task_rate:.0} tasks/s, {steal_rate:.0} steals/s");
        println!(
            "lanes: batch windows {:.0} opened / {:.0} skipped, {:.0} pool builds (mean {:.2} ms)",
            lanes[0],
            lanes[1],
            lanes[2],
            lanes[3] / lanes[2].max(1.0) / 1e6
        );

        prev = Some((rows, steals, tasks));
        frame += 1;
        if f.frames != 0 && frame >= f.frames {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn cmd_export(model: &str, path: &str, f: &Flags) -> Result<(), String> {
    let cfg = if f.tiny {
        ModelConfig::tiny()
    } else {
        ModelConfig::full()
    };
    let g = parse_model(model, &cfg)?;
    if f.onnx || path.to_ascii_lowercase().ends_with(".onnx") {
        ramiel_onnx::save_onnx(&g, path).map_err(|e| e.to_string())?;
        println!("wrote {} ({} nodes, ONNX)", path, g.num_nodes());
    } else {
        ramiel_ir::model_file::save(&g, path).map_err(|e| e.to_string())?;
        println!("wrote {} ({} nodes)", path, g.num_nodes());
    }
    Ok(())
}

/// Build the registry the `pull` and `serve` verbs share: `--cache DIR`
/// overrides the default root ($RAMIEL_CACHE → ~/.cache/ramiel →
/// ./.ramiel-cache).
fn registry_from_flags(f: &Flags) -> ramiel_serve::Registry {
    match &f.cache {
        Some(dir) => ramiel_serve::Registry::new(std::path::PathBuf::from(dir)),
        None => ramiel_serve::Registry::new(ramiel_serve::Registry::default_root()),
    }
}

/// `ramiel pull <url> [--sha256 <hex>] [--cache DIR]`: fetch a model
/// reference into the content-addressed cache, verifying the digest pin if
/// one was given, and print where it landed.
fn cmd_pull(source: &str, f: &Flags) -> Result<(), String> {
    let registry = registry_from_flags(f);
    let pulled = registry
        .pull(source, f.sha256.as_deref())
        .map_err(|e| format!("[{}] {e}", e.code()))?;
    println!(
        "pulled {} ({} bytes{})",
        pulled.source,
        pulled.bytes,
        if pulled.cache_hit { ", cache hit" } else { "" }
    );
    println!("sha256 {}", pulled.sha256);
    println!("cached {}", pulled.path.display());
    Ok(())
}

/// `ramiel fileserver <dir> [--port N]`: loopback static file server used by
/// the registry round-trip CI gate to exercise `http://` pulls without a
/// network. Serves until killed; prints `fileserver on ADDR` at startup.
fn cmd_fileserver(dir: &str, f: &Flags) -> Result<(), String> {
    let root = std::path::PathBuf::from(dir);
    if !root.is_dir() {
        return Err(format!("`{dir}` is not a directory"));
    }
    let listener = std::net::TcpListener::bind(("127.0.0.1", f.port))
        .map_err(|e| format!("bind 127.0.0.1:{}: {e}", f.port))?;
    ramiel_serve::registry::serve_dir(listener, root).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage =
        "usage: ramiel <models|report|compile|run|profile|simulate|check|analyze|fuzz|export|pull|fileserver|serve|request|top> [model] [flags]";
    // `check` and `analyze` gate the exit code on their findings
    // (0 clean / 1 warnings under --deny-warnings / 2 errors); every other
    // subcommand maps success to 0 and operational failure to 1.
    let result: Result<Gate, String> = match args.first().map(String::as_str) {
        Some("models") => {
            cmd_models(args.iter().any(|a| a == "--detail"));
            Ok(Gate::Clean)
        }
        Some("report") => {
            cmd_report();
            Ok(Gate::Clean)
        }
        Some("compile") if args.len() >= 2 => parse_flags(&args[2..])
            .and_then(|f| cmd_compile(&args[1], &f))
            .map(|()| Gate::Clean),
        Some("run") if args.len() >= 2 => parse_flags(&args[2..])
            .and_then(|f| cmd_run(&args[1], &f))
            .map(|()| Gate::Clean),
        Some("profile") if args.len() >= 2 => parse_flags(&args[2..])
            .and_then(|f| cmd_profile(&args[1], &f))
            .map(|()| Gate::Clean),
        Some("simulate") if args.len() >= 2 => parse_flags(&args[2..])
            .and_then(|f| cmd_simulate(&args[1], &f))
            .map(|()| Gate::Clean),
        Some("check") if args.len() >= 2 => {
            parse_flags(&args[2..]).and_then(|f| cmd_check(&args[1], &f))
        }
        Some("analyze") if args.len() >= 2 => {
            parse_flags(&args[2..]).and_then(|f| cmd_analyze(&args[1], &f))
        }
        Some("fuzz") => parse_flags(&args[1..])
            .and_then(|f| cmd_fuzz(&f))
            .map(|()| Gate::Clean),
        Some("serve") if args.len() >= 2 => parse_flags(&args[2..])
            .and_then(|f| cmd_serve(&args[1], &f))
            .map(|()| Gate::Clean),
        Some("request") => parse_flags(&args[1..])
            .and_then(|f| cmd_request(&f))
            .map(|()| Gate::Clean),
        Some("top") => parse_flags(&args[1..])
            .and_then(|f| cmd_top(&f))
            .map(|()| Gate::Clean),
        Some("export") if args.len() >= 3 => parse_flags(&args[3..])
            .and_then(|f| cmd_export(&args[1], &args[2], &f))
            .map(|()| Gate::Clean),
        Some("pull") if args.len() >= 2 => parse_flags(&args[2..])
            .and_then(|f| cmd_pull(&args[1], &f))
            .map(|()| Gate::Clean),
        Some("fileserver") if args.len() >= 2 => parse_flags(&args[2..])
            .and_then(|f| cmd_fileserver(&args[1], &f))
            .map(|()| Gate::Clean),
        _ => Err(usage.to_string()),
    };
    match result {
        Ok(gate) => ExitCode::from(gate.exit_code()),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
