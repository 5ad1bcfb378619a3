//! Shared harness that regenerates every table and figure in the paper's
//! evaluation section. The `tables` binary prints them; the Criterion
//! benches wrap the same entry points.
//!
//! Two kinds of numbers appear side by side:
//!
//! - **measured** — wall-clock on this host's real kernel execution (the
//!   analogue of the paper's Xeon runs; absolute values differ, shape
//!   should match);
//! - **simulated** — deterministic makespans from the discrete-event
//!   simulator under the paper's static cost model (bit-for-bit
//!   reproducible anywhere).

use ramiel::obs::Obs;
use ramiel::verify::{estimate_memory, ExecPolicy, ScheduleView};
use ramiel::{schedule, PipelineOptions, ScheduledModel};
use ramiel_cluster::{hypercluster, switched_hypercluster, HyperClustering, StaticCost};
use ramiel_ios::{ios_makespan, ios_schedule, IosConfig};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{
    run, run_sequential, simulate_clustering, simulate_hyper, simulate_sequential, synth_inputs,
    Env, HyperPool, PlannedBatch, RunOptions, SimConfig,
};
use ramiel_tensor::{ExecCtx, MemGauge};
use std::fmt::Write as _;
use std::slice::from_ref;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Vision/transformer models at paper-faithful topology.
pub fn model_config() -> ModelConfig {
    ModelConfig::full()
}

/// Per-model cloning restraint, mirroring the paper's "applied with care
/// and in a limited setting": transformers only tolerate cloning the very
/// top of the graph (cheap embedding-side nodes), vision models take the
/// default budget.
pub fn clone_config_for(kind: ModelKind) -> ramiel_passes::CloneConfig {
    match kind {
        ModelKind::Bert => ramiel_passes::CloneConfig {
            max_node_cost: 1,
            top_fraction: 0.1,
            rounds: 1,
            ..Default::default()
        },
        _ => ramiel_passes::CloneConfig::default(),
    }
}

/// Wall-clock one closure, with warm-up, returning ms per iteration.
pub fn time_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3 / iters as f64
}

/// Simulated makespan of a scheduled model's clustering.
pub fn simulated_makespan(c: &ScheduledModel) -> u64 {
    simulate_clustering(&c.graph, &c.clustering, &StaticCost, &SimConfig::PAPER)
        .expect("simulation")
        .makespan
}

/// Simulated speedup of a scheduled model's clustering vs sequential.
pub fn simulated_speedup(c: &ScheduledModel) -> f64 {
    simulate_sequential(&c.graph, &StaticCost, 1) as f64 / simulated_makespan(c) as f64
}

/// Simulated speedup against a *fixed* sequential baseline cost (used for
/// Table VI/VII where all variants compare to the unoptimized model).
pub fn simulated_speedup_vs(c: &ScheduledModel, baseline_seq: u64) -> f64 {
    baseline_seq as f64 / simulated_makespan(c) as f64
}

/// Measured (real-execution) sequential and parallel times in ms.
pub fn measured_times(c: &ScheduledModel, iters: usize, intra_op: usize) -> (f64, f64) {
    let inputs = synth_inputs(&c.graph, 42);
    let ctx = ExecCtx::with_intra_op(intra_op);
    let seq = time_ms(iters, || {
        run_sequential(&c.graph, &inputs, &ctx).expect("sequential run");
    });
    let par = time_ms(iters, || {
        run(
            &c.graph,
            &c.clustering,
            from_ref(&inputs),
            &ctx,
            &RunOptions::default(),
        )
        .single()
        .expect("parallel run");
    });
    (seq, par)
}

// --------------------------------------------------------------------------
// Table I — potential parallelism
// --------------------------------------------------------------------------

pub struct Table1Row {
    pub model: String,
    pub nodes: usize,
    pub node_cost: u64,
    pub cp_cost: u64,
    pub parallelism: f64,
}

pub fn table1() -> Vec<Table1Row> {
    ModelKind::all()
        .into_iter()
        .map(|k| {
            let g = build(k, &model_config());
            let r = ramiel_cluster::parallelism_report(&g, &StaticCost);
            Table1Row {
                model: k.name().into(),
                nodes: r.num_nodes,
                node_cost: r.total_node_cost,
                cp_cost: r.critical_path_cost,
                parallelism: r.parallelism,
            }
        })
        .collect()
}

// --------------------------------------------------------------------------
// Table II — clusters before/after merging
// --------------------------------------------------------------------------

pub struct Table2Row {
    pub model: String,
    pub before: usize,
    pub after: usize,
}

pub fn table2() -> Vec<Table2Row> {
    ModelKind::all()
        .into_iter()
        .map(|k| {
            let c =
                schedule(build(k, &model_config()), &PipelineOptions::default()).expect("pipeline");
            Table2Row {
                model: k.name().into(),
                before: c.report.clusters_before_merge,
                after: c.report.clusters_after_merge,
            }
        })
        .collect()
}

// --------------------------------------------------------------------------
// Table III — clusters after constant propagation + DCE
// --------------------------------------------------------------------------

pub struct Table3Row {
    pub model: String,
    pub before_cp: usize,
    pub after_cp: usize,
    pub nodes_before: usize,
    pub nodes_after: usize,
    pub lc_before_cp: usize,
    pub lc_after_cp: usize,
}

pub fn table3() -> Vec<Table3Row> {
    [ModelKind::YoloV5, ModelKind::NasNet, ModelKind::Bert]
        .into_iter()
        .map(|k| {
            let plain =
                schedule(build(k, &model_config()), &PipelineOptions::default()).expect("pipeline");
            let pruned = schedule(
                build(k, &model_config()),
                &PipelineOptions {
                    prune: true,
                    ..Default::default()
                },
            )
            .expect("pipeline");
            Table3Row {
                model: k.name().into(),
                before_cp: plain.report.clusters_after_merge,
                after_cp: pruned.report.clusters_after_merge,
                nodes_before: plain.graph.num_nodes(),
                nodes_after: pruned.graph.num_nodes(),
                lc_before_cp: plain.report.clusters_before_merge,
                lc_after_cp: pruned.report.clusters_before_merge,
            }
        })
        .collect()
}

// --------------------------------------------------------------------------
// Table IV — LC: sequential vs parallel
// --------------------------------------------------------------------------

pub struct Table4Row {
    pub model: String,
    pub parallelism: f64,
    pub clusters: usize,
    pub seq_ms: f64,
    pub par_ms: f64,
    pub speedup: f64,
    pub sim_speedup: f64,
}

pub fn table4(iters: usize) -> Vec<Table4Row> {
    ModelKind::all()
        .into_iter()
        .map(|k| {
            let c =
                schedule(build(k, &model_config()), &PipelineOptions::default()).expect("pipeline");
            let (seq_ms, par_ms) = measured_times(&c, iters, 1);
            Table4Row {
                model: k.name().into(),
                parallelism: c.report.parallelism.parallelism,
                clusters: c.report.clusters_after_merge,
                seq_ms,
                par_ms,
                speedup: seq_ms / par_ms,
                sim_speedup: simulated_speedup(&c),
            }
        })
        .collect()
}

// --------------------------------------------------------------------------
// Table V — LC + downstream intra-op parallelism
// --------------------------------------------------------------------------

pub struct Table5Row {
    pub model: String,
    pub par2_ms: f64,
    pub seq2_ms: f64,
    pub speedup2: f64,
    pub par4_ms: f64,
    pub seq4_ms: f64,
    pub speedup4: f64,
    pub best_overall: f64,
}

pub fn table5(iters: usize) -> Vec<Table5Row> {
    // the paper's Table V subset (vision models; BERT/YOLO omitted there)
    [
        ModelKind::Squeezenet,
        ModelKind::Googlenet,
        ModelKind::InceptionV3,
        ModelKind::InceptionV4,
        ModelKind::Retinanet,
        ModelKind::NasNet,
    ]
    .into_iter()
    .map(|k| {
        let c = schedule(build(k, &model_config()), &PipelineOptions::default()).expect("pipeline");
        let (seq2, par2) = measured_times(&c, iters, 2);
        let (seq4, par4) = measured_times(&c, iters, 4);
        Table5Row {
            model: k.name().into(),
            par2_ms: par2,
            seq2_ms: seq2,
            speedup2: seq2 / par2,
            par4_ms: par4,
            seq4_ms: seq4,
            speedup4: seq4 / par4,
            best_overall: seq2.min(seq4) / par2.min(par4),
        }
    })
    .collect()
}

// --------------------------------------------------------------------------
// Table VI — S_LC vs S_LC+DCE (fixed baseline: the unpruned model)
// --------------------------------------------------------------------------

pub struct Table6Row {
    pub model: String,
    pub s_lc: f64,
    pub s_lc_dce: f64,
    pub s_lc_measured: f64,
    pub s_lc_dce_measured: f64,
}

pub fn table6(iters: usize) -> Vec<Table6Row> {
    [ModelKind::YoloV5, ModelKind::Bert, ModelKind::NasNet]
        .into_iter()
        .map(|k| {
            let plain =
                schedule(build(k, &model_config()), &PipelineOptions::default()).expect("pipeline");
            let pruned = schedule(
                build(k, &model_config()),
                &PipelineOptions {
                    prune: true,
                    ..Default::default()
                },
            )
            .expect("pipeline");
            let baseline = simulate_sequential(&plain.graph, &StaticCost, 1);
            // measured: both parallels against the unpruned sequential time
            let inputs = synth_inputs(&plain.graph, 42);
            let ctx = ExecCtx::sequential();
            let seq_ms = time_ms(iters, || {
                run_sequential(&plain.graph, &inputs, &ctx).expect("seq");
            });
            let par_ms = time_ms(iters, || {
                run(
                    &plain.graph,
                    &plain.clustering,
                    from_ref(&inputs),
                    &ctx,
                    &RunOptions::default(),
                )
                .single()
                .expect("par");
            });
            let par_pruned_ms = time_ms(iters, || {
                run(
                    &pruned.graph,
                    &pruned.clustering,
                    from_ref(&inputs),
                    &ctx,
                    &RunOptions::default(),
                )
                .single()
                .expect("par");
            });
            Table6Row {
                model: k.name().into(),
                s_lc: simulated_speedup_vs(&plain, baseline),
                s_lc_dce: simulated_speedup_vs(&pruned, baseline),
                s_lc_measured: seq_ms / par_ms,
                s_lc_dce_measured: seq_ms / par_pruned_ms,
            }
        })
        .collect()
}

// --------------------------------------------------------------------------
// Table VII — overall: LC, +DCE, +cloning, best
// --------------------------------------------------------------------------

pub struct Table7Row {
    pub model: String,
    pub s_lc: f64,
    pub s_lc_dce: Option<f64>,
    pub s_lc_clone: Option<f64>,
    pub s_overall: f64,
}

pub fn table7() -> Vec<Table7Row> {
    let prunable = [ModelKind::YoloV5, ModelKind::Bert, ModelKind::NasNet];
    let clonable = [
        ModelKind::Squeezenet,
        ModelKind::Googlenet,
        ModelKind::InceptionV3,
        ModelKind::InceptionV4,
        ModelKind::Bert,
        ModelKind::Retinanet,
    ];
    ModelKind::all()
        .into_iter()
        .map(|k| {
            let plain =
                schedule(build(k, &model_config()), &PipelineOptions::default()).expect("pipeline");
            let baseline = simulate_sequential(&plain.graph, &StaticCost, 1);
            let s_lc = simulated_speedup_vs(&plain, baseline);
            let s_dce = prunable.contains(&k).then(|| {
                let c = schedule(
                    build(k, &model_config()),
                    &PipelineOptions {
                        prune: true,
                        ..Default::default()
                    },
                )
                .expect("pipeline");
                simulated_speedup_vs(&c, baseline)
            });
            let s_clone = clonable.contains(&k).then(|| {
                let c = schedule(
                    build(k, &model_config()),
                    &PipelineOptions {
                        cloning: Some(clone_config_for(k)),
                        ..Default::default()
                    },
                )
                .expect("pipeline");
                simulated_speedup_vs(&c, baseline)
            });
            let s_overall = [Some(s_lc), s_dce, s_clone]
                .into_iter()
                .flatten()
                .fold(f64::MIN, f64::max);
            Table7Row {
                model: k.name().into(),
                s_lc,
                s_lc_dce: s_dce,
                s_lc_clone: s_clone,
                s_overall,
            }
        })
        .collect()
}

// --------------------------------------------------------------------------
// Table VIII — comparison with IOS
// --------------------------------------------------------------------------

pub struct Table8Row {
    pub model: String,
    pub ours_speedup: f64,
    pub ours_ct: Duration,
    /// Simulated sequential makespan, the baseline of both speedups.
    pub baseline: u64,
    pub ios_makespan: u64,
    pub ios_speedup: f64,
    pub ios_ct: Duration,
    pub ios_dp_states: usize,
}

pub fn table8() -> Vec<Table8Row> {
    [
        ModelKind::Squeezenet,
        ModelKind::InceptionV3,
        ModelKind::NasNet,
    ]
    .into_iter()
    .map(|k| {
        let g = build(k, &model_config());
        let baseline = simulate_sequential(&g, &StaticCost, 1);
        let t = Instant::now();
        let c = schedule(g.clone(), &PipelineOptions::all_optimizations()).expect("pipeline");
        c.emit(&Obs::disabled());
        let ours_ct = t.elapsed();
        let ios_cfg = IosConfig::default();
        let (sched, stats) = ios_schedule(&g, &StaticCost, &ios_cfg);
        let ios_mk = ios_makespan(&g, &sched, &StaticCost, &ios_cfg);
        Table8Row {
            model: k.name().into(),
            ours_speedup: simulated_speedup_vs(&c, baseline),
            ours_ct,
            baseline,
            ios_makespan: ios_mk,
            ios_speedup: baseline as f64 / ios_mk as f64,
            ios_ct: stats.compile_time,
            ios_dp_states: stats.dp_states,
        }
    })
    .collect()
}

// --------------------------------------------------------------------------
// Fig. 12 — cloning uplift
// --------------------------------------------------------------------------

pub struct Fig12Row {
    pub model: String,
    pub plain_speedup: f64,
    pub cloned_speedup: f64,
    pub uplift_pct: f64,
}

pub fn fig12() -> Vec<Fig12Row> {
    // the paper clones the smaller graphs and skips NASNet
    [
        ModelKind::Squeezenet,
        ModelKind::Googlenet,
        ModelKind::InceptionV3,
        ModelKind::InceptionV4,
        ModelKind::Bert,
        ModelKind::Retinanet,
    ]
    .into_iter()
    .map(|k| {
        let plain =
            schedule(build(k, &model_config()), &PipelineOptions::default()).expect("pipeline");
        let baseline = simulate_sequential(&plain.graph, &StaticCost, 1);
        let cloned = schedule(
            build(k, &model_config()),
            &PipelineOptions {
                cloning: Some(clone_config_for(k)),
                ..Default::default()
            },
        )
        .expect("pipeline");
        let p = simulated_speedup_vs(&plain, baseline);
        let c = simulated_speedup_vs(&cloned, baseline);
        Fig12Row {
            model: k.name().into(),
            plain_speedup: p,
            cloned_speedup: c,
            uplift_pct: 100.0 * (c / p - 1.0),
        }
    })
    .collect()
}

// --------------------------------------------------------------------------
// Figs. 13 & 14 — hyperclustering
// --------------------------------------------------------------------------

pub struct HyperRow {
    pub model: String,
    pub batch: usize,
    pub switched: bool,
    pub intra_op: usize,
    pub measured_speedup: f64,
    pub sim_speedup: f64,
}

/// The hyperclustering of `c` at `batch`, plain (Fig. 8) or switched
/// (Fig. 9).
fn hyper_schedule(c: &ScheduledModel, batch: usize, switched: bool) -> HyperClustering {
    if switched {
        switched_hypercluster(&c.clustering, batch)
    } else {
        hypercluster(&c.clustering, batch)
    }
}

/// Simulated `(hypercluster makespan, sequential makespan)` of a batch:
/// the deterministic half of a [`HyperRow`].
pub fn hyper_sim(c: &ScheduledModel, batch: usize, switched: bool) -> (u64, u64) {
    let hc = hyper_schedule(c, batch, switched);
    let sim = simulate_hyper(&c.graph, &hc, &StaticCost, &SimConfig::PAPER).expect("sim");
    (
        sim.makespan,
        simulate_sequential(&c.graph, &StaticCost, batch),
    )
}

/// One hyperclustering measurement: per-batch speedup vs running the batch
/// through the sequential code sample by sample.
pub fn hyper_row(
    kind: ModelKind,
    batch: usize,
    switched: bool,
    intra_op: usize,
    iters: usize,
) -> HyperRow {
    let c = schedule(build(kind, &model_config()), &PipelineOptions::default()).expect("pipeline");
    let hc = hyper_schedule(&c, batch, switched);
    let inputs: Vec<Env> = (0..batch)
        .map(|b| synth_inputs(&c.graph, b as u64))
        .collect();
    let ctx = ExecCtx::with_intra_op(intra_op);
    let seq_ms = time_ms(iters, || {
        for inp in &inputs {
            run_sequential(&c.graph, inp, &ctx).expect("seq");
        }
    });
    let par_ms = time_ms(iters, || {
        run(&c.graph, &hc, &inputs, &ctx, &RunOptions::default())
            .outputs
            .expect("hyper");
    });
    let (makespan, seq_sim) = hyper_sim(&c, batch, switched);
    HyperRow {
        model: kind.name().into(),
        batch,
        switched,
        intra_op,
        measured_speedup: seq_ms / par_ms,
        sim_speedup: seq_sim as f64 / makespan as f64,
    }
}

/// Fig. 13's models and batch sizes.
const FIG13_MODELS: [ModelKind; 3] = [
    ModelKind::Squeezenet,
    ModelKind::Googlenet,
    ModelKind::InceptionV3,
];
const FIG13_BATCHES: [usize; 4] = [2, 4, 8, 12];
/// Fig. 14's batch sizes (SqueezeNet).
const FIG14_BATCHES: [usize; 3] = [2, 3, 4];

/// Fig. 13: plain hyperclustering across batch sizes, with/without intra-op.
pub fn fig13(iters: usize) -> Vec<HyperRow> {
    let mut rows = Vec::new();
    for kind in FIG13_MODELS {
        for batch in FIG13_BATCHES {
            for intra in [1usize, 2] {
                rows.push(hyper_row(kind, batch, false, intra, iters));
            }
        }
    }
    rows
}

/// Fig. 14: switched hyperclustering on SqueezeNet, batches 2/3/4.
pub fn fig14(iters: usize) -> Vec<HyperRow> {
    let mut rows = Vec::new();
    for batch in FIG14_BATCHES {
        for intra in [1usize, 2] {
            rows.push(hyper_row(ModelKind::Squeezenet, batch, false, intra, iters));
            rows.push(hyper_row(ModelKind::Squeezenet, batch, true, intra, iters));
        }
    }
    rows
}

// --------------------------------------------------------------------------
// Memory footprint (extension: the edge-device angle of the paper's intro)
// --------------------------------------------------------------------------

pub struct MemoryRow {
    pub model: String,
    /// Static in-order estimate of the sequential executor's gauge peak
    /// (`ramiel analyze`'s sweep; `tests/analyze_bounds.rs` pins it equal
    /// to the measured peak).
    pub seq_peak_kib: f64,
    /// Measured gauge peak of a standing `HyperPool` over the paper's
    /// clustering: median, min and max of [`MEMORY_RUNS`] runs.
    pub par_peak_kib: [f64; 3],
    /// Median parallel peak over the sequential one, in percent.
    pub overhead_pct: f64,
}

/// Runs behind each measured parallel peak.
pub const MEMORY_RUNS: usize = 5;

/// Peak activation memory: the sequential estimate vs the measured peak of
/// the LC-parallel schedule on its standing channel workers, per model.
pub fn memory_table() -> Vec<MemoryRow> {
    ModelKind::all()
        .into_iter()
        .map(|k| {
            let c =
                schedule(build(k, &model_config()), &PipelineOptions::default()).expect("pipeline");
            let g = &c.graph;
            let order = ramiel_ir::topo::topo_sort(g).expect("compiled graph is acyclic");
            let view = ScheduleView::single_batch(vec![order], ExecPolicy::InOrder);
            let seq = estimate_memory(g, &g.adjacency(), &view).0.peak_bytes;

            let plan =
                Arc::new(PlannedBatch::new(g, hypercluster(&c.clustering, 1)).expect("plan"));
            let gauge = MemGauge::new();
            let ctx = ExecCtx::sequential().with_mem_gauge(gauge.clone());
            let mut pool = HyperPool::new(g, plan.num_workers(), &ctx).expect("pool");
            let inputs = Arc::new(vec![synth_inputs(g, 42)]);
            let mut peaks: Vec<u64> = (0..MEMORY_RUNS)
                .map(|_| {
                    gauge.reset();
                    pool.run_batch(&plan, &inputs).expect("parallel run");
                    gauge.peak_bytes()
                })
                .collect();
            peaks.sort_unstable();
            let median = peaks[MEMORY_RUNS / 2];
            let kib = |b: u64| b as f64 / 1024.0;
            MemoryRow {
                model: k.name().into(),
                seq_peak_kib: kib(seq),
                par_peak_kib: [kib(median), kib(peaks[0]), kib(peaks[MEMORY_RUNS - 1])],
                overhead_pct: 100.0 * (median as f64 / seq.max(1) as f64 - 1.0),
            }
        })
        .collect()
}

// --------------------------------------------------------------------------
// The paper golden: every deterministic number above, as text
// --------------------------------------------------------------------------

/// Every deterministic number the tables print, one line per row: Tables
/// I–III, the simulated columns of Tables IV, VI, VII and VIII (Table V is
/// measured only), the IOS makespans, and the simulated makespans of
/// Figs. 12–14. Measured columns stay out, so the text is the same on any
/// host; `tests/paper_golden.txt` holds it, and
/// `cargo run --release -p ramiel-bench --bin tables -- golden` prints it.
pub fn paper_golden() -> String {
    let mut out = String::new();
    let mut line = |args: std::fmt::Arguments| {
        out.write_fmt(args).expect("writing to a String");
        out.push('\n');
    };
    let plain = |k: ModelKind| {
        schedule(build(k, &model_config()), &PipelineOptions::default()).expect("pipeline")
    };
    let pruned = |k: ModelKind| {
        let opts = PipelineOptions {
            prune: true,
            ..Default::default()
        };
        schedule(build(k, &model_config()), &opts).expect("pipeline")
    };
    for r in table1() {
        line(format_args!(
            "table1 {} nodes={} node_cost={} cp_cost={} parallelism={:.6}",
            r.model, r.nodes, r.node_cost, r.cp_cost, r.parallelism
        ));
    }
    for r in table2() {
        line(format_args!(
            "table2 {} before={} after={}",
            r.model, r.before, r.after
        ));
    }
    for r in table3() {
        line(format_args!(
            "table3 {} clusters={}->{} nodes={}->{} lc={}->{}",
            r.model,
            r.before_cp,
            r.after_cp,
            r.nodes_before,
            r.nodes_after,
            r.lc_before_cp,
            r.lc_after_cp
        ));
    }
    for k in ModelKind::all() {
        let c = plain(k);
        line(format_args!(
            "table4 {} parallelism={:.6} clusters={} seq={} makespan={} sim_speedup={:.6}",
            k.name(),
            c.report.parallelism.parallelism,
            c.report.clusters_after_merge,
            simulate_sequential(&c.graph, &StaticCost, 1),
            simulated_makespan(&c),
            simulated_speedup(&c)
        ));
    }
    for k in [ModelKind::YoloV5, ModelKind::Bert, ModelKind::NasNet] {
        let (plain, pruned) = (plain(k), pruned(k));
        let baseline = simulate_sequential(&plain.graph, &StaticCost, 1);
        line(format_args!(
            "table6 {} baseline={} makespan={} dce_makespan={} s_lc={:.6} s_lc_dce={:.6}",
            k.name(),
            baseline,
            simulated_makespan(&plain),
            simulated_makespan(&pruned),
            simulated_speedup_vs(&plain, baseline),
            simulated_speedup_vs(&pruned, baseline)
        ));
    }
    let opt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.6}"));
    for r in table7() {
        line(format_args!(
            "table7 {} s_lc={:.6} s_lc_dce={} s_lc_clone={} s_overall={:.6}",
            r.model,
            r.s_lc,
            opt(r.s_lc_dce),
            opt(r.s_lc_clone),
            r.s_overall
        ));
    }
    for r in table8() {
        line(format_args!(
            "table8 {} baseline={} ours={:.6} ios_makespan={} ios={:.6} dp_states={}",
            r.model, r.baseline, r.ours_speedup, r.ios_makespan, r.ios_speedup, r.ios_dp_states
        ));
    }
    for r in fig12() {
        line(format_args!(
            "fig12 {} plain={:.6} cloned={:.6} uplift={:.4}%",
            r.model, r.plain_speedup, r.cloned_speedup, r.uplift_pct
        ));
    }
    let mut hyper = |fig: &str, k: ModelKind, batches: &[usize], variants: &[bool]| {
        let c = plain(k);
        for &batch in batches {
            for &switched in variants {
                let (makespan, seq) = hyper_sim(&c, batch, switched);
                line(format_args!(
                    "{fig} {} batch={batch} {} seq={seq} makespan={makespan}",
                    k.name(),
                    if switched { "switched" } else { "plain" },
                ));
            }
        }
    };
    for k in FIG13_MODELS {
        hyper("fig13", k, &FIG13_BATCHES, &[false]);
    }
    hyper(
        "fig14",
        ModelKind::Squeezenet,
        &FIG14_BATCHES,
        &[false, true],
    );
    out
}
