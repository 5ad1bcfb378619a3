//! The static peak-memory estimate is a *true upper bound*, and in-place
//! buffer reuse never changes results.
//!
//! Two contracts from `ramiel-verify`'s memory estimate / the reuse rewrite:
//!
//! 1. For every built-in model and every executor, the measured high-water
//!    mark of an allocation-tracking [`MemGauge`] never exceeds
//!    `estimate_memory`'s static bound — when the analysis view matches the
//!    executor's real replay policy (in-order for the sequential walk,
//!    where the bound is exact and equals the measured peak;
//!    first-ready for the channel engine — per-run or a standing
//!    `HyperPool` — whose workers may legally reorder around a blocked op,
//!    the estimate-only resident sum for work stealing).
//! 2. Running with `reuse: false` (no in-place rewriting, no eviction) is
//!    bit-identical to the default `reuse: true` path on every executor:
//!    in-place kernels write the same values the allocating kernels do.
//!    And reuse pays: on SqueezeNet and BERT it cuts the measured
//!    sequential peak by at least a quarter.

use ramiel::verify::estimate_memory;
use ramiel_cluster::{
    cluster_graph, hyper_view, hypercluster, stealing_view, switched_hypercluster, StaticCost,
};
use ramiel_ir::Graph;
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{
    run, run_sequential, run_sequential_opts, synth_inputs, Engine, Env, HyperPool, PlannedBatch,
    RunOptions,
};
use ramiel_tensor::{ExecCtx, MemGauge, Value};
use ramiel_verify::{ExecPolicy, ScheduleView};
use std::sync::Arc;

const ENGINES: [(&str, Engine); 2] = [
    ("channels", Engine::Channels),
    ("stealing", Engine::Stealing),
];

/// `hc` as two consecutive jobs of a standing pool built from `ctx`/`opts`;
/// returns the second job's outputs.
fn run_on_standing_pool(
    g: &Graph,
    hc: &ramiel_cluster::HyperClustering,
    inputs: &[Env],
    ctx: &ExecCtx,
    opts: &RunOptions,
) -> Vec<Env> {
    let plan = Arc::new(PlannedBatch::new(g, hc.clone()).unwrap());
    let mut pool = HyperPool::with_options(g, plan.num_workers(), ctx, opts).unwrap();
    let shared = Arc::new(inputs.to_vec());
    pool.run_batch(&plan, &shared).unwrap();
    pool.run_batch(&plan, &shared).unwrap()
}

fn gauge_ctx() -> (Arc<MemGauge>, ExecCtx) {
    let gauge = MemGauge::new();
    let ctx = ExecCtx::sequential().with_mem_gauge(gauge.clone());
    (gauge, ctx)
}

fn assert_bound(model: &str, executor: &str, estimate: u64, gauge: &MemGauge) {
    let measured = gauge.peak_bytes();
    assert!(
        measured <= estimate,
        "{model}/{executor}: measured peak {measured} B exceeds static estimate {estimate} B"
    );
    assert_eq!(
        gauge.live_bytes(),
        0,
        "{model}/{executor}: gauge leaked live bytes after the run"
    );
}

/// Contract 1 over 8 models × {sequential; channels, standing pool and
/// stealing × (clustering at batch 1, plain and switched hyperclustering at
/// batch 4)}.
#[test]
fn estimate_upper_bounds_measured_peak_on_every_executor() {
    let cfg = ModelConfig::tiny();
    for kind in ModelKind::all() {
        let model = kind.name();
        let g = build(kind, &cfg);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs: Vec<Env> = (0..4).map(|b| synth_inputs(&g, 100 + b as u64)).collect();

        // sequential: single worker, the executor's own topological order
        let order = ramiel_ir::topo::topo_sort(&g).unwrap();
        let view = ScheduleView::single_batch(vec![order], ExecPolicy::InOrder);
        let (est, _) = estimate_memory(&g, &g.adjacency(), &view);
        let (gauge, ctx) = gauge_ctx();
        run_sequential(&g, &inputs[0], &ctx).unwrap();
        assert_bound(model, "sequential", est.peak_bytes, &gauge);
        // In order, the estimate is exact: it is the gauge's high-water mark.
        assert_eq!(
            gauge.peak_bytes(),
            est.peak_bytes,
            "{model}/sequential: measured peak differs from the in-order estimate"
        );

        for (schedule, hc) in [
            ("clusters", hypercluster(&clustering, 1)),
            ("hyper", hypercluster(&clustering, 4)),
            ("hyper-switched", switched_hypercluster(&clustering, 4)),
        ] {
            let inputs = &inputs[..hc.batch];
            for (engine_name, engine) in ENGINES {
                let view = match engine {
                    // cluster-per-worker, first-ready-first replay
                    Engine::Channels => {
                        let mut view = hyper_view(&hc);
                        view.policy = ExecPolicy::FirstReady;
                        view
                    }
                    // no static schedule: the estimate-only stealing view
                    // (first-ready resident sum — sound for any
                    // interleaving the pool picks)
                    _ => stealing_view(&g, hc.batch),
                };
                let (est, _) = estimate_memory(&g, &g.adjacency(), &view);
                if engine == Engine::Stealing {
                    assert!(!est.exact, "stealing view must be estimate-only");
                }
                let label = format!("{engine_name}/{schedule}");
                let opts = RunOptions::default().engine(engine);
                let (gauge, ctx) = gauge_ctx();
                run(&g, &hc, inputs, &ctx, &opts).outputs.unwrap();
                assert_bound(model, &label, est.peak_bytes, &gauge);

                if engine == Engine::Channels {
                    let (gauge, ctx) = gauge_ctx();
                    run_on_standing_pool(&g, &hc, inputs, &ctx, &opts);
                    assert_bound(model, &format!("pool/{schedule}"), est.peak_bytes, &gauge);
                }
            }
        }
    }
}

/// First `(tensor, reason)` where two envs differ in exact f32 bit
/// patterns (or any non-f32 value differs at all).
fn first_bit_divergence(expect: &Env, got: &Env) -> Option<(String, String)> {
    for (name, va) in expect {
        let Some(vb) = got.get(name) else {
            return Some((name.clone(), "missing from output".into()));
        };
        match (va, vb) {
            (Value::F32(x), Value::F32(y)) => {
                if x.shape() != y.shape() {
                    return Some((
                        name.clone(),
                        format!("shape {:?} vs {:?}", x.shape(), y.shape()),
                    ));
                }
                for (i, (p, q)) in x.data().iter().zip(y.data()).enumerate() {
                    if p.to_bits() != q.to_bits() {
                        return Some((
                            name.clone(),
                            format!("bits differ at flat index {i}: {p} vs {q}"),
                        ));
                    }
                }
            }
            (va, vb) => {
                if va != vb {
                    return Some((name.clone(), "non-f32 outputs differ".into()));
                }
            }
        }
    }
    None
}

fn assert_bits(expect: &Env, got: &Env, model: &str, executor: &str) {
    if let Some((tensor, why)) = first_bit_divergence(expect, got) {
        panic!("{model}/{executor}: reuse changed output `{tensor}`: {why}");
    }
    assert_eq!(expect.len(), got.len(), "{model}/{executor}: output count");
}

/// Contract 2: `reuse: true` (default, in-place + eviction) is bit-identical
/// to `reuse: false` on every executor and every model.
#[test]
fn in_place_reuse_is_bit_identical_on_every_executor() {
    let cfg = ModelConfig::tiny();
    let ctx = ExecCtx::sequential();
    let off = RunOptions::default().reuse(false);
    for kind in ModelKind::all() {
        let model = kind.name();
        let g = build(kind, &cfg);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs: Vec<Env> = (0..3).map(|b| synth_inputs(&g, 7 + b as u64)).collect();
        let baseline: Vec<Env> = inputs
            .iter()
            .map(|inp| run_sequential_opts(&g, inp, &ctx, &off).unwrap())
            .collect();
        let seq = run_sequential(&g, &inputs[0], &ctx).unwrap();
        assert_bits(&baseline[0], &seq, model, "sequential");

        for (schedule, hc) in [
            ("clusters", hypercluster(&clustering, 1)),
            ("hyper-switched", switched_hypercluster(&clustering, 3)),
        ] {
            let inputs = &inputs[..hc.batch];
            for reuse in [false, true] {
                let check = |executor: &str, outs: Vec<Env>| {
                    for (b, out) in outs.iter().enumerate() {
                        let label = format!("{executor}/{schedule}[reuse={reuse}] b{b}");
                        assert_bits(&baseline[b], out, model, &label);
                    }
                };
                for (engine_name, engine) in ENGINES {
                    let opts = RunOptions::default().reuse(reuse).engine(engine);
                    check(
                        engine_name,
                        run(&g, &hc, inputs, &ctx, &opts).outputs.unwrap(),
                    );
                    if engine == Engine::Channels {
                        check("pool", run_on_standing_pool(&g, &hc, inputs, &ctx, &opts));
                    }
                }
            }
        }
    }
}

/// Contract 2's other half: in-place rewriting plus liveness eviction cut
/// the measured sequential peak to at most 3/4 of the keep-everything run.
#[test]
fn reuse_cuts_measured_peak_by_a_quarter_on_squeezenet_and_bert() {
    for kind in [ModelKind::Squeezenet, ModelKind::Bert] {
        let g = build(kind, &ModelConfig::tiny());
        let inputs = synth_inputs(&g, 42);
        let peak = |reuse: bool| {
            let (gauge, ctx) = gauge_ctx();
            run_sequential_opts(&g, &inputs, &ctx, &RunOptions::default().reuse(reuse)).unwrap();
            gauge.peak_bytes()
        };
        let (on, off) = (peak(true), peak(false));
        assert!(
            4 * on <= 3 * off,
            "{}: peak {on} B with reuse vs {off} B without; reuse must cut it by >= 25%",
            kind.name()
        );
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The bound holds for arbitrary input seeds, not just the fixed
        /// ones above: payload values can never change liveness.
        #[test]
        fn estimate_bounds_measured_peak_for_any_seed(
            seed in any::<u64>(),
            use_bert in any::<bool>(),
        ) {
            let kind = if use_bert {
                ModelKind::Bert
            } else {
                ModelKind::Squeezenet
            };
            let g = build(kind, &ModelConfig::tiny());
            let clustering = cluster_graph(&g, &StaticCost);
            let inputs = synth_inputs(&g, seed);

            let order = ramiel_ir::topo::topo_sort(&g).unwrap();
            let view = ScheduleView::single_batch(vec![order], ExecPolicy::InOrder);
            let (est, _) = estimate_memory(&g, &g.adjacency(), &view);
            let (gauge, ctx) = gauge_ctx();
            run_sequential(&g, &inputs, &ctx).unwrap();
            prop_assert!(gauge.peak_bytes() <= est.peak_bytes);

            let mut view = ramiel_cluster::clustering_view(&clustering);
            view.policy = ExecPolicy::FirstReady;
            let stealing = stealing_view(&g, 1);
            for (view, (_, engine)) in [view, stealing].iter().zip(ENGINES) {
                let (est, _) = estimate_memory(&g, &g.adjacency(), view);
                let (gauge, ctx) = gauge_ctx();
                let opts = RunOptions::default().engine(engine);
                run(&g, &clustering, std::slice::from_ref(&inputs), &ctx, &opts)
                    .single()
                    .unwrap();
                prop_assert!(gauge.peak_bytes() <= est.peak_bytes);
            }
        }
    }
}
