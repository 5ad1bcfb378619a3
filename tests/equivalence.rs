//! Semantic-equivalence tests: every transformation and every execution
//! strategy must compute the same function as the plain sequential
//! interpreter.

use ramiel::{schedule, PipelineOptions};
use ramiel_cluster::{cluster_graph, hypercluster, switched_hypercluster, StaticCost};
use ramiel_models::{build, synthetic, ModelConfig, ModelKind};
use ramiel_passes::CloneConfig;
use ramiel_runtime::{run, run_sequential, synth_inputs, Env, RunOptions};
use ramiel_tensor::{ExecCtx, Value};
use std::slice::from_ref;

fn assert_close(a: &Env, b: &Env, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: output count");
    for (k, va) in a {
        match (va, &b[k]) {
            (Value::F32(x), Value::F32(y)) => {
                assert_eq!(x.shape(), y.shape(), "{what}: {k} shape");
                for (p, q) in x.data().iter().zip(y.data()) {
                    let same = (p.is_nan() && q.is_nan())
                        || p == q
                        || (p - q).abs() <= 1e-4 * p.abs().max(1.0);
                    assert!(same, "{what}: {k}: {p} vs {q}");
                }
            }
            (va, vb) => assert_eq!(va, vb, "{what}: {k}"),
        }
    }
}

#[test]
fn optimized_pipeline_preserves_model_semantics() {
    // prune + clone must not change what any model computes
    let cfg = ModelConfig::tiny();
    let ctx = ExecCtx::sequential();
    for kind in ModelKind::all() {
        let original = build(kind, &cfg);
        let inputs = synth_inputs(&original, 99);
        let baseline = run_sequential(&original, &inputs, &ctx)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        let c = schedule(original, &PipelineOptions::all_optimizations()).unwrap();
        let optimized = run_sequential(&c.graph, &inputs, &ctx)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        // prune may rename an output only if it was an identity; our models
        // keep output names stable
        assert_close(&baseline, &optimized, kind.name());
    }
}

#[test]
fn parallel_execution_of_optimized_graphs_matches_sequential() {
    let cfg = ModelConfig::tiny();
    let ctx = ExecCtx::sequential();
    for kind in ModelKind::all() {
        let c = schedule(build(kind, &cfg), &PipelineOptions::all_optimizations()).unwrap();
        let inputs = synth_inputs(&c.graph, 123);
        let seq = run_sequential(&c.graph, &inputs, &ctx).unwrap();
        let par = run(
            &c.graph,
            &c.clustering,
            from_ref(&inputs),
            &ctx,
            &RunOptions::default(),
        )
        .single()
        .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert_close(&seq, &par, kind.name());
    }
}

#[test]
fn intra_op_parallelism_does_not_change_results() {
    let g = build(ModelKind::InceptionV3, &ModelConfig::tiny());
    let clustering = cluster_graph(&g, &StaticCost);
    let inputs = synth_inputs(&g, 31);
    let seq = run_sequential(&g, &inputs, &ExecCtx::sequential()).unwrap();
    for threads in [2usize, 4] {
        let ctx = ExecCtx::with_intra_op(threads);
        let s = run_sequential(&g, &inputs, &ctx).unwrap();
        assert_close(&seq, &s, "intra-op sequential");
        let p = run(
            &g,
            &clustering,
            from_ref(&inputs),
            &ctx,
            &RunOptions::default(),
        )
        .single()
        .unwrap();
        assert_close(&seq, &p, "intra-op parallel");
    }
}

#[test]
fn hyperclustering_matches_per_sample_baseline_on_models() {
    let cfg = ModelConfig::tiny();
    let ctx = ExecCtx::sequential();
    for kind in [
        ModelKind::Squeezenet,
        ModelKind::Googlenet,
        ModelKind::YoloV5,
    ] {
        let g = build(kind, &cfg);
        let clustering = cluster_graph(&g, &StaticCost);
        for batch in [2usize, 3] {
            let inputs: Vec<Env> = (0..batch)
                .map(|b| synth_inputs(&g, 7 * b as u64 + 1))
                .collect();
            for (label, hc) in [
                ("plain", hypercluster(&clustering, batch)),
                ("switched", switched_hypercluster(&clustering, batch)),
            ] {
                let outs = run(&g, &hc, &inputs, &ctx, &RunOptions::default())
                    .outputs
                    .unwrap_or_else(|e| panic!("{} {label} b{batch}: {e}", kind.name()));
                for (b, inp) in inputs.iter().enumerate() {
                    let seq = run_sequential(&g, inp, &ctx).unwrap();
                    assert_close(&seq, &outs[b], &format!("{} {label}", kind.name()));
                }
            }
        }
    }
}

#[test]
fn random_layered_graphs_survive_the_whole_stack() {
    let ctx = ExecCtx::sequential();
    for seed in 0..8u64 {
        let g = synthetic::layered_random(seed, 6, 4, 2);
        let inputs = synth_inputs(&g, seed);
        let baseline = run_sequential(&g, &inputs, &ctx).unwrap();

        let c = schedule(
            g,
            &PipelineOptions {
                prune: true,
                cloning: Some(CloneConfig::default()),
                ..Default::default()
            },
        )
        .unwrap();
        let par = run(
            &c.graph,
            &c.clustering,
            from_ref(&inputs),
            &ctx,
            &RunOptions::default(),
        )
        .single()
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_close(&baseline, &par, &format!("seed {seed}"));
    }
}
