//! Serving with a standing worker pool.
//!
//! The paper's generated code forks long-lived Python processes once and
//! streams inferences through them. [`ramiel_runtime::HyperPool`] is the
//! same shape in-process: workers spawn once, weights are converted and
//! shared once, and each request flows through the standing cluster
//! workers as one job of a batch-1 schedule. This example compares
//! request latency against the same pool spawned per inference
//! (`run` on the channel engine) and validates every response.
//!
//! ```sh
//! cargo run --release --example serving_pool
//! ```

use ramiel::{schedule, PipelineOptions};
use ramiel_cluster::hypercluster;
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{run, run_sequential, synth_inputs, HyperPool, PlannedBatch, RunOptions};
use ramiel_tensor::ExecCtx;
use std::slice::from_ref;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let scheduled = schedule(
        build(ModelKind::Googlenet, &ModelConfig::full()),
        &PipelineOptions::default(),
    )
    .expect("pipeline");
    println!(
        "GoogleNet: {} nodes across {} standing cluster workers",
        scheduled.graph.num_nodes(),
        scheduled.clustering.num_clusters()
    );

    let ctx = ExecCtx::sequential();
    let requests: Vec<_> = (0..16u64)
        .map(|s| synth_inputs(&scheduled.graph, s))
        .collect();

    // golden responses from the reference interpreter
    let golden: Vec<_> = requests
        .iter()
        .map(|r| run_sequential(&scheduled.graph, r, &ctx).expect("sequential"))
        .collect();

    // strategy 1: spawn threads per request
    let t = Instant::now();
    for (i, r) in requests.iter().enumerate() {
        let out = run(
            &scheduled.graph,
            &scheduled.clustering,
            from_ref(r),
            &ctx,
            &RunOptions::default(),
        )
        .single()
        .expect("spawned");
        assert_eq!(out, golden[i], "request {i}");
    }
    let spawn_ms = t.elapsed().as_secs_f64() * 1e3 / requests.len() as f64;

    // strategy 2: standing pool
    let plan = PlannedBatch::new(&scheduled.graph, hypercluster(&scheduled.clustering, 1))
        .map(Arc::new)
        .expect("schedule");
    let mut pool = HyperPool::new(&scheduled.graph, plan.num_workers(), &ctx).expect("pool spawn");
    let t = Instant::now();
    for (i, r) in requests.iter().enumerate() {
        let out = pool
            .run_batch(&plan, &Arc::new(vec![r.clone()]))
            .expect("pool run");
        assert_eq!(out, [golden[i].clone()], "request {i}");
    }
    let pool_ms = t.elapsed().as_secs_f64() * 1e3 / requests.len() as f64;

    println!("spawn-per-request: {spawn_ms:.2} ms/request");
    println!(
        "standing pool:     {pool_ms:.2} ms/request ({:.0}% of spawn cost)",
        100.0 * pool_ms / spawn_ms
    );
    println!("all {} responses matched the reference ✓", requests.len());
}
