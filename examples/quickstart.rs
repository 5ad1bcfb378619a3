//! Quickstart: schedule SqueezeNet with Ramiel, look at the clusters, run
//! the graph sequentially and in parallel, then emit the parallel Python
//! code and print its first lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ramiel::obs::Obs;
use ramiel::{schedule, PipelineOptions};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{run, run_sequential, synth_inputs, RunOptions};
use ramiel_tensor::ExecCtx;
use std::slice::from_ref;
use std::time::Instant;

fn main() {
    // 1. Build (or load) a model. The zoo mirrors the paper's eight models.
    let graph = build(ModelKind::Squeezenet, &ModelConfig::full());
    println!(
        "SqueezeNet: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    // 2. Schedule: distance pass → linear clustering → cluster merging.
    let scheduled = schedule(graph, &PipelineOptions::default()).expect("pipeline succeeds");
    println!(
        "clusters: {} before merging → {} after (potential parallelism {:.2}x, schedule {:?})",
        scheduled.report.clusters_before_merge,
        scheduled.report.clusters_after_merge,
        scheduled.report.parallelism.parallelism,
        scheduled.schedule_time,
    );

    // 3. Execute on the built-in runtime: sequential baseline vs one thread
    //    per cluster.
    let inputs = synth_inputs(&scheduled.graph, 7);
    let ctx = ExecCtx::sequential();

    let t = Instant::now();
    let seq = run_sequential(&scheduled.graph, &inputs, &ctx).expect("sequential run");
    let seq_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let par = run(
        &scheduled.graph,
        &scheduled.clustering,
        from_ref(&inputs),
        &ctx,
        &RunOptions::default(),
    )
    .single()
    .expect("parallel run");
    let par_ms = t.elapsed().as_secs_f64() * 1e3;

    assert_eq!(
        seq.keys().collect::<Vec<_>>(),
        par.keys().collect::<Vec<_>>()
    );
    println!("sequential: {seq_ms:.2} ms   parallel: {par_ms:.2} ms");

    // 4. Emit the generated, readable PyTorch+Python modules:
    let code = scheduled.emit(&Obs::disabled());
    println!("\n--- parallel.py (first 25 lines) ---");
    for line in code.parallel.lines().take(25) {
        println!("{line}");
    }
}
