//! Task cloning on Inception V3 (paper Section III-D / Fig. 7 / Fig. 12).
//!
//! Inception's four-branch blocks all hang off a single producer; cloning
//! the cheap fan-out nodes gives every branch a private copy, cutting
//! cross-cluster messages. This example compares cluster structure and
//! simulated makespan with and without cloning.
//!
//! ```sh
//! cargo run --release --example inception_cloning
//! ```

use ramiel::{schedule, PipelineOptions};
use ramiel_cluster::StaticCost;
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_passes::CloneConfig;
use ramiel_runtime::{simulate_clustering, simulate_sequential, SimConfig};

fn main() {
    let cfg = ModelConfig::full();
    let sim_cfg = SimConfig::default();

    let baseline = schedule(
        build(ModelKind::InceptionV3, &cfg),
        &PipelineOptions::default(),
    )
    .expect("baseline pipeline");
    let cloned = schedule(
        build(ModelKind::InceptionV3, &cfg),
        &PipelineOptions {
            cloning: Some(CloneConfig::default()),
            ..Default::default()
        },
    )
    .expect("cloning pipeline");

    for (label, c) in [("LC", &baseline), ("LC + cloning", &cloned)] {
        let sim = simulate_clustering(&c.graph, &c.clustering, &StaticCost, &sim_cfg)
            .expect("simulation");
        let seq = simulate_sequential(&c.graph, &StaticCost, 1);
        println!(
            "{label:14} nodes {:4}  clusters {:2}  cross-edges {:3}  simulated speedup {:.2}x  slack {:.0}%",
            c.graph.num_nodes(),
            c.report.clusters_after_merge,
            c.report.cross_cluster_edges,
            seq as f64 / sim.makespan as f64,
            100.0 * sim.slack_fraction(),
        );
    }

    let fewer_edges = cloned.report.cross_cluster_edges <= baseline.report.cross_cluster_edges;
    println!(
        "\ncloning {} cross-cluster messages ({} → {})",
        if fewer_edges {
            "reduced"
        } else {
            "did not reduce"
        },
        baseline.report.cross_cluster_edges,
        cloned.report.cross_cluster_edges
    );
}
