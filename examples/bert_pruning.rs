//! Constant propagation + DCE on BERT (paper Section III-C, Fig. 6,
//! Table III).
//!
//! A BERT export is full of `Shape → Gather → Concat → Reshape` chains and
//! constant arithmetic. Pruning folds them away, which both shrinks the
//! graph and collapses the cluster count — the paper's "horizontal branch
//! reduction". The pruned graph must still compute the same function, which
//! this example verifies by running both versions.
//!
//! ```sh
//! cargo run --release --example bert_pruning
//! ```

use ramiel::{schedule, PipelineOptions};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{run_sequential, synth_inputs};
use ramiel_tensor::{ExecCtx, Value};

fn main() {
    // Moderate BERT so the demo runs in a second or two.
    let cfg = ModelConfig {
        depth_pct: 50, // 6 encoder layers
        ..ModelConfig::full()
    };

    let plain = schedule(build(ModelKind::Bert, &cfg), &PipelineOptions::default())
        .expect("baseline pipeline");
    let pruned = schedule(
        build(ModelKind::Bert, &cfg),
        &PipelineOptions {
            prune: true,
            ..Default::default()
        },
    )
    .expect("pruned pipeline");

    println!(
        "BERT nodes:    {} → {} after const-prop + DCE ({} folded)",
        plain.graph.num_nodes(),
        pruned.graph.num_nodes(),
        plain.graph.num_nodes() - pruned.graph.num_nodes()
    );
    println!(
        "BERT clusters: {} → {}",
        plain.report.clusters_after_merge, pruned.report.clusters_after_merge
    );

    // Equivalence: identical outputs on the same inputs.
    let inputs = synth_inputs(&plain.graph, 2024);
    let ctx = ExecCtx::sequential();
    let a = run_sequential(&plain.graph, &inputs, &ctx).expect("plain run");
    let b = run_sequential(&pruned.graph, &inputs, &ctx).expect("pruned run");
    let mut max_err = 0.0f32;
    for (name, va) in &a {
        if let (Value::F32(x), Value::F32(y)) = (va, &b[name]) {
            for (p, q) in x.data().iter().zip(y.data()) {
                max_err = max_err.max((p - q).abs());
            }
        }
    }
    println!("max |Δ| between plain and pruned outputs: {max_err:.2e}");
    assert!(max_err < 1e-4, "pruning must preserve semantics");
    println!("pruning preserved the model's outputs ✓");
}
