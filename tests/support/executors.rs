//! The executor table the differential suite iterates (`#[path]`-included
//! by `differential.rs`, not a test target of its own).

use ramiel_cluster::{hypercluster, switched_hypercluster, Clustering};
use ramiel_ir::Graph;
use ramiel_runtime::{run, Engine, Env, HyperPool, PlannedBatch, RunOptions, RuntimeError};
use ramiel_tensor::ExecCtx;
use std::slice::from_ref;
use std::sync::Arc;

const ENGINES: [(&str, Engine); 3] = [
    ("sequential", Engine::Sequential),
    ("channels", Engine::Channels),
    ("stealing", Engine::Stealing),
];

/// The executor table: every engine × {clustering per element, plain
/// hyperclustering, switched hyperclustering}, then one standing batch-1
/// pool serving the elements as consecutive jobs. `check` gets each row's
/// label and its per-element outputs.
pub fn for_each_executor(
    g: &Graph,
    clustering: &Clustering,
    inputs: &[Env],
    ctx: &ExecCtx,
    mut check: impl FnMut(&str, Result<Vec<Env>, RuntimeError>),
) {
    let plain = hypercluster(clustering, inputs.len());
    let switched = switched_hypercluster(clustering, inputs.len());
    for (engine_name, engine) in ENGINES {
        let opts = RunOptions::default().engine(engine);
        let per_element = inputs
            .iter()
            .map(|inp| run(g, clustering, from_ref(inp), ctx, &opts).single())
            .collect();
        check(&format!("{engine_name}/clusters"), per_element);
        for (schedule, hc) in [("hyper", &plain), ("hyper-switched", &switched)] {
            let outs = run(g, hc, inputs, ctx, &opts).outputs;
            check(&format!("{engine_name}/{schedule}"), outs);
        }
    }
    let plan = Arc::new(PlannedBatch::new(g, hypercluster(clustering, 1)).unwrap());
    let mut pool = HyperPool::new(g, plan.num_workers(), ctx).unwrap();
    let pooled = inputs
        .iter()
        .map(|inp| {
            Ok(pool
                .run_batch(&plan, &Arc::new(vec![inp.clone()]))?
                .remove(0))
        })
        .collect();
    check("pool/clusters", pooled);
}
