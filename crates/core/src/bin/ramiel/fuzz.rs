//! `ramiel fuzz`: differential fuzzing — random layered DAGs through the
//! full pipeline, comparing parallel execution of the optimized graph
//! against plain sequential execution of the original. Flags: `--iters N`
//! (10 graphs per iteration, default 3).

use ramiel::obs::Obs;
use ramiel::PipelineOptions;
use ramiel_models::synthetic;
use ramiel_runtime::{run, run_sequential, synth_inputs, RunOptions};
use ramiel_tensor::ExecCtx;
use std::slice::from_ref;

args!(Args "fuzz"; iters: usize = 3, "--iters";);

pub fn main(flags: &[String]) -> Result<(), String> {
    let a = Args::parse(flags)?;
    let graphs = a.iters.max(1) * 10;
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
        let c = ramiel::schedule(g, &PipelineOptions::all_optimizations())
            .map_err(|e| format!("seed {seed}: compile: {e}"))?;
        c.clustering
            .check_partition(&c.graph)
            .map_err(|e| format!("seed {seed}: partition: {e}"))?;
        let code = c.emit(&Obs::disabled());
        if let Some(ci) = (0..c.clustering.num_clusters())
            .find(|ci| !code.parallel.contains(&format!("def cluster_{ci}(")))
        {
            return Err(format!("seed {seed}: emitted Python lacks cluster {ci}"));
        }
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
