//! `ramiel simulate <model>`: the schedule's makespan under the static cost
//! model against a simulated sequential run. Flags: the model group; with
//! `--batch N` both sides run N samples.

use crate::model::{summarize, ModelArgs};
use ramiel_runtime::{simulate_clustering, simulate_hyper, simulate_sequential, SimConfig};

args!(Args "simulate", model: ModelArgs ["--tiny", "--prune", "--clone", "--batch", "--switched"];);

pub fn main(model: &str, flags: &[String]) -> Result<(), String> {
    let a = Args::parse(flags)?;
    let c =
        ramiel::schedule(a.model.graph(model)?, &a.model.options()).map_err(|e| e.to_string())?;
    summarize(&c.report, c.schedule_time);
    let cost = ramiel_cluster::StaticCost;
    let batch = a.model.batch.max(1);
    let seq = simulate_sequential(&c.graph, &cost, batch);
    let sim = match &c.hyper {
        Some(hc) => simulate_hyper(&c.graph, hc, &cost, &SimConfig::PAPER),
        None => simulate_clustering(&c.graph, &c.clustering, &cost, &SimConfig::PAPER),
    }
    .map_err(|e| e.to_string())?;
    println!("simulated sequential:  {seq} units (batch {batch})");
    println!("simulated parallel:    {} units", sim.makespan);
    let speedup = seq as f64 / sim.makespan as f64;
    println!("simulated speedup:     {speedup:.2}x");
    println!("per-worker busy:       {:?}", sim.busy);
    let slack = 100.0 * sim.slack_fraction();
    println!("slack fraction:        {slack:.0}%");
    Ok(())
}
