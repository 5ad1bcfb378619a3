//! `ramiel models [--detail]` lists the built-in models at full size
//! (`--detail` adds each one's operator histogram); `ramiel report` prints
//! their Table-I-style parallelism metrics and takes no flag.

use ramiel_models::{build, ModelConfig, ModelKind};

args!(Args "models"; detail: bool = false, "--detail";);

pub fn models(flags: &[String]) -> Result<(), String> {
    let a = Args::parse(flags)?;
    for k in ModelKind::all() {
        let g = build(k, &ModelConfig::full());
        println!(
            "{:14} {:5} nodes {:5} edges {:8} params",
            k.name(),
            g.num_nodes(),
            g.num_edges(),
            g.num_parameters()
        );
        if a.detail {
            for (op, count) in ramiel_models::op_histogram(&g) {
                println!("    {op:<22} {count:4}");
            }
        }
    }
    Ok(())
}

pub fn report(flags: &[String]) -> Result<(), String> {
    crate::no_flags("report", flags)?;
    println!(
        "{:<14} {:>7} {:>13} {:>8} {:>12}",
        "Model", "#Nodes", "Wt.NodeCost", "Wt.CP", "Parallelism"
    );
    for k in ModelKind::all() {
        let g = build(k, &ModelConfig::full());
        let r = ramiel_cluster::parallelism_report(&g, &ramiel_cluster::StaticCost);
        println!(
            "{:<14} {:>7} {:>13} {:>8} {:>11.2}x",
            r.model, r.num_nodes, r.total_node_cost, r.critical_path_cost, r.parallelism
        );
    }
    Ok(())
}
