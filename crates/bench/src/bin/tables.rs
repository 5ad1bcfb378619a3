//! `tables` — print any (or all) of the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p ramiel-bench --bin tables            # everything
//! cargo run --release -p ramiel-bench --bin tables -- table4  # one table
//! cargo run --release -p ramiel-bench --bin tables -- golden  # deterministic columns only
//! ```

use ramiel_bench as b;
use std::process::ExitCode;

fn table1() {
    println!("== Table I — potential parallelism of ML dataflow graphs ==");
    println!(
        "{:<14} {:>7} {:>13} {:>8} {:>12}",
        "Model", "#Nodes", "Wt.NodeCost", "Wt.CP", "Parallelism"
    );
    for r in b::table1() {
        println!(
            "{:<14} {:>7} {:>13} {:>8} {:>11.2}x",
            r.model, r.nodes, r.node_cost, r.cp_cost, r.parallelism
        );
    }
}

fn table2() {
    println!("== Table II — clusters before/after merging ==");
    println!(
        "{:<14} {:>15} {:>14}",
        "Model", "Before Merging", "After Merging"
    );
    for r in b::table2() {
        println!("{:<14} {:>15} {:>14}", r.model, r.before, r.after);
    }
}

fn table3() {
    println!("== Table III — clusters after constant propagation + DCE ==");
    println!(
        "{:<14} {:>17} {:>16} {:>12} {:>12} {:>10} {:>10}",
        "Model",
        "Before ConstProp",
        "After ConstProp",
        "Nodes before",
        "Nodes after",
        "LC before",
        "LC after"
    );
    for r in b::table3() {
        println!(
            "{:<14} {:>17} {:>16} {:>12} {:>12} {:>10} {:>10}",
            r.model,
            r.before_cp,
            r.after_cp,
            r.nodes_before,
            r.nodes_after,
            r.lc_before_cp,
            r.lc_after_cp
        );
    }
}

fn table4(iters: usize) {
    println!("== Table IV — Linear Clustering: sequential vs parallel ==");
    println!(
        "{:<14} {:>11} {:>9} {:>10} {:>10} {:>8} {:>12}",
        "Model", "Parallelism", "Clusters", "Seq(ms)", "Par(ms)", "Speedup", "SimSpeedup"
    );
    for r in b::table4(iters) {
        println!(
            "{:<14} {:>10.2}x {:>9} {:>10.2} {:>10.2} {:>7.2}x {:>11.2}x",
            r.model, r.parallelism, r.clusters, r.seq_ms, r.par_ms, r.speedup, r.sim_speedup
        );
    }
}

fn table5(iters: usize) {
    println!("== Table V — LC + downstream intra-op parallelism ==");
    println!(
        "{:<14} {:>9} {:>9} {:>8} {:>9} {:>9} {:>8} {:>8}",
        "Model", "Par2(ms)", "Seq2(ms)", "Sp(2)", "Par4(ms)", "Seq4(ms)", "Sp(4)", "Best"
    );
    for r in b::table5(iters) {
        println!(
            "{:<14} {:>9.2} {:>9.2} {:>7.2}x {:>9.2} {:>9.2} {:>7.2}x {:>7.2}x",
            r.model,
            r.par2_ms,
            r.seq2_ms,
            r.speedup2,
            r.par4_ms,
            r.seq4_ms,
            r.speedup4,
            r.best_overall
        );
    }
}

fn table6(iters: usize) {
    println!("== Table VI — LC + constant propagation + DCE ==");
    println!(
        "{:<14} {:>8} {:>10} {:>12} {:>14}",
        "Model", "S_LC", "S_LC+DCE", "S_LC (real)", "S_LC+DCE (real)"
    );
    for r in b::table6(iters) {
        println!(
            "{:<14} {:>7.2}x {:>9.2}x {:>11.2}x {:>13.2}x",
            r.model, r.s_lc, r.s_lc_dce, r.s_lc_measured, r.s_lc_dce_measured
        );
    }
}

fn table7() {
    println!("== Table VII — overall (simulated, fixed baseline) ==");
    println!(
        "{:<14} {:>8} {:>10} {:>13} {:>10}",
        "Model", "S_LC", "S_LC+DCE", "S_LC+Cloning", "S_Overall"
    );
    let fmt = |v: Option<f64>| v.map_or("      -".to_string(), |x| format!("{x:>6.2}x"));
    for r in b::table7() {
        println!(
            "{:<14} {:>7.2}x {:>10} {:>13} {:>9.2}x",
            r.model,
            r.s_lc,
            fmt(r.s_lc_dce),
            fmt(r.s_lc_clone),
            r.s_overall
        );
    }
}

fn table8() {
    println!("== Table VIII — comparison with IOS ==");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "Model", "Ours", "CT(ours)", "IOS", "CT(IOS)", "DP states"
    );
    for r in b::table8() {
        println!(
            "{:<14} {:>11.2}x {:>12.2?} {:>11.2}x {:>12.2?} {:>10}",
            r.model, r.ours_speedup, r.ours_ct, r.ios_speedup, r.ios_ct, r.ios_dp_states
        );
    }
}

fn fig12() {
    println!("== Fig. 12 — cloning uplift (simulated, fixed baseline) ==");
    println!(
        "{:<14} {:>10} {:>10} {:>9}",
        "Model", "No clone", "Cloned", "Uplift"
    );
    for r in b::fig12() {
        println!(
            "{:<14} {:>9.2}x {:>9.2}x {:>8.1}%",
            r.model, r.plain_speedup, r.cloned_speedup, r.uplift_pct
        );
    }
}

fn print_hyper(rows: &[b::HyperRow]) {
    println!(
        "{:<14} {:>6} {:>9} {:>9} {:>10} {:>12}",
        "Model", "Batch", "Variant", "IntraOp", "Speedup", "SimSpeedup"
    );
    for r in rows {
        println!(
            "{:<14} {:>6} {:>9} {:>9} {:>9.2}x {:>11.2}x",
            r.model,
            r.batch,
            if r.switched { "switched" } else { "plain" },
            r.intra_op,
            r.measured_speedup,
            r.sim_speedup
        );
    }
}

fn fig13(iters: usize) {
    println!("== Fig. 13 — hyperclustering across batch sizes ==");
    print_hyper(&b::fig13(iters));
}

fn fig14(iters: usize) {
    println!("== Fig. 14 — switched hyperclustering (SqueezeNet) ==");
    print_hyper(&b::fig14(iters));
}

fn memory() {
    println!(
        "== Memory — peak activations, sequential estimate vs measured HyperPool (extension) =="
    );
    println!(
        "{:<14} {:>13} {:>13} {:>15} {:>10}",
        "Model", "SeqPeak KiB", "ParPeak KiB", "ParRange KiB", "Overhead"
    );
    for r in b::memory_table() {
        let [median, min, max] = r.par_peak_kib;
        println!(
            "{:<14} {:>13.1} {:>13.1} {:>15} {:>9.1}%",
            r.model,
            r.seq_peak_kib,
            median,
            format!("{min:.1}–{max:.1}"),
            r.overhead_pct
        );
    }
    println!(
        "(SeqPeak: static in-order estimate, equal to the sequential gauge; \
         ParPeak: median of {} runs)",
        b::MEMORY_RUNS
    );
}

/// Figs. 5/8/9: dump SqueezeNet's clusters and hyperclusters — as DOT files
/// (colored by cluster) plus a textual structure summary.
fn shapes() {
    use ramiel::{schedule, PipelineOptions};
    use ramiel_cluster::{hypercluster, switched_hypercluster};
    use ramiel_models::{build, ModelConfig, ModelKind};

    println!("== Figs. 5/8/9 — SqueezeNet cluster & hypercluster shapes ==");
    let c = schedule(
        build(ModelKind::Squeezenet, &ModelConfig::full()),
        &PipelineOptions::default(),
    )
    .expect("pipeline");
    for (ci, cluster) in c.clustering.clusters.iter().enumerate() {
        let ops: Vec<&str> = cluster
            .nodes
            .iter()
            .take(8)
            .map(|&n| c.graph.nodes[n].op.name())
            .collect();
        println!(
            "C{ci}: {:3} ops  [{}{}]",
            cluster.len(),
            ops.join(" → "),
            if cluster.len() > 8 { " → …" } else { "" }
        );
    }
    for (label, hc) in [
        ("HYC (batch 2)", hypercluster(&c.clustering, 2)),
        ("SHYC (batch 2)", switched_hypercluster(&c.clustering, 2)),
    ] {
        let sizes: Vec<usize> = hc.hyperclusters.iter().map(Vec::len).collect();
        println!("{label}: hypercluster op counts {sizes:?}");
    }
    let dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(dir).expect("create target/figures");
    let dot = ramiel_ir::dot::to_dot(&c.graph, Some(&c.clustering.assignment()));
    let path = dir.join("squeezenet_clusters.dot");
    std::fs::write(&path, dot).expect("write dot");
    println!("wrote {} (render with `dot -Tsvg`)", path.display());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let iters = 3;
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);

    if want("table1") {
        table1();
        println!();
    }
    if want("table2") {
        table2();
        println!();
    }
    if want("table3") {
        table3();
        println!();
    }
    if want("table4") {
        table4(iters);
        println!();
    }
    if want("table5") {
        table5(iters);
        println!();
    }
    if want("table6") {
        table6(iters);
        println!();
    }
    if want("table7") {
        table7();
        println!();
    }
    if want("table8") {
        table8();
        println!();
    }
    if want("fig12") {
        fig12();
        println!();
    }
    if want("fig13") {
        fig13(iters);
        println!();
    }
    if want("fig14") {
        fig14(iters);
        println!();
    }
    if want("shapes") {
        shapes();
        println!();
    }
    if want("memory") {
        memory();
        println!();
    }
    // Not part of `all`: the same numbers as the tables above, as text.
    if args.iter().any(|a| a == "golden") {
        print!("{}", b::paper_golden());
    }
    ExitCode::SUCCESS
}
