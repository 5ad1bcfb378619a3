//! Profile-guided cost feedback (the paper's Fig. 10 loop): run → Profile
//! DB → `MeasuredCost` → recluster. These tests fabricate the measurements
//! so the loop is deterministic — the point is that *when* the static cost
//! model is wrong about a graph, replaying measured times into LC produces a
//! different and better schedule.

use ramiel::cluster::{
    cluster_graph, distance_to_end, linear_clustering, merge_clusters_fixpoint, Clustering,
    CostModel, MeasuredCost, StaticCost,
};
use ramiel::ir::{DType, Graph, GraphBuilder, OpKind};
use ramiel::runtime::{simulate_clustering, SimConfig, SimResult};

/// Three parallel chains between a fork and a join, with op kinds chosen so
/// StaticCost misjudges them badly:
///
/// - chain A: 4 MatMuls — statically huge (40 each), measured cheap;
/// - chain B: 4 Relus — statically trivial (1 each), measured dominant;
/// - chain C: 4 convs 3×3 — statically and measurably medium.
fn misjudged_graph() -> Graph {
    let mut b = GraphBuilder::new("misjudged");
    let x = b.input("x", DType::F32, vec![8, 8]);
    let img = b.input("img", DType::F32, vec![1, 4, 8, 8]);

    let mut a = x.clone();
    for i in 0..4 {
        a = b.op(&format!("mm{i}"), OpKind::MatMul, vec![a, x.clone()]);
    }
    let mut r = x.clone();
    for i in 0..4 {
        r = b.op(&format!("relu{i}"), OpKind::Relu, vec![r]);
    }
    let mut c = img;
    for i in 0..4 {
        c = b.conv(&c, 4, 4, (3, 3), (1, 1), (1, 1), 1);
        let _ = i;
    }
    let gap = b.op("gap", OpKind::GlobalAveragePool, vec![c]);
    let flat = b.op("flat", OpKind::Flatten { axis: 1 }, vec![gap]);
    let join = b.op("join", OpKind::Add, vec![a, r]);
    b.output(&join);
    b.output(&flat);
    b.finish().unwrap()
}

/// Measured nanoseconds contradicting StaticCost: MatMul 1µs, Relu 40µs,
/// conv 8µs (median → 1µs/unit, so units are: MatMul 1, Relu 40, Conv 8).
fn fabricated_samples(g: &Graph) -> Vec<(usize, u64)> {
    g.nodes
        .iter()
        .map(|n| {
            let ns = match &n.op {
                OpKind::MatMul => 1_000,
                OpKind::Relu => 40_000,
                OpKind::Conv { .. } => 8_000,
                _ => 1_000,
            };
            (n.id, ns)
        })
        .collect()
}

fn lc_merge(g: &Graph, cost: &dyn CostModel) -> Clustering {
    let dist = distance_to_end(g, cost);
    merge_clusters_fixpoint(&linear_clustering(g, &dist), &dist)
}

fn sim(g: &Graph, clustering: &Clustering, cost: &dyn CostModel) -> SimResult {
    simulate_clustering(g, clustering, cost, &SimConfig::PAPER).unwrap()
}

/// Canonical form for comparing clusterings independent of cluster order.
fn canonical(c: &Clustering) -> Vec<Vec<usize>> {
    let mut sets: Vec<Vec<usize>> = c
        .clusters
        .iter()
        .map(|cl| {
            let mut v = cl.nodes.clone();
            v.sort_unstable();
            v
        })
        .collect();
    sets.sort();
    sets
}

#[test]
fn measured_cost_reclustering_changes_and_improves_the_schedule() {
    let g = misjudged_graph();
    let static_clustering = lc_merge(&g, &StaticCost);
    let measured = MeasuredCost::from_node_ns(&g, &fabricated_samples(&g));
    let tuned_clustering = lc_merge(&g, &measured);

    assert_ne!(
        canonical(&static_clustering),
        canonical(&tuned_clustering),
        "measured costs must steer LC to a different partition"
    );

    // Ground truth is the measured model: the schedule LC built *from* it
    // must beat the schedule built from the misjudged static weights.
    let base = sim(&g, &static_clustering, &measured);
    let tuned = sim(&g, &tuned_clustering, &measured);
    assert!(
        tuned.makespan < base.makespan,
        "profile-guided makespan {} must beat static-guided {}",
        tuned.makespan,
        base.makespan
    );
}

#[test]
fn measured_cost_agrees_with_itself_on_a_round_trip() {
    // Reclustering twice from the same profile is a fixpoint: same partition.
    let g = misjudged_graph();
    let measured = MeasuredCost::from_node_ns(&g, &fabricated_samples(&g));
    let once = lc_merge(&g, &measured);
    let twice = lc_merge(&g, &measured);
    assert_eq!(canonical(&once), canonical(&twice));
}

#[test]
fn profile_db_feeds_measured_cost_end_to_end() {
    // Full loop on a real model with real (noisy) timings: the derived cost
    // model must price every node, and the reclustered schedule must still
    // pass the partition check and simulate to a finite makespan.
    use ramiel::models::{build, ModelConfig, ModelKind};
    use ramiel::runtime::{run, run_sequential, synth_inputs, RunOptions};
    use ramiel::tensor::ExecCtx;

    let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
    let clustering = cluster_graph(&g, &StaticCost);
    let ctx = ExecCtx::sequential();
    let inputs = synth_inputs(&g, 5);
    let expect = run_sequential(&g, &inputs, &ctx).unwrap();
    let profiled = RunOptions::default().profile(true);
    let r = run(
        &g,
        &clustering,
        std::slice::from_ref(&inputs),
        &ctx,
        &profiled,
    );
    let db = r.profile.clone().expect("profiled run");
    assert_eq!(r.single().unwrap(), expect);

    let measured = db.measured_cost(&g);
    assert_eq!(
        measured.sampled_nodes(),
        g.num_nodes(),
        "every node ran once, so every node must carry a sample"
    );
    for n in &g.nodes {
        assert!(measured.node_cost(&g, n) >= 1);
    }

    let tuned = lc_merge(&g, &measured);
    tuned.check_partition(&g).unwrap();
    let r = sim(&g, &tuned, &measured);
    assert!(r.makespan > 0);

    // The prediction report joins the same profile against the same model.
    let rep = ramiel::runtime::predict_report(&g, &measured, &db);
    assert_eq!(rep.clusters.len(), clustering.num_clusters());
    assert!(!rep.kinds.is_empty());
}
