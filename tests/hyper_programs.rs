//! The hypercluster pool over compiled worker programs.
//!
//! [`PlannedBatch`] compiles a schedule into integer-addressed per-worker
//! programs; nothing about *what* is computed or *which* messages cross
//! which edges may change with that. Two guards:
//!
//! 1. on every built-in model × batch {1, 2, 4} × plain/switched schedule,
//!    [`HyperPool`] is bit-identical to `run_sequential`, and the messages
//!    it sends — count and copied bytes — equal the totals derived from a
//!    name-keyed consumer table built here, independently of the programs
//!    (one message per produced tensor instance per remote consuming
//!    worker). These are the counts the benchmark reports as
//!    `runtime.channel_msgs` / `runtime.channel_copied_bytes`.
//!    On BERT the payload those messages carry is at least twice the bytes
//!    copied to send them: a send shares the tensor buffer and copies only
//!    the value header and shape;
//! 2. compiling the programs costs no more than building that name-keyed
//!    table did (release builds only: a debug build times the allocator).

use ramiel_cluster::{cluster_graph, hypercluster, switched_hypercluster, StaticCost};
use ramiel_cluster::{Clustering, HyperClustering};
use ramiel_ir::Graph;
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{run_sequential, synth_inputs, Env, HyperPool, PlannedBatch};
use ramiel_tensor::{ExecCtx, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// The routing table as the pool kept it before programs: for every
/// produced tensor instance `(name, batch)`, the remote workers reading it.
fn consumer_table(graph: &Graph, hc: &HyperClustering) -> HashMap<(String, usize), Vec<usize>> {
    let adj = graph.adjacency();
    let mut owner: HashMap<(usize, usize), usize> = HashMap::new();
    for (w, ops) in hc.hyperclusters.iter().enumerate() {
        for op in ops {
            owner.insert((op.batch, op.node), w);
        }
    }
    let mut consumers: HashMap<(String, usize), Vec<usize>> = HashMap::new();
    for (w, ops) in hc.hyperclusters.iter().enumerate() {
        for op in ops {
            for inp in &graph.nodes[op.node].inputs {
                if let Some(&p) = adj.producer_of.get(inp) {
                    if owner[&(op.batch, p)] != w {
                        let entry = consumers.entry((inp.clone(), op.batch)).or_default();
                        if !entry.contains(&w) {
                            entry.push(w);
                        }
                    }
                }
            }
        }
    }
    consumers
}

/// `(messages, copied bytes)` one job sends according to `table`: a message
/// copies the value header plus the tensor's shape vector.
fn expected_traffic(graph: &Graph, table: &HashMap<(String, usize), Vec<usize>>) -> (u64, u64) {
    let mut msgs = 0u64;
    let mut copied = 0u64;
    for ((name, _), workers) in table {
        let rank = graph
            .tensor_info(name)
            .unwrap_or_else(|| panic!("no static shape for `{name}`"))
            .shape
            .len();
        let per_msg = std::mem::size_of::<Value>() + rank * std::mem::size_of::<usize>();
        msgs += workers.len() as u64;
        copied += (workers.len() * per_msg) as u64;
    }
    (msgs, copied)
}

fn schedule(clustering: &Clustering, switched: bool, batch: usize) -> HyperClustering {
    if switched {
        switched_hypercluster(clustering, batch)
    } else {
        hypercluster(clustering, batch)
    }
}

#[test]
fn programs_are_bit_identical_and_send_exactly_the_routed_messages() {
    let ctx = ExecCtx::sequential();
    for kind in ModelKind::all() {
        let g = build(kind, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let mut pool = HyperPool::new(&g, clustering.num_clusters(), &ctx).unwrap();
        let mut sent = (0u64, 0u64, 0u64);
        for switched in [false, true] {
            for batch in [1usize, 2, 4] {
                let label = format!("{kind:?} batch {batch} switched {switched}");
                let hc = schedule(&clustering, switched, batch);
                let want = expected_traffic(&g, &consumer_table(&g, &hc));
                let plan = Arc::new(PlannedBatch::new(&g, hc).unwrap());
                let inputs: Vec<Env> = (0..batch)
                    .map(|b| synth_inputs(&g, 31 * batch as u64 + b as u64))
                    .collect();
                let outs = pool.run_batch(&plan, &Arc::new(inputs.clone())).unwrap();
                for (b, inp) in inputs.iter().enumerate() {
                    let seq = run_sequential(&g, inp, &ctx).unwrap();
                    assert_eq!(seq, outs[b], "{label}: element {b} differs from sequential");
                }
                let total = pool.channel_stats().iter().fold((0, 0, 0), |acc, e| {
                    (acc.0 + e.sends, acc.1 + e.copied_bytes, acc.2 + e.bytes)
                });
                let got = (total.0 - sent.0, total.1 - sent.1);
                let payload = total.2 - sent.2;
                sent = total;
                if kind == ModelKind::Bert {
                    assert!(
                        payload >= 2 * got.1,
                        "{label}: sends copied {} of {payload} payload bytes; \
                         a send must share the tensor buffer, not deep-copy it",
                        got.1
                    );
                }
                assert_eq!(
                    got, want,
                    "{label}: (messages, copied bytes) sent vs routed"
                );
            }
        }
    }
}

/// Planning a batch-8 schedule (what the first batch of eight plans, on
/// first use) must not get slower: names are resolved once per graph, not
/// once per batch element.
#[cfg(not(debug_assertions))]
#[test]
fn compiling_batch_8_programs_is_no_slower_than_the_name_keyed_table() {
    use std::hint::black_box;
    use std::time::{Duration, Instant};
    let g = build(ModelKind::NasNet, &ModelConfig::full());
    let clustering = cluster_graph(&g, &StaticCost);
    let hc = hypercluster(&clustering, 8);
    let best = |f: &mut dyn FnMut()| {
        (0..15)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed()
            })
            .min()
            .unwrap_or(Duration::MAX)
    };
    let table = best(&mut || {
        black_box(consumer_table(black_box(&g), &hc));
    });
    let programs = best(&mut || {
        black_box(PlannedBatch::new(black_box(&g), hc.clone()).unwrap());
    });
    assert!(
        programs <= table * 2,
        "PlannedBatch::new took {programs:?} for NASNet batch 8; the name-keyed routing table \
         it replaces took {table:?}"
    );
}
