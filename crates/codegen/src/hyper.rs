//! Code generation for hyperclustered (batch > 1) schedules.
//!
//! Extends Algorithm 4: each *hypercluster* becomes one Python method whose
//! body interleaves operations from several in-flight samples; SSA names and
//! queue keys carry the batch index. The generated in-order code matches the
//! schedules [`ramiel_cluster::hypercluster`] emits (which are
//! deadlock-free for in-order consumers); *switched* schedules execute
//! out-of-order in our Rust runtime and get a prominent docstring warning
//! here — the paper likewise only automates switched hyperclusters for
//! simple graphs.

use crate::pyop::torch_expr;
use crate::python::CodegenOptions;
use crate::SsaNamer;
use ramiel_cluster::hyper::HyperClustering;
use ramiel_ir::{Graph, OpKind};
use std::collections::{HashMap, HashSet};
use std::fmt::Write;

/// Generate a parallel Python module for a hyperclustered schedule.
pub fn generate_hyper_parallel(
    graph: &Graph,
    hc: &HyperClustering,
    opts: &CodegenOptions,
) -> String {
    let adj = graph.adjacency();
    let mut owner: HashMap<(usize, usize), usize> = HashMap::new();
    for (w, ops) in hc.hyperclusters.iter().enumerate() {
        for op in ops {
            owner.insert((op.batch, op.node), w);
        }
    }

    // message keys: (tensor, batch, consumer worker)
    let mut messages: Vec<(String, usize, usize)> = Vec::new();
    let mut message_set: HashSet<(String, usize, usize)> = HashSet::new();
    for (w, ops) in hc.hyperclusters.iter().enumerate() {
        for op in ops {
            for inp in &graph.nodes[op.node].inputs {
                if let Some(&p) = adj.producer_of.get(inp) {
                    if owner.get(&(op.batch, p)) != Some(&w)
                        && message_set.insert((inp.clone(), op.batch, w))
                    {
                        messages.push((inp.clone(), op.batch, w));
                    }
                }
            }
        }
    }

    // (tensor, batch) → consumer workers, ascending (the order the puts are
    // emitted).
    let mut dests_of: HashMap<(&str, usize), Vec<usize>> = HashMap::new();
    for (t, b, w) in &messages {
        dests_of.entry((t.as_str(), *b)).or_default().push(*w);
    }
    dests_of.values_mut().for_each(|d| d.sort_unstable());

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Auto-generated by Ramiel — {} hyperclustered inference for `{}`,\n\
         # batch size {}, {} hyperclusters, {} cross-cluster messages.",
        if hc.switched { "SWITCHED" } else { "plain" },
        graph.name,
        hc.batch,
        hc.num_hyperclusters(),
        messages.len()
    );
    if hc.switched {
        let _ = writeln!(
            out,
            "# WARNING: switched hyperclusters interleave samples across\n\
             # clusters; strict in-order queue consumption can deadlock on\n\
             # cross-batch wait cycles. This module is generated for the\n\
             # schedules Ramiel verifies; treat manual edits with care."
        );
    }
    let _ = writeln!(out, "import torch\nimport torch.nn.functional as F");
    let _ = writeln!(out, "from torch import multiprocessing as mp\n");
    let _ = writeln!(out, "{}", crate::pyop::PY_HELPERS);

    let graph_outputs: HashSet<&str> = graph.outputs.iter().map(String::as_str).collect();
    for (w, ops) in hc.hyperclusters.iter().enumerate() {
        let mut namer = SsaNamer::new();
        let mut received: HashSet<(String, usize)> = HashSet::new();
        let _ = writeln!(out, "\ndef hypercluster_{w}(W, inputs, queues, results):");
        let _ = writeln!(
            out,
            "    \"\"\"Hypercluster HYC{w}: {} ops across {} samples.\"\"\"",
            ops.len(),
            hc.batch
        );
        let ssa = |namer: &mut SsaNamer, tensor: &str, batch: usize| -> String {
            namer.name(&format!("{tensor}@{batch}"))
        };
        for op in ops {
            let node = &graph.nodes[op.node];
            for t in node.inputs.clone() {
                if let Some(&p) = adj.producer_of.get(&t) {
                    let src = owner[&(op.batch, p)];
                    if src != w && received.insert((t.clone(), op.batch)) {
                        let v = ssa(&mut namer, &t, op.batch);
                        let _ = writeln!(
                            out,
                            "    {v} = queues[('{t}', {b}, {w})].get()  # ← HYC{src}",
                            b = op.batch
                        );
                    }
                }
            }
            let args: Vec<String> = node
                .inputs
                .iter()
                .map(|t| {
                    if adj.producer_of.contains_key(t) {
                        ssa(&mut namer, t, op.batch)
                    } else if graph.is_initializer(t) {
                        format!("W['{t}']")
                    } else {
                        format!("inputs[{}]['{t}']", op.batch)
                    }
                })
                .collect();
            if matches!(node.op, OpKind::Constant) {
                let dst = ssa(&mut namer, &node.outputs[0], op.batch);
                let _ = writeln!(out, "    {dst} = W['{}']", node.outputs[0]);
            } else {
                let expr = torch_expr(&node.op, &args);
                let dsts: Vec<String> = node
                    .outputs
                    .iter()
                    .map(|t| ssa(&mut namer, t, op.batch))
                    .collect();
                let _ = writeln!(
                    out,
                    "    {} = {expr}  # {} b{}",
                    dsts.join(", "),
                    node.op.name(),
                    op.batch
                );
            }
            for t in &node.outputs {
                let dests = dests_of.get(&(t.as_str(), op.batch));
                for &dst in dests.map_or(&[][..], Vec::as_slice) {
                    let v = ssa(&mut namer, t, op.batch);
                    let _ = writeln!(
                        out,
                        "    queues[('{t}', {b}, {dst})].put({v})  # → HYC{dst}",
                        b = op.batch
                    );
                }
                if graph_outputs.contains(t.as_str()) {
                    let v = ssa(&mut namer, t, op.batch);
                    let _ = writeln!(out, "    results[{}]['{t}'] = {v}", op.batch);
                }
            }
        }
    }

    let _ = writeln!(out, "\n\nMESSAGE_KEYS = [");
    for (t, b, c) in &messages {
        let _ = writeln!(out, "    ('{t}', {b}, {c}),");
    }
    let _ = writeln!(out, "]\n");
    let _ = writeln!(out, "\ndef run_hyper(W, inputs):");
    let _ = writeln!(
        out,
        "    \"\"\"Run {} samples through {} hypercluster processes.\"\"\"",
        hc.batch,
        hc.num_hyperclusters()
    );
    let _ = writeln!(out, "    mgr = mp.Manager()");
    let _ = writeln!(
        out,
        "    results = [mgr.dict() for _ in range({})]",
        hc.batch
    );
    let _ = writeln!(out, "    queues = {{k: mp.Queue() for k in MESSAGE_KEYS}}");
    let _ = writeln!(out, "    procs = [");
    for w in 0..hc.num_hyperclusters() {
        let _ = writeln!(
            out,
            "        mp.Process(target=hypercluster_{w}, args=(W, inputs, queues, results)),"
        );
    }
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "    for p in procs:");
    let _ = writeln!(out, "        p.start()");
    let _ = writeln!(out, "    for p in procs:");
    let _ = writeln!(out, "        p.join()");
    let _ = writeln!(out, "    return [dict(r) for r in results]");
    if opts.include_main {
        let _ = writeln!(out, "\nif __name__ == '__main__':");
        let _ = writeln!(
            out,
            "    print('generated hypercluster module for {}')",
            graph.name
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_cluster::{cluster_graph, hypercluster, switched_hypercluster, StaticCost};
    use ramiel_models::{build, ModelConfig, ModelKind};

    fn squeeze() -> (Graph, ramiel_cluster::Clustering) {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let c = cluster_graph(&g, &StaticCost);
        (g, c)
    }

    #[test]
    fn plain_hyper_module_structure() {
        let (g, c) = squeeze();
        let hc = hypercluster(&c, 2);
        let code = generate_hyper_parallel(&g, &hc, &CodegenOptions::default());
        for w in 0..hc.num_hyperclusters() {
            assert!(code.contains(&format!("def hypercluster_{w}(")));
        }
        assert_eq!(
            code.matches(".put(").count(),
            code.matches(".get()").count()
        );
        assert!(code.contains("batch size 2"));
        assert!(code.contains("inputs[0]["));
        assert!(code.contains("inputs[1]["));
    }

    #[test]
    fn switched_module_carries_warning() {
        let (g, c) = squeeze();
        let hc = switched_hypercluster(&c, 3);
        let code = generate_hyper_parallel(&g, &hc, &CodegenOptions::default());
        assert!(code.contains("SWITCHED"));
        assert!(code.contains("WARNING"));
    }

    #[test]
    fn per_batch_results_are_produced() {
        let (g, c) = squeeze();
        let hc = hypercluster(&c, 2);
        let code = generate_hyper_parallel(&g, &hc, &CodegenOptions::default());
        for b in 0..2 {
            assert!(code.contains(&format!("results[{b}][")));
        }
    }
}
