//! Emission of complete Python modules (Algorithm 4).

use crate::pyop::{torch_expr, PY_HELPERS};
use crate::SsaNamer;
use ramiel_cluster::Clustering;
use ramiel_ir::topo::topo_sort;
use ramiel_ir::{Graph, NodeId, OpKind};
use std::collections::{HashMap, HashSet};
use std::fmt::Write;

/// Codegen knobs.
#[derive(Debug, Clone, Copy)]
pub struct CodegenOptions {
    /// Emit a `__main__` harness that fabricates random weights/inputs and
    /// runs the module end-to-end.
    pub include_main: bool,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions { include_main: true }
    }
}

fn module_header(graph: &Graph, kind: &str, extra: &str) -> String {
    format!(
        "# Auto-generated by Ramiel — {kind} inference code for `{}`.\n\
         # {} nodes, {} edges{extra}\n\
         # Regenerate with: ramiel compile — do not edit by hand (it is,\n\
         # however, meant to be readable and debuggable).\n\
         import torch\n\
         import torch.nn.functional as F\n\n{PY_HELPERS}\n",
        graph.name,
        graph.num_nodes(),
        graph.num_edges(),
    )
}

/// Render one node as `out = expr` (plus multi-output unpacking).
fn emit_node(
    graph: &Graph,
    node_id: NodeId,
    namer: &mut SsaNamer,
    resolve: &dyn Fn(&str, &mut SsaNamer) -> String,
    out: &mut String,
) {
    let node = &graph.nodes[node_id];
    if matches!(node.op, OpKind::Constant) {
        let dst = namer.name(&node.outputs[0]);
        let _ = writeln!(out, "    {dst} = W['{}']", node.outputs[0]);
        return;
    }
    let args: Vec<String> = node.inputs.iter().map(|t| resolve(t, namer)).collect();
    let expr = torch_expr(&node.op, &args);
    if node.outputs.len() == 1 {
        let dst = namer.name(&node.outputs[0]);
        let _ = writeln!(out, "    {dst} = {expr}  # {}", node.op.name());
    } else {
        let dsts: Vec<String> = node.outputs.iter().map(|t| namer.name(t)).collect();
        let _ = writeln!(
            out,
            "    {} = {expr}  # {}",
            dsts.join(", "),
            node.op.name()
        );
    }
}

/// Shared `make_weights` / demo-main tail.
fn emit_main(graph: &Graph, runner: &str, out: &mut String) {
    // `(d0, d1,)` for tensors, `(())` for scalars (a bare `(,)` is a syntax
    // error in Python).
    let shape_of = |dims: &[usize]| -> String {
        if dims.is_empty() {
            "(())".to_string()
        } else {
            let items: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
            format!("({},)", items.join(", "))
        }
    };
    let _ = writeln!(out, "\ndef make_weights():");
    let _ = writeln!(out, "    torch.manual_seed(0)");
    let _ = writeln!(out, "    W = {{}}");
    for (name, td) in &graph.initializers {
        let shape = shape_of(&td.shape);
        match td.dtype() {
            ramiel_ir::DType::F32 => {
                let _ = writeln!(out, "    W['{name}'] = torch.randn{shape} * 0.05");
            }
            ramiel_ir::DType::I64 => {
                let vals = td
                    .as_i64()
                    .map(|v| {
                        v.iter()
                            .map(|x| x.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    })
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "    W['{name}'] = torch.tensor([{vals}], dtype=torch.int64).reshape{shape}"
                );
            }
            ramiel_ir::DType::Bool => {
                let _ = writeln!(out, "    W['{name}'] = torch.zeros{shape}.bool()");
            }
        }
    }
    let _ = writeln!(out, "    return W\n");
    let _ = writeln!(out, "\ndef make_inputs():");
    let _ = writeln!(out, "    inputs = {{}}");
    for inp in &graph.inputs {
        let shape = shape_of(&inp.shape);
        match inp.dtype {
            ramiel_ir::DType::I64 => {
                let _ = writeln!(
                    out,
                    "    inputs['{}'] = torch.randint(0, 64, {shape})",
                    inp.name
                );
            }
            _ => {
                let _ = writeln!(out, "    inputs['{}'] = torch.randn{shape}", inp.name);
            }
        }
    }
    let _ = writeln!(out, "    return inputs\n");
    let _ = writeln!(out, "\nif __name__ == '__main__':");
    let _ = writeln!(out, "    outs = {runner}(make_weights(), make_inputs())");
    let _ = writeln!(out, "    for name, t in outs.items():");
    let _ = writeln!(out, "        print(name, tuple(t.shape))");
}

/// Generate the single-core reference module.
pub fn generate_sequential(graph: &Graph, opts: &CodegenOptions) -> String {
    let order = topo_sort(graph).expect("codegen requires an acyclic graph");
    let mut out = module_header(graph, "sequential", "");
    let mut namer = SsaNamer::new();
    let produced: HashSet<&str> = graph
        .nodes
        .iter()
        .flat_map(|n| n.outputs.iter().map(String::as_str))
        .collect();
    let _ = writeln!(out, "\ndef run_sequential(W, inputs):");
    let _ = writeln!(
        out,
        "    \"\"\"Single-core reference for `{}`.\"\"\"",
        graph.name
    );
    let resolve = move |tensor: &str, namer: &mut SsaNamer| -> String {
        if produced.contains(tensor) {
            namer.name(tensor)
        } else if graph.is_initializer(tensor) {
            format!("W['{tensor}']")
        } else {
            format!("inputs['{tensor}']")
        }
    };
    for &id in &order {
        emit_node(graph, id, &mut namer, &resolve, &mut out);
    }
    let _ = writeln!(out, "    return {{");
    for o in &graph.outputs {
        let _ = writeln!(out, "        '{o}': {},", resolve(o, &mut namer));
    }
    let _ = writeln!(out, "    }}");
    if opts.include_main {
        emit_main(graph, "run_sequential", &mut out);
    }
    out
}

/// Generate the parallel module (Algorithm 4): one method per cluster,
/// queue-based message passing, and a multiprocessing harness.
pub fn generate_parallel(graph: &Graph, clustering: &Clustering, opts: &CodegenOptions) -> String {
    let assign = clustering.assignment();
    let adj = graph.adjacency();

    // (tensor, consumer cluster) message pairs.
    let mut messages: Vec<(String, usize)> = Vec::new();
    let mut message_set: HashSet<(String, usize)> = HashSet::new();
    for node in &graph.nodes {
        let me = assign[&node.id];
        for inp in &node.inputs {
            if let Some(&p) = adj.producer_of.get(inp) {
                if assign[&p] != me && message_set.insert((inp.clone(), me)) {
                    messages.push((inp.clone(), me));
                }
            }
        }
    }

    // tensor → consumer clusters, ascending (the order the puts are emitted).
    let mut dests_of: HashMap<&str, Vec<usize>> = HashMap::new();
    for (t, c) in &messages {
        dests_of.entry(t.as_str()).or_default().push(*c);
    }
    dests_of.values_mut().for_each(|d| d.sort_unstable());

    let mut out = module_header(
        graph,
        "parallel",
        &format!(
            "; {} clusters, {} cross-cluster messages",
            clustering.num_clusters(),
            messages.len()
        ),
    );
    let _ = writeln!(out, "from torch import multiprocessing as mp\n");

    let produced_in: HashMap<&str, usize> = graph
        .nodes
        .iter()
        .flat_map(|n| {
            let c = assign[&n.id];
            n.outputs.iter().map(move |o| (o.as_str(), c))
        })
        .collect();
    let graph_outputs: HashSet<&str> = graph.outputs.iter().map(String::as_str).collect();

    for (ci, cluster) in clustering.clusters.iter().enumerate() {
        let mut namer = SsaNamer::new();
        let node_names: Vec<&str> = cluster
            .nodes
            .iter()
            .map(|&n| graph.nodes[n].name.as_str())
            .collect();
        let _ = writeln!(out, "\ndef cluster_{ci}(W, inputs, queues, results):");
        let _ = writeln!(
            out,
            "    \"\"\"Cluster C{ci}: {} ops ({}{}).\"\"\"",
            cluster.len(),
            node_names[..node_names.len().min(4)].join(", "),
            if node_names.len() > 4 { ", …" } else { "" }
        );
        let mut received: HashSet<String> = HashSet::new();
        for &nid in &cluster.nodes {
            // receive remote operands first (the paper's queue.get())
            let node_inputs = graph.nodes[nid].inputs.clone();
            for t in &node_inputs {
                if let Some(&src) = produced_in.get(t.as_str()) {
                    if src != ci && received.insert(t.clone()) {
                        let v = namer.name(t);
                        let _ = writeln!(
                            out,
                            "    {v} = queues[('{t}', {ci})].get()  # ← cluster C{src}"
                        );
                    }
                }
            }
            let resolve = |tensor: &str, namer: &mut SsaNamer| -> String {
                if produced_in.contains_key(tensor) {
                    namer.name(tensor)
                } else if graph.is_initializer(tensor) {
                    format!("W['{tensor}']")
                } else {
                    format!("inputs['{tensor}']")
                }
            };
            emit_node(graph, nid, &mut namer, &resolve, &mut out);
            // send to remote consumers (the paper's queue.put())
            for t in &graph.nodes[nid].outputs {
                for &dst in dests_of.get(t.as_str()).map_or(&[][..], Vec::as_slice) {
                    let v = namer.name(t);
                    let _ = writeln!(
                        out,
                        "    queues[('{t}', {dst})].put({v})  # → cluster C{dst}"
                    );
                }
                if graph_outputs.contains(t.as_str()) {
                    let v = namer.name(t);
                    let _ = writeln!(out, "    results['{t}'] = {v}");
                }
            }
        }
    }

    // harness
    let _ = writeln!(out, "\n\nMESSAGE_KEYS = [");
    for (t, c) in &messages {
        let _ = writeln!(out, "    ('{t}', {c}),");
    }
    let _ = writeln!(out, "]\n");
    let _ = writeln!(out, "\ndef run_parallel(W, inputs):");
    let _ = writeln!(
        out,
        "    \"\"\"Fork one process per cluster (Python processes, not threads,\n    \
         because of the GIL) and run `{}` in parallel.\"\"\"",
        graph.name
    );
    let _ = writeln!(out, "    mgr = mp.Manager()");
    let _ = writeln!(out, "    results = mgr.dict()");
    let _ = writeln!(out, "    queues = {{k: mp.Queue() for k in MESSAGE_KEYS}}");
    let _ = writeln!(out, "    procs = [");
    for ci in 0..clustering.num_clusters() {
        let _ = writeln!(
            out,
            "        mp.Process(target=cluster_{ci}, args=(W, inputs, queues, results)),"
        );
    }
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "    for p in procs:");
    let _ = writeln!(out, "        p.start()");
    let _ = writeln!(out, "    for p in procs:");
    let _ = writeln!(out, "        p.join()");
    let _ = writeln!(out, "    return dict(results)");
    if opts.include_main {
        emit_main(graph, "run_parallel", &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_cluster::{cluster_graph, StaticCost};
    use ramiel_models::{build, synthetic, ModelConfig, ModelKind};

    #[test]
    fn sequential_module_structure() {
        let g = synthetic::fork_join(3, 2, 1);
        let code = generate_sequential(&g, &CodegenOptions::default());
        assert!(code.contains("def run_sequential(W, inputs):"));
        assert!(code.contains("import torch"));
        assert!(code.contains("F.relu"));
        assert!(code.contains("if __name__ == '__main__':"));
        assert!(code.contains("return {"));
    }

    #[test]
    fn parallel_puts_match_gets() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let code = generate_parallel(&g, &clustering, &CodegenOptions::default());
        let puts = code.matches(".put(").count();
        let gets = code.matches(".get()").count();
        assert_eq!(puts, gets, "every queue.put needs a queue.get");
        assert!(puts > 0, "SqueezeNet clusters must communicate");
        // one function per cluster
        for ci in 0..clustering.num_clusters() {
            assert!(code.contains(&format!("def cluster_{ci}(")));
        }
    }

    #[test]
    fn message_keys_cover_cross_cluster_edges() {
        let g = synthetic::fork_join(4, 3, 2);
        let clustering = cluster_graph(&g, &StaticCost);
        let code = generate_parallel(&g, &clustering, &CodegenOptions::default());
        // number of puts equals the listed message keys
        let keys = code
            .lines()
            .skip_while(|l| !l.starts_with("MESSAGE_KEYS"))
            .take_while(|l| !l.starts_with(']'))
            .filter(|l| l.trim_start().starts_with('('))
            .count();
        assert_eq!(code.matches(".put(").count(), keys);
    }

    #[test]
    fn every_cluster_is_a_def_and_a_process() {
        let g = build(ModelKind::Googlenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let code = generate_parallel(&g, &clustering, &CodegenOptions::default());
        let defs = code.matches("\ndef cluster_").count();
        let procs = code.matches("mp.Process(target=cluster_").count();
        assert_eq!(defs, clustering.num_clusters());
        assert_eq!(procs, clustering.num_clusters());
    }

    #[test]
    fn weights_harness_covers_all_initializers() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let code = generate_parallel(&g, &clustering, &CodegenOptions::default());
        for name in g.initializers.keys() {
            assert!(
                code.contains(&format!("W['{name}']")),
                "missing weight {name}"
            );
        }
    }
}
