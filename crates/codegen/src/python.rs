//! Emission of complete Python modules (Algorithm 4).

use crate::pyop::{torch_expr, PY_HELPERS};
use crate::SsaNamer;
use ramiel_cluster::hyper::{HyperClustering, HyperOp};
use ramiel_ir::graph::Adjacency;
use ramiel_ir::topo::topo_sort;
use ramiel_ir::{Graph, OpKind};
use std::collections::{HashMap, HashSet};
use std::fmt::Write;

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

/// A module's statements over `graph` for a schedule of `batch` samples.
/// Four things name a sample: a tensor instance's SSA name, a queue key,
/// an input and a result. Each carries the sample index only when there is
/// more than one sample, so a batch-1 module is the paper's Algorithm 4
/// and a hyperclustered one (Section III-E) the same text, indexed.
struct Module<'g> {
    graph: &'g Graph,
    adj: Adjacency<'g>,
    batch: usize,
}

impl<'g> Module<'g> {
    fn new(graph: &'g Graph, batch: usize) -> Self {
        Module {
            graph,
            adj: graph.adjacency(),
            batch,
        }
    }

    /// The subscript that selects sample `b` of `inputs` and `results`:
    /// `[b]`, or nothing at batch 1.
    fn at(&self, b: usize) -> String {
        if self.batch == 1 {
            String::new()
        } else {
            format!("[{b}]")
        }
    }

    /// One value per sample: `f("")` at batch 1, else `[f("[0]"), …]`.
    fn each(&self, f: impl Fn(&str) -> String) -> String {
        if self.batch == 1 {
            return f("");
        }
        let items: Vec<String> = (0..self.batch).map(|b| f(&self.at(b))).collect();
        format!("[{}]", items.join(", "))
    }

    /// The SSA name of tensor `t` in sample `b`.
    fn ssa(&self, namer: &mut SsaNamer, t: &str, b: usize) -> String {
        if self.batch == 1 {
            namer.name(t)
        } else {
            namer.name(&format!("{t}@{b}"))
        }
    }

    /// The queue key of tensor `t` of sample `b` bound for cluster `c`.
    fn queue_key(&self, t: &str, b: usize, c: usize) -> String {
        if self.batch == 1 {
            format!("('{t}', {c})")
        } else {
            format!("('{t}', {b}, {c})")
        }
    }

    /// The Python expression for operand `t` of a node of sample `b`.
    fn operand(&self, namer: &mut SsaNamer, t: &str, b: usize) -> String {
        if self.adj.producer_of.contains_key(t) {
            self.ssa(namer, t, b)
        } else if self.graph.is_initializer(t) {
            format!("W['{t}']")
        } else {
            format!("inputs{}['{t}']", self.at(b))
        }
    }

    /// Render one node instance as `out = expr` (or `a, b = expr`).
    fn emit_node(&self, namer: &mut SsaNamer, op: HyperOp, out: &mut String) {
        let node = &self.graph.nodes[op.node];
        if matches!(node.op, OpKind::Constant) {
            let dst = self.ssa(namer, &node.outputs[0], op.batch);
            let _ = writeln!(out, "    {dst} = W['{}']", node.outputs[0]);
            return;
        }
        let args: Vec<String> = node
            .inputs
            .iter()
            .map(|t| self.operand(namer, t, op.batch))
            .collect();
        let expr = torch_expr(&node.op, &args);
        let dsts: Vec<String> = node
            .outputs
            .iter()
            .map(|t| self.ssa(namer, t, op.batch))
            .collect();
        let _ = writeln!(
            out,
            "    {} = {expr}  # {}",
            dsts.join(", "),
            node.op.name()
        );
    }

    /// The `make_weights` / `make_inputs` / `__main__` tail.
    fn emit_main(&self, runner: &str, out: &mut String) {
        let graph = self.graph;
        // `(d0, d1,)` for tensors, `(())` for scalars (a bare `(,)` is a
        // syntax error in Python).
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
        let _ = writeln!(out, "    inputs = {}", self.each(|_| "{}".into()));
        for b in 0..self.batch {
            let at = self.at(b);
            for inp in &graph.inputs {
                let shape = shape_of(&inp.shape);
                let name = &inp.name;
                match inp.dtype {
                    ramiel_ir::DType::I64 => {
                        let _ = writeln!(
                            out,
                            "    inputs{at}['{name}'] = torch.randint(0, 64, {shape})"
                        );
                    }
                    _ => {
                        let _ = writeln!(out, "    inputs{at}['{name}'] = torch.randn{shape}");
                    }
                }
            }
        }
        let _ = writeln!(out, "    return inputs\n");
        let _ = writeln!(out, "\nif __name__ == '__main__':");
        let _ = writeln!(out, "    outs = {runner}(make_weights(), make_inputs())");
        for b in 0..self.batch {
            let _ = writeln!(out, "    for name, t in outs{}.items():", self.at(b));
            let _ = writeln!(out, "        print(name, tuple(t.shape))");
        }
    }
}

/// Generate the single-core reference module.
pub fn generate_sequential(graph: &Graph) -> String {
    let order = topo_sort(graph).expect("codegen requires an acyclic graph");
    let module = Module::new(graph, 1);
    let mut out = module_header(graph, "sequential", "");
    let mut namer = SsaNamer::new();
    let _ = writeln!(out, "\ndef run_sequential(W, inputs):");
    let _ = writeln!(
        out,
        "    \"\"\"Single-core reference for `{}`.\"\"\"",
        graph.name
    );
    for &node in &order {
        module.emit_node(&mut namer, HyperOp { batch: 0, node }, &mut out);
    }
    let _ = writeln!(out, "    return {{");
    for o in &graph.outputs {
        let _ = writeln!(out, "        '{o}': {},", module.operand(&mut namer, o, 0));
    }
    let _ = writeln!(out, "    }}");
    module.emit_main("run_sequential", &mut out);
    out
}

/// Generate the parallel module (Algorithm 4) of a schedule: one method
/// per (hyper)cluster, a queue `put`/`get` pair per cross-cluster tensor
/// instance, and a multiprocessing harness. A clustering is emitted as its
/// batch-1 hyperclustering, `hypercluster(&clustering, 1)`.
pub fn generate_parallel(graph: &Graph, hc: &HyperClustering) -> String {
    let module = Module::new(graph, hc.batch);
    let adj = &module.adj;
    let n = graph.num_nodes();
    // (sample, node) → the cluster that runs it
    let mut owner = vec![usize::MAX; n * hc.batch];
    for (c, ops) in hc.hyperclusters.iter().enumerate() {
        for op in ops {
            owner[op.batch * n + op.node] = c;
        }
    }
    let owner_of = |b: usize, node: usize| owner[b * n + node];

    // (tensor, sample, consumer cluster) messages: consumers in node-id
    // order, then sample.
    let mut messages: Vec<(&str, usize, usize)> = Vec::new();
    let mut message_set: HashSet<(&str, usize, usize)> = HashSet::new();
    for node in &graph.nodes {
        for b in 0..hc.batch {
            let me = owner_of(b, node.id);
            for inp in &node.inputs {
                if let Some(&p) = adj.producer_of.get(inp) {
                    let key = (inp.as_str(), b, me);
                    if owner_of(b, p) != me && message_set.insert(key) {
                        messages.push(key);
                    }
                }
            }
        }
    }

    // (tensor, sample) → consumer clusters, ascending (the order the puts
    // are emitted).
    let mut dests_of: HashMap<(&str, usize), Vec<usize>> = HashMap::new();
    for &(t, b, c) in &messages {
        dests_of.entry((t, b)).or_default().push(c);
    }
    dests_of.values_mut().for_each(|d| d.sort_unstable());

    let mut extra = format!(
        "; {} clusters, {} cross-cluster messages",
        hc.num_hyperclusters(),
        messages.len()
    );
    if hc.switched {
        extra += "\n# WARNING: switched hyperclusters interleave samples across\n\
                  # clusters; strict in-order queue consumption can deadlock on\n\
                  # cross-batch wait cycles. This module is generated for the\n\
                  # schedules Ramiel verifies; treat manual edits with care.";
    }
    let mut out = module_header(graph, "parallel", &extra);
    let _ = writeln!(out, "from torch import multiprocessing as mp\n");

    let graph_outputs: HashSet<&str> = graph.outputs.iter().map(String::as_str).collect();
    for (ci, ops) in hc.hyperclusters.iter().enumerate() {
        let mut namer = SsaNamer::new();
        // the first five distinct node names, for the docstring
        let mut names: Vec<&str> = Vec::new();
        for op in ops {
            let name = graph.nodes[op.node].name.as_str();
            if names.len() == 5 {
                break;
            }
            if !names.contains(&name) {
                names.push(name);
            }
        }
        let _ = writeln!(out, "\ndef cluster_{ci}(W, inputs, queues, results):");
        let _ = writeln!(
            out,
            "    \"\"\"Cluster C{ci}: {} ops ({}{}).\"\"\"",
            ops.len(),
            names[..names.len().min(4)].join(", "),
            if names.len() > 4 { ", …" } else { "" }
        );
        let mut received: HashSet<(&str, usize)> = HashSet::new();
        for &op in ops {
            let (b, node) = (op.batch, &graph.nodes[op.node]);
            // receive remote operands first (the paper's queue.get())
            for t in &node.inputs {
                if let Some(&p) = adj.producer_of.get(t) {
                    let src = owner_of(b, p);
                    if src != ci && received.insert((t, b)) {
                        let v = module.ssa(&mut namer, t, b);
                        let key = module.queue_key(t, b, ci);
                        let _ = writeln!(out, "    {v} = queues[{key}].get()  # ← cluster C{src}");
                    }
                }
            }
            module.emit_node(&mut namer, op, &mut out);
            // send to remote consumers (the paper's queue.put())
            for t in &node.outputs {
                for &dst in dests_of
                    .get(&(t.as_str(), b))
                    .map_or(&[][..], Vec::as_slice)
                {
                    let v = module.ssa(&mut namer, t, b);
                    let key = module.queue_key(t, b, dst);
                    let _ = writeln!(out, "    queues[{key}].put({v})  # → cluster C{dst}");
                }
                if graph_outputs.contains(t.as_str()) {
                    let v = module.ssa(&mut namer, t, b);
                    let _ = writeln!(out, "    results{}['{t}'] = {v}", module.at(b));
                }
            }
        }
    }

    // harness
    let _ = writeln!(out, "\n\nMESSAGE_KEYS = [");
    for &(t, b, c) in &messages {
        let _ = writeln!(out, "    {},", module.queue_key(t, b, c));
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
    let _ = writeln!(
        out,
        "    results = {}",
        module.each(|_| "mgr.dict()".into())
    );
    let _ = writeln!(out, "    queues = {{k: mp.Queue() for k in MESSAGE_KEYS}}");
    let _ = writeln!(out, "    procs = [");
    for ci in 0..hc.num_hyperclusters() {
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
    let _ = writeln!(
        out,
        "    return {}",
        module.each(|at| format!("dict(results{at})"))
    );
    module.emit_main("run_parallel", &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_cluster::{
        cluster_graph, hypercluster, switched_hypercluster, Clustering, StaticCost,
    };
    use ramiel_models::{build, synthetic, ModelConfig, ModelKind};

    /// A clustering as every schedule the parallel generator emits: its
    /// batch-1 hyperclustering, and batch-2 plain and batch-3 switched
    /// hyperclusterings.
    fn schedules(c: &Clustering) -> [HyperClustering; 3] {
        [
            hypercluster(c, 1),
            hypercluster(c, 2),
            switched_hypercluster(c, 3),
        ]
    }

    #[test]
    fn sequential_module_structure() {
        let g = synthetic::fork_join(3, 2, 1);
        let code = generate_sequential(&g);
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
        for hc in schedules(&clustering) {
            let code = generate_parallel(&g, &hc);
            let puts = code.matches(".put(").count();
            let gets = code.matches(".get()").count();
            assert_eq!(puts, gets, "every queue.put needs a queue.get");
            assert!(puts > 0, "SqueezeNet clusters must communicate");
            // one function per cluster
            for ci in 0..hc.num_hyperclusters() {
                assert!(code.contains(&format!("def cluster_{ci}(")));
            }
            // every sample's inputs and results, indexed only past batch 1
            for b in 0..hc.batch {
                let at = if hc.batch == 1 {
                    String::new()
                } else {
                    format!("[{b}]")
                };
                assert!(
                    code.contains(&format!("inputs{at}['")),
                    "batch {}",
                    hc.batch
                );
                assert!(
                    code.contains(&format!("results{at}['")),
                    "batch {}",
                    hc.batch
                );
            }
            assert_eq!(code.contains("inputs[0]"), hc.batch > 1);
            // a switched schedule's in-order queue reads are flagged
            assert_eq!(code.contains("WARNING: switched"), hc.switched);
        }
    }

    #[test]
    fn message_keys_cover_cross_cluster_edges() {
        let g = synthetic::fork_join(4, 3, 2);
        let clustering = cluster_graph(&g, &StaticCost);
        for hc in schedules(&clustering) {
            let code = generate_parallel(&g, &hc);
            // number of puts equals the listed message keys
            let keys = code
                .lines()
                .skip_while(|l| !l.starts_with("MESSAGE_KEYS"))
                .take_while(|l| !l.starts_with(']'))
                .filter(|l| l.trim_start().starts_with('('))
                .count();
            assert_eq!(code.matches(".put(").count(), keys, "batch {}", hc.batch);
        }
    }

    #[test]
    fn every_cluster_is_a_def_and_a_process() {
        let g = build(ModelKind::Googlenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        for hc in schedules(&clustering) {
            let code = generate_parallel(&g, &hc);
            let defs = code.matches("\ndef cluster_").count();
            let procs = code.matches("mp.Process(target=cluster_").count();
            assert_eq!(defs, clustering.num_clusters());
            assert_eq!(procs, clustering.num_clusters());
        }
    }

    #[test]
    fn weights_harness_covers_all_initializers() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        for hc in schedules(&clustering) {
            let code = generate_parallel(&g, &hc);
            for name in g.initializers.keys() {
                assert!(
                    code.contains(&format!("W['{name}']")),
                    "missing weight {name}"
                );
            }
        }
    }
}
