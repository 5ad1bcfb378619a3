//! Tensor lifetime and aliasing analysis.
//!
//! For every worker in a schedule, computes the def/last-use interval of
//! each tensor instance that will be resident in that worker's environment
//! at runtime: values the worker produces (def = producing step) and values
//! it receives over a channel (def = step 0, the earliest they can arrive).
//! Graph inputs and initializers are excluded — the executors never charge
//! them, the caller and the shared weight table own those buffers.
//!
//! Aliasing: ops on the `Arc`-sharing path (`Reshape`, `Flatten`,
//! `Squeeze`, `Unsqueeze`, `Identity`, `Dropout`) produce views, not
//! copies. Intervals carry the root of their alias class so downstream
//! passes (and the in-place rewrite) can reason about the *buffer*, not
//! the name.

use crate::codes;
use ramiel_ir::{Graph, NodeId};
use ramiel_runtime::memory::tensor_bytes;
use ramiel_runtime::reuse::is_alias_op;
use ramiel_verify::{Diagnostic, ScheduleView, Span};
use std::collections::{HashMap, HashSet};

/// The lifetime of one tensor instance on one worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interval {
    pub tensor: String,
    pub batch: usize,
    pub worker: usize,
    /// Step index in the worker's op list where the value materializes:
    /// the producing op's index, or 0 for values received over a channel
    /// (the earliest they can arrive).
    pub def: usize,
    /// Step index of the last local read. Graph outputs are pinned to the
    /// end of the worker's list (`ops.len()`).
    pub last_use: usize,
    /// Statically-known payload size (0 when shape inference failed).
    pub bytes: u64,
    /// Root tensor of this value's alias class, when the value is a view
    /// that shares another buffer.
    pub alias_of: Option<String>,
}

/// All intervals of a schedule plus alias-class structure.
#[derive(Debug, Clone, Default)]
pub struct LifetimeReport {
    pub intervals: Vec<Interval>,
    /// Alias classes with at least two members (a root plus ≥ 1 view).
    pub alias_classes: usize,
}

impl LifetimeReport {
    /// Intervals resident on `worker`.
    pub fn on_worker(&self, worker: usize) -> impl Iterator<Item = &Interval> {
        self.intervals.iter().filter(move |i| i.worker == worker)
    }
}

/// Map every tensor to the root of its alias chain (tensors that are not
/// views map to themselves and are omitted).
pub(crate) fn alias_roots(graph: &Graph) -> HashMap<String, String> {
    // Direct view edges: alias-op output → its data input. `Constant` is
    // alias-charged by the executors (it shares the initializer table) but
    // has no tensor input to root at, so it is skipped here.
    let mut parent: HashMap<&str, &str> = HashMap::new();
    for node in &graph.nodes {
        if is_alias_op(&node.op) && !node.inputs.is_empty() && !node.outputs.is_empty() {
            parent.insert(node.outputs[0].as_str(), node.inputs[0].as_str());
        }
    }
    let mut roots: HashMap<String, String> = HashMap::new();
    for &view in parent.keys() {
        let mut root = view;
        let mut hops = 0;
        while let Some(&p) = parent.get(root) {
            root = p;
            hops += 1;
            if hops > parent.len() {
                break; // defensive: corrupted graphs with alias cycles
            }
        }
        roots.insert(view.to_string(), root.to_string());
    }
    roots
}

/// (batch, node) → worker lookup for every scheduled instance.
pub(crate) fn instance_workers(view: &ScheduleView) -> HashMap<(usize, NodeId), usize> {
    let mut map = HashMap::new();
    for (w, ops) in view.workers.iter().enumerate() {
        for op in ops {
            map.insert((op.batch, op.node), w);
        }
    }
    map
}

/// Compute every worker's intervals plus the lifetime lints.
pub fn lifetimes(graph: &Graph, view: &ScheduleView) -> (LifetimeReport, Vec<Diagnostic>) {
    let adj = graph.adjacency();
    let roots = alias_roots(graph);
    let owner = instance_workers(view);
    let graph_outputs: HashSet<&str> = graph.outputs.iter().map(String::as_str).collect();
    let externals: HashSet<&str> = graph
        .inputs
        .iter()
        .map(|i| i.name.as_str())
        .chain(graph.initializers.keys().map(String::as_str))
        .collect();

    let mut intervals = Vec::new();
    for (w, ops) in view.workers.iter().enumerate() {
        // (tensor, batch) → (def step, last-use step) on this worker.
        let mut seen: HashMap<(String, usize), (usize, usize)> = HashMap::new();
        for (step, op) in ops.iter().enumerate() {
            let Some(node) = graph.nodes.get(op.node) else {
                continue; // coverage errors are ramiel-verify's RV0103
            };
            for t in &node.inputs {
                if externals.contains(t.as_str()) {
                    continue;
                }
                let produced_here = adj
                    .producer_of
                    .get(t)
                    .is_some_and(|p| owner.get(&(op.batch, *p)) == Some(&w));
                let entry = seen
                    .entry((t.clone(), op.batch))
                    // First sight through a *read* means the value arrives
                    // over a channel (or the schedule is corrupt — hb
                    // reports that); it can be resident from step 0.
                    .or_insert((if produced_here { step } else { 0 }, step));
                entry.1 = step;
            }
            for t in &node.outputs {
                let pinned = graph_outputs.contains(t.as_str());
                let entry = seen.entry((t.clone(), op.batch)).or_insert((step, step));
                entry.0 = step;
                if pinned {
                    entry.1 = ops.len();
                }
            }
        }
        for ((tensor, batch), (def, last_use)) in seen {
            let bytes = tensor_bytes(graph, &tensor) as u64;
            let alias_of = roots.get(&tensor).cloned();
            intervals.push(Interval {
                tensor,
                batch,
                worker: w,
                def,
                last_use,
                bytes,
                alias_of,
            });
        }
    }
    intervals.sort_by(|a, b| {
        (a.worker, a.def, &a.tensor, a.batch).cmp(&(b.worker, b.def, &b.tensor, b.batch))
    });

    let mut class_sizes: HashMap<&str, usize> = HashMap::new();
    for root in roots.values() {
        *class_sizes.entry(root.as_str()).or_insert(1) += 1;
    }
    let report = LifetimeReport {
        intervals,
        alias_classes: class_sizes.len(),
    };

    let mut diags = Vec::new();
    // RA0101: produced values nothing reads (and no output pins).
    for node in &graph.nodes {
        for t in &node.outputs {
            let read = adj.consumers_of.get(t).map_or(0, <[_]>::len);
            if read == 0 && !graph_outputs.contains(t.as_str()) {
                diags.push(
                    Diagnostic::advice(
                        codes::DEAD_VALUE,
                        Span::Node {
                            id: node.id,
                            name: node.name.clone(),
                        },
                        format!("output `{t}` is never read and is not a graph output"),
                    )
                    .with_suggestion("run the prune pipeline (`ramiel run --prune`)"),
                );
            }
        }
    }
    // RA0102: a view scheduled away from its buffer's producer — the
    // "zero-copy" reshape crosses a channel and becomes a real payload.
    let mut flagged: HashSet<NodeId> = HashSet::new();
    for (w, ops) in view.workers.iter().enumerate() {
        for op in ops {
            let Some(node) = graph.nodes.get(op.node) else {
                continue;
            };
            if !is_alias_op(&node.op) || node.inputs.is_empty() || flagged.contains(&node.id) {
                continue;
            }
            if let Some(&p) = adj.producer_of.get(&node.inputs[0]) {
                if owner.get(&(op.batch, p)).is_some_and(|pw| *pw != w) {
                    flagged.insert(node.id);
                    diags.push(Diagnostic::advice(
                        codes::ALIAS_CROSS_WORKER,
                        Span::Op {
                            worker: w,
                            batch: op.batch,
                            node: node.id,
                            name: node.name.clone(),
                        },
                        format!(
                            "view over `{}` is scheduled on worker {w} but its buffer \
                             is produced on worker {}; the zero-copy alias becomes a \
                             channel payload",
                            node.inputs[0],
                            owner[&(op.batch, p)]
                        ),
                    ));
                }
            }
        }
    }
    (report, diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_ir::{DType, GraphBuilder, OpKind, TensorData};
    use ramiel_verify::{ExecPolicy, ScheduleView};

    /// x → Relu(0) → Reshape(1, via spec) → Neg(2) → output.
    /// Returns the graph plus the relu/reshape/neg output tensor names.
    fn chain_graph() -> (Graph, String, String, String) {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![2, 3]);
        let r = b.op("r", OpKind::Relu, vec![x]);
        let spec = b.init("spec", TensorData::vec_i64(vec![-1]));
        let s = b.op("s", OpKind::Reshape, vec![r.clone(), spec]);
        let y = b.op("y", OpKind::Neg, vec![s.clone()]);
        b.output(&y);
        (b.finish().unwrap(), r, s, y)
    }

    #[test]
    fn intervals_cover_def_and_last_use() {
        let (g, r, _, y) = chain_graph();
        let view = ScheduleView::single_batch(vec![vec![0, 1, 2]], ExecPolicy::InOrder);
        let (rep, diags) = lifetimes(&g, &view);
        assert!(diags.is_empty(), "{diags:?}");
        let relu = rep.intervals.iter().find(|i| i.tensor == r).unwrap();
        assert_eq!((relu.def, relu.last_use), (0, 1));
        // graph output pinned to end of the worker list
        let out = rep.intervals.iter().find(|i| i.tensor == y).unwrap();
        assert_eq!(out.last_use, 3);
    }

    #[test]
    fn views_carry_their_alias_root() {
        let (g, r, s, _) = chain_graph();
        let view = ScheduleView::single_batch(vec![vec![0, 1, 2]], ExecPolicy::InOrder);
        let (rep, _) = lifetimes(&g, &view);
        let view_iv = rep.intervals.iter().find(|i| i.tensor == s).unwrap();
        assert_eq!(view_iv.alias_of.as_deref(), Some(r.as_str()));
        assert_eq!(rep.alias_classes, 1);
    }

    #[test]
    fn received_values_start_at_step_zero() {
        let (g, r, _, _) = chain_graph();
        // producer of the relu output on worker 0, the rest on worker 1
        let view = ScheduleView::single_batch(vec![vec![0], vec![1, 2]], ExecPolicy::InOrder);
        let (rep, _) = lifetimes(&g, &view);
        let recv = rep
            .intervals
            .iter()
            .find(|i| i.tensor == r && i.worker == 1)
            .unwrap();
        assert_eq!(recv.def, 0);
    }

    #[test]
    fn cross_worker_view_is_flagged() {
        let (g, ..) = chain_graph();
        let view = ScheduleView::single_batch(vec![vec![0], vec![1, 2]], ExecPolicy::InOrder);
        let (_, diags) = lifetimes(&g, &view);
        assert!(diags.iter().any(|d| d.code == codes::ALIAS_CROSS_WORKER));
    }

    #[test]
    fn dead_value_is_flagged() {
        let mut b = GraphBuilder::new("dead");
        let x = b.input("x", DType::F32, vec![2]);
        let r = b.op("r", OpKind::Relu, vec![x.clone()]);
        let _unused = b.op("u", OpKind::Neg, vec![x]);
        b.output(&r);
        let g = b.finish().unwrap();
        let view = ScheduleView::single_batch(vec![vec![0, 1]], ExecPolicy::InOrder);
        let (_, diags) = lifetimes(&g, &view);
        assert!(diags.iter().any(|d| d.code == codes::DEAD_VALUE));
    }
}
