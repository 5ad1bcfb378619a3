//! Advisory lints (RV0601–RV0603): the graph/schedule is sound, but a
//! pipeline stage the paper describes was skipped or left money on the
//! table. Advice never fails `ramiel check`, even under `--deny-warnings`.

use crate::diag::{codes, Diagnostic, Span};
use crate::schedule::ScheduleView;
use ramiel_ir::graph::Adjacency;
use ramiel_ir::{Graph, NodeId, OpKind};

/// RV0601: nodes whose every operand is a compile-time constant — the
/// prune pipeline (`passes::prune`) would fold them away. Aggregated into a
/// single finding with a count and one example. `order` is a topological
/// order of `graph` and `adj` its adjacency, whose value ids index the
/// constant set.
pub fn lint_foldable_consts(
    graph: &Graph,
    adj: &Adjacency<'_>,
    order: &[NodeId],
) -> Vec<Diagnostic> {
    let mut is_static = vec![false; adj.num_values()];
    for name in graph.initializers.keys() {
        if let Some(v) = adj.value_id(name) {
            is_static[v as usize] = true;
        }
    }
    let mut foldable: Vec<&str> = Vec::new();
    for &id in order {
        let node = &graph.nodes[id];
        // `Shape` of any statically-described tensor also folds, matching
        // constfold's "horizontal branch reduction".
        let shape_of_known = matches!(node.op, OpKind::Shape)
            && node.inputs.iter().all(|t| graph.tensor_ref(t).is_some());
        let all_static =
            !node.inputs.is_empty() && adj.operands(id).iter().all(|&v| is_static[v as usize]);
        if (all_static || shape_of_known) && node.op.is_pure() {
            if !matches!(node.op, OpKind::Constant) {
                foldable.push(&node.name);
            }
            for &v in adj.results(id) {
                is_static[v as usize] = true;
            }
        } else if matches!(node.op, OpKind::Constant) {
            // payload lives in the initializer table: output is static
            for &v in adj.results(id) {
                is_static[v as usize] = true;
            }
        }
    }
    if foldable.is_empty() {
        return Vec::new();
    }
    vec![Diagnostic::advice(
        codes::LINT_FOLDABLE_CONST,
        Span::Graph,
        format!(
            "{} node(s) compute compile-time constants (e.g. `{}`)",
            foldable.len(),
            foldable[0]
        ),
    )
    .with_suggestion("run the prune pipeline (constant folding + DCE) before clustering")]
}

/// RV0602: a `BatchNormalization` applied directly to a `Conv` output —
/// `passes::fold_batch_norms` would fuse it into the conv weights.
pub fn lint_unfused_bn(graph: &Graph, adj: &Adjacency<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for node in &graph.nodes {
        if !matches!(node.op, OpKind::BatchNorm { .. }) {
            continue;
        }
        let Some(data) = node.inputs.first() else {
            continue;
        };
        if let Some(&p) = adj.producer_of.get(data) {
            if matches!(graph.nodes[p].op, OpKind::Conv { .. }) {
                diags.push(
                    Diagnostic::advice(
                        codes::LINT_UNFUSED_BN,
                        Span::Node {
                            id: node.id,
                            name: node.name.clone(),
                        },
                        format!(
                            "BatchNormalization follows `{}` (Conv) unfused",
                            graph.nodes[p].name
                        ),
                    )
                    .with_suggestion("run fold_batch_norms to fold it into the conv weights"),
                );
            }
        }
    }
    diags
}

/// RV0603: cheap fan-out nodes (elementwise / shape ops) whose output
/// crosses to other workers — task cloning (`passes::clone_nodes`) would
/// duplicate them and delete the cross-worker messages. Aggregated.
pub fn lint_clone_candidates(
    graph: &Graph,
    adj: &Adjacency<'_>,
    view: &ScheduleView,
) -> Vec<Diagnostic> {
    let n = graph.num_nodes();
    let worker_of = view.worker_of(n);
    let mut candidates: Vec<&str> = Vec::new();
    for node in &graph.nodes {
        if !(node.op.is_elementwise() || node.op.is_shape_op()) {
            continue;
        }
        if adj.succs[node.id].len() < 2 {
            continue;
        }
        // batch-0 placement is representative for the lint
        let Some(home) = worker_of.get(node.id).copied().flatten() else {
            continue;
        };
        let crosses = adj.succs[node.id].iter().any(|&c| {
            worker_of
                .get(c)
                .copied()
                .flatten()
                .is_some_and(|w| w != home)
        });
        if crosses {
            candidates.push(&node.name);
        }
    }
    if candidates.is_empty() {
        return Vec::new();
    }
    vec![Diagnostic::advice(
        codes::LINT_CLONE_CANDIDATE,
        Span::Graph,
        format!(
            "{} cheap fan-out node(s) feed other workers (e.g. `{}`)",
            candidates.len(),
            candidates[0]
        ),
    )
    .with_suggestion("task cloning would duplicate them per consumer and drop the messages")]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ExecPolicy;
    use ramiel_ir::topo::topo_sort;
    use ramiel_ir::{DType, GraphBuilder, TensorData};

    #[test]
    fn foldable_const_chain_detected_once() {
        let mut b = GraphBuilder::new("g");
        let x = b.input("x", DType::F32, vec![2]);
        let w = b.init("w", TensorData::f32(vec![2], vec![1.0, 2.0]));
        let c = b.op("c", OpKind::Relu, vec![w]); // foldable
        let c2 = b.op("c2", OpKind::Relu, vec![c]); // foldable (cascade)
        let s = b.op("s", OpKind::Add, vec![x, c2]);
        b.output(&s);
        let g = b.finish().unwrap();
        let diags = lint_foldable_consts(&g, &g.adjacency(), &topo_sort(&g).unwrap());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("2 node(s)"));
        assert!(diags[0].message.contains("`c_0`"));
    }

    #[test]
    fn runtime_only_graph_has_no_foldables() {
        let mut b = GraphBuilder::new("g");
        let x = b.input("x", DType::F32, vec![2]);
        let r = b.op("r", OpKind::Relu, vec![x]);
        b.output(&r);
        let g = b.finish().unwrap();
        assert!(lint_foldable_consts(&g, &g.adjacency(), &topo_sort(&g).unwrap()).is_empty());
    }

    #[test]
    fn conv_bn_pair_detected() {
        let mut b = GraphBuilder::new("g");
        let x = b.input("x", DType::F32, vec![1, 3, 8, 8]);
        let y = b.conv(&x, 3, 4, (3, 3), (1, 1), (1, 1), 1);
        let bn = b.batch_norm(&y, 4);
        b.output(&bn);
        let g = b.finish().unwrap();
        let diags = lint_unfused_bn(&g, &g.adjacency());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::LINT_UNFUSED_BN);
    }

    #[test]
    fn clone_candidate_needs_cross_worker_fanout() {
        let mut b = GraphBuilder::new("g");
        let x = b.input("x", DType::F32, vec![4]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let p = b.op("p", OpKind::Sigmoid, vec![a.clone()]);
        let q = b.op("q", OpKind::Tanh, vec![a]);
        let j = b.op("j", OpKind::Add, vec![p, q]);
        b.output(&j);
        let g = b.finish().unwrap();
        // fan-out node `a` (id 0) feeds q on the other worker → candidate
        let split = ScheduleView::single_batch(vec![vec![0, 1, 3], vec![2]], ExecPolicy::InOrder);
        let adj = g.adjacency();
        let diags = lint_clone_candidates(&g, &adj, &split);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("`a_0`"));
        // everything on one worker → no candidate
        let mono = ScheduleView::single_batch(vec![vec![0, 1, 2, 3]], ExecPolicy::InOrder);
        assert!(lint_clone_candidates(&g, &adj, &mono).is_empty());
    }
}
