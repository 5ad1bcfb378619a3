//! Abstract shape/dtype interpretation (RV0501, RV0502).
//!
//! Walks the graph in topological order re-running `ir::shape::infer_node`
//! with the derived shapes kept in a side table ([`ShapeScope`]), so
//! inference failures surface as diagnostics instead of panics or hard
//! errors and the graph — weights included — is never copied. Tensors whose
//! shape could not be derived are *poisoned*: every downstream failure
//! caused only by a poisoned input is suppressed, leaving just the root
//! cause in the report.
//!
//! Where inference succeeds, the inferred `TensorInfo` is compared against
//! what the graph already records in `value_info`; a mismatch means some
//! pass rewrote the graph without keeping the metadata honest (RV0502).

use crate::diag::{codes, Diagnostic, Span};
use ramiel_ir::graph::Adjacency;
use ramiel_ir::shape::{self, ShapeScope};
use ramiel_ir::{Graph, NodeId};
use std::collections::HashSet;

/// `order` is a topological order of `graph` and `adj` its adjacency (the
/// pair `ir::validate::validate_with` hands back).
pub fn check_shapes(graph: &Graph, adj: &Adjacency<'_>, order: &[NodeId]) -> Vec<Diagnostic> {
    let mut scope = ShapeScope::new(graph, &adj.producer_of);
    let mut poisoned: HashSet<&str> = HashSet::new();
    let mut diags = Vec::new();

    for &id in order {
        let node = &graph.nodes[id];
        match shape::infer_node(&scope, node) {
            Ok(infos) => {
                for (out, info) in node.outputs.iter().zip(&infos) {
                    if let Some(recorded) = graph.value_info.get(out) {
                        if recorded.dtype != info.dtype || recorded.shape != info.shape {
                            diags.push(Diagnostic::error(
                                codes::SHAPE_CONFLICT,
                                Span::Tensor { name: out.clone() },
                                format!(
                                    "recorded as {:?}{:?} but `{}` ({}) infers {:?}{:?}",
                                    recorded.dtype,
                                    recorded.shape,
                                    node.name,
                                    node.op.name(),
                                    info.dtype,
                                    info.shape
                                ),
                            ));
                        }
                    }
                }
                scope.record(node, infos);
            }
            Err(e) => {
                let caused_by_poison = node.inputs.iter().any(|t| poisoned.contains(t.as_str()));
                if !caused_by_poison {
                    diags.push(
                        Diagnostic::warning(
                            codes::SHAPE_UNKNOWN,
                            Span::Node {
                                id,
                                name: node.name.clone(),
                            },
                            format!("shape inference failed: {e}"),
                        )
                        .with_suggestion("downstream shapes derived from this node are unchecked"),
                    );
                }
                poisoned.extend(node.outputs.iter().map(String::as_str));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_ir::{DType, Graph, GraphBuilder, OpKind, TensorInfo};

    fn check_shapes(graph: &Graph) -> Vec<Diagnostic> {
        let adj = graph.adjacency();
        let order = ramiel_ir::topo::topo_sort_with(graph, &adj).unwrap();
        super::check_shapes(graph, &adj, &order)
    }

    fn add_graph() -> Graph {
        let mut b = GraphBuilder::new("g");
        let x = b.input("x", DType::F32, vec![2, 3]);
        let y = b.input("y", DType::F32, vec![2, 3]);
        let s = b.op("s", OpKind::Add, vec![x, y]);
        let r = b.op("r", OpKind::Relu, vec![s]);
        b.output(&r);
        b.finish().unwrap()
    }

    #[test]
    fn well_shaped_graph_is_clean() {
        assert!(check_shapes(&add_graph()).is_empty());
    }

    #[test]
    fn stale_value_info_is_a_conflict() {
        let mut g = add_graph();
        let out = g.nodes[0].outputs[0].clone();
        g.value_info
            .insert(out.clone(), TensorInfo::new(out, DType::F32, vec![9, 9]));
        let diags = check_shapes(&g);
        assert!(diags.iter().any(|d| d.code == codes::SHAPE_CONFLICT));
    }

    #[test]
    fn failure_reports_root_cause_only() {
        // incompatible Add operands: inference fails at `s`; the downstream
        // Relu failure is suppressed as a cascade. Built by hand because
        // GraphBuilder::finish would reject it outright.
        let mut g = Graph::new("g");
        g.inputs.push(TensorInfo::new("x", DType::F32, vec![2, 3]));
        g.inputs.push(TensorInfo::new("y", DType::F32, vec![5, 7]));
        g.push_node(
            "s",
            OpKind::Add,
            vec!["x".into(), "y".into()],
            vec!["ts".into()],
        );
        g.push_node("r", OpKind::Relu, vec!["ts".into()], vec!["tr".into()]);
        g.outputs.push("tr".into());
        let diags = check_shapes(&g);
        let unknown: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::SHAPE_UNKNOWN)
            .collect();
        assert_eq!(unknown.len(), 1, "{diags:?}");
        assert!(matches!(&unknown[0].span, Span::Node { name, .. } if name == "s"));
    }
}
