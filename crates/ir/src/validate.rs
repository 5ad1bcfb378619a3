//! Structural well-formedness checks for graphs.
//!
//! Every model generator and every transformation pass is expected to leave
//! the graph in a state where [`validate`] succeeds; the integration tests
//! enforce this after each pipeline stage.

use crate::error::IrError;
use crate::graph::{Adjacency, Graph, NodeId};
use crate::topo::topo_sort_with;
use crate::Result;
use std::collections::HashSet;

/// Check that a graph is structurally sound:
///
/// 1. every tensor has exactly one definition (node output, graph input, or
///    initializer);
/// 2. every node input and every graph output refers to a defined tensor;
/// 3. node ids match their position;
/// 4. node names are unique (codegen requires this) and non-empty
///    (diagnostics and generated code would otherwise be unreadable);
/// 5. the graph is acyclic;
/// 6. every node has the right number of outputs for its operator;
/// 7. every node has an input count its operator accepts
///    ([`crate::op::OpKind::input_arity`]);
/// 8. spatial operator attributes are non-degenerate — nonzero strides,
///    kernel extents and group counts ([`IrError::Attr`], RV0002) — so the
///    kernels' output-size arithmetic can never divide by zero.
pub fn validate(graph: &Graph) -> Result<()> {
    validate_with(graph, &graph.adjacency()).map(drop)
}

/// [`validate`] over an adjacency snapshot the caller already holds. Returns
/// the topological order that check 5 computes, so a stage that validates
/// and then walks the graph sorts it once.
pub fn validate_with(graph: &Graph, adj: &Adjacency<'_>) -> Result<Vec<NodeId>> {
    // Definitions are marked per value id of the snapshot's table; a graph
    // input or initializer no node reads has no id and cannot clash with a
    // node result, only with another such name.
    let mut defined = vec![false; adj.num_values()];
    let mut define = |name: &str| match adj.value_id(name) {
        Some(v) => !std::mem::replace(&mut defined[v as usize], true),
        None => true,
    };
    for (i, inp) in graph.inputs.iter().enumerate() {
        if !define(&inp.name) || graph.inputs[..i].iter().any(|p| p.name == inp.name) {
            return Err(IrError::DuplicateTensor(inp.name.clone()));
        }
    }
    for name in graph.initializers.keys() {
        if !define(name) || graph.is_graph_input(name) {
            return Err(IrError::DuplicateTensor(name.clone()));
        }
    }
    let mut names: HashSet<&str> = HashSet::with_capacity(graph.nodes.len());
    for (i, node) in graph.nodes.iter().enumerate() {
        if node.id != i {
            return Err(IrError::Invalid(format!(
                "node `{}` has id {} but sits at index {i}",
                node.name, node.id
            )));
        }
        if node.name.is_empty() {
            return Err(IrError::Invalid(format!(
                "node at index {i} ({}) has an empty name",
                node.op.name()
            )));
        }
        if !names.insert(&node.name) {
            return Err(IrError::Invalid(format!(
                "duplicate node name `{}`",
                node.name
            )));
        }
        let got = node.inputs.len();
        match node.op.input_arity() {
            (min, Some(max)) if got < min || got > max => {
                return Err(if min == max {
                    IrError::Arity {
                        node: node.name.clone(),
                        expected: min,
                        got,
                    }
                } else {
                    IrError::Invalid(format!(
                        "node `{}` ({}) takes {min}..={max} inputs, has {got}",
                        node.name,
                        node.op.name()
                    ))
                });
            }
            (min, None) if got < min => {
                return Err(IrError::Invalid(format!(
                    "node `{}` ({}) takes at least {min} input(s), has {got}",
                    node.name,
                    node.op.name()
                )));
            }
            _ => {}
        }
        check_attrs(node)?;
        if node.outputs.len() != node.op.num_outputs() {
            return Err(IrError::Invalid(format!(
                "node `{}` ({}) must produce {} outputs, has {}",
                node.name,
                node.op.name(),
                node.op.num_outputs(),
                node.outputs.len()
            )));
        }
        for (out, &v) in node.outputs.iter().zip(adj.results(node.id)) {
            // A `Constant` node's payload lives in the initializer table
            // under its output name by design — that pairing is the one
            // permitted "double definition".
            let constant_payload =
                matches!(node.op, crate::op::OpKind::Constant) && graph.is_initializer(out);
            if std::mem::replace(&mut defined[v as usize], true) && !constant_payload {
                return Err(IrError::DuplicateTensor(out.clone()));
            }
        }
    }
    for node in &graph.nodes {
        for (inp, &v) in node.inputs.iter().zip(adj.operands(node.id)) {
            if !defined[v as usize] {
                return Err(IrError::UnknownTensor(inp.clone()));
            }
        }
    }
    for out in &graph.outputs {
        let is_defined = match adj.value_id(out) {
            Some(v) => defined[v as usize],
            None => graph.is_graph_input(out) || graph.is_initializer(out),
        };
        if !is_defined {
            return Err(IrError::UnknownTensor(out.clone()));
        }
    }
    topo_sort_with(graph, adj)
}

/// Attribute sanity for spatial operators (check 8). A model file with
/// `stride: (0, _)` used to sail through validation and only fail later as a
/// divide-by-zero panic inside conv/pool output-size computation.
fn check_attrs(node: &crate::graph::Node) -> Result<()> {
    use crate::op::{OpKind, PoolSpec};
    let attr_err = |reason: String| {
        Err(IrError::Attr {
            node: node.name.clone(),
            reason,
        })
    };
    let check_pool = |what: &str, spec: &PoolSpec| {
        if spec.stride.0 == 0 || spec.stride.1 == 0 {
            return attr_err(format!("{what} stride {:?} must be nonzero", spec.stride));
        }
        if spec.kernel.0 == 0 || spec.kernel.1 == 0 {
            return attr_err(format!("{what} kernel {:?} must be nonzero", spec.kernel));
        }
        Ok(())
    };
    match &node.op {
        OpKind::Conv {
            kernel,
            stride,
            groups,
            ..
        } => {
            if stride.0 == 0 || stride.1 == 0 {
                return attr_err(format!("Conv stride {stride:?} must be nonzero"));
            }
            if kernel.0 == 0 || kernel.1 == 0 {
                return attr_err(format!("Conv kernel {kernel:?} must be nonzero"));
            }
            if *groups == 0 {
                return attr_err("Conv groups must be nonzero".into());
            }
            Ok(())
        }
        OpKind::MaxPool(spec) => check_pool("MaxPool", spec),
        OpKind::AveragePool(spec) => check_pool("AveragePool", spec),
        OpKind::Resize { scale } => {
            if scale.0 == 0 || scale.1 == 0 {
                return attr_err(format!("Resize scale {scale:?} must be nonzero"));
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TensorInfo;
    use crate::op::{DType, OpKind};

    fn ok_graph() -> Graph {
        let mut g = Graph::new("ok");
        g.inputs.push(TensorInfo::new("x", DType::F32, vec![1]));
        g.push_node("a", OpKind::Relu, vec!["x".into()], vec!["y".into()]);
        g.outputs.push("y".into());
        g
    }

    #[test]
    fn valid_graph_passes() {
        validate(&ok_graph()).unwrap();
    }

    #[test]
    fn unknown_input_rejected() {
        let mut g = ok_graph();
        g.nodes[0].inputs[0] = "ghost".into();
        assert!(matches!(validate(&g), Err(IrError::UnknownTensor(t)) if t == "ghost"));
    }

    #[test]
    fn duplicate_definition_rejected() {
        let mut g = ok_graph();
        g.push_node("b", OpKind::Relu, vec!["x".into()], vec!["y".into()]);
        assert!(matches!(validate(&g), Err(IrError::DuplicateTensor(_))));
    }

    #[test]
    fn duplicate_node_name_rejected() {
        let mut g = ok_graph();
        g.push_node("a", OpKind::Relu, vec!["y".into()], vec!["z".into()]);
        assert!(matches!(validate(&g), Err(IrError::Invalid(_))));
    }

    #[test]
    fn unknown_graph_output_rejected() {
        let mut g = ok_graph();
        g.outputs.push("ghost".into());
        assert!(matches!(validate(&g), Err(IrError::UnknownTensor(_))));
    }

    #[test]
    fn bad_node_id_rejected() {
        let mut g = ok_graph();
        g.nodes[0].id = 7;
        assert!(matches!(validate(&g), Err(IrError::Invalid(_))));
    }

    #[test]
    fn empty_node_name_rejected() {
        let mut g = ok_graph();
        g.nodes[0].name = String::new();
        assert!(matches!(validate(&g), Err(IrError::Invalid(m)) if m.contains("empty name")));
    }

    #[test]
    fn fixed_input_arity_enforced() {
        let mut g = ok_graph();
        // Relu is strictly unary; feed it two inputs.
        g.nodes[0].inputs.push("x".into());
        assert!(matches!(
            validate(&g),
            Err(IrError::Arity {
                expected: 1,
                got: 2,
                ..
            })
        ));
    }

    #[test]
    fn ranged_input_arity_enforced() {
        let mut g = ok_graph();
        // Conv without a weight operand: below the 2..=3 range.
        g.push_node(
            "c",
            OpKind::Conv {
                kernel: (1, 1),
                stride: (1, 1),
                pads: (0, 0),
                groups: 1,
            },
            vec!["y".into()],
            vec!["z".into()],
        );
        g.outputs.push("z".into());
        assert!(matches!(validate(&g), Err(IrError::Invalid(m)) if m.contains("2..=3")));
    }

    #[test]
    fn variadic_minimum_enforced() {
        let mut g = ok_graph();
        g.push_node("cc", OpKind::Concat { axis: 0 }, vec![], vec!["z".into()]);
        g.outputs.push("z".into());
        assert!(matches!(validate(&g), Err(IrError::Invalid(m)) if m.contains("at least 1")));
    }

    #[test]
    fn zero_stride_conv_rejected_with_attr_error() {
        // Regression: this graph used to validate cleanly and then panic
        // with a divide-by-zero inside conv output-size computation.
        let mut g = ok_graph();
        g.push_node(
            "c",
            OpKind::Conv {
                kernel: (3, 3),
                stride: (0, 1),
                pads: (1, 1),
                groups: 1,
            },
            vec!["y".into(), "y".into()],
            vec!["z".into()],
        );
        g.outputs.push("z".into());
        assert!(matches!(validate(&g), Err(IrError::Attr { node, reason })
                if node == "c" && reason.contains("stride")));
    }

    #[test]
    fn degenerate_pool_and_conv_attrs_rejected() {
        use crate::op::PoolSpec;
        let bad_ops = [
            OpKind::Conv {
                kernel: (0, 3),
                stride: (1, 1),
                pads: (0, 0),
                groups: 1,
            },
            OpKind::Conv {
                kernel: (3, 3),
                stride: (1, 1),
                pads: (0, 0),
                groups: 0,
            },
            OpKind::MaxPool(PoolSpec {
                kernel: (2, 2),
                stride: (1, 0),
                pads: (0, 0),
                ceil_mode: false,
            }),
            OpKind::AveragePool(PoolSpec {
                kernel: (2, 0),
                stride: (1, 1),
                pads: (0, 0),
                ceil_mode: false,
            }),
            OpKind::Resize { scale: (0, 2) },
        ];
        for op in bad_ops {
            let mut g = ok_graph();
            let inputs = match op.input_arity() {
                (2, _) => vec!["y".into(), "y".into()],
                _ => vec!["y".into()],
            };
            g.push_node("bad", op.clone(), inputs, vec!["z".into()]);
            g.outputs.push("z".into());
            assert!(
                matches!(validate(&g), Err(IrError::Attr { .. })),
                "{op:?} must be rejected"
            );
        }
    }

    #[test]
    fn split_arity_enforced() {
        let mut g = ok_graph();
        g.push_node(
            "s",
            OpKind::Split {
                axis: 0,
                parts: vec![1, 1],
            },
            vec!["y".into()],
            vec!["s0".into()], // should be two outputs
        );
        assert!(matches!(validate(&g), Err(IrError::Invalid(_))));
    }
}
