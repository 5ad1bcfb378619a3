//! In-place buffer-reuse marking.
//!
//! A node may overwrite one of its input buffers with its output when three
//! static facts hold: the op is an elementwise kernel whose output has the
//! same extent as that operand, the operand is produced inside the graph
//! (not a model input or initializer), and this node is its *only* consumer
//! — so the buffer is dead the moment the op has read it. The executors
//! treat a mark as a hint, not a proof: at run time the reuse only happens
//! if `Arc::get_mut` shows the buffer is uniquely owned, which is what makes
//! the rewrite safe against dynamic aliasing (reshape views, channel
//! messages in flight, caller-held handles) that no static analysis of the
//! graph can see.

use ramiel_ir::graph::Adjacency;
use ramiel_ir::{Graph, NodeId, OpKind};

/// Which input slots of an op the kernel layer can overwrite in place.
/// Mirrors the fast paths in `ramiel_tensor::eval_op_inplace`.
pub fn inplace_slots(op: &OpKind) -> &'static [usize] {
    match op {
        OpKind::Relu
        | OpKind::LeakyRelu { .. }
        | OpKind::Sigmoid
        | OpKind::Tanh
        | OpKind::Gelu
        | OpKind::Erf
        | OpKind::Sqrt
        | OpKind::Exp
        | OpKind::Neg
        | OpKind::Clip { .. } => &[0],
        OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div | OpKind::Pow => &[0, 1],
        _ => &[],
    }
}

/// The result of the marking pass: node id → input slot whose buffer the
/// node may consume in place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InPlaceMarks {
    /// `(node, slot)`, in node order.
    slots: Vec<(NodeId, usize)>,
}

impl InPlaceMarks {
    /// No marks — what executors use when reuse is disabled.
    pub fn empty() -> Self {
        InPlaceMarks::default()
    }

    /// The marked input slot for `node`, if any.
    pub fn slot(&self, node: NodeId) -> Option<usize> {
        let i = self.slots.binary_search_by_key(&node, |&(n, _)| n).ok()?;
        Some(self.slots[i].1)
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// All `(node, slot)` marks, in node order, for reporting.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.slots.iter().copied()
    }
}

/// Mark every op whose input buffer is provably dead after the op reads it
/// and whose kernel can write the result over that operand.
pub fn inplace_marks(graph: &Graph) -> InPlaceMarks {
    inplace_marks_with(graph, &graph.adjacency())
}

/// [`inplace_marks`] over an adjacency snapshot the caller already holds:
/// operands are read by value id, so no name is hashed.
pub fn inplace_marks_with(graph: &Graph, adj: &Adjacency<'_>) -> InPlaceMarks {
    let mut is_output = vec![false; adj.num_values()];
    for out in &graph.outputs {
        if let Some(v) = adj.value_id(out) {
            is_output[v as usize] = true;
        }
    }
    let mut slots = Vec::new();
    for node in &graph.nodes {
        let operands = adj.operands(node.id);
        for &s in inplace_slots(&node.op) {
            let Some(&v) = operands.get(s) else {
                continue;
            };
            // Model inputs and initializers are owned by the caller / the
            // shared weight table; overwriting them is never sound.
            if adj.producer(v).is_none() {
                continue;
            }
            // Sole consumer, consumed exactly once (Add(x, x) lists x twice
            // in its consumers, so duplicate operands are excluded here).
            if adj.consumers(v) != [node.id] {
                continue;
            }
            // Graph outputs stay live past their last consumer.
            if is_output[v as usize] {
                continue;
            }
            // When shape metadata is present, only mark operands whose
            // extent matches the output (broadcasts allocate anyway, so a
            // mark on the broadcast operand would be dead weight). A
            // one-operand elementwise op cannot broadcast: its output has
            // its operand's extent and type.
            if operands.len() > 1 {
                if let (Some(a), Some(b)) = (
                    graph.tensor_ref(&node.inputs[s]),
                    node.outputs.first().and_then(|o| graph.tensor_ref(o)),
                ) {
                    if a != b {
                        continue;
                    }
                }
            }
            slots.push((node.id, s));
            break;
        }
    }
    InPlaceMarks { slots }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_ir::{DType, GraphBuilder};

    /// x → relu a → relu b → add(b, b2-like fanout) …
    fn chain() -> Graph {
        let mut b = GraphBuilder::new("chain");
        let x = b.input("x", DType::F32, vec![4]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let c = b.op("c", OpKind::Sigmoid, vec![a]);
        b.output(&c);
        b.finish().unwrap()
    }

    #[test]
    fn chain_marks_interior_edges_only() {
        let g = chain();
        let m = inplace_marks(&g);
        // node 0 (relu) reads the graph input: not markable.
        assert_eq!(m.slot(0), None);
        // node 1 (sigmoid) reads relu's dead output: markable, slot 0.
        assert_eq!(m.slot(1), Some(0));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn fanout_blocks_marking() {
        let mut b = GraphBuilder::new("fanout");
        let x = b.input("x", DType::F32, vec![4]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let p = b.op("p", OpKind::Sigmoid, vec![a.clone()]);
        let q = b.op("q", OpKind::Tanh, vec![a]);
        let j = b.op("j", OpKind::Add, vec![p, q]);
        b.output(&j);
        let g = b.finish().unwrap();
        let m = inplace_marks(&g);
        // `a` has two consumers → neither may consume it in place.
        assert_eq!(m.slot(1), None);
        assert_eq!(m.slot(2), None);
        // `j` may take either operand; first eligible slot wins.
        assert_eq!(m.slot(3), Some(0));
    }

    #[test]
    fn duplicate_operand_not_marked() {
        let mut b = GraphBuilder::new("dup");
        let x = b.input("x", DType::F32, vec![4]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let d = b.op("d", OpKind::Add, vec![a.clone(), a]);
        b.output(&d);
        let g = b.finish().unwrap();
        assert_eq!(inplace_marks(&g).slot(1), None);
    }

    #[test]
    fn graph_output_never_marked() {
        let mut b = GraphBuilder::new("out");
        let x = b.input("x", DType::F32, vec![4]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let c = b.op("c", OpKind::Sigmoid, vec![a.clone()]);
        b.output(&a); // relu's output is also a model output
        b.output(&c);
        let g = b.finish().unwrap();
        assert_eq!(inplace_marks(&g).slot(1), None);
    }

    #[test]
    fn non_elementwise_ops_not_marked() {
        let mut b = GraphBuilder::new("mv");
        let x = b.input("x", DType::F32, vec![2, 2]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let t = b.op("t", OpKind::Transpose { perm: vec![1, 0] }, vec![a]);
        b.output(&t);
        let g = b.finish().unwrap();
        assert_eq!(inplace_marks(&g).slot(1), None);
    }
}
