//! Topological ordering and level (ASAP) computation.

use crate::error::IrError;
use crate::graph::{Adjacency, Graph, NodeId};
use crate::Result;
use std::collections::VecDeque;

/// A topological order of the graph's nodes (Kahn's algorithm).
///
/// Ties are broken by node id, so the order is deterministic and tends to
/// follow construction order — which matters for reproducible clustering and
/// codegen.
pub fn topo_sort(graph: &Graph) -> Result<Vec<NodeId>> {
    topo_sort_with(graph, &graph.adjacency())
}

/// [`topo_sort`] over an adjacency snapshot the caller already holds, so a
/// stage that needs both builds the snapshot once.
pub fn topo_sort_with(graph: &Graph, adj: &Adjacency<'_>) -> Result<Vec<NodeId>> {
    let n = graph.num_nodes();
    let mut indegree: Vec<usize> = (0..n).map(|i| adj.preds[i].len()).collect();
    // BinaryHeap of Reverse would give smallest-id-first; with a VecDeque we
    // push in id order initially and append as nodes free up, which is stable
    // enough and O(V+E).
    let mut ready: VecDeque<NodeId> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(u) = ready.pop_front() {
        order.push(u);
        for &v in &adj.succs[u] {
            indegree[v] -= 1;
            if indegree[v] == 0 {
                ready.push_back(v);
            }
        }
    }
    if order.len() != n {
        // Find a witness node still blocked.
        let blocked = (0..n).find(|&i| indegree[i] > 0).unwrap_or(0);
        return Err(IrError::Cycle(graph.nodes[blocked].name.clone()));
    }
    Ok(order)
}

/// ASAP level of each node: sources are level 0, every other node is one more
/// than its deepest predecessor. Useful for stage-style schedulers (the IOS
/// baseline) and for DOT ranking.
pub fn levels(graph: &Graph) -> Result<Vec<usize>> {
    let adj = graph.adjacency();
    let order = topo_sort_with(graph, &adj)?;
    let mut level = vec![0usize; graph.num_nodes()];
    for &u in &order {
        for &p in &adj.preds[u] {
            level[u] = level[u].max(level[p] + 1);
        }
    }
    Ok(level)
}

/// Sink nodes (no successors). Every dataflow graph that produces outputs
/// has at least one.
pub fn sinks(graph: &Graph) -> Vec<NodeId> {
    let adj = graph.adjacency();
    (0..graph.num_nodes())
        .filter(|&i| adj.succs[i].is_empty())
        .collect()
}

/// Source nodes (no predecessors among graph nodes — they read only graph
/// inputs and initializers).
pub fn sources(graph: &Graph) -> Vec<NodeId> {
    let adj = graph.adjacency();
    (0..graph.num_nodes())
        .filter(|&i| adj.preds[i].is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TensorInfo;
    use crate::op::{DType, OpKind};

    fn chain(n: usize) -> Graph {
        let mut g = Graph::new("chain");
        g.inputs.push(TensorInfo::new("t0", DType::F32, vec![1]));
        for i in 0..n {
            g.push_node(
                format!("n{i}"),
                OpKind::Relu,
                vec![format!("t{i}")],
                vec![format!("t{}", i + 1)],
            );
        }
        g.outputs.push(format!("t{n}"));
        g
    }

    #[test]
    fn chain_topo_and_levels() {
        let g = chain(5);
        let order = topo_sort(&g).unwrap();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(levels(&g).unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(sinks(&g), vec![4]);
        assert_eq!(sources(&g), vec![0]);
    }

    #[test]
    fn cycle_detected() {
        let mut g = Graph::new("cyc");
        g.push_node("a", OpKind::Relu, vec!["t2".into()], vec!["t1".into()]);
        g.push_node("b", OpKind::Relu, vec!["t1".into()], vec!["t2".into()]);
        assert!(matches!(topo_sort(&g), Err(IrError::Cycle(_))));
    }

    #[test]
    fn diamond_levels() {
        let mut g = Graph::new("d");
        g.inputs.push(TensorInfo::new("in", DType::F32, vec![1]));
        g.push_node("a", OpKind::Relu, vec!["in".into()], vec!["ta".into()]);
        g.push_node("b", OpKind::Relu, vec!["ta".into()], vec!["tb".into()]);
        g.push_node("c", OpKind::Relu, vec!["ta".into()], vec!["tc".into()]);
        g.push_node(
            "d",
            OpKind::Add,
            vec!["tb".into(), "tc".into()],
            vec!["td".into()],
        );
        assert_eq!(levels(&g).unwrap(), vec![0, 1, 1, 2]);
        assert_eq!(sinks(&g), vec![3]);
    }

    #[test]
    fn topo_respects_all_edges() {
        let g = chain(10);
        let order = topo_sort(&g).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; order.len()];
            for (i, &n) in order.iter().enumerate() {
                p[n] = i;
            }
            p
        };
        let adj = g.adjacency();
        for u in 0..g.num_nodes() {
            for &v in &adj.succs[u] {
                assert!(pos[u] < pos[v]);
            }
        }
    }
}
