//! Intra-worker ordering check (RV0301).
//!
//! Under [`ExecPolicy::InOrder`] a worker replays its op list strictly in
//! sequence, so a consumer placed before its same-worker, same-batch
//! producer can never run. (Under `FirstReady` the runtime reorders around
//! it, so the check is skipped there — the cycle analysis still flags the
//! truly unsound cases.)

use crate::diag::{codes, Diagnostic, Span};
use crate::schedule::{ExecPolicy, ScheduleView};
use ramiel_ir::graph::Adjacency;
use ramiel_ir::Graph;
use std::collections::HashMap;

pub fn check_order(graph: &Graph, adj: &Adjacency<'_>, view: &ScheduleView) -> Vec<Diagnostic> {
    if view.policy != ExecPolicy::InOrder {
        return Vec::new();
    }
    let n = graph.num_nodes();
    let mut diags = Vec::new();
    for (w, ops) in view.workers.iter().enumerate() {
        let pos: HashMap<(usize, usize), usize> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| ((op.batch, op.node), i))
            .collect();
        for op in ops {
            if op.node >= n {
                continue; // coverage reports RV0103
            }
            for &p in &adj.preds[op.node] {
                if let (Some(&pc), Some(&pp)) =
                    (pos.get(&(op.batch, op.node)), pos.get(&(op.batch, p)))
                {
                    if pp > pc {
                        diags.push(
                            Diagnostic::error(
                                codes::ORDER_VIOLATION,
                                Span::Op {
                                    worker: w,
                                    batch: op.batch,
                                    node: op.node,
                                    name: graph.nodes[op.node].name.clone(),
                                },
                                format!(
                                    "scheduled at position {pc} but its producer `{}` (#{p}) \
                                     sits later at position {pp} on the same worker",
                                    graph.nodes[p].name
                                ),
                            )
                            .with_suggestion(
                                "sort the worker's ops by a topological order of the graph",
                            ),
                        );
                    }
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_ir::{DType, Graph, GraphBuilder, OpKind};

    fn chain3() -> Graph {
        let mut b = GraphBuilder::new("chain");
        let x = b.input("x", DType::F32, vec![2]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let c = b.op("c", OpKind::Relu, vec![a]);
        let d = b.op("d", OpKind::Relu, vec![c]);
        b.output(&d);
        b.finish().unwrap()
    }

    #[test]
    fn correct_order_is_clean() {
        let g = chain3();
        let v = ScheduleView::single_batch(vec![vec![0, 1, 2]], ExecPolicy::InOrder);
        assert!(check_order(&g, &g.adjacency(), &v).is_empty());
    }

    #[test]
    fn swapped_pair_reported_with_positions() {
        let g = chain3();
        let v = ScheduleView::single_batch(vec![vec![0, 2, 1]], ExecPolicy::InOrder);
        let diags = check_order(&g, &g.adjacency(), &v);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::ORDER_VIOLATION);
        assert!(diags[0].message.contains("producer `c_1`"));
    }

    #[test]
    fn first_ready_skips_the_check() {
        let g = chain3();
        let v = ScheduleView::single_batch(vec![vec![0, 2, 1]], ExecPolicy::FirstReady);
        assert!(check_order(&g, &g.adjacency(), &v).is_empty());
    }

    #[test]
    fn cross_worker_split_is_fine() {
        let g = chain3();
        let v = ScheduleView::single_batch(vec![vec![0, 2], vec![1]], ExecPolicy::InOrder);
        assert!(check_order(&g, &g.adjacency(), &v).is_empty());
    }
}
