//! Cycle analysis (RV0201, RV0202).
//!
//! Two graphs matter:
//!
//! - The **schedule graph**: one vertex per scheduled `(batch, node)`
//!   instance, with same-batch dependence edges plus, under
//!   [`ExecPolicy::InOrder`], program-order edges between consecutive ops on
//!   the same worker. A cycle here means the in-order replay provably
//!   deadlocks (RV0201, error).
//! - The **quotient graph**: one vertex per worker, an edge `u → v` for
//!   every cross-worker dependence. A quotient cycle with an *acyclic*
//!   schedule graph still executes — messages just ping-pong between the
//!   workers involved — so it is only a warning (RV0202). This is the
//!   deliberate divergence from "quotient cycle ⇒ deadlock": linear
//!   clustering routinely emits benign quotient cycles.

use crate::diag::{codes, Diagnostic, Span};
use crate::schedule::{ExecPolicy, ScheduleView};
use ramiel_ir::graph::Adjacency;
use ramiel_ir::Graph;

pub fn check_cycles(graph: &Graph, adj: &Adjacency<'_>, view: &ScheduleView) -> Vec<Diagnostic> {
    let n = graph.num_nodes();
    let mut diags = Vec::new();

    // ---- schedule graph -------------------------------------------------
    // vertex = batch * n + node (only scheduled instances participate).
    let nv = n * view.batch;
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nv];
    let mut indeg = vec![0usize; nv];
    let mut present = vec![false; nv];
    for ops in &view.workers {
        for op in ops {
            present[op.batch * n + op.node] = true;
        }
    }
    let add_edge = |succs: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>, u: usize, v: usize| {
        succs[u].push(v);
        indeg[v] += 1;
    };
    for (u, su) in adj.succs.iter().enumerate() {
        for &v in su {
            for b in 0..view.batch {
                let (iu, iv) = (b * n + u, b * n + v);
                if present[iu] && present[iv] {
                    add_edge(&mut succs, &mut indeg, iu, iv);
                }
            }
        }
    }
    if view.policy == ExecPolicy::InOrder {
        for ops in &view.workers {
            for pair in ops.windows(2) {
                let (iu, iv) = (
                    pair[0].batch * n + pair[0].node,
                    pair[1].batch * n + pair[1].node,
                );
                if present[iu] && present[iv] && iu != iv {
                    add_edge(&mut succs, &mut indeg, iu, iv);
                }
            }
        }
    }

    // Kahn's algorithm; leftovers with present[v] form the cyclic core.
    let mut queue: Vec<usize> = (0..nv).filter(|&v| present[v] && indeg[v] == 0).collect();
    let mut done = 0usize;
    let total = present.iter().filter(|&&p| p).count();
    while let Some(u) = queue.pop() {
        done += 1;
        for &v in &succs[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }
    let schedule_cyclic = done < total;
    if schedule_cyclic {
        let core: Vec<usize> = (0..nv).filter(|&v| present[v] && indeg[v] > 0).collect();
        let sample = sample_cycle(&core, &succs, &indeg);
        let path = sample
            .iter()
            .map(|&v| format!("`{}`(b{})", graph.nodes[v % n].name, v / n))
            .collect::<Vec<_>>()
            .join(" → ");
        diags.push(
            Diagnostic::error(
                codes::SCHEDULE_CYCLE,
                Span::Graph,
                format!(
                    "schedule graph (dependences + per-worker program order) has a cycle \
                     through {} op instance(s), e.g. {path}; in-order replay will deadlock",
                    core.len()
                ),
            )
            .with_suggestion(
                "reorder the ops inside each cluster into a topological order, \
                 or split the clusters involved",
            ),
        );
    }

    // ---- quotient graph -------------------------------------------------
    let worker_of = view.worker_of(n);
    let k = view.num_workers();
    let mut qsucc: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut qindeg = vec![0usize; k];
    for (u, su) in adj.succs.iter().enumerate() {
        for &v in su {
            for b in 0..view.batch {
                let (wu, wv) = (worker_of[b * n + u], worker_of[b * n + v]);
                if let (Some(wu), Some(wv)) = (wu, wv) {
                    if wu != wv && !qsucc[wu].contains(&wv) {
                        qsucc[wu].push(wv);
                        qindeg[wv] += 1;
                    }
                }
            }
        }
    }
    let mut qq: Vec<usize> = (0..k).filter(|&w| qindeg[w] == 0).collect();
    let mut qdone = 0;
    while let Some(u) = qq.pop() {
        qdone += 1;
        for &v in &qsucc[u] {
            qindeg[v] -= 1;
            if qindeg[v] == 0 {
                qq.push(v);
            }
        }
    }
    if qdone < k && !schedule_cyclic {
        let cyclic_workers: Vec<usize> = (0..k).filter(|&w| qindeg[w] > 0).collect();
        diags.push(
            Diagnostic::warning(
                codes::QUOTIENT_CYCLE,
                Span::Graph,
                format!(
                    "cluster-quotient graph has a cycle among workers {cyclic_workers:?}; \
                     execution still progresses, but messages ping-pong between these workers"
                ),
            )
            .with_suggestion("merging the workers involved would remove the round-trips"),
        );
    }

    diags
}

/// Walk successors inside the cyclic core until a vertex repeats, then
/// return the loop portion (short, for the error message).
fn sample_cycle(core: &[usize], succs: &[Vec<usize>], indeg: &[usize]) -> Vec<usize> {
    let Some(&start) = core.first() else {
        return Vec::new();
    };
    let mut path = vec![start];
    let mut seen_at = std::collections::HashMap::new();
    seen_at.insert(start, 0usize);
    let mut cur = start;
    loop {
        // any successor still in the cyclic core
        let Some(&next) = succs[cur].iter().find(|&&v| indeg[v] > 0) else {
            return path;
        };
        if let Some(&i) = seen_at.get(&next) {
            path.push(next);
            return path[i..].to_vec();
        }
        seen_at.insert(next, path.len());
        path.push(next);
        cur = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ExecPolicy;
    use ramiel_ir::{DType, Graph, GraphBuilder, OpKind};

    /// in → a → {p, q} → j
    fn diamond() -> Graph {
        let mut b = GraphBuilder::new("d");
        let x = b.input("x", DType::F32, vec![4]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let p = b.op("p", OpKind::Relu, vec![a.clone()]);
        let q = b.op("q", OpKind::Relu, vec![a]);
        let j = b.op("j", OpKind::Add, vec![p, q]);
        b.output(&j);
        b.finish().unwrap()
    }

    #[test]
    fn clean_two_worker_split_has_no_schedule_cycle() {
        let g = diamond();
        // worker 0: a, p, j — worker 1: q. Quotient: 0→1 (a→q), 1→0 (q→j):
        // a quotient cycle, but the schedule graph is acyclic.
        let v = ScheduleView::single_batch(vec![vec![0, 1, 3], vec![2]], ExecPolicy::InOrder);
        let diags = check_cycles(&g, &g.adjacency(), &v);
        assert!(diags.iter().all(|d| d.code != codes::SCHEDULE_CYCLE));
        assert!(diags.iter().any(|d| d.code == codes::QUOTIENT_CYCLE));
    }

    #[test]
    fn cross_worker_order_inversion_is_a_schedule_cycle() {
        let g = diamond();
        // worker 0: j before p — j needs p (same worker, later) ⇒ cycle
        // through the program-order edge j→p and dependence edge p→j.
        let v = ScheduleView::single_batch(vec![vec![0, 3, 1], vec![2]], ExecPolicy::InOrder);
        let diags = check_cycles(&g, &g.adjacency(), &v);
        let cyc: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::SCHEDULE_CYCLE)
            .collect();
        assert_eq!(cyc.len(), 1);
        assert!(cyc[0].message.contains("deadlock"));
    }

    #[test]
    fn first_ready_ignores_program_order() {
        let g = diamond();
        // Same inverted list, but first-ready replay skips past j until p is
        // done — no schedule cycle.
        let v = ScheduleView::single_batch(vec![vec![0, 3, 1], vec![2]], ExecPolicy::FirstReady);
        let diags = check_cycles(&g, &g.adjacency(), &v);
        assert!(diags.iter().all(|d| d.code != codes::SCHEDULE_CYCLE));
    }

    #[test]
    fn single_worker_has_no_quotient_edges() {
        let g = diamond();
        let v = ScheduleView::single_batch(vec![vec![0, 1, 2, 3]], ExecPolicy::InOrder);
        assert!(check_cycles(&g, &g.adjacency(), &v).is_empty());
    }
}
