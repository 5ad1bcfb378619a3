//! Happens-before channel analysis.
//!
//! Builds the cross-worker send/recv order graph of a schedule — every
//! scheduled op instance is a vertex; dependence edges connect producers
//! to consumers, and in-order workers add program-order edges between
//! consecutive steps — then lints the shapes that turn into runtime
//! hangs or races:
//!
//! - **RA0301** a consumed tensor instance has no scheduled producer and
//!   no input/initializer provides it: the recv blocks forever.
//! - **RA0302** one tensor instance is written by two scheduled op
//!   instances: the consumer's env insert order is a race.
//! - **RA0303** the happens-before graph has a cycle: in-order replay
//!   deadlocks on a cross-worker wait loop.
//! - **RA0401** worst-case in-flight messages into one worker can fill
//!   its bounded inbox ([`DATA_CHANNEL_CAPACITY`]); a warning, escalated
//!   to an error when that worker also sits on a worker-to-worker
//!   dependence cycle — the shape where backpressure can deadlock.

use crate::codes;
use crate::lifetime::instance_workers;
use ramiel_ir::{Graph, NodeId};
use ramiel_runtime::limits::DATA_CHANNEL_CAPACITY;
use ramiel_verify::{Diagnostic, ExecPolicy, ScheduleView, Span};
use std::collections::{HashMap, HashSet};

fn op_span(graph: &Graph, worker: usize, batch: usize, node: NodeId) -> Span {
    Span::Op {
        worker,
        batch,
        node,
        name: graph
            .nodes
            .get(node)
            .map_or_else(|| format!("#{node}"), |n| n.name.clone()),
    }
}

/// Lint the schedule's send/recv order graph.
pub fn happens_before(graph: &Graph, view: &ScheduleView) -> Vec<Diagnostic> {
    let adj = graph.adjacency();
    let owner = instance_workers(view);
    let externals: HashSet<&str> = graph
        .inputs
        .iter()
        .map(|i| i.name.as_str())
        .chain(graph.initializers.keys().map(String::as_str))
        .collect();
    let mut diags = Vec::new();

    // Vertex table: first occurrence of each (batch, node) instance.
    let mut idx: HashMap<(usize, NodeId), usize> = HashMap::new();
    let mut at: Vec<(usize, usize, usize, NodeId)> = Vec::new(); // (worker, step, batch, node)
    for (w, ops) in view.workers.iter().enumerate() {
        for (step, op) in ops.iter().enumerate() {
            idx.entry((op.batch, op.node)).or_insert_with(|| {
                at.push((w, step, op.batch, op.node));
                at.len() - 1
            });
        }
    }

    // RA0302: one tensor instance, several scheduled writers.
    let mut writers: HashMap<(&str, usize), Vec<(usize, NodeId)>> = HashMap::new();
    for (w, ops) in view.workers.iter().enumerate() {
        for op in ops {
            let Some(node) = graph.nodes.get(op.node) else {
                continue;
            };
            for t in &node.outputs {
                writers
                    .entry((t.as_str(), op.batch))
                    .or_default()
                    .push((w, op.node));
            }
        }
    }
    for ((t, b), ws) in &writers {
        if ws.len() > 1 {
            let (w1, n1) = ws[0];
            let (w2, n2) = ws[1];
            diags.push(
                Diagnostic::error(
                    codes::WRITE_WRITE,
                    op_span(graph, w2, *b, n2),
                    format!(
                        "tensor `{t}` (batch {b}) is written by {} scheduled ops \
                         (first on worker {w1} by node #{n1}, again on worker {w2}); \
                         consumers observe whichever insert lands last",
                        ws.len()
                    ),
                )
                .with_suggestion("deduplicate the instance across workers"),
            );
        }
    }

    // RA0301: recv with no dominating send.
    let mut missing: HashSet<(String, usize)> = HashSet::new();
    for (w, ops) in view.workers.iter().enumerate() {
        for op in ops {
            let Some(node) = graph.nodes.get(op.node) else {
                continue;
            };
            for t in &node.inputs {
                if externals.contains(t.as_str()) {
                    continue;
                }
                let sent = adj
                    .producer_of
                    .get(t)
                    .is_some_and(|p| idx.contains_key(&(op.batch, *p)));
                if !sent && missing.insert((t.clone(), op.batch)) {
                    diags.push(
                        Diagnostic::error(
                            codes::RECV_NO_SEND,
                            op_span(graph, w, op.batch, op.node),
                            format!(
                                "consumes `{t}` (batch {}) but no scheduled op produces \
                                 it; the recv has no dominating send and times out",
                                op.batch
                            ),
                        )
                        .with_suggestion("schedule the producing node or mark the tensor an input"),
                    );
                }
            }
        }
    }

    // RA0303: cycle in program order ∪ dependence.
    let n = at.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg: Vec<usize> = vec![0; n];
    let edge = |succs: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>, a: usize, b: usize| {
        if a != b {
            succs[a].push(b);
            indeg[b] += 1;
        }
    };
    for (&(batch, node), &i) in &idx {
        let Some(nd) = graph.nodes.get(node) else {
            continue;
        };
        for t in &nd.inputs {
            if let Some(&p) = adj.producer_of.get(t) {
                if let Some(&j) = idx.get(&(batch, p)) {
                    edge(&mut succs, &mut indeg, j, i);
                }
            }
        }
    }
    if view.policy == ExecPolicy::InOrder {
        for ops in &view.workers {
            for pair in ops.windows(2) {
                let a = idx[&(pair[0].batch, pair[0].node)];
                let b = idx[&(pair[1].batch, pair[1].node)];
                edge(&mut succs, &mut indeg, a, b);
            }
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut done = 0usize;
    while let Some(i) = ready.pop() {
        done += 1;
        for &j in &succs[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                ready.push(j);
            }
        }
    }
    if done < n {
        // every unprocessed vertex sits on (or behind) a cycle; anchor the
        // report at the earliest one for determinism
        let stuck = (0..n)
            .filter(|&i| indeg[i] > 0)
            .min_by_key(|&i| (at[i].0, at[i].1))
            .expect("done < n implies a stuck vertex");
        let (w, _, b, node) = at[stuck];
        diags.push(
            Diagnostic::error(
                codes::HB_CYCLE,
                op_span(graph, w, b, node),
                format!(
                    "happens-before cycle: {} scheduled ops form a cross-worker \
                     wait loop (program order ∪ dependences); in-order replay \
                     deadlocks",
                    n - done
                ),
            )
            .with_suggestion("topologically order each worker's op list"),
        );
    }

    // RA0401: worst-case in-flight messages vs the bounded inbox.
    let mut inbound: HashMap<usize, usize> = HashMap::new();
    let mut sent: HashSet<(&str, usize, usize)> = HashSet::new(); // (tensor, batch, dst)
    let mut quotient: HashSet<(usize, usize)> = HashSet::new();
    for &(batch, node) in idx.keys() {
        let Some(nd) = graph.nodes.get(node) else {
            continue;
        };
        let pw = owner[&(batch, node)];
        for t in &nd.outputs {
            for &c in adj.consumers_of.get(t).unwrap_or_default() {
                if let Some(&cw) = owner.get(&(batch, c)) {
                    if cw != pw && sent.insert((t.as_str(), batch, cw)) {
                        *inbound.entry(cw).or_insert(0) += 1;
                        quotient.insert((pw, cw));
                    }
                }
            }
        }
    }
    let mut hot: Vec<(usize, usize)> = inbound
        .into_iter()
        .filter(|&(_, msgs)| msgs > DATA_CHANNEL_CAPACITY)
        .collect();
    hot.sort_unstable();
    for (w, msgs) in hot {
        // is `w` on a worker-to-worker dependence cycle? (DFS from w)
        let mut stack: Vec<usize> = quotient
            .iter()
            .filter(|&&(a, _)| a == w)
            .map(|&(_, b)| b)
            .collect();
        let mut seen: HashSet<usize> = HashSet::new();
        let mut cyclic = false;
        while let Some(v) = stack.pop() {
            if v == w {
                cyclic = true;
                break;
            }
            if seen.insert(v) {
                stack.extend(quotient.iter().filter(|&&(a, _)| a == v).map(|&(_, b)| b));
            }
        }
        let msg = format!(
            "worst case {msgs} in-flight messages into worker {w} exceed the \
             bounded inbox capacity of {DATA_CHANNEL_CAPACITY}"
        );
        diags.push(if cyclic {
            Diagnostic::error(
                codes::CAPACITY_EXCEEDED,
                Span::Worker { worker: w },
                format!(
                    "{msg}; worker {w} sits on a cross-worker dependence cycle, so \
                     the resulting backpressure can deadlock"
                ),
            )
            .with_suggestion(
                "split the consumer cluster or raise runtime::limits::DATA_CHANNEL_CAPACITY",
            )
        } else {
            Diagnostic::warning(
                codes::CAPACITY_EXCEEDED,
                Span::Worker { worker: w },
                format!("{msg}; senders will stall on backpressure"),
            )
            .with_suggestion("split the consumer cluster across more workers")
        });
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_ir::{DType, GraphBuilder, OpKind};
    use ramiel_verify::{ExecPolicy, ScheduleView, Severity};

    /// x → Relu(0) → Neg(1) → Sqrt(2) → Relu(3) → output.
    fn chain4() -> Graph {
        let mut b = GraphBuilder::new("m");
        let x = b.input("x", DType::F32, vec![2, 3]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let c = b.op("c", OpKind::Neg, vec![a]);
        let d = b.op("d", OpKind::Sqrt, vec![c]);
        let e = b.op("e", OpKind::Relu, vec![d]);
        b.output(&e);
        b.finish().unwrap()
    }

    #[test]
    fn clean_split_schedule_has_no_findings() {
        let g = chain4();
        let view = ScheduleView::single_batch(vec![vec![0, 1], vec![2, 3]], ExecPolicy::InOrder);
        assert!(happens_before(&g, &view).is_empty());
    }

    #[test]
    fn dropped_producer_trips_recv_no_send() {
        let g = chain4();
        // node 0 (producer of node 1's input) is never scheduled
        let view = ScheduleView::single_batch(vec![vec![1, 2, 3]], ExecPolicy::InOrder);
        let d = happens_before(&g, &view);
        assert!(d.iter().any(|d| d.code == codes::RECV_NO_SEND), "{d:?}");
    }

    #[test]
    fn duplicated_instance_trips_write_write() {
        let g = chain4();
        let view = ScheduleView::single_batch(vec![vec![0, 1, 2, 3], vec![1]], ExecPolicy::InOrder);
        let d = happens_before(&g, &view);
        assert!(d.iter().any(|d| d.code == codes::WRITE_WRITE), "{d:?}");
    }

    #[test]
    fn reversed_worker_order_trips_hb_cycle() {
        let g = chain4();
        // program order on worker 0 runs node 3 before node 0, but node 3
        // transitively depends on node 0 through worker 1
        let view = ScheduleView::single_batch(vec![vec![3, 0], vec![1, 2]], ExecPolicy::InOrder);
        let d = happens_before(&g, &view);
        assert!(d.iter().any(|d| d.code == codes::HB_CYCLE), "{d:?}");
    }

    #[test]
    fn first_ready_ignores_program_order() {
        let g = chain4();
        // same shape as the cycle test, but first-ready workers reorder
        // freely, so only dependence edges remain — acyclic
        let view = ScheduleView::single_batch(vec![vec![3, 0], vec![1, 2]], ExecPolicy::FirstReady);
        assert!(happens_before(&g, &view).is_empty());
    }

    /// `n` independent producer→consumer pairs crossing w0→w1, plus one
    /// pair crossing back when `reverse` is set.
    fn wide(n: usize) -> Graph {
        let mut b = GraphBuilder::new("wide");
        let x = b.input("x", DType::F32, vec![2]);
        for _ in 0..n {
            let p = b.op("p", OpKind::Relu, vec![x.clone()]);
            let c = b.op("c", OpKind::Neg, vec![p]);
            b.output(&c);
        }
        b.finish().unwrap()
    }

    #[test]
    fn inbox_overflow_warns_and_escalates_on_quotient_cycle() {
        let n = DATA_CHANNEL_CAPACITY + 2;
        let g = wide(n);
        // producers (even node ids) on w0, consumers (odd) on w1
        let producers: Vec<usize> = (0..2 * n).step_by(2).collect();
        let consumers: Vec<usize> = (1..2 * n).step_by(2).collect();
        let view = ScheduleView::single_batch(
            vec![producers.clone(), consumers.clone()],
            ExecPolicy::InOrder,
        );
        let d = happens_before(&g, &view);
        let cap = d
            .iter()
            .find(|d| d.code == codes::CAPACITY_EXCEEDED)
            .expect("overflow must be flagged");
        assert_eq!(cap.severity, Severity::Warning);

        // move the last pair's producer to w1 and its consumer to w0:
        // w1→w0 messages now exist, closing the quotient cycle
        let mut p2 = producers;
        let mut c2 = consumers;
        let last_p = p2.pop().unwrap();
        let last_c = c2.pop().unwrap();
        p2.push(last_c);
        c2.push(last_p);
        let view = ScheduleView::single_batch(vec![p2, c2], ExecPolicy::InOrder);
        let d = happens_before(&g, &view);
        let cap = d
            .iter()
            .find(|d| d.code == codes::CAPACITY_EXCEEDED)
            .expect("overflow must still be flagged");
        assert_eq!(cap.severity, Severity::Error);
    }
}
