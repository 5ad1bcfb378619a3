//! Channel-capacity analysis (RA0401).
//!
//! Counts the distinct cross-worker messages — one per `(tensor, batch,
//! destination worker)` — a schedule sends into each worker and lints the
//! count against the bounded inbox ([`DATA_CHANNEL_CAPACITY`]): a warning,
//! escalated to an error when that worker also sits on a worker-to-worker
//! dependence cycle — the shape where backpressure can deadlock.
//!
//! The other happens-before facts about a schedule are proved once, by the
//! verifier: a receive with no send is a missing op (RV0101), a double
//! write a duplicate op (RV0102), and a replay wait loop a stalled abstract
//! execution (RV0401). Only run this after [`crate::coverage`] comes back
//! clean.

use crate::diag::{codes, Diagnostic, Span};
use crate::schedule::ScheduleView;
use ramiel_ir::graph::Adjacency;
use ramiel_ir::runtime_model::DATA_CHANNEL_CAPACITY;
use ramiel_ir::Graph;
use std::collections::HashSet;

/// Lint each worker's worst-case inbound message count.
pub(crate) fn check_capacity(
    graph: &Graph,
    adj: &Adjacency<'_>,
    view: &ScheduleView,
) -> Vec<Diagnostic> {
    let n = graph.num_nodes();
    let owner = view.worker_of(n);
    let mut inbound = vec![0usize; view.workers.len()];
    let mut sent: HashSet<(&str, usize, usize)> = HashSet::new(); // (tensor, batch, dst)
    let mut quotient: HashSet<(usize, usize)> = HashSet::new();
    for (pw, ops) in view.workers.iter().enumerate() {
        for op in ops {
            for t in &graph.nodes[op.node].outputs {
                for &c in adj.consumers_of.get(t).unwrap_or_default() {
                    if let Some(cw) = owner[op.batch * n + c] {
                        if cw != pw && sent.insert((t.as_str(), op.batch, cw)) {
                            inbound[cw] += 1;
                            quotient.insert((pw, cw));
                        }
                    }
                }
            }
        }
    }
    let mut diags = Vec::new();
    let hot = (inbound.into_iter().enumerate()).filter(|&(_, msgs)| msgs > DATA_CHANNEL_CAPACITY);
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
                "split the consumer cluster or raise ir::runtime_model::DATA_CHANNEL_CAPACITY",
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
    use crate::schedule::ExecPolicy;
    use crate::Severity;
    use ramiel_ir::{DType, GraphBuilder, OpKind};

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

    /// Codes of every finding [`crate::analyze`] reports on `chain4`
    /// scheduled as `workers`.
    fn analyze_codes(workers: Vec<Vec<usize>>, policy: ExecPolicy) -> Vec<&'static str> {
        let view = ScheduleView::single_batch(workers, policy);
        let a = crate::analyze(&chain4(), &view);
        a.report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_split_schedule_has_no_findings() {
        let found = analyze_codes(vec![vec![0, 1], vec![2, 3]], ExecPolicy::InOrder);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn dropped_producer_trips_recv_no_send() {
        // node 0 (producer of node 1's input) is never scheduled: the
        // receive with no send is the missing op, and nothing else
        let found = analyze_codes(vec![vec![1, 2, 3]], ExecPolicy::InOrder);
        assert_eq!(found, [codes::OP_MISSING]);
    }

    #[test]
    fn duplicated_instance_trips_write_write() {
        let found = analyze_codes(vec![vec![0, 1, 2, 3], vec![1]], ExecPolicy::InOrder);
        assert_eq!(found, [codes::OP_DUPLICATE]);
    }

    #[test]
    fn reversed_worker_order_trips_hb_cycle() {
        // program order on worker 0 runs node 3 before node 0, but node 3
        // transitively depends on node 0 through worker 1
        let found = analyze_codes(vec![vec![3, 0], vec![1, 2]], ExecPolicy::InOrder);
        assert!(found.contains(&codes::CHANNEL_DEADLOCK), "{found:?}");
    }

    #[test]
    fn first_ready_ignores_program_order() {
        // same shape as the cycle test, but first-ready workers reorder
        // freely, so only dependence edges remain — acyclic
        let found = analyze_codes(vec![vec![3, 0], vec![1, 2]], ExecPolicy::FirstReady);
        assert!(found.is_empty(), "{found:?}");
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
        let d = check_capacity(&g, &g.adjacency(), &view);
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
        let d = check_capacity(&g, &g.adjacency(), &view);
        let cap = d
            .iter()
            .find(|d| d.code == codes::CAPACITY_EXCEEDED)
            .expect("overflow must still be flagged");
        assert_eq!(cap.severity, Severity::Error);
    }
}
