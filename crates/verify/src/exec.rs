//! Abstract channel execution (RV0401).
//!
//! Replays the schedule against the runtime's channel semantics — sends are
//! asynchronous (unbounded queues, never block), receives block until the
//! producing instance has run — and proves the whole schedule drains. Under
//! [`ExecPolicy::InOrder`] each worker only ever waits on its *next* op;
//! under [`ExecPolicy::FirstReady`] a worker runs any remaining op whose
//! inputs have arrived (the runtime's message-driven loop).
//!
//! On a stall the verifier reports, per blocked worker, the exact blocked
//! receive: which op is waiting, which tensor is missing, and where the
//! producing instance sits (worker + position) — the send/recv pair that
//! can never meet.
//!
//! Only run this after [`crate::coverage`] comes back clean: the simulation
//! assumes every dependence resolves to a scheduled instance.

use crate::diag::{codes, Diagnostic, Span};
use crate::schedule::{ExecPolicy, ScheduleView};
use ramiel_ir::graph::Adjacency;
use ramiel_ir::Graph;

pub fn check_execution(graph: &Graph, adj: &Adjacency<'_>, view: &ScheduleView) -> Vec<Diagnostic> {
    let n = graph.num_nodes();
    let total: usize = view.num_ops();
    let mut executed = vec![false; n * view.batch];
    // next-op cursor per worker (InOrder) / remaining flags (FirstReady)
    let mut cursor = vec![0usize; view.num_workers()];
    let mut remaining: Vec<Vec<bool>> = view.workers.iter().map(|o| vec![true; o.len()]).collect();
    let mut done = 0usize;

    let ready = |op: &crate::schedule::Op, executed: &[bool]| {
        adj.preds[op.node]
            .iter()
            .all(|&p| executed[op.batch * n + p])
    };

    loop {
        let mut progress = false;
        for (w, ops) in view.workers.iter().enumerate() {
            match view.policy {
                ExecPolicy::InOrder => {
                    while cursor[w] < ops.len() && ready(&ops[cursor[w]], &executed) {
                        executed[ops[cursor[w]].batch * n + ops[cursor[w]].node] = true;
                        cursor[w] += 1;
                        done += 1;
                        progress = true;
                    }
                }
                ExecPolicy::FirstReady => {
                    for i in 0..ops.len() {
                        if remaining[w][i] && ready(&ops[i], &executed) {
                            remaining[w][i] = false;
                            executed[ops[i].batch * n + ops[i].node] = true;
                            done += 1;
                            progress = true;
                        }
                    }
                }
            }
        }
        if done == total {
            return Vec::new();
        }
        if !progress {
            break;
        }
    }

    // Stalled: report the blocked receive on every stuck worker.
    let worker_of = view.worker_of(n);
    let mut diags = Vec::new();
    for (w, ops) in view.workers.iter().enumerate() {
        let blocked_idx = match view.policy {
            ExecPolicy::InOrder => {
                if cursor[w] >= ops.len() {
                    continue;
                }
                cursor[w]
            }
            ExecPolicy::FirstReady => match (0..ops.len()).find(|&i| remaining[w][i]) {
                Some(i) => i,
                None => continue,
            },
        };
        let op = &ops[blocked_idx];
        let node = &graph.nodes[op.node];
        // the first unsatisfied dependence = the blocked recv
        let missing = adj.preds[op.node]
            .iter()
            .find(|&&p| !executed[op.batch * n + p]);
        let detail = match missing {
            Some(&p) => {
                let tensor = node
                    .inputs
                    .iter()
                    .find(|t| graph.nodes[p].outputs.contains(t))
                    .cloned()
                    .unwrap_or_default();
                let where_ = match worker_of[op.batch * n + p] {
                    Some(pw) => {
                        let ppos = view.workers[pw]
                            .iter()
                            .position(|o| o.batch == op.batch && o.node == p);
                        match ppos {
                            Some(i) => format!("worker {pw} position {i}"),
                            None => format!("worker {pw}"),
                        }
                    }
                    None => "nowhere (unscheduled)".to_string(),
                };
                format!(
                    "blocked receiving tensor `{tensor}` from `{}` (#{p}, batch {}) \
                     scheduled on {where_}",
                    graph.nodes[p].name, op.batch
                )
            }
            None => "blocked with all inputs ready (internal stall)".to_string(),
        };
        diags.push(
            Diagnostic::error(
                codes::CHANNEL_DEADLOCK,
                Span::Op {
                    worker: w,
                    batch: op.batch,
                    node: op.node,
                    name: node.name.clone(),
                },
                format!(
                    "{detail}; {} of {} scheduled ops executed before the stall",
                    done, total
                ),
            )
            .with_suggestion(
                "run `ramiel check` cycle analysis output (RV0201/RV0301) for the root cause",
            ),
        );
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Op;
    use ramiel_ir::{DType, Graph, GraphBuilder, OpKind};

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
    fn valid_two_worker_schedule_drains() {
        let g = diamond();
        let v = ScheduleView::single_batch(vec![vec![0, 1, 3], vec![2]], ExecPolicy::InOrder);
        assert!(check_execution(&g, &g.adjacency(), &v).is_empty());
    }

    #[test]
    fn inverted_in_order_schedule_deadlocks_with_exact_pair() {
        let g = diamond();
        // worker 0 wants j before p: blocks receiving p's output forever.
        let v = ScheduleView::single_batch(vec![vec![0, 3, 1], vec![2]], ExecPolicy::InOrder);
        let diags = check_execution(&g, &g.adjacency(), &v);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::CHANNEL_DEADLOCK);
        assert!(diags[0].message.contains("`p_1`"), "{}", diags[0].message);
        assert!(diags[0].message.contains("worker 0 position 2"));
    }

    #[test]
    fn first_ready_tolerates_the_same_inversion() {
        let g = diamond();
        let v = ScheduleView::single_batch(vec![vec![0, 3, 1], vec![2]], ExecPolicy::FirstReady);
        assert!(check_execution(&g, &g.adjacency(), &v).is_empty());
    }

    #[test]
    fn cross_worker_mutual_wait_reports_both_workers() {
        // two independent chains crossed between workers in opposite order
        let mut b = GraphBuilder::new("x");
        let x = b.input("x", DType::F32, vec![2]);
        let a1 = b.op("a1", OpKind::Relu, vec![x.clone()]);
        let a2 = b.op("a2", OpKind::Relu, vec![a1]);
        let b1 = b.op("b1", OpKind::Relu, vec![x]);
        let b2 = b.op("b2", OpKind::Relu, vec![b1]);
        let j = b.op("j", OpKind::Add, vec![a2, b2]);
        b.output(&j);
        let g = b.finish().unwrap();
        // worker 0: a2 then b1 — worker 1: b2 then a1. 0 waits on a1 (w1,
        // behind b2), 1 waits on b1 (w0, behind a2): classic crossed wait.
        let v = ScheduleView {
            batch: 1,
            workers: vec![
                vec![
                    Op { batch: 0, node: 1 },
                    Op { batch: 0, node: 2 },
                    Op { batch: 0, node: 4 },
                ],
                vec![Op { batch: 0, node: 3 }, Op { batch: 0, node: 0 }],
            ],
            policy: ExecPolicy::InOrder,
        };
        let diags = check_execution(&g, &g.adjacency(), &v);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == codes::CHANNEL_DEADLOCK));
    }

    #[test]
    fn interleaved_batches_drain_first_ready() {
        let g = diamond();
        let mut w0 = Vec::new();
        let mut w1 = Vec::new();
        for batch in 0..3 {
            w0.push(Op { batch, node: 0 });
            w0.push(Op { batch, node: 1 });
            w1.push(Op { batch, node: 2 });
            w0.push(Op { batch, node: 3 });
        }
        let v = ScheduleView {
            batch: 3,
            workers: vec![w0, w1],
            policy: ExecPolicy::FirstReady,
        };
        assert!(check_execution(&g, &g.adjacency(), &v).is_empty());
    }
}
