//! Static peak-memory estimation.
//!
//! Replays each worker's schedule against the same accounting model the
//! executors' liveness gauge uses at runtime:
//!
//! - op outputs are charged when produced — zero bytes for alias ops
//!   (reshape family shares the input `Arc`), full payload otherwise;
//! - values received over a channel are charged with their full payload,
//!   and conservatively from step 0 (a message may arrive before the
//!   worker has executed anything);
//! - graph inputs and initializers are never charged (caller-owned);
//! - a value is discharged after its last local read; graph outputs are
//!   pinned for the whole schedule;
//! - the producing step's peak is sampled *after* charging outputs and
//!   *before* discharging inputs, so inputs and outputs coexist — which
//!   also upper-bounds the in-place path, where they share one buffer.
//!
//! For in-order workers this replay is exact with respect to that model.
//! First-ready workers execute in a data-dependent order, so the bound
//! falls back to the sum of all charges (no interleaving can exceed a
//! world where nothing is ever discharged). The whole-schedule peak is
//! the sum of per-worker peaks: the runtime gauge is shared across
//! workers, and the per-worker maxima cannot all be exceeded at once.
//!
//! The view must schedule each instance exactly once (a clean
//! [`crate::coverage`]); [`crate::analyze`] runs this pass only then.

use crate::diag::{codes, Diagnostic, Span};
use crate::lifetime::externals;
use crate::schedule::{ExecPolicy, ScheduleView};
use ramiel_ir::graph::Adjacency;
use ramiel_ir::runtime_model::{is_alias_op, tensor_bytes};
use ramiel_ir::Graph;
use serde::Serialize;
use std::collections::{HashMap, HashSet};

/// Peak-memory estimate for one worker.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerMemory {
    pub worker: usize,
    /// Estimated high-water mark of the worker's liveness gauge.
    pub peak_bytes: u64,
    /// Sum of every charge the worker ever makes (the no-eviction bound).
    pub resident_bytes: u64,
    /// True when `peak_bytes` came from an exact in-order replay rather
    /// than the first-ready sum bound.
    pub exact: bool,
    /// Scheduled ops on this worker.
    pub ops: usize,
}

/// Whole-schedule estimate: per-worker breakdown plus the summed bound.
#[derive(Debug, Clone, Serialize)]
pub struct MemoryEstimate {
    pub per_worker: Vec<WorkerMemory>,
    /// Upper bound on the shared gauge's high-water mark (Σ worker peaks).
    pub peak_bytes: u64,
    pub exact: bool,
}

impl Default for MemoryEstimate {
    fn default() -> Self {
        MemoryEstimate {
            per_worker: Vec::new(),
            peak_bytes: 0,
            exact: true,
        }
    }
}

/// Estimate peak memory for every worker plus the memory lints; `adj` is a
/// snapshot of `graph`.
pub fn estimate_memory(
    graph: &Graph,
    adj: &Adjacency<'_>,
    view: &ScheduleView,
) -> (MemoryEstimate, Vec<Diagnostic>) {
    let n = graph.num_nodes();
    let owner = view.worker_of(n);
    let graph_outputs: HashSet<&str> = graph.outputs.iter().map(String::as_str).collect();
    let externals = externals(graph);
    let exact_order = view.policy == ExecPolicy::InOrder;

    let mut per_worker = Vec::with_capacity(view.workers.len());
    for (w, ops) in view.workers.iter().enumerate() {
        // Local read counts per instance; graph outputs get a pin that
        // never drains, exactly like the executors' `uses + 1`.
        let mut uses: HashMap<(&str, usize), usize> = HashMap::new();
        let mut received: HashSet<(&str, usize)> = HashSet::new();
        for op in ops {
            let node = &graph.nodes[op.node];
            for t in &node.inputs {
                if externals.contains(t.as_str()) {
                    continue;
                }
                *uses.entry((t.as_str(), op.batch)).or_insert(0) += 1;
                let local = adj
                    .producer_of
                    .get(t)
                    .is_some_and(|p| owner[op.batch * n + p] == Some(w));
                if !local {
                    received.insert((t.as_str(), op.batch));
                }
            }
            for t in &node.outputs {
                if graph_outputs.contains(t.as_str()) {
                    *uses.entry((t.as_str(), op.batch)).or_insert(0) += 1;
                }
            }
        }

        // charge size per charged instance, for discharging later
        let mut charge: HashMap<(&str, usize), u64> = HashMap::new();
        let mut cur: u64 = 0;
        let mut resident: u64 = 0;
        let mut peak: u64 = 0;
        for &(t, b) in &received {
            let bytes = tensor_bytes(graph, t) as u64;
            charge.insert((t, b), bytes);
            cur += bytes;
            resident += bytes;
        }
        peak = peak.max(cur);

        for op in ops {
            let node = &graph.nodes[op.node];
            for t in &node.outputs {
                let key = (t.as_str(), op.batch);
                let bytes = if is_alias_op(&node.op) {
                    0
                } else {
                    tensor_bytes(graph, t) as u64
                };
                charge.insert(key, bytes);
                cur += bytes;
                resident += bytes;
            }
            peak = peak.max(cur);
            for t in &node.inputs {
                let key = (t.as_str(), op.batch);
                let Some(left) = uses.get_mut(&key) else {
                    continue; // external: never charged
                };
                *left -= 1;
                if *left == 0 {
                    cur -= charge.get(&key).copied().unwrap_or(0);
                }
            }
            for t in &node.outputs {
                // produced-but-never-read-locally values (sent remotely or
                // dead) are evicted right after production
                let key = (t.as_str(), op.batch);
                if uses.get(&key).copied().unwrap_or(0) == 0 {
                    cur -= charge.get(&key).copied().unwrap_or(0);
                }
            }
        }

        per_worker.push(WorkerMemory {
            worker: w,
            peak_bytes: if exact_order { peak } else { resident },
            resident_bytes: resident,
            exact: exact_order,
            ops: ops.len(),
        });
    }

    let estimate = MemoryEstimate {
        peak_bytes: per_worker.iter().map(|m| m.peak_bytes).sum(),
        exact: exact_order,
        per_worker,
    };

    let mut diags = Vec::new();
    // RA0201: one worker's peak dominates the schedule.
    let workers = estimate.per_worker.len();
    if workers > 1 {
        let avg = estimate.peak_bytes / workers as u64;
        if let Some(hot) = estimate
            .per_worker
            .iter()
            .max_by_key(|m| m.peak_bytes)
            .filter(|m| avg > 0 && m.peak_bytes > 2 * avg)
        {
            diags.push(
                Diagnostic::advice(
                    codes::MEM_HOTSPOT,
                    Span::Worker { worker: hot.worker },
                    format!(
                        "worker {} peaks at {} bytes, more than 2x the {} byte \
                         per-worker average",
                        hot.worker, hot.peak_bytes, avg
                    ),
                )
                .with_suggestion("rebalance the clustering or lower the worker count"),
            );
        }
    }
    (estimate, diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_ir::{DType, GraphBuilder, OpKind};

    /// x(24B) → Relu → Neg → Sqrt → output; every intermediate is 24 bytes.
    fn chain() -> Graph {
        let mut b = GraphBuilder::new("m");
        let x = b.input("x", DType::F32, vec![2, 3]);
        let r = b.op("r", OpKind::Relu, vec![x]);
        let n = b.op("n", OpKind::Neg, vec![r]);
        let a = b.op("a", OpKind::Sqrt, vec![n]);
        b.output(&a);
        b.finish().unwrap()
    }

    #[test]
    fn in_order_chain_peaks_at_two_live_values() {
        let g = chain();
        let view = ScheduleView::single_batch(vec![vec![0, 1, 2]], ExecPolicy::InOrder);
        let (est, diags) = estimate_memory(&g, &g.adjacency(), &view);
        assert!(diags.is_empty(), "{diags:?}");
        // at each step the producing op's input and output coexist: 48 bytes
        assert_eq!(est.peak_bytes, 48);
        assert!(est.exact);
        assert_eq!(est.per_worker[0].resident_bytes, 72);
    }

    #[test]
    fn first_ready_falls_back_to_sum_bound() {
        let g = chain();
        let view = ScheduleView::single_batch(vec![vec![0, 1, 2]], ExecPolicy::FirstReady);
        let (est, _) = estimate_memory(&g, &g.adjacency(), &view);
        assert_eq!(est.peak_bytes, 72);
        assert!(!est.exact);
    }

    #[test]
    fn received_values_are_charged_on_the_consumer() {
        let g = chain();
        let view = ScheduleView::single_batch(vec![vec![0], vec![1, 2]], ExecPolicy::InOrder);
        let (est, _) = estimate_memory(&g, &g.adjacency(), &view);
        // worker 0: relu out lives alone (input x is never charged)
        assert_eq!(est.per_worker[0].peak_bytes, 24);
        // worker 1: received relu + neg out coexist at step 0
        assert_eq!(est.per_worker[1].peak_bytes, 48);
    }

    #[test]
    fn hotspot_is_flagged() {
        // worker 0 runs the whole chain, worker 1 runs nothing
        let g = chain();
        let view =
            ScheduleView::single_batch(vec![vec![0, 1, 2], vec![], vec![]], ExecPolicy::InOrder);
        let (_, diags) = estimate_memory(&g, &g.adjacency(), &view);
        assert!(diags.iter().any(|d| d.code == codes::MEM_HOTSPOT));
    }
}
