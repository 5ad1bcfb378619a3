//! Static peak-memory estimation: a per-worker sweep over the lifetime
//! intervals of [`crate::lifetime`].
//!
//! Each interval carries the bytes the executors' liveness gauge charges
//! for its value on its worker (zero for a locally produced alias-op or
//! `Constant` output, the full payload otherwise, received values
//! included) and is live over `[def, last_use]`. A step's sample therefore
//! holds the values produced at that step next to the inputs it reads last
//! — which also upper-bounds the in-place path, where the two share one
//! buffer — and a value nothing reads locally lives for its producing
//! step alone.
//!
//! For in-order workers the peak is the maximum running sum of that sweep,
//! exact with respect to the gauge's model. First-ready workers execute in
//! a data-dependent order, so the bound falls back to the sum of all
//! charges (no interleaving can exceed a world where nothing is ever
//! discharged). The whole-schedule peak is the sum of per-worker peaks:
//! the runtime gauge is shared across workers, and the per-worker maxima
//! cannot all be exceeded at once.
//!
//! The view must schedule each instance exactly once (a clean
//! [`crate::coverage`]); [`crate::analyze`] runs this pass only then.

use crate::diag::{codes, Diagnostic, Span};
use crate::lifetime::{lifetimes, Interval};
use crate::schedule::{ExecPolicy, ScheduleView};
use ramiel_ir::graph::Adjacency;
use ramiel_ir::Graph;
use serde::Serialize;

/// Peak-memory estimate for one worker.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerMemory {
    pub worker: usize,
    /// Estimated high-water mark of the worker's liveness gauge.
    pub peak_bytes: u64,
    /// Sum of every charge the worker ever makes (the no-eviction bound).
    pub resident_bytes: u64,
    /// True when `peak_bytes` came from the exact in-order sweep rather
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
    sweep(&lifetimes(graph, adj, view).0.intervals, view)
}

/// [`estimate_memory`] over the intervals [`lifetimes`] computed for `view`.
pub(crate) fn sweep(
    intervals: &[Interval],
    view: &ScheduleView,
) -> (MemoryEstimate, Vec<Diagnostic>) {
    let exact_order = view.policy == ExecPolicy::InOrder;
    // Per worker and step: bytes charged before the step's sample, and
    // bytes discharged after it.
    let mut charge: Vec<Vec<u64>> = view.workers.iter().map(|ops| vec![0; ops.len()]).collect();
    let mut discharge = charge.clone();
    for iv in intervals {
        let last = charge[iv.worker].len() - 1;
        charge[iv.worker][iv.def] += iv.bytes;
        discharge[iv.worker][iv.last_use.clamp(iv.def, last)] += iv.bytes;
    }
    let per_worker: Vec<WorkerMemory> = (charge.iter().zip(&discharge).enumerate())
        .map(|(w, (adds, drops))| {
            let (mut cur, mut peak) = (0u64, 0u64);
            for (add, drop) in adds.iter().zip(drops) {
                cur += add;
                peak = peak.max(cur);
                cur -= drop;
            }
            let resident: u64 = adds.iter().sum();
            WorkerMemory {
                worker: w,
                peak_bytes: if exact_order { peak } else { resident },
                resident_bytes: resident,
                exact: exact_order,
                ops: adds.len(),
            }
        })
        .collect();

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
    use ramiel_ir::{DType, GraphBuilder, OpKind, TensorData};

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

    /// The sweep's edge rules on two workers. `x` is a graph input and
    /// `spec` an initializer, neither charged; `o` is 48 bytes (twelve f32),
    /// every other activation 24 (six f32).
    ///
    /// ```text
    /// worker 0: 0 k = Constant          k [0, 0]  0 B, reads of k free
    ///           1 a = Add(x, k)         a [1, 3] 24 B
    ///           2 d = Neg(a)            d [2, 2] 24 B: dead, its own step
    ///           3 s = Reshape(a, spec)  s [3, 4]  0 B: a local view
    ///           4 o = Concat(s, s)      o [4, 5] 48 B: graph output, pinned
    /// worker 1: 0 t = Sigmoid(o)        o [0, 0] 48 B received, t [0, 1] 48 B
    /// ```
    ///
    /// In order, worker 0 holds 0, 24, 48 (a + d), 24 (a + s), 48 (s + o)
    /// bytes at steps 0–4: peak 48 of 96 charged (72 at step 4 if `d`
    /// stayed, 72 at step 3 if `s` were charged). Worker 1 holds the
    /// received `o` and `t` together: peak 96 of 96. First-ready peaks are
    /// the charge sums, 96 and 96.
    #[test]
    fn sweep_charges_views_constants_received_and_dead_values() {
        let mut b = GraphBuilder::new("edges");
        let x = b.input("x", DType::F32, vec![2, 3]);
        let k = b.op("k", OpKind::Constant, vec![]);
        b.graph_mut()
            .initializers
            .insert(k.clone(), TensorData::f32(vec![2, 3], vec![1.0; 6]));
        let a = b.op("a", OpKind::Add, vec![x, k]);
        let spec = b.init("spec", TensorData::vec_i64(vec![-1]));
        let s = b.op("s", OpKind::Reshape, vec![a.clone(), spec]);
        let o = b.op("o", OpKind::Concat { axis: 0 }, vec![s.clone(), s]);
        let _dead = b.op("d", OpKind::Neg, vec![a]);
        let t = b.op("t", OpKind::Sigmoid, vec![o.clone()]);
        b.output(&o);
        b.output(&t);
        let g = b.finish().unwrap();
        let workers = vec![vec![0, 1, 4, 2, 3], vec![5]];
        for (policy, w0_peak) in [(ExecPolicy::InOrder, 48), (ExecPolicy::FirstReady, 96)] {
            let view = ScheduleView::single_batch(workers.clone(), policy);
            let (est, diags) = estimate_memory(&g, &g.adjacency(), &view);
            assert!(diags.is_empty(), "{diags:?}");
            let got: Vec<(u64, u64)> = (est.per_worker.iter())
                .map(|m| (m.peak_bytes, m.resident_bytes))
                .collect();
            assert_eq!(got, [(w0_peak, 96), (96, 96)], "{policy:?}");
            assert_eq!(est.peak_bytes, w0_peak + 96);
        }
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
