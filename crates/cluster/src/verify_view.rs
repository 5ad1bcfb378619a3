//! Conversions from this crate's clustering types to the verifier's
//! [`ScheduleView`]. They live here (not in `ramiel-verify`) so the verifier
//! can stay a leaf crate that this one is allowed to call back into as a
//! debug-assertion harness.
//!
//! Policy mapping:
//! - [`Clustering`] and *plain* [`HyperClustering`] replay strictly in
//!   order (clusters are kept in decreasing distance-to-end order, and the
//!   plain batch interleave preserves that monotonicity), so they get
//!   [`ExecPolicy::InOrder`] — the stricter check.
//! - *Switched* hyperclusters interleave ops from different source clusters,
//!   whose positions are not distance-monotone across batches; the runtime
//!   replays them with its message-driven first-ready loop, so they are
//!   verified under [`ExecPolicy::FirstReady`].
//! - The *work-stealing* executor has no static schedule at all: the order
//!   is decided at runtime by readiness and steal order. Its view collapses
//!   to a single first-ready worker holding every op, which keeps the
//!   memory bound sound (resident-sum over all charges) while making the
//!   channel lints vacuously inapplicable — there are no channels.

use crate::hyper::HyperClustering;
use crate::types::Clustering;
use ramiel_ir::Graph;
use ramiel_verify::{ExecPolicy, Op, ScheduleView};

/// Batch-1 in-order view of a clustering.
pub fn clustering_view(c: &Clustering) -> ScheduleView {
    ScheduleView::single_batch(
        c.clusters.iter().map(|cl| cl.nodes.clone()).collect(),
        ExecPolicy::InOrder,
    )
}

/// View of a hyperclustering under the policy the runtime will use.
pub fn hyper_view(hc: &HyperClustering) -> ScheduleView {
    ScheduleView {
        batch: hc.batch.max(1),
        workers: hc
            .hyperclusters
            .iter()
            .map(|h| {
                h.iter()
                    .map(|op| Op {
                        batch: op.batch,
                        node: op.node,
                    })
                    .collect()
            })
            .collect(),
        policy: if hc.switched && hc.batch > 1 {
            ExecPolicy::FirstReady
        } else {
            ExecPolicy::InOrder
        },
    }
}

/// View of a work-stealing run over `graph` at `batch`: one first-ready
/// worker holding every (batch, node) op. Work stealing schedules nothing
/// statically — any ready task may run on any worker in any steal order —
/// so this is deliberately an *estimate-only* view: the memory estimator's
/// first-ready path degrades to the resident-sum bound (sound for every
/// interleaving, `exact == false`), and the channel lints (RV0401 replay,
/// RA0401 capacity) see no cross-worker edges, because the executor has none.
pub fn stealing_view(graph: &Graph, batch: usize) -> ScheduleView {
    let batch = batch.max(1);
    ScheduleView {
        batch,
        workers: vec![(0..batch)
            .flat_map(|b| (0..graph.nodes.len()).map(move |n| Op { batch: b, node: n }))
            .collect()],
        policy: ExecPolicy::FirstReady,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyper::{hypercluster, switched_hypercluster};
    use crate::types::Cluster;

    fn clustering() -> Clustering {
        Clustering::new(vec![Cluster::new(vec![0, 1, 2]), Cluster::new(vec![3])])
    }

    #[test]
    fn clustering_view_is_in_order_batch1() {
        let v = clustering_view(&clustering());
        assert_eq!(v.batch, 1);
        assert_eq!(v.policy, ExecPolicy::InOrder);
        assert_eq!(v.workers[0].len(), 3);
        assert_eq!(v.workers[1][0], Op { batch: 0, node: 3 });
    }

    #[test]
    fn hyper_views_pick_the_runtime_policy() {
        let c = clustering();
        let plain = hyper_view(&hypercluster(&c, 4));
        assert_eq!(plain.policy, ExecPolicy::InOrder);
        assert_eq!(plain.batch, 4);
        assert_eq!(plain.num_ops(), 16);
        let switched = hyper_view(&switched_hypercluster(&c, 4));
        assert_eq!(switched.policy, ExecPolicy::FirstReady);
        // switched with batch 1 degenerates to the plain clustering
        let s1 = hyper_view(&switched_hypercluster(&c, 1));
        assert_eq!(s1.policy, ExecPolicy::InOrder);
    }
}
