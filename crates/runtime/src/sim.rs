//! Deterministic discrete-event simulator for clustered schedules.
//!
//! Executes a (hyper)clustering against a [`CostModel`] instead of real
//! kernels: every op takes `node_cost` time units on its worker, and every
//! cross-worker dependence adds `comm_latency` units (the paper's unit edge
//! cost). Workers follow the same first-ready-first policy as the real
//! executor. The simulator makes all of the paper's tables reproducible
//! bit-for-bit, independent of host timing noise, and reports the same
//! slack statistics the profiler measures.

use crate::{Result, RuntimeError};
use ramiel_cluster::cost::CostModel;
use ramiel_cluster::hyper::{HyperClustering, HyperOp};
use ramiel_cluster::Clustering;
use ramiel_ir::Graph;
use serde::Serialize;
use std::collections::HashMap;

/// Simulator knobs.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Latency added to each cross-worker dependence (paper: 1).
    pub comm_latency: u64,
    /// Fixed per-op scheduling overhead (models interpreter dispatch; 0 by
    /// default).
    pub dispatch_overhead: u64,
}

impl SimConfig {
    /// The setting the paper tables, their tests and the `simulate` and
    /// `profile` verbs simulate under. A communication latency of 8 cost
    /// units reflects the paper's observation that Python-process queues
    /// are expensive relative to small ops (it is what pushes SqueezeNet
    /// below 1×, as in Table IV).
    pub const PAPER: SimConfig = SimConfig {
        comm_latency: 8,
        dispatch_overhead: 0,
    };
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            comm_latency: 1,
            dispatch_overhead: 0,
        }
    }
}

/// One simulated op execution.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SimEvent {
    pub start: u64,
    pub end: u64,
    pub worker: usize,
    pub batch: usize,
    pub node: usize,
}

/// Result of simulating one schedule.
#[derive(Debug, Clone, Serialize)]
pub struct SimResult {
    /// Total simulated time until the last op finishes.
    pub makespan: u64,
    /// Busy time per worker.
    pub busy: Vec<u64>,
    /// Idle (slack) time per worker within the makespan.
    pub slack: Vec<u64>,
    /// Every op execution in simulation order (ascending start time).
    pub timeline: Vec<SimEvent>,
}

impl SimResult {
    /// Fraction of total worker-time spent idle.
    pub fn slack_fraction(&self) -> f64 {
        let total: u64 = self.busy.iter().chain(&self.slack).sum();
        if total == 0 {
            return 0.0;
        }
        self.slack.iter().sum::<u64>() as f64 / total as f64
    }
}

/// Simulated time of running the whole graph on one worker (no comm cost).
pub fn simulate_sequential(graph: &Graph, cost: &dyn CostModel, batch: usize) -> u64 {
    cost.total_cost(graph) * batch as u64
}

/// Simulate a batch-1 clustering.
pub fn simulate_clustering(
    graph: &Graph,
    clustering: &Clustering,
    cost: &dyn CostModel,
    cfg: &SimConfig,
) -> Result<SimResult> {
    let hc = ramiel_cluster::hypercluster(clustering, 1);
    simulate_hyper(graph, &hc, cost, cfg)
}

/// Simulate a hyperclustered schedule.
pub fn simulate_hyper(
    graph: &Graph,
    hc: &HyperClustering,
    cost: &dyn CostModel,
    cfg: &SimConfig,
) -> Result<SimResult> {
    let k = hc.num_hyperclusters();
    let adj = graph.adjacency();
    let node_cost: Vec<u64> = graph
        .nodes
        .iter()
        .map(|n| cost.node_cost(graph, n))
        .collect();

    // (batch, node) → worker
    let mut owner: HashMap<(usize, usize), usize> = HashMap::new();
    for (w, ops) in hc.hyperclusters.iter().enumerate() {
        for op in ops {
            owner.insert((op.batch, op.node), w);
        }
    }

    let mut finish: HashMap<(usize, usize), u64> = HashMap::new();
    let mut worker_time = vec![0u64; k];
    let mut busy = vec![0u64; k];
    let mut cursor: Vec<Vec<&HyperOp>> = hc
        .hyperclusters
        .iter()
        .map(|ops| ops.iter().collect())
        .collect();
    let mut remaining: usize = cursor.iter().map(|c| c.len()).sum();
    let mut timeline: Vec<SimEvent> = Vec::with_capacity(remaining);

    while remaining > 0 {
        // Each worker proposes its first dependency-satisfied op.
        let mut best: Option<(u64, usize, usize)> = None; // (start, worker, index)
        for (w, ops) in cursor.iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                let node = &graph.nodes[op.node];
                let mut ready = 0u64;
                let mut ok = true;
                for &p in &adj.preds[node.id] {
                    match finish.get(&(op.batch, p)) {
                        Some(&f) => {
                            let pw = owner[&(op.batch, p)];
                            let arrive = if pw == w { f } else { f + cfg.comm_latency };
                            ready = ready.max(arrive);
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                let start = ready.max(worker_time[w]);
                if best.is_none_or(|(bs, bw, _)| (start, w) < (bs, bw)) {
                    best = Some((start, w, i));
                }
                break; // first-ready-first: only the earliest satisfiable op
            }
        }
        let Some((start, w, i)) = best else {
            return Err(RuntimeError::Setup(
                "simulated schedule deadlocked (no executable op)".into(),
            ));
        };
        let op = cursor[w].remove(i);
        let dur = node_cost[op.node] + cfg.dispatch_overhead;
        let end = start + dur;
        worker_time[w] = end;
        busy[w] += dur;
        finish.insert((op.batch, op.node), end);
        timeline.push(SimEvent {
            start,
            end,
            worker: w,
            batch: op.batch,
            node: op.node,
        });
        remaining -= 1;
    }

    let makespan = *worker_time.iter().max().unwrap_or(&0);
    let slack = busy.iter().map(|&b| makespan.saturating_sub(b)).collect();
    timeline.sort_by_key(|e| (e.start, e.worker));
    Ok(SimResult {
        makespan,
        busy,
        slack,
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_cluster::{cluster_graph, hypercluster, switched_hypercluster, StaticCost};
    use ramiel_models::synthetic;

    #[test]
    fn chain_has_no_parallel_benefit() {
        let g = synthetic::chain(10);
        let clustering = cluster_graph(&g, &StaticCost);
        let sim = simulate_clustering(&g, &clustering, &StaticCost, &SimConfig::default()).unwrap();
        let seq = simulate_sequential(&g, &StaticCost, 1);
        assert_eq!(clustering.num_clusters(), 1);
        assert_eq!(sim.makespan, seq);
        assert_eq!(sim.slack_fraction(), 0.0);
    }

    #[test]
    fn fork_join_speeds_up() {
        let g = synthetic::fork_join(4, 6, 3);
        let clustering = cluster_graph(&g, &StaticCost);
        let sim = simulate_clustering(&g, &clustering, &StaticCost, &SimConfig::default()).unwrap();
        let seq = simulate_sequential(&g, &StaticCost, 1);
        assert!(
            sim.makespan < seq,
            "parallel {} should beat sequential {seq}",
            sim.makespan
        );
    }

    #[test]
    fn comm_latency_hurts_makespan() {
        let g = synthetic::fork_join(4, 4, 2);
        let clustering = cluster_graph(&g, &StaticCost);
        let cheap = simulate_clustering(
            &g,
            &clustering,
            &StaticCost,
            &SimConfig {
                comm_latency: 0,
                dispatch_overhead: 0,
            },
        )
        .unwrap();
        let pricey = simulate_clustering(
            &g,
            &clustering,
            &StaticCost,
            &SimConfig {
                comm_latency: 20,
                dispatch_overhead: 0,
            },
        )
        .unwrap();
        assert!(pricey.makespan >= cheap.makespan);
    }

    #[test]
    fn hyperclustering_amortizes_slack() {
        // unbalanced fork-join: hypercluster batch 4 should have lower
        // per-sample makespan than batch 1 × 4
        let g = synthetic::fork_join(2, 5, 2);
        let clustering = cluster_graph(&g, &StaticCost);
        let cfg = SimConfig {
            comm_latency: 3,
            dispatch_overhead: 0,
        };
        let single = simulate_clustering(&g, &clustering, &StaticCost, &cfg)
            .unwrap()
            .makespan;
        let hc = hypercluster(&clustering, 4);
        let batched = simulate_hyper(&g, &hc, &StaticCost, &cfg).unwrap().makespan;
        assert!(
            batched < 4 * single,
            "batched {batched} should beat 4×{single}"
        );
    }

    #[test]
    fn switched_beats_plain_on_unbalanced_clusters() {
        let g = synthetic::fork_join(2, 8, 1);
        let clustering = cluster_graph(&g, &StaticCost);
        let cfg = SimConfig::default();
        let plain = simulate_hyper(&g, &hypercluster(&clustering, 4), &StaticCost, &cfg).unwrap();
        let switched = simulate_hyper(
            &g,
            &switched_hypercluster(&clustering, 4),
            &StaticCost,
            &cfg,
        )
        .unwrap();
        assert!(
            switched.makespan <= plain.makespan,
            "switched {} vs plain {}",
            switched.makespan,
            plain.makespan
        );
    }

    #[test]
    fn busy_time_equals_total_cost() {
        let g = synthetic::fork_join(3, 3, 2);
        let clustering = cluster_graph(&g, &StaticCost);
        let sim = simulate_clustering(&g, &clustering, &StaticCost, &SimConfig::default()).unwrap();
        assert_eq!(
            sim.busy.iter().sum::<u64>(),
            simulate_sequential(&g, &StaticCost, 1)
        );
    }
}
