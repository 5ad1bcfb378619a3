//! Activation-memory planning: peak working-set analysis of sequential and
//! clustered schedules.
//!
//! The paper motivates Ramiel with "power and resource-constrained edge
//! devices"; the flip side of task parallelism there is memory — every
//! cross-cluster tensor exists twice (producer copy + consumer copy), and
//! concurrently-live branches hold their activations simultaneously. This
//! module quantifies that: it walks a schedule (topological order for the
//! sequential case, the simulator timeline for clustered schedules) with
//! reference-counted tensor lifetimes and reports the peak.

use crate::sim::{simulate_hyper, SimConfig};
use crate::Result;
use ramiel_cluster::cost::CostModel;
use ramiel_cluster::hyper::HyperClustering;
use ramiel_cluster::Clustering;
use ramiel_ir::topo::topo_sort;
use ramiel_ir::{DType, Graph};
use serde::Serialize;
use std::collections::HashMap;

/// Memory analysis of one schedule.
#[derive(Debug, Clone, Serialize)]
pub struct MemoryReport {
    /// Bytes held by weights/constants for the whole run (always resident).
    pub static_bytes: usize,
    /// Peak bytes of live activations (inputs + intermediate tensors).
    pub peak_activation_bytes: usize,
    /// Total activation bytes allocated over the run (turnover).
    pub total_allocated_bytes: usize,
}

impl MemoryReport {
    /// Peak including the always-resident weights.
    pub fn peak_total_bytes(&self) -> usize {
        self.static_bytes + self.peak_activation_bytes
    }
}

fn dtype_bytes(d: DType) -> usize {
    match d {
        DType::F32 => 4,
        DType::I64 => 8,
        DType::Bool => 1,
    }
}

/// Size in bytes of a (shape-inferred) tensor; 0 when unknown.
pub fn tensor_bytes(graph: &Graph, tensor: &str) -> usize {
    graph
        .tensor_info(tensor)
        .map(|i| i.numel().saturating_mul(dtype_bytes(i.dtype)))
        .unwrap_or(0)
}

fn static_bytes(graph: &Graph) -> usize {
    graph
        .initializers
        .values()
        .map(|t| t.numel().saturating_mul(dtype_bytes(t.dtype())))
        .fold(0, usize::saturating_add)
}

/// Shared walker: feed it node executions in schedule order; it refcounts
/// tensor instances and tracks the live-byte peak.
struct Walker<'g> {
    graph: &'g Graph,
    /// (tensor, batch) → remaining consumer count.
    refcount: HashMap<(String, usize), usize>,
    live: usize,
    peak: usize,
    total: usize,
}

impl<'g> Walker<'g> {
    fn new(graph: &'g Graph, batch: usize) -> Self {
        let adj = graph.adjacency();
        let mut refcount = HashMap::new();
        // graph outputs are pinned until the end (consumer count +1)
        for b in 0..batch {
            for n in &graph.nodes {
                for out in &n.outputs {
                    let consumers = adj.consumers_of.get(out).map(<[_]>::len).unwrap_or(0);
                    let pinned = graph.outputs.contains(out) as usize;
                    refcount.insert((out.clone(), b), consumers + pinned);
                }
            }
            for inp in &graph.inputs {
                let consumers = adj.consumers_of.get(&inp.name).map(<[_]>::len).unwrap_or(0);
                refcount.insert((inp.name.clone(), b), consumers);
            }
        }
        // model inputs are live from the start
        let mut w = Walker {
            graph,
            refcount,
            live: 0,
            peak: 0,
            total: 0,
        };
        for b in 0..batch {
            for inp in &graph.inputs.to_vec() {
                w.alloc(&inp.name, b);
            }
        }
        w
    }

    fn alloc(&mut self, tensor: &str, _batch: usize) {
        let bytes = tensor_bytes(self.graph, tensor);
        self.live += bytes;
        self.total += bytes;
        self.peak = self.peak.max(self.live);
    }

    fn release(&mut self, tensor: &str, batch: usize) {
        if let Some(rc) = self.refcount.get_mut(&(tensor.to_string(), batch)) {
            if *rc > 0 {
                *rc -= 1;
            }
            if *rc == 0 {
                self.live = self.live.saturating_sub(tensor_bytes(self.graph, tensor));
            }
        }
    }

    /// Execute one node for one batch element.
    fn exec(&mut self, node: usize, batch: usize) {
        let node = &self.graph.nodes[node];
        for out in &node.outputs {
            self.alloc(out, batch);
        }
        for inp in node.inputs.clone() {
            if !self.graph.is_initializer(&inp) {
                self.release(&inp, batch);
            }
        }
    }

    fn finish(self) -> MemoryReport {
        MemoryReport {
            static_bytes: static_bytes(self.graph),
            peak_activation_bytes: self.peak,
            total_allocated_bytes: self.total,
        }
    }
}

/// Peak memory of the sequential (topological-order) schedule.
pub fn sequential_peak_memory(graph: &Graph) -> MemoryReport {
    let order = topo_sort(graph).expect("acyclic graph required");
    let mut w = Walker::new(graph, 1);
    for n in order {
        w.exec(n, 0);
    }
    w.finish()
}

/// Peak memory of a clustered schedule, using the simulator's timeline as
/// the interleaving. Cross-cluster copies are charged by counting a remote
/// tensor once per consuming cluster (the message payload).
pub fn clustering_peak_memory(
    graph: &Graph,
    clustering: &Clustering,
    cost: &dyn CostModel,
    cfg: &SimConfig,
) -> Result<MemoryReport> {
    let hc = ramiel_cluster::hypercluster(clustering, 1);
    hyper_peak_memory(graph, &hc, cost, cfg)
}

/// Peak memory of a hyperclustered schedule: a time-sweep over the
/// simulator's timeline. Each tensor instance is live from its producer's
/// finish until its last consumer finishes; every *remote* consuming
/// cluster additionally holds a message copy for the same window (the
/// paper's `queue.put`/`get` payload sitting in the consumer process).
pub fn hyper_peak_memory(
    graph: &Graph,
    hc: &HyperClustering,
    cost: &dyn CostModel,
    cfg: &SimConfig,
) -> Result<MemoryReport> {
    let sim = simulate_hyper(graph, hc, cost, cfg)?;
    let adj = graph.adjacency();
    let assign: HashMap<(usize, usize), usize> = hc
        .hyperclusters
        .iter()
        .enumerate()
        .flat_map(|(wk, ops)| ops.iter().map(move |op| ((op.batch, op.node), wk)))
        .collect();
    // finish time per (batch, node)
    let mut finish: HashMap<(usize, usize), u64> = HashMap::new();
    for ev in &sim.timeline {
        finish.insert((ev.batch, ev.node), ev.end);
    }
    let horizon = sim.makespan + 1;

    // (time, delta-bytes); allocations sort before releases at equal time
    // (conservative peak).
    let mut deltas: Vec<(u64, bool, i64)> = Vec::new();
    let mut total: usize = 0;
    let mut add_window = |alloc_t: u64, release_t: u64, bytes: usize, total: &mut usize| {
        if bytes == 0 {
            return;
        }
        *total += bytes;
        deltas.push((alloc_t, false, bytes as i64));
        deltas.push((release_t.max(alloc_t), true, -(bytes as i64)));
    };

    for b in 0..hc.batch {
        // model inputs: live from t=0 until their last consumer
        for inp in &graph.inputs {
            let last = adj
                .consumers_of
                .get(&inp.name)
                .map(|cons| {
                    cons.iter()
                        .filter_map(|&c| finish.get(&(b, c)).copied())
                        .max()
                        .unwrap_or(horizon)
                })
                .unwrap_or(0);
            add_window(0, last, tensor_bytes(graph, &inp.name), &mut total);
        }
        for node in &graph.nodes {
            let Some(&produced) = finish.get(&(b, node.id)) else {
                continue;
            };
            let home = assign.get(&(b, node.id)).copied();
            for out in &node.outputs {
                let bytes = tensor_bytes(graph, out);
                let consumers = adj.consumers_of.get(out);
                // base copy in the producing cluster
                let mut base_release = consumers
                    .map(|cons| {
                        cons.iter()
                            .filter_map(|&c| finish.get(&(b, c)).copied())
                            .max()
                            .unwrap_or(produced)
                    })
                    .unwrap_or(produced);
                if graph.outputs.contains(out) {
                    base_release = horizon; // pinned until the run ends
                }
                add_window(produced, base_release, bytes, &mut total);
                // message copies, one per remote consuming cluster, released
                // when that cluster's last consumer of the tensor finishes
                let mut per_cluster: HashMap<usize, u64> = HashMap::new();
                if let Some(cons) = consumers {
                    for &c in cons {
                        if let (Some(&wk), Some(&f)) = (assign.get(&(b, c)), finish.get(&(b, c))) {
                            if Some(wk) != home {
                                let e = per_cluster.entry(wk).or_insert(0);
                                *e = (*e).max(f);
                            }
                        }
                    }
                }
                for (_, release) in per_cluster {
                    add_window(produced, release, bytes, &mut total);
                }
            }
        }
    }

    deltas.sort_by_key(|&(t, is_release, _)| (t, is_release));
    let mut live: i64 = 0;
    let mut peak: i64 = 0;
    for (_, _, d) in deltas {
        live += d;
        peak = peak.max(live);
    }
    Ok(MemoryReport {
        static_bytes: static_bytes(graph),
        peak_activation_bytes: peak.max(0) as usize,
        total_allocated_bytes: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_cluster::{cluster_graph, StaticCost};
    use ramiel_ir::{DType, GraphBuilder, OpKind};
    use ramiel_models::synthetic;

    #[test]
    fn chain_peak_is_two_tensors() {
        // x(64 f32) → relu → relu → relu: peak = input + one output
        let g = synthetic::chain(3);
        let rep = sequential_peak_memory(&g);
        assert_eq!(rep.peak_activation_bytes, 2 * 64 * 4);
        assert_eq!(rep.total_allocated_bytes, 4 * 64 * 4); // input + 3 outputs
        assert_eq!(rep.static_bytes, 0);
    }

    #[test]
    fn fork_holds_branches_simultaneously() {
        let g = synthetic::fork_join(4, 1, 1);
        let seq = sequential_peak_memory(&g);
        // root output + up to 4 branch outputs live together
        assert!(seq.peak_activation_bytes >= 3 * 64 * 4);
    }

    #[test]
    fn weights_count_as_static() {
        let mut b = GraphBuilder::new("w");
        let x = b.input("x", DType::F32, vec![1, 2, 4, 4]);
        let y = b.conv(&x, 2, 2, (1, 1), (1, 1), (0, 0), 1);
        b.output(&y);
        let g = b.finish().unwrap();
        let rep = sequential_peak_memory(&g);
        // weight 2·2·1·1 + bias 2 = 6 floats
        assert_eq!(rep.static_bytes, 6 * 4);
        assert!(rep.peak_total_bytes() > rep.peak_activation_bytes);
    }

    #[test]
    fn parallel_schedule_needs_at_least_sequential_peak() {
        for seed in 0..5u64 {
            let g = synthetic::layered_random(seed, 6, 4, 2);
            let clustering = cluster_graph(&g, &StaticCost);
            let seq = sequential_peak_memory(&g);
            let par = clustering_peak_memory(&g, &clustering, &StaticCost, &SimConfig::default())
                .unwrap();
            assert!(
                par.peak_activation_bytes + 64 * 4 >= seq.peak_activation_bytes,
                "seed {seed}: par {} vs seq {}",
                par.peak_activation_bytes,
                seq.peak_activation_bytes
            );
            assert_eq!(par.static_bytes, seq.static_bytes);
        }
    }

    #[test]
    fn graph_outputs_stay_live() {
        // output tensor is pinned, so the final live set is non-zero
        let mut b = GraphBuilder::new("p");
        let x = b.input("x", DType::F32, vec![16]);
        let y = b.op("r", OpKind::Relu, vec![x]);
        b.output(&y);
        let g = b.finish().unwrap();
        let rep = sequential_peak_memory(&g);
        // both input and output live at once at the execution instant
        assert_eq!(rep.peak_activation_bytes, 2 * 16 * 4);
    }

    #[test]
    fn batched_hyper_memory_scales_with_batch() {
        let g = synthetic::fork_join(2, 3, 2);
        let clustering = cluster_graph(&g, &StaticCost);
        let b1 = hyper_peak_memory(
            &g,
            &ramiel_cluster::hypercluster(&clustering, 1),
            &StaticCost,
            &SimConfig::default(),
        )
        .unwrap();
        let b4 = hyper_peak_memory(
            &g,
            &ramiel_cluster::hypercluster(&clustering, 4),
            &StaticCost,
            &SimConfig::default(),
        )
        .unwrap();
        assert!(b4.peak_activation_bytes > b1.peak_activation_bytes);
        assert!(b4.total_allocated_bytes >= 4 * b1.total_allocated_bytes);
    }
}
