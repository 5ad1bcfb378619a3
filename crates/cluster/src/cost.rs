//! Operator cost models.
//!
//! The paper prices nodes with *static weights*: "heavy DL operations like
//! Conv, Matmul etc. having higher cost than simpler ones. Also a Conv using
//! a bigger kernel of size 7×7 or 5×5 is assigned a higher cost compared to
//! those of size 3×3 or 1×1. Elementwise operations like Relu are assigned a
//! cost of 1." Each graph edge additionally costs 1 when computing the
//! critical path, modelling tensor-dependence overhead.
//!
//! [`StaticCost`] reproduces that scheme. [`FlopCost`] is a shape-aware
//! refinement (FLOPs scaled to the same unit system) used by the discrete-
//! event simulator and the ablation benches; it needs `value_info` to be
//! populated by shape inference.

use ramiel_ir::{Graph, Node, OpKind};
use std::collections::HashMap;

/// Prices a node and an edge. Costs are `u64` "work units".
pub trait CostModel: Sync {
    /// Weighted cost of executing `node` within `graph`.
    fn node_cost(&self, graph: &Graph, node: &Node) -> u64;

    /// Cost added per dependence edge on the critical path (the paper uses 1).
    ///
    /// This prices *scheduling* overhead — enqueueing, waking the consumer,
    /// cache effects of the handoff — not byte transfer: the runtime's
    /// channel sends move Arc-shared buffers (a header copy, independent of
    /// tensor size), so a size-proportional edge cost would model a
    /// serializing transport this runtime doesn't have.
    fn edge_cost(&self) -> u64 {
        1
    }

    /// Total weighted cost of all nodes (the paper's `Wt.Cost of Nodes`).
    fn total_cost(&self, graph: &Graph) -> u64 {
        graph.nodes.iter().map(|n| self.node_cost(graph, n)).sum()
    }
}

/// The paper's static per-operator weights.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticCost;

impl CostModel for StaticCost {
    fn node_cost(&self, _graph: &Graph, node: &Node) -> u64 {
        match &node.op {
            OpKind::Conv { kernel, .. } => match kernel.0.max(kernel.1) {
                0..=1 => 4,
                2..=3 => 8,
                4..=5 => 14,
                _ => 24,
            },
            // Transformer-scale matrix products dominate everything else in
            // the graphs that carry them (BERT's per-node cost in the
            // paper's Table I averages ≈22 units).
            OpKind::MatMul | OpKind::Gemm { .. } => 40,
            OpKind::MaxPool(_) | OpKind::AveragePool(_) | OpKind::GlobalAveragePool => 2,
            OpKind::BatchNorm { .. }
            | OpKind::LayerNorm { .. }
            | OpKind::Softmax { .. }
            | OpKind::ReduceMean { .. } => 2,
            OpKind::Resize { .. } => 2,
            op if op.is_elementwise() => 1,
            op if op.is_shape_op() => 1,
            _ => 1,
        }
    }
}

/// Shape-aware FLOP-derived cost (1 unit ≈ 250k FLOPs, floor 1), used by the
/// schedule simulator so that simulated makespans track real kernel times.
#[derive(Debug, Clone, Copy)]
pub struct FlopCost {
    /// FLOPs per cost unit.
    pub flops_per_unit: f64,
}

impl Default for FlopCost {
    fn default() -> Self {
        FlopCost {
            flops_per_unit: 250_000.0,
        }
    }
}

impl FlopCost {
    /// Approximate FLOPs of a node (0 for pure data movement).
    pub fn flops(&self, graph: &Graph, node: &Node) -> f64 {
        let out_numel = |i: usize| -> f64 {
            node.outputs
                .get(i)
                .and_then(|t| graph.value_info.get(t))
                .map(|v| v.numel() as f64)
                .unwrap_or(0.0)
        };
        let in_numel = |i: usize| -> f64 {
            node.inputs
                .get(i)
                .and_then(|t| graph.tensor_info(t))
                .map(|v| v.numel() as f64)
                .unwrap_or(0.0)
        };
        match &node.op {
            OpKind::Conv { kernel, groups, .. } => {
                // 2 · out_elems · (C/g) · kh · kw
                let cin = node
                    .inputs
                    .first()
                    .and_then(|t| graph.tensor_info(t))
                    .and_then(|v| v.shape.get(1).copied())
                    .unwrap_or(1) as f64;
                2.0 * out_numel(0) * (cin / *groups as f64) * (kernel.0 * kernel.1) as f64
            }
            OpKind::MatMul => {
                // 2 · out_elems · k
                let k = node
                    .inputs
                    .first()
                    .and_then(|t| graph.tensor_info(t))
                    .and_then(|v| v.shape.last().copied())
                    .unwrap_or(1) as f64;
                2.0 * out_numel(0) * k
            }
            OpKind::Gemm { .. } => {
                let k = node
                    .inputs
                    .first()
                    .and_then(|t| graph.tensor_info(t))
                    .and_then(|v| v.shape.last().copied())
                    .unwrap_or(1) as f64;
                2.0 * out_numel(0) * k
            }
            OpKind::MaxPool(p) | OpKind::AveragePool(p) => {
                out_numel(0) * (p.kernel.0 * p.kernel.1) as f64
            }
            OpKind::GlobalAveragePool => in_numel(0),
            OpKind::BatchNorm { .. } => 2.0 * in_numel(0),
            OpKind::LayerNorm { .. } => 8.0 * in_numel(0),
            OpKind::Softmax { .. } => 5.0 * in_numel(0),
            OpKind::ReduceMean { .. } => in_numel(0),
            op if op.is_elementwise() => in_numel(0),
            op if op.is_shape_op() => in_numel(0) * 0.25, // copy traffic
            _ => in_numel(0),
        }
    }
}

impl CostModel for FlopCost {
    fn node_cost(&self, graph: &Graph, node: &Node) -> u64 {
        (self.flops(graph, node) / self.flops_per_unit)
            .ceil()
            .max(1.0) as u64
    }
}

/// Profile-guided cost model: prices nodes by *measured* execution time
/// instead of static weights or FLOP estimates, closing the paper's Fig. 10
/// loop (run → Profile DB → recluster). Built from per-node nanosecond
/// samples (see `ProfileDb::measured_cost` in ramiel-runtime); nodes the
/// profile never executed fall back to the mean of their op kind, then to
/// [`StaticCost`].
///
/// Nanoseconds are rescaled so the median sampled node costs ~8 units —
/// the same magnitude [`StaticCost`] gives a 3×3 conv — keeping edge costs
/// and merge thresholds meaningful without retuning.
#[derive(Debug, Clone)]
pub struct MeasuredCost {
    /// Cost units per node id; `None` where the profile has no sample.
    per_node: Vec<Option<u64>>,
    /// Mean cost units per op kind, for unsampled nodes.
    per_kind: HashMap<String, u64>,
    /// Nanoseconds represented by one cost unit.
    ns_per_unit: u64,
    fallback: StaticCost,
}

/// Median sampled node is pinned to this many units (≈ StaticCost's 3×3
/// conv), fixing the ns→unit exchange rate.
const MEASURED_MEDIAN_UNITS: u64 = 8;

impl MeasuredCost {
    /// Build from `(node id, mean busy nanoseconds)` samples over `graph`.
    pub fn from_node_ns(graph: &Graph, samples: &[(usize, u64)]) -> MeasuredCost {
        let mut ns_sorted: Vec<u64> = samples.iter().map(|&(_, ns)| ns).collect();
        ns_sorted.sort_unstable();
        let median_ns = ns_sorted.get(ns_sorted.len() / 2).copied().unwrap_or(0);
        let ns_per_unit = (median_ns / MEASURED_MEDIAN_UNITS).max(1);

        let to_units = |ns: u64| -> u64 { (ns / ns_per_unit).max(1) };
        let mut per_node: Vec<Option<u64>> = vec![None; graph.num_nodes()];
        let mut kind_sum: HashMap<String, (u64, u64)> = HashMap::new();
        for &(node, ns) in samples {
            if let Some(n) = graph.nodes.get(node) {
                per_node[node] = Some(to_units(ns));
                let e = kind_sum.entry(n.op.name().to_string()).or_insert((0, 0));
                e.0 += ns;
                e.1 += 1;
            }
        }
        let per_kind = kind_sum
            .into_iter()
            .map(|(k, (sum, cnt))| (k, to_units(sum / cnt.max(1))))
            .collect();
        MeasuredCost {
            per_node,
            per_kind,
            ns_per_unit,
            fallback: StaticCost,
        }
    }

    /// Nanoseconds represented by one cost unit.
    pub fn ns_per_unit(&self) -> u64 {
        self.ns_per_unit
    }

    /// How many nodes carry a direct measurement.
    pub fn sampled_nodes(&self) -> usize {
        self.per_node.iter().filter(|s| s.is_some()).count()
    }
}

impl CostModel for MeasuredCost {
    fn node_cost(&self, graph: &Graph, node: &Node) -> u64 {
        if let Some(Some(units)) = self.per_node.get(node.id) {
            return *units;
        }
        if let Some(units) = self.per_kind.get(node.op.name()) {
            return *units;
        }
        self.fallback.node_cost(graph, node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_ir::{DType, GraphBuilder};

    fn conv_graph() -> Graph {
        let mut b = GraphBuilder::new("c");
        let x = b.input("x", DType::F32, vec![1, 3, 16, 16]);
        let c1 = b.conv(&x, 3, 8, (1, 1), (1, 1), (0, 0), 1);
        let c3 = b.conv(&c1, 8, 8, (3, 3), (1, 1), (1, 1), 1);
        let c5 = b.conv(&c3, 8, 8, (5, 5), (1, 1), (2, 2), 1);
        let c7 = b.conv(&c5, 8, 8, (7, 7), (1, 1), (3, 3), 1);
        let r = b.op("r", ramiel_ir::OpKind::Relu, vec![c7]);
        b.output(&r);
        b.finish().unwrap()
    }

    #[test]
    fn static_cost_ranks_kernels() {
        let g = conv_graph();
        let sc = StaticCost;
        let costs: Vec<u64> = g.nodes.iter().map(|n| sc.node_cost(&g, n)).collect();
        // conv1x1 < conv3x3 < conv5x5 < conv7x7, relu == 1
        assert_eq!(costs, vec![4, 8, 14, 24, 1]);
        assert_eq!(sc.total_cost(&g), 51);
        assert_eq!(sc.edge_cost(), 1);
    }

    #[test]
    fn flop_cost_monotone_in_kernel_size() {
        let g = conv_graph();
        let fc = FlopCost::default();
        let costs: Vec<u64> = g.nodes.iter().map(|n| fc.node_cost(&g, n)).collect();
        assert!(costs[1] > costs[0]);
        assert!(costs[2] > costs[1]);
        assert!(costs[3] > costs[2]);
        assert!(costs[4] >= 1); // elementwise floors at 1
    }

    #[test]
    fn measured_cost_prefers_samples_then_kind_then_static() {
        // nodes: [matmul, matmul, relu, softmax]; sample the first matmul
        // (expensive in this fiction) and the relu.
        let mut b = GraphBuilder::new("mm");
        let x = b.input("x", DType::F32, vec![2, 2]);
        let m1 = b.op("m1", ramiel_ir::OpKind::MatMul, vec![x.clone(), x.clone()]);
        let m2 = b.op("m2", ramiel_ir::OpKind::MatMul, vec![m1, x]);
        let r = b.op("r", ramiel_ir::OpKind::Relu, vec![m2]);
        let s = b.op("s", ramiel_ir::OpKind::Softmax { axis: -1 }, vec![r]);
        b.output(&s);
        let g = b.finish().unwrap();
        let mc = MeasuredCost::from_node_ns(&g, &[(0, 8_000), (2, 1_000)]);
        assert_eq!(mc.ns_per_unit(), 1_000); // median 8000ns pinned to 8 units
        assert_eq!(mc.sampled_nodes(), 2);
        assert_eq!(mc.node_cost(&g, &g.nodes[0]), 8); // direct sample
        assert_eq!(mc.node_cost(&g, &g.nodes[2]), 1); // direct sample
                                                      // unsampled matmul falls back to the MatMul-kind mean (8000ns → 8)
        assert_eq!(mc.node_cost(&g, &g.nodes[1]), 8);
        // a kind the profile never saw falls back to StaticCost
        assert_eq!(mc.node_cost(&g, &g.nodes[3]), 2);
    }

    #[test]
    fn measured_cost_empty_profile_is_static() {
        let g = conv_graph();
        let mc = MeasuredCost::from_node_ns(&g, &[]);
        for n in &g.nodes {
            assert_eq!(mc.node_cost(&g, n), StaticCost.node_cost(&g, n));
        }
    }

    #[test]
    fn flop_cost_conv_formula() {
        let g = conv_graph();
        let fc = FlopCost::default();
        // node 1 is the 3x3 conv: out 1×8×16×16, cin 8, so 2·2048·8·9 FLOPs
        let flops = fc.flops(&g, &g.nodes[1]);
        assert_eq!(flops, 2.0 * 2048.0 * 8.0 * 9.0);
    }
}
