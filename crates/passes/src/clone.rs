//! Task cloning (Section III-D, Fig. 7).
//!
//! A node whose output feeds several consumers serializes those consumers
//! behind one producer and — once the graph is clustered — turns into
//! cross-cluster messages. Cloning replicates *cheap* producers so each
//! consumer owns a private copy, trading redundant compute for independence,
//! "usually employed in distributed message-passing scenarios to overcome
//! communication bottlenecks".
//!
//! Matching the paper's restraint ("applied with care and in a limited
//! setting … mostly at the top half of the dataflow graphs"), cloning is
//! bounded three ways: per-node cost ceiling, total graph-growth budget, and
//! an ASAP-level cutoff keeping it in the top fraction of the graph.

use crate::PassReport;
use ramiel_cluster::cost::CostModel;
use ramiel_ir::topo::levels;
use ramiel_ir::{Graph, Result};

/// Limits for the cloning pass.
#[derive(Debug, Clone, Copy)]
pub struct CloneConfig {
    /// Only nodes with static cost ≤ this are cloned.
    pub max_node_cost: u64,
    /// Stop when the graph has grown by this factor.
    pub max_growth: f64,
    /// Only clone nodes in the top `top_fraction` of ASAP levels.
    pub top_fraction: f64,
    /// Sweeps to run: later sweeps clone the *producers* of earlier clones,
    /// replicating whole cheap chains into the consuming side (Fig. 7's
    /// pattern) instead of just shifting the cross edge one hop up.
    pub rounds: usize,
}

impl Default for CloneConfig {
    fn default() -> Self {
        CloneConfig {
            max_node_cost: 8,
            max_growth: 1.5,
            top_fraction: 0.5,
            rounds: 3,
        }
    }
}

/// Clone fan-out nodes within the configured budget (running up to
/// `cfg.rounds` sweeps). Each extra consumer of a cloned node gets a private
/// duplicate (same op, same inputs, fresh output names).
pub fn clone_nodes(
    graph: &mut Graph,
    cost: &dyn CostModel,
    cfg: &CloneConfig,
) -> Result<PassReport> {
    crate::debug_verify(graph, "before clone_nodes");
    let budget = ((graph.num_nodes() as f64) * (cfg.max_growth - 1.0)).floor() as usize;
    let mut total = PassReport::default();
    for _ in 0..cfg.rounds.max(1) {
        let remaining = budget.saturating_sub(total.nodes_added);
        if remaining == 0 {
            break;
        }
        let round = clone_sweep(graph, cost, cfg, remaining)?;
        let done = !round.changed;
        total = total.merge(round);
        if done {
            break;
        }
    }
    if total.changed {
        ramiel_ir::shape::infer_shapes(graph)?;
    }
    crate::debug_verify(graph, "after clone_nodes");
    Ok(total)
}

/// One cloning sweep over the current graph.
fn clone_sweep(
    graph: &mut Graph,
    cost: &dyn CostModel,
    cfg: &CloneConfig,
    budget: usize,
) -> Result<PassReport> {
    let original_nodes = graph.num_nodes();
    let lvl = levels(graph)?;
    let max_level = lvl.iter().copied().max().unwrap_or(0);
    let level_cutoff = ((max_level as f64) * cfg.top_fraction) as usize;

    // Only the successor lists are needed, and they own their data — the
    // graph is mutated below while they are still in use.
    let succs = graph.adjacency().succs;
    // Candidates: cheap, pure, single-output, top-of-graph, fan-out > 1.
    let mut candidates: Vec<usize> = (0..original_nodes)
        .filter(|&id| {
            let node = &graph.nodes[id];
            node.op.is_pure()
                && node.outputs.len() == 1
                && succs[id].len() > 1
                && cost.node_cost(graph, node) <= cfg.max_node_cost
                && lvl[id] <= level_cutoff
        })
        .collect();
    // Clone shallow (cheap-to-recompute) nodes first.
    candidates.sort_by_key(|&id| (lvl[id], id));

    let mut added = 0usize;
    // Seeded from the node count so names stay unique across sweeps.
    let mut clone_idx = graph.num_nodes();
    for id in candidates {
        let node = graph.nodes[id].clone();
        let out = node.outputs[0].clone();
        // Unique consumer node ids beyond the first keep the original.
        for &cons in succs[id].iter().skip(1) {
            if added >= budget {
                break;
            }
            let new_name = format!("{}_clone{}", node.name, clone_idx);
            let new_out = format!("{out}.clone{clone_idx}");
            clone_idx += 1;
            let new_id = graph.push_node(
                new_name,
                node.op.clone(),
                node.inputs.clone(),
                vec![new_out.clone()],
            );
            debug_assert!(new_id >= original_nodes);
            for inp in &mut graph.nodes[cons].inputs {
                if *inp == out {
                    *inp = new_out.clone();
                }
            }
            added += 1;
        }
        if added >= budget {
            break;
        }
    }
    if added == 0 {
        return Ok(PassReport::default());
    }
    Ok(PassReport {
        nodes_removed: 0,
        nodes_added: added,
        changed: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_cluster::StaticCost;
    use ramiel_ir::{DType, GraphBuilder, OpKind};
    use ramiel_runtime::{run_sequential, synth_inputs};
    use ramiel_tensor::ExecCtx;

    fn fanout_graph() -> Graph {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![8]);
        let shared = b.op("shared", OpKind::Relu, vec![x]);
        let a = b.op("a", OpKind::Sigmoid, vec![shared.clone()]);
        let c = b.op("b", OpKind::Tanh, vec![shared.clone()]);
        let d = b.op("c", OpKind::Exp, vec![shared]);
        let j1 = b.op("j1", OpKind::Add, vec![a, c]);
        let j2 = b.op("j2", OpKind::Add, vec![j1, d]);
        b.output(&j2);
        b.finish().unwrap()
    }

    #[test]
    fn clones_fanout_node_per_extra_consumer() {
        let mut g = fanout_graph();
        let before = g.num_nodes();
        let cfg = CloneConfig {
            max_growth: 2.0, // roomy budget so both clones fit
            ..CloneConfig::default()
        };
        let rep = clone_nodes(&mut g, &StaticCost, &cfg).unwrap();
        assert!(rep.changed);
        assert_eq!(rep.nodes_added, 2); // 3 consumers → 2 clones
        assert_eq!(g.num_nodes(), before + 2);
        ramiel_ir::validate::validate(&g).unwrap();
        // fan-out of the original is now 1
        let adj = g.adjacency();
        let shared = g.nodes.iter().find(|n| n.name == "shared_0").unwrap();
        assert_eq!(adj.succs[shared.id].len(), 1);
    }

    #[test]
    fn cloning_preserves_outputs() {
        let g0 = fanout_graph();
        let mut g1 = g0.clone();
        clone_nodes(&mut g1, &StaticCost, &CloneConfig::default()).unwrap();
        let inputs = synth_inputs(&g0, 2);
        let ctx = ExecCtx::sequential();
        assert_eq!(
            run_sequential(&g0, &inputs, &ctx).unwrap(),
            run_sequential(&g1, &inputs, &ctx).unwrap()
        );
    }

    #[test]
    fn expensive_nodes_are_not_cloned() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![1, 4, 8, 8]);
        let conv = b.conv(&x, 4, 4, (7, 7), (1, 1), (3, 3), 1); // cost 24
        let a = b.op("a", OpKind::Relu, vec![conv.clone()]);
        let c = b.op("b", OpKind::Sigmoid, vec![conv]);
        let j = b.op("j", OpKind::Add, vec![a, c]);
        b.output(&j);
        let mut g = b.finish().unwrap();
        let rep = clone_nodes(&mut g, &StaticCost, &CloneConfig::default()).unwrap();
        assert!(!rep.changed, "7x7 conv exceeds max_node_cost");
    }

    #[test]
    fn growth_budget_is_respected() {
        let mut g = fanout_graph();
        let cfg = CloneConfig {
            max_growth: 1.1, // budget = floor(6 · 0.1) = 0 clones
            ..CloneConfig::default()
        };
        let rep = clone_nodes(&mut g, &StaticCost, &cfg).unwrap();
        assert!(!rep.changed);
    }

    #[test]
    fn bottom_of_graph_left_alone() {
        let mut g = fanout_graph();
        let cfg = CloneConfig {
            top_fraction: 0.0, // only level-0 nodes; `shared` is level 0
            ..CloneConfig::default()
        };
        // level cutoff 0: `shared` is at level 0, so it still clones.
        let rep = clone_nodes(&mut g, &StaticCost, &cfg).unwrap();
        assert!(rep.changed);
    }
}
