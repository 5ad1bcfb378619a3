//! The paper's *Distance pass*: weighted distance of every node to the end
//! of the graph.
//!
//! `distance_to_end(n)` is the cost of the most expensive path from `n` to
//! any sink, counting node costs plus one `edge_cost` per traversed edge
//! (the paper's tensor-dependence overhead). It is the key potential
//! function: it strictly decreases along every dependence edge, which is
//! what lets merged clusters be replayed in distance order (see
//! [`crate::merge`]).

use crate::cost::CostModel;
use ramiel_ir::graph::Adjacency;
use ramiel_ir::topo::topo_sort_with;
use ramiel_ir::Graph;

/// Distance from each node to the end of the graph (indexed by node id).
pub fn distance_to_end(graph: &Graph, cost: &dyn CostModel) -> Vec<u64> {
    distance_to_end_with(graph, &graph.adjacency(), cost)
}

/// [`distance_to_end`] over an adjacency snapshot the caller already holds.
pub fn distance_to_end_with(graph: &Graph, adj: &Adjacency<'_>, cost: &dyn CostModel) -> Vec<u64> {
    let order = topo_sort_with(graph, adj).expect("distance pass requires an acyclic graph");
    let mut dist = vec![0u64; graph.num_nodes()];
    for &u in order.iter().rev() {
        let own = cost.node_cost(graph, &graph.nodes[u]);
        let best_succ = adj.succs[u]
            .iter()
            .map(|&v| dist[v] + cost.edge_cost())
            .max()
            .unwrap_or(0);
        dist[u] = own + best_succ;
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::StaticCost;
    use ramiel_ir::{DType, GraphBuilder, OpKind};

    #[test]
    fn chain_distances_accumulate_with_edge_costs() {
        let mut b = GraphBuilder::new("chain");
        let x = b.input("x", DType::F32, vec![4]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let c = b.op("b", OpKind::Relu, vec![a]);
        let d = b.op("c", OpKind::Relu, vec![c]);
        b.output(&d);
        let g = b.finish().unwrap();
        let dist = distance_to_end(&g, &StaticCost);
        // sink: 1; middle: 1 + 1(edge) + 1; head: 1 + 1 + 3
        assert_eq!(dist, vec![5, 3, 1]);
    }

    #[test]
    fn fork_takes_the_heavier_branch() {
        let mut b = GraphBuilder::new("fork");
        let x = b.input("x", DType::F32, vec![1, 4, 8, 8]);
        let root = b.op("root", OpKind::Relu, vec![x]);
        // light branch: relu ; heavy branch: 3x3 conv (cost 8)
        let light = b.op("light", OpKind::Relu, vec![root.clone()]);
        let heavy = b.conv(&root, 4, 4, (3, 3), (1, 1), (1, 1), 1);
        let join = b.op("join", OpKind::Add, vec![light, heavy]);
        b.output(&join);
        let g = b.finish().unwrap();
        let dist = distance_to_end(&g, &StaticCost);
        let root_id = 0;
        let light_id = 1;
        let heavy_id = 2;
        let join_id = 3;
        assert_eq!(dist[join_id], 1);
        assert_eq!(dist[light_id], 1 + 1 + 1);
        assert_eq!(dist[heavy_id], 8 + 1 + 1);
        // root goes through the conv branch
        assert_eq!(dist[root_id], 1 + 1 + dist[heavy_id]);
    }

    #[test]
    fn distance_strictly_decreases_along_edges() {
        let mut b = GraphBuilder::new("mix");
        let x = b.input("x", DType::F32, vec![1, 3, 8, 8]);
        let c1 = b.conv_relu(&x, 3, 4, 3, 1, 1);
        let c2 = b.conv_relu(&c1, 4, 4, 1, 1, 0);
        let cat = b.op("cat", OpKind::Concat { axis: 1 }, vec![c1.clone(), c2]);
        b.output(&cat);
        let g = b.finish().unwrap();
        let dist = distance_to_end(&g, &StaticCost);
        let adj = g.adjacency();
        for u in 0..g.num_nodes() {
            for &v in &adj.succs[u] {
                assert!(dist[u] > dist[v], "distance must decrease along {u}->{v}");
            }
        }
    }
}
