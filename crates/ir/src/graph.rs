//! The dataflow graph container and its edge queries.

use crate::error::IrError;
use crate::op::{DType, OpKind};
use crate::tensor_data::TensorData;
use crate::Result;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Index of a node within its [`Graph`]. Stable until a structural rebuild
/// (e.g. [`Graph::retain_nodes`]) reindexes the graph.
pub type NodeId = usize;

/// Static description of a tensor flowing along an edge: name, element type
/// and shape. Shapes in this IR are fully static (the batch dimension is
/// fixed when a model is instantiated), matching the frozen ONNX graphs the
/// paper ingests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorInfo {
    pub name: String,
    pub dtype: DType,
    pub shape: Vec<usize>,
}

impl TensorInfo {
    pub fn new(name: impl Into<String>, dtype: DType, shape: Vec<usize>) -> Self {
        TensorInfo {
            name: name.into(),
            dtype,
            shape,
        }
    }

    /// Total number of elements (saturating: an inferred shape can be
    /// arbitrarily large without any data behind it).
    pub fn numel(&self) -> usize {
        crate::shape::saturating_numel(&self.shape)
    }
}

/// One operator application: `outputs = op(inputs)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Index in [`Graph::nodes`].
    pub id: NodeId,
    /// Human-readable unique name (drives codegen symbol names).
    pub name: String,
    pub op: OpKind,
    /// Names of consumed tensors, in operator-defined order.
    pub inputs: Vec<String>,
    /// Names of produced tensors.
    pub outputs: Vec<String>,
}

/// A directed acyclic dataflow graph over named tensors.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    pub name: String,
    pub nodes: Vec<Node>,
    /// Runtime-supplied tensors (model inputs).
    pub inputs: Vec<TensorInfo>,
    /// Names of the tensors the model returns.
    pub outputs: Vec<String>,
    /// Compile-time constants: weights, biases, shape vectors.
    /// A `BTreeMap` keeps iteration deterministic across runs.
    pub initializers: BTreeMap<String, TensorData>,
    /// Inferred tensor descriptions (filled by `shape::infer_shapes`).
    pub value_info: BTreeMap<String, TensorInfo>,
}

/// A tensor-name-keyed table whose keys borrow from the graph's nodes
/// instead of cloning one `String` per tensor use. Lookups accept anything
/// string-like — the `&String` of a node's input list as well as a `&str`.
#[derive(Debug, Clone)]
pub struct NameMap<'g, V>(HashMap<&'g str, V>);

impl<V> NameMap<'_, V> {
    pub fn get(&self, tensor: impl AsRef<str>) -> Option<&V> {
        self.0.get(tensor.as_ref())
    }

    pub fn contains_key(&self, tensor: impl AsRef<str>) -> bool {
        self.0.contains_key(tensor.as_ref())
    }
}

impl<V> std::ops::Index<&str> for NameMap<'_, V> {
    type Output = V;

    fn index(&self, tensor: &str) -> &V {
        &self.0[tensor]
    }
}

/// Precomputed adjacency for a graph snapshot. Build once per pass with
/// [`Graph::adjacency`] and hand it down: the tensor-name keys borrow from
/// the graph's nodes, so the snapshot cannot outlive (or survive a mutation
/// of) the structure it describes.
#[derive(Debug, Clone)]
pub struct Adjacency<'g> {
    /// Tensor name → producing node.
    pub producer_of: NameMap<'g, NodeId>,
    /// Tensor name → consuming nodes (in node order, may repeat if a node
    /// consumes the same tensor twice).
    pub consumers_of: NameMap<'g, Vec<NodeId>>,
    /// Unique predecessor node ids per node.
    pub preds: Vec<Vec<NodeId>>,
    /// Unique successor node ids per node.
    pub succs: Vec<Vec<NodeId>>,
}

/// Snapshots built by [`Adjacency::of`] in this process.
static ADJACENCY_BUILDS: AtomicU64 = AtomicU64::new(0);

/// How many adjacency snapshots this process has built so far. A test reads
/// it around a load path to pin how many times that path walks the graph's
/// edges; the count publishes no other data.
pub fn adjacency_builds() -> u64 {
    ADJACENCY_BUILDS.load(Ordering::Relaxed)
}

impl<'g> Adjacency<'g> {
    /// The adjacency of a node list. Borrows only the nodes, so a caller
    /// that owns the [`Graph`] can still fill its `value_info` while the
    /// snapshot is alive.
    pub fn of(nodes: &'g [Node]) -> Adjacency<'g> {
        ADJACENCY_BUILDS.fetch_add(1, Ordering::Relaxed);
        let mut producer_of = HashMap::with_capacity(nodes.len());
        let mut consumers_of: HashMap<&str, Vec<NodeId>> = HashMap::new();
        for n in nodes {
            for out in &n.outputs {
                producer_of.insert(out.as_str(), n.id);
            }
        }
        for n in nodes {
            for inp in &n.inputs {
                consumers_of.entry(inp.as_str()).or_default().push(n.id);
            }
        }
        let mut preds = vec![Vec::new(); nodes.len()];
        let mut succs = vec![Vec::new(); nodes.len()];
        for n in nodes {
            for inp in &n.inputs {
                if let Some(&p) = producer_of.get(inp.as_str()) {
                    if !preds[n.id].contains(&p) {
                        preds[n.id].push(p);
                    }
                    // Nodes are visited in id order, so a repeat of this
                    // edge can only be the entry pushed last.
                    if succs[p].last() != Some(&n.id) {
                        succs[p].push(n.id);
                    }
                }
            }
        }
        Adjacency {
            producer_of: NameMap(producer_of),
            consumers_of: NameMap(consumers_of),
            preds,
            succs,
        }
    }
}

impl Graph {
    /// An empty graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            initializers: BTreeMap::new(),
            value_info: BTreeMap::new(),
        }
    }

    /// Number of operator nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of node-to-node dependence edges (tensor granularity: one per
    /// (producer, consumer, tensor) triple).
    pub fn num_edges(&self) -> usize {
        self.dependence_pairs(&self.adjacency()).count()
    }

    /// `(producer, consumer)` of every dependence triple, in consumer order,
    /// read off an adjacency snapshot the caller already holds.
    pub fn dependence_pairs<'a>(
        &'a self,
        adj: &'a Adjacency<'_>,
    ) -> impl Iterator<Item = (NodeId, NodeId)> + 'a {
        self.nodes.iter().flat_map(move |n| {
            n.inputs
                .iter()
                .filter_map(move |t| adj.producer_of.get(t).map(|&p| (p, n.id)))
        })
    }

    /// Borrow a node by id.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id).ok_or(IrError::UnknownNode(id))
    }

    /// Append a node, assigning it the next id. Low-level; prefer
    /// [`crate::GraphBuilder`] for construction.
    pub fn push_node(
        &mut self,
        name: impl Into<String>,
        op: OpKind,
        inputs: Vec<String>,
        outputs: Vec<String>,
    ) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node {
            id,
            name: name.into(),
            op,
            inputs,
            outputs,
        });
        id
    }

    /// True if `tensor` is a compile-time constant.
    pub fn is_initializer(&self, tensor: &str) -> bool {
        self.initializers.contains_key(tensor)
    }

    /// True if `tensor` is a runtime graph input.
    pub fn is_graph_input(&self, tensor: &str) -> bool {
        self.inputs.iter().any(|i| i.name == tensor)
    }

    /// Look up the static description of a tensor: graph inputs first, then
    /// inferred `value_info`, then initializers.
    pub fn tensor_info(&self, tensor: &str) -> Option<TensorInfo> {
        if let Some(i) = self.inputs.iter().find(|i| i.name == tensor) {
            return Some(i.clone());
        }
        if let Some(v) = self.value_info.get(tensor) {
            return Some(v.clone());
        }
        self.initializers.get(tensor).map(|t| TensorInfo {
            name: tensor.to_string(),
            dtype: t.dtype(),
            shape: t.shape.clone(),
        })
    }

    /// Build the adjacency snapshot for the current structure.
    pub fn adjacency(&self) -> Adjacency<'_> {
        Adjacency::of(&self.nodes)
    }

    /// The node producing `tensor`, if any.
    pub fn producer(&self, tensor: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .find(|n| n.outputs.iter().any(|o| o == tensor))
            .map(|n| n.id)
    }

    /// Keep only the nodes for which `keep` returns true, dropping their
    /// edges, reindexing ids, and pruning now-unreferenced initializers and
    /// `value_info` entries. Returns the old-id → new-id mapping.
    pub fn retain_nodes(&mut self, mut keep: impl FnMut(&Node) -> bool) -> HashMap<NodeId, NodeId> {
        let mut mapping = HashMap::new();
        let mut kept = Vec::with_capacity(self.nodes.len());
        for node in self.nodes.drain(..) {
            if keep(&node) {
                let new_id = kept.len();
                mapping.insert(node.id, new_id);
                let mut node = node;
                node.id = new_id;
                kept.push(node);
            }
        }
        self.nodes = kept;
        self.prune_dangling_metadata();
        mapping
    }

    /// Drop initializers and value_info entries no longer referenced by any
    /// node, graph input, or graph output.
    pub fn prune_dangling_metadata(&mut self) {
        let mut live: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for n in &self.nodes {
            live.extend(n.inputs.iter().map(String::as_str));
            live.extend(n.outputs.iter().map(String::as_str));
        }
        live.extend(self.outputs.iter().map(String::as_str));
        self.initializers.retain(|k, _| live.contains(k.as_str()));
        self.value_info.retain(|k, _| live.contains(k.as_str()));
    }

    /// All (producer, consumer, tensor) dependence triples.
    pub fn edges(&self) -> Vec<(NodeId, NodeId, String)> {
        let adj = self.adjacency();
        let mut out = Vec::new();
        for n in &self.nodes {
            for inp in &n.inputs {
                if let Some(&p) = adj.producer_of.get(inp) {
                    out.push((p, n.id, inp.clone()));
                }
            }
        }
        out
    }

    /// Total static weight-parameter count (initializer elements), a rough
    /// model-size statistic used in reports.
    pub fn num_parameters(&self) -> usize {
        self.initializers.values().map(|t| t.numel()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // in -> a -> {b, c} -> d
        let mut g = Graph::new("diamond");
        g.inputs.push(TensorInfo::new("in", DType::F32, vec![1, 4]));
        g.push_node("a", OpKind::Relu, vec!["in".into()], vec!["ta".into()]);
        g.push_node("b", OpKind::Sigmoid, vec!["ta".into()], vec!["tb".into()]);
        g.push_node("c", OpKind::Tanh, vec!["ta".into()], vec!["tc".into()]);
        g.push_node(
            "d",
            OpKind::Add,
            vec!["tb".into(), "tc".into()],
            vec!["td".into()],
        );
        g.outputs.push("td".into());
        g
    }

    #[test]
    fn adjacency_reflects_structure() {
        let g = diamond();
        let adj = g.adjacency();
        assert_eq!(adj.producer_of["ta"], 0);
        assert_eq!(adj.succs[0], vec![1, 2]);
        assert_eq!(adj.preds[3], vec![1, 2]);
        assert_eq!(adj.consumers_of["ta"], vec![1, 2]);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn retain_nodes_reindexes_and_prunes() {
        let mut g = diamond();
        g.initializers
            .insert("w_unused".into(), TensorData::scalar_f32(1.0));
        // Remove node "c" (id 2) and "d" (id 3); keep a, b.
        g.outputs = vec!["tb".into()];
        let mapping = g.retain_nodes(|n| n.name == "a" || n.name == "b");
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(mapping[&0], 0);
        assert_eq!(mapping[&1], 1);
        assert!(!mapping.contains_key(&2));
        assert_eq!(g.nodes[1].name, "b");
        assert_eq!(g.nodes[1].id, 1);
        // unreferenced initializer is gone
        assert!(g.initializers.is_empty());
    }

    #[test]
    fn tensor_info_lookup_order() {
        let mut g = diamond();
        g.initializers
            .insert("w".into(), TensorData::f32(vec![2, 2], vec![0.0; 4]));
        assert_eq!(g.tensor_info("in").unwrap().shape, vec![1, 4]);
        assert_eq!(g.tensor_info("w").unwrap().shape, vec![2, 2]);
        assert!(g.tensor_info("nope").is_none());
    }

    #[test]
    fn producer_lookup() {
        let g = diamond();
        assert_eq!(g.producer("tc"), Some(2));
        assert_eq!(g.producer("in"), None);
    }

    #[test]
    fn duplicate_input_consumption_counts_twice_in_consumers() {
        let mut g = Graph::new("dup");
        g.inputs.push(TensorInfo::new("x", DType::F32, vec![2]));
        g.push_node("sq", OpKind::Relu, vec!["x".into()], vec!["y".into()]);
        g.push_node(
            "m",
            OpKind::Mul,
            vec!["y".into(), "y".into()],
            vec!["z".into()],
        );
        let adj = g.adjacency();
        assert_eq!(adj.consumers_of["y"], vec![1, 1]);
        // but preds/succs are unique
        assert_eq!(adj.preds[1], vec![0]);
        assert_eq!(adj.succs[0], vec![1]);
    }
}
