//! The dataflow graph container and its edge queries.
//!
//! [`Graph`] keeps tensors by name. [`Adjacency`] is the one name table of
//! a snapshot: one hash pass over the nodes gives every tensor name a
//! dense [`ValueId`] and records producers, consumers and each node's
//! operand and result ids in flat arrays, so the passes that follow —
//! validation, shape inference, lints, clustering, the runtime's slot
//! program — index by id instead of hashing names again.

use crate::error::IrError;
use crate::op::{DType, OpKind};
use crate::tensor_data::TensorData;
use crate::Result;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// A borrowed tensor description: the element type and shape of a
/// [`TensorInfo`] or of an initializer's payload, without its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorRef<'a> {
    pub dtype: DType,
    pub shape: &'a [usize],
}

impl TensorRef<'_> {
    /// Total number of elements, saturating as [`TensorInfo::numel`].
    pub fn numel(&self) -> usize {
        crate::shape::saturating_numel(self.shape)
    }

    /// An owned [`TensorInfo`] named `name`.
    pub fn to_info(self, name: impl Into<String>) -> TensorInfo {
        TensorInfo::new(name, self.dtype, self.shape.to_vec())
    }
}

impl<'a> From<&'a TensorInfo> for TensorRef<'a> {
    fn from(i: &'a TensorInfo) -> Self {
        TensorRef {
            dtype: i.dtype,
            shape: &i.shape,
        }
    }
}

impl<'a> From<&'a TensorData> for TensorRef<'a> {
    fn from(t: &'a TensorData) -> Self {
        TensorRef {
            dtype: t.dtype(),
            shape: &t.shape,
        }
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

/// Dense index of a tensor name within one [`Adjacency`]: the ids of a
/// snapshot run `0..num_values()`, node results first (in node and output
/// order), then every name nodes only consume (graph inputs, initializers,
/// and names nothing defines).
pub type ValueId = u32;

/// "Produced by no node" in [`ValueTable::producer`].
const NO_NODE: NodeId = NodeId::MAX;

/// The one tensor-name table of a snapshot: every name a node reads or
/// writes, hashed once, and what each id is connected to, in flat arrays.
#[derive(Debug)]
struct ValueTable<'g> {
    ids: HashMap<&'g str, ValueId>,
    names: Vec<&'g str>,
    /// Per value: the producing node ([`NO_NODE`] if none; the last one if
    /// a malformed graph has several).
    producer: Vec<NodeId>,
    /// Per value `v`: `consumers[consumer_start[v]..consumer_start[v + 1]]`,
    /// in node order, one entry per consuming input position.
    consumer_start: Vec<u32>,
    consumers: Vec<NodeId>,
    /// Per node `n`: its operand ids `operands[operand_start[n]..operand_start[n + 1]]`.
    operand_start: Vec<u32>,
    operands: Vec<ValueId>,
    /// Per node `n`: its result ids `results[result_start[n]..result_start[n + 1]]`.
    result_start: Vec<u32>,
    results: Vec<ValueId>,
    /// Ids below this are node results.
    produced: u32,
}

impl<'g> ValueTable<'g> {
    fn id(&self, tensor: &str) -> Option<ValueId> {
        self.ids.get(tensor).copied()
    }

    fn consumers(&self, v: ValueId) -> &[NodeId] {
        let v = v as usize;
        &self.consumers[self.consumer_start[v] as usize..self.consumer_start[v + 1] as usize]
    }
}

/// Tensor name → producing node: a view of an [`Adjacency`]'s value table.
/// Lookups accept anything string-like — the `&String` of a node's input
/// list as well as a `&str`.
#[derive(Debug, Clone)]
pub struct ProducerOf<'g>(Arc<ValueTable<'g>>);

impl ProducerOf<'_> {
    pub fn get(&self, tensor: impl AsRef<str>) -> Option<&NodeId> {
        let v = self.0.id(tensor.as_ref())?;
        Some(&self.0.producer[v as usize]).filter(|&&p| p != NO_NODE)
    }

    pub fn contains_key(&self, tensor: impl AsRef<str>) -> bool {
        self.get(tensor).is_some()
    }
}

impl std::ops::Index<&str> for ProducerOf<'_> {
    type Output = NodeId;

    fn index(&self, tensor: &str) -> &NodeId {
        self.get(tensor)
            .unwrap_or_else(|| panic!("no node produces `{tensor}`"))
    }
}

/// Tensor name → consuming nodes: a view of an [`Adjacency`]'s value table.
/// A name no node consumes has no entry.
#[derive(Debug, Clone)]
pub struct ConsumersOf<'g>(Arc<ValueTable<'g>>);

impl ConsumersOf<'_> {
    pub fn get(&self, tensor: impl AsRef<str>) -> Option<&[NodeId]> {
        let v = self.0.id(tensor.as_ref())?;
        Some(self.0.consumers(v)).filter(|c| !c.is_empty())
    }

    pub fn contains_key(&self, tensor: impl AsRef<str>) -> bool {
        self.get(tensor).is_some()
    }
}

impl std::ops::Index<&str> for ConsumersOf<'_> {
    type Output = [NodeId];

    fn index(&self, tensor: &str) -> &[NodeId] {
        self.get(tensor)
            .unwrap_or_else(|| panic!("no node consumes `{tensor}`"))
    }
}

/// Precomputed adjacency for a graph snapshot. Build once per load with
/// [`Graph::adjacency`] (or [`Adjacency::of`]) and hand it down: it is the
/// one tensor-name table of the snapshot — every name hashed once, to a
/// dense [`ValueId`] — and its keys borrow from the graph's nodes, so the
/// snapshot cannot outlive (or survive a mutation of) the structure it
/// describes.
#[derive(Debug, Clone)]
pub struct Adjacency<'g> {
    /// Tensor name → producing node.
    pub producer_of: ProducerOf<'g>,
    /// Tensor name → consuming nodes (in node order, may repeat if a node
    /// consumes the same tensor twice).
    pub consumers_of: ConsumersOf<'g>,
    /// Unique predecessor node ids per node.
    pub preds: NodeLists,
    /// Unique successor node ids per node.
    pub succs: NodeLists,
}

/// A list of node ids per node, all in one flat array: `lists[n]` is node
/// `n`'s list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeLists {
    /// `items[start[n]..start[n + 1]]` is list `n`.
    start: Vec<u32>,
    items: Vec<NodeId>,
}

impl NodeLists {
    fn with_capacity(lists: usize, items: usize) -> NodeLists {
        let mut start = Vec::with_capacity(lists + 1);
        start.push(0);
        NodeLists {
            start,
            items: Vec::with_capacity(items),
        }
    }

    /// The list being filled: items pushed since the last [`close`](Self::close).
    fn last(&self) -> &[NodeId] {
        &self.items[*self.start.last().expect("start is never empty") as usize..]
    }

    /// End the list being filled; the next push starts the next one.
    fn close(&mut self) {
        self.start.push(self.items.len() as u32);
    }

    /// For every `m` in list `n`, `n` in list `m` — in increasing `n`.
    fn transpose(&self) -> NodeLists {
        let n = self.len();
        let mut start = vec![0u32; n + 1];
        for &m in &self.items {
            start[m + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut cursor = start.clone();
        let mut items = vec![0; self.items.len()];
        for (i, list) in self.iter().enumerate() {
            for &m in list {
                items[cursor[m] as usize] = i;
                cursor[m] += 1;
            }
        }
        NodeLists { start, items }
    }

    /// Number of lists (one per node).
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every list, in node order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &[NodeId]> + ExactSizeIterator + '_ {
        self.start
            .windows(2)
            .map(|w| &self.items[w[0] as usize..w[1] as usize])
    }
}

impl std::ops::Index<NodeId> for NodeLists {
    type Output = [NodeId];

    fn index(&self, n: NodeId) -> &[NodeId] {
        &self.items[self.start[n] as usize..self.start[n + 1] as usize]
    }
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
        let operand_count: usize = nodes.iter().map(|n| n.inputs.len()).sum();
        let result_count: usize = nodes.iter().map(|n| n.outputs.len()).sum();
        let mut ids: HashMap<&str, ValueId> = HashMap::with_capacity(operand_count + result_count);
        let mut names: Vec<&str> = Vec::with_capacity(operand_count + result_count);
        let mut producer: Vec<NodeId> = Vec::with_capacity(operand_count + result_count);
        let mut id_of = |name: &'g str, names: &mut Vec<&'g str>| {
            *ids.entry(name).or_insert_with(|| {
                names.push(name);
                (names.len() - 1) as ValueId
            })
        };
        // Results first, so the ids of produced values are dense from 0.
        let mut result_start = Vec::with_capacity(nodes.len() + 1);
        let mut results = Vec::with_capacity(result_count);
        result_start.push(0);
        for n in nodes {
            for out in &n.outputs {
                let v = id_of(out, &mut names);
                producer.resize(names.len(), NO_NODE);
                producer[v as usize] = n.id;
                results.push(v);
            }
            result_start.push(results.len() as u32);
        }
        let produced = names.len() as u32;
        let mut operand_start = Vec::with_capacity(nodes.len() + 1);
        let mut operands = Vec::with_capacity(operand_count);
        operand_start.push(0);
        for n in nodes {
            operands.extend(n.inputs.iter().map(|inp| id_of(inp, &mut names)));
            operand_start.push(operands.len() as u32);
        }
        producer.resize(names.len(), NO_NODE);

        // Consumers grouped by value, in node order: count, prefix-sum, fill.
        let mut consumer_start = vec![0u32; names.len() + 1];
        for &v in &operands {
            consumer_start[v as usize + 1] += 1;
        }
        for v in 0..names.len() {
            consumer_start[v + 1] += consumer_start[v];
        }
        let mut cursor = consumer_start.clone();
        let mut consumers = vec![0; operands.len()];
        for (i, n) in nodes.iter().enumerate() {
            let ops = &operands[operand_start[i] as usize..operand_start[i + 1] as usize];
            for &v in ops {
                consumers[cursor[v as usize] as usize] = n.id;
                cursor[v as usize] += 1;
            }
        }

        // Unique producers per node, in operand order; the successor lists
        // are their transpose, each in node order.
        let mut preds = NodeLists::with_capacity(nodes.len(), operands.len());
        for i in 0..nodes.len() {
            let ops = &operands[operand_start[i] as usize..operand_start[i + 1] as usize];
            for &v in ops {
                let p = producer[v as usize];
                if p != NO_NODE && !preds.last().contains(&p) {
                    preds.items.push(p);
                }
            }
            preds.close();
        }
        let succs = preds.transpose();
        let table = Arc::new(ValueTable {
            ids,
            names,
            producer,
            consumer_start,
            consumers,
            operand_start,
            operands,
            result_start,
            results,
            produced,
        });
        Adjacency {
            producer_of: ProducerOf(Arc::clone(&table)),
            consumers_of: ConsumersOf(table),
            preds,
            succs,
        }
    }

    fn table(&self) -> &ValueTable<'g> {
        &self.producer_of.0
    }

    /// The id of `tensor`, if a node reads or writes it.
    pub fn value_id(&self, tensor: &str) -> Option<ValueId> {
        self.table().id(tensor)
    }

    /// The name of value `v`.
    pub fn value_name(&self, v: ValueId) -> &'g str {
        self.table().names[v as usize]
    }

    /// Number of distinct tensor names the nodes read or write.
    pub fn num_values(&self) -> usize {
        self.table().names.len()
    }

    /// Number of distinct node results: the values with ids
    /// `0..num_produced()`, in the order the nodes list them.
    pub fn num_produced(&self) -> usize {
        self.table().produced as usize
    }

    /// The node producing value `v`.
    pub fn producer(&self, v: ValueId) -> Option<NodeId> {
        Some(self.table().producer[v as usize]).filter(|&p| p != NO_NODE)
    }

    /// The nodes consuming value `v`, one entry per consuming input
    /// position, in node order.
    pub fn consumers(&self, v: ValueId) -> &[NodeId] {
        self.table().consumers(v)
    }

    /// The operand ids of node `n`, in input order.
    pub fn operands(&self, n: NodeId) -> &[ValueId] {
        let t = self.table();
        &t.operands[t.operand_start[n] as usize..t.operand_start[n + 1] as usize]
    }

    /// The result ids of node `n`, in output order.
    pub fn results(&self, n: NodeId) -> &[ValueId] {
        let t = self.table();
        &t.results[t.result_start[n] as usize..t.result_start[n + 1] as usize]
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
            adj.operands(n.id)
                .iter()
                .filter_map(move |&v| adj.producer(v).map(|p| (p, n.id)))
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
        self.tensor_ref(tensor).map(|t| t.to_info(tensor))
    }

    /// [`Graph::tensor_info`], borrowed: nothing is cloned.
    pub fn tensor_ref(&self, tensor: &str) -> Option<TensorRef<'_>> {
        if let Some(i) = self.inputs.iter().find(|i| i.name == tensor) {
            return Some(TensorRef::from(i));
        }
        if let Some(v) = self.value_info.get(tensor) {
            return Some(TensorRef::from(v));
        }
        self.initializers.get(tensor).map(TensorRef::from)
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
