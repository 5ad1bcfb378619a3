//! The slot-resolved form of a graph, shared by the standing executors.
//!
//! A [`GraphProgram`] reads every tensor name off the adjacency snapshot's
//! value table, where each name already has a dense id: a produced tensor's
//! *base slot* is its value id, each node's operands become
//! `InSrc::Slot`, `InSrc::Weight` (an initializer, by its index in the
//! plan's weight table) or `InSrc::Input` (a graph input, the only name
//! still looked up at run time, in the request), and the in-place mark,
//! read counts and successor lists sit next to the node they belong to.
//! The names a run reports — node names, produced and input tensor names,
//! weight names — are copied into one buffer each, so a program is a
//! handful of allocations however many nodes it has. It is
//! batch-independent — a tensor *instance* is `(base slot, batch
//! element)` — so one program serves every batch size of a plan:
//! [`crate::StealPlan`] runs it directly on dependency counters, and
//! [`crate::PlannedBatch`] projects it onto each hypercluster worker's op
//! list.

use crate::{Env, Result, RuntimeError};
use ramiel_ir::graph::Adjacency;
use ramiel_ir::{Graph, OpKind};
use ramiel_passes::inplace_marks_with;
use ramiel_tensor::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Where one input operand of a node comes from.
#[derive(Debug, PartialEq)]
pub(crate) enum InSrc {
    /// Produced by another node: base slot index (its value id).
    Slot(u32),
    /// An initializer: its index in the weight table (the order of
    /// `Graph::initializers`).
    Weight(u32),
    /// A graph input (or a name nothing defines), fetched from the
    /// request's env by its name, [`GraphProgram::value_name`] of this id.
    Input(u32),
}

/// Where an operand of a [`GraphProgram`] node is read from, with the
/// tensor's name: what [`GraphProgram::operands`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand<'a> {
    /// Base slot `slot`: the node result `name`.
    Slot { slot: u32, name: &'a str },
    /// Entry `index` of the weight table: the initializer `name`.
    Weight { index: u32, name: &'a str },
    /// The graph input `name`, read from the request.
    Input(&'a str),
}

/// One graph node, pre-resolved for slot-based execution. Owns a copy of
/// the op so a program can outlive the borrowed `Graph` (a pool worker may
/// still be draining an abandoned job after its caller returned); its
/// name, operands, output slots and consumers are in the program's flat
/// tables ([`GraphProgram::node_name`], [`GraphProgram::inputs`],
/// [`GraphProgram::out_slots`], [`GraphProgram::succs`]).
#[derive(Debug, PartialEq)]
pub(crate) struct PlanNode {
    pub id: usize,
    pub op: OpKind,
    /// Number of slot-sourced input positions (the readiness count).
    pub preds: u32,
    /// Input position the in-place pass lets this node overwrite
    /// (`ramiel_passes::inplace`); executors still gate on sole ownership.
    pub mark: Option<usize>,
    /// A `Constant`'s payload: its index in the weight table.
    pub payload: Option<u32>,
}

/// Strings kept in one buffer: entry `i` is `text[ends[i - 1]..ends[i]]`.
#[derive(Debug, Default, PartialEq)]
struct Names {
    text: String,
    ends: Vec<u32>,
}

impl Names {
    fn collect<'a>(names: impl Iterator<Item = &'a str> + Clone) -> Names {
        let mut text = String::with_capacity(names.clone().map(str::len).sum());
        let ends = names
            .map(|n| {
                text.push_str(n);
                text.len() as u32
            })
            .collect();
        Names { text, ends }
    }

    fn get(&self, i: u32) -> &str {
        let i = i as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }
}

/// "No weight" in a per-value weight index.
const NO_WEIGHT: u32 = u32::MAX;

/// A graph with every tensor name resolved to a slot, a weight index or an
/// input. Build once per graph and share (`Arc`) across batch sizes and
/// executors.
#[derive(Debug, PartialEq)]
pub struct GraphProgram {
    pub(crate) nodes: Vec<PlanNode>,
    /// Per node `i`: its operands `operands[input_start[i]..input_start[i + 1]]`.
    input_start: Vec<u32>,
    operands: Vec<InSrc>,
    /// Per node `i`: its output slots `results[result_start[i]..result_start[i + 1]]`.
    result_start: Vec<u32>,
    results: Vec<u32>,
    /// Per node `i`: its consumers `consumers[consumer_start[i]..consumer_start[i + 1]]`,
    /// one entry per consuming input position, in node order.
    consumer_start: Vec<u32>,
    consumers: Vec<u32>,
    node_names: Names,
    /// Per value id of the snapshot the program was built from: its name
    /// (empty for a weight, which `weight_names` names). Ids below
    /// `slot_producer.len()` are the base slots.
    value_names: Names,
    /// Per weight index: the initializer's name.
    weight_names: Names,
    /// Per base slot: producing node index.
    pub(crate) slot_producer: Vec<u32>,
    /// Per base slot: reads over the whole graph (graph outputs carry one
    /// extra pin so they stay resident — and charged — to the end).
    pub(crate) slot_reads: Vec<u32>,
    pub(crate) slot_is_output: Vec<bool>,
    /// Graph outputs no node produces — a graph input or initializer named
    /// as an output, degenerate but legal — with the initializer's weight
    /// index when it is one.
    backfill: Vec<(String, Option<u32>)>,
    /// Node indices with zero slot-sourced inputs.
    pub(crate) roots: Vec<u32>,
}

impl GraphProgram {
    /// Resolve `graph`. Fails (RT-SETUP) on a tensor with two producers.
    pub fn new(graph: &Graph) -> Result<GraphProgram> {
        GraphProgram::with_adjacency(graph, &graph.adjacency())
    }

    /// [`GraphProgram::new`] over an adjacency snapshot the caller already
    /// holds (a plan build shares one with the clustering passes). Slots
    /// are the snapshot's value ids: no name is hashed here but the
    /// initializers', once each, to find their ids.
    pub fn with_adjacency(graph: &Graph, adj: &Adjacency<'_>) -> Result<GraphProgram> {
        let num_slots = adj.num_produced();
        let mut slot_producer = vec![u32::MAX; num_slots];
        for (i, node) in graph.nodes.iter().enumerate() {
            for (out, &v) in node.outputs.iter().zip(adj.results(i)) {
                let p = &mut slot_producer[v as usize];
                if *p != u32::MAX {
                    return Err(RuntimeError::Setup(format!(
                        "tensor `{out}` has multiple producers"
                    )));
                }
                *p = i as u32;
            }
        }
        let mut slot_reads = vec![0u32; num_slots];
        let mut slot_is_output = vec![false; num_slots];
        let mut backfill = Vec::new();
        let mut weight_of = vec![NO_WEIGHT; adj.num_values()];
        for (k, name) in graph.initializers.keys().enumerate() {
            if let Some(v) = adj.value_id(name) {
                weight_of[v as usize] = k as u32;
            }
        }
        for out in &graph.outputs {
            match adj.value_id(out).filter(|&v| (v as usize) < num_slots) {
                Some(s) => {
                    slot_is_output[s as usize] = true;
                    slot_reads[s as usize] += 1; // the pin
                }
                None => {
                    let weight = match adj.value_id(out) {
                        Some(v) => Some(weight_of[v as usize]).filter(|&k| k != NO_WEIGHT),
                        None => graph
                            .initializers
                            .keys()
                            .position(|k| k == out)
                            .map(|k| k as u32),
                    };
                    backfill.push((out.clone(), weight));
                }
            }
        }
        let marks = inplace_marks_with(graph, adj);
        let n = graph.nodes.len();
        let mut input_start = Vec::with_capacity(n + 1);
        let mut operands = Vec::new();
        let mut result_start = Vec::with_capacity(n + 1);
        let mut results = Vec::new();
        let mut consumer_start = vec![0u32; n + 1];
        let mut nodes = Vec::with_capacity(n);
        input_start.push(0);
        result_start.push(0);
        for (i, node) in graph.nodes.iter().enumerate() {
            let mut preds = 0;
            for &v in adj.operands(i) {
                operands.push(match weight_of[v as usize] {
                    _ if (v as usize) < num_slots => {
                        preds += 1;
                        slot_reads[v as usize] += 1;
                        consumer_start[slot_producer[v as usize] as usize + 1] += 1;
                        InSrc::Slot(v)
                    }
                    NO_WEIGHT => InSrc::Input(v),
                    k => InSrc::Weight(k),
                });
            }
            input_start.push(operands.len() as u32);
            let outs = adj.results(i);
            results.extend_from_slice(outs);
            result_start.push(results.len() as u32);
            let payload = match node.op {
                OpKind::Constant => outs
                    .first()
                    .map(|&v| weight_of[v as usize])
                    .filter(|&k| k != NO_WEIGHT),
                _ => None,
            };
            nodes.push(PlanNode {
                id: node.id,
                op: node.op.clone(),
                preds,
                mark: marks.slot(node.id),
                payload,
            });
        }
        for i in 0..n {
            consumer_start[i + 1] += consumer_start[i];
        }
        let mut cursor = consumer_start.clone();
        let mut consumers = vec![0u32; consumer_start[n] as usize];
        for i in 0..n {
            for src in &operands[input_start[i] as usize..input_start[i + 1] as usize] {
                if let InSrc::Slot(v) = *src {
                    let p = slot_producer[v as usize] as usize;
                    consumers[cursor[p] as usize] = i as u32;
                    cursor[p] += 1;
                }
            }
        }
        let roots = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.preds == 0)
            .map(|(i, _)| i as u32)
            .collect();
        Ok(GraphProgram {
            nodes,
            input_start,
            operands,
            result_start,
            results,
            consumer_start,
            consumers,
            node_names: Names::collect(graph.nodes.iter().map(|n| n.name.as_str())),
            // A weight is named by `weight_names`; its value id never is.
            value_names: Names::collect((0..adj.num_values()).map(|v| match weight_of[v] {
                k if k != NO_WEIGHT && v >= num_slots => "",
                _ => adj.value_name(v as u32),
            })),
            weight_names: Names::collect(graph.initializers.keys().map(String::as_str)),
            slot_producer,
            slot_reads,
            slot_is_output,
            backfill,
            roots,
        })
    }

    /// The operand sources of node `i`, in input order.
    pub(crate) fn inputs(&self, i: usize) -> &[InSrc] {
        &self.operands[self.input_start[i] as usize..self.input_start[i + 1] as usize]
    }

    /// The base slots node `i` produces, in output order.
    pub(crate) fn out_slots(&self, i: usize) -> &[u32] {
        &self.results[self.result_start[i] as usize..self.result_start[i + 1] as usize]
    }

    /// The nodes reading node `i`'s outputs, one entry per consuming input
    /// position, in node order.
    pub(crate) fn succs(&self, i: usize) -> &[u32] {
        &self.consumers[self.consumer_start[i] as usize..self.consumer_start[i + 1] as usize]
    }

    /// Number of nodes (the graph's, in its order).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Where each operand of node `i` is read from, in input order.
    pub fn operands(&self, i: usize) -> impl Iterator<Item = Operand<'_>> + '_ {
        self.inputs(i).iter().map(|src| match *src {
            InSrc::Slot(slot) => Operand::Slot {
                slot,
                name: self.value_name(slot),
            },
            InSrc::Weight(index) => Operand::Weight {
                index,
                name: self.weight_name(index),
            },
            InSrc::Input(v) => Operand::Input(self.value_name(v)),
        })
    }

    /// The base slot and tensor name of each output of node `i`, in output
    /// order.
    pub fn results(&self, i: usize) -> impl Iterator<Item = (u32, &str)> + '_ {
        self.out_slots(i).iter().map(|&s| (s, self.value_name(s)))
    }

    /// Number of base slots (produced tensors).
    pub(crate) fn num_slots(&self) -> usize {
        self.slot_producer.len()
    }

    /// The name of node `i`.
    pub(crate) fn node_name(&self, i: usize) -> &str {
        self.node_names.get(i as u32)
    }

    /// The tensor name of base slot or input id `v`.
    pub(crate) fn value_name(&self, v: u32) -> &str {
        self.value_names.get(v)
    }

    /// The initializer name of weight `k`.
    pub(crate) fn weight_name(&self, k: u32) -> &str {
        self.weight_names.get(k)
    }

    /// Number of weights (initializers) the program indexes.
    pub(crate) fn num_weights(&self) -> usize {
        self.weight_names.ends.len()
    }

    /// Graph outputs no node produces, copied into each batch element's
    /// output env from its inputs or from the weights (`weight(k)` is
    /// weight `k`).
    pub(crate) fn backfill_outputs<'w>(
        &self,
        outs: &mut [Env],
        inputs: &[Env],
        weight: impl Fn(u32) -> Option<&'w Value>,
    ) {
        for (env, input) in outs.iter_mut().zip(inputs) {
            for (name, k) in &self.backfill {
                if !env.contains_key(name) {
                    let v = input.get(name).or_else(|| k.and_then(&weight));
                    if let Some(v) = v {
                        env.insert(name.clone(), v.clone());
                    }
                }
            }
        }
    }
}

/// The weight table a [`GraphProgram`] of `graph` indexes: entry `k` is the
/// `k`-th initializer of `graph.initializers`, shared from `named` when the
/// caller brings a table (a refcount bump each), converted otherwise.
pub(crate) fn weight_table(
    graph: &Graph,
    named: Option<&HashMap<String, Value>>,
) -> Result<Arc<Vec<Value>>> {
    let weights = match named {
        Some(named) => graph
            .initializers
            .keys()
            .map(|name| {
                named.get(name).cloned().ok_or_else(|| {
                    RuntimeError::Setup(format!("initializer `{name}` missing from the weights"))
                })
            })
            .collect::<Result<_>>()?,
        None => graph
            .initializers
            .values()
            .map(|td| Ok(Value::from_tensor_data(td)?))
            .collect::<Result<_>>()?,
    };
    Ok(Arc::new(weights))
}
