//! The slot-resolved form of a graph, shared by the standing executors.
//!
//! A [`GraphProgram`] resolves every tensor name once: each produced tensor
//! gets a dense *base slot*, each node's operands become [`InSrc::Slot`] or
//! [`InSrc::External`] (graph input / initializer, the only names still
//! looked up at run time), and the in-place mark, read counts and successor
//! lists sit next to the node they belong to. It is batch-independent —
//! a tensor *instance* is `(base slot, batch element)` — so one program
//! serves every batch size of a plan: [`crate::StealPlan`] runs it directly
//! on dependency counters, and [`crate::PlannedBatch`] projects it onto each
//! hypercluster worker's op list.

use crate::{Env, Result, RuntimeError};
use ramiel_ir::graph::Adjacency;
use ramiel_ir::{Graph, OpKind};
use ramiel_passes::inplace_marks_with;
use ramiel_tensor::Value;
use std::collections::HashMap;

/// Where one input operand of a node comes from.
#[derive(Debug, PartialEq)]
pub(crate) enum InSrc {
    /// Produced by another node: base slot index.
    Slot(u32),
    /// Graph input or initializer, fetched by name.
    External(String),
}

/// One graph node, pre-resolved for slot-based execution. Owns copies of
/// the op and names so a program can outlive the borrowed `Graph` (a pool
/// worker may still be draining an abandoned job after its caller returned).
#[derive(Debug, PartialEq)]
pub(crate) struct PlanNode {
    pub id: usize,
    pub name: String,
    pub op: OpKind,
    pub inputs: Vec<InSrc>,
    /// Base slot per produced output.
    pub out_slots: Vec<u32>,
    /// Number of slot-sourced input positions (the readiness count).
    pub preds: u32,
    /// Consumer node indices, one entry per consuming input position.
    pub succs: Vec<u32>,
    /// Input position the in-place pass lets this node overwrite
    /// (`ramiel_passes::inplace`); executors still gate on sole ownership.
    pub mark: Option<usize>,
}

/// A graph with every tensor name resolved to a slot. Build once per graph
/// and share (`Arc`) across batch sizes and executors.
#[derive(Debug, PartialEq)]
pub struct GraphProgram {
    pub(crate) nodes: Vec<PlanNode>,
    /// Per base slot: produced tensor name.
    pub(crate) slot_names: Vec<String>,
    /// Per base slot: producing node index.
    pub(crate) slot_producer: Vec<u32>,
    /// Per base slot: reads over the whole graph (graph outputs carry one
    /// extra pin so they stay resident — and charged — to the end).
    pub(crate) slot_reads: Vec<u32>,
    pub(crate) slot_is_output: Vec<bool>,
    /// All graph output names (for the degenerate input-is-output backfill).
    pub(crate) graph_outputs: Vec<String>,
    /// Node indices with zero slot-sourced inputs.
    pub(crate) roots: Vec<u32>,
}

impl GraphProgram {
    /// Resolve `graph`. Fails (RT-SETUP) on a tensor with two producers.
    pub fn new(graph: &Graph) -> Result<GraphProgram> {
        GraphProgram::with_adjacency(graph, &graph.adjacency())
    }

    /// [`GraphProgram::new`] over an adjacency snapshot the caller already
    /// holds (a plan build shares one with the clustering passes).
    pub fn with_adjacency(graph: &Graph, adj: &Adjacency<'_>) -> Result<GraphProgram> {
        let mut slot_of: HashMap<&str, u32> = HashMap::new();
        let mut slot_names = Vec::new();
        let mut slot_producer = Vec::new();
        for (i, node) in graph.nodes.iter().enumerate() {
            for out in &node.outputs {
                if slot_of
                    .insert(out.as_str(), slot_names.len() as u32)
                    .is_some()
                {
                    return Err(RuntimeError::Setup(format!(
                        "tensor `{out}` has multiple producers"
                    )));
                }
                slot_names.push(out.clone());
                slot_producer.push(i as u32);
            }
        }
        let mut slot_reads = vec![0u32; slot_names.len()];
        let mut slot_is_output = vec![false; slot_names.len()];
        for out in &graph.outputs {
            if let Some(&s) = slot_of.get(out.as_str()) {
                slot_is_output[s as usize] = true;
                slot_reads[s as usize] += 1; // the pin
            }
        }
        let marks = inplace_marks_with(graph, adj);
        let mut nodes: Vec<PlanNode> = graph
            .nodes
            .iter()
            .map(|n| PlanNode {
                id: n.id,
                name: n.name.clone(),
                op: n.op.clone(),
                inputs: n
                    .inputs
                    .iter()
                    .map(|inp| match slot_of.get(inp.as_str()) {
                        Some(&s) => InSrc::Slot(s),
                        None => InSrc::External(inp.clone()),
                    })
                    .collect(),
                out_slots: n.outputs.iter().map(|o| slot_of[o.as_str()]).collect(),
                preds: 0,
                succs: Vec::new(),
                mark: marks.slot(n.id),
            })
            .collect();
        for i in 0..nodes.len() {
            for pos in 0..nodes[i].inputs.len() {
                if let InSrc::Slot(s) = nodes[i].inputs[pos] {
                    nodes[i].preds += 1;
                    slot_reads[s as usize] += 1;
                    nodes[slot_producer[s as usize] as usize]
                        .succs
                        .push(i as u32);
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
            slot_names,
            slot_producer,
            slot_reads,
            slot_is_output,
            graph_outputs: graph.outputs.clone(),
            roots,
        })
    }

    /// Graph outputs no node produces — a graph input or initializer named
    /// as an output, degenerate but legal — copied into each batch
    /// element's output env.
    pub(crate) fn backfill_outputs(
        &self,
        outs: &mut [Env],
        inputs: &[Env],
        init_values: &HashMap<String, Value>,
    ) {
        for (env, input) in outs.iter_mut().zip(inputs) {
            for name in &self.graph_outputs {
                if !env.contains_key(name) {
                    if let Some(v) = input.get(name).or_else(|| init_values.get(name)) {
                        env.insert(name.clone(), v.clone());
                    }
                }
            }
        }
    }
}
