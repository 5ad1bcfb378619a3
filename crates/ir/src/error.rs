//! Error type shared by all IR operations.

use std::fmt;

/// Errors produced while constructing, validating, transforming or
/// shape-inferring a [`crate::Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A tensor name was referenced but never produced by a node, listed as
    /// a graph input, or present in the initializer table.
    UnknownTensor(String),
    /// Two producers (nodes, inputs or initializers) claim the same tensor.
    DuplicateTensor(String),
    /// A node id was out of range or referred to a removed node.
    UnknownNode(usize),
    /// The graph contains a cycle (with a witness tensor on the cycle).
    Cycle(String),
    /// Shape inference failed for a node.
    Shape { node: String, reason: String },
    /// An operator received the wrong number of inputs.
    Arity {
        node: String,
        expected: usize,
        got: usize,
    },
    /// An operator carries a degenerate static attribute (zero stride, zero
    /// kernel extent, zero groups, …) that downstream shape math and kernels
    /// cannot give meaning to. Surfaced by `ramiel check` as RV0002.
    Attr { node: String, reason: String },
    /// Catch-all for invalid structural edits.
    Invalid(String),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::UnknownTensor(t) => write!(f, "unknown tensor `{t}`"),
            IrError::DuplicateTensor(t) => write!(f, "duplicate tensor `{t}`"),
            IrError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            IrError::Cycle(t) => write!(f, "graph contains a cycle through `{t}`"),
            IrError::Shape { node, reason } => {
                write!(f, "shape inference failed at node `{node}`: {reason}")
            }
            IrError::Arity {
                node,
                expected,
                got,
            } => write!(f, "node `{node}` expects {expected} inputs, got {got}"),
            IrError::Attr { node, reason } => {
                write!(f, "node `{node}` has an invalid attribute: {reason}")
            }
            IrError::Invalid(msg) => write!(f, "invalid graph operation: {msg}"),
        }
    }
}

impl std::error::Error for IrError {}
