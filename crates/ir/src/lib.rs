//! # ramiel-ir
//!
//! The dataflow-graph intermediate representation (IR) used throughout the
//! Ramiel task-parallelization pipeline.
//!
//! A [`Graph`] is a directed acyclic graph of [`Node`]s. Each node applies a
//! single ML operator ([`OpKind`]) to a set of named input tensors and
//! produces one or more named output tensors. Tensor values flowing along
//! edges are described by [`TensorInfo`] (dtype + static shape); weights and
//! other compile-time constants live in the graph's *initializer* table as
//! [`TensorData`].
//!
//! The IR mirrors the subset of ONNX that the paper's eight evaluation
//! models exercise (convolutional vision networks, transformer encoders and
//! the shape-computation subgraphs that ONNX exporters emit around
//! `Reshape`/`Slice`/`Gather`).
//!
//! Modules:
//! - [`op`] — operator kinds and their attributes
//! - [`graph`] — the graph container, edge queries, mutation helpers
//! - [`builder`] — ergonomic construction of graphs in topological order
//! - [`shape`] — static shape inference for every supported operator
//! - [`topo`] — topological ordering and level (ASAP) computation
//! - [`validate`] — structural well-formedness checks
//! - [`dot`] — Graphviz export used for the paper's figures
//! - [`tensor_data`] — constant tensor payloads (initializers)
//! - [`runtime_model`] — byte charges and the inbox bound the executors and
//!   the static checker share

pub mod builder;
pub mod dot;
pub mod error;
pub mod graph;
pub mod op;
pub mod runtime_model;
pub mod shape;
pub mod tensor_data;
pub mod topo;
pub mod validate;

pub use builder::GraphBuilder;
pub use error::IrError;
pub use graph::{Graph, Node, NodeId, TensorInfo, TensorRef, ValueId};
pub use op::{DType, OpKind, PoolSpec};
pub use tensor_data::TensorData;

/// Result alias for IR operations.
pub type Result<T> = std::result::Result<T, IrError>;
