//! # ramiel-onnx
//!
//! Real ONNX ingestion for the Ramiel pipeline, with zero heavyweight
//! dependencies: a handwritten protobuf wire-format reader/writer
//! ([`wire`]), the decoded ONNX message subset ([`proto`]), an importer
//! that lowers `ModelProto` onto the `ramiel-ir` [`Graph`]/`OpKind`
//! vocabulary ([`import`]), the matching exporter ([`export`]), and the
//! model-file loader ([`loader`]). ONNX is the only model encoding: every
//! path from bytes to a [`Graph`] runs [`import_model`].
//!
//! Every import is routed through `ir::validate` and `ir::shape`
//! inference, so an untrusted `.onnx` file meets the invariants natively
//! built models do (`ramiel check` then lints and verifies it like any
//! other model). Anything the importer cannot
//! express fails with a structured `ONNX-*` error naming the operator and
//! node — never a panic, never a silently wrong graph.

pub mod export;
pub mod import;
pub mod loader;
pub mod proto;
pub mod wire;

pub use export::{export_model, save_onnx};
pub use import::{import_model, import_model_with};
pub use loader::{load_model, read_model_file, read_model_file_within, LoadError};

use ramiel_ir::Graph;

/// Structured ONNX ingestion failure. Every variant maps to a stable
/// `ONNX-*` code (see [`OnnxError::code`]) so scripts and tests can match
/// on failure class without parsing prose.
#[derive(Debug, Clone, PartialEq)]
pub enum OnnxError {
    /// Protobuf wire-format decode failure (truncation, bad varint, bogus
    /// length) at an absolute byte offset in the file.
    Wire { offset: usize, reason: String },
    /// The model decoded but is not something we can ingest at the model
    /// level (no graph, missing output names, duplicate tensor names, …).
    Model { reason: String },
    /// An operator outside the supported subset, named together with the
    /// node carrying it.
    UnsupportedOp { op: String, node: String },
    /// A supported operator with attributes (or constant-input forms) the
    /// importer cannot express in the IR.
    Attr {
        op: String,
        node: String,
        reason: String,
    },
    /// A tensor element type outside {float32, int64, bool}.
    Dtype { context: String, data_type: i64 },
    /// A malformed initializer / constant tensor (element count vs dims
    /// mismatch, negative dims, missing payload).
    Tensor { name: String, reason: String },
    /// A value-info shape the static IR cannot hold (symbolic dimensions,
    /// negative extents).
    Shape { name: String, reason: String },
    /// The imported graph failed `ir::validate` / shape inference.
    Validate { reason: String },
}

impl OnnxError {
    /// Stable machine-readable failure class.
    pub fn code(&self) -> &'static str {
        match self {
            OnnxError::Wire { .. } => "ONNX-WIRE",
            OnnxError::Model { .. } => "ONNX-MODEL",
            OnnxError::UnsupportedOp { .. } => "ONNX-UNSUPPORTED-OP",
            OnnxError::Attr { .. } => "ONNX-ATTR",
            OnnxError::Dtype { .. } => "ONNX-DTYPE",
            OnnxError::Tensor { .. } => "ONNX-TENSOR",
            OnnxError::Shape { .. } => "ONNX-SHAPE",
            OnnxError::Validate { .. } => "ONNX-VALIDATE",
        }
    }
}

impl std::fmt::Display for OnnxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] ", self.code())?;
        match self {
            OnnxError::Wire { offset, reason } => {
                write!(f, "protobuf decode failed at byte {offset}: {reason}")
            }
            OnnxError::Model { reason } => write!(f, "{reason}"),
            OnnxError::UnsupportedOp { op, node } => {
                write!(f, "unsupported operator `{op}` at node `{node}`")
            }
            OnnxError::Attr { op, node, reason } => {
                write!(f, "`{op}` node `{node}`: {reason}")
            }
            OnnxError::Dtype { context, data_type } => write!(
                f,
                "{context}: unsupported tensor element type {data_type} (supported: float32=1, int64=7, bool=9)"
            ),
            OnnxError::Tensor { name, reason } => {
                write!(f, "malformed tensor `{name}`: {reason}")
            }
            OnnxError::Shape { name, reason } => {
                write!(f, "tensor `{name}`: {reason}")
            }
            OnnxError::Validate { reason } => {
                write!(f, "imported graph failed IR validation: {reason}")
            }
        }
    }
}

impl std::error::Error for OnnxError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, OnnxError>;

/// Round-trip helper used by tests and CI: export `graph` to ONNX bytes and
/// import them back through validation and shape inference.
pub fn round_trip(graph: &Graph) -> Result<Graph> {
    import_model(&export_model(graph))
}
