//! The execution facts the executors and the static checker must agree on.
//!
//! `ramiel-runtime` charges its liveness gauge and sizes its worker inboxes
//! by these rules; `ramiel-verify`'s memory estimate and channel-capacity
//! lint reason with the same ones. Both import them from here, so the
//! static bound and the measured behaviour cannot drift apart.

use crate::{DType, Graph, OpKind};

/// Capacity of the bounded data-plane channels carrying cross-cluster
/// tensors (the runtime's `HyperPool` worker inboxes). A full inbox applies
/// backpressure to producers; `ramiel-verify`'s RA0401 flags schedules whose
/// worst-case in-flight message count can reach this bound inside a cluster
/// cycle, which is the shape that can deadlock. Sized far above any real
/// schedule (the largest model ships a few hundred cross-cluster messages
/// per batch) so backpressure never engages in practice.
pub const DATA_CHANNEL_CAPACITY: usize = 4096;

/// Largest model, in bytes, that any read takes (1 GiB): a model file
/// (`ramiel_onnx::read_model_file`, which the CLI and serve's local reads
/// share) and a registry fetch's body (`ramiel_runtime::limits`'s
/// `FETCH_MAX_BYTES` is this value). Past it the read fails without
/// reading further.
pub const MODEL_MAX_BYTES: usize = 1 << 30;

/// Bytes per element of `d`.
#[inline]
pub fn dtype_bytes(d: DType) -> usize {
    match d {
        DType::F32 => 4,
        DType::I64 => 8,
        DType::Bool => 1,
    }
}

/// Size in bytes of a (shape-inferred) tensor; 0 when unknown.
#[inline]
pub fn tensor_bytes(graph: &Graph, tensor: &str) -> usize {
    graph
        .tensor_info(tensor)
        .map(|i| i.numel().saturating_mul(dtype_bytes(i.dtype)))
        .unwrap_or(0)
}

/// True for ops whose output shares its input buffer (`Tensor::reshaped` /
/// `clone` paths in `eval_op`): their outputs are refcount bumps, not
/// allocations, so liveness accounting charges them zero bytes.
#[inline]
pub fn is_alias_op(op: &OpKind) -> bool {
    matches!(
        op,
        OpKind::Reshape
            | OpKind::Flatten { .. }
            | OpKind::Squeeze { .. }
            | OpKind::Unsqueeze { .. }
            | OpKind::Identity
            | OpKind::Dropout
            // Constant outputs are fetched from the shared initializer
            // table, so the env entry is another handle, not new bytes.
            | OpKind::Constant
    )
}
