//! # ramiel-tensor
//!
//! Dense CPU tensors and the operator kernels that execute a
//! [`ramiel_ir::Graph`] node-by-node. This crate is the stand-in for the
//! paper's PyTorch execution substrate: real floating-point work happens
//! here, so the speedups measured by the runtime crate come from genuine
//! parallel execution rather than sleeps.
//!
//! Intra-operator parallelism (the paper's "downstream intra-op" knob,
//! OpenMP in PyTorch) is provided by an optional rayon thread pool carried in
//! [`ExecCtx`]; with no pool every kernel runs sequentially on the calling
//! thread, which is what the inter-op cluster executor uses so that clusters
//! do not oversubscribe cores by accident.

pub mod ctx;
pub mod eval;
pub mod kernels;
pub mod pack;
pub mod tensor;
pub mod value;

pub use ctx::{ExecCtx, MemGauge};
pub use eval::{eval_op, eval_op_inplace};
pub use pack::PackedWeightCache;
pub use tensor::Tensor;
pub use value::Value;

/// Errors raised while executing a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError(pub String);

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "execution error: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

/// Result alias for kernel execution.
pub type Result<T> = std::result::Result<T, ExecError>;

/// Convenience constructor for error returns.
pub fn exec_err<T>(msg: impl Into<String>) -> Result<T> {
    Err(ExecError(msg.into()))
}
