//! Operator kernels, grouped by family.
//!
//! Every kernel is a pure function from input tensors to output tensors.
//! Heavy kernels take an [`crate::ExecCtx`] and split their outermost loop
//! over its rayon pool when one is attached (the intra-op knob); everything
//! else is sequential.

pub mod conv;
pub mod elementwise;
pub mod gemm;
pub mod movement;
pub mod norm;
pub mod pool;
pub mod reduce;
