//! Operator kinds and their static attributes.
//!
//! The set mirrors the ONNX operators exercised by the paper's eight
//! evaluation models: convolutional vision networks (SqueezeNet, GoogleNet,
//! Inception V3/V4, YOLO v5, RetinaNet, NASNet) and transformer encoders
//! (BERT), plus the shape-computation operators (`Shape`, `Gather`,
//! `Unsqueeze`, `ConstantOfShape`, …) that ONNX exporters weave around
//! `Reshape` and that the paper's constant-propagation pass folds away.

/// Element type of a tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit IEEE float — activations and weights.
    F32,
    /// 64-bit signed integer — indices and shape tensors.
    I64,
    /// Boolean — masks.
    Bool,
}

impl DType {
    /// Short lowercase name, used in codegen and DOT labels.
    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::I64 => "i64",
            DType::Bool => "bool",
        }
    }
}

/// Spatial pooling attributes shared by `MaxPool` and `AveragePool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolSpec {
    /// Kernel size `(kh, kw)`.
    pub kernel: (usize, usize),
    /// Stride `(sh, sw)`.
    pub stride: (usize, usize),
    /// Symmetric padding `(ph, pw)` applied on both sides of each spatial axis.
    pub pads: (usize, usize),
    /// Use ceil instead of floor when computing the output extent.
    pub ceil_mode: bool,
}

impl PoolSpec {
    /// A square kernel with stride 1 and "same"-ish padding of `k/2`.
    pub fn square(k: usize) -> Self {
        PoolSpec {
            kernel: (k, k),
            stride: (1, 1),
            pads: (k / 2, k / 2),
            ceil_mode: false,
        }
    }

    /// Output spatial extent for an input extent `n` along one axis.
    /// Degenerate attributes (zero stride — rejected by `validate` as
    /// RV0002) yield 0 rather than dividing by zero.
    pub fn out_extent(&self, n: usize, axis: usize) -> usize {
        let (k, s, p) = match axis {
            0 => (self.kernel.0, self.stride.0, self.pads.0),
            _ => (self.kernel.1, self.stride.1, self.pads.1),
        };
        let padded = p.saturating_mul(2).saturating_add(n);
        if padded < k || s == 0 {
            return 0;
        }
        if self.ceil_mode {
            (padded - k).div_ceil(s) + 1
        } else {
            (padded - k) / s + 1
        }
    }
}

/// A single ML operator together with its static (compile-time) attributes.
///
/// Runtime tensor operands are *not* stored here — they are the node's named
/// inputs. Attributes here are only those that ONNX encodes as node
/// attributes rather than tensor inputs (we also lift a few commonly-constant
/// tensor inputs, e.g. `Slice` ranges, into attributes for simplicity; the
/// model generators follow the same convention).
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    // ---- convolution / linear algebra -------------------------------------
    /// 2-D convolution. Inputs: `[x, weight]` or `[x, weight, bias]`.
    Conv {
        /// Kernel size `(kh, kw)`; duplicated from the weight shape so the
        /// cost model can price a node without consulting initializers.
        kernel: (usize, usize),
        stride: (usize, usize),
        pads: (usize, usize),
        groups: usize,
    },
    /// Batched matrix multiply. Inputs: `[a, b]`.
    MatMul,
    /// Fully-connected layer `y = x · Wᵀ + b`. Inputs: `[x, w]` or `[x, w, b]`.
    Gemm {
        /// Transpose the weight operand (ONNX `transB`).
        trans_b: bool,
    },

    // ---- activations / unary elementwise ----------------------------------
    Relu,
    LeakyRelu {
        alpha: f32,
    },
    Sigmoid,
    Tanh,
    /// Gaussian error linear unit (the `erf` formulation used by BERT).
    Gelu,
    Erf,
    Sqrt,
    Exp,
    Neg,
    Clip {
        min: f32,
        max: f32,
    },
    /// Inference-mode dropout: the identity function.
    Dropout,
    Identity,

    // ---- binary elementwise (with numpy broadcasting) ----------------------
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    /// Elementwise equality producing a `Bool` tensor.
    Equal,
    /// `where(cond, a, b)` ternary select. Inputs: `[cond, a, b]`.
    Where,

    // ---- reductions / normalization ----------------------------------------
    Softmax {
        axis: isize,
    },
    /// Inference-mode batch normalization. Inputs:
    /// `[x, scale, bias, mean, var]`.
    BatchNorm {
        epsilon: f32,
    },
    /// Layer normalization over the trailing axis. Inputs: `[x, scale, bias]`.
    LayerNorm {
        epsilon: f32,
    },
    ReduceMean {
        axes: Vec<isize>,
        keepdims: bool,
    },

    // ---- pooling ------------------------------------------------------------
    MaxPool(PoolSpec),
    AveragePool(PoolSpec),
    GlobalAveragePool,

    // ---- data movement -------------------------------------------------------
    Concat {
        axis: isize,
    },
    /// Split along `axis` into parts of the given sizes. One output per part.
    Split {
        axis: isize,
        parts: Vec<usize>,
    },
    /// Strided slice, attributes-only form.
    Slice {
        axes: Vec<isize>,
        starts: Vec<i64>,
        ends: Vec<i64>,
        steps: Vec<i64>,
    },
    /// Index lookup along `axis`. Inputs: `[data, indices]`.
    Gather {
        axis: isize,
    },
    /// Reshape to the shape given by the second (usually constant) input.
    /// Inputs: `[data, shape]`.
    Reshape,
    Transpose {
        perm: Vec<usize>,
    },
    Flatten {
        axis: isize,
    },
    Unsqueeze {
        axes: Vec<isize>,
    },
    Squeeze {
        axes: Vec<isize>,
    },
    /// Broadcast `data` to the shape given by the second input.
    Expand,
    /// Nearest-neighbour spatial upsampling by integer factors.
    Resize {
        scale: (usize, usize),
    },
    /// Constant spatial zero-padding, NCHW: `(top, left, bottom, right)`.
    Pad {
        pads: (usize, usize, usize, usize),
    },
    Cast {
        to: DType,
    },

    // ---- constants / shape computation ----------------------------------------
    /// Materialize an embedded constant. No inputs; the payload lives in the
    /// graph initializer table under the node's output name.
    Constant,
    /// Runtime shape of the input as a 1-D `I64` tensor.
    Shape,
    /// Fill a tensor of the shape given by the (constant) input with `value`.
    ConstantOfShape {
        value: f32,
    },
}

impl OpKind {
    /// The ONNX-style operator name (used in codegen, DOT labels and tables).
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Conv { .. } => "Conv",
            OpKind::MatMul => "MatMul",
            OpKind::Gemm { .. } => "Gemm",
            OpKind::Relu => "Relu",
            OpKind::LeakyRelu { .. } => "LeakyRelu",
            OpKind::Sigmoid => "Sigmoid",
            OpKind::Tanh => "Tanh",
            OpKind::Gelu => "Gelu",
            OpKind::Erf => "Erf",
            OpKind::Sqrt => "Sqrt",
            OpKind::Exp => "Exp",
            OpKind::Neg => "Neg",
            OpKind::Clip { .. } => "Clip",
            OpKind::Dropout => "Dropout",
            OpKind::Identity => "Identity",
            OpKind::Add => "Add",
            OpKind::Sub => "Sub",
            OpKind::Mul => "Mul",
            OpKind::Div => "Div",
            OpKind::Pow => "Pow",
            OpKind::Equal => "Equal",
            OpKind::Where => "Where",
            OpKind::Softmax { .. } => "Softmax",
            OpKind::BatchNorm { .. } => "BatchNormalization",
            OpKind::LayerNorm { .. } => "LayerNormalization",
            OpKind::ReduceMean { .. } => "ReduceMean",
            OpKind::MaxPool(_) => "MaxPool",
            OpKind::AveragePool(_) => "AveragePool",
            OpKind::GlobalAveragePool => "GlobalAveragePool",
            OpKind::Concat { .. } => "Concat",
            OpKind::Split { .. } => "Split",
            OpKind::Slice { .. } => "Slice",
            OpKind::Gather { .. } => "Gather",
            OpKind::Reshape => "Reshape",
            OpKind::Transpose { .. } => "Transpose",
            OpKind::Flatten { .. } => "Flatten",
            OpKind::Unsqueeze { .. } => "Unsqueeze",
            OpKind::Squeeze { .. } => "Squeeze",
            OpKind::Expand => "Expand",
            OpKind::Resize { .. } => "Resize",
            OpKind::Pad { .. } => "Pad",
            OpKind::Cast { .. } => "Cast",
            OpKind::Constant => "Constant",
            OpKind::Shape => "Shape",
            OpKind::ConstantOfShape { .. } => "ConstantOfShape",
        }
    }

    /// True for unary/binary elementwise operators (the paper assigns these a
    /// static cost of 1).
    pub fn is_elementwise(&self) -> bool {
        matches!(
            self,
            OpKind::Relu
                | OpKind::LeakyRelu { .. }
                | OpKind::Sigmoid
                | OpKind::Tanh
                | OpKind::Gelu
                | OpKind::Erf
                | OpKind::Sqrt
                | OpKind::Exp
                | OpKind::Neg
                | OpKind::Clip { .. }
                | OpKind::Dropout
                | OpKind::Identity
                | OpKind::Add
                | OpKind::Sub
                | OpKind::Mul
                | OpKind::Div
                | OpKind::Pow
                | OpKind::Equal
                | OpKind::Where
        )
    }

    /// True for pure data-movement / shape-computation operators that do no
    /// floating-point arithmetic.
    pub fn is_shape_op(&self) -> bool {
        matches!(
            self,
            OpKind::Reshape
                | OpKind::Transpose { .. }
                | OpKind::Flatten { .. }
                | OpKind::Unsqueeze { .. }
                | OpKind::Squeeze { .. }
                | OpKind::Expand
                | OpKind::Slice { .. }
                | OpKind::Gather { .. }
                | OpKind::Concat { .. }
                | OpKind::Split { .. }
                | OpKind::Cast { .. }
                | OpKind::Shape
                | OpKind::Constant
                | OpKind::ConstantOfShape { .. }
                | OpKind::Identity
                | OpKind::Pad { .. }
        )
    }

    /// True if the node is a pure function of its inputs (all our inference
    /// operators are; this exists so passes read as intent, and as a hook if
    /// stateful ops are ever added).
    pub fn is_pure(&self) -> bool {
        true
    }

    /// Number of outputs this operator produces.
    pub fn num_outputs(&self) -> usize {
        match self {
            OpKind::Split { parts, .. } => parts.len(),
            _ => 1,
        }
    }

    /// Permitted number of runtime inputs as `(min, max)`; `max == None`
    /// means variadic with no upper bound (`Concat`). Enforced by
    /// [`crate::validate::validate`], and kept in sync with what
    /// `shape::infer_node` and the tensor evaluator actually consume.
    pub fn input_arity(&self) -> (usize, Option<usize>) {
        match self {
            // optional trailing bias operand
            OpKind::Conv { .. } | OpKind::Gemm { .. } => (2, Some(3)),
            OpKind::MatMul
            | OpKind::Add
            | OpKind::Sub
            | OpKind::Mul
            | OpKind::Div
            | OpKind::Pow
            | OpKind::Equal
            | OpKind::Gather { .. }
            | OpKind::Reshape
            | OpKind::Expand => (2, Some(2)),
            OpKind::Where => (3, Some(3)),
            // `[x, scale, bias, mean, var]`
            OpKind::BatchNorm { .. } => (5, Some(5)),
            // `[x, scale, bias]`
            OpKind::LayerNorm { .. } => (3, Some(3)),
            OpKind::Concat { .. } => (1, None),
            OpKind::Constant => (0, Some(0)),
            // every remaining operator is strictly unary
            _ => (1, Some(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_out_extent_floor_and_ceil() {
        let p = PoolSpec {
            kernel: (3, 3),
            stride: (2, 2),
            pads: (0, 0),
            ceil_mode: false,
        };
        assert_eq!(p.out_extent(7, 0), 3);
        let c = PoolSpec {
            ceil_mode: true,
            ..p
        };
        assert_eq!(c.out_extent(7, 0), 3);
        assert_eq!(c.out_extent(8, 0), 4); // ceil rounds the ragged tail up
        let f = PoolSpec {
            ceil_mode: false,
            ..p
        };
        assert_eq!(f.out_extent(8, 0), 3);
    }

    #[test]
    fn pool_square_padding() {
        let p = PoolSpec::square(3);
        assert_eq!(p.pads, (1, 1));
        assert_eq!(p.out_extent(14, 0), 14);
        assert_eq!(p.out_extent(14, 1), 14);
    }

    #[test]
    fn elementwise_and_shape_ops_are_disjoint_for_compute_ops() {
        let conv = OpKind::Conv {
            kernel: (3, 3),
            stride: (1, 1),
            pads: (1, 1),
            groups: 1,
        };
        assert!(!conv.is_elementwise());
        assert!(!conv.is_shape_op());
        assert!(OpKind::Relu.is_elementwise());
        assert!(OpKind::Reshape.is_shape_op());
        assert!(!OpKind::MatMul.is_shape_op());
    }

    #[test]
    fn split_output_count_follows_parts() {
        let s = OpKind::Split {
            axis: 1,
            parts: vec![8, 8, 16],
        };
        assert_eq!(s.num_outputs(), 3);
        assert_eq!(OpKind::MatMul.num_outputs(), 1);
    }

    #[test]
    fn names_are_onnx_style() {
        assert_eq!(
            OpKind::BatchNorm { epsilon: 1e-5 }.name(),
            "BatchNormalization"
        );
        assert_eq!(OpKind::GlobalAveragePool.name(), "GlobalAveragePool");
    }
}
